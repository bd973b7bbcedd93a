//! System assembly and the three experiment configurations.

use crate::agent::{Progress, SimAgent};
use crate::cpu::Cpu;
use crate::fault::{FaultPlan, FaultRecord};
use crate::hang::{build_hang_report, AgentSnapshot, HangReport, WaitState};
use crate::hwthread::{HwPlan, HwThread};
use crate::shared::Shared;
use twill_dswp::DswpResult;
use twill_hls::schedule::{schedule_module, HlsOptions, ModuleSchedule};
use twill_ir::{layout, FuncId, Module, QueueId};
use twill_obs::{ClassCycles, StallClass};

type Profile = Option<crate::profile::SimProfile>;

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Total base latency of a queue operation (thesis baseline: 2; the
    /// Fig 6.5 sweep raises this to 128).
    pub queue_latency: u32,
    /// Queue depth override for all queues (Fig 6.6 sweeps 2..32).
    pub queue_depth: Option<u32>,
    /// Per-queue depth overrides `(queue id, depth)`, applied after the
    /// global `queue_depth` override — the auto-tuner's main actuator
    /// (`twillc --queue-depths q0=4,q1=32`). Ids must name declared
    /// queues; duplicates keep the last entry.
    pub queue_depths: Vec<(usize, u32)>,
    pub mem_size: u32,
    pub max_cycles: u64,
    pub hls: HlsOptions,
    /// Keep the most recent N runtime events in the trace ring buffer
    /// (0 = tracing off).
    pub trace_events: usize,
    /// Attribute every agent cycle to the instruction occupying it
    /// (observation-only: cycle counts are identical either way).
    pub profile: bool,
    /// Deterministic fault-injection plan (`None` = injection off, the
    /// strictly-opt-in default; see [`crate::fault`]).
    pub fault: Option<FaultPlan>,
    /// No-progress window, in cycles, before the watchdog declares the
    /// system hung and renders a [`HangReport`].
    pub watchdog_window: u64,
    /// Event-driven fast-forward: leap the clock over spans where every
    /// agent is provably burning charge or re-polling a blocked op, stop
    /// ticking finished agents, and run the one awake agent ahead of
    /// sleeping peers, or by itself when it is the only live agent
    /// (observably identical to ticking each cycle; see DESIGN.md §12).
    /// `false` forces the naive tick-every-cycle loop — the bisection
    /// escape hatch. Defaults to on unless the `TWILL_NO_FAST_FORWARD`
    /// environment variable is set, which is how every tool selects it.
    pub fast_forward: bool,
    /// Sample the always-on counters every N cycles into a
    /// `twill_obs::Timeline` on the report (`SimReport::timeline`):
    /// per-thread stall-class deltas and per-queue traffic/stall deltas
    /// plus the occupancy level at each boundary. `None` (the default)
    /// turns the temporal layer off entirely — no state, no extra work on
    /// either loop path. Fast-forward spans are capped at boundaries so
    /// sampled timelines are byte-identical across loop modes
    /// (DESIGN.md §15).
    pub sample_interval: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            queue_latency: twill_ir::cost::HW_QUEUE_LATENCY,
            queue_depth: None,
            queue_depths: Vec::new(),
            mem_size: layout::DEFAULT_MEM_SIZE,
            max_cycles: 3_000_000_000,
            hls: HlsOptions::default(),
            trace_events: 0,
            profile: false,
            fault: None,
            watchdog_window: 1_000_000,
            fast_forward: std::env::var_os("TWILL_NO_FAST_FORWARD").is_none(),
            sample_interval: None,
        }
    }
}

impl SimConfig {
    fn queue_extra(&self) -> u32 {
        self.queue_latency.saturating_sub(twill_ir::cost::HW_QUEUE_LATENCY)
    }
}

/// Result of one simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub cycles: u64,
    pub output: Vec<i32>,
    /// `main`'s return value; `None` for a void `main` and for partial
    /// (timeout/deadlock) reports.
    pub ret: Option<i64>,
    pub stats: crate::shared::SimStats,
    /// Fraction of total cycles the CPU was busy (for the power model).
    pub cpu_busy_fraction: f64,
    pub hw_threads: usize,
    /// Track names in agent order (`cpu`, `hw1`, …).
    pub agent_names: Vec<String>,
    /// Trace events lost to the ring-buffer bound (0 when tracing was off
    /// or nothing was dropped). Never silently truncated.
    pub dropped_events: u64,
    /// Per-instruction cycle attribution (when `SimConfig::profile`).
    pub profile: Option<crate::profile::SimProfile>,
    /// Injected faults in order (bounded at `fault::FAULT_LOG_CAP`; empty
    /// when no fault plan was configured).
    pub fault_log: Vec<FaultRecord>,
    /// Typed runtime event trace (when `SimConfig::trace_events > 0`).
    pub events: Vec<twill_obs::Event>,
    /// Interval-sampled counter timeline (when
    /// `SimConfig::sample_interval` is set); per-interval deltas sum
    /// exactly to the end-of-run totals in `stats`, including for partial
    /// (timeout/deadlock) reports.
    pub timeline: Option<twill_obs::Timeline>,
}

impl SimReport {
    /// Fold the always-on counters into the structured metrics report
    /// (stall attribution, queue statistics, critical-stage analysis).
    pub fn metrics(&self) -> twill_obs::SimMetrics {
        twill_obs::SimMetrics {
            cycles: self.cycles,
            threads: self
                .agent_names
                .iter()
                .zip(&self.stats.agent_cycles)
                .map(|(name, &cycles)| twill_obs::ThreadMetrics { name: name.clone(), cycles })
                .collect(),
            queues: self
                .stats
                .queue_stats
                .iter()
                .zip(&self.stats.queue_peak)
                .enumerate()
                .map(|(i, (q, &peak))| twill_obs::QueueMetrics {
                    name: QueueId::new(i).to_string(),
                    depth: q.depth,
                    pushes: q.pushes,
                    pops: q.pops,
                    high_water: peak,
                    full_stalls: q.full_stalls,
                    empty_stalls: q.empty_stalls,
                    occupancy_hist: q.occupancy_hist.clone(),
                })
                .collect(),
            dropped_events: self.dropped_events,
            faults: self.stats.faults,
        }
    }

    /// Fold the per-instruction cycle attribution into a source-level
    /// profile (requires `SimConfig::profile`; `m` must be the simulated
    /// module). Overhead cycles appear as a `<runtime>` pseudo-site so the
    /// profile still sums to `agents × cycles`.
    pub fn source_profile(&self, m: &Module) -> Option<twill_obs::SourceProfile> {
        let prof = self.profile.as_ref()?;
        let mut samples = Vec::new();
        for (aid, agent) in prof.agents.iter().enumerate() {
            let thread = &self.agent_names[aid];
            for (&(fi, ii), c) in &agent.sites {
                let f = &m.funcs[fi];
                let iid = twill_ir::InstId::new(ii);
                let inst = f.inst(iid);
                samples.push(twill_obs::SiteSample {
                    thread: thread.clone(),
                    func: f.name.clone(),
                    line: f.loc(iid).line,
                    inst: twill_ir::printer::print_inst(m, &inst.op, inst.ty, iid.0),
                    cycles: *c,
                });
            }
            if agent.overhead.total() > 0 {
                samples.push(twill_obs::SiteSample {
                    thread: thread.clone(),
                    func: "<runtime>".to_string(),
                    line: 0,
                    inst: String::new(),
                    cycles: agent.overhead,
                });
            }
        }
        Some(twill_obs::SourceProfile { name: m.name.clone(), samples })
    }

    /// A Perfetto trace builder pre-loaded with this run's tracks, queue
    /// counters, events, and truncation metadata. Callers may attach
    /// compiler spans or extra metadata before `build()`.
    pub fn trace_builder(&self) -> twill_obs::TraceBuilder {
        let b = twill_obs::TraceBuilder::new()
            .threads(self.agent_names.iter().cloned())
            .queues((0..self.stats.queue_stats.len()).map(|i| QueueId::new(i).to_string()))
            .events(self.events.clone(), self.dropped_events);
        match &self.timeline {
            Some(t) => b.timeline(t.clone()),
            None => b,
        }
    }
}

/// Invalid `SimConfig`/module combinations, rejected before the run
/// starts (instead of panicking deep inside the simulator).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `queue_depth: Some(0)` — queues need at least one slot.
    ZeroQueueDepth,
    /// `mem_size` cannot hold the globals plus per-agent stacks.
    MemTooSmall { required: u32, got: u32 },
    /// The module has no `@main`.
    NoMain,
    /// `watchdog_window: 0` would trip on the first blocked cycle.
    ZeroWatchdog,
    /// A fault rate outside `[0, 1]` (or NaN).
    BadFaultRate { field: &'static str, value: f64 },
    /// A nonzero stall rate with `hw_stall_cycles: 0` injects nothing.
    ZeroStallCycles,
    /// A per-queue override names a queue the module does not declare.
    UnknownQueue { queue: usize, declared: usize },
    /// `sample_interval: Some(0)` — a zero-cycle window samples nothing.
    ZeroSampleInterval,
    /// A function a hardware thread reaches holds an operation hardware
    /// cannot execute: a `switch`, an indirect call, or a phi without an
    /// input for one of its block's reachable predecessors.
    HwUnsupported { func: String, line: u32, what: &'static str },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroQueueDepth => {
                write!(f, "queue_depth override of 0: queues need at least one slot")
            }
            ConfigError::MemTooSmall { required, got } => write!(
                f,
                "mem_size {got:#x} too small: need at least {required:#x} \
                 for globals plus per-agent stacks"
            ),
            ConfigError::NoMain => write!(f, "module has no @main function"),
            ConfigError::ZeroWatchdog => {
                write!(f, "watchdog_window of 0 would trip immediately; use a positive window")
            }
            ConfigError::BadFaultRate { field, value } => {
                write!(f, "fault rate {field} = {value} is outside [0, 1]")
            }
            ConfigError::ZeroStallCycles => {
                write!(f, "hw_stall_cycles of 0 with a nonzero hw_stall_rate injects nothing")
            }
            ConfigError::UnknownQueue { queue, declared } => {
                write!(
                    f,
                    "queue_depths override names {} but the module declares \
                     only {declared} queue(s)",
                    QueueId::new(*queue)
                )
            }
            ConfigError::ZeroSampleInterval => {
                write!(f, "sample_interval of 0: timeline windows need at least one cycle")
            }
            ConfigError::HwUnsupported { func, line, what } => {
                write!(f, "@{func}, line {line}: {what} cannot run on a hardware thread")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[derive(Debug)]
pub enum SimError {
    /// The watchdog saw no agent progress for a whole window. Carries the
    /// structured wait-for diagnosis and everything the run learned.
    Deadlock { report: HangReport, partial: Box<SimReport> },
    /// `max_cycles` exceeded; the partial report is attached so callers
    /// can still render output, metrics, and profile.
    Timeout { max_cycles: u64, partial: Box<SimReport> },
    /// The configuration was rejected before the run started.
    Config(ConfigError),
}

impl SimError {
    /// The partial report, when the run got far enough to produce one.
    pub fn partial_report(&self) -> Option<&SimReport> {
        match self {
            SimError::Deadlock { partial, .. } | SimError::Timeout { partial, .. } => Some(partial),
            SimError::Config(_) => None,
        }
    }

    /// The hang diagnosis, when this is a deadlock.
    pub fn hang_report(&self) -> Option<&HangReport> {
        match self {
            SimError::Deadlock { report, .. } => Some(report),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { report, .. } => {
                write!(f, "deadlock at cycle {}", report.cycle)?;
                if !report.chain.is_empty() {
                    write!(f, ": {}", report.chain.join(" -> "))?;
                }
                Ok(())
            }
            SimError::Timeout { max_cycles, .. } => {
                write!(f, "simulation exceeded {max_cycles} cycles")
            }
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

/// Where the per-agent stacks start: the end of the globals, rounded up
/// to 64 bytes.
fn stack_base(m: &Module) -> u32 {
    let globals_end =
        m.globals.iter().map(|g| g.addr + g.size).max().unwrap_or(layout::GLOBAL_BASE);
    (globals_end + 63) & !63
}

/// Reject configurations the simulator would otherwise panic on.
fn validate_config(m: &Module, cfg: &SimConfig, n_agents: usize) -> Result<(), ConfigError> {
    if cfg.queue_depth == Some(0) {
        return Err(ConfigError::ZeroQueueDepth);
    }
    for &(id, depth) in &cfg.queue_depths {
        if depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if id >= m.queues.len() {
            return Err(ConfigError::UnknownQueue { queue: id, declared: m.queues.len() });
        }
    }
    if cfg.watchdog_window == 0 {
        return Err(ConfigError::ZeroWatchdog);
    }
    if cfg.sample_interval == Some(0) {
        return Err(ConfigError::ZeroSampleInterval);
    }
    if let Some(plan) = &cfg.fault {
        if let Some((field, value)) = plan.spec.invalid_rate() {
            return Err(ConfigError::BadFaultRate { field, value });
        }
        if plan.spec.hw_stall_cycles == 0 && plan.spec.hw_stall_rate > 0.0 {
            return Err(ConfigError::ZeroStallCycles);
        }
    }
    // Each agent needs a usable stack region above the globals (the 128
    // floor keeps `stack_regions` arithmetic in range).
    let required = stack_base(m).saturating_add(128 * n_agents.max(1) as u32);
    if cfg.mem_size < required {
        return Err(ConfigError::MemTooSmall { required, got: cfg.mem_size });
    }
    Ok(())
}

/// Carve per-thread stack regions out of the memory above the globals.
fn stack_regions(m: &Module, mem_size: u32, n: usize) -> Vec<(u32, u32)> {
    let base = stack_base(m);
    let region = ((mem_size - base) / (n as u32).max(1)) & !63;
    (0..n)
        .map(|i| {
            let lo = base + region * i as u32;
            (lo, lo + region - 64)
        })
        .collect()
}

/// How a run halted internally; the public [`SimError`] attaches the
/// partial report to these in [`simulate`].
enum RunHalt {
    Timeout(u64),
    Deadlock(HangReport),
}

/// Attach the (possibly partial) report to the run's outcome.
fn wrap(halt: Result<(), RunHalt>, report: SimReport) -> Result<SimReport, SimError> {
    match halt {
        Ok(()) => Ok(report),
        Err(RunHalt::Timeout(max_cycles)) => {
            Err(SimError::Timeout { max_cycles, partial: Box::new(report) })
        }
        Err(RunHalt::Deadlock(hang)) => {
            Err(SimError::Deadlock { report: hang, partial: Box::new(report) })
        }
    }
}

/// Pure-software configuration: the whole program runs on the Microblaze.
pub fn simulate_pure_sw(
    m: &Module,
    input: Vec<i32>,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    let main = m.find_func("main");
    simulate(m, None, main.as_slice(), &[], vec!["cpu".to_string()], input, cfg)
}

/// Pure-hardware configuration: the LegUp translation of the whole program
/// as a single hardware thread (the thesis' pure-HW baseline).
///
/// Schedules the module with `cfg.hls` on every call; sweep drivers that
/// already hold a schedule should use [`simulate_pure_hw_scheduled`].
pub fn simulate_pure_hw(
    m: &Module,
    input: Vec<i32>,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    let sched = schedule_module(m, &cfg.hls);
    simulate_pure_hw_scheduled(m, &sched, input, cfg)
}

/// [`simulate_pure_hw`] with a caller-supplied schedule (must have been
/// produced from `m`; HLS is not re-run).
pub fn simulate_pure_hw_scheduled(
    m: &Module,
    sched: &ModuleSchedule,
    input: Vec<i32>,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    let main = m.find_func("main");
    simulate(m, Some(sched), &[], main.as_slice(), vec!["hw0".to_string()], input, cfg)
}

/// The Twill hybrid: partition 0 on the CPU, the rest as HW threads.
///
/// Schedules the partitioned module with `cfg.hls` on every call; sweep
/// drivers that already hold a schedule should use
/// [`simulate_hybrid_scheduled`].
pub fn simulate_hybrid(
    dswp: &DswpResult,
    input: Vec<i32>,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    let sched = schedule_module(&dswp.module, &cfg.hls);
    simulate_hybrid_scheduled(dswp, &sched, input, cfg)
}

/// [`simulate_hybrid`] with a caller-supplied schedule of `dswp.module`
/// (HLS is not re-run).
pub fn simulate_hybrid_scheduled(
    dswp: &DswpResult,
    sched: &ModuleSchedule,
    input: Vec<i32>,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    let entries = |hw: bool| -> Vec<FuncId> {
        dswp.threads.iter().filter(|t| t.is_hw == hw).map(|t| t.entry).collect()
    };
    // One naming authority for simulator tracks, obs exporters, and the
    // hardware counter register map.
    let names = dswp.agent_names();
    simulate(&dswp.module, Some(sched), &entries(false), &entries(true), names, input, cfg)
}

/// The one simulation driver behind the `simulate_*` entry points. Every
/// software thread in `sw` runs on the one CPU agent (there is none when
/// `sw` is empty), and each entry of `hw` is a hardware thread executing
/// `sched`; `agent_names` names the agents in order, the CPU first.
/// Validates the configuration, builds the system, runs it and assembles
/// the (possibly partial) report.
fn simulate(
    m: &Module,
    sched: Option<&ModuleSchedule>,
    sw: &[FuncId],
    hw: &[FuncId],
    agent_names: Vec<String>,
    input: Vec<i32>,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    let threads = sw.len() + hw.len();
    validate_config(m, cfg, threads)?;
    if threads == 0 {
        // Only a pure run of a module without `@main` has no thread.
        return Err(ConfigError::NoMain.into());
    }
    let plan = match sched {
        Some(sched) => HwPlan::new(m, sched, hw)?,
        None => HwPlan::default(),
    };
    let stacks = stack_regions(m, cfg.mem_size, threads);
    let (sw_stacks, hw_stacks) = stacks.split_at(sw.len());
    // Startup protocol (§4.4/§4.5): the software master StartThread()s each
    // hardware thread through the stream interface (5 cycles apiece); a
    // hardware thread begins executing once its start message arrives.
    let start_op = twill_ir::cost::SW_RUNTIME_OP as u32;
    let mut cpu = (!sw.is_empty()).then(|| {
        let mut c = Cpu::new(0, m, sw, sw_stacks);
        c.add_charge(hw.len() as u32 * start_op);
        c
    });
    let first_hw = cpu.is_some() as usize;
    let mut hw: Vec<HwThread> = hw
        .iter()
        .zip(hw_stacks)
        .enumerate()
        .map(|(i, (&entry, &stack))| {
            let mut h = HwThread::new(first_hw + i, &plan, entry, stack);
            if cpu.is_some() {
                h.add_charge((i as u32 + 1) * start_op);
            }
            h
        })
        .collect();
    let agents = first_hw + hw.len();
    debug_assert_eq!(agent_names.len(), agents);
    let mut shared = Shared::new(
        m,
        cfg.mem_size,
        input,
        cfg.queue_extra(),
        cfg.queue_depth,
        &cfg.queue_depths,
        agents,
    );
    if let Some(plan) = &cfg.fault {
        shared.install_faults(plan);
    }
    if cfg.trace_events > 0 {
        shared.enable_recorder(cfg.trace_events);
    }
    let mut profile = cfg.profile.then(|| crate::profile::SimProfile::new(agents));
    let mut tl = TimelineState::new(cfg, &shared);
    let halt = run_loop(
        m,
        &plan,
        &mut shared,
        cpu.as_mut(),
        &mut hw,
        cfg,
        &mut profile,
        &mut tl,
        &agent_names,
    );
    let cycles = shared.cycle;
    let timeline = tl.finish(&shared, &agent_names);
    let (events, dropped_events) = shared.take_recorder();
    let (fault_log, _) = shared.take_fault_log();
    let report = SimReport {
        cycles,
        output: shared.output.clone(),
        ret: shared.ret.filter(|_| halt.is_ok()),
        cpu_busy_fraction: cpu
            .map_or(0.0, |c| shared.busy_ticks[c.agent_id()] as f64 / cycles.max(1) as f64),
        stats: shared.stats,
        hw_threads: hw.len(),
        agent_names,
        dropped_events,
        profile,
        fault_log,
        events,
        timeline,
    };
    wrap(halt, report)
}

/// Tick one agent and charge the cycle: progress counters, per-class
/// attribution, and (when profiling) the instruction-site table. The single
/// accounting site both the naive loop and the fast-forward re-sync ticks
/// go through. Returns whether the agent made progress (watchdog feed).
fn tick_agent<A: SimAgent>(
    a: &mut A,
    m: &Module,
    plan: &HwPlan,
    shared: &mut Shared,
    profile: &mut Profile,
) -> bool {
    let aid = a.agent_id();
    shared.set_agent(aid as u16);
    let progress = a.tick(m, plan, shared);
    let class = match progress {
        Progress::Busy => StallClass::Busy,
        Progress::Blocked => a.stall_class(),
        Progress::Finished => StallClass::Idle,
    };
    shared.stats.agent_cycles[aid][class] += 1;
    if let Some(p) = profile.as_mut() {
        let site = if class == StallClass::Idle { None } else { a.attr_site() };
        p.agents[aid].record(site, class);
    }
    let busy = progress == Progress::Busy;
    shared.busy_ticks[aid] += busy as u64;
    busy
}

/// Bulk-charge `k` cycles to every live agent but `awake`, each under its
/// (constant) skip spec, and advance the HW rotation as if each cycle had
/// been ticked: how a leap (no agent awake) and an awake run account for
/// the agents that sleep through their span, the fast-forward twin of the
/// accounting in [`tick_agent`]. Returns whether any charged agent was
/// busy (burning a charge).
fn charge_sleepers(
    shared: &mut Shared,
    profile: &mut Profile,
    cpu: Option<&mut Cpu>,
    hw: &mut [HwThread],
    awake: Option<Who>,
    rotation: &mut usize,
    k: u64,
) -> bool {
    let mut busy = false;
    let mut sleep = |a: &mut dyn SimAgent| {
        let (aid, spec, site) = (a.agent_id(), a.skip_spec(), a.attr_site());
        a.apply_skip(k);
        shared.stats.agent_cycles[aid][spec.class] += k;
        if spec.progress == Progress::Busy {
            shared.busy_ticks[aid] += k;
            busy = true;
        }
        if let Some(kind) = spec.stall_kind {
            shared.note_stall_bulk(kind, k);
        }
        if let Some(p) = profile.as_mut() {
            p.agents[aid].record_n(site, spec.class, k);
        }
    };
    if let Some(c) = cpu.filter(|c| !c.is_finished() && awake != Some(Who::Cpu)) {
        sleep(c);
    }
    for (i, h) in hw.iter_mut().enumerate() {
        if !h.is_finished() && awake != Some(Who::Hw(i)) {
            sleep(h);
        }
    }
    let n = hw.len();
    if n > 0 {
        *rotation = (*rotation + (k % n as u64) as usize) % n;
    }
    busy
}

/// Lazy idle settlement: charge each finished agent's cycles since it was
/// last accounted to `Idle`, in stats and profile. Fast-forward stops
/// ticking (and leaping) an agent once it has finished, so this runs
/// wherever stats are read: at every timeline boundary and when the run
/// ends, times out or deadlocks. On the naive loop, which ticks finished
/// agents every cycle, it finds nothing to settle.
fn settle_idle(shared: &mut Shared, profile: &mut Profile, cpu: Option<&Cpu>, hw: &[HwThread]) {
    for a in agents(cpu, hw).filter(|a| a.is_finished()) {
        let aid = a.agent_id();
        let c = &mut shared.stats.agent_cycles[aid];
        debug_assert!(c.total() >= a.finish_cycle(), "agent {aid} lost cycles before it finished");
        let lag = shared.cycle - c.total();
        c.idle += lag;
        if let Some(p) = profile.as_mut() {
            p.agents[aid].record_n(None, StallClass::Idle, lag);
        }
    }
}

/// Try to leap the clock from `shared.cycle` to just before the earliest
/// cycle anything observable can happen. Returns whether a leap occurred
/// (the caller re-enters the loop top either way).
///
/// The target is `horizon`, the minimum over every live agent's
/// `next_interesting_cycle` (see [`scan`]), capped so the leap never
/// crosses a pinned fault's cycle, the watchdog's firing edge, or
/// `max_cycles`. Skipped cycles are bulk-charged to each live agent's
/// current stall class at both stats and profile granularity (finished
/// agents are settled lazily, see [`settle_idle`]), and the HW rotation
/// advances as if each cycle had been ticked. A fault plan that draws
/// randomness every cycle (memory-upset rate, HW-stall rate) declines the
/// leap: those cycles tick, so the splitmix64 stream advances as in the
/// naive loop.
#[allow(clippy::too_many_arguments)]
fn try_fast_forward(
    cpu: Option<&mut Cpu>,
    hw: &mut [HwThread],
    shared: &mut Shared,
    cfg: &SimConfig,
    profile: &mut Profile,
    rotation: &mut usize,
    last_progress_cycle: &mut u64,
    horizon: u64,
    next_sample_boundary: u64,
) -> bool {
    let now = shared.cycle;
    // An armed pinned stall fires at its target agent's next tick, and a
    // per-cycle fault draw at every tick; those ticks must happen.
    if shared.has_armed_stalls()
        || shared.fault_draws_per_cycle(hw.iter().any(|h| !h.is_finished()))
    {
        return false;
    }
    let mut target = horizon;
    if let Some(p) = shared.next_pinned_fault_cycle() {
        target = target.min(p.max(now + 1));
    }
    // Timeline sampling: a leap may land exactly on a sample boundary but
    // never cross it, so the boundary snapshot sees the same counter
    // state the naive loop would (byte-identical timelines either way;
    // `u64::MAX` when sampling is off).
    target = target.min(next_sample_boundary.saturating_add(1));
    if target <= now + 1 {
        return false;
    }
    // Every agent can now be skipped (its horizon is >= target >= now+2),
    // so the per-cycle accounting of the whole span is a constant spec.
    let cpu = cpu.filter(|c| !c.is_finished());
    let progressed_const =
        agents(cpu.as_deref(), hw).any(|a| a.skip_spec().progress == Progress::Busy);
    if !progressed_const {
        // A fully-blocked span must stop exactly where the watchdog would
        // fire; the normal iteration at that cycle then fires it.
        target =
            target.min(last_progress_cycle.saturating_add(cfg.watchdog_window).saturating_add(1));
    }
    // Skipping through cycle max_cycles is fine (the naive loop ticks it);
    // the loop-top check then reports the timeout with identical stats.
    target = target.min(cfg.max_cycles.saturating_add(1));
    if target <= now + 1 {
        return false;
    }
    let k = target - now - 1;
    // No per-cycle randomness to reproduce. Pinned faults cannot come due
    // inside the span (target is capped at the next pinned cycle), so
    // deferring `begin_cycle`'s arming to the next real tick is
    // unobservable; bus budgets reset unused each naive span cycle and are
    // reset again at the next `begin_cycle`.
    shared.skip_cycles(k);
    charge_sleepers(shared, profile, cpu, hw, None, rotation, k);
    let n = hw.len();
    if n > 0 {
        // Restore the event track the naive loop would have left current:
        // the last HW thread ticked in the final skipped cycle's rotation
        // (a pinned fault firing at `begin_cycle` of the next cycle is
        // recorded against it).
        let last_idx = (*rotation + 2 * n - 2) % n;
        shared.set_agent(hw[last_idx].agent_id() as u16);
    }
    if progressed_const {
        *last_progress_cycle = shared.cycle;
    }
    true
}

/// A live agent, as the loop-top [`scan`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Who {
    Cpu,
    Hw(usize),
}

/// The live agents that can act on the next cycle (are awake).
enum Awake {
    None,
    One(Who),
    Many,
}

/// What the loop-top scan of the live agents' horizons found.
struct Scan {
    awake: Awake,
    /// The earliest horizon among the live agents that sleep through the
    /// next cycle (`u64::MAX` when none does or all wait on peers).
    sleepers: u64,
}

/// Ask every live agent for its `next_interesting_cycle` once. No agent
/// awake: the loop leaps to `sleepers`. Exactly one awake: it may run
/// ahead of the sleepers ([`awake_run`]). Otherwise the loop ticks.
fn scan(cpu: Option<&Cpu>, hw: &[HwThread], shared: &Shared) -> Scan {
    let now = shared.cycle;
    let mut s = Scan { awake: Awake::None, sleepers: u64::MAX };
    let mut see = |horizon: u64, who: Who| {
        if horizon > now + 1 {
            s.sleepers = s.sleepers.min(horizon);
        } else if let Awake::None = s.awake {
            s.awake = Awake::One(who);
        } else {
            s.awake = Awake::Many;
        }
    };
    if let Some(c) = cpu.filter(|c| !c.is_finished()) {
        see(c.next_interesting_cycle(now, shared), Who::Cpu);
    }
    for (i, h) in hw.iter().enumerate().filter(|(_, h)| !h.is_finished()) {
        see(h.next_interesting_cycle(now, shared), Who::Hw(i));
    }
    s
}

/// Awake run: run the one awake agent `who` ahead of its sleeping peers,
/// by its `run_plain`, up to `limit` (at most the cycle before the
/// earliest sleeper horizon). Every other live agent sleeps through the
/// span: it burns a charge, counts down a latency, or waits on a resource
/// that is not ready. Its naive ticks would only re-poll, and the awake
/// agent cannot wake it, since a CPU hands back every runtime op and a
/// hardware thread with `peers` stops before every module-bus op; memory
/// traffic serves no waiter. So each sleeper is bulk-charged for the span
/// under its skip spec, as a leap charges it ([`charge_sleepers`]). With
/// no live peer (`peers` unset) this is the lone agent's run: there are no
/// sleepers, and a hardware thread issues its module-bus ops itself.
/// Returns whether the clock moved.
#[allow(clippy::too_many_arguments)]
fn awake_run(
    who: Who,
    m: &Module,
    plan: &HwPlan,
    shared: &mut Shared,
    mut cpu: Option<&mut Cpu>,
    hw: &mut [HwThread],
    limit: u64,
    peers: bool,
    rotation: &mut usize,
    last_progress_cycle: &mut u64,
) -> bool {
    let start = shared.cycle;
    let (aid, busy) = {
        let a: &mut dyn SimAgent = match who {
            Who::Cpu => cpu.as_deref_mut().expect("the awake CPU is live"),
            Who::Hw(i) => &mut hw[i],
        };
        shared.set_agent(a.agent_id() as u16);
        (a.agent_id(), a.run_plain(m, plan, shared, limit, peers))
    };
    let k = shared.cycle - start;
    if k == 0 {
        return false;
    }
    let c = &mut shared.stats.agent_cycles[aid];
    c.busy += busy;
    c.idle += k - busy;
    shared.busy_ticks[aid] += busy;
    let sleeper_busy = charge_sleepers(shared, &mut None, cpu, hw, Some(who), rotation, k);
    // The awake agent is busy on every cycle it advanced but a hardware
    // thread's finishing one, which is its last.
    if sleeper_busy || busy == k {
        *last_progress_cycle = shared.cycle;
    } else if busy > 0 {
        *last_progress_cycle = shared.cycle - 1;
    }
    true
}

/// Interval-sampling state for the counter timeline (DESIGN.md §15).
/// Fast-forward spans are capped at the next boundary whenever sampling is
/// on, which never changes any observable counter. With `sample_interval`
/// unset, `next_boundary` is `u64::MAX` and both loop paths reduce to a
/// single dead comparison.
struct TimelineState {
    /// Sample window length in cycles (0 = sampling off).
    interval: u64,
    /// Next cycle to snapshot at (`u64::MAX` when off).
    next_boundary: u64,
    rec: Option<TimelineRec>,
}

/// The recording half of [`TimelineState`]: last-boundary counter
/// snapshots (so each interval records deltas) and the accumulated
/// intervals.
struct TimelineRec {
    last_threads: Vec<ClassCycles>,
    /// Per queue: (pushes, pops, full_stalls, empty_stalls) at the last
    /// boundary.
    last_queues: Vec<(u64, u64, u64, u64)>,
    last_sampled: u64,
    intervals: Vec<twill_obs::Interval>,
}

impl TimelineState {
    fn new(cfg: &SimConfig, shared: &Shared) -> TimelineState {
        let interval = cfg.sample_interval.unwrap_or(0);
        TimelineState {
            interval,
            next_boundary: if interval == 0 { u64::MAX } else { interval },
            rec: (interval != 0).then(|| TimelineRec {
                last_threads: vec![Default::default(); shared.stats.agent_cycles.len()],
                last_queues: vec![(0, 0, 0, 0); shared.queue_count()],
                last_sampled: 0,
                intervals: Vec::new(),
            }),
        }
    }

    /// Snapshot the counter deltas when the clock sits on a boundary. The
    /// run loop calls this after every naive cycle and after every
    /// fast-forward leap; leaps are capped at `next_boundary`, so the
    /// clock lands exactly on each boundary and never jumps one.
    fn maybe_sample(&mut self, shared: &Shared) {
        if shared.cycle < self.next_boundary {
            return;
        }
        debug_assert_eq!(shared.cycle, self.next_boundary, "a span leapt across a boundary");
        self.next_boundary = self.next_boundary.saturating_add(self.interval);
        self.record(shared);
    }

    /// Record the window ending at the current cycle.
    fn record(&mut self, shared: &Shared) {
        let Some(rec) = self.rec.as_mut() else { return };
        let threads = shared
            .stats
            .agent_cycles
            .iter()
            .zip(&rec.last_threads)
            .map(|(cur, last)| cur.since(last))
            .collect();
        let queues = shared
            .stats
            .queue_stats
            .iter()
            .zip(&rec.last_queues)
            .enumerate()
            .map(|(i, (q, last))| twill_obs::QueueWindow {
                pushes: q.pushes - last.0,
                pops: q.pops - last.1,
                full_stalls: q.full_stalls - last.2,
                empty_stalls: q.empty_stalls - last.3,
                occupancy: shared.queue_occupancy(i),
            })
            .collect();
        rec.intervals.push(twill_obs::Interval {
            start: rec.last_sampled + 1,
            end: shared.cycle,
            threads,
            queues,
        });
        rec.last_threads = shared.stats.agent_cycles.clone();
        rec.last_queues = shared
            .stats
            .queue_stats
            .iter()
            .map(|q| (q.pushes, q.pops, q.full_stalls, q.empty_stalls))
            .collect();
        rec.last_sampled = shared.cycle;
    }

    /// Flush the final partial window (a run rarely halts exactly on a
    /// boundary — this keeps per-interval deltas summing to the end-of-run
    /// totals, including for timeout/deadlock partial reports) and
    /// assemble the timeline. `None` when sampling was off.
    fn finish(mut self, shared: &Shared, thread_names: &[String]) -> Option<twill_obs::Timeline> {
        if shared.cycle > self.rec.as_ref()?.last_sampled {
            self.record(shared);
        }
        let rec = self.rec?;
        Some(twill_obs::Timeline {
            sample_interval: self.interval,
            thread_names: thread_names.to_vec(),
            queue_names: (0..shared.queue_count()).map(|i| QueueId::new(i).to_string()).collect(),
            intervals: rec.intervals,
        })
    }
}

/// How the cycle loop stopped.
enum Stop {
    /// Every agent finished.
    Done,
    /// The clock reached `max_cycles`.
    Timeout,
    /// No agent made progress for a whole watchdog window.
    Watchdog,
}

/// Run the system to its end ([`drive`]), settle the finished agents' idle
/// cycles and diagnose a hang; `agent_names` names the agents in the hang
/// report.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    m: &Module,
    plan: &HwPlan,
    shared: &mut Shared,
    mut cpu: Option<&mut Cpu>,
    hw: &mut [HwThread],
    cfg: &SimConfig,
    profile: &mut Profile,
    tl: &mut TimelineState,
    agent_names: &[String],
) -> Result<(), RunHalt> {
    let stop = drive(m, plan, shared, cpu.as_deref_mut(), hw, cfg, profile, tl);
    settle_idle(shared, profile, cpu.as_deref(), hw);
    match stop {
        Stop::Done => {
            // Cycle-accounting invariant: every agent has every elapsed
            // cycle attributed to exactly one stall class.
            if cfg!(debug_assertions) {
                for (i, c) in shared.stats.agent_cycles.iter().enumerate() {
                    debug_assert_eq!(
                        c.total(),
                        shared.cycle,
                        "cycle accounting broke for agent {i}: {c:?}"
                    );
                }
                // Same invariant at instruction granularity: per-site
                // attributed cycles sum exactly to each agent's total.
                if let Some(p) = profile.as_ref() {
                    for (i, a) in p.agents.iter().enumerate() {
                        debug_assert_eq!(
                            a.total(),
                            shared.cycle,
                            "instruction attribution broke for agent {i}"
                        );
                    }
                }
            }
            Ok(())
        }
        Stop::Timeout => Err(RunHalt::Timeout(cfg.max_cycles)),
        Stop::Watchdog => {
            let snaps = snapshots(cpu.as_deref(), hw, agent_names);
            Err(RunHalt::Deadlock(build_hang_report(m, shared.cycle, cfg.watchdog_window, &snaps)))
        }
    }
}

/// The watchdog fired: snapshot every agent's blocked state for the
/// wait-for diagnosis, named as the run names its agents.
fn snapshots(cpu: Option<&Cpu>, hw: &[HwThread], agent_names: &[String]) -> Vec<AgentSnapshot> {
    agents(cpu, hw)
        .map(|a| AgentSnapshot {
            name: agent_names[a.agent_id()].clone(),
            entries: a.entries().to_vec(),
            state: WaitState::classify(a.pending_kind(), a.stall_class(), a.is_finished()),
            site: a.attr_site(),
        })
        .collect()
}

/// Every agent in agent order, the CPU first.
fn agents<'a>(cpu: Option<&'a Cpu>, hw: &'a [HwThread]) -> impl Iterator<Item = &'a dyn SimAgent> {
    let cpu = cpu.map(|c| c as &dyn SimAgent);
    cpu.into_iter().chain(hw.iter().map(|h| h as &dyn SimAgent))
}

/// Sample the timeline if the clock sits on a boundary, settling idle
/// cycles first so the sample reads complete counters.
fn sample(
    tl: &mut TimelineState,
    shared: &mut Shared,
    profile: &mut Profile,
    cpu: Option<&Cpu>,
    hw: &[HwThread],
) {
    if shared.cycle >= tl.next_boundary {
        settle_idle(shared, profile, cpu, hw);
        tl.maybe_sample(shared);
    }
}

/// How many ticks, leaps and awake runs [`drive`] takes, so a test can pin
/// them for a known run: an early horizon is sound and leaves every report
/// unchanged, only the step counts show it. Compiled out of non-test
/// builds.
#[cfg(test)]
mod steps {
    use std::cell::Cell;

    thread_local! {
        /// Ticks, leaps and awake runs, in that order.
        static STEPS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    }

    fn add(i: usize) {
        STEPS.with(|s| {
            let mut v = s.get();
            v[i] += 1;
            s.set(v);
        });
    }

    pub(super) fn tick() {
        add(0);
    }

    pub(super) fn leap() {
        add(1);
    }

    pub(super) fn awake_run() {
        add(2);
    }

    /// Read and reset this thread's `[ticks, leaps, awake runs]`.
    pub(super) fn take() -> [u64; 3] {
        STEPS.with(|s| s.replace([0; 3]))
    }
}

#[cfg(not(test))]
mod steps {
    #[inline(always)]
    pub(super) fn tick() {}
    #[inline(always)]
    pub(super) fn leap() {}
    #[inline(always)]
    pub(super) fn awake_run() {}
}

/// The global cycle loop: CPU ticks first (module-bus priority, §4.1),
/// then the hardware threads in rotating order (longest-waiting fairness).
/// With `cfg.fast_forward` it stops ticking finished agents and, each
/// iteration, scans the live agents' horizons once: no agent awake → leap
/// over the cycles none can act on ([`try_fast_forward`]); exactly one
/// awake → run it ahead of its sleeping peers, or by itself when it is the
/// only live agent ([`awake_run`]); otherwise tick. Without it every agent
/// is ticked naively on every cycle.
#[allow(clippy::too_many_arguments)]
fn drive(
    m: &Module,
    plan: &HwPlan,
    shared: &mut Shared,
    mut cpu: Option<&mut Cpu>,
    hw: &mut [HwThread],
    cfg: &SimConfig,
    profile: &mut Profile,
    tl: &mut TimelineState,
) -> Stop {
    let mut rotation = 0usize;
    let mut last_progress_cycle = 0u64;
    // Fast-forward ticks live agents only; finished ones are settled
    // lazily (see `settle_idle`).
    let lazy = cfg.fast_forward;
    // Faults, profiling and timeline sampling hook every cycle of every
    // agent, so runs with them take no awake run, only leaps and ticks.
    let run_ahead =
        cfg.fast_forward && cfg.fault.is_none() && profile.is_none() && tl.rec.is_none();
    loop {
        let cpu_live = cpu.as_deref().is_some_and(|c| !c.is_finished());
        let live = cpu_live as usize + hw.iter().filter(|h| !h.is_finished()).count();
        if live == 0 {
            return Stop::Done;
        }
        if shared.cycle >= cfg.max_cycles {
            return Stop::Timeout;
        }
        if cfg.fast_forward {
            let s = scan(cpu.as_deref(), hw, shared);
            match s.awake {
                Awake::None
                    if try_fast_forward(
                        cpu.as_deref_mut(),
                        hw,
                        shared,
                        cfg,
                        profile,
                        &mut rotation,
                        &mut last_progress_cycle,
                        s.sleepers,
                        tl.next_boundary,
                    ) =>
                {
                    steps::leap();
                    sample(tl, shared, profile, cpu.as_deref(), hw);
                    continue;
                }
                Awake::One(who) if run_ahead => {
                    // Sleeper horizons lie past the next cycle, so the
                    // limit lets the awake agent run at least one. Peers
                    // are the live agents, not the sleepers: one waiting
                    // on the awake agent has no horizon of its own.
                    let limit = (s.sleepers - 1).min(cfg.max_cycles);
                    let peers = live > 1;
                    let (rot, lp) = (&mut rotation, &mut last_progress_cycle);
                    let cpu = cpu.as_deref_mut();
                    if awake_run(who, m, plan, shared, cpu, hw, limit, peers, rot, lp) {
                        steps::awake_run();
                        if shared.cycle - last_progress_cycle > cfg.watchdog_window {
                            return Stop::Watchdog;
                        }
                        continue;
                    }
                }
                _ => {}
            }
        }
        steps::tick();
        shared.begin_cycle();
        let mut progressed = false;
        if let Some(c) = cpu.as_deref_mut() {
            if !(lazy && c.is_finished()) {
                progressed |= tick_agent(c, m, plan, shared, profile);
            }
        }
        let n = hw.len();
        if n > 0 {
            for i in 0..n {
                let idx = (rotation + i) % n;
                if lazy && hw[idx].is_finished() {
                    continue;
                }
                let aid = hw[idx].agent_id();
                shared.set_agent(aid as u16);
                // Injected transient stall: charged as busy latency so the
                // thread rides it out (and the watchdog sees progress).
                if !hw[idx].is_finished() {
                    if let Some(cycles) = shared.fault_stall(aid) {
                        hw[idx].add_charge(cycles);
                    }
                }
                progressed |= tick_agent(&mut hw[idx], m, plan, shared, profile);
            }
            if lazy {
                // Leave current the event track the naive loop would: the
                // last HW thread in this cycle's rotation.
                shared.set_agent(hw[(rotation + n - 1) % n].agent_id() as u16);
            }
            rotation = (rotation + 1) % n;
        }
        sample(tl, shared, profile, cpu.as_deref(), hw);
        if progressed {
            last_progress_cycle = shared.cycle;
        } else if shared.cycle - last_progress_cycle > cfg.watchdog_window {
            return Stop::Watchdog;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_dswp::{run_dswp, DswpOptions};

    fn prepare(src: &str) -> Module {
        let mut m = twill_frontend::compile("t", src).unwrap();
        twill_passes::run_standard_pipeline(&mut m, &Default::default());
        m
    }

    const PROGRAM: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 64; i++) {
    int x = (i * 7 + 3) ^ (i << 2);
    int y = x % 11;
    acc += y * y;
  }
  out(acc);
  return acc;
}
"#;

    #[test]
    fn pure_sw_matches_reference_output() {
        let m = prepare(PROGRAM);
        let (expect, _, _) = twill_ir::interp::run_main(&m, vec![], 1_000_000_000).unwrap();
        let rep = simulate_pure_sw(&m, vec![], &SimConfig::default()).unwrap();
        assert_eq!(rep.output, expect);
        assert!(rep.cycles > 0);
    }

    #[test]
    fn pure_hw_matches_and_is_faster_than_sw() {
        let m = prepare(PROGRAM);
        let (expect, _, _) = twill_ir::interp::run_main(&m, vec![], 1_000_000_000).unwrap();
        let sw = simulate_pure_sw(&m, vec![], &SimConfig::default()).unwrap();
        let hw = simulate_pure_hw(&m, vec![], &SimConfig::default()).unwrap();
        assert_eq!(hw.output, expect);
        assert!(hw.cycles < sw.cycles, "HW ({}) should beat SW ({})", hw.cycles, sw.cycles);
    }

    #[test]
    fn hybrid_matches_reference() {
        let m = prepare(PROGRAM);
        let (expect, _, _) = twill_ir::interp::run_main(&m, vec![], 1_000_000_000).unwrap();
        let d = run_dswp(&m, &DswpOptions { num_partitions: 2, ..Default::default() });
        let rep = simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap();
        assert_eq!(rep.output, expect);
        assert!(rep.hw_threads >= 1);
        assert!(rep.cpu_busy_fraction > 0.0 && rep.cpu_busy_fraction <= 1.0);
    }

    #[test]
    fn queue_latency_slows_hybrid() {
        let m = prepare(PROGRAM);
        // Force a 2-way split (explicit split points bypass the cost-model
        // merge) so queue traffic actually exists.
        let d = run_dswp(
            &m,
            &DswpOptions {
                num_partitions: 2,
                split_points: Some(vec![0.5, 0.5]),
                ..Default::default()
            },
        );
        assert!(d.stats.queues > 0, "expected queue traffic");
        let fast = simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap();
        let slow =
            simulate_hybrid(&d, vec![], &SimConfig { queue_latency: 128, ..Default::default() })
                .unwrap();
        assert_eq!(fast.output, slow.output);
        assert!(slow.cycles > fast.cycles, "{} !> {}", slow.cycles, fast.cycles);
    }

    #[test]
    fn small_queues_still_correct() {
        let m = prepare(PROGRAM);
        let d = run_dswp(&m, &DswpOptions { num_partitions: 3, ..Default::default() });
        let base = simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap();
        let tiny =
            simulate_hybrid(&d, vec![], &SimConfig { queue_depth: Some(2), ..Default::default() })
                .unwrap();
        assert_eq!(base.output, tiny.output);
        assert!(tiny.cycles >= base.cycles);
    }

    #[test]
    fn profiling_is_observation_only_and_sums_to_cycles() {
        let m = prepare(PROGRAM);
        let d = run_dswp(
            &m,
            &DswpOptions {
                num_partitions: 2,
                split_points: Some(vec![0.5, 0.5]),
                ..Default::default()
            },
        );
        let plain = simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap();
        let rep = simulate_hybrid(&d, vec![], &SimConfig { profile: true, ..Default::default() })
            .unwrap();
        // Attribution must not perturb timing or results.
        assert_eq!(rep.cycles, plain.cycles);
        assert_eq!(rep.output, plain.output);
        assert!(plain.profile.is_none());
        // Per-agent attributed cycles sum exactly to the run's cycles.
        let p = rep.profile.as_ref().unwrap();
        assert_eq!(p.agents.len(), rep.agent_names.len());
        for (i, a) in p.agents.iter().enumerate() {
            assert_eq!(a.total(), rep.cycles, "agent {i}");
        }
        // Folding to source lines loses nothing per thread.
        let sp = rep.source_profile(&d.module).unwrap();
        for (name, total) in sp.thread_totals() {
            assert_eq!(total, rep.cycles, "thread {name}");
        }
        // The loop body carries real source lines (not all synthetic).
        assert!(sp.samples.iter().any(|s| s.line != 0 && s.cycles.total() > 0));
    }

    #[test]
    fn zero_sample_interval_is_rejected() {
        let m = prepare(PROGRAM);
        let cfg = SimConfig { sample_interval: Some(0), ..Default::default() };
        match simulate_pure_sw(&m, vec![], &cfg) {
            Err(SimError::Config(ConfigError::ZeroSampleInterval)) => {}
            other => panic!("expected ZeroSampleInterval, got {other:?}"),
        }
        assert!(ConfigError::ZeroSampleInterval.to_string().contains("sample_interval"));
    }

    #[test]
    fn sampling_is_observation_only_and_tiles_the_run() {
        let m = prepare(PROGRAM);
        let d = run_dswp(
            &m,
            &DswpOptions {
                num_partitions: 2,
                split_points: Some(vec![0.5, 0.5]),
                ..Default::default()
            },
        );
        let plain = simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap();
        let cfg = SimConfig { sample_interval: Some(64), ..Default::default() };
        let rep = simulate_hybrid(&d, vec![], &cfg).unwrap();
        // Sampling must not perturb timing or results.
        assert_eq!(rep.cycles, plain.cycles);
        assert_eq!(rep.output, plain.output);
        assert!(plain.timeline.is_none(), "no timeline unless sampling is on");
        let t = rep.timeline.as_ref().expect("sampled run carries a timeline");
        assert_eq!(t.sample_interval, 64);
        assert_eq!(t.thread_names, rep.agent_names);
        // Intervals tile [1, cycles] exactly: consecutive, no gaps.
        assert_eq!(t.total_cycles(), rep.cycles);
        let mut expect_start = 1;
        for iv in &t.intervals {
            assert_eq!(iv.start, expect_start);
            assert!(iv.end >= iv.start);
            expect_start = iv.end + 1;
        }
        // Per-interval deltas sum exactly to the end-of-run totals.
        assert_eq!(t.thread_totals(), rep.stats.agent_cycles);
        for (tot, q) in t.queue_totals().iter().zip(&rep.stats.queue_stats) {
            assert_eq!(tot.pushes, q.pushes);
            assert_eq!(tot.pops, q.pops);
            assert_eq!(tot.full_stalls, q.full_stalls);
            assert_eq!(tot.empty_stalls, q.empty_stalls);
        }
    }

    #[test]
    fn io_program_roundtrip() {
        let m = prepare("int main() { int a = in(); int b = in(); out(a * b + 1); return 0; }");
        let rep = simulate_pure_sw(&m, vec![6, 7], &SimConfig::default()).unwrap();
        assert_eq!(rep.output, vec![43]);
        let rep = simulate_pure_hw(&m, vec![6, 7], &SimConfig::default()).unwrap();
        assert_eq!(rep.output, vec![43]);
    }

    #[test]
    fn memory_program_all_three_configs() {
        let src = r#"
int buf[32];
int main() {
  for (int i = 0; i < 32; i++) buf[i] = i * i;
  int s = 0;
  for (int i = 0; i < 32; i++) s += buf[i];
  out(s);
  return 0;
}
"#;
        let m = prepare(src);
        let (expect, _, _) = twill_ir::interp::run_main(&m, vec![], 1_000_000_000).unwrap();
        assert_eq!(simulate_pure_sw(&m, vec![], &SimConfig::default()).unwrap().output, expect);
        assert_eq!(simulate_pure_hw(&m, vec![], &SimConfig::default()).unwrap().output, expect);
        let d = run_dswp(&m, &DswpOptions { num_partitions: 2, ..Default::default() });
        assert_eq!(simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap().output, expect);
    }

    #[test]
    fn function_calls_simulate_in_all_configs() {
        let src = r#"
int square(int x) { return x * x; }
int step(int a, int b) { return square(a) + b % 13; }
int main() {
  int acc = 0;
  for (int i = 0; i < 20; i++) acc = step(i, acc);
  out(acc);
  return 0;
}
"#;
        // Disable inlining so calls survive to the simulator.
        let mut m = twill_frontend::compile("t", src).unwrap();
        let opts = twill_passes::PipelineOptions {
            inline: twill_passes::inline::InlineOptions {
                small_threshold: 0,
                single_site_threshold: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        twill_passes::run_standard_pipeline(&mut m, &opts);
        assert!(m.funcs.len() > 1, "calls should survive");
        let (expect, _, _) = twill_ir::interp::run_main(&m, vec![], 1_000_000_000).unwrap();
        assert_eq!(simulate_pure_sw(&m, vec![], &SimConfig::default()).unwrap().output, expect);
        assert_eq!(simulate_pure_hw(&m, vec![], &SimConfig::default()).unwrap().output, expect);
        let d = run_dswp(&m, &DswpOptions { num_partitions: 2, ..Default::default() });
        assert_eq!(simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap().output, expect);
    }

    /// A sound horizon that comes a cycle early changes no report, only
    /// how `drive` gets there, so pin its ticks, leaps and awake runs for
    /// one small hybrid run. Its agents sleep through multi-cycle charges:
    /// with the charge horizon a cycle early, the run takes 2 leaps instead
    /// of 65 and 325 ticks instead of 260.
    #[test]
    fn drive_steps_are_pinned_for_a_small_hybrid_run() {
        let m = prepare(PROGRAM);
        let opts = DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.5, 0.5]),
            ..Default::default()
        };
        let d = run_dswp(&m, &opts);
        assert!(d.stats.queues > 0, "expected a pipelined hybrid");
        let cfg = SimConfig { fast_forward: true, ..Default::default() };
        steps::take();
        let rep = simulate_hybrid(&d, vec![], &cfg).unwrap();
        let steps = steps::take();
        let naive = SimConfig { fast_forward: false, ..cfg };
        assert_eq!(rep.cycles, simulate_hybrid(&d, vec![], &naive).unwrap().cycles);
        assert_eq!(steps::take()[0], rep.cycles, "the naive loop ticks every cycle");
        assert_eq!(
            (rep.cycles, steps),
            (4244, [260, 65, 130]),
            "(cycles, [ticks, leaps, awake runs])"
        );
    }
}
