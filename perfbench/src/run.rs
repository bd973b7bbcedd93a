//! One benchmark run: set-up, the timed closed loop, and the untimed
//! exact-metrics phase.
//!
//! Every op is a sequence of calls into Twill's public API, timed from
//! outside; its output is checked after the clock stops. In a traced run
//! each call into a module is wrapped in a [`trace::span`] named after the
//! module, and each lazy [`TwillBuild`] stage is forced on its own call, so
//! one span covers exactly one stage.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use twill::artifacts::BuildGraph;
use twill::{Compiler, SimError, SimulationConfig, TwillBuild};
use twill_ir::Module;
use twill_rt::SimReport;

use crate::ops::{self, Op, OpStream, Point, Workload};
use crate::trace::{self, span, Phase};

/// Identical set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// An untraced run keeps going past its time budget until this many ops
/// ran, so at least ten lie beyond `op_ms_p90`.
pub const MIN_OPS: usize = 100;

/// What one run measured.
pub struct RunResult {
    /// Every op run (in a traced run, every traced op run) and its wall
    /// time, in order.
    pub ops: Vec<(Op, u64)>,
    pub failed: usize,
    pub setup_s: Vec<f64>,
    /// Process peak resident set after the timed phase.
    pub peak_rss_mb: f64,
    pub exact: Exact,
    /// Traced runs only: the untraced and the traced passes over the same
    /// rounds.
    pub untraced_ns: u64,
    pub traced_ns: u64,
    pub spans: Vec<trace::SpanRec>,
    /// First failure messages, for the log.
    pub errors: Vec<String>,
}

/// Design-quality results computed untimed after the timed phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Exact {
    /// Geomean of pure-SW ÷ hybrid cycles over the eight programs at
    /// `default_scale` (Fig 6.2).
    pub hybrid_speedup_geomean: f64,
    /// Sum of Table 6.2's Twill column.
    pub twill_luts_total: u64,
    /// Every simulated output equalled the interpreter's.
    pub outputs_ok: bool,
}

/// The paper's three configurations.
#[derive(Clone, Copy)]
enum Mode {
    PureSw,
    PureHw,
    Hybrid,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::PureSw, Mode::PureHw, Mode::Hybrid];

    fn span(self) -> &'static str {
        match self {
            Mode::PureSw => "rt.sw",
            Mode::PureHw => "rt.hw",
            Mode::Hybrid => "rt.hybrid",
        }
    }
}

/// One simulation of `b` in `mode` under `cfg`; at `b.sim_config()` this is
/// exactly `TwillBuild::simulate_pure_sw` / `_pure_hw` / `_hybrid`.
fn simulate(
    b: &TwillBuild,
    mode: Mode,
    input: &[i32],
    cfg: &SimulationConfig,
) -> Result<SimReport, SimError> {
    let input = input.to_vec();
    match mode {
        Mode::PureSw => twill_rt::simulate_pure_sw(b.prepared(), input, cfg),
        Mode::PureHw => {
            twill_rt::simulate_pure_hw_scheduled(b.prepared(), b.pure_schedule(), input, cfg)
        }
        Mode::Hybrid => {
            twill_rt::simulate_hybrid_scheduled(b.dswp(), b.hybrid_schedule(), input, cfg)
        }
    }
}

/// [`simulate`] in its layer's span, noting simulated and stalled cycles.
fn traced_sim(
    b: &TwillBuild,
    mode: Mode,
    input: &[i32],
    cfg: &SimulationConfig,
) -> Result<SimReport, SimError> {
    let rep = span(mode.span(), || simulate(b, mode, input, cfg))?;
    let agent: u64 = rep.stats.agent_cycles.iter().map(|c| c.total()).sum();
    let busy_or_idle: u64 = rep.stats.agent_cycles.iter().map(|c| c.busy + c.idle).sum();
    trace::note("cycles", rep.cycles as f64);
    trace::note("agent_cycles", agent as f64);
    trace::note("stalled_cycles", (agent - busy_or_idle) as f64);
    Ok(rep)
}

/// Re-run a traced simulation with the naive tick-every-cycle loop, outside
/// the op, and check it reports exactly what the fast-forward run (span
/// `ff_span`) did.
fn naive_rerun(
    b: &TwillBuild,
    mode: Mode,
    input: &[i32],
    cfg: &SimulationConfig,
    ff_span: Option<usize>,
    ff: &SimReport,
) -> Result<(), String> {
    let cfg = SimulationConfig { fast_forward: false, ..cfg.clone() };
    let naive = span("rt.naive", || simulate(b, mode, input, &cfg))
        .map_err(|e| format!("naive sim: {e}"))?;
    trace::note("ff_ns", trace::dur_ns(ff_span) as f64);
    if naive.cycles != ff.cycles || naive.output != ff.output || naive.stats != ff.stats {
        return Err("naive and fast-forward simulations differ".into());
    }
    Ok(())
}

/// What one cold compile produced.
struct Compiled {
    build: TwillBuild,
    hybrid: Arc<String>,
    pure: Arc<String>,
    /// Table 6.2's four columns: LegUp, Twill HW threads, Twill,
    /// Twill + Microblaze.
    luts: [u32; 4],
}

/// The full `twillc --emit-verilog` flow on a fresh graph.
fn compile_program(prog: usize) -> Result<Compiled, String> {
    let b = ops::programs()[prog];
    let build =
        span("frontend", || Compiler::new().partitions(b.partitions).compile(b.name, b.source))
            .map_err(|e| format!("{}: {e}", b.name))?;
    span("passes", || build.prepared());
    span("dswp", || build.dswp());
    span("hls.schedule", || build.hybrid_schedule());
    span("hls.schedule", || build.pure_schedule());
    let hybrid = span("hls.verilog", || build.verilog());
    let pure = span("hls.verilog", || build.verilog_pure_hw());
    let a = span("hls.area", || build.area());
    let luts =
        [a.legup.luts, a.twill_hw_threads.luts, a.twill_total.luts, a.twill_plus_microblaze.luts];
    Ok(Compiled { build, hybrid, pure, luts })
}

fn hash_text(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn insts(m: &Module) -> f64 {
    m.funcs.iter().map(|f| f.inst_ids_in_layout().len()).sum::<usize>() as f64
}

fn states(s: &twill_hls::schedule::ModuleSchedule) -> f64 {
    s.funcs.iter().map(|f| f.states as f64).sum()
}

fn note_dswp(idx: Option<usize>, build: &TwillBuild) {
    trace::note_at(idx, "queues", build.stats().queues as f64);
    trace::note_at(idx, "hw_threads", build.stats().hw_threads as f64);
}

/// Stage executions and cache hits since `before`, on the current unit.
fn note_graph(graph: &BuildGraph, before: twill::StageCounts) {
    let c = graph.counters();
    trace::note_root("stage_runs", (c.runs() - before.runs()) as f64);
    trace::note_root("stage_hits", (c.hits() - before.hits()) as f64);
}

/// Counts of the stages a traced unit ran on `b`, measured after they ran
/// so they add nothing to the unit's time. The unit demanded them in
/// pipeline order: frontend and passes, then (where it ran them) DSWP,
/// the hybrid and the pure-HW schedule, and the two Verilog emissions.
fn note_stages(prog: usize, b: &TwillBuild, verilog: Option<&Compiled>) -> Result<(), String> {
    if !trace::enabled() {
        return Ok(());
    }
    let p = ops::programs()[prog];
    let raw = twill_frontend::compile(p.name, p.source).map_err(|e| e.to_string())?;
    trace::note_at(trace::find("frontend", 0), "insts", insts(&raw));
    trace::note_at(trace::find("passes", 0), "insts", insts(b.prepared()));
    if let Some(idx) = trace::find("dswp", 0) {
        note_dswp(Some(idx), b);
        trace::note_at(trace::find("hls.schedule", 0), "states", states(b.hybrid_schedule()));
        trace::note_at(trace::find("hls.schedule", 1), "states", states(b.pure_schedule()));
    }
    if let Some(c) = verilog {
        trace::note_at(trace::find("hls.verilog", 0), "bytes", c.hybrid.len() as f64);
        trace::note_at(trace::find("hls.verilog", 1), "bytes", c.pure.len() as f64);
    }
    note_graph(b.graph(), Default::default());
    Ok(())
}

/// Run `f` as the root span `build` of one program (set-up and post).
fn build_root<T>(prog: usize, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    trace::set_context(trace::phase(), None, Some(ops::programs()[prog].name));
    span("build", f)
}

/// The interpreter's output for `input`: the oracle every simulated output
/// is checked against.
fn reference(build: &TwillBuild, input: &[i32]) -> Result<Vec<i32>, String> {
    let (out, _, steps) = span("ir.interp", || {
        twill_ir::interp::run_main(build.prepared(), input.to_vec(), 4_000_000_000)
    })
    .map_err(|e| format!("reference run: {e}"))?;
    trace::note("steps", steps as f64);
    Ok(out)
}

struct VerilogRef {
    hybrid: u64,
    pure: u64,
    luts: [u32; 4],
}

struct SimProg {
    build: TwillBuild,
    input: Vec<i32>,
    expect: Vec<i32>,
}

struct ExploreProg {
    prepared: Module,
    input: Vec<i32>,
    expect: Vec<i32>,
}

/// What the ops of a workload depend on, built by set-up.
#[derive(Default)]
struct State {
    /// `compile`: each program's first Verilog and area.
    verilog: Vec<Option<VerilogRef>>,
    /// `simulate`: each program's build, input and expected output.
    sim: Vec<Option<SimProg>>,
    /// `explore`: each swept program's prepared module and oracle.
    explore: Vec<Option<ExploreProg>>,
    /// The graph of the `explore` sweep in progress.
    graph: Option<Arc<BuildGraph>>,
}

fn setup(workload: Workload) -> Result<State, String> {
    let n = ops::programs().len();
    let mut st = State::default();
    match workload {
        Workload::Compile => {
            st.verilog.resize_with(n, || None);
            for prog in 0..n {
                let c = build_root(prog, || {
                    let c = compile_program(prog)?;
                    note_stages(prog, &c.build, Some(&c))?;
                    Ok(c)
                })?;
                st.verilog[prog] = Some(VerilogRef {
                    hybrid: hash_text(&c.hybrid),
                    pure: hash_text(&c.pure),
                    luts: c.luts,
                });
            }
        }
        Workload::Simulate => {
            st.sim.resize_with(n, || None);
            for &(name, _, size) in &ops::SIMULATE_MIX {
                let prog = ops::prog_index(name);
                let b = ops::programs()[prog];
                let input = ops::simulate_input(prog, size);
                let (build, expect) = build_root(prog, || {
                    let build = span("frontend", || {
                        Compiler::new().partitions(b.partitions).compile(b.name, b.source)
                    })
                    .map_err(|e| e.to_string())?;
                    span("passes", || build.prepared());
                    span("dswp", || build.dswp());
                    span("hls.schedule", || build.hybrid_schedule());
                    span("hls.schedule", || build.pure_schedule());
                    let expect = reference(&build, &input)?;
                    note_stages(prog, &build, None)?;
                    Ok((build, expect))
                })?;
                st.sim[prog] = Some(SimProg { build, input, expect });
            }
        }
        Workload::Explore => {
            st.explore.resize_with(n, || None);
            for name in ops::EXPLORE_PROGRAMS {
                let prog = ops::prog_index(name);
                let b = ops::programs()[prog];
                let input = ops::default_input(prog);
                let (prepared, expect) = build_root(prog, || {
                    let build = span("frontend", || Compiler::new().compile(b.name, b.source))
                        .map_err(|e| e.to_string())?;
                    let prepared = span("passes", || build.prepared().clone());
                    let expect = reference(&build, &input)?;
                    note_stages(prog, &build, None)?;
                    Ok((prepared, expect))
                })?;
                st.explore[prog] = Some(ExploreProg { prepared, input, expect });
            }
        }
    }
    Ok(st)
}

/// One set-up, its wall time appended to `setup_s`.
fn timed_setup(workload: Workload, traced: bool, setup_s: &mut Vec<f64>) -> Result<State, String> {
    trace::set_enabled(traced);
    trace::set_context(Phase::Setup, None, None);
    let t = Instant::now();
    let st = setup(workload)?;
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(st)
}

fn compile_op(st: &State, prog: usize) -> (u64, Result<(), String>) {
    let name = ops::programs()[prog].name;
    let t = Instant::now();
    let out = span("op", || compile_program(prog));
    let ns = t.elapsed().as_nanos() as u64;
    let check = out.and_then(|c| {
        note_stages(prog, &c.build, Some(&c))?;
        let r = st.verilog[prog].as_ref().expect("set-up compiled every program");
        if hash_text(&c.hybrid) != r.hybrid || hash_text(&c.pure) != r.pure {
            return Err(format!("{name}: Verilog differs from the first compile"));
        }
        if c.luts != r.luts {
            return Err(format!("{name}: area differs from the first compile"));
        }
        Ok(())
    });
    (ns, check)
}

fn simulate_op(st: &State, prog: usize) -> (u64, Result<(), String>) {
    let name = ops::programs()[prog].name;
    let p = st.sim[prog].as_ref().expect("set-up built every program");
    let cfg = p.build.sim_config();
    let t = Instant::now();
    let out = span("op", || {
        Mode::ALL
            .map(|mode| traced_sim(&p.build, mode, &p.input, &cfg))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    });
    let ns = t.elapsed().as_nanos() as u64;
    let check = out.map_err(|e| format!("{name}: {e}")).and_then(|reps| {
        for (rep, mode) in reps.iter().zip(Mode::ALL) {
            if rep.output != p.expect {
                return Err(format!("{name}: {} output differs from the interpreter", mode.span()));
            }
            if trace::enabled() {
                let ff = trace::find(mode.span(), 0);
                naive_rerun(&p.build, mode, &p.input, &cfg, ff, rep)?;
            }
        }
        Ok(())
    });
    (ns, check)
}

/// Demand one memoized stage; a demand the graph's cache answered is
/// recorded as `core.hit` rather than as the stage.
fn stage<T>(graph: &BuildGraph, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !trace::enabled() {
        return f();
    }
    let before = graph.counters();
    let value = span(name, f);
    if graph.counters().runs() == before.runs() {
        trace::rename_last("core.hit");
    }
    value
}

fn explore_op(st: &mut State, prog: usize, point: Point) -> (u64, Result<(), String>) {
    let b = ops::programs()[prog];
    let p = st.explore[prog].as_ref().expect("set-up prepared every swept program");
    let graph_slot = &mut st.graph;
    let t = Instant::now();
    let out = span("op", || {
        if point == Point::Base || graph_slot.is_none() {
            *graph_slot = Some(span("core.graph", || {
                Arc::new(BuildGraph::from_prepared(b.name, p.prepared.clone()))
            }));
        }
        let graph = graph_slot.as_ref().expect("sweep graph");
        let before = graph.counters();
        let compiler = match point {
            Point::Base | Point::Queue { .. } => Compiler::new().partitions(b.partitions),
            Point::Split { sw_percent } => {
                let f = sw_percent as f64 / 100.0;
                Compiler::new().partitions(2).split_points(vec![f, 1.0 - f])
            }
        };
        let build = compiler.build_on(graph);
        stage(graph, "dswp", || build.dswp());
        stage(graph, "hls.schedule", || build.hybrid_schedule());
        let mut cfg = build.sim_config();
        if let Point::Queue { latency, depth } = point {
            cfg.queue_latency = latency;
            cfg.queue_depth = Some(depth);
        }
        let rep = traced_sim(&build, Mode::Hybrid, &p.input, &cfg);
        let summary = rep.as_ref().ok().map(|rep| span("obs.metrics", || rep.metrics().summary()));
        if trace::enabled() {
            note_graph(graph, before);
            note_dswp(trace::find_last("dswp"), &build);
            trace::note_at(
                trace::find_last("hls.schedule"),
                "states",
                states(build.hybrid_schedule()),
            );
        }
        rep.map(|rep| (rep, summary, build, cfg))
    });
    let ns = t.elapsed().as_nanos() as u64;
    let check =
        out.map_err(|e| format!("{}: {e}", b.name)).and_then(|(rep, summary, build, cfg)| {
            if rep.output != p.expect {
                return Err(format!("{}: hybrid output differs from the interpreter", b.name));
            }
            if summary.map(|s| s.cycles) != Some(rep.cycles) {
                return Err(format!("{}: metrics summary disagrees with the run", b.name));
            }
            if trace::enabled() {
                let ff = trace::find_last(Mode::Hybrid.span());
                naive_rerun(&build, Mode::Hybrid, &p.input, &cfg, ff, &rep)?;
            }
            Ok(())
        });
    (ns, check)
}

/// Run one op, catching a panic so it counts as a failed op. Returns the
/// op's wall time (Twill calls only) and the verdict of its output check.
fn run_guarded(st: &mut State, op: Op, id: u64) -> (u64, Result<(), String>) {
    trace::set_context(Phase::Op, Some(id), Some(ops::programs()[op.prog()].name));
    let out = catch_unwind(AssertUnwindSafe(|| match op {
        Op::Compile { prog } => compile_op(st, prog),
        Op::Simulate { prog } => simulate_op(st, prog),
        Op::Explore { prog, point } => explore_op(st, prog, point),
    }));
    out.unwrap_or_else(|_| {
        trace::reset_stack();
        st.graph = None;
        (0, Err(format!("{}: panicked", op.kind())))
    })
}

/// The exact metrics: Fig 6.2's hybrid speedup geomean and Table 6.2's
/// Twill LUT total, with every output checked against the interpreter.
/// Traced runs also probe the layers here: PDG, the naive loop, and a
/// trivial program's fixed simulation cost.
pub fn exact_metrics() -> Result<Exact, String> {
    trace::set_context(Phase::Post, None, None);
    let mut log_speedup = 0.0;
    let mut luts = 0u64;
    let mut outputs_ok = true;
    let progs = ops::programs();
    for (prog, b) in progs.iter().enumerate() {
        build_root(prog, || {
            let c = compile_program(prog)?;
            note_stages(prog, &c.build, Some(&c))?;
            luts += c.luts[2] as u64;
            let build = &c.build;
            let input = ops::default_input(prog);
            let expect = reference(build, &input)?;
            let cfg = build.sim_config();
            let mut cycles = [0u64; 3];
            for (i, mode) in Mode::ALL.into_iter().enumerate() {
                let rep = traced_sim(build, mode, &input, &cfg)
                    .map_err(|e| format!("{}: {e}", b.name))?;
                let ff = trace::last_closed();
                if let Mode::Hybrid = mode {
                    span("obs.metrics", || rep.metrics().summary());
                }
                if trace::enabled() {
                    naive_rerun(build, mode, &input, &cfg, ff, &rep)?;
                }
                outputs_ok &= rep.output == expect;
                cycles[i] = rep.cycles;
            }
            log_speedup += (cycles[0] as f64 / cycles[2] as f64).ln();
            if trace::enabled() {
                pdg_probe(build.prepared());
            }
            Ok(())
        })?;
    }
    if trace::enabled() {
        fixed_cost_probe()?;
    }
    Ok(Exact {
        hybrid_speedup_geomean: (log_speedup / progs.len() as f64).exp(),
        twill_luts_total: luts,
        outputs_ok,
    })
}

/// `Pdg::build` + `SccDag::new` per function of a prepared module.
fn pdg_probe(m: &Module) {
    let fx = twill_passes::callgraph::function_effects(m);
    let opts =
        twill_pdg::PdgOptions { phi_const_pairs: twill::DswpOptions::default().phi_const_pairs };
    let (nodes, sccs) = span("pdg", || {
        m.funcs.iter().fold((0, 0), |(nodes, sccs), f| {
            let pdg = twill_pdg::Pdg::build(m, f, &fx, &opts);
            let dag = twill_pdg::SccDag::new(&pdg);
            (nodes + pdg.nodes.len(), sccs + dag.members.len())
        })
    });
    trace::note("nodes", nodes as f64);
    trace::note("sccs", sccs as f64);
}

/// Fixed cost of one simulation: a trivial program, pure SW.
fn fixed_cost_probe() -> Result<(), String> {
    const TRIVIAL: &str = "int main() { out(1); return 0; }";
    let build = Compiler::new().compile("trivial", TRIVIAL).map_err(|e| e.to_string())?;
    let cfg = build.sim_config();
    trace::set_context(Phase::Post, None, Some("trivial"));
    for _ in 0..20 {
        let rep = span("rt.fixed", || simulate(&build, Mode::PureSw, &[], &cfg))
            .map_err(|e| e.to_string())?;
        if rep.output != [1] {
            return Err("trivial program: wrong output".into());
        }
    }
    Ok(())
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One benchmark run. `seconds` is the timed phase's budget; it runs
/// whole rounds, at least one and at least `min_ops` ops.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    traced: bool,
) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut st = timed_setup(workload, traced, &mut setup_s)?;

    let mut res = RunResult {
        ops: Vec::new(),
        failed: 0,
        setup_s: Vec::new(),
        peak_rss_mb: 0.0,
        exact: Exact { hybrid_speedup_geomean: 0.0, twill_luts_total: 0, outputs_ok: false },
        untraced_ns: 0,
        traced_ns: 0,
        spans: Vec::new(),
        errors: Vec::new(),
    };
    let mut stream = OpStream::new(workload, seed);
    let start = Instant::now();
    let mut id = 0u64;
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds || res.ops.len() < min_ops {
        // The other set-ups are spread over the timed phase, between
        // rounds, so their median is not taken from one stretch of host
        // drift. Each replaces the ops' state with an identical one.
        let due = seconds * setup_s.len() as f64 / SETUP_REPS as f64;
        if setup_s.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            st = timed_setup(workload, traced, &mut setup_s)?;
        }
        // A traced run runs every round twice, traced and untraced,
        // alternating which goes first; the difference is the tracing
        // overhead.
        let round = stream.round();
        for pass in 0..1 + traced as usize {
            let on = traced && pass == rounds % 2;
            trace::set_enabled(on);
            for &op in &round {
                let (ns, verdict) = run_guarded(&mut st, op, id);
                id += 1;
                if traced {
                    *(if on { &mut res.traced_ns } else { &mut res.untraced_ns }) += ns;
                }
                if on || !traced {
                    res.ops.push((op, ns));
                    if let Err(e) = verdict {
                        res.failed += 1;
                        if res.errors.len() < 5 {
                            res.errors.push(e);
                        }
                    }
                }
            }
        }
        rounds += 1;
    }
    while setup_s.len() < SETUP_REPS {
        st = timed_setup(workload, traced, &mut setup_s)?;
    }
    res.setup_s = setup_s;
    res.peak_rss_mb = peak_rss_mb();
    drop(st);

    trace::set_enabled(traced);
    res.exact = exact_metrics()?;
    trace::set_enabled(false);
    res.spans = trace::take();
    Ok(res)
}
