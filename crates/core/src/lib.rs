//! # Twill
//!
//! A faithful, fully-simulated reproduction of *Twill: A Hybrid
//! Microcontroller-FPGA Framework for Parallelizing Single-Threaded C
//! Programs* (Gallatin, 2014): an automatic hybrid compiler that extracts
//! long-running threads from single-threaded C via modified Decoupled
//! Software Pipelining and distributes them across a soft CPU and FPGA
//! hardware threads communicating through statically-allocated queues.
//!
//! ## Quick start
//!
//! ```
//! use twill::Compiler;
//!
//! let src = r#"
//!     int main() {
//!       int acc = 0;
//!       for (int i = 0; i < 64; i++) {
//!         int x = (i * 7 + 3) ^ (i << 2);
//!         acc += (x % 11) * (x % 11);
//!       }
//!       out(acc);
//!       return 0;
//!     }
//! "#;
//! let build = Compiler::new().partitions(3).compile("demo", src).unwrap();
//! let hybrid = build.simulate_hybrid(vec![]).unwrap();
//! let sw = build.simulate_pure_sw(vec![]).unwrap();
//! assert_eq!(hybrid.output, sw.output);
//! assert!(hybrid.cycles < sw.cycles);
//! ```
//!
//! The three configurations of the paper's evaluation:
//! * [`TwillBuild::simulate_pure_sw`] — everything on the Microblaze-style
//!   soft CPU,
//! * [`TwillBuild::simulate_pure_hw`] — the LegUp-style translation as one
//!   hardware thread,
//! * [`TwillBuild::simulate_hybrid`] — the Twill hybrid (DSWP partitions on
//!   CPU + hardware threads).
//!
//! [`experiments`] regenerates every table and figure of the paper's
//! Chapter 6.

pub mod artifacts;
pub mod cli;
pub mod experiments;
mod par;
pub mod report;
pub mod tune;

use std::sync::{Arc, OnceLock};

use artifacts::{BuildGraph, DswpArtifact};
use twill_dswp::DswpResult;
use twill_frontend::CError;
use twill_hls::schedule::{HlsOptions, ModuleSchedule};
use twill_ir::Module;
use twill_rt::{SimConfig, SimReport};

pub use artifacts::StageCounts;
pub use tune::{tune, TuneOptions, TuneOutcome};
pub use twill_dswp::DswpOptions;
pub use twill_hls::area::AreaReport;
pub use twill_obs::MetricsSummary;
pub use twill_rt::SimConfig as SimulationConfig;
pub use twill_rt::{
    ConfigError, FaultPlan, FaultRecord, FaultSite, FaultSpec, HangReport, PinnedFault, SimError,
    WaitState,
};

/// Which execution path ultimately served a [`TwillBuild::run_resilient`]
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// A hybrid attempt completed with correct output (0-based attempt).
    Hybrid { attempt: u32 },
    /// Every hybrid attempt failed; the pure-software fallback served the
    /// run (with fault injection disabled).
    PureSw,
}

impl std::fmt::Display for ServedBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServedBy::Hybrid { attempt } => write!(f, "hybrid (attempt {})", attempt + 1),
            ServedBy::PureSw => write!(f, "pure-SW fallback"),
        }
    }
}

/// Outcome of a [`TwillBuild::run_resilient`] run: the report that served
/// the request, the path that produced it, and what went wrong on the way.
#[derive(Debug)]
pub struct ResilientOutcome {
    pub report: SimReport,
    pub served_by: ServedBy,
    /// Human-readable failure description per abandoned hybrid attempt.
    pub failures: Vec<String>,
}

/// The Twill compiler front door.
#[derive(Clone, Debug)]
pub struct Compiler {
    pub dswp: DswpOptions,
    pub pipeline: twill_passes::PipelineOptions,
    pub hls: HlsOptions,
    /// Accept recursive programs (thesis §7 extension): recursive call
    /// trees are pinned whole to the software master.
    pub allow_recursion: bool,
    /// Instrument the emitted Verilog with the `twill_perf` counter
    /// register file (DESIGN.md §14). Opt-in: off keeps every artifact
    /// byte-identical to an uninstrumented build.
    pub hw_counters: bool,
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Compiler {
    pub fn new() -> Compiler {
        Compiler {
            dswp: DswpOptions::default(),
            pipeline: twill_passes::PipelineOptions::hls_flow(),
            hls: HlsOptions::default(),
            allow_recursion: false,
            hw_counters: false,
        }
    }

    /// Total partitions (1 software master + n-1 hardware threads).
    pub fn partitions(mut self, n: usize) -> Compiler {
        self.dswp.num_partitions = n;
        self
    }

    /// Targeted fraction of estimated work for the software partition.
    pub fn sw_fraction(mut self, f: f64) -> Compiler {
        self.dswp.sw_fraction = f;
        self
    }

    /// Explicit per-partition work targets (the Fig 6.3/6.4 sweeps).
    pub fn split_points(mut self, sp: Vec<f64>) -> Compiler {
        self.dswp.split_points = Some(sp);
        self
    }

    /// Queue depth for all generated queues (paper baseline: 8).
    pub fn queue_depth(mut self, d: u32) -> Compiler {
        self.dswp.queue_depth = d;
        self
    }

    /// Per-queue depth overrides `(queue id, depth)`, layered over
    /// [`Compiler::queue_depth`]. These change the *declared* depths, so
    /// the Verilog FIFOs and area model see them too — the tuner's main
    /// actuator, also reachable via `twillc --queue-depths q0=4,q1=32`.
    pub fn queue_depths(mut self, overrides: Vec<(usize, u32)>) -> Compiler {
        self.dswp.queue_depth_overrides = overrides;
        self
    }

    /// Accept recursive programs (thesis §7 extension: recursion runs on
    /// the software master; hardware threads never need a stack).
    pub fn allow_recursion(mut self, yes: bool) -> Compiler {
        self.allow_recursion = yes;
        self
    }

    /// Emit on-chip performance counters with the Verilog (`twillc
    /// --hw-counters`). The area model then charges the instrumentation
    /// overhead, and [`TwillBuild::regmap_json`] describes the readback.
    pub fn hw_counters(mut self, yes: bool) -> Compiler {
        self.hw_counters = yes;
        self
    }

    /// Compile mini-C source through the full Twill flow. The frontend runs
    /// eagerly (so errors surface here); every later stage — passes, DSWP,
    /// HLS, Verilog — is computed lazily on first demand and memoized in
    /// the build's [`BuildGraph`].
    pub fn compile(&self, name: &str, source: &str) -> Result<TwillBuild, CError> {
        let graph =
            Arc::new(BuildGraph::from_source(name, source, self.allow_recursion, self.pipeline));
        graph.ensure_frontend()?;
        Ok(self.build_on(&graph))
    }

    /// Run the Twill flow on an already-prepared IR module (the module is
    /// used as-is; the preparation pipeline is not re-run).
    pub fn build_from_module(&self, prepared: Module) -> TwillBuild {
        let graph = Arc::new(BuildGraph::from_prepared("module", prepared));
        self.build_on(&graph)
    }

    /// Fork a build off an existing artifact graph with this compiler's
    /// DSWP/HLS knobs. This is the sweep API: every [`TwillBuild`] on the
    /// same graph shares its memoized stages, so varying only split points
    /// or simulation parameters reuses the frontend/passes (and, where the
    /// keys match, DSWP and HLS) artifacts.
    pub fn build_on(&self, graph: &Arc<BuildGraph>) -> TwillBuild {
        TwillBuild {
            graph: graph.clone(),
            dswp_opts: self.dswp.clone(),
            hls: self.hls,
            hw_counters: self.hw_counters,
            dswp: OnceLock::new(),
            hybrid_schedule: OnceLock::new(),
            pure_schedule: OnceLock::new(),
        }
    }
}

/// One configuration's view of a compiled program: a [`BuildGraph`] plus
/// the DSWP/HLS options to build with. Artifacts (partitions, schedules,
/// Verilog, area) are computed on first access and cached in the graph;
/// accessors therefore take `&self` and return references/`Arc`s.
pub struct TwillBuild {
    graph: Arc<BuildGraph>,
    dswp_opts: DswpOptions,
    hls: HlsOptions,
    hw_counters: bool,
    dswp: OnceLock<Arc<DswpArtifact>>,
    hybrid_schedule: OnceLock<Arc<ModuleSchedule>>,
    pure_schedule: OnceLock<Arc<ModuleSchedule>>,
}

impl TwillBuild {
    /// The shared artifact graph (pass to [`Compiler::build_on`] to fork
    /// further configurations that reuse this build's artifacts).
    pub fn graph(&self) -> &Arc<BuildGraph> {
        &self.graph
    }

    /// The [`Compiler`] that made this build: compiling the graph's source
    /// with it reproduces every artifact of this build.
    pub fn compiler(&self) -> Compiler {
        Compiler {
            dswp: self.dswp_opts.clone(),
            pipeline: self.graph.pipeline(),
            hls: self.hls,
            allow_recursion: self.graph.allow_recursion(),
            hw_counters: self.hw_counters,
        }
    }

    /// The optimized single-threaded module (input to DSWP; also the
    /// pure-SW / pure-HW baselines).
    pub fn prepared(&self) -> &Module {
        self.graph.prepared()
    }

    fn dswp_artifact(&self) -> &Arc<DswpArtifact> {
        self.dswp.get_or_init(|| self.graph.dswp(&self.dswp_opts))
    }

    /// The partitioned program + thread table + Table 6.1 statistics.
    pub fn dswp(&self) -> &DswpResult {
        &self.dswp_artifact().result
    }

    /// HLS schedule of the partitioned module.
    pub fn hybrid_schedule(&self) -> &ModuleSchedule {
        self.hybrid_schedule
            .get_or_init(|| self.graph.hybrid_schedule(self.dswp_artifact(), &self.hls))
    }

    /// HLS schedule of the whole program (the LegUp pure-HW baseline).
    /// Lazy: simulating only hybrid / pure-SW never computes it.
    pub fn pure_schedule(&self) -> &ModuleSchedule {
        self.pure_schedule.get_or_init(|| self.graph.pure_schedule(&self.hls))
    }

    /// Golden reference: the interpreter, no timing.
    pub fn run_reference(&self, input: Vec<i32>) -> Result<Vec<i32>, twill_ir::ExecError> {
        twill_ir::interp::run_main(self.prepared(), input, 4_000_000_000).map(|(o, _, _)| o)
    }

    pub fn sim_config(&self) -> SimConfig {
        SimConfig { hls: self.hls, ..Default::default() }
    }

    pub fn simulate_pure_sw(&self, input: Vec<i32>) -> Result<SimReport, SimError> {
        twill_rt::simulate_pure_sw(self.prepared(), input, &self.sim_config())
    }

    pub fn simulate_pure_hw(&self, input: Vec<i32>) -> Result<SimReport, SimError> {
        twill_rt::simulate_pure_hw_scheduled(
            self.prepared(),
            self.pure_schedule(),
            input,
            &self.sim_config(),
        )
    }

    pub fn simulate_hybrid(&self, input: Vec<i32>) -> Result<SimReport, SimError> {
        twill_rt::simulate_hybrid_scheduled(
            self.dswp(),
            self.hybrid_schedule(),
            input,
            &self.sim_config(),
        )
    }

    /// Simulate the hybrid under a custom [`SimConfig`] (the Fig 6.5/6.6
    /// sweeps). The schedule is looked up in the graph cache keyed by
    /// `cfg.hls`, so sweeping queue latency/depth schedules exactly once.
    pub fn simulate_hybrid_with(
        &self,
        input: Vec<i32>,
        cfg: &SimConfig,
    ) -> Result<SimReport, SimError> {
        let art = self.dswp_artifact();
        let sched = self.graph.hybrid_schedule(art, &cfg.hls);
        twill_rt::simulate_hybrid_scheduled(&art.result, &sched, input, cfg)
    }

    /// Graceful degradation: run the hybrid under `cfg`, retrying up to
    /// `max_attempts` times (each retry derives a fresh fault seed from the
    /// plan), and fall back to a fault-free pure-software run when every
    /// hybrid attempt deadlocks, times out, or corrupts its output.
    ///
    /// An attempt's output is checked against the interpreter's golden
    /// reference, so silently corrupted runs (e.g. an injected bit flip
    /// that survives to the output) are retried rather than returned.
    /// Configuration errors abort immediately — no retry can fix them.
    pub fn run_resilient(
        &self,
        input: Vec<i32>,
        cfg: &SimConfig,
        max_attempts: u32,
    ) -> Result<ResilientOutcome, SimError> {
        let mut failures = Vec::new();
        let golden = self.run_reference(input.clone()).ok();
        for attempt in 0..max_attempts {
            let attempt_cfg =
                SimConfig { fault: cfg.fault.as_ref().map(|p| p.reseeded(attempt)), ..cfg.clone() };
            match self.simulate_hybrid_with(input.clone(), &attempt_cfg) {
                Ok(report) => {
                    if let Some(expect) = &golden {
                        if &report.output != expect {
                            failures.push(format!(
                                "attempt {}: output corrupted ({} fault(s) injected)",
                                attempt + 1,
                                report.stats.faults.total()
                            ));
                            continue;
                        }
                    }
                    return Ok(ResilientOutcome {
                        report,
                        served_by: ServedBy::Hybrid { attempt },
                        failures,
                    });
                }
                Err(e @ SimError::Config(_)) => return Err(e),
                Err(e) => failures.push(format!("attempt {}: {e}", attempt + 1)),
            }
        }
        // Degraded path: the whole program on the soft CPU, injection off.
        let sw_cfg = SimConfig { fault: None, ..cfg.clone() };
        let report = twill_rt::simulate_pure_sw(self.prepared(), input, &sw_cfg)?;
        Ok(ResilientOutcome { report, served_by: ServedBy::PureSw, failures })
    }

    /// DSWP statistics (queues/semaphores/HW threads — Table 6.1).
    pub fn stats(&self) -> &twill_dswp::extract::DswpStats {
        &self.dswp().stats
    }

    /// Area breakdown in the four columns of Table 6.2.
    pub fn area(&self) -> report::AreaBreakdown {
        report::area_breakdown(self)
    }

    /// Verilog for the hardware threads (thesis §5.4 output artifact).
    /// When the build was configured with [`Compiler::hw_counters`], the
    /// bundle includes the `twill_perf` register file (DESIGN.md §14).
    pub fn verilog(&self) -> Arc<String> {
        self.graph.hybrid_verilog(self.dswp_artifact(), &self.hls, self.hw_counters)
    }

    /// Verilog for the pure-HW (LegUp-style) translation.
    pub fn verilog_pure_hw(&self) -> Arc<String> {
        self.graph.pure_verilog(&self.hls)
    }

    /// Whether this build instruments its Verilog with `twill_perf`.
    pub fn hw_counters(&self) -> bool {
        self.hw_counters
    }

    /// The machine-readable counter register-map artifact (JSON) for this
    /// build's hybrid design — the document `twillc --emit-regmap` writes
    /// next to the Verilog. Available regardless of
    /// [`TwillBuild::hw_counters`] so tooling can inspect the would-be
    /// layout; cached in the graph.
    pub fn regmap_json(&self) -> Arc<String> {
        self.graph.regmap(self.dswp_artifact())
    }

    /// Model the post-run `twill_perf` readback for a hybrid report of
    /// this build: the word image a flashed design's counters would hold,
    /// served through the same register map as [`TwillBuild::regmap_json`]
    /// (same design name, threads, and queues).
    pub fn counter_bank(&self, rep: &SimReport) -> twill_rt::CounterBank {
        twill_rt::CounterBank::from_report(&self.dswp().module.name, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 32; i++) {
    acc += (i * 3) ^ (acc >> 2);
  }
  out(acc);
  return 0;
}
"#;

    #[test]
    fn compile_and_simulate_all_configs() {
        let b = Compiler::new().partitions(3).compile("t", SRC).unwrap();
        let golden = b.run_reference(vec![]).unwrap();
        assert_eq!(b.simulate_pure_sw(vec![]).unwrap().output, golden);
        assert_eq!(b.simulate_pure_hw(vec![]).unwrap().output, golden);
        assert_eq!(b.simulate_hybrid(vec![]).unwrap().output, golden);
    }

    #[test]
    fn frontend_errors_surface() {
        let err = match Compiler::new().compile("t", "int main( { return 0; }") {
            Err(e) => e,
            Ok(_) => panic!("expected a parse error"),
        };
        assert!(err.line > 0);
    }

    #[test]
    fn area_columns_ordered_like_table_6_2() {
        let b = Compiler::new().partitions(3).compile("t", SRC).unwrap();
        let a = b.area();
        // HW threads alone are smaller than with the runtime; adding the
        // Microblaze adds its 1434 LUTs.
        assert!(a.twill_hw_threads.luts <= a.twill_total.luts);
        assert_eq!(
            a.twill_plus_microblaze.luts,
            a.twill_total.luts + twill_ir::cost::LUTS_MICROBLAZE
        );
    }

    #[test]
    fn queue_depth_option_bounds_occupancy() {
        let b = Compiler::new()
            .partitions(2)
            .split_points(vec![0.5, 0.5])
            .queue_depth(2)
            .compile("t", SRC)
            .unwrap();
        let golden = b.run_reference(vec![]).unwrap();
        let rep = b.simulate_hybrid(vec![]).unwrap();
        assert_eq!(rep.output, golden);
        assert!(rep.stats.queue_peak.iter().all(|&p| p <= 2), "{:?}", rep.stats.queue_peak);
    }

    #[test]
    fn split_points_force_multiple_busy_partitions() {
        let b =
            Compiler::new().partitions(2).split_points(vec![0.5, 0.5]).compile("t", SRC).unwrap();
        let s = b.stats();
        assert_eq!(s.partitions, 2);
        assert!(s.insts_per_partition.iter().all(|&n| n > 0), "{s:?}");
        assert!(s.queues >= 1, "forced even split must communicate: {s:?}");
    }

    #[test]
    fn recursion_rejected_by_default_allowed_when_opted_in() {
        let rec = "int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); }\nint main() { out(fact(6)); return 0; }";
        let err = match Compiler::new().compile("t", rec) {
            Err(e) => e,
            Ok(_) => panic!("default compiler must reject recursion"),
        };
        assert!(err.msg.contains("recursion"), "{err}");
        let b = Compiler::new().allow_recursion(true).compile("t", rec).unwrap();
        assert_eq!(b.run_reference(vec![]).unwrap(), vec![720]);
        assert_eq!(b.simulate_hybrid(vec![]).unwrap().output, vec![720]);
    }

    #[test]
    fn builder_queue_depth_sets_declared_queue_depths() {
        let b = Compiler::new()
            .partitions(2)
            .split_points(vec![0.5, 0.5])
            .queue_depth(4)
            .compile("t", SRC)
            .unwrap();
        assert!(!b.dswp().module.queues.is_empty());
        assert!(b.dswp().module.queues.iter().all(|q| q.depth == 4));
        // The simulator override stays unset: declared depths rule.
        assert_eq!(b.sim_config().queue_depth, None);
    }

    #[test]
    fn hybrid_cycles_reported_nonzero_and_cpu_fraction_sane() {
        let b = Compiler::new().partitions(2).compile("t", SRC).unwrap();
        let rep = b.simulate_hybrid(vec![]).unwrap();
        assert!(rep.cycles > 0);
        assert!((0.0..=1.0).contains(&rep.cpu_busy_fraction), "{}", rep.cpu_busy_fraction);
        assert_eq!(rep.hw_threads, b.stats().hw_threads);
    }

    #[test]
    fn verilog_emitted_for_both_flows() {
        let b = Compiler::new().partitions(2).compile("t", SRC).unwrap();
        assert!(b.verilog().contains("module"));
        assert!(b.verilog_pure_hw().contains("module main"));
    }
}
