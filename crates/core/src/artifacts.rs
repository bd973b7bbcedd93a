//! The staged artifact build pipeline.
//!
//! A [`BuildGraph`] owns one program's compilation artifacts as a chain of
//! lazily-computed, memoized stages:
//!
//! ```text
//! source ──frontend──▶ raw IR ──passes──▶ prepared IR ──dswp(opts)──▶
//!     partitioned module ──hls(opts)──▶ schedules ──▶ verilog
//!                 └────────hls(opts)──▶ pure-HW schedule (LegUp baseline)
//! ```
//!
//! Each stage runs at most once per distinct input. The linear stages
//! (frontend, passes) live behind [`OnceLock`] cells. The fan-out stages
//! are keyed by the options that determine them. A graph holds exactly one
//! prepared module, so a DSWP artifact is keyed by its [`DswpOptions`]. A
//! hardware design is either the prepared module (pure HW) or one DSWP
//! artifact, and it owns its schedules, Verilog and register map, keyed by
//! [`HlsOptions`] plus the counters bit. Sweep drivers that vary only
//! `SimConfig` knobs or DSWP split points therefore reuse every upstream
//! artifact instead of recompiling from source — the Fig 6.3–6.6
//! experiments build one graph per benchmark and fork cheap
//! [`crate::TwillBuild`] views off it.
//!
//! The keys used to be FNV-1a hashes of the printed modules. Printing the
//! prepared module and each DSWP module only to key the caches took 6.8 of
//! the 89 ms of the eight cold CHStone `twillc --emit-verilog` flows (4.7
//! of 60 ms for AES; release build, best of 7, 2-vCPU x86_64 guest),
//! inside no stage span. The price of option keys: two split points whose
//! DSWP modules happen to be equal schedule their designs twice.
//!
//! [`StageCounts`] exposes how many times each stage actually executed, so
//! tests can assert both laziness (a stage never demanded never runs) and
//! memoization (a stage demanded N times runs once).

use std::sync::{Arc, Mutex, OnceLock};

use twill_dswp::{run_dswp, DswpOptions, DswpResult};
use twill_frontend::CError;
use twill_hls::schedule::{schedule_module, HlsOptions, ModuleSchedule};
use twill_hls::EmitOptions;
use twill_ir::Module;
use twill_obs::{Span, ToJson};

/// How many times each pipeline stage has actually executed on a graph.
/// Cache hits do not count; this is the "work done" ledger the laziness
/// and memoization tests assert over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// mini-C → raw IR lowerings.
    pub frontend: usize,
    /// Preparation-pipeline runs (`run_standard_pipeline`).
    pub passes: usize,
    /// DSWP partitionings (one per distinct `DswpOptions`).
    pub dswp: usize,
    /// HLS module schedulings (one per design × distinct `HlsOptions`).
    pub hls: usize,
    /// Verilog emissions.
    pub verilog: usize,
    /// Counter register-map JSON artifact generations (only demanded by
    /// `--hw-counters` flows; stays 0 during baseline collection).
    pub regmap: usize,
    /// DSWP demands answered from the cache.
    pub dswp_hits: usize,
    /// Schedule demands answered from the cache.
    pub hls_hits: usize,
    /// Verilog demands answered from the cache.
    pub verilog_hits: usize,
    /// Register-map demands answered from the cache.
    pub regmap_hits: usize,
}

impl StageCounts {
    /// Total stage executions (cache misses — the work actually done).
    pub fn runs(&self) -> usize {
        self.frontend + self.passes + self.dswp + self.hls + self.verilog + self.regmap
    }

    /// Total demands answered from a memoization cache.
    pub fn hits(&self) -> usize {
        self.dswp_hits + self.hls_hits + self.verilog_hits + self.regmap_hits
    }
}

/// One [`StageCounts`] field.
type Count = fn(&mut StageCounts) -> &mut usize;

/// Memoized artifacts under their keys. A graph sees a few dozen keys at
/// most, so a linear scan is enough.
type Cache<K, V> = Mutex<Vec<(K, Arc<V>)>>;

const POISONED: &str = "a stage panicked while holding the artifact cache";

/// The memoized artifacts of one hardware design: the prepared module (the
/// pure-HW translation) or one DSWP artifact's partitioned module.
#[derive(Default)]
struct Design {
    schedules: Cache<HlsOptions, ModuleSchedule>,
    /// Keyed by the HLS options and whether `twill_perf` counters are
    /// emitted; the instrumented agent list is the design's own.
    verilog: Cache<(HlsOptions, bool), String>,
    /// The register map depends on the design alone.
    regmap: Cache<(), String>,
}

/// A DSWP partitioning of the graph's prepared module, together with the
/// memoized artifacts of its hybrid design.
pub struct DswpArtifact {
    pub result: DswpResult,
    design: Design,
}

enum GraphInput {
    /// mini-C source: the frontend and pass stages are live.
    Source { source: String, allow_recursion: bool },
    /// Seeded directly with a prepared module (e.g. from
    /// `twill_chstone::compile_and_prepare`): frontend/passes never run.
    Prepared,
}

/// Stage executions and cache hits so far, plus the wall-clock span of
/// every execution (cache hits record none) on the shared
/// [`twill_obs::now_ns`] epoch.
#[derive(Default)]
struct Ledger {
    counts: StageCounts,
    spans: Vec<Span>,
}

/// One program's staged, memoized compilation artifacts. Create with
/// [`BuildGraph::from_source`] or [`BuildGraph::from_prepared`], wrap in an
/// [`Arc`], and fork per-configuration [`crate::TwillBuild`]s off it with
/// [`crate::Compiler::build_on`]. Every stage runs on the thread that
/// demands it, one function after another. All stage accessors take
/// `&self` and the graph is `Sync`, so sweep points simulating on worker
/// threads may share it; each stage still runs exactly once.
pub struct BuildGraph {
    name: String,
    input: GraphInput,
    pipeline: twill_passes::PipelineOptions,
    frontend: OnceLock<Result<Module, CError>>,
    prepared: OnceLock<Module>,
    /// The pure-HW design: the whole prepared module.
    pure: Design,
    dswp: Cache<DswpOptions, DswpArtifact>,
    ledger: Mutex<Ledger>,
}

impl BuildGraph {
    /// A graph over mini-C source. Nothing is compiled yet; call
    /// [`BuildGraph::ensure_frontend`] to surface syntax/semantic errors
    /// eagerly (as [`crate::Compiler::compile`] does).
    pub fn from_source(
        name: &str,
        source: &str,
        allow_recursion: bool,
        pipeline: twill_passes::PipelineOptions,
    ) -> BuildGraph {
        BuildGraph::new(
            name,
            GraphInput::Source { source: source.to_string(), allow_recursion },
            pipeline,
        )
    }

    /// A graph seeded with an already-prepared module: the frontend and
    /// pass stages are pre-satisfied and their counters stay at zero.
    pub fn from_prepared(name: &str, prepared: Module) -> BuildGraph {
        let g = BuildGraph::new(name, GraphInput::Prepared, Default::default());
        g.prepared.set(prepared).expect("fresh graph");
        g
    }

    fn new(name: &str, input: GraphInput, pipeline: twill_passes::PipelineOptions) -> BuildGraph {
        BuildGraph {
            name: name.to_string(),
            input,
            pipeline,
            frontend: OnceLock::new(),
            prepared: OnceLock::new(),
            pure: Design::default(),
            dswp: Mutex::default(),
            ledger: Mutex::default(),
        }
    }

    /// Run `f` as one execution of `stage`: count it under `runs` and
    /// remember its span.
    fn run<T>(&self, stage: &str, runs: Count, f: impl FnOnce() -> T) -> T {
        let (value, span) = Span::record(stage, f);
        let mut ledger = self.ledger.lock().expect(POISONED);
        *runs(&mut ledger.counts) += 1;
        ledger.spans.push(span);
        value
    }

    /// The artifact `cache` holds under `key`, counted under `hits`, or
    /// else the one `make` builds, which the cache keeps.
    fn memo<K: PartialEq + Clone, V>(
        &self,
        cache: &Cache<K, V>,
        key: &K,
        hits: Count,
        make: impl FnOnce() -> V,
    ) -> Arc<V> {
        let mut cache = cache.lock().expect(POISONED);
        if let Some((_, hit)) = cache.iter().find(|(k, _)| k == key) {
            *hits(&mut self.ledger.lock().expect(POISONED).counts) += 1;
            return hit.clone();
        }
        let value = Arc::new(make());
        cache.push((key.clone(), value.clone()));
        value
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The preparation pipeline the passes stage runs.
    pub(crate) fn pipeline(&self) -> twill_passes::PipelineOptions {
        self.pipeline
    }

    /// Whether the frontend accepts recursive programs (false for a
    /// prepared-module graph, whose frontend never runs).
    pub(crate) fn allow_recursion(&self) -> bool {
        matches!(self.input, GraphInput::Source { allow_recursion: true, .. })
    }

    /// Snapshot of how many times each stage has run so far, plus how
    /// many demands its memoization caches have absorbed.
    pub fn counters(&self) -> StageCounts {
        self.ledger.lock().expect(POISONED).counts
    }

    /// Wall-clock spans of every stage execution so far, in completion
    /// order (feed to [`twill_obs::TraceBuilder::spans`] for the Perfetto
    /// compiler timeline).
    pub fn spans(&self) -> Vec<Span> {
        self.ledger.lock().expect(POISONED).spans.clone()
    }

    /// Force the frontend stage so lex/parse/semantic errors surface as a
    /// `Result` instead of a later panic. No-op for prepared-module graphs.
    pub fn ensure_frontend(&self) -> Result<(), CError> {
        if self.prepared.get().is_some() {
            return Ok(());
        }
        self.frontend_ir().map(|_| ())
    }

    fn frontend_ir(&self) -> Result<&Module, CError> {
        self.frontend
            .get_or_init(|| {
                let GraphInput::Source { source, allow_recursion } = &self.input else {
                    unreachable!("prepared-module graphs never demand the frontend stage")
                };
                self.run(
                    "frontend",
                    |c| &mut c.frontend,
                    || twill_frontend::compile_with(&self.name, source, *allow_recursion),
                )
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The optimized single-threaded module (frontend + preparation
    /// pipeline). Panics on frontend errors — call
    /// [`BuildGraph::ensure_frontend`] first to handle them gracefully.
    pub fn prepared(&self) -> &Module {
        self.prepared.get_or_init(|| {
            let mut m = self
                .frontend_ir()
                .unwrap_or_else(|e| panic!("frontend error in '{}': {e}", self.name))
                .clone();
            self.run(
                "passes",
                |c| &mut c.passes,
                || {
                    twill_passes::run_standard_pipeline(&mut m, &self.pipeline);
                },
            );
            m
        })
    }

    /// DSWP-partition the prepared module under `opts`, memoized per
    /// distinct option set.
    pub fn dswp(&self, opts: &DswpOptions) -> Arc<DswpArtifact> {
        self.memo(
            &self.dswp,
            opts,
            |c| &mut c.dswp_hits,
            || {
                let result = self.run("dswp", |c| &mut c.dswp, || run_dswp(self.prepared(), opts));
                DswpArtifact { result, design: Design::default() }
            },
        )
    }

    /// HLS schedule of the hybrid design `art` under `hls`.
    pub fn hybrid_schedule(&self, art: &DswpArtifact, hls: &HlsOptions) -> Arc<ModuleSchedule> {
        self.schedule(&art.design, &art.result.module, hls)
    }

    /// Schedule of the whole prepared module as one hardware design (the
    /// LegUp pure-HW baseline). Lazy: never runs if the caller only
    /// simulates hybrid or pure-SW configurations.
    pub fn pure_schedule(&self, hls: &HlsOptions) -> Arc<ModuleSchedule> {
        self.schedule(&self.pure, self.prepared(), hls)
    }

    /// Verilog of the hybrid design `art` under `hls`, instrumented with
    /// the `twill_perf` counters of its agents when `hw_counters` is set.
    /// Counters-on and counters-off texts memoize apart; both reuse the
    /// design's schedule.
    pub fn hybrid_verilog(
        &self,
        art: &DswpArtifact,
        hls: &HlsOptions,
        hw_counters: bool,
    ) -> Arc<String> {
        let threads = if hw_counters { art.result.agent_names() } else { Vec::new() };
        self.verilog(&art.design, &art.result.module, hls, EmitOptions { hw_counters, threads })
    }

    /// Verilog of the pure-HW design under `hls`.
    pub fn pure_verilog(&self, hls: &HlsOptions) -> Arc<String> {
        self.verilog(&self.pure, self.prepared(), hls, EmitOptions::default())
    }

    /// The counter register-map JSON artifact of the hybrid design `art`,
    /// emitted next to the Verilog by `twillc --emit-regmap`.
    pub fn regmap(&self, art: &DswpArtifact) -> Arc<String> {
        self.memo(
            &art.design.regmap,
            &(),
            |c| &mut c.regmap_hits,
            || {
                let opts = EmitOptions { hw_counters: true, threads: art.result.agent_names() };
                self.run("regmap", |c| &mut c.regmap, || opts.regmap(&art.result.module).to_json())
            },
        )
    }

    /// `design`'s schedule under `hls`; `module` is the design's module.
    fn schedule(&self, design: &Design, module: &Module, hls: &HlsOptions) -> Arc<ModuleSchedule> {
        self.memo(
            &design.schedules,
            hls,
            |c| &mut c.hls_hits,
            || self.run("hls", |c| &mut c.hls, || schedule_module(module, hls)),
        )
    }

    /// `design`'s Verilog under `hls` and `emit`; `module` is the design's
    /// module.
    fn verilog(
        &self,
        design: &Design,
        module: &Module,
        hls: &HlsOptions,
        emit: EmitOptions,
    ) -> Arc<String> {
        self.memo(
            &design.verilog,
            &(*hls, emit.hw_counters),
            |c| &mut c.verilog_hits,
            || {
                let sched = self.schedule(design, module, hls);
                self.run(
                    "verilog",
                    |c| &mut c.verilog,
                    || twill_hls::verilog::emit_module_with(module, &sched, &emit),
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 24; i++) {
    acc += (i * 5) ^ (acc >> 1);
  }
  out(acc);
  return 0;
}
"#;

    fn graph() -> BuildGraph {
        BuildGraph::from_source("t", SRC, false, Default::default())
    }

    #[test]
    fn stages_are_lazy_until_demanded() {
        let g = graph();
        assert_eq!(g.counters(), StageCounts::default());
        g.ensure_frontend().unwrap();
        assert_eq!(g.counters().frontend, 1);
        assert_eq!(g.counters().passes, 0);
        let _ = g.prepared();
        assert_eq!(g.counters().passes, 1);
        assert_eq!(g.counters().dswp, 0);
        assert_eq!(g.counters().hls, 0);
    }

    #[test]
    fn stages_memoize_per_distinct_input() {
        let g = graph();
        let o2 = DswpOptions { num_partitions: 2, ..Default::default() };
        let o3 = DswpOptions { num_partitions: 3, ..Default::default() };
        let a = g.dswp(&o2);
        let b = g.dswp(&o2);
        assert!(Arc::ptr_eq(&a, &b), "same opts must hit the cache");
        let _ = g.dswp(&o3);
        assert_eq!(g.counters().dswp, 2, "distinct opts recompute");
        assert_eq!(g.counters().passes, 1, "upstream stages still ran once");

        let hls = HlsOptions::default();
        let s1 = g.hybrid_schedule(&a, &hls);
        let s2 = g.hybrid_schedule(&a, &hls);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(g.counters().hls, 1);
        let _ = g.pure_schedule(&hls);
        assert_eq!(g.counters().hls, 2, "pure-HW schedule is a distinct module");
    }

    #[test]
    fn verilog_memoized_and_reuses_schedule() {
        let g = graph();
        let hls = HlsOptions::default();
        let v1 = g.pure_verilog(&hls);
        let v2 = g.pure_verilog(&hls);
        assert!(Arc::ptr_eq(&v1, &v2));
        assert_eq!(g.counters().verilog, 1);
        assert_eq!(g.counters().hls, 1);
    }

    #[test]
    fn counter_emission_memoizes_separately_from_plain_verilog() {
        let g = graph();
        let art = g.dswp(&DswpOptions::default());
        let hls = HlsOptions::default();
        let plain = g.hybrid_verilog(&art, &hls, false);
        let counted = g.hybrid_verilog(&art, &hls, true);
        assert_ne!(*plain, *counted, "instrumented text must differ");
        assert!(counted.contains("module twill_perf ("));
        assert_eq!(g.counters().verilog, 2, "two distinct emissions");
        // Each key hits its own cache entry; the schedule is shared.
        let again = g.hybrid_verilog(&art, &hls, true);
        assert!(Arc::ptr_eq(&counted, &again));
        assert_eq!(g.counters().hls, 1);

        let r1 = g.regmap(&art);
        let r2 = g.regmap(&art);
        assert!(Arc::ptr_eq(&r1, &r2));
        let c = g.counters();
        assert_eq!((c.regmap, c.regmap_hits), (1, 1));
        assert!(r1.contains("\"schema\": \"twill-regmap\""));
    }

    #[test]
    fn prepared_graph_skips_frontend_and_passes() {
        let g = graph();
        let prepared = g.prepared().clone();
        let seeded = BuildGraph::from_prepared("t", prepared);
        seeded.ensure_frontend().unwrap();
        let _ = seeded.dswp(&DswpOptions::default());
        let c = seeded.counters();
        assert_eq!((c.frontend, c.passes, c.dswp), (0, 0, 1));
    }

    #[test]
    fn each_option_field_keys_the_caches() {
        let g = graph();
        let base = DswpOptions { num_partitions: 2, ..Default::default() };
        let dswp = [
            DswpOptions { num_partitions: 3, ..base.clone() },
            DswpOptions { sw_fraction: 0.5, ..base.clone() },
            DswpOptions { split_points: Some(vec![0.5, 0.5]), ..base.clone() },
            DswpOptions { queue_depth: 4, ..base.clone() },
            DswpOptions { queue_depth_overrides: vec![(0, 2)], ..base.clone() },
            DswpOptions { prune: false, ..base.clone() },
            DswpOptions { phi_const_pairs: false, ..base.clone() },
            DswpOptions { reuse_queues: true, ..base.clone() },
            DswpOptions { freq_weights: false, ..base.clone() },
        ];
        let art = g.dswp(&base);
        for (i, opts) in dswp.iter().enumerate() {
            assert!(!Arc::ptr_eq(&art, &g.dswp(opts)), "DSWP field {i} must key the cache");
        }
        assert_eq!(g.counters().dswp, 1 + dswp.len());

        let hls = HlsOptions::default();
        let all = [
            hls,
            HlsOptions { chaining: false, ..hls },
            HlsOptions { loop_pipelining: false, ..hls },
            HlsOptions { multipliers: 1, ..hls },
            HlsOptions { dividers: 2, ..hls },
        ];
        for h in &all {
            let _ = g.hybrid_schedule(&art, h);
            let _ = g.hybrid_verilog(&art, h, false);
        }
        let c = g.counters();
        assert_eq!((c.hls, c.verilog, c.hls_hits, c.verilog_hits), (5, 5, 5, 0), "{c:?}");
    }

    #[test]
    fn spans_and_hit_counters_track_cache_behaviour() {
        let g = graph();
        let o2 = DswpOptions { num_partitions: 2, ..Default::default() };
        let _ = g.dswp(&o2);
        let _ = g.dswp(&o2);
        let c = g.counters();
        assert_eq!((c.dswp, c.dswp_hits), (1, 1), "{c:?}");
        // One span per execution, none for the cache hit.
        let names: Vec<String> = g.spans().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, ["frontend", "passes", "dswp"]);
        assert_eq!(c.runs(), 3);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn frontend_errors_are_memoized_too() {
        let g = BuildGraph::from_source("t", "int main( {", false, Default::default());
        assert!(g.ensure_frontend().is_err());
        assert!(g.ensure_frontend().is_err());
        assert_eq!(g.counters().frontend, 1);
    }
}
