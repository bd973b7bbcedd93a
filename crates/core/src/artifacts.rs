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
//! Each stage runs at most once per distinct input: the linear stages
//! (frontend, passes) live behind [`OnceLock`] cells; the fan-out stages
//! (DSWP, HLS scheduling, Verilog emission) live in hash maps keyed by an
//! FNV-1a content hash of their inputs (module text + option bits). Sweep
//! drivers that vary only `SimConfig` knobs or DSWP split points therefore
//! reuse every upstream artifact instead of recompiling from source — the
//! Fig 6.3–6.6 experiments build one graph per benchmark and fork cheap
//! [`crate::TwillBuild`] views off it.
//!
//! [`StageCounts`] exposes how many times each stage actually executed, so
//! tests can assert both laziness (a stage never demanded never runs) and
//! memoization (a stage demanded N times runs once).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use twill_dswp::{run_dswp, DswpOptions, DswpResult};
use twill_frontend::CError;
use twill_hls::schedule::{schedule_module, HlsOptions, ModuleSchedule};
use twill_ir::Module;
use twill_obs::{Span, ToJson};

/// Minimal FNV-1a 64-bit hasher — deterministic across runs and platforms
/// (unlike `DefaultHasher`), which keeps artifact keys stable.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.bytes(&[v as u8]);
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// Content hash of a module: FNV-1a over its printed text. The printer is
/// a total serialization of everything downstream stages read (functions,
/// globals, queues, semaphores), so equal hashes ⇒ equal compile inputs.
pub fn hash_module(m: &Module) -> u64 {
    let mut h = Fnv::new();
    h.bytes(twill_ir::printer::print_module(m).as_bytes());
    h.finish()
}

fn hash_dswp_opts(h: &mut Fnv, o: &DswpOptions) {
    h.u64(o.num_partitions as u64);
    h.f64(o.sw_fraction);
    match &o.split_points {
        None => h.u64(0),
        Some(sp) => {
            h.u64(1 + sp.len() as u64);
            for &x in sp {
                h.f64(x);
            }
        }
    }
    h.u64(o.queue_depth as u64);
    h.u64(o.queue_depth_overrides.len() as u64);
    for &(id, depth) in &o.queue_depth_overrides {
        h.u64(id as u64);
        h.u64(depth as u64);
    }
    h.bool(o.prune);
    h.bool(o.phi_const_pairs);
    h.bool(o.reuse_queues);
    h.bool(o.freq_weights);
    h.bool(o.pin_call_subtrees);
}

fn hash_hls_opts(h: &mut Fnv, o: &HlsOptions) {
    h.bool(o.chaining);
    h.bool(o.loop_pipelining);
    h.u64(o.multipliers as u64);
    h.u64(o.dividers as u64);
}

fn schedule_key(module_hash: u64, hls: &HlsOptions) -> u64 {
    let mut h = Fnv::new();
    h.u64(module_hash);
    hash_hls_opts(&mut h, hls);
    h.finish()
}

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
    /// HLS module schedulings (one per distinct module × `HlsOptions`).
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

#[derive(Default)]
struct StageCounters {
    frontend: AtomicUsize,
    passes: AtomicUsize,
    dswp: AtomicUsize,
    hls: AtomicUsize,
    verilog: AtomicUsize,
    regmap: AtomicUsize,
    dswp_hits: AtomicUsize,
    hls_hits: AtomicUsize,
    verilog_hits: AtomicUsize,
    regmap_hits: AtomicUsize,
}

/// A DSWP run plus the content hash of its partitioned module; the hash
/// keys the downstream schedule/Verilog caches without re-printing the
/// module on every lookup.
pub struct DswpArtifact {
    pub result: DswpResult,
    pub module_hash: u64,
}

enum GraphInput {
    /// mini-C source: the frontend and pass stages are live.
    Source { source: String, allow_recursion: bool },
    /// Seeded directly with a prepared module (e.g. from
    /// `twill_chstone::compile_and_prepare`): frontend/passes never run.
    Prepared,
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
    prepared_hash: OnceLock<u64>,
    dswp: Mutex<HashMap<u64, Arc<DswpArtifact>>>,
    schedules: Mutex<HashMap<u64, Arc<ModuleSchedule>>>,
    verilog: Mutex<HashMap<u64, Arc<String>>>,
    regmaps: Mutex<HashMap<u64, Arc<String>>>,
    counters: StageCounters,
    /// Wall-clock span per stage *execution* (cache hits record nothing),
    /// on the shared [`twill_obs::now_ns`] epoch.
    spans: Mutex<Vec<Span>>,
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
            prepared_hash: OnceLock::new(),
            dswp: Mutex::new(HashMap::new()),
            schedules: Mutex::new(HashMap::new()),
            verilog: Mutex::new(HashMap::new()),
            regmaps: Mutex::new(HashMap::new()),
            counters: StageCounters::default(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Time `f` as one execution of `stage` and remember the span.
    fn timed<T>(&self, stage: &str, f: impl FnOnce() -> T) -> T {
        let (value, span) = Span::record(stage, f);
        self.spans.lock().unwrap().push(span);
        value
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Snapshot of how many times each stage has run so far, plus how
    /// many demands its memoization caches have absorbed.
    pub fn counters(&self) -> StageCounts {
        StageCounts {
            frontend: self.counters.frontend.load(Ordering::Relaxed),
            passes: self.counters.passes.load(Ordering::Relaxed),
            dswp: self.counters.dswp.load(Ordering::Relaxed),
            hls: self.counters.hls.load(Ordering::Relaxed),
            verilog: self.counters.verilog.load(Ordering::Relaxed),
            regmap: self.counters.regmap.load(Ordering::Relaxed),
            dswp_hits: self.counters.dswp_hits.load(Ordering::Relaxed),
            hls_hits: self.counters.hls_hits.load(Ordering::Relaxed),
            verilog_hits: self.counters.verilog_hits.load(Ordering::Relaxed),
            regmap_hits: self.counters.regmap_hits.load(Ordering::Relaxed),
        }
    }

    /// Wall-clock spans of every stage execution so far, in completion
    /// order (feed to [`twill_obs::TraceBuilder::spans`] for the Perfetto
    /// compiler timeline).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
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
                self.counters.frontend.fetch_add(1, Ordering::Relaxed);
                self.timed("frontend", || {
                    twill_frontend::compile_with(&self.name, source, *allow_recursion)
                })
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
            self.counters.passes.fetch_add(1, Ordering::Relaxed);
            self.timed("passes", || {
                twill_passes::run_standard_pipeline(&mut m, &self.pipeline);
            });
            m
        })
    }

    /// Content hash of the prepared module (computed once).
    pub fn prepared_hash(&self) -> u64 {
        *self.prepared_hash.get_or_init(|| hash_module(self.prepared()))
    }

    /// DSWP-partition the prepared module under `opts`, memoized per
    /// distinct option set.
    pub fn dswp(&self, opts: &DswpOptions) -> Arc<DswpArtifact> {
        let key = {
            let mut h = Fnv::new();
            h.u64(self.prepared_hash());
            hash_dswp_opts(&mut h, opts);
            h.finish()
        };
        let mut cache = self.dswp.lock().unwrap();
        if let Some(hit) = cache.get(&key) {
            self.counters.dswp_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.counters.dswp.fetch_add(1, Ordering::Relaxed);
        let result = self.timed("dswp", || run_dswp(self.prepared(), opts));
        let module_hash = hash_module(&result.module);
        let art = Arc::new(DswpArtifact { result, module_hash });
        cache.insert(key, art.clone());
        art
    }

    /// HLS-schedule `module` under `hls`, memoized on
    /// (`module_hash`, option bits). The caller vouches that `module_hash`
    /// is [`hash_module`] of `module` — the two always travel together
    /// ([`BuildGraph::prepared_hash`], [`DswpArtifact::module_hash`]).
    pub fn schedule_for(
        &self,
        module: &Module,
        module_hash: u64,
        hls: &HlsOptions,
    ) -> Arc<ModuleSchedule> {
        let key = schedule_key(module_hash, hls);
        let mut cache = self.schedules.lock().unwrap();
        if let Some(hit) = cache.get(&key) {
            self.counters.hls_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.counters.hls.fetch_add(1, Ordering::Relaxed);
        let sched = Arc::new(self.timed("hls", || schedule_module(module, hls)));
        cache.insert(key, sched.clone());
        sched
    }

    /// Schedule of the whole prepared module as one hardware design (the
    /// LegUp pure-HW baseline). Lazy: never runs if the caller only
    /// simulates hybrid or pure-SW configurations.
    pub fn pure_schedule(&self, hls: &HlsOptions) -> Arc<ModuleSchedule> {
        let h = self.prepared_hash();
        self.schedule_for(self.prepared(), h, hls)
    }

    /// Verilog for `module` under `hls`, memoized like
    /// [`BuildGraph::schedule_for`] (and reusing its schedule).
    pub fn verilog_for(&self, module: &Module, module_hash: u64, hls: &HlsOptions) -> Arc<String> {
        self.verilog_for_opts(module, module_hash, hls, &twill_hls::EmitOptions::default())
    }

    /// [`BuildGraph::verilog_for`] with explicit emission switches
    /// (`--hw-counters`). Counters-on and counters-off artifacts memoize
    /// under distinct keys, so a sweep mixing both never serves the wrong
    /// text.
    pub fn verilog_for_opts(
        &self,
        module: &Module,
        module_hash: u64,
        hls: &HlsOptions,
        emit: &twill_hls::EmitOptions,
    ) -> Arc<String> {
        let key = {
            let mut h = Fnv::new();
            h.u64(schedule_key(module_hash, hls));
            h.bool(emit.hw_counters);
            h.u64(emit.threads.len() as u64);
            for t in &emit.threads {
                h.bytes(t.as_bytes());
                h.bytes(&[0xff]);
            }
            h.finish()
        };
        if let Some(hit) = self.verilog.lock().unwrap().get(&key) {
            self.counters.verilog_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        // Compute the schedule before re-taking the verilog lock so the
        // two caches are only ever locked one at a time.
        let sched = self.schedule_for(module, module_hash, hls);
        let mut cache = self.verilog.lock().unwrap();
        if let Some(hit) = cache.get(&key) {
            self.counters.verilog_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.counters.verilog.fetch_add(1, Ordering::Relaxed);
        let text = Arc::new(
            self.timed("verilog", || twill_hls::verilog::emit_module_with(module, &sched, emit)),
        );
        cache.insert(key, text.clone());
        text
    }

    /// The counter register-map JSON artifact for `module` instrumented
    /// with agent tracks `threads`, memoized per (module, track list).
    /// Emitted next to the Verilog by `twillc --emit-regmap`.
    pub fn regmap_for(&self, module: &Module, module_hash: u64, threads: &[String]) -> Arc<String> {
        let key = {
            let mut h = Fnv::new();
            h.u64(module_hash);
            h.u64(threads.len() as u64);
            for t in threads {
                h.bytes(t.as_bytes());
                h.bytes(&[0xff]);
            }
            h.finish()
        };
        let mut cache = self.regmaps.lock().unwrap();
        if let Some(hit) = cache.get(&key) {
            self.counters.regmap_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.counters.regmap.fetch_add(1, Ordering::Relaxed);
        let opts = twill_hls::EmitOptions { hw_counters: true, threads: threads.to_vec() };
        let json = Arc::new(self.timed("regmap", || opts.regmap(module).to_json()));
        cache.insert(key, json.clone());
        json
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
        let s1 = g.schedule_for(&a.result.module, a.module_hash, &hls);
        let s2 = g.schedule_for(&a.result.module, a.module_hash, &hls);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(g.counters().hls, 1);
        let _ = g.pure_schedule(&hls);
        assert_eq!(g.counters().hls, 2, "pure-HW schedule is a distinct module");
    }

    #[test]
    fn verilog_memoized_and_reuses_schedule() {
        let g = graph();
        let hls = HlsOptions::default();
        let v1 = g.verilog_for(g.prepared(), g.prepared_hash(), &hls);
        let v2 = g.verilog_for(g.prepared(), g.prepared_hash(), &hls);
        assert!(Arc::ptr_eq(&v1, &v2));
        assert_eq!(g.counters().verilog, 1);
        assert_eq!(g.counters().hls, 1);
    }

    #[test]
    fn counter_emission_memoizes_separately_from_plain_verilog() {
        let g = graph();
        let hls = HlsOptions::default();
        let plain = g.verilog_for(g.prepared(), g.prepared_hash(), &hls);
        let opts = twill_hls::EmitOptions { hw_counters: true, threads: vec!["cpu".into()] };
        let counted = g.verilog_for_opts(g.prepared(), g.prepared_hash(), &hls, &opts);
        assert_ne!(*plain, *counted, "instrumented text must differ");
        assert!(counted.contains("module twill_perf ("));
        assert_eq!(g.counters().verilog, 2, "two distinct emissions");
        // Each key hits its own cache entry; the schedule is shared.
        let again = g.verilog_for_opts(g.prepared(), g.prepared_hash(), &hls, &opts);
        assert!(Arc::ptr_eq(&counted, &again));
        assert_eq!(g.counters().hls, 1);

        let r1 = g.regmap_for(g.prepared(), g.prepared_hash(), &["cpu".to_string()]);
        let r2 = g.regmap_for(g.prepared(), g.prepared_hash(), &["cpu".to_string()]);
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
    fn module_hash_is_content_based() {
        let g1 = graph();
        let g2 = graph();
        assert_eq!(g1.prepared_hash(), g2.prepared_hash());
        let other = BuildGraph::from_source(
            "t",
            "int main() { out(1); return 0; }",
            false,
            Default::default(),
        );
        assert_ne!(g1.prepared_hash(), other.prepared_hash());
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
