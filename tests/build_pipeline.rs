//! The staged artifact pipeline: laziness, memoization, cold-vs-warm
//! equivalence, and a compile path that never panics.
//!
//! These tests pin down the contract of `twill::artifacts::BuildGraph`:
//! * a Fig 6.5-style sweep runs frontend/passes/DSWP/HLS exactly once,
//! * the pure-HW (LegUp) schedule is never computed unless demanded,
//! * a warm build off a shared graph produces bit-identical results to a
//!   cold from-scratch compile while doing zero new stage work,
//! * mangled CHStone sources either fail with a typed error or compile
//!   all the way to Verilog, never panicking.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twill::artifacts::BuildGraph;
use twill::Compiler;

/// A program with enough structure to produce queues and HW threads.
const SRC: &str = r#"
int mix(int x, int y) {
  int a = x;
  for (int j = 0; j < 10; j++) {
    a = a + ((y ^ j) * 7 % 129);
  }
  return a;
}
int main() {
  int acc = 1;
  for (int i = 0; i < 24; i++) {
    acc = acc + mix(acc, i) % 1009;
  }
  out(acc);
  return 0;
}
"#;

#[test]
fn fig_6_5_style_sweep_compiles_each_stage_once() {
    let b = Compiler::new().partitions(2).compile("sweep", SRC).unwrap();
    let g = b.graph().clone();
    // compile() only forces the frontend (to surface errors eagerly).
    let c = g.counters();
    assert_eq!((c.frontend, c.passes, c.dswp, c.hls), (1, 0, 0, 0));

    // Pure-SW simulation needs the prepared module only.
    let sw = b.simulate_pure_sw(vec![]).unwrap();
    let c = g.counters();
    assert_eq!((c.passes, c.dswp, c.hls), (1, 0, 0));

    // The Fig 6.5 sweep: seven queue-latency points over one build. Only
    // the simulation varies — every compile stage must be reused.
    for lat in [2u32, 4, 8, 16, 32, 64, 128] {
        let cfg = twill::SimulationConfig { queue_latency: lat, ..b.sim_config() };
        let rep = b.simulate_hybrid_with(vec![], &cfg).unwrap();
        assert_eq!(rep.output, sw.output, "latency {lat} diverged");
    }
    let c = g.counters();
    assert_eq!(
        (c.frontend, c.passes, c.dswp, c.hls),
        (1, 1, 1, 1),
        "sweep must run each upstream stage exactly once: {c:?}"
    );

    // The pure-HW (LegUp) schedule was never demanded, so it never ran —
    // the old eager build computed it even for hybrid-only callers.
    let _ = b.simulate_pure_hw(vec![]).unwrap();
    assert_eq!(g.counters().hls, 2, "pure-HW schedule runs only once demanded");
}

#[test]
fn chstone_cold_and_warm_builds_identical() {
    let bench = chstone::by_name("mips").unwrap();
    let inp = chstone::input_for(bench.name, 1);

    // Cold: compile from scratch, no shared graph.
    let cold = Compiler::new()
        .partitions(bench.partitions)
        .build_from_module(chstone::compile_and_prepare(&bench));
    let cold_rep = cold.simulate_hybrid(inp.clone()).unwrap();
    let cold_stats = format!("{:?}", cold.stats());
    let cold_verilog = cold.verilog();

    // Warm: a second build on a graph whose artifacts a first build
    // already forced.
    let graph =
        Arc::new(BuildGraph::from_prepared(bench.name, chstone::compile_and_prepare(&bench)));
    let first = Compiler::new().partitions(bench.partitions).build_on(&graph);
    let _ = first.simulate_hybrid(inp.clone()).unwrap();
    let _ = first.verilog();
    let after_first = graph.counters();

    let warm = Compiler::new().partitions(bench.partitions).build_on(&graph);
    let warm_rep = warm.simulate_hybrid(inp).unwrap();
    let warm_verilog = warm.verilog();
    let after_warm = graph.counters();
    assert_eq!(
        after_warm.runs(),
        after_first.runs(),
        "the warm build must be served entirely from the artifact cache: {after_warm:?}"
    );
    assert!(
        after_warm.hits() > after_first.hits(),
        "warm demands must register as cache hits: {after_warm:?} vs {after_first:?}"
    );
    assert_eq!(warm_rep.cycles, cold_rep.cycles);
    assert_eq!(warm_rep.output, cold_rep.output);
    assert_eq!(format!("{:?}", warm.stats()), cold_stats);
    assert_eq!(*warm_verilog, *cold_verilog);
}

/// Bytes a mangling edit may write: C punctuation, digits and identifier
/// letters, so most edits still lex and reach later compiler stages.
const EDIT_BYTES: &[u8] = b" %:@(){};,0123456789-xi";

/// A CHStone source with 1–3 random edits, each one a truncation, a
/// deleted byte or a replaced byte. Returns the benchmark name, the edits
/// (for the failure message) and the mangled source.
fn mangle(seed: u64) -> (&'static str, Vec<String>, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let benches = chstone::all();
    let bench = &benches[rng.gen_range(0..benches.len())];
    let mut src = bench.source.as_bytes().to_vec();
    let mut edits = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        if src.is_empty() {
            break;
        }
        let at = rng.gen_range(0..src.len());
        match rng.gen_range(0..3u32) {
            0 => {
                src.truncate(at);
                edits.push(format!("truncate at {at}"));
            }
            1 => {
                src.remove(at);
                edits.push(format!("delete byte {at}"));
            }
            _ => {
                let b = EDIT_BYTES[rng.gen_range(0..EDIT_BYTES.len())];
                src[at] = b;
                edits.push(format!("byte {at} := {:?}", b as char));
            }
        }
    }
    (bench.name, edits, String::from_utf8_lossy(&src).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The whole compile path never panics on mangled input: `compile`
    /// either fails with a typed `CError` or yields a build whose hybrid
    /// and pure-HW Verilog both emit.
    #[test]
    fn mangled_chstone_sources_never_panic(seed in 0u64..(1u64 << 48)) {
        let (name, edits, src) = mangle(seed);
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(build) = Compiler::new().compile(name, &src) {
                build.verilog();
                build.verilog_pure_hw();
            }
        });
        prop_assert!(outcome.is_ok(), "{} with edits {:?} panicked", name, edits);
    }
}
