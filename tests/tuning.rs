//! End-to-end tests of the profile-guided auto-tuner (`twill::tune`,
//! DESIGN.md §13) and the per-queue depth plumbing it actuates.
//!
//! The determinism contract (same program + input + seed ⇒ byte-identical
//! report and search trace) and the strictly-improving acceptance rule
//! (tuned cycles ≤ paper-default cycles, in *both* simulator loop modes)
//! are the load-bearing guarantees here.

use proptest::prelude::*;
use twill::{tune, Compiler, TuneOptions};
use twill_obs::ToJson;

/// A pipeline-shaped program with enough work to give the tuner real
/// signals (saturated queues / starved threads), but small enough that a
/// whole search runs in well under a second.
const PIPELINE: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 200; i++) {
    int x = (i * 7 + 3) ^ (i << 2);
    int y = (x % 13) * (x % 7) + (x >> 1);
    acc += (y % 11) * (y % 11) - (x & 15);
  }
  out(acc);
  return 0;
}
"#;

/// A reduction over a memory-carried array: different shape, also cheap.
const MEMORY: &str = r#"
int buf[64];
int main() {
  for (int i = 0; i < 64; i++) buf[i] = (i * 17) ^ (i << 4);
  int s = 0;
  for (int i = 0; i < 64; i++) s += buf[i] % 23;
  out(s);
  return 0;
}
"#;

/// A helper too large for the generic inliner but inlined by the HLS
/// flow's thresholds, so the prepared module shows which pipeline ran.
const CALLS: &str = r#"
int mix(int a, int b) {
  int x = a ^ (b << 3);
  x = x * 31 + (x >> 5);
  x = x ^ (x << 7);
  x = x + (b * 17) - (a >> 2);
  x = (x & 65535) * 13 + (x >> 16);
  x = x ^ (x >> 11);
  x = x * 7 + (a & 255);
  x = x - (b ^ 1234);
  x = (x << 2) ^ (x >> 3);
  x = x + (a * b) % 97;
  x = x ^ (x >> 9);
  x = x * 5 + 3;
  x = x + (x >> 4) * 11;
  x = x ^ (a << 5) ^ (b >> 1);
  x = (x & 4095) * 19 + (x >> 12);
  x = x - (x << 3) + (a | b);
  x = x ^ (x * 29 + 7);
  x = (x >> 2) + (x & 1023) * 3;
  return x;
}
int main() {
  int acc = 1;
  for (int i = 0; i < 100; i++) {
    acc = mix(acc, i) + mix(i, acc >> 2);
  }
  out(acc);
  return 0;
}
"#;

fn opts(seed: u64) -> TuneOptions {
    TuneOptions { seed, max_rounds: 3, bench: "t".into() }
}

#[test]
fn tuned_config_never_slower_in_either_loop_mode() {
    let b = Compiler::new().partitions(3).compile("t", PIPELINE).unwrap();
    let golden = b.run_reference(vec![]).unwrap();
    for seed in [0, 1, 42] {
        let cfg = b.sim_config();
        let out = tune(&b, &[], &cfg, &opts(seed)).unwrap();
        let r = &out.report;
        assert!(r.tuned_cycles <= r.baseline_cycles, "seed {seed}: tuner regressed");

        // Replay the accepted configuration under both simulator loops:
        // the fast-forward and naive cores are observably identical by
        // contract, so the tuned config must hold its cycle count — and
        // its win — in each, and keep the program's output intact.
        let tuned_build = out.compiler.build_on(b.graph());
        for fast_forward in [true, false] {
            let mut replay_cfg = out.cfg.clone();
            replay_cfg.fast_forward = fast_forward;
            let repartitioned = r.tuned.sw_fraction.is_some() || r.tuned.partitions.is_some();
            let rep = if repartitioned {
                tuned_build.simulate_hybrid_with(vec![], &replay_cfg)
            } else {
                b.simulate_hybrid_with(vec![], &replay_cfg)
            }
            .unwrap();
            assert_eq!(rep.cycles, r.tuned_cycles, "seed {seed} ff={fast_forward}");
            assert!(rep.cycles <= r.baseline_cycles, "seed {seed} ff={fast_forward}");
            assert_eq!(rep.output, golden, "seed {seed} ff={fast_forward}");
        }
    }
}

#[test]
fn tuned_compiler_rebuilds_the_tuned_build_from_source() {
    // The from-scratch replay keeps the tuned build's preparation pipeline:
    // compiling the source again gives the same prepared module and, with
    // the accepted depths declared, reproduces the tuned cycle count.
    let b = Compiler::new().partitions(3).compile("t", CALLS).unwrap();
    let print = twill_ir::printer::print_module;
    for seed in [0, 1, 42] {
        let out = tune(&b, &[], &b.sim_config(), &opts(seed)).unwrap();
        let fresh = out.compiler.compile("t", CALLS).unwrap();
        let tuned = out.compiler.build_on(b.graph());
        assert_eq!(print(fresh.prepared()), print(tuned.prepared()), "seed {seed}");
        let rep = fresh.simulate_hybrid(vec![]).unwrap();
        assert_eq!(rep.cycles, out.report.tuned_cycles, "seed {seed}");
    }
}

#[test]
fn tuning_report_is_identical_across_loop_modes() {
    // The loop mode is a simulator implementation detail; the tuner only
    // sees cycles and metrics, which are identical by contract. So the
    // whole search — every trial, every acceptance — must replay
    // byte-for-byte when the naive loop does the evaluating.
    let b = Compiler::new().partitions(3).compile("t", PIPELINE).unwrap();
    let fast = tune(&b, &[], &b.sim_config(), &opts(9)).unwrap().report;
    let mut slow_cfg = b.sim_config();
    slow_cfg.fast_forward = false;
    let slow = tune(&b, &[], &slow_cfg, &opts(9)).unwrap().report;
    assert_eq!(fast.to_json(), slow.to_json());
    assert_eq!(fast.search_trace(), slow.search_trace());
}

#[test]
fn report_invariants_hold() {
    let b = Compiler::new().partitions(3).compile("t", PIPELINE).unwrap();
    let r = tune(&b, &[], &b.sim_config(), &opts(2)).unwrap().report;

    // Trial 0 is the baseline; ids are the evaluation order.
    assert_eq!(r.trials[0].arm, "baseline");
    assert_eq!(r.trials[0].cycles, r.baseline_cycles);
    for (i, t) in r.trials.iter().enumerate() {
        assert_eq!(t.id, i);
    }
    // Every accepted move strictly improved on the incumbent and names
    // the observability signal that proposed it.
    let accepted: Vec<_> = r.trials.iter().filter(|t| t.accepted && t.arm != "baseline").collect();
    for t in &accepted {
        assert!(t.cycles < t.best_before, "{t:?}");
        assert_ne!(t.signal.kind, "baseline");
        assert!(!t.signal.detail.is_empty());
    }
    // One hint per accepted move, and the diff proof reconciles exactly.
    assert_eq!(r.hints.len(), accepted.len());
    let total: i64 = r.diff.attribution.iter().map(|c| c.delta).sum();
    assert_eq!(total, r.tuned_cycles as i64 - r.baseline_cycles as i64);

    // The search trace is valid JSON with one slice per trial.
    let doc = twill_obs::json::parse(&r.search_trace()).expect("trace parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let slices = events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("X")).count();
    assert_eq!(slices, r.trials.len());
}

#[test]
fn declared_queue_depth_overrides_reach_module_and_area() {
    let base =
        Compiler::new().partitions(2).split_points(vec![0.5, 0.5]).compile("t", PIPELINE).unwrap();
    assert!(!base.dswp().module.queues.is_empty(), "test needs a queue");
    let tuned = Compiler::new()
        .partitions(2)
        .split_points(vec![0.5, 0.5])
        .queue_depths(vec![(0, 32)])
        .compile("t", PIPELINE)
        .unwrap();
    assert_eq!(tuned.dswp().module.queues[0].depth, 32);
    // Only queue 0 changed; the others keep the paper default.
    for (a, b) in base.dswp().module.queues.iter().zip(&tuned.dswp().module.queues).skip(1) {
        assert_eq!(a.depth, b.depth);
    }
    // Deeper declared FIFOs cost BRAM/LUTs: the area model must see them.
    assert!(
        tuned.area().twill_total.luts >= base.area().twill_total.luts,
        "area model ignored the declared depth override"
    );
}

#[test]
fn simulator_queue_depth_overrides_cap_occupancy_and_validate() {
    let b =
        Compiler::new().partitions(2).split_points(vec![0.5, 0.5]).compile("t", PIPELINE).unwrap();
    let n_queues = b.dswp().module.queues.len();
    assert!(n_queues >= 1);

    let mut cfg = b.sim_config();
    cfg.queue_depths = vec![(0, 2)];
    let rep = b.simulate_hybrid_with(vec![], &cfg).unwrap();
    assert!(rep.stats.queue_peak[0] <= 2, "{:?}", rep.stats.queue_peak);
    assert_eq!(rep.output, b.run_reference(vec![]).unwrap());

    // Naming a queue the module doesn't declare is a config error, not a
    // silent no-op.
    let mut bad = b.sim_config();
    bad.queue_depths = vec![(n_queues, 8)];
    let err = b.simulate_hybrid_with(vec![], &bad).unwrap_err();
    assert!(err.to_string().contains("queue_depths"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Determinism contract: same profile + seed ⇒ byte-identical report
    /// and search trace, for arbitrary seeds and either test program.
    #[test]
    fn same_seed_same_bytes(seed in any::<u64>(), mem in any::<bool>()) {
        let src = if mem { MEMORY } else { PIPELINE };
        let b = Compiler::new().partitions(3).compile("t", src).unwrap();
        let cfg = b.sim_config();
        let a = tune(&b, &[], &cfg, &opts(seed)).unwrap().report;
        let c = tune(&b, &[], &cfg, &opts(seed)).unwrap().report;
        prop_assert_eq!(a.to_json(), c.to_json());
        prop_assert_eq!(a.search_trace(), c.search_trace());
    }

    /// Monotonicity: for any seed the accepted configuration never has
    /// more cycles than the paper default.
    #[test]
    fn any_seed_never_regresses(seed in any::<u64>()) {
        let b = Compiler::new().partitions(3).compile("t", PIPELINE).unwrap();
        let r = tune(&b, &[], &b.sim_config(), &opts(seed)).unwrap().report;
        prop_assert!(r.tuned_cycles <= r.baseline_cycles);
    }
}
