//! Differential test: every CHStone benchmark, partitioned by DSWP at its
//! Table 6.1 thread count, must produce byte-identical output to the
//! single-threaded reference when simulated as a hybrid.

use chstone::{all, compile_and_prepare, input_for};
use twill_dswp::{run_dswp, DswpOptions};
use twill_rt::SimConfig;

fn check_benchmark(b: &chstone::Benchmark, opts: &DswpOptions) -> twill_dswp::extract::DswpStats {
    let m = compile_and_prepare(b);
    let input = input_for(b.name, 1);
    let (ref_out, _, _) = twill_ir::interp::run_main(&m, input.clone(), 2_000_000_000)
        .unwrap_or_else(|e| panic!("{} reference: {e}", b.name));

    let r = run_dswp(&m, opts);
    twill_ir::verifier::assert_valid(&r.module);
    for f in &r.module.funcs {
        let errs = twill_passes::utils::verify_dominance(f);
        assert!(errs.is_empty(), "{} @{}: {errs:?}", b.name, f.name);
    }
    let rep = twill_rt::simulate_hybrid(&r, input, &SimConfig::default())
        .unwrap_or_else(|e| panic!("{} partitioned: {e}", b.name));
    assert_eq!(ref_out, rep.output, "{}: partitioned output differs", b.name);
    r.stats
}

#[test]
fn all_benchmarks_partitioned_match_reference() {
    for b in all() {
        let opts = DswpOptions { num_partitions: b.partitions, ..Default::default() };
        let stats = check_benchmark(&b, &opts);
        println!(
            "{:10} partitions={} queues={} (data {}, token {}) hw_threads={}",
            b.name,
            b.partitions,
            stats.queues,
            stats.data_queues,
            stats.token_queues,
            stats.hw_threads
        );
        assert!(stats.queues > 0 || b.partitions == 1, "{}: no communication", b.name);
    }
}

#[test]
fn two_partitions_always_work() {
    for b in all() {
        check_benchmark(&b, &DswpOptions { num_partitions: 2, ..Default::default() });
    }
}

#[test]
fn pruning_off_matches_too() {
    for b in [chstone::SHA, chstone::AES, chstone::GSM] {
        check_benchmark(&b, &DswpOptions { num_partitions: 3, prune: false, ..Default::default() });
    }
}

#[test]
fn split_point_sweep_preserves_semantics() {
    // The Fig 6.3/6.4 sweep must be semantics-preserving at every point.
    for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
        check_benchmark(
            &chstone::MIPS,
            &DswpOptions {
                num_partitions: 2,
                split_points: Some(vec![frac, 1.0 - frac]),
                ..Default::default()
            },
        );
    }
}
