//! The seed may only reorder ops and draw explore configurations: two seeds
//! give the same op multiset and identical exact metrics. The run-level
//! check does real compiles and simulations; run it with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;

use twill_perfbench::ops::{OpStream, Workload, COMPILE_MIX, SIMULATE_MIX};
use twill_perfbench::run;

fn kinds(workload: Workload, seed: u64, rounds: usize) -> (Vec<String>, BTreeMap<String, usize>) {
    let mut stream = OpStream::new(workload, seed);
    let order: Vec<String> = (0..rounds).flat_map(|_| stream.round()).map(|op| op.kind()).collect();
    let mut multiset = BTreeMap::new();
    for k in &order {
        *multiset.entry(k.clone()).or_default() += 1;
    }
    (order, multiset)
}

#[test]
fn seeds_permute_the_same_op_multiset() {
    for w in Workload::ALL {
        let (order_a, set_a) = kinds(w, 1, 3);
        let (order_b, set_b) = kinds(w, 2, 3);
        assert_eq!(set_a, set_b, "{w:?}: op mix depends on the seed");
        assert_ne!(order_a, order_b, "{w:?}: the seed should reorder the ops");
        // Every round holds the same multiset, so any whole number of
        // rounds keeps the mix.
        let (_, one) = kinds(w, 3, 1);
        assert!(set_a.iter().all(|(k, &n)| n == 3 * one[k]), "{w:?}");
    }
}

#[test]
fn same_seed_same_ops() {
    for w in Workload::ALL {
        let mut a = OpStream::new(w, 9);
        let mut b = OpStream::new(w, 9);
        assert_eq!(a.round(), b.round());
    }
}

/// Each percentile must fall inside a cost band, off its edges: in
/// `compile` p50 lies half-way into the blowfish/motion/gsm band and p90
/// 15% into the AES band; in `simulate` p50 and p90 lie high in the lower
/// and the upper band, and motion, the one slow op, stays above p90.
#[test]
fn percentiles_sit_inside_their_bands() {
    let total: usize = COMPILE_MIX.iter().map(|&(_, k)| k).sum();
    let count = |names: &[&str]| -> usize {
        COMPILE_MIX.iter().filter(|(n, _)| names.contains(n)).map(|&(_, k)| k).sum()
    };
    let (below, band) = (count(&["sha", "adpcm", "mips"]), count(&["blowfish", "motion", "gsm"]));
    let into_band = (0.5 * total as f64 - below as f64) / band as f64;
    assert!((0.2..0.8).contains(&into_band), "compile p50 {into_band}");
    let aes = count(&["aes"]);
    let into_band = (0.9 * total as f64 - (total - aes) as f64) / aes as f64;
    assert!((0.1..0.3).contains(&into_band), "compile p90 {into_band}");

    let total: usize = SIMULATE_MIX.iter().map(|&(_, k, _)| k).sum();
    let count = |names: &[&str]| -> usize {
        SIMULATE_MIX.iter().filter(|(n, ..)| names.contains(n)).map(|&(_, k, _)| k).sum()
    };
    let (low, motion) = (count(&["mips", "adpcm", "sha"]), count(&["motion"]));
    let upper = total - low - motion;
    let into_band = 0.5 * total as f64 / low as f64;
    assert!((0.8..0.95).contains(&into_band), "simulate p50 {into_band}");
    let into_band = (0.9 * total as f64 - low as f64) / upper as f64;
    assert!((0.8..0.95).contains(&into_band), "simulate p90 {into_band}");
    assert!(motion as f64 / (total as f64) < 0.1 - 0.03);
}

#[test]
fn two_seeds_same_exact_metrics() {
    let a = run::run(Workload::Explore, 1, 0.0, 0, false).expect("seed 1 runs");
    let b = run::run(Workload::Explore, 2, 0.0, 0, false).expect("seed 2 runs");
    assert_eq!((a.failed, b.failed), (0, 0), "{:?} {:?}", a.errors, b.errors);
    assert_eq!(a.exact, b.exact);
    assert!(a.exact.outputs_ok);
    assert_eq!(a.exact.twill_luts_total, 54744);
    assert_eq!(format!("{:.2}", a.exact.hybrid_speedup_geomean), "6.86");
    let mut ka: Vec<String> = a.ops.iter().map(|(op, _)| op.kind()).collect();
    let mut kb: Vec<String> = b.ops.iter().map(|(op, _)| op.kind()).collect();
    assert_ne!(ka, kb);
    ka.sort();
    kb.sort();
    assert_eq!(ka, kb);
}
