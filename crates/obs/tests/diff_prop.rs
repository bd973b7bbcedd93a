//! Property tests for the diff engine's algebra (ISSUE 3): over pairs of
//! accounting-consistent metric reports with a shared structure,
//!
//! * `diff(a, a)` is all-zero,
//! * the ranked class attribution sums to the total cycle delta,
//! * `diff(a, b)` is the exact negation of `diff(b, a)`.
//!
//! "Accounting-consistent" mirrors the invariant the simulator asserts in
//! debug builds: every thread's seven cycle classes sum to the run's
//! cycle count.

use proptest::collection::vec;
use proptest::prelude::*;
use twill_obs::diff::diff;
use twill_obs::{ClassCycles, FaultMetrics, QueueMetrics, SimMetrics, ThreadMetrics};

/// Split `total` into 7 parts via 6 sorted cut points.
fn split7(total: u64, mut cuts: Vec<u64>) -> [u64; 7] {
    cuts.sort_unstable();
    let mut parts = [0u64; 7];
    let mut prev = 0;
    for (i, &c) in cuts.iter().enumerate() {
        parts[i] = c - prev;
        prev = c;
    }
    parts[6] = total - prev;
    parts
}

fn thread(i: usize, classes: [u64; 7]) -> ThreadMetrics {
    ThreadMetrics {
        name: if i == 0 { "cpu".into() } else { format!("hw{i}") },
        cycles: ClassCycles::from_fn(|c| classes[c.index()]),
    }
}

/// Build one consistent run from a cycle count, per-thread cut points,
/// and per-queue raw stats.
fn run(cycles: u64, thread_cuts: Vec<Vec<u64>>, queue_stats: Vec<(u64, u64, u64)>) -> SimMetrics {
    SimMetrics {
        cycles,
        threads: thread_cuts
            .into_iter()
            .enumerate()
            .map(|(i, cuts)| thread(i, split7(cycles, cuts)))
            .collect(),
        queues: queue_stats
            .into_iter()
            .enumerate()
            .map(|(i, (pushes, full, empty))| QueueMetrics {
                name: format!("q{i}"),
                depth: 8,
                pushes,
                pops: pushes,
                high_water: (pushes % 9) as u32,
                full_stalls: full,
                empty_stalls: empty,
                occupancy_hist: vec![pushes, full, empty],
            })
            .collect(),
        dropped_events: 0,
        faults: FaultMetrics::default(),
    }
}

/// A pair of consistent runs over the same thread/queue structure.
fn run_pair() -> impl Strategy<Value = (SimMetrics, SimMetrics)> {
    (100u64..50_000, 100u64..50_000, 1usize..5, 0usize..4).prop_flat_map(
        |(ca, cb, nthreads, nqueues)| {
            (
                Just((ca, cb)),
                vec(vec(0u64..=ca, 6), nthreads),
                vec(vec(0u64..=cb, 6), nthreads),
                vec((0u64..10_000, 0u64..10_000, 0u64..10_000), nqueues),
                vec((0u64..10_000, 0u64..10_000, 0u64..10_000), nqueues),
            )
                .prop_map(|((ca, cb), ta, tb, qa, qb)| (run(ca, ta, qa), run(cb, tb, qb)))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn diff_with_self_is_all_zero((a, _b) in run_pair()) {
        let d = diff(&a, &a);
        prop_assert!(d.is_zero(), "{d:?}");
        prop_assert_eq!(d.cycle_delta, 0);
        prop_assert!(d.attribution.iter().all(|c| c.delta == 0));
        prop_assert!(d.queues.is_empty());
    }

    #[test]
    fn attribution_sums_to_total_cycle_delta((a, b) in run_pair()) {
        let d = diff(&a, &b);
        prop_assert_eq!(d.cycle_delta, b.cycles as i64 - a.cycles as i64);
        let attributed: i64 = d.attribution.iter().map(|c| c.delta).sum();
        prop_assert_eq!(attributed, d.cycle_delta, "{:?}", d);
        // Accounting consistency means *every* matched thread's class
        // deltas decompose the same total, not just the critical one.
        for t in &d.threads {
            prop_assert_eq!(t.deltas.iter().sum::<i64>(), d.cycle_delta, "{:?}", t);
        }
    }

    #[test]
    fn diff_negates_under_argument_swap((a, b) in run_pair()) {
        let fwd = diff(&a, &b);
        let rev = diff(&b, &a);
        prop_assert_eq!(fwd.cycle_delta, -rev.cycle_delta);
        prop_assert_eq!(fwd.structural, rev.structural);
        prop_assert_eq!(&fwd.attribution_thread, &rev.attribution_thread);
        prop_assert_eq!(fwd.attribution.len(), rev.attribution.len());
        for (x, y) in fwd.attribution.iter().zip(&rev.attribution) {
            prop_assert_eq!(x.class, y.class);
            prop_assert_eq!(x.delta, -y.delta);
        }
        prop_assert_eq!(fwd.queues.len(), rev.queues.len());
        for (x, y) in fwd.queues.iter().zip(&rev.queues) {
            prop_assert_eq!(&x.name, &y.name);
            prop_assert_eq!(x.full_stalls, -y.full_stalls);
            prop_assert_eq!(x.empty_stalls, -y.empty_stalls);
            prop_assert_eq!(x.high_water, -y.high_water);
            prop_assert_eq!(x.pushes, -y.pushes);
            prop_assert_eq!(x.pops, -y.pops);
        }
    }

    #[test]
    fn rendered_explanations_never_panic_and_json_parses((a, b) in run_pair()) {
        let d = diff(&a, &b);
        let text = d.render_text("prop");
        prop_assert!(text.contains("cycles"));
        let doc = twill_obs::json::parse(&d.to_json("prop")).expect("diff JSON parses");
        prop_assert_eq!(doc.get("cycle_delta").unwrap().as_f64(), Some(d.cycle_delta as f64));
    }
}
