//! Sampled-timeline regression tests: a golden CHStone snapshot pinning
//! the exact per-interval JSON in both loop modes, plus a proptest that
//! the per-interval deltas always sum — exactly, class by class and
//! queue by queue — to the end-of-run totals.
//!
//! Regenerate the golden file after an intentional timing or schema
//! change with:
//!
//! ```sh
//! TWILL_UPDATE_GOLDEN=1 cargo test -p twill-rt --test timeline
//! ```
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use twill_dswp::{run_dswp, DswpOptions, DswpResult};
use twill_rt::obs::json;
use twill_rt::obs::{FromJson, ToJson};
use twill_rt::{simulate_hybrid, SimConfig};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/adpcm_timeline.json")
}

/// The committed adpcm timeline must reproduce byte-for-byte — from the
/// fast-forward loop *and* the naive loop. Byte equality of the JSON is
/// the contract CI artifacts and `--timeline-out` files rely on.
#[test]
fn adpcm_timeline_matches_golden_in_both_loop_modes() {
    let b = chstone::by_name("adpcm").unwrap();
    let m = chstone::compile_and_prepare(&b);
    let d = run_dswp(&m, &DswpOptions { num_partitions: b.partitions, ..Default::default() });
    let input = chstone::input_for(b.name, 1);

    // Both loop modes are pinned explicitly so the test means the same
    // thing under `TWILL_NO_FAST_FORWARD=1` in CI.
    let cfg = SimConfig { sample_interval: Some(256), fast_forward: true, ..Default::default() };
    let ff = simulate_hybrid(&d, input.clone(), &cfg).unwrap();
    let ff_json = ff.timeline.as_ref().expect("sampled run carries a timeline").to_json();

    let path = golden_path();
    if std::env::var_os("TWILL_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &ff_json).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with TWILL_UPDATE_GOLDEN=1 to create it");
    assert_eq!(ff_json, golden, "adpcm timeline drifted from tests/data/adpcm_timeline.json");

    let naive = SimConfig { fast_forward: false, ..cfg };
    let nv = simulate_hybrid(&d, input, &naive).unwrap();
    let nv_json = nv.timeline.as_ref().expect("naive run carries a timeline").to_json();
    assert_eq!(nv_json, golden, "naive-loop timeline diverged from the golden snapshot");

    // The committed bytes must parse back to the very timeline that
    // produced them — the round-trip `--compare` depends on.
    let doc = json::parse(&golden).expect("golden timeline is valid JSON");
    let parsed = twill_rt::obs::Timeline::from_json(&doc).expect("golden timeline parses");
    assert_eq!(&parsed, ff.timeline.as_ref().unwrap(), "round-trip lost information");
}

/// Uneven two-stage pipeline: enough queue stalls that intervals carry
/// every cycle class, small enough that proptest cases stay fast.
const PROGRAM: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 40; i++) {
    int x = (i * 7 + 3) ^ (i << 2);
    for (int j = 0; j < 5; j++) x = (x * 5 + j) % 199;
    acc += x;
  }
  out(acc);
  return 0;
}
"#;

fn testbed() -> &'static DswpResult {
    static TESTBED: OnceLock<DswpResult> = OnceLock::new();
    TESTBED.get_or_init(|| {
        let mut m = twill_frontend::compile("t", PROGRAM).unwrap();
        twill_passes::run_standard_pipeline(&mut m, &Default::default());
        run_dswp(
            &m,
            &DswpOptions {
                num_partitions: 2,
                split_points: Some(vec![0.5, 0.5]),
                ..Default::default()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any sample interval, queue shape, and loop mode: the intervals
    /// tile `[1, cycles]` with no gaps, and summing the per-interval
    /// deltas reproduces the end-of-run totals exactly — all seven cycle
    /// classes per thread, all four counters per queue.
    #[test]
    fn interval_deltas_sum_exactly_to_run_totals(
        interval in prop_oneof![Just(1u64), Just(3), Just(64), Just(257), Just(100_000)],
        queue_latency in prop_oneof![Just(2u32), Just(64)],
        queue_depth in prop_oneof![Just(None), Just(Some(2u32))],
        fast_forward in any::<bool>(),
    ) {
        let cfg = SimConfig {
            sample_interval: Some(interval),
            queue_latency,
            queue_depth,
            fast_forward,
            ..Default::default()
        };
        let rep = simulate_hybrid(testbed(), vec![], &cfg).unwrap();
        let t = rep.timeline.as_ref().expect("sampled run carries a timeline");

        prop_assert_eq!(t.sample_interval, interval);
        prop_assert_eq!(t.total_cycles(), rep.cycles);
        let mut expect_start = 1;
        for iv in &t.intervals {
            prop_assert_eq!(iv.start, expect_start);
            prop_assert!(iv.end >= iv.start);
            prop_assert!(iv.end - iv.start < interval, "interval wider than the sample window");
            expect_start = iv.end + 1;
        }

        let thread_totals = t.thread_totals();
        prop_assert_eq!(thread_totals.len(), rep.stats.agent_cycles.len());
        for (tot, cc) in thread_totals.iter().zip(&rep.stats.agent_cycles) {
            prop_assert_eq!(tot.total(), rep.cycles, "classes must tile every interval");
            let expect = [
                cc.busy, cc.queue_full, cc.queue_empty, cc.sem,
                cc.mem_bus, cc.module_bus, cc.idle,
            ];
            prop_assert_eq!(tot.as_array(), expect);
        }

        let queue_totals = t.queue_totals();
        prop_assert_eq!(queue_totals.len(), rep.stats.queue_stats.len());
        for (tot, q) in queue_totals.iter().zip(&rep.stats.queue_stats) {
            prop_assert_eq!(tot.pushes, q.pushes);
            prop_assert_eq!(tot.pops, q.pops);
            prop_assert_eq!(tot.full_stalls, q.full_stalls);
            prop_assert_eq!(tot.empty_stalls, q.empty_stalls);
        }
    }
}
