//! Golden cycle-count regression for the observability layer: with tracing
//! disabled (the default `SimConfig`), adding the metrics counters and
//! event hooks must not change simulated timing by even one cycle. The
//! expected numbers live in the committed `BENCH_baseline.json` at the
//! repo root (recorded with `twill-bench baseline`); any drift means
//! either an instrumentation hook leaked into the cycle math or a real
//! behaviour change that needs a deliberately re-recorded baseline.

use twill_dswp::{run_dswp, DswpOptions};
use twill_rt::{simulate_hybrid, simulate_pure_hw, simulate_pure_sw, SimConfig};

/// Loads the committed baseline and returns
/// (benchmark, sw cycles, pure-hw cycles, hybrid cycles) at scale 1.
fn golden_from_baseline() -> Vec<(String, u64, u64, u64)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
    let base = twill_obs::Baseline::load(&path).expect("load committed BENCH_baseline.json");
    chstone::all()
        .iter()
        .map(|b| {
            let cycles = |mode: &str| {
                let e = base
                    .find(b.name, mode)
                    .unwrap_or_else(|| panic!("{} {mode} missing from baseline", b.name));
                assert_eq!(e.scale, 1, "{} {mode}: golden test expects scale-1 entries", b.name);
                e.cycles()
            };
            (b.name.to_string(), cycles("sw"), cycles("hw"), cycles("hybrid"))
        })
        .collect()
}

#[test]
fn cycle_counts_match_committed_baseline() {
    let cfg = SimConfig::default();
    assert_eq!(cfg.trace_events, 0, "golden run must have tracing disabled");
    for (name, sw_gold, hw_gold, hy_gold) in golden_from_baseline() {
        let name = name.as_str();
        let b = chstone::by_name(name).unwrap();
        let m = chstone::compile_and_prepare(&b);
        let input = chstone::input_for(b.name, 1);

        let sw = simulate_pure_sw(&m, input.clone(), &cfg).unwrap();
        assert_eq!(sw.cycles, sw_gold, "{name} pure-SW cycles drifted");

        let hw = simulate_pure_hw(&m, input.clone(), &cfg).unwrap();
        assert_eq!(hw.cycles, hw_gold, "{name} pure-HW cycles drifted");

        let d = run_dswp(&m, &DswpOptions { num_partitions: b.partitions, ..Default::default() });
        let hy = simulate_hybrid(&d, input, &cfg).unwrap();
        assert_eq!(hy.cycles, hy_gold, "{name} hybrid cycles drifted");
    }
}

/// Turning the recorder on must observe, not perturb: same cycle counts
/// with a large ring as with tracing off.
#[test]
fn tracing_is_timing_neutral() {
    let off = SimConfig::default();
    let on = SimConfig { trace_events: 1 << 20, ..Default::default() };
    for name in ["adpcm", "aes", "sha"] {
        let b = chstone::by_name(name).unwrap();
        let m = chstone::compile_and_prepare(&b);
        let input = chstone::input_for(b.name, 1);
        let d = run_dswp(&m, &DswpOptions { num_partitions: b.partitions, ..Default::default() });
        let quiet = simulate_hybrid(&d, input.clone(), &off).unwrap();
        let traced = simulate_hybrid(&d, input, &on).unwrap();
        assert_eq!(quiet.cycles, traced.cycles, "{name}: tracing changed timing");
        assert_eq!(quiet.output, traced.output, "{name}: tracing changed output");
        assert!(!traced.events.is_empty(), "{name}: expected events from a traced run");
    }
}
