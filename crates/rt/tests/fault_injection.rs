//! Fault-injection layer guarantees:
//!
//! * **Neutrality** — a zero-rate plan (and no plan at all) is
//!   byte-identical to the committed golden cycle counts of every CHStone
//!   benchmark × mode; injection that is off must cost nothing and change
//!   nothing.
//! * **Determinism** — the same seed and spec produce the identical fault
//!   trace (and therefore the identical run) twice.
//! * **Effect** — nonzero rates actually inject, and every injected fault
//!   is counted in the metrics and recorded in the bounded fault log.
//! * **Validation** — configurations the simulator used to panic on are
//!   rejected up front with a typed [`ConfigError`].

use proptest::prelude::*;
use twill_dswp::{run_dswp, DswpOptions};
use twill_obs::ToJson;
use twill_rt::{
    simulate_hybrid, simulate_pure_hw, simulate_pure_sw, ConfigError, FaultPlan, FaultSite,
    FaultSpec, PinnedFault, SimConfig, SimError, SimReport,
};

fn prepare(src: &str) -> twill_ir::Module {
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    m
}

const PROGRAM: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 64; i++) {
    int x = (i * 7 + 3) ^ (i << 2);
    acc += (x % 11) * (x % 11);
  }
  out(acc);
  return 0;
}
"#;

/// A 2-way split with forced even work so queue traffic exists.
fn split_dswp(m: &twill_ir::Module) -> twill_dswp::DswpResult {
    let d = run_dswp(
        m,
        &DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.5, 0.5]),
            ..Default::default()
        },
    );
    assert!(d.stats.queues > 0, "expected queue traffic");
    d
}

fn zero_rate_cfg(seed: u64) -> SimConfig {
    SimConfig { fault: Some(FaultPlan::new(seed, FaultSpec::uniform(0.0))), ..Default::default() }
}

/// The report of a run that may have ended in deadlock/timeout.
fn any_report(res: Result<SimReport, SimError>) -> SimReport {
    match res {
        Ok(r) => r,
        Err(e) => e.partial_report().expect("partial report attached").clone(),
    }
}

/// An armed-but-inert fault plan must not change a single golden cycle
/// count: all 24 committed CHStone entries (8 benchmarks × 3 modes).
#[test]
fn zero_rate_plan_matches_all_golden_counts() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
    let base = twill_obs::Baseline::load(&path).expect("load committed BENCH_baseline.json");
    let cfg = zero_rate_cfg(0xDEAD_BEEF);
    for b in chstone::all() {
        let golden = |mode: &str| {
            base.find(b.name, mode)
                .unwrap_or_else(|| panic!("{} {mode} missing from baseline", b.name))
                .cycles()
        };
        let m = chstone::compile_and_prepare(&b);
        let input = chstone::input_for(b.name, 1);

        let sw = simulate_pure_sw(&m, input.clone(), &cfg).unwrap();
        assert_eq!(sw.cycles, golden("sw"), "{} pure-SW cycles drifted", b.name);
        assert_eq!(sw.stats.faults.total(), 0);
        assert!(sw.fault_log.is_empty());

        let hw = simulate_pure_hw(&m, input.clone(), &cfg).unwrap();
        assert_eq!(hw.cycles, golden("hw"), "{} pure-HW cycles drifted", b.name);

        let d = run_dswp(&m, &DswpOptions { num_partitions: b.partitions, ..Default::default() });
        let hy = simulate_hybrid(&d, input, &cfg).unwrap();
        assert_eq!(hy.cycles, golden("hybrid"), "{} hybrid cycles drifted", b.name);
        assert_eq!(hy.stats.faults.total(), 0);
        assert!(hy.fault_log.is_empty());
    }
}

/// Same seed, same spec: the identical fault trace (and run) twice.
#[test]
fn same_seed_and_spec_reproduce_the_fault_trace() {
    let m = prepare(PROGRAM);
    let d = split_dswp(&m);
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(7, FaultSpec::uniform(2e-3))),
        max_cycles: 5_000_000,
        watchdog_window: 100_000,
        ..Default::default()
    };
    let a = any_report(simulate_hybrid(&d, vec![], &cfg));
    let b = any_report(simulate_hybrid(&d, vec![], &cfg));
    assert!(a.stats.faults.total() > 0, "expected injection at this rate");
    assert_eq!(a.fault_log, b.fault_log);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.output, b.output);
    assert_eq!(a.stats.faults, b.stats.faults);
}

/// Nonzero rates inject; every fault is counted and logged, and the log
/// stays within the run.
#[test]
fn nonzero_rates_inject_counted_and_logged() {
    let m = prepare(PROGRAM);
    let d = split_dswp(&m);
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(3, FaultSpec::uniform(5e-3))),
        max_cycles: 5_000_000,
        watchdog_window: 100_000,
        ..Default::default()
    };
    let rep = any_report(simulate_hybrid(&d, vec![], &cfg));
    let total = rep.stats.faults.total();
    assert!(total > 0);
    assert_eq!(rep.fault_log.len() as u64, total, "log must hold every fault below its cap");
    assert!(rep.fault_log.iter().all(|r| r.cycle <= rep.cycles));
    let json = rep.metrics().to_json();
    assert!(json.contains("\"faults\""), "metrics JSON must expose the fault block:\n{json}");
}

/// A pinned queue drop fires exactly once, at the first enqueue at or
/// after its cycle, and is visible in the counters.
#[test]
fn pinned_queue_drop_fires_once() {
    let m = prepare(PROGRAM);
    let d = split_dswp(&m);
    let spec = FaultSpec {
        pinned: vec![PinnedFault { cycle: 0, site: FaultSite::QueueDrop { queue: 0 } }],
        ..Default::default()
    };
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1, spec)),
        max_cycles: 5_000_000,
        watchdog_window: 50_000,
        ..Default::default()
    };
    let rep = any_report(simulate_hybrid(&d, vec![], &cfg));
    assert_eq!(rep.stats.faults.drops, 1);
    assert_eq!(rep.stats.faults.total(), 1);
    assert_eq!(rep.fault_log.len(), 1);
    assert!(matches!(rep.fault_log[0].site, FaultSite::QueueDrop { queue: 0 }));
}

/// Invalid configurations are rejected with typed errors instead of
/// panicking inside the simulator.
#[test]
fn invalid_configs_are_rejected_up_front() {
    let m = prepare(PROGRAM);
    let reject = |cfg: SimConfig| match simulate_pure_sw(&m, vec![], &cfg).unwrap_err() {
        SimError::Config(e) => e,
        other => panic!("expected a config error, got {other}"),
    };

    assert_eq!(
        reject(SimConfig { queue_depth: Some(0), ..Default::default() }),
        ConfigError::ZeroQueueDepth
    );
    assert!(matches!(
        reject(SimConfig { mem_size: 64, ..Default::default() }),
        ConfigError::MemTooSmall { got: 64, .. }
    ));
    assert_eq!(
        reject(SimConfig { watchdog_window: 0, ..Default::default() }),
        ConfigError::ZeroWatchdog
    );
    assert!(matches!(
        reject(SimConfig {
            fault: Some(FaultPlan::new(1, FaultSpec::uniform(1.5))),
            ..Default::default()
        }),
        ConfigError::BadFaultRate { value: v, .. } if v == 1.5
    ));
    let stall_zero = FaultSpec { hw_stall_rate: 0.5, hw_stall_cycles: 0, ..Default::default() };
    assert_eq!(
        reject(SimConfig { fault: Some(FaultPlan::new(1, stall_zero)), ..Default::default() }),
        ConfigError::ZeroStallCycles
    );

    // A module without @main is a config error, not a panic.
    let no_main = twill_ir::parser::parse_module("module \"t\"\nfunc @f() {\nbb0:\n  ret\n}\n")
        .expect("parses");
    match simulate_pure_sw(&no_main, vec![], &SimConfig::default()).unwrap_err() {
        SimError::Config(ConfigError::NoMain) => {}
        other => panic!("expected NoMain, got {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seed, an all-zero-rate plan is indistinguishable from no
    /// plan at all: same cycles, same output, same stall accounting.
    #[test]
    fn zero_rate_plan_equals_no_plan(seed in any::<u64>()) {
        use std::sync::OnceLock;
        static PREP: OnceLock<(twill_ir::Module, twill_dswp::DswpResult)> = OnceLock::new();
        let (_, d) = PREP.get_or_init(|| {
            let m = prepare(PROGRAM);
            let d = split_dswp(&m);
            (m, d)
        });
        let none = simulate_hybrid(d, vec![], &SimConfig::default()).unwrap();
        let zero = simulate_hybrid(d, vec![], &zero_rate_cfg(seed)).unwrap();
        prop_assert_eq!(none.cycles, zero.cycles);
        prop_assert_eq!(&none.output, &zero.output);
        prop_assert_eq!(zero.stats.faults.total(), 0);
        prop_assert!(zero.fault_log.is_empty());
        prop_assert_eq!(none.metrics().to_json(), zero.metrics().to_json());
    }
}
