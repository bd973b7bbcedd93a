//! Fast-forward ⇔ naive loop equivalence.
//!
//! The event-driven fast-forward core (DESIGN.md §12) must be observably
//! identical to ticking every agent on every cycle: same cycle counts,
//! same stats and per-instruction profile, same fault log from the same
//! splitmix64 stream, same trace events, same watchdog/timeout outcomes.
//! A proptest drives both loops over random configurations, fault plans,
//! and watchdog windows and compares entire `SimReport`s; unit tests pin
//! the sharp edges (a pinned fault inside a skipped span, determinism of
//! the fast path itself, an agent running ahead of sleeping peers), and
//! every CHStone program is compared in all three modes — many HW threads
//! finishing at different times, constant-ROM loads, calls, and CPU and HW
//! threads live at once.

use proptest::prelude::*;
use std::sync::OnceLock;
use twill_dswp::{run_dswp, DswpOptions, DswpResult, ThreadSpec};
use twill_obs::ToJson;
use twill_rt::{
    simulate_hybrid, simulate_pure_hw, simulate_pure_sw, FaultPlan, FaultSite, FaultSpec,
    PinnedFault, SimConfig, SimError, SimReport,
};

fn prepare(src: &str) -> twill_ir::Module {
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    m
}

/// A pipeline with uneven stage weights: the consumer-side modulus chain
/// is much heavier than the producer, so queue-full/queue-empty stalls
/// dominate — exactly the spans fast-forward leaps over.
const PROGRAM: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 48; i++) {
    int x = (i * 13 + 5) ^ (i << 3);
    int y = x;
    for (int j = 0; j < 6; j++) y = (y * 3 + j) % 251;
    acc += y;
  }
  out(acc);
  return 0;
}
"#;

/// Compile once per process; proptest cases reuse the build.
fn testbed() -> &'static (twill_ir::Module, DswpResult) {
    static TESTBED: OnceLock<(twill_ir::Module, DswpResult)> = OnceLock::new();
    TESTBED.get_or_init(|| {
        let m = prepare(PROGRAM);
        let d = run_dswp(
            &m,
            &DswpOptions {
                num_partitions: 2,
                split_points: Some(vec![0.5, 0.5]),
                ..Default::default()
            },
        );
        assert!(d.stats.queues > 0, "expected queue traffic");
        (m, d)
    })
}

fn assert_reports_equal(a: &SimReport, b: &SimReport, ctx: &str) {
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycles diverged");
    assert_eq!(a.output, b.output, "{ctx}: output diverged");
    assert_eq!(a.ret, b.ret, "{ctx}: ret diverged");
    assert_eq!(a.stats, b.stats, "{ctx}: stats diverged");
    assert_eq!(
        a.cpu_busy_fraction.to_bits(),
        b.cpu_busy_fraction.to_bits(),
        "{ctx}: cpu_busy_fraction diverged"
    );
    assert_eq!(a.hw_threads, b.hw_threads, "{ctx}: hw_threads diverged");
    assert_eq!(a.agent_names, b.agent_names, "{ctx}: agent_names diverged");
    assert_eq!(a.dropped_events, b.dropped_events, "{ctx}: dropped_events diverged");
    assert_eq!(a.profile, b.profile, "{ctx}: profile diverged");
    assert_eq!(a.fault_log, b.fault_log, "{ctx}: fault_log diverged");
    assert_eq!(a.events, b.events, "{ctx}: trace events diverged");
    // Full sampled timelines must match — including their serialized
    // bytes, since golden files and CI artifacts are compared as text.
    assert_eq!(a.timeline, b.timeline, "{ctx}: timelines diverged");
    if let (Some(x), Some(y)) = (&a.timeline, &b.timeline) {
        assert_eq!(x.to_json(), y.to_json(), "{ctx}: timeline JSON diverged");
    }
}

/// Both loops must reach the same outcome — including identical deadlock
/// diagnoses and timeout points, with identical partial reports.
fn assert_outcomes_equal(
    ff: Result<SimReport, SimError>,
    naive: Result<SimReport, SimError>,
    ctx: &str,
) {
    match (ff, naive) {
        (Ok(a), Ok(b)) => assert_reports_equal(&a, &b, ctx),
        (
            Err(SimError::Deadlock { report: ra, partial: pa }),
            Err(SimError::Deadlock { report: rb, partial: pb }),
        ) => {
            assert_eq!(ra.cycle, rb.cycle, "{ctx}: watchdog fired at different cycles");
            assert_eq!(ra.render(), rb.render(), "{ctx}: hang diagnosis diverged");
            assert_reports_equal(&pa, &pb, ctx);
        }
        (
            Err(SimError::Timeout { max_cycles: ma, partial: pa }),
            Err(SimError::Timeout { max_cycles: mb, partial: pb }),
        ) => {
            assert_eq!(ma, mb, "{ctx}: timeout bounds diverged");
            assert_reports_equal(&pa, &pb, ctx);
        }
        (x, y) => panic!("{ctx}: outcome kinds diverged:\n  fast-forward: {x:?}\n  naive: {y:?}"),
    }
}

/// Simulate `m` (pure SW and pure HW) and `d` (hybrid) under both loops.
fn run_both(m: &twill_ir::Module, d: &DswpResult, input: &[i32], cfg: &SimConfig, ctx: &str) {
    let ff = SimConfig { fast_forward: true, ..cfg.clone() };
    let naive = SimConfig { fast_forward: false, ..cfg.clone() };
    assert_outcomes_equal(
        simulate_hybrid(d, input.to_vec(), &ff),
        simulate_hybrid(d, input.to_vec(), &naive),
        &format!("{ctx} [hybrid]"),
    );
    assert_outcomes_equal(
        simulate_pure_hw(m, input.to_vec(), &ff),
        simulate_pure_hw(m, input.to_vec(), &naive),
        &format!("{ctx} [pure-hw]"),
    );
    assert_outcomes_equal(
        simulate_pure_sw(m, input.to_vec(), &ff),
        simulate_pure_sw(m, input.to_vec(), &naive),
        &format!("{ctx} [pure-sw]"),
    );
}

/// [`run_both`] on the toy pipeline.
fn run_testbed(cfg: &SimConfig, ctx: &str) {
    let (m, d) = testbed();
    run_both(m, d, &[], cfg, ctx);
}

/// Deep-queue/skewed-rate stalls with profiling and tracing on.
fn stall_heavy() -> SimConfig {
    SimConfig {
        queue_latency: 128,
        queue_depth: Some(2),
        profile: true,
        trace_events: 1024,
        ..Default::default()
    }
}

fn site_strategy() -> impl Strategy<Value = FaultSite> {
    prop_oneof![
        (0u32..2, 0u32..32).prop_map(|(queue, bit)| FaultSite::QueueBitFlip { queue, bit }).boxed(),
        (0u32..2).prop_map(|queue| FaultSite::QueueDrop { queue }).boxed(),
        (0u32..2).prop_map(|queue| FaultSite::QueueDup { queue }).boxed(),
        (0u32..3, 1u32..60)
            .prop_map(|(agent, cycles)| FaultSite::HwStall { agent, cycles })
            .boxed(),
        (64u32..0x4000, 0u8..8).prop_map(|(addr, bit)| FaultSite::MemUpset { addr, bit }).boxed(),
    ]
}

fn spec_strategy() -> impl Strategy<Value = FaultSpec> {
    // Zero-heavy so plenty of cases leap; a nonzero memory-upset rate (or
    // HW-stall rate) draws every cycle, and those cycles tick.
    let rate = || prop_oneof![Just(0.0), Just(0.0), Just(0.0), Just(0.002), Just(0.02)];
    (
        (rate(), rate(), rate()),
        (rate(), rate()),
        1u32..50,
        proptest::collection::vec((0u64..4000, site_strategy()), 0..3),
    )
        .prop_map(|((flip, drop, dup), (stall, mem), stall_cycles, pinned)| FaultSpec {
            queue_bit_flip_rate: flip,
            queue_drop_rate: drop,
            queue_dup_rate: dup,
            hw_stall_rate: stall,
            hw_stall_cycles: stall_cycles,
            mem_upset_rate: mem,
            pinned: pinned.into_iter().map(|(cycle, site)| PinnedFault { cycle, site }).collect(),
        })
}

fn config_strategy() -> impl Strategy<Value = SimConfig> {
    let fault =
        prop_oneof![Just(None).boxed(), (any::<u64>(), spec_strategy()).prop_map(Some).boxed(),];
    (
        (
            prop_oneof![Just(2u32), Just(16), Just(128)],
            prop_oneof![Just(None), Just(Some(2u32)), Just(Some(8))],
        ),
        (
            prop_oneof![Just(48u64), Just(2_000), Just(200_000)],
            prop_oneof![Just(3_000u64), Just(60_000)],
        ),
        (
            (any::<bool>(), prop_oneof![Just(0usize), Just(512)]),
            prop_oneof![Just(None), Just(Some(7u64)), Just(Some(64)), Just(Some(1000))],
        ),
        fault,
    )
        .prop_map(
            |(
                (queue_latency, queue_depth),
                (watchdog_window, max_cycles),
                ((profile, trace), sample_interval),
                fault,
            )| {
                SimConfig {
                    queue_latency,
                    queue_depth,
                    watchdog_window,
                    max_cycles,
                    profile,
                    trace_events: trace,
                    sample_interval,
                    fault: fault.map(|(seed, spec)| FaultPlan::new(seed, spec)),
                    ..Default::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acid test: over random configs, fault plans, and watchdog
    /// windows, both loops produce identical `SimReport`s (or identical
    /// deadlock/timeout diagnoses) in all three simulation modes.
    #[test]
    fn fast_forward_is_equivalent_to_naive(cfg in config_strategy()) {
        run_testbed(&cfg, &format!("random config {cfg:?}"));
    }
}

/// A pinned fault whose cycle lands inside a skipped span must still fire
/// on its exact cycle: the leap is capped at the next pinned cycle, so the
/// arming `begin_cycle` runs as a real tick.
#[test]
fn pinned_fault_inside_skipped_span_fires_on_its_cycle() {
    let (_, d) = testbed();
    // 128-cycle queue ops make nearly every cycle part of a charge/latency
    // span, so both pinned cycles fall inside leaps.
    let spec = FaultSpec {
        pinned: vec![
            PinnedFault { cycle: 500, site: FaultSite::HwStall { agent: 1, cycles: 40 } },
            PinnedFault { cycle: 777, site: FaultSite::MemUpset { addr: 0x100, bit: 3 } },
        ],
        ..Default::default()
    };
    let cfg = SimConfig {
        queue_latency: 128,
        fault: Some(FaultPlan::new(11, spec)),
        fast_forward: true,
        ..Default::default()
    };
    let rep = simulate_hybrid(d, vec![], &cfg).unwrap();
    assert!(rep.cycles > 777, "run must outlive the pinned faults");
    let cycles: Vec<u64> = rep.fault_log.iter().map(|r| r.cycle).collect();
    assert_eq!(cycles, vec![500, 777], "pinned faults must fire on their exact cycles");
    assert!(matches!(rep.fault_log[0].site, FaultSite::HwStall { agent: 1, cycles: 40 }));
    assert!(matches!(rep.fault_log[1].site, FaultSite::MemUpset { addr: 0x100, bit: 3 }));

    let naive = simulate_hybrid(d, vec![], &SimConfig { fast_forward: false, ..cfg }).unwrap();
    assert_reports_equal(&rep, &naive, "pinned-in-span");
}

/// The fast path must be deterministic in its own right (same run twice).
#[test]
fn fast_forward_is_deterministic() {
    let (_, d) = testbed();
    let cfg = SimConfig {
        queue_latency: 128,
        fault: Some(FaultPlan::new(42, FaultSpec::uniform(1e-3))),
        fast_forward: true,
        max_cycles: 2_000_000,
        watchdog_window: 100_000,
        ..Default::default()
    };
    let a = simulate_hybrid(d, vec![], &cfg);
    let b = simulate_hybrid(d, vec![], &cfg);
    match (a, b) {
        (Ok(x), Ok(y)) => assert_reports_equal(&x, &y, "determinism"),
        (x, y) => assert_outcomes_equal(x, y, "determinism"),
    }
}

/// Deep-queue/skewed-rate stall spans — the workload class the fast path
/// exists for — must stay equivalent when both stall classes (queue-full
/// on the producer, queue-empty on the consumer) dominate.
#[test]
fn stall_heavy_config_is_equivalent() {
    run_testbed(&stall_heavy(), "stall-heavy");
}

/// Every CHStone program at scale 1, in all three modes, under the default
/// and the stall-heavy configuration.
#[test]
fn chstone_programs_are_equivalent() {
    for b in chstone::all() {
        let m = chstone::compile_and_prepare(&b);
        let d = run_dswp(&m, &DswpOptions { num_partitions: b.partitions, ..Default::default() });
        let input = chstone::input_for(b.name, 1);
        run_both(&m, &d, &input, &SimConfig::default(), &format!("{} default", b.name));
        run_both(&m, &d, &input, &stall_heavy(), &format!("{} stall-heavy", b.name));
    }
}

/// A hand-built hybrid: `@master` on the CPU, `@worker` as a hardware
/// thread. One side sends a single message and exits while the other
/// waits for two, so the waiting agent runs on alone until the watchdog.
fn lost_message(cpu_waits: bool) -> DswpResult {
    let (sender, receiver) = if cpu_waits { ("worker", "master") } else { ("master", "worker") };
    let ir = format!(
        r#"
module "lost"
queue q0 i32 x 4

func @{sender}() {{
bb0:
  enqueue q0, 7:i32
  ret
}}

func @{receiver}() {{
bb0:
  %0 = dequeue i32 q0
  %1 = dequeue i32 q0
  ret
}}
"#
    );
    hand_built(&ir, &[("master", false), ("worker", true)])
}

/// Run-ahead (the last live agent running by itself) must stop exactly
/// where the naive loop does: timeouts at cycles all over the run, inside
/// bulk-charged instructions and leaps alike, and the watchdog firing on a
/// lone agent blocked forever, CPU or hardware thread.
#[test]
fn run_ahead_stops_where_the_naive_loop_does() {
    let (m, d) = testbed();
    for max_cycles in (1..300).step_by(7).chain([1_000, 3_000, 10_000, 30_000]) {
        let cfg = SimConfig { max_cycles, trace_events: 256, ..Default::default() };
        run_both(m, d, &[], &cfg, &format!("max_cycles {max_cycles}"));
    }
    for cpu_waits in [false, true] {
        let lost = lost_message(cpu_waits);
        for watchdog_window in [1, 2, 3, 17, 500] {
            let cfg = SimConfig { watchdog_window, trace_events: 64, ..Default::default() };
            let ctx = format!("lost message, cpu waits: {cpu_waits}, window {watchdog_window}");
            let ff =
                simulate_hybrid(&lost, vec![], &SimConfig { fast_forward: true, ..cfg.clone() });
            assert!(matches!(ff, Err(SimError::Deadlock { .. })), "{ctx}: expected a deadlock");
            let naive = simulate_hybrid(&lost, vec![], &SimConfig { fast_forward: false, ..cfg });
            assert_outcomes_equal(ff, naive, &ctx);
        }
    }
}

/// Narrow parameters and results across calls that stay calls:
/// `char`/`short`/`unsigned` parameters, results narrowed on return, and
/// `out()` inside the loop (a runtime op, so each lone agent's plain run
/// ends there and resumes after it).
const NARROW_CALLS: &str = r#"
char mix(char c, short s, unsigned u) {
  return c * 7 + (s >> 3) + (u % 1000);
}
short fold(short a, unsigned char b, char flag) {
  if (flag) return a * 3 - b;
  return a ^ 0x5a5a;
}
int main() {
  int acc = 0x12345678;
  for (int i = 0; i < 24; i++) {
    char c = mix(i * 37 + 200, i * 4099 - 30000, acc);
    short s = fold(acc ^ 0x7fff, c + 0x80, i & 1);
    acc = acc * 31 + c + s + ((i & 2) ? 0xff : -129) + 0x10000;
    out(c);
    out(s);
  }
  out(acc);
  return 0;
}
"#;

/// The frontend narrows every argument before a call, so only IR can pass
/// a wide value to a narrow parameter; the callee then sees it masked to
/// the parameter's type (its `out`s show the masked bits). Immediates of
/// every width, some wider than their type, ride along.
const NARROW_IR: &str = r#"
module "narrow_ir"

func @narrow(i8, i16, i1) -> i16 {
bb0:
  out %a0
  out %a1
  %0 = zext %a2 to i16
  %1 = add i16 %a1, %0
  %2 = xor i16 %1, 40000:i16
  ret %2
}

func @main() -> i32 {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 0:i32], [bb2: %7]
  %1 = phi i32 [bb0: 123456789:i32], [bb2: %6]
  %2 = cmp slt %0, 16:i32
  condbr %2, bb2, bb3
bb2:
  %3 = mul i32 %1, 40503:i32
  %4 = call i16 @narrow(%3, %3, %3)
  %5 = call i16 @narrow(300:i8, 70000:i16, 3:i1)
  %8 = sext %4 to i32
  %9 = zext %5 to i32
  %10 = add i32 %8, %9
  out %10
  %6 = add i32 %3, %10
  %7 = add i32 %0, 1:i32
  br bb1
bb3:
  out %1
  ret 0:i32
}
"#;

/// Pure HW and pure SW of `m` under both loops, traced, with `max_cycles`
/// swept across the whole run; every finished run's output must equal
/// the interpreter's.
fn sweep_lone_agent(m: &twill_ir::Module, name: &str) {
    let (expect, _, _) = twill_ir::interp::run_main(m, vec![], 1_000_000_000).unwrap();
    let full = SimConfig { fast_forward: true, ..Default::default() };
    let hw_cycles = simulate_pure_hw(m, vec![], &full).unwrap().cycles;
    let sw_cycles = simulate_pure_sw(m, vec![], &full).unwrap().cycles;
    let longest = hw_cycles.max(sw_cycles);
    let sweep = (1..64).chain((64..longest + 64).step_by(longest as usize / 97 + 1));
    for max_cycles in sweep.chain([hw_cycles - 1, hw_cycles, sw_cycles - 1, sw_cycles]) {
        let cfg = SimConfig { max_cycles, trace_events: 4096, ..Default::default() };
        let ff = SimConfig { fast_forward: true, ..cfg.clone() };
        let naive = SimConfig { fast_forward: false, ..cfg };
        type Sim = fn(&twill_ir::Module, Vec<i32>, &SimConfig) -> Result<SimReport, SimError>;
        for (mode, sim) in [("pure-hw", simulate_pure_hw as Sim), ("pure-sw", simulate_pure_sw)] {
            let ctx = format!("{name}, max_cycles {max_cycles} [{mode}]");
            let fast = sim(m, vec![], &ff);
            if let Ok(r) = &fast {
                assert_eq!(r.output, expect, "{ctx}: output differs from the interpreter");
            }
            assert_outcomes_equal(fast, sim(m, vec![], &naive), &ctx);
        }
    }
}

/// The fast paths a lone agent takes — a hardware thread stepping FSM
/// states back to back on one register file per frame, a CPU batching
/// plain instructions — must stop and report exactly where the naive loop
/// does, on calls with narrow arguments and results.
#[test]
fn lone_agent_fast_paths_match_the_naive_loop() {
    let mut m = twill_frontend::compile("narrow", NARROW_CALLS).unwrap();
    let no_inline = twill_passes::PipelineOptions {
        inline: twill_passes::inline::InlineOptions {
            small_threshold: 0,
            single_site_threshold: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    twill_passes::run_standard_pipeline(&mut m, &no_inline);
    assert!(m.find_func("mix").is_some() && m.find_func("fold").is_some(), "calls must survive");
    sweep_lone_agent(&m, "mini-C");
    let ir = twill_ir::parser::parse_module(NARROW_IR).expect("test IR parses");
    sweep_lone_agent(&ir, "IR");
}

/// Queue ops 64× the thesis latency on two-slot queues, traced, with
/// profiling off: the stall-heavy shape without the profile, which keeps
/// a run on the general loop and so away from run-ahead.
fn slow_queues() -> SimConfig {
    SimConfig { queue_latency: 128, queue_depth: Some(2), trace_events: 1024, ..Default::default() }
}

/// The CHStone programs at scale 1 at the kinds of design point a sweep
/// visits: the default partitioning and two partitions with the software
/// stage at about 20%, 50% and 80% of the work, each under the default
/// queues and under [`slow_queues`]. Run-ahead with one awake agent among
/// sleepers takes most of these runs' cycles. Motion is left out, as
/// perfbench's `explore` leaves it out: its runs would take most of the
/// test's time.
#[test]
fn chstone_run_ahead_points_are_equivalent() {
    let traced = SimConfig { trace_events: 1024, ..Default::default() };
    for b in chstone::all().into_iter().filter(|b| b.name != "motion") {
        let m = chstone::compile_and_prepare(&b);
        let input = chstone::input_for(b.name, 1);
        let d = run_dswp(&m, &DswpOptions { num_partitions: b.partitions, ..Default::default() });
        run_both(&m, &d, &input, &slow_queues(), &format!("{} slow queues", b.name));
        for sw in [0.2, 0.5, 0.8] {
            let split = Some(vec![sw, 1.0 - sw]);
            let d = run_dswp(
                &m,
                &DswpOptions { num_partitions: 2, split_points: split, ..Default::default() },
            );
            for (cfg, name) in [(&traced, "default queues"), (&slow_queues(), "slow queues")] {
                let ctx = format!("{} split {sw}, {name} [hybrid]", b.name);
                let ff = SimConfig { fast_forward: true, ..cfg.clone() };
                let naive = SimConfig { fast_forward: false, ..cfg.clone() };
                assert_outcomes_equal(
                    simulate_hybrid(&d, input.clone(), &ff),
                    simulate_hybrid(&d, input.clone(), &naive),
                    &ctx,
                );
            }
        }
    }
}

/// A hybrid of hand-written threads: `specs` lists each entry function
/// by name with whether it is a hardware thread, one partition each, in
/// agent order.
fn hand_built(ir: &str, specs: &[(&str, bool)]) -> DswpResult {
    let module = twill_ir::parser::parse_module(ir).expect("test IR parses");
    let threads = specs
        .iter()
        .enumerate()
        .map(|(partition, &(name, is_hw))| ThreadSpec {
            entry: module.find_func(name).expect("entry function"),
            partition,
            is_hw,
        })
        .collect();
    DswpResult { module, threads, stats: Default::default() }
}

/// Hybrid runs of `d` under both loops, traced, with `max_cycles` swept
/// across the whole run, through the sleepers' spans; a finished run's
/// output must equal `expect`.
fn sweep_hybrid(d: &DswpResult, expect: &[i32], cfg: &SimConfig, name: &str) {
    let full = simulate_hybrid(d, vec![], &SimConfig { fast_forward: true, ..cfg.clone() })
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(full.output, expect, "{name}: wrong output");
    let sweep = (1..64).chain((64..full.cycles + 64).step_by(full.cycles as usize / 150 + 1));
    for max_cycles in sweep.chain([full.cycles - 1, full.cycles]) {
        let cfg = SimConfig { max_cycles, trace_events: 4096, ..cfg.clone() };
        let ctx = format!("{name}, max_cycles {max_cycles}");
        let ff = simulate_hybrid(d, vec![], &SimConfig { fast_forward: true, ..cfg.clone() });
        let naive = simulate_hybrid(d, vec![], &SimConfig { fast_forward: false, ..cfg });
        assert_outcomes_equal(ff, naive, &ctx);
    }
}

/// Two hardware threads: `@producer` computes between pushes (a varying
/// number of plain FSM states, so its pushes fall on both rotation
/// orders) while `@consumer` sleeps on the empty `q0`, and the CPU sleeps
/// on `q1` until the consumer reports. The producer runs ahead of both
/// sleepers; its push must wait for a real tick, since a consumer later
/// in that cycle's rotation is served in the same cycle.
const ROTATION_IR: &str = r#"
module "rotation"
queue q0 i32 x 2
queue q1 i32 x 1

func @master() {
bb0:
  %0 = dequeue i32 q1
  out %0
  ret
}

func @producer() {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 0:i32], [bb3: %9]
  %1 = phi i32 [bb0: 7:i32], [bb3: %5]
  %2 = cmp slt %0, 24:i32
  condbr %2, bb2, bb4
bb2:
  %3 = phi i32 [bb1: 0:i32], [bb2: %6]
  %4 = phi i32 [bb1: %1], [bb2: %5]
  %5 = mul i32 %4, 5:i32
  %6 = add i32 %3, 1:i32
  %7 = srem i32 %0, 4:i32
  %8 = cmp sle %6, %7
  condbr %8, bb2, bb3
bb3:
  enqueue q0, %5
  %9 = add i32 %0, 1:i32
  br bb1
bb4:
  enqueue q0, -1:i32
  ret
}

func @consumer() {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 0:i32], [bb2: %4]
  %1 = dequeue i32 q0
  %2 = cmp eq %1, -1:i32
  condbr %2, bb3, bb2
bb2:
  %3 = mul i32 %0, 31:i32
  %4 = add i32 %3, %1
  br bb1
bb3:
  enqueue q1, %0
  ret
}
"#;

/// A hardware thread running ahead of a sleeper later in the rotation
/// that waits on the queue it pushes, in both rotation orders, under the
/// default and slow queues.
#[test]
fn awake_run_leaves_pushes_to_sleepers_for_a_real_tick() {
    let (mut y, mut acc) = (7i32, 0i32);
    for i in 0..24 {
        for _ in 0..=i % 4 {
            y = y.wrapping_mul(5);
        }
        acc = acc.wrapping_mul(31).wrapping_add(y);
    }
    for order in [["producer", "consumer"], ["consumer", "producer"]] {
        let d = hand_built(ROTATION_IR, &[("master", false), (order[0], true), (order[1], true)]);
        for (cfg, name) in [(SimConfig::default(), "default"), (slow_queues(), "slow queues")] {
            sweep_hybrid(&d, &[acc], &cfg, &format!("rotation {order:?}, {name}"));
        }
    }
}

/// Two software threads and a hardware thread. `@waiter`, active first,
/// blocks on `q0` until `@worker` has run a long plain loop, while
/// `@busy` is runnable: the CPU sleeps only until its 4-cycle blocked
/// streak switches threads, which bounds how far the awake hardware
/// thread may run ahead.
const TWO_SW_IR: &str = r#"
module "two_sw"
queue q0 i32 x 2

func @waiter() {
bb0:
  %0 = dequeue i32 q0
  out %0
  ret
}

func @busy() {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 0:i32], [bb1: %2]
  %1 = phi i32 [bb0: 3:i32], [bb1: %4]
  %2 = add i32 %0, 1:i32
  %3 = mul i32 %1, 7:i32
  %4 = xor i32 %3, %0
  %5 = cmp slt %2, 40:i32
  condbr %5, bb1, bb2
bb2:
  out %4
  ret
}

func @worker() {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 0:i32], [bb1: %2]
  %1 = phi i32 [bb0: 1:i32], [bb1: %4]
  %2 = add i32 %0, 1:i32
  %3 = mul i32 %1, 3:i32
  %4 = add i32 %3, %0
  %5 = cmp slt %2, 200:i32
  condbr %5, bb1, bb2
bb2:
  enqueue q0, %4
  ret
}
"#;

/// A CPU sleeper whose horizon is its blocked streak, not a peer: the
/// awake hardware thread must stop where the naive loop switches threads.
#[test]
fn awake_run_stops_at_a_blocked_cpu_thread_switch() {
    let d = hand_built(TWO_SW_IR, &[("waiter", false), ("busy", false), ("worker", true)]);
    let (mut x, mut w) = (3i32, 1i32);
    for i in 0..40 {
        x = x.wrapping_mul(7) ^ i;
    }
    for i in 0..200 {
        w = w.wrapping_mul(3).wrapping_add(i);
    }
    let full = simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap();
    let mut got = full.output.clone();
    got.sort_unstable();
    let mut expect = vec![x, w];
    expect.sort_unstable();
    assert_eq!(got, expect, "both software threads report");
    for (cfg, name) in [(SimConfig::default(), "default"), (slow_queues(), "slow queues")] {
        sweep_hybrid(&d, &full.output, &cfg, &format!("two software threads, {name}"));
    }
}
