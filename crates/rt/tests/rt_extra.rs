//! Extra runtime-simulator coverage: the software-thread scheduler
//! (multiple SW threads on one CPU), determinism, and statistics.

use twill_rt::agent::{Progress, SimAgent};
use twill_rt::cpu::Cpu;
use twill_rt::hwthread::HwPlan;
use twill_rt::{simulate_hybrid, Shared, SimConfig};

/// Producer/consumer pair as two *software* threads sharing the CPU —
/// exercises the round-robin scheduler with context switches (§4.4).
#[test]
fn two_software_threads_round_robin() {
    let src = r#"
queue q0 i32 x 4
func @producer() -> void {
bb0:
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  enqueue q0, %i
  %ni = add i32 %i, 1:i32
  %c = cmp slt %ni, 25:i32
  condbr %c, bb1, bb2
bb2:
  ret
}
func @consumer() -> void {
bb0:
  br bb1
bb1:
  %n = phi i32 [bb0: 0:i32], [bb1: %nn]
  %s = phi i32 [bb0: 0:i32], [bb1: %ns]
  %v = dequeue i32 q0
  %ns = add i32 %s, %v
  %nn = add i32 %n, 1:i32
  %c = cmp slt %nn, 25:i32
  condbr %c, bb1, bb2
bb2:
  out %ns
  ret
}
"#;
    let mut m = twill_ir::parser::parse_module(src).unwrap();
    twill_ir::layout::assign_global_addrs(&mut m);
    let p = m.find_func("producer").unwrap();
    let c = m.find_func("consumer").unwrap();
    let mut shared = Shared::new(&m, 0x100000, vec![], 0, None, &[], 1);
    let mut cpu = Cpu::new(0, &m, &[p, c], &[(0x20000, 0x30000), (0x30000, 0x40000)]);
    let mut cycles = 0u64;
    while !cpu.is_finished() {
        shared.begin_cycle();
        let _ = cpu.tick(&m, &HwPlan::default(), &mut shared);
        cycles += 1;
        assert!(cycles < 1_000_000, "scheduler deadlock");
    }
    assert_eq!(shared.output, vec![(0..25).sum::<i32>()]);
    // Both threads ran interleaved: blocking forced context switches, so
    // total cycles far exceed one thread's instruction count.
    assert!(cycles > 100);
}

#[test]
fn simulation_is_deterministic() {
    let b = chstone::AES;
    let m = chstone::compile_and_prepare(&b);
    let d = twill_dswp::run_dswp(
        &m,
        &twill_dswp::DswpOptions { num_partitions: b.partitions, ..Default::default() },
    );
    let input = chstone::input_for(b.name, 2);
    let r1 = simulate_hybrid(&d, input.clone(), &SimConfig::default()).unwrap();
    let r2 = simulate_hybrid(&d, input, &SimConfig::default()).unwrap();
    assert_eq!(r1.cycles, r2.cycles, "cycle counts must be reproducible");
    assert_eq!(r1.output, r2.output);
    assert_eq!(r1.stats.module_bus_grants, r2.stats.module_bus_grants);
}

#[test]
fn stats_track_queue_occupancy_and_agents() {
    let b = chstone::AES;
    let m = chstone::compile_and_prepare(&b);
    let d = twill_dswp::run_dswp(
        &m,
        &twill_dswp::DswpOptions { num_partitions: b.partitions, ..Default::default() },
    );
    let rep = simulate_hybrid(&d, chstone::input_for(b.name, 2), &SimConfig::default()).unwrap();
    assert!(rep.stats.queue_peak.iter().any(|&p| p > 0), "queues saw traffic");
    assert!(rep.stats.queue_peak.iter().all(|&p| p <= 8), "depth-8 bound respected");
    let busy: u64 = rep.stats.agent_cycles.iter().map(|c| c.busy).sum();
    assert!(busy > 0);
    assert_eq!(rep.stats.agent_cycles.len(), 1 + rep.hw_threads);
    for c in &rep.stats.agent_cycles {
        assert_eq!(c.total(), rep.cycles, "every agent cycle lands in one class");
    }
}

/// The `Progress` enum is part of the public agent API.
#[test]
fn progress_enum_is_usable() {
    assert_ne!(Progress::Busy, Progress::Blocked);
}

#[test]
fn event_trace_records_queue_traffic() {
    use twill_rt::obs::EventKind;

    let src = r#"
int main() {
  unsigned int acc = 0;
  for (int i = 0; i < 30; i++) {
    unsigned int x = (unsigned int)(i * 2654435761u);
    unsigned int y = (x >> 7) ^ x;
    acc = acc * 31 + y;
  }
  out((int) acc);
  return 0;
}
"#;
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    let d = twill_dswp::run_dswp(
        &m,
        &twill_dswp::DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.4, 0.6]),
            ..Default::default()
        },
    );
    let cfg = SimConfig { trace_events: 1_000_000, ..Default::default() };
    let rep = simulate_hybrid(&d, vec![], &cfg).unwrap();
    assert!(!rep.events.is_empty(), "trace should record events");
    assert_eq!(rep.dropped_events, 0, "large ring must not truncate this run");
    // Events are chronological.
    for w in rep.events.windows(2) {
        assert!(w[0].cycle <= w[1].cycle);
    }
    // Queue traffic and the out() of the result appear in the trace.
    assert!(rep.events.iter().any(|e| matches!(e.kind, EventKind::QueuePush { .. })));
    assert!(rep.events.iter().any(|e| matches!(e.kind, EventKind::QueuePop { .. })));
    assert!(rep.events.iter().any(|e| matches!(e.kind, EventKind::Output { .. })));
    // Both the CPU track and at least one HW track recorded something.
    assert!(rep.events.iter().any(|e| e.track == 0));
    assert!(rep.events.iter().any(|e| e.track > 0));
    // Text rendering works.
    let text = twill_rt::obs::event::format_events(&rep.events);
    assert!(text.contains("push") && text.contains("out"), "{text}");
    // Tracing off by default → empty, and timing is unperturbed.
    let rep2 = simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap();
    assert!(rep2.events.is_empty());
    assert_eq!(rep.output, rep2.output);
    assert_eq!(rep.cycles, rep2.cycles, "tracing must not perturb timing");
}

/// A tiny ring keeps the most recent events and reports the loss in
/// `dropped_events` — truncation is never silent.
#[test]
fn trace_truncation_is_reported_not_silent() {
    let src = r#"
int main() {
  unsigned int acc = 0;
  for (int i = 0; i < 50; i++) {
    unsigned int x = (unsigned int)(i * 2654435761u);
    acc = acc * 31 + ((x >> 7) ^ x);
  }
  out((int) acc);
  return 0;
}
"#;
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    let d = twill_dswp::run_dswp(
        &m,
        &twill_dswp::DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.4, 0.6]),
            ..Default::default()
        },
    );
    let big =
        simulate_hybrid(&d, vec![], &SimConfig { trace_events: 1_000_000, ..Default::default() })
            .unwrap();
    let tiny =
        simulate_hybrid(&d, vec![], &SimConfig { trace_events: 8, ..Default::default() }).unwrap();
    assert!(big.events.len() > 8, "need enough traffic to overflow the tiny ring");
    assert_eq!(tiny.events.len(), 8);
    assert_eq!(
        tiny.dropped_events,
        big.events.len() as u64 - 8,
        "every lost event is accounted for"
    );
    // The dropped count flows into the metrics report and the Perfetto
    // export metadata.
    assert_eq!(tiny.metrics().dropped_events, tiny.dropped_events);
    let trace_json = tiny.trace_builder().build();
    assert!(trace_json.contains(&format!("\"dropped_events\": \"{}\"", tiny.dropped_events)));
}

/// Per-thread cycle accounting: busy + stalls + idle == total cycles for
/// every agent, in every configuration (the debug-build invariant, checked
/// here in release too).
#[test]
fn cycle_accounting_sums_to_total() {
    let src = r#"
int main() {
  unsigned int acc = 0;
  for (int i = 0; i < 30; i++) {
    unsigned int x = (unsigned int)(i * 2654435761u);
    acc = acc * 31 + ((x >> 7) ^ x);
  }
  out((int) acc);
  return 0;
}
"#;
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    let d = twill_dswp::run_dswp(
        &m,
        &twill_dswp::DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.4, 0.6]),
            ..Default::default()
        },
    );
    let sw = twill_rt::simulate_pure_sw(&m, vec![], &SimConfig::default()).unwrap();
    let hw = twill_rt::simulate_pure_hw(&m, vec![], &SimConfig::default()).unwrap();
    let hy = simulate_hybrid(&d, vec![], &SimConfig::default()).unwrap();
    for rep in [&sw, &hw, &hy] {
        assert_eq!(rep.stats.agent_cycles.len(), rep.agent_names.len());
        for (name, c) in rep.agent_names.iter().zip(&rep.stats.agent_cycles) {
            assert_eq!(
                c.total(),
                rep.cycles,
                "agent {name}: {c:?} must sum to {} cycles",
                rep.cycles
            );
        }
    }
    // The hybrid's queue traffic shows up in the stall attribution.
    let stalls: u64 = hy
        .stats
        .agent_cycles
        .iter()
        .map(|c| c.queue_full + c.queue_empty + c.sem + c.mem_bus + c.module_bus)
        .sum();
    assert!(stalls > 0, "a decoupled pipeline must stall somewhere");
}

/// A software thread blocked forever on an empty queue must be reported
/// as a deadlock, not spin to the cycle limit.
#[test]
fn deadlock_on_never_filled_queue_is_detected() {
    let src = r#"
queue q0 i32 x 4
func @main() -> i32 {
bb0:
  %v = dequeue i32 q0
  out %v
  ret %v
}
"#;
    let mut m = twill_ir::parser::parse_module(src).unwrap();
    twill_ir::layout::assign_global_addrs(&mut m);
    let err = twill_rt::simulate_pure_sw(&m, vec![], &SimConfig::default()).unwrap_err();
    match err {
        twill_rt::SimError::Deadlock { report, partial } => {
            assert!(report.cycle > 0);
            // The lone agent is reported stuck on the never-filled queue.
            assert!(
                report
                    .agents
                    .iter()
                    .any(|a| a.state == twill_rt::WaitState::QueueEmpty { queue: 0 }),
                "{}",
                report.render()
            );
            // The partial report still carries the run so far.
            assert_eq!(partial.cycles, report.cycle);
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

/// Exceeding `max_cycles` yields a timeout error rather than hanging.
#[test]
fn timeout_reported_when_budget_exhausted() {
    let src = r#"
int main() {
  int s = 0;
  for (int i = 0; i < 100000; i++) s += i;
  out(s);
  return 0;
}
"#;
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    let cfg = SimConfig { max_cycles: 50, ..Default::default() };
    let err = twill_rt::simulate_pure_sw(&m, vec![], &cfg).unwrap_err();
    match err {
        twill_rt::SimError::Timeout { max_cycles, partial } => {
            assert_eq!(max_cycles, 50);
            // The partial report covers the truncated run.
            assert_eq!(partial.cycles, 50);
        }
        other => panic!("expected timeout, got {other}"),
    }
}

/// The configured queue depth bounds occupancy, and shrinking it never
/// changes the computed output (only timing).
#[test]
fn queue_depth_bounds_occupancy_without_changing_output() {
    let src = r#"
int main() {
  unsigned int acc = 0;
  for (int i = 0; i < 40; i++) {
    unsigned int x = (unsigned int)(i * 2654435761u);
    unsigned int y = (x >> 7) ^ x;
    acc = acc * 31 + y;
  }
  out((int) acc);
  return 0;
}
"#;
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    let d = twill_dswp::run_dswp(
        &m,
        &twill_dswp::DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.4, 0.6]),
            ..Default::default()
        },
    );
    let shallow = SimConfig { queue_depth: Some(2), ..Default::default() };
    let deep = SimConfig { queue_depth: Some(32), ..Default::default() };
    let r2 = simulate_hybrid(&d, vec![], &shallow).unwrap();
    let r32 = simulate_hybrid(&d, vec![], &deep).unwrap();
    assert_eq!(r2.output, r32.output, "depth is a timing knob only");
    assert!(r2.stats.queue_peak.iter().all(|&p| p <= 2), "{:?}", r2.stats.queue_peak);
    assert!(r2.cycles >= r32.cycles, "shallower queues can only stall more");
}

/// Raising queue latency can only slow a pipeline down, never change its
/// result.
#[test]
fn queue_latency_monotonic_in_cycles() {
    let src = r#"
int main() {
  unsigned int acc = 0;
  for (int i = 0; i < 40; i++) {
    unsigned int x = (unsigned int)(i * 2654435761u);
    unsigned int y = (x >> 7) ^ x;
    acc = acc * 31 + y;
  }
  out((int) acc);
  return 0;
}
"#;
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    let d = twill_dswp::run_dswp(
        &m,
        &twill_dswp::DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.4, 0.6]),
            ..Default::default()
        },
    );
    let mut prev = 0u64;
    let mut reference: Option<Vec<i32>> = None;
    for lat in [2u32, 8, 32, 128] {
        let cfg = SimConfig { queue_latency: lat, ..Default::default() };
        let r = simulate_hybrid(&d, vec![], &cfg).unwrap();
        match &reference {
            None => reference = Some(r.output.clone()),
            Some(out) => assert_eq!(&r.output, out, "latency {lat} changed the result"),
        }
        assert!(r.cycles >= prev, "latency {lat}: {} < {}", r.cycles, prev);
        prev = r.cycles;
    }
}
