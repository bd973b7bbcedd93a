//! Structural invariants of the DSWP extraction output: whatever the
//! placement decides, the produced module must verify, the thread table
//! must be consistent with the stats, and the simulated run of all
//! partitions must match the single-threaded reference.

use twill_dswp::{run_dswp, DswpOptions, DswpResult};
use twill_rt::SimConfig;

fn prepare(src: &str) -> twill_ir::Module {
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    m
}

fn reference(m: &twill_ir::Module, input: Vec<i32>) -> (Vec<i32>, Option<i64>) {
    let (out, ret, _) = twill_ir::interp::run_main(m, input, 50_000_000).unwrap();
    (out, ret)
}

const PIPELINE_SRC: &str = r#"
int main() {
  unsigned int acc = 0;
  for (int i = 0; i < 50; i++) {
    unsigned int x = (unsigned int)(i * 2654435761u);
    unsigned int y = (x >> 7) ^ (x << 3);
    unsigned int z = (y * 31u) + 17u;
    acc = acc ^ z;
  }
  out((int) acc);
  return 0;
}
"#;

fn check_invariants(r: &DswpResult) {
    twill_ir::verifier::assert_valid(&r.module);

    // Threads: partition 0 exists exactly once and is the software master.
    let sw: Vec<_> = r.threads.iter().filter(|t| !t.is_hw).collect();
    assert_eq!(sw.len(), 1, "exactly one software master");
    assert_eq!(sw[0].partition, 0);
    for t in &r.threads {
        assert!(t.entry.index() < r.module.funcs.len(), "entry in range");
    }
    // Partition indices are unique.
    let mut parts: Vec<usize> = r.threads.iter().map(|t| t.partition).collect();
    parts.sort();
    parts.dedup();
    assert_eq!(parts.len(), r.threads.len(), "partitions unique");

    // Stats consistency.
    assert_eq!(r.stats.queues, r.stats.data_queues + r.stats.token_queues);
    assert_eq!(r.stats.queues, r.module.queues.len());
    assert_eq!(r.stats.semaphores, r.module.sems.len());
    assert_eq!(r.stats.hw_threads, r.threads.iter().filter(|t| t.is_hw).count());
    assert!(r.stats.insts_per_partition.iter().sum::<usize>() > 0);
}

#[test]
fn two_partition_split_verifies_and_matches_reference() {
    let m = prepare(PIPELINE_SRC);
    let (want_out, want_ret) = reference(&m, vec![]);
    for split in [0.2, 0.5, 0.8] {
        let r = run_dswp(
            &m,
            &DswpOptions {
                num_partitions: 2,
                split_points: Some(vec![split, 1.0 - split]),
                ..Default::default()
            },
        );
        check_invariants(&r);
        let rep = twill_rt::simulate_hybrid(&r, vec![], &SimConfig::default()).unwrap();
        assert_eq!(rep.output, want_out, "split {split}");
        assert_eq!(rep.ret, want_ret, "split {split}");
        let agents = &rep.stats.agent_cycles;
        assert_eq!(agents.len(), r.threads.len());
        assert!(agents.iter().all(|a| a.busy > 0), "every thread ran: {agents:?}");
    }
}

#[test]
fn single_partition_degenerates_to_no_queues() {
    let m = prepare(PIPELINE_SRC);
    let r = run_dswp(&m, &DswpOptions { num_partitions: 1, ..Default::default() });
    check_invariants(&r);
    assert_eq!(r.stats.queues, 0, "one partition needs no communication");
    assert_eq!(r.threads.len(), 1);
    let (want_out, want_ret) = reference(&m, vec![]);
    let rep = twill_rt::simulate_hybrid(&r, vec![], &SimConfig::default()).unwrap();
    assert_eq!(rep.output, want_out);
    assert_eq!(rep.ret, want_ret);
}

#[test]
fn forced_split_creates_data_queues() {
    let m = prepare(PIPELINE_SRC);
    let r = run_dswp(
        &m,
        &DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.5, 0.5]),
            ..Default::default()
        },
    );
    assert!(r.stats.data_queues >= 1, "{:?}", r.stats);
}

#[test]
fn cross_partition_stores_get_ordering_tokens() {
    // Two conflicting global accesses that a forced mid-split separates —
    // the extraction must insert memory-ordering token queues.
    let src = r#"
int buf[16];
int main() {
  for (int i = 0; i < 16; i++) {
    buf[i] = i * 3;
  }
  int s = 0;
  for (int i = 0; i < 16; i++) {
    s += buf[i];
  }
  out(s);
  return 0;
}
"#;
    let m = prepare(src);
    let (want_out, want_ret) = reference(&m, vec![]);
    let r = run_dswp(
        &m,
        &DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.5, 0.5]),
            ..Default::default()
        },
    );
    check_invariants(&r);
    let rep = twill_rt::simulate_hybrid(&r, vec![], &SimConfig::default()).unwrap();
    assert_eq!(rep.output, want_out);
    assert_eq!(rep.ret, want_ret);
}

#[test]
fn three_way_split_remains_correct() {
    let m = prepare(PIPELINE_SRC);
    let (want_out, want_ret) = reference(&m, vec![]);
    let r = run_dswp(
        &m,
        &DswpOptions {
            num_partitions: 3,
            split_points: Some(vec![0.34, 0.33, 0.33]),
            ..Default::default()
        },
    );
    check_invariants(&r);
    let rep = twill_rt::simulate_hybrid(&r, vec![], &SimConfig::default()).unwrap();
    assert_eq!(rep.output, want_out);
    assert_eq!(rep.ret, want_ret);
}

#[test]
fn input_values_flow_through_partitions() {
    let src = r#"
int main() {
  int n = in();
  int acc = 7;
  for (int i = 0; i < n; i++) {
    int x = in();
    int y = (x * 13) ^ (x >> 2);
    acc = acc * 31 + y;
  }
  out(acc);
  return acc;
}
"#;
    let m = prepare(src);
    let input = vec![5, 11, -3, 99, 0, 42];
    let (want_out, want_ret) = reference(&m, input.clone());
    let r = run_dswp(
        &m,
        &DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.4, 0.6]),
            ..Default::default()
        },
    );
    check_invariants(&r);
    let rep = twill_rt::simulate_hybrid(&r, input, &SimConfig::default()).unwrap();
    assert_eq!(rep.output, want_out);
    assert_eq!(rep.ret, want_ret);
}

#[test]
fn calls_are_versioned_per_partition() {
    // A helper called from the pipelined loop: every partition that needs
    // it gets its own version; the result flows to the caller partitions.
    let src = r#"
int mix(int a, int b) { return (a * 31) ^ (b >> 3); }
int main() {
  int acc = 0;
  for (int i = 0; i < 40; i++) {
    acc = mix(acc, i * 2654435761u);
  }
  out(acc);
  return 0;
}
"#;
    let m = prepare(src);
    let (want_out, want_ret) = reference(&m, vec![]);
    for k in [2usize, 3] {
        let r = run_dswp(
            &m,
            &DswpOptions {
                num_partitions: k,
                split_points: Some(vec![1.0 / k as f64; k]),
                ..Default::default()
            },
        );
        check_invariants(&r);
        let rep = twill_rt::simulate_hybrid(&r, vec![], &SimConfig::default()).unwrap();
        assert_eq!(rep.output, want_out, "k={k}");
        assert_eq!(rep.ret, want_ret, "k={k}");
    }
}

#[test]
fn stats_partition_sizes_cover_all_threads() {
    let m = prepare(PIPELINE_SRC);
    let r = run_dswp(
        &m,
        &DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.5, 0.5]),
            ..Default::default()
        },
    );
    assert_eq!(r.stats.partitions, r.threads.len());
    assert_eq!(r.stats.insts_per_partition.len(), r.stats.partitions);
    // Forced even split: both partitions hold real work.
    assert!(r.stats.insts_per_partition.iter().all(|&n| n > 0), "{:?}", r.stats);
}
