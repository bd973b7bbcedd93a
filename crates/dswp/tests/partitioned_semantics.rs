//! The DSWP extraction preserves semantics on hand-written shapes: each
//! program, partitioned and run on the cycle-level simulator (software
//! master on the CPU, hardware threads beside it), must reproduce the
//! reference interpreter's output stream and return value.

use twill_dswp::extract::DswpStats;
use twill_dswp::{run_dswp, DswpOptions};
use twill_rt::SimConfig;

/// Compile mini-C, run reference, run DSWP, simulate, compare.
fn check(src: &str, input: Vec<i32>, opts: &DswpOptions) -> DswpStats {
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    let (ref_out, ref_ret, _) = twill_ir::interp::run_main(&m, input.clone(), 200_000_000).unwrap();

    let r = run_dswp(&m, opts);
    twill_ir::verifier::assert_valid(&r.module);
    for f in &r.module.funcs {
        let errs = twill_passes::utils::verify_dominance(f);
        assert!(errs.is_empty(), "@{}: {errs:?}", f.name);
    }
    let rep = twill_rt::simulate_hybrid(&r, input, &SimConfig::default())
        .unwrap_or_else(|e| panic!("partitioned run failed: {e}"));
    assert_eq!(ref_out, rep.output, "output mismatch");
    if ref_ret.is_some() {
        assert_eq!(ref_ret, rep.ret, "return value mismatch");
    }
    r.stats
}

#[test]
fn simple_loop_two_partitions() {
    let stats = check(
        r#"
int main() {
  int s = 0;
  for (int i = 0; i < 50; i++) {
    s += i * i;
  }
  out(s);
  return s;
}
"#,
        vec![],
        &DswpOptions { num_partitions: 2, ..Default::default() },
    );
    // With the loop-boundary software guard the whole hot loop may
    // land in one hardware partition; correctness is what matters.
    assert_eq!(stats.partitions, 2);
}

#[test]
fn three_partition_pipeline() {
    check(
        r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 40; i++) {
    int x = i * 3 + 1;
    int y = (x << 2) ^ x;
    int z = y % 7;
    acc += z;
  }
  out(acc);
  return 0;
}
"#,
        vec![],
        &DswpOptions { num_partitions: 3, ..Default::default() },
    );
}

#[test]
fn branches_inside_loop() {
    check(
        r#"
int main() {
  int even = 0, odd = 0;
  for (int i = 0; i < 30; i++) {
    if (i % 2 == 0) even += i;
    else odd += i * 2;
  }
  out(even);
  out(odd);
  return 0;
}
"#,
        vec![],
        &DswpOptions { num_partitions: 2, ..Default::default() },
    );
}

#[test]
fn memory_traffic_through_global_array() {
    check(
        r#"
int buf[64];
int main() {
  for (int i = 0; i < 64; i++) buf[i] = i * 5;
  int s = 0;
  for (int i = 0; i < 64; i++) s += buf[i];
  out(s);
  return 0;
}
"#,
        vec![],
        &DswpOptions { num_partitions: 2, ..Default::default() },
    );
}

#[test]
fn function_calls_partitioned() {
    check(
        r#"
int work(int x) {
  int r = 0;
  for (int i = 0; i < 8; i++) r += (x ^ i) * 3;
  return r;
}
int main() {
  int total = 0;
  for (int i = 0; i < 10; i++) {
    total += work(i + in());
  }
  out(total);
  return 0;
}
"#,
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        &DswpOptions { num_partitions: 2, ..Default::default() },
    );
}

#[test]
fn input_stream_consumed_in_order() {
    check(
        r#"
int main() {
  int s = 0;
  for (int i = 0; i < 6; i++) {
    int v = in();
    s = s * 31 + v;
  }
  out(s);
  return 0;
}
"#,
        vec![5, 4, 3, 2, 1, 0],
        &DswpOptions { num_partitions: 3, ..Default::default() },
    );
}

#[test]
fn pruning_on_and_off_agree() {
    let src = r#"
int main() {
  int a = 0, b = 0;
  for (int i = 0; i < 25; i++) {
    if (i & 1) a += i * 7;
    b ^= i << 3;
  }
  out(a);
  out(b);
  return 0;
}
"#;
    check(src, vec![], &DswpOptions { num_partitions: 2, prune: true, ..Default::default() });
    check(src, vec![], &DswpOptions { num_partitions: 2, prune: false, ..Default::default() });
}

#[test]
fn single_partition_is_identity_semantics() {
    check(
        "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; out(s); return 0; }",
        vec![],
        &DswpOptions { num_partitions: 1, ..Default::default() },
    );
}
