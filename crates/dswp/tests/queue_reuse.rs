//! The thesis §5.2 queue-reuse optimization: queues between the same
//! partition pair in different functions share hardware, guarded by
//! semaphores when call sites may overlap.

use twill_dswp::{run_dswp, DswpOptions};

fn prepared() -> twill_ir::Module {
    // Two callees, each with cross-partition traffic, called from main's
    // loop — reusable queue pairs across @stage_a/@stage_b.
    let src = r#"
int stage_a(int x) {
  int r = 0;
  for (int i = 0; i < 6; i++) r += (x ^ i) * 3;
  return r;
}
int stage_b(int x) {
  int r = 1;
  for (int i = 0; i < 6; i++) r = r * 2 + (x & i);
  return r;
}
int main() {
  int acc = 0;
  for (int i = 0; i < 10; i++) {
    acc += stage_a(i) - stage_b(acc);
  }
  out(acc);
  return 0;
}
"#;
    let mut m = twill_frontend::compile("reuse", src).unwrap();
    // Keep the callees out-of-line.
    let opts = twill_passes::PipelineOptions {
        inline: twill_passes::inline::InlineOptions {
            small_threshold: 0,
            single_site_threshold: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    twill_passes::run_standard_pipeline(&mut m, &opts);
    assert!(m.funcs.len() >= 3, "callees must survive");
    m
}

#[test]
fn reuse_reduces_queues_and_preserves_semantics() {
    let m = prepared();
    let base_opts =
        DswpOptions { num_partitions: 2, split_points: Some(vec![0.5, 0.5]), ..Default::default() };
    let plain = run_dswp(&m, &base_opts);
    let reuse = run_dswp(&m, &DswpOptions { reuse_queues: true, ..base_opts.clone() });

    assert!(
        reuse.stats.queues <= plain.stats.queues,
        "reuse should not increase queues: {} vs {}",
        reuse.stats.queues,
        plain.stats.queues
    );

    let r1 = twill_rt::simulate_hybrid(&plain, vec![], &Default::default()).unwrap();
    let r2 = twill_rt::simulate_hybrid(&reuse, vec![], &Default::default()).unwrap();
    assert_eq!(r1.output, r2.output, "queue reuse changed behaviour");
}

#[test]
fn reuse_semaphore_accounting_is_bounded() {
    let m = prepared();
    let reuse = run_dswp(
        &m,
        &DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.5, 0.5]),
            reuse_queues: true,
            ..Default::default()
        },
    );
    assert!(reuse.stats.semaphores <= m.funcs.len());
}
