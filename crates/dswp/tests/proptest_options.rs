//! Property: the DSWP extraction is semantics-preserving for *every*
//! combination of its options. For random partition counts, split points
//! and toggles, the simulated partitioned run must reproduce the reference
//! interpreter's output stream and return value exactly, and the emitted
//! module must pass the IR verifier.

use proptest::prelude::*;
use twill_dswp::{run_dswp, DswpOptions};
use twill_rt::SimConfig;

const PROGRAMS: &[&str] = &[
    // Forward-decoupling hash pipeline.
    r#"
int main() {
  unsigned int acc = 0;
  for (int i = 0; i < 30; i++) {
    unsigned int x = (unsigned int)(i * 2654435761u);
    unsigned int y = (x >> 7) ^ (x << 3);
    acc = acc * 31 + y;
  }
  out((int) acc);
  return 0;
}
"#,
    // Memory-carried: produce into an array, then reduce it.
    r#"
int buf[24];
int main() {
  for (int i = 0; i < 24; i++) buf[i] = (i * 17) ^ (i << 4);
  int s = 0;
  for (int i = 0; i < 24; i++) s += buf[i];
  out(s);
  return s;
}
"#,
    // Call in the hot loop + data-dependent control.
    r#"
int mix(int a, int b) { return (a * 31) ^ (b >> 3); }
int main() {
  int acc = 7;
  for (int i = 0; i < 25; i++) {
    if (i % 3 == 0) acc = mix(acc, i * 1103515245);
    else acc = acc + i;
  }
  out(acc);
  return 0;
}
"#,
];

fn prepare(src: &str) -> twill_ir::Module {
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    m
}

fn split_strategy() -> impl Strategy<Value = (usize, Vec<f64>)> {
    (2usize..=4).prop_flat_map(|k| {
        (
            Just(k),
            proptest::collection::vec(1u32..=10, k).prop_map(|raw| {
                let total: u32 = raw.iter().sum();
                raw.iter().map(|&r| r as f64 / total as f64).collect()
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn any_option_combination_preserves_semantics(
        prog_idx in 0usize..PROGRAMS.len(),
        (k, splits) in split_strategy(),
        prune in any::<bool>(),
        phi_const_pairs in any::<bool>(),
        freq_weights in any::<bool>(),
        reuse_queues in any::<bool>(),
    ) {
        let m = prepare(PROGRAMS[prog_idx]);
        let (want_out, want_ret, _) =
            twill_ir::interp::run_main(&m, vec![], 50_000_000).unwrap();

        let opts = DswpOptions {
            num_partitions: k,
            split_points: Some(splits),
            prune,
            phi_const_pairs,
            freq_weights,
            reuse_queues,
            ..Default::default()
        };
        let r = run_dswp(&m, &opts);
        twill_ir::verifier::assert_valid(&r.module);
        prop_assert_eq!(r.stats.queues, r.stats.data_queues + r.stats.token_queues);

        let rep = twill_rt::simulate_hybrid(&r, vec![], &SimConfig::default())
            .map_err(|e| TestCaseError::fail(format!("simulation failed: {e}")))?;
        prop_assert_eq!(&rep.output, &want_out);
        prop_assert_eq!(rep.ret, want_ret);
    }
}
