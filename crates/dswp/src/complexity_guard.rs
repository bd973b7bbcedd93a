//! Deterministic complexity guard for the greedy SCC placement. Runs
//! [`Placement::compute_for`] (k = 2..4, and once with explicit split
//! points) on synthetic functions of N, 2N and 4N independent straight-line
//! chains and bounds the growth of the work counter
//! ([`crate::placement::work`]) instead of wall time: linear work grows 4×
//! from N to 4N, quadratic work 16×.

use crate::placement::{work, DswpOptions, Placement};
use std::fmt::Write;
use twill_passes::callgraph::function_effects;
use twill_pdg::{NodeWeights, Pdg, PdgOptions, SccDag};

/// Chains in the smallest (N-chain) function.
const CHAINS: usize = 64;
/// Instructions per chain.
const CHAIN_LEN: usize = 4;
/// Allowed work(4N) / work(N).
const MAX_GROWTH: f64 = 6.0;

/// One block of `chains` independent chains of dependent arithmetic, each
/// starting from the argument: every chain head is available at once, so
/// the available set holds N SCCs while the stages fill.
fn synthetic(chains: usize) -> twill_ir::Module {
    let mut s = String::from("func @main(i32) -> i32 {\nbb0:\n");
    for c in 0..chains {
        let mut prev = "%a0".to_string();
        for j in 0..CHAIN_LEN {
            let op = ["add", "mul", "xor", "sub"][j % 4];
            writeln!(s, "  %c{c}_{j} = {op} i32 {prev}, {}:i32", c + j).unwrap();
            prev = format!("%c{c}_{j}");
        }
    }
    s.push_str("  ret 0:i32\n}\n");
    twill_ir::parser::parse_module(&s).unwrap()
}

/// Placement work on the `chains`-chain function under `opts`.
fn work_of(chains: usize, opts: &DswpOptions) -> u64 {
    let m = synthetic(chains);
    let f = &m.funcs[0];
    let pdg = Pdg::build(&m, f, &function_effects(&m), &PdgOptions::default());
    let dag = SccDag::new(&pdg);
    let w = NodeWeights::compute(f, &pdg);
    work::take();
    let p = Placement::compute_for(f, &pdg, &dag, &w, opts, true);
    let work = work::take();
    let used = p.weight.iter().filter(|&&x| x > 0).count();
    assert_eq!(used, opts.num_partitions, "every stage must take work: {:?}", p.weight);
    work
}

fn assert_linear(opts: &DswpOptions) {
    let w: Vec<u64> = [1, 2, 4].iter().map(|k| work_of(k * CHAINS, opts)).collect();
    let growth = w[2] as f64 / w[0] as f64;
    assert!(
        growth <= MAX_GROWTH,
        "compute_for (k = {}, split points {:?}): work at N/2N/4N = {w:?} (N = {CHAINS} chains) \
         grows {growth:.1}x from N to 4N; linear is 4x, quadratic 16x",
        opts.num_partitions,
        opts.split_points
    );
}

#[test]
fn placement_work_is_linear() {
    for k in 2..=4 {
        assert_linear(&DswpOptions { num_partitions: k, ..Default::default() });
    }
}

#[test]
fn placement_with_split_points_work_is_linear() {
    assert_linear(&DswpOptions {
        num_partitions: 3,
        split_points: Some(vec![0.4, 0.3, 0.3]),
        ..Default::default()
    });
}
