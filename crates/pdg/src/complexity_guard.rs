//! Deterministic complexity guard for the SCC condensation. Runs
//! [`SccDag::new`] on synthetic functions of N, 2N and 4N independent
//! straight-line chains and bounds the growth of the work counter
//! ([`crate::scc::work`]) instead of wall time: linear work grows 4× from N
//! to 4N, quadratic work 16×.

use crate::graph::{Pdg, PdgOptions};
use crate::scc::{work, SccDag};
use std::fmt::Write;
use twill_passes::callgraph::function_effects;

/// Chains in the smallest (N-chain) function.
const CHAINS: usize = 64;
/// Instructions per chain.
const CHAIN_LEN: usize = 4;
/// Allowed work(4N) / work(N).
const MAX_GROWTH: f64 = 6.0;

/// One block of `chains` independent chains of dependent arithmetic, each
/// starting from the argument: every chain head is a DAG root, so all of
/// them are ready at once.
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

#[test]
fn scc_condensation_work_is_linear() {
    let w: Vec<u64> = [1, 2, 4]
        .iter()
        .map(|k| {
            let m = synthetic(k * CHAINS);
            let pdg = Pdg::build(&m, &m.funcs[0], &function_effects(&m), &PdgOptions::default());
            work::take();
            let dag = SccDag::new(&pdg);
            let w = work::take();
            assert_eq!(dag.len(), k * CHAINS * CHAIN_LEN + 1, "every instruction is its own SCC");
            w
        })
        .collect();
    let growth = w[2] as f64 / w[0] as f64;
    assert!(
        growth <= MAX_GROWTH,
        "SccDag::new: work at N/2N/4N = {w:?} (N = {CHAINS} chains) grows {growth:.1}x from N \
         to 4N; linear is 4x, quadratic 16x"
    );
}
