//! Strongly connected components of the PDG (iterative Tarjan) and the
//! condensed SCC DAG the DSWP partitioner works on.

use crate::graph::Pdg;

/// Work counter behind the SCC complexity guard (`complexity_guard`
/// tests): Tarjan steps and DAG-edge visits. Compiled out of non-test
/// builds.
#[cfg(test)]
pub(crate) mod work {
    use std::cell::Cell;

    thread_local! {
        static TOUCHES: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn touch(n: usize) {
        TOUCHES.with(|t| t.set(t.get() + n as u64));
    }

    /// Read and reset this thread's counter.
    pub(crate) fn take() -> u64 {
        TOUCHES.with(|t| t.replace(0))
    }
}

#[cfg(not(test))]
mod work {
    #[inline(always)]
    pub(super) fn touch(_n: usize) {}
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SccId(pub u32);

impl SccId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Condensation of the PDG: every node belongs to exactly one SCC; edges
/// between distinct SCCs form a DAG.
///
/// SCC ids follow Tarjan's emission order, which is a reverse topological
/// order: every DAG edge runs from a higher id to a lower one, so walking
/// the ids downwards visits dependencies first. No separate topological
/// order is stored.
pub struct SccDag {
    /// SCC id per PDG node index.
    pub scc_of: Vec<SccId>,
    /// Member PDG nodes per SCC, ascending.
    pub members: Vec<Vec<usize>>,
    /// DAG edges: `succs[s]` = SCCs that depend on s (must run after), in
    /// order of first appearance among the PDG edges of s's members.
    pub succs: Vec<Vec<SccId>>,
    /// Reverse DAG edges: `preds[s]` = SCCs s depends on, ascending.
    pub preds: Vec<Vec<SccId>>,
}

impl SccDag {
    pub fn new(pdg: &Pdg) -> SccDag {
        let n = pdg.len();
        // Iterative Tarjan.
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut scc_of = vec![SccId(u32::MAX); n];
        let mut members: Vec<Vec<usize>> = Vec::new();

        #[derive(Clone)]
        struct Frame {
            v: usize,
            edge: usize,
        }

        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut call: Vec<Frame> = vec![Frame { v: root, edge: 0 }];
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;

            while let Some(fr) = call.last_mut() {
                work::touch(1);
                let v = fr.v;
                if fr.edge < pdg.edges[v].len() {
                    let (w, _) = pdg.edges[v][fr.edge];
                    fr.edge += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push(Frame { v: w, edge: 0 });
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let sid = SccId(members.len() as u32);
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w] = false;
                            scc_of[w] = sid;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        work::touch(comp.len());
                        comp.sort();
                        members.push(comp);
                    }
                    let done = call.pop().unwrap();
                    if let Some(parent) = call.last() {
                        low[parent.v] = low[parent.v].min(low[done.v]);
                    }
                }
            }
        }

        // Condensed DAG edges, deduplicated with a per-target marker: the
        // SCCs are walked one at a time, so `mark[t] == s` means the edge
        // s→t is already recorded. Walking the SCCs in id order fills every
        // `preds` list in ascending order.
        let nscc = members.len();
        let mut succs: Vec<Vec<SccId>> = vec![Vec::new(); nscc];
        let mut preds: Vec<Vec<SccId>> = vec![Vec::new(); nscc];
        let mut mark = vec![usize::MAX; nscc];
        for (s, ms) in members.iter().enumerate() {
            for &t in ms {
                work::touch(1 + pdg.edges[t].len());
                for &(h, _) in &pdg.edges[t] {
                    let sh = scc_of[h];
                    if sh.index() != s && mark[sh.index()] != s {
                        mark[sh.index()] = s;
                        succs[s].push(sh);
                        preds[sh.index()].push(SccId(s as u32));
                    }
                }
            }
        }

        SccDag { scc_of, members, succs, preds }
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Pdg, PdgOptions};
    use twill_passes::callgraph::function_effects;

    fn dag_for(src: &str) -> (twill_ir::Module, SccDag, Pdg) {
        let m = twill_ir::parser::parse_module(src).unwrap();
        let fx = function_effects(&m);
        let pdg = Pdg::build(&m, &m.funcs[0], &fx, &PdgOptions::default());
        let dag = SccDag::new(&pdg);
        (m, dag, pdg)
    }

    #[test]
    fn straightline_is_all_singletons() {
        let (_, dag, pdg) = dag_for(
            "func @f(i32) -> i32 {\nbb0:\n  %0 = add i32 %a0, 1:i32\n  %1 = mul i32 %0, 2:i32\n  ret %1\n}\n",
        );
        assert_eq!(dag.len(), pdg.len());
        assert!(dag.members.iter().all(|m| m.len() == 1));
    }

    #[test]
    fn loop_counter_cycle_is_one_scc() {
        let (m, dag, pdg) = dag_for(
            r#"
func @f(i32) -> i32 {
bb0:
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  %ni = add i32 %i, 1:i32
  %c = cmp slt %ni, %a0
  condbr %c, bb1, bb2
bb2:
  ret %i
}
"#,
        );
        let f = &m.funcs[0];
        // phi and add form a data cycle; the condbr controls them (and
        // itself is data-dependent on them) so all are one SCC.
        let phi = pdg.node_of[f.block(twill_ir::BlockId(1)).insts[0].index()];
        let add = pdg.node_of[f.block(twill_ir::BlockId(1)).insts[1].index()];
        let cbr = pdg.node_of[f.block(twill_ir::BlockId(1)).insts[3].index()];
        assert_eq!(dag.scc_of[phi], dag.scc_of[add]);
        assert_eq!(dag.scc_of[phi], dag.scc_of[cbr]);
        let _ = dag.len();
    }

    #[test]
    fn topo_respects_edges() {
        let (_, dag, _) = dag_for(
            r#"
func @f(i32) -> i32 {
bb0:
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  %ni = add i32 %i, 1:i32
  %sq = mul i32 %i, %i
  out %sq
  %c = cmp slt %ni, %a0
  condbr %c, bb1, bb2
bb2:
  ret %i
}
"#,
        );
        // Tarjan's emission order is the reverse topological order: every
        // DAG edge points from a higher SCC id to a lower one.
        let mut edges = 0;
        for (s, succs) in dag.succs.iter().enumerate() {
            for nx in succs {
                assert!(nx.index() < s, "emission order violated: {s} -> {}", nx.index());
                assert!(dag.preds[nx.index()].contains(&SccId(s as u32)));
                edges += 1;
            }
        }
        assert!(edges > 0, "the loop must give the DAG edges");
        assert_eq!(dag.preds.iter().map(Vec::len).sum::<usize>(), edges);
    }

    #[test]
    fn two_independent_loops_are_separate_sccs() {
        let (m, dag, pdg) = dag_for(
            r#"
func @f(i32) -> i32 {
bb0:
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  %s = phi i32 [bb0: 0:i32], [bb1: %ns]
  %ni = add i32 %i, 1:i32
  %ns = add i32 %s, 7:i32
  %c = cmp slt %ni, %a0
  condbr %c, bb1, bb2
bb2:
  ret %s
}
"#,
        );
        let f = &m.funcs[0];
        let i_phi = pdg.node_of[f.block(twill_ir::BlockId(1)).insts[0].index()];
        let s_phi = pdg.node_of[f.block(twill_ir::BlockId(1)).insts[1].index()];
        // The induction SCC {i, ni, c, condbr} is distinct from {s, ns}
        // even though the latter is control dependent on the former.
        assert_ne!(dag.scc_of[i_phi], dag.scc_of[s_phi]);
    }
}
