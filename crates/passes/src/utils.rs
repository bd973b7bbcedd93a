//! Shared CFG-editing utilities used by several transform passes.

use std::collections::{HashMap, HashSet};
use twill_ir::{BlockId, Function, InstId, Module, Op, Ty, Value};

/// Instruction-touch counter behind the complexity guard
/// (`complexity_guard` tests): CFG edits report every instruction they
/// rewrite or scan, so a test can bound how the work grows with function
/// size without timing anything. Compiled out of non-test builds.
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
pub(crate) mod work {
    #[inline(always)]
    pub(crate) fn touch(_n: usize) {}
}

/// Incremental CFG state for the fixpoint passes (`simplifycfg`,
/// `ifconvert`). Each rewrite updates it locally instead of recomputing
/// whole-function facts:
///
/// * `preds[b]` is `b`'s predecessor multiset (one entry per edge), kept
///   sorted by block index exactly as [`Function::predecessors`] returns it;
/// * deleted blocks are tombstoned (emptied, flagged) and the function is
///   compacted once in [`CfgEdit::finish`] — compaction preserves relative
///   block order, so "lowest index first" choices made on the tombstoned
///   numbering are the ones the compacted numbering would make;
/// * value replacements are deferred into a substitution map and resolved
///   over the instruction arena once, in [`CfgEdit::finish`].
pub(crate) struct CfgEdit {
    preds: Vec<Vec<BlockId>>,
    dead: Vec<bool>,
    subst: Vec<Option<Value>>,
}

impl CfgEdit {
    pub(crate) fn new(f: &Function) -> CfgEdit {
        CfgEdit {
            preds: f.predecessors(),
            dead: vec![false; f.blocks.len()],
            subst: vec![None; f.insts.len()],
        }
    }

    /// Predecessor multiset of `b`, sorted by block index.
    pub(crate) fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Record one new edge `from -> to`.
    pub(crate) fn add_edge(&mut self, from: BlockId, to: BlockId) {
        let ps = &mut self.preds[to.index()];
        let at = ps.partition_point(|&p| p <= from);
        ps.insert(at, from);
    }

    /// Forget one edge `from -> to`.
    pub(crate) fn remove_edge(&mut self, from: BlockId, to: BlockId) {
        let ps = &mut self.preds[to.index()];
        let at = ps.binary_search(&from).expect("removing an edge that is not recorded");
        ps.remove(at);
    }

    /// Tombstone block `b`: drop its instructions and the edges out of its
    /// terminator (if it still has one). Its own incoming edges must
    /// already be gone from the function.
    pub(crate) fn delete_block(&mut self, f: &mut Function, b: BlockId) {
        let insts = std::mem::take(&mut f.block_mut(b).insts);
        if let Some(&term) = insts.last() {
            for s in f.inst(term).op.successors() {
                self.remove_edge(b, s);
            }
        }
        self.preds[b.index()].clear();
        self.dead[b.index()] = true;
    }

    fn resolve(&self, mut v: Value) -> Value {
        while let Value::Inst(i) = v {
            match self.subst.get(i.index()) {
                Some(&Some(r)) => v = r,
                _ => break,
            }
        }
        v
    }

    /// Replace every use of `from` with `to`, deferred to
    /// [`CfgEdit::finish`]. Equivalent to an eager
    /// [`Function::replace_all_uses`] as long as no decision in between
    /// reads operand values: `to` is resolved against earlier
    /// replacements now, so chains stay acyclic.
    pub(crate) fn replace_uses(&mut self, from: InstId, to: Value) {
        let to = self.resolve(to);
        if to != Value::Inst(from) {
            if self.subst.len() <= from.index() {
                self.subst.resize(from.index() + 1, None);
            }
            self.subst[from.index()] = Some(to);
        }
    }

    /// Apply the deferred replacements across the instruction arena and
    /// compact away the tombstoned blocks.
    pub(crate) fn finish(self, f: &mut Function) {
        if self.subst.iter().any(Option::is_some) {
            work::touch(f.insts.len());
            for inst in &mut f.insts {
                inst.op.for_each_value_mut(|v| *v = self.resolve(*v));
            }
        }
        if self.dead.iter().any(|&d| d) {
            let keep: Vec<bool> = self.dead.iter().map(|&d| !d).collect();
            compact_blocks(f, &keep);
        }
    }
}

/// Blocks reachable from the entry.
pub fn reachable_blocks(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry];
    seen[f.entry.index()] = true;
    while let Some(b) = stack.pop() {
        for s in f.successors(b) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Reverse post-order of reachable blocks.
pub fn rpo(f: &Function) -> Vec<BlockId> {
    let mut state = vec![0u8; f.blocks.len()];
    let mut order = Vec::new();
    let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = vec![(f.entry, f.successors(f.entry), 0)];
    state[f.entry.index()] = 1;
    while let Some((b, succs, idx)) = stack.last_mut() {
        if *idx < succs.len() {
            let next = succs[*idx];
            *idx += 1;
            if state[next.index()] == 0 {
                state[next.index()] = 1;
                let nsuccs = f.successors(next);
                stack.push((next, nsuccs, 0));
            }
        } else {
            order.push(*b);
            stack.pop();
        }
    }
    order.reverse();
    order
}

/// Remove blocks not reachable from entry, compacting block ids and fixing
/// phi incoming lists. Returns true if anything was removed.
pub fn remove_unreachable_blocks(f: &mut Function) -> bool {
    let keep = reachable_blocks(f);
    if keep.iter().all(|&k| k) {
        return false;
    }
    // First drop phi entries whose predecessor is being removed.
    let removed: HashSet<BlockId> =
        (0..f.blocks.len()).filter(|&i| !keep[i]).map(BlockId::new).collect();
    work::touch(f.insts.len());
    for inst in &mut f.insts {
        if let Op::Phi(incoming) = &mut inst.op {
            incoming.retain(|(b, _)| !removed.contains(b));
        }
    }
    compact_blocks(f, &keep);
    true
}

/// Keep only blocks with `keep[i]`, renumbering all references.
/// Every kept block's branches must target kept blocks.
pub fn compact_blocks(f: &mut Function, keep: &[bool]) {
    let mut remap: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    let mut next = 0u32;
    for (i, &k) in keep.iter().enumerate() {
        if k {
            remap[i] = Some(BlockId(next));
            next += 1;
        }
    }
    let mut new_blocks = Vec::with_capacity(next as usize);
    for (i, b) in f.blocks.drain(..).enumerate() {
        if keep[i] {
            new_blocks.push(b);
        }
    }
    f.blocks = new_blocks;
    // Only live (block-resident) instructions are rewritten; dead arena
    // slots may hold stale references and are never consulted.
    let live: Vec<InstId> = f.inst_ids_in_layout().into_iter().map(|(_, i)| i).collect();
    work::touch(live.len());
    for iid in live {
        let inst = f.inst_mut(iid);
        inst.op.for_each_successor_mut(|b| {
            *b = remap[b.index()].expect("branch to removed block");
        });
        if let Op::Phi(incoming) = &mut inst.op {
            for (b, _) in incoming.iter_mut() {
                *b = remap[b.index()].expect("phi incoming from removed block");
            }
        }
    }
    f.entry = remap[f.entry.index()].expect("entry removed");
}

/// Replace, in block `tgt`'s phis, incoming entries from `old_pred` with
/// `new_pred` (used when an edge is re-routed through a new block).
pub fn retarget_phi_pred(f: &mut Function, tgt: BlockId, old_pred: BlockId, new_pred: BlockId) {
    for iid in phis(f, tgt) {
        if let Op::Phi(incoming) = &mut f.inst_mut(iid).op {
            for (b, _) in incoming.iter_mut() {
                if *b == old_pred {
                    *b = new_pred;
                }
            }
        }
    }
}

/// The phis at the head of block `b`.
pub(crate) fn phis(f: &Function, b: BlockId) -> Vec<InstId> {
    let phis: Vec<InstId> =
        f.block(b).insts.iter().copied().take_while(|&i| f.inst(i).op.is_phi()).collect();
    work::touch(phis.len() + 1);
    phis
}

/// Split the CFG edge `from -> to`, inserting a fresh block containing only
/// a branch. Returns the new block. Handles phi retargeting in `to`.
pub fn split_edge(f: &mut Function, from: BlockId, to: BlockId) -> BlockId {
    let mid = f.create_block(format!("split.{}.{}", from.0, to.0));
    // The bridge branch attributes to the edge's source terminator.
    let term = f.block(from).terminator().expect("block without terminator");
    let br = f.create_inst_at(Op::Br(to), Ty::Void, f.loc(term));
    f.block_mut(mid).insts.push(br);
    // Retarget the terminator edge(s) from -> to onto mid.
    f.inst_mut(term).op.for_each_successor_mut(|b| {
        if *b == to {
            *b = mid;
        }
    });
    retarget_phi_pred(f, to, from, mid);
    mid
}

/// Delete the given instructions from their blocks (they remain as dead
/// arena slots; the verifier only checks block-resident instructions).
pub fn remove_insts(f: &mut Function, dead: &HashSet<InstId>) {
    if dead.is_empty() {
        return;
    }
    for b in 0..f.blocks.len() {
        f.blocks[b].insts.retain(|i| !dead.contains(i));
    }
}

/// Map from instruction to the set of instructions that use its result.
pub fn users(f: &Function) -> HashMap<InstId, Vec<InstId>> {
    let mut map: HashMap<InstId, Vec<InstId>> = HashMap::new();
    for (_, iid) in f.inst_ids_in_layout() {
        f.inst(iid).op.for_each_value(|v| {
            if let Value::Inst(d) = v {
                map.entry(d).or_default().push(iid);
            }
        });
    }
    map
}

/// Verify that every use of an instruction result is dominated by its
/// definition (the SSA property the structural verifier can't check).
pub fn verify_dominance(f: &Function) -> Vec<String> {
    let dt = crate::domtree::DomTree::new(f);
    let owner = f.inst_blocks();
    let mut errs = Vec::new();
    // Position of each instruction within its block for same-block checks.
    let mut pos: HashMap<InstId, usize> = HashMap::new();
    for b in f.block_ids() {
        for (i, &iid) in f.block(b).insts.iter().enumerate() {
            pos.insert(iid, i);
        }
    }
    for b in f.block_ids() {
        if !dt.is_reachable(b) {
            continue;
        }
        for &iid in &f.block(b).insts {
            let inst = f.inst(iid);
            if let Op::Phi(incoming) = &inst.op {
                // Each incoming value must dominate the *predecessor edge*.
                for (pred, v) in incoming {
                    if let Value::Inst(d) = v {
                        let db = match owner[d.index()] {
                            Some(x) => x,
                            None => {
                                errs.push(format!("phi {iid} uses dead {d}"));
                                continue;
                            }
                        };
                        if !dt.is_reachable(*pred) {
                            continue;
                        }
                        if !dt.dominates(db, *pred) {
                            errs.push(format!(
                                "phi {iid} in {b}: {d} (def in {db}) does not dominate edge from {pred}"
                            ));
                        }
                    }
                }
                continue;
            }
            inst.op.for_each_value(|v| {
                if let Value::Inst(d) = v {
                    let db = match owner[d.index()] {
                        Some(x) => x,
                        None => {
                            errs.push(format!("{iid} uses dead {d}"));
                            return;
                        }
                    };
                    let ok = if db == b { pos[&d] < pos[&iid] } else { dt.dominates(db, b) };
                    if !ok {
                        errs.push(format!("{iid} in {b}: use of {d} (def in {db}) not dominated"));
                    }
                }
            });
        }
    }
    errs
}

/// Assert full validity: structural + dominance, panicking with a report.
pub fn assert_valid_ssa(m: &Module) {
    twill_ir::verifier::assert_valid(m);
    for f in &m.funcs {
        let errs = verify_dominance(f);
        if !errs.is_empty() {
            panic!("SSA dominance violated in @{}:\n{}", f.name, errs.join("\n"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::parser::parse_module;

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let src = r#"
func @f(i1) -> void {
bb0:
  condbr %a0, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let order = rpo(&m.funcs[0]);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], BlockId(0));
        assert_eq!(*order.last().unwrap(), BlockId(3));
    }

    #[test]
    fn removes_unreachable_and_fixes_phis() {
        let src = r#"
func @f() -> i32 {
bb0:
  br bb2
bb1:
  br bb2
bb2:
  %0 = phi i32 [bb0: 1:i32], [bb1: 2:i32]
  ret %0
}
"#;
        let mut m = parse_module(src).unwrap();
        let f = &mut m.funcs[0];
        assert!(remove_unreachable_blocks(f));
        assert_eq!(f.blocks.len(), 2);
        // Phi entry from dead bb1 dropped; block ids compacted.
        let phi = f.block(BlockId(1)).insts[0];
        match &f.inst(phi).op {
            Op::Phi(inc) => {
                assert_eq!(inc.len(), 1);
                assert_eq!(inc[0].0, BlockId(0));
            }
            _ => panic!(),
        }
        twill_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn split_edge_keeps_phi_semantics() {
        let src = r#"
func @f(i1) -> i32 {
bb0:
  condbr %a0, bb1, bb2
bb1:
  br bb2
bb2:
  %0 = phi i32 [bb0: 1:i32], [bb1: 2:i32]
  ret %0
}
"#;
        let mut m = parse_module(src).unwrap();
        let f = &mut m.funcs[0];
        let mid = split_edge(f, BlockId(0), BlockId(2));
        assert_eq!(f.successors(BlockId(0)), vec![BlockId(1), mid]);
        assert_eq!(f.successors(mid), vec![BlockId(2)]);
        let phi = f.block(BlockId(2)).insts[0];
        match &f.inst(phi).op {
            Op::Phi(inc) => {
                assert!(inc.iter().any(|(b, _)| *b == mid));
                assert!(!inc.iter().any(|(b, _)| *b == BlockId(0)));
            }
            _ => panic!(),
        }
        twill_ir::verifier::assert_valid(&m);
        assert!(verify_dominance(&m.funcs[0]).is_empty());
    }

    #[test]
    fn dominance_verifier_catches_bad_use() {
        // %0 defined in bb1 but used in bb2 which is not dominated by bb1.
        let src = r#"
func @f(i1) -> i32 {
bb0:
  condbr %a0, bb1, bb2
bb1:
  %0 = add i32 1:i32, 2:i32
  br bb3
bb2:
  %1 = add i32 %0, 1:i32
  br bb3
bb3:
  ret %1
}
"#;
        let m = parse_module(src).unwrap();
        let errs = verify_dominance(&m.funcs[0]);
        assert!(!errs.is_empty());
    }

    #[test]
    fn users_map() {
        let src = "func @f() -> i32 {\nbb0:\n  %0 = add i32 1:i32, 2:i32\n  %1 = add i32 %0, %0\n  ret %1\n}\n";
        let m = parse_module(src).unwrap();
        let u = users(&m.funcs[0]);
        assert_eq!(u[&InstId(0)].len(), 2); // used twice by %1
        assert_eq!(u[&InstId(1)].len(), 1); // used by ret
    }
}
