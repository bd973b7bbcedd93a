//! CFG simplification ("simplifycfg").
//!
//! * removes unreachable blocks,
//! * merges a block into its unique predecessor when that predecessor has a
//!   single successor,
//! * forwards empty blocks (containing only an unconditional branch) when
//!   doing so cannot make a successor phi ambiguous,
//! * collapses `condbr c, t, t` into `br t`,
//! * deduplicates identical phi incoming entries.
//!
//! Every rewrite preserves phi correctness; the pass runs to fixpoint.
//! Each round collapses every same-target `condbr`, then performs one
//! merge and one forward, each on the lowest-index eligible block. That
//! order decides phi incoming order and which blocks merge rather than
//! forward, so it is kept exactly; the rounds edit a [`CfgEdit`] so each
//! costs only work local to its rewrite (DESIGN.md §7).

use crate::utils::{work, CfgEdit};
use std::collections::HashSet;
use twill_ir::{BlockId, Function, Op};

pub fn simplifycfg(f: &mut Function) -> bool {
    // Merging, forwarding and collapsing never change which blocks are
    // reachable, so one sweep up front is all the fixpoint ever needs.
    let mut changed_any = crate::utils::remove_unreachable_blocks(f);
    let mut cfg = CfgEdit::new(f);
    loop {
        let mut changed = collapse_same_target_condbr(f, &mut cfg);
        changed |= merge_into_predecessor(f, &mut cfg);
        changed |= forward_empty_blocks(f, &mut cfg);
        changed_any |= changed;
        if !changed {
            break;
        }
    }
    cfg.finish(f);
    changed_any
}

/// `condbr c, t, t` → `br t`.
fn collapse_same_target_condbr(f: &mut Function, cfg: &mut CfgEdit) -> bool {
    let mut changed = false;
    for b in 0..f.blocks.len() {
        let Some(term) = f.blocks[b].terminator() else { continue };
        if let Op::CondBr(_, t, e) = f.inst(term).op {
            if t == e {
                f.inst_mut(term).op = Op::Br(t);
                cfg.remove_edge(BlockId::new(b), t);
                // Target phis may now have a duplicate entry for this pred;
                // drop extras (values are identical only if the IR was
                // unambiguous; we keep the first, matching the interpreter).
                dedup_phi_entries(f, t);
                changed = true;
            }
        }
    }
    changed
}

fn dedup_phi_entries(f: &mut Function, b: BlockId) {
    for iid in crate::utils::phis(f, b) {
        if let Op::Phi(incoming) = &mut f.inst_mut(iid).op {
            let mut seen = HashSet::new();
            incoming.retain(|(p, _)| seen.insert(*p));
        }
    }
}

/// Merge block `s` into `p` when `p -> s` is the only edge out of `p` and
/// into `s`.
fn merge_into_predecessor(f: &mut Function, cfg: &mut CfgEdit) -> bool {
    for si in 0..f.blocks.len() {
        let s = BlockId::new(si);
        if s == f.entry {
            continue;
        }
        let [p] = *cfg.preds(s) else { continue };
        if p == s {
            continue; // self-loop
        }
        let term = f.block(p).terminator().expect("live block without terminator");
        if f.inst(term).op.num_successors() != 1 {
            continue;
        }
        // p ends in `br s`; merge.
        debug_assert!(matches!(f.inst(term).op, Op::Br(_)));
        // Phis in s have a single incoming (from p): replace with the value.
        let s_insts = std::mem::take(&mut f.block_mut(s).insts);
        work::touch(s_insts.len());
        let mut tail = Vec::with_capacity(s_insts.len());
        for iid in s_insts {
            match &f.inst(iid).op {
                Op::Phi(inc) => {
                    debug_assert_eq!(inc.len(), 1);
                    cfg.replace_uses(iid, inc[0].1);
                }
                _ => tail.push(iid),
            }
        }
        // Remove p's terminator, append s's non-phi instructions.
        f.block_mut(p).insts.pop();
        f.block_mut(p).insts.extend(tail);
        cfg.delete_block(f, s);
        // s's out-edges now leave p; their phis must refer to p.
        let succs_of_s: Vec<BlockId> =
            f.block(p).terminator().map(|t| f.inst(t).op.successors()).unwrap_or_default();
        for t in succs_of_s {
            cfg.remove_edge(s, t);
            cfg.add_edge(p, t);
            crate::utils::retarget_phi_pred(f, t, s, p);
        }
        return true; // one merge per round fixes the rewrite order
    }
    false
}

/// Redirect predecessors of empty `br`-only blocks straight to the target.
fn forward_empty_blocks(f: &mut Function, cfg: &mut CfgEdit) -> bool {
    for ei in 0..f.blocks.len() {
        let e = BlockId::new(ei);
        if e == f.entry {
            continue;
        }
        let blk = f.block(e);
        if blk.insts.len() != 1 {
            continue;
        }
        let Op::Br(t) = f.inst(blk.insts[0]).op else { continue };
        if t == e {
            continue;
        }
        let ps = cfg.preds(e);
        if ps.is_empty() {
            continue;
        }
        // Check safety for each pred: after forwarding, `t`'s phis must be
        // unambiguous. If t has phis, require that no pred of e is already
        // a predecessor of t, and that each pred appears only once. Both
        // multisets are sorted, so the checks are linear scans.
        let t_has_phis = f.block(t).insts.first().map(|&i| f.inst(i).op.is_phi()).unwrap_or(false);
        if t_has_phis && (ps.windows(2).any(|w| w[0] == w[1]) || sorted_intersect(ps, cfg.preds(t)))
        {
            continue;
        }
        let ps = ps.to_vec();
        // Rewrite each pred's terminator edge e -> t.
        for &p in &ps {
            let term = f.block(p).terminator().unwrap();
            f.inst_mut(term).op.for_each_successor_mut(|b| {
                if *b == e {
                    *b = t;
                }
            });
        }
        // Phi entries in t coming from e: duplicate for each pred.
        for iid in crate::utils::phis(f, t) {
            if let Op::Phi(incoming) = &mut f.inst_mut(iid).op {
                if let Some(pos) = incoming.iter().position(|(b, _)| *b == e) {
                    let (_, v) = incoming.remove(pos);
                    for &p in &ps {
                        incoming.push((p, v));
                    }
                }
            }
        }
        // e is unreachable now; its preds branch to t instead.
        cfg.delete_block(f, e);
        for &p in &ps {
            cfg.add_edge(p, t);
        }
        return true;
    }
    false
}

/// Whether two sorted block lists share an element.
fn sorted_intersect(a: &[BlockId], b: &[BlockId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::parser::parse_module;
    use twill_ir::printer::print_module;

    fn simplify_and_check(src: &str, input: Vec<i32>) -> (String, usize) {
        let mut m = parse_module(src).unwrap();
        twill_ir::layout::assign_global_addrs(&mut m);
        let (before, _, _) = twill_ir::interp::run_main(&m, input.clone(), 1_000_000).unwrap();
        for func in &mut m.funcs {
            simplifycfg(func);
        }
        crate::utils::assert_valid_ssa(&m);
        let (after, _, _) = twill_ir::interp::run_main(&m, input, 1_000_000).unwrap();
        assert_eq!(before, after);
        let nblocks = m.funcs.iter().map(|f| f.blocks.len()).sum();
        (print_module(&m), nblocks)
    }

    #[test]
    fn merges_straightline_chain() {
        let (out, nblocks) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  %0 = add i32 1:i32, 2:i32
  br bb1
bb1:
  %1 = add i32 %0, 3:i32
  br bb2
bb2:
  out %1
  ret %1
}
"#,
            vec![],
        );
        assert_eq!(nblocks, 1, "{out}");
    }

    #[test]
    fn collapses_same_target_condbr() {
        let (out, _) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %1 = cmp sgt %0, 0:i32
  condbr %1, bb1, bb1
bb1:
  out %0
  ret %0
}
"#,
            vec![3],
        );
        assert!(!out.contains("condbr"), "{out}");
    }

    #[test]
    fn forwards_empty_block() {
        let (out, nblocks) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %1 = cmp sgt %0, 0:i32
  condbr %1, bb1, bb2
bb1:
  br bb3
bb2:
  out 0:i32
  br bb3
bb3:
  out %0
  ret %0
}
"#,
            vec![1],
        );
        // bb1 forwarded; bb3 phi-less so safe.
        assert!(nblocks <= 3, "{out}");
    }

    #[test]
    fn empty_block_with_phi_target_kept_when_ambiguous() {
        // Forwarding bb1 would give bb3 two edges from bb0 with different
        // phi values; must not happen.
        let (out, _) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %1 = cmp sgt %0, 0:i32
  condbr %1, bb1, bb3
bb1:
  br bb3
bb3:
  %2 = phi i32 [bb1: 1:i32], [bb0: 2:i32]
  out %2
  ret %2
}
"#,
            vec![1],
        );
        // Values still correct (checked by simplify_and_check); phi intact.
        assert!(out.contains("phi"), "{out}");
    }

    #[test]
    fn removes_unreachable_code() {
        let (_, nblocks) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  ret 1:i32
bb1:
  out 9:i32
  ret 2:i32
}
"#,
            vec![],
        );
        assert_eq!(nblocks, 1);
    }

    #[test]
    fn loop_structure_preserved() {
        let (out, _) = simplify_and_check(
            r#"
func @main() -> i32 {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 0:i32], [bb2: %1]
  %c = cmp slt %0, 5:i32
  condbr %c, bb2, bb3
bb2:
  %1 = add i32 %0, 1:i32
  br bb1
bb3:
  out %0
  ret %0
}
"#,
            vec![],
        );
        assert!(out.contains("phi"), "{out}");
        assert!(out.contains("condbr"), "{out}");
    }

    #[test]
    fn fixpoint_is_stable() {
        let src = r#"
func @main() -> i32 {
bb0:
  br bb1
bb1:
  br bb2
bb2:
  br bb3
bb3:
  ret 7:i32
}
"#;
        let mut m = parse_module(src).unwrap();
        assert!(simplifycfg(&mut m.funcs[0]));
        let once = print_module(&m);
        assert!(!simplifycfg(&mut m.funcs[0]));
        assert_eq!(once, print_module(&m));
        assert_eq!(m.funcs[0].blocks.len(), 1);
    }
}
