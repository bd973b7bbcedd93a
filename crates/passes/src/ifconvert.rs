//! If-conversion: speculate small, side-effect-free branch diamonds into
//! `select` instructions (the branch-collapsing LegUp's ILP scheduling
//! relies on; LLVM's simplifycfg does the same hoisting).
//!
//! Patterns handled (M = merge block with phis):
//! * diamond:  B → T, F;  T → M;  F → M   (T, F pure, small)
//! * triangle: B → T, M;  T → M           (T pure, small)
//!
//! The speculated instructions are hoisted into B, each phi in M becomes a
//! `select cond, v_true, v_false`, and B branches straight to M. Each round
//! converts the lowest-index convertible B; rounds edit a [`CfgEdit`], so
//! a conversion costs only work local to its blocks.

use crate::utils::{work, CfgEdit};
use twill_ir::{BlockId, Function, Op, Ty, Value};

/// Maximum instructions speculated per arm.
pub const MAX_SPECULATED: usize = 24;

pub fn ifconvert(f: &mut Function) -> bool {
    // Blocks unreachable on entry must not count as predecessors of a
    // merge block, so sweep them before the first candidate is checked.
    let mut changed = crate::utils::remove_unreachable_blocks(f);
    let mut cfg = CfgEdit::new(f);
    // `diamond_arm` per block, invalidated when a conversion edits it.
    let mut arms: Vec<Option<Option<BlockId>>> = vec![None; f.blocks.len()];
    let arm = |f: &Function, arms: &mut [Option<Option<BlockId>>], a: BlockId| {
        *arms[a.index()].get_or_insert_with(|| diamond_arm(f, a))
    };
    'round: loop {
        for b in 0..f.blocks.len() {
            let b = BlockId::new(b);
            let Some(term) = f.block(b).terminator() else { continue };
            let Op::CondBr(cond, t, e) = f.inst(term).op else { continue };
            if t == e {
                continue;
            }
            // Identify the shape.
            let (arm_t, arm_f, merge) = match (arm(f, &mut arms, t), arm(f, &mut arms, e)) {
                // Full diamond: both arms are pure pass-through blocks with
                // the same successor.
                (Some(mt), Some(mf)) if mt == mf && t != mf && e != mt => (Some(t), Some(e), mt),
                // Triangle: one arm falls straight to the other target.
                (Some(mt), _) if mt == e => (Some(t), None, e),
                (Some(_), _) => continue,
                (None, Some(mf)) if mf == t => (None, Some(e), t),
                _ => continue,
            };
            // The arms must have exactly one predecessor (b), and the merge
            // no predecessors besides the arms (phis stay simple). For a
            // full diamond b is not a pred of merge; for a triangle it is.
            if [arm_t, arm_f].into_iter().flatten().any(|a| cfg.preds(a).len() != 1) {
                continue;
            }
            let mut expected = match (arm_t, arm_f) {
                (Some(at), Some(af)) => [at, af],
                (Some(at), None) => [b, at],
                (None, Some(af)) => [b, af],
                (None, None) => continue,
            };
            expected.sort();
            if cfg.preds(merge) != expected {
                continue;
            }

            // Hoist arms into b (before the terminator).
            f.block_mut(b).insts.pop();
            for a in [arm_t, arm_f].into_iter().flatten() {
                let moved = &f.block(a).insts;
                // last is the Br; move everything before it.
                let body = moved[..moved.len() - 1].to_vec();
                work::touch(body.len());
                f.block_mut(b).insts.extend(body);
            }

            // Convert merge phis to selects placed before the terminator.
            let phis = crate::utils::phis(f, merge);
            for &phi in &phis {
                let (vt, vf, ty) = {
                    let inst = f.inst(phi);
                    let Op::Phi(incoming) = &inst.op else { unreachable!() };
                    let from = |blk: BlockId| {
                        incoming
                            .iter()
                            .find(|(p, _)| *p == blk)
                            .map(|(_, v)| *v)
                            .expect("phi missing incoming")
                    };
                    let vt = from(arm_t.unwrap_or(b));
                    let vf = from(arm_f.unwrap_or(b));
                    (vt, vf, inst.ty)
                };
                // The select inherits the merged phi's source line.
                let sel = f.create_inst_at(Op::Select(cond, vt, vf), ty, f.loc(phi));
                f.block_mut(b).insts.push(sel);
                // Phi becomes dead; its uses move to the select.
                cfg.replace_uses(phi, Value::Inst(sel));
            }
            f.block_mut(merge).insts.drain(..phis.len());
            f.block_mut(b).insts.push(term);

            // Rewrite b's terminator to jump straight to merge; the arms
            // become unreachable and are deleted.
            f.inst_mut(term).op = Op::Br(merge);
            cfg.remove_edge(b, t);
            cfg.remove_edge(b, e);
            cfg.add_edge(b, merge);
            for a in [arm_t, arm_f].into_iter().flatten() {
                cfg.delete_block(f, a);
            }
            arms[b.index()] = None;
            arms[merge.index()] = None;
            changed = true;
            continue 'round;
        }
        break;
    }
    cfg.finish(f);
    changed
}

/// If `arm` is a pure pass-through block (only speculatable instructions,
/// ends in an unconditional branch), return its successor.
fn diamond_arm(f: &Function, arm: BlockId) -> Option<BlockId> {
    let blk = f.block(arm);
    let term = blk.terminator()?;
    let Op::Br(succ) = f.inst(term).op else { return None };
    let body = &blk.insts[..blk.insts.len() - 1];
    if body.len() > MAX_SPECULATED {
        return None;
    }
    work::touch(body.len());
    for &iid in body {
        let inst = f.inst(iid);
        if inst.op.is_phi() || inst.op.has_side_effect() || inst.op.is_terminator() {
            return None;
        }
        // Loads are not speculated (could fault / order against stores).
        if matches!(inst.op, Op::Load(_) | Op::Call(..) | Op::Intrin(..) | Op::Alloca(_)) {
            return None;
        }
        if inst.ty == Ty::Void {
            return None;
        }
    }
    Some(succ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::parser::parse_module;
    use twill_ir::printer::print_module;

    fn check(src: &str, input: Vec<i32>) -> String {
        let mut m = parse_module(src).unwrap();
        twill_ir::layout::assign_global_addrs(&mut m);
        let (before, _, _) = twill_ir::interp::run_main(&m, input.clone(), 1_000_000).unwrap();
        for func in &mut m.funcs {
            ifconvert(func);
        }
        crate::utils::assert_valid_ssa(&m);
        let (after, _, _) = twill_ir::interp::run_main(&m, input, 1_000_000).unwrap();
        assert_eq!(before, after);
        print_module(&m)
    }

    #[test]
    fn converts_diamond_to_select() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp sgt %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %1 = mul i32 %0, 2:i32
  br bb3
bb2:
  %2 = sub i32 0:i32, %0
  br bb3
bb3:
  %3 = phi i32 [bb1: %1], [bb2: %2]
  out %3
  ret %3
}
"#,
            vec![5],
        );
        assert!(out.contains("select"), "{out}");
        assert!(!out.contains("condbr"), "{out}");
    }

    #[test]
    fn stale_unreachable_pred_does_not_block_conversion() {
        // bb4 is unreachable but still branches into the merge block. It is
        // swept on entry, so the diamond converts even though no other
        // conversion happens first.
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp sgt %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %1 = mul i32 %0, 2:i32
  br bb3
bb2:
  %2 = sub i32 0:i32, %0
  br bb3
bb3:
  %3 = phi i32 [bb1: %1], [bb2: %2], [bb4: 7:i32]
  out %3
  ret %3
bb4:
  br bb3
}
"#,
            vec![5],
        );
        assert!(out.contains("select"), "{out}");
        assert!(!out.contains("condbr"), "{out}");
    }

    #[test]
    fn converts_triangle() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp sgt %0, 100:i32
  condbr %c, bb1, bb2
bb1:
  %1 = add i32 %0, -100:i32
  br bb2
bb2:
  %2 = phi i32 [bb0: %0], [bb1: %1]
  out %2
  ret %2
}
"#,
            vec![150],
        );
        assert!(out.contains("select"), "{out}");
    }

    #[test]
    fn skips_side_effecting_arms() {
        let out = check(
            r#"
global @g size=4 []
func @main() -> i32 {
bb0:
  %0 = in
  %p = gaddr @g
  %c = cmp sgt %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  store i32 1:i32, %p
  br bb3
bb2:
  br bb3
bb3:
  %1 = load i32 %p
  out %1
  ret %1
}
"#,
            vec![5],
        );
        assert!(out.contains("condbr"), "store must not be speculated: {out}");
    }

    #[test]
    fn skips_trapping_division() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp ne %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %1 = sdiv i32 100:i32, %0
  br bb3
bb2:
  br bb3
bb3:
  %2 = phi i32 [bb1: %1], [bb2: -1:i32]
  out %2
  ret %2
}
"#,
            vec![0],
        );
        assert!(out.contains("condbr"), "div guard must survive: {out}");
    }

    #[test]
    fn nested_diamonds_collapse_iteratively() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c1 = cmp sgt %0, 0:i32
  condbr %c1, bb1, bb2
bb1:
  %1 = add i32 %0, 1:i32
  br bb3
bb2:
  %2 = add i32 %0, 2:i32
  br bb3
bb3:
  %3 = phi i32 [bb1: %1], [bb2: %2]
  %c2 = cmp slt %3, 10:i32
  condbr %c2, bb4, bb5
bb4:
  %4 = mul i32 %3, 3:i32
  br bb6
bb5:
  br bb6
bb6:
  %5 = phi i32 [bb4: %4], [bb5: %3]
  out %5
  ret %5
}
"#,
            vec![4],
        );
        assert_eq!(out.matches("select").count(), 2, "{out}");
        assert!(!out.contains("condbr"), "{out}");
    }

    #[test]
    fn loop_branches_untouched() {
        let out = check(
            r#"
func @main() -> i32 {
bb0:
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  %ni = add i32 %i, 1:i32
  %c = cmp slt %ni, 10:i32
  condbr %c, bb1, bb2
bb2:
  out %i
  ret %i
}
"#,
            vec![],
        );
        assert!(out.contains("condbr"), "{out}");
    }
}
