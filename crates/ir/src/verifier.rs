//! Structural IR verifier.
//!
//! Checks the invariants every pass must preserve:
//! * each block is non-empty and ends in exactly one terminator,
//! * PHIs are a prefix of their block and have exactly one incoming entry
//!   per predecessor edge source (set equality on predecessor blocks),
//! * all operand references are in-range and refer to live instructions,
//! * branch targets are valid blocks, call signatures match,
//! * `alloca` appears only in the entry block,
//! * types are consistent where the opcode dictates them.
//!
//! Dominance of defs over uses is verified separately in `twill-passes`
//! (it needs the dominator tree).

use crate::entities::{BlockId, FuncId};
use crate::inst::{Op, Value};
use crate::module::{Function, Module, Ty};
use std::collections::HashSet;

/// A verification failure, with the function and a human-readable message.
#[derive(Debug, Clone)]
pub struct VerifyError {
    pub func: String,
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "in @{}: {}", self.func, self.msg)
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole module; returns all problems found.
pub fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        verify_function(m, FuncId::new(fi), f, &mut errs);
    }
    errs
}

/// Verify and panic with a readable report on failure (for tests/pipelines).
pub fn assert_valid(m: &Module) {
    let errs = verify_module(m);
    if !errs.is_empty() {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        panic!("IR verification failed:\n{}", msgs.join("\n"));
    }
}

fn verify_function(m: &Module, _id: FuncId, f: &Function, errs: &mut Vec<VerifyError>) {
    let mut e = |msg: String| errs.push(VerifyError { func: f.name.clone(), msg });

    if f.blocks.is_empty() {
        e("function has no blocks".into());
        return;
    }
    if f.entry.index() >= f.blocks.len() {
        e(format!("entry {} out of range", f.entry));
        return;
    }

    // Live instruction set & ownership.
    let mut live: HashSet<usize> = HashSet::new();
    for b in f.block_ids() {
        for &i in &f.block(b).insts {
            if i.index() >= f.insts.len() {
                e(format!("{b}: instruction {i} out of arena range"));
                continue;
            }
            if !live.insert(i.index()) {
                e(format!("instruction {i} appears in more than one place"));
            }
        }
    }

    // Terminator targets first: the predecessor table is indexed by them.
    let mut missing_target = false;
    for b in f.block_ids() {
        for s in f.successors(b).into_iter().filter(|s| s.index() >= f.blocks.len()) {
            e(format!("{b}: terminator branches to missing {s}"));
            missing_target = true;
        }
    }
    if missing_target {
        return;
    }
    let preds = f.predecessors();

    for b in f.block_ids() {
        let blk = f.block(b);
        if blk.insts.is_empty() {
            e(format!("{b} is empty"));
            continue;
        }
        let term = *blk.insts.last().unwrap();
        if !f.inst(term).op.is_terminator() {
            e(format!("{b} does not end in a terminator"));
        }
        let mut seen_non_phi = false;
        for (pos, &i) in blk.insts.iter().enumerate() {
            let inst = f.inst(i);
            let is_last = pos + 1 == blk.insts.len();
            if inst.op.is_terminator() && !is_last {
                e(format!("{b}: terminator {i} is not last"));
            }
            if inst.op.is_phi() {
                if seen_non_phi {
                    e(format!("{b}: phi {i} after non-phi instruction"));
                }
            } else {
                seen_non_phi = true;
            }

            // Operand validity.
            inst.op.for_each_value(|v| match v {
                Value::Inst(d) => {
                    if d.index() >= f.insts.len() {
                        e(format!("{b}: {i} references out-of-range {d}"));
                    } else if !live.contains(&d.index()) {
                        e(format!("{b}: {i} references dead instruction {d}"));
                    }
                }
                Value::Arg(n) => {
                    if n as usize >= f.params.len() {
                        e(format!("{b}: {i} references missing arg %a{n}"));
                    }
                }
                Value::Imm(_, t) => {
                    if t == Ty::Void {
                        e(format!("{b}: {i} has void immediate"));
                    }
                }
            });

            // Target validity (a terminator's was checked above).
            for s in inst.op.successors() {
                if s.index() >= f.blocks.len() {
                    e(format!("{b}: {i} branches to missing {s}"));
                }
            }

            match &inst.op {
                Op::Phi(incoming) => {
                    let from: HashSet<BlockId> = incoming.iter().map(|(p, _)| *p).collect();
                    let expect: HashSet<BlockId> = preds[b.index()].iter().copied().collect();
                    if from != expect {
                        e(format!(
                            "{b}: phi {i} incoming blocks {:?} != predecessors {:?}",
                            from, expect
                        ));
                    }
                    if inst.ty == Ty::Void {
                        e(format!("{b}: phi {i} has void type"));
                    }
                }
                Op::Alloca(_) if b != f.entry => {
                    e(format!("{b}: alloca {i} outside entry block"));
                }
                Op::Call(callee, args) => {
                    if callee.index() >= m.funcs.len() {
                        e(format!("{b}: call {i} to missing function {callee}"));
                    } else {
                        let cf = m.func(*callee);
                        if cf.params.len() != args.len() {
                            e(format!(
                                "{b}: call {i} to @{} passes {} args, expected {}",
                                cf.name,
                                args.len(),
                                cf.params.len()
                            ));
                        }
                        if cf.ret != inst.ty {
                            e(format!(
                                "{b}: call {i} result type {} != @{} return type {}",
                                inst.ty, cf.name, cf.ret
                            ));
                        }
                    }
                }
                Op::GlobalAddr(g) if g.index() >= m.globals.len() => {
                    e(format!("{b}: {i} references missing global {g}"));
                }
                Op::FuncAddr(func) if func.index() >= m.funcs.len() => {
                    e(format!("{b}: {i} references missing function {func}"));
                }
                Op::CallIndirect(t, _) if f.value_ty(*t) != Ty::Ptr => {
                    e(format!("{b}: {i} indirect-call target is not a pointer"));
                }
                Op::Ret(v) => {
                    let got = v.map(|x| f.value_ty(x)).unwrap_or(Ty::Void);
                    if got != f.ret {
                        e(format!("{b}: ret type {} != function return {}", got, f.ret));
                    }
                }
                Op::CondBr(c, _, _) if f.value_ty(*c) != Ty::I1 => {
                    e(format!("{b}: condbr condition is not i1"));
                }
                Op::Cmp(..) if inst.ty != Ty::I1 => {
                    e(format!("{b}: cmp {i} result type must be i1"));
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn verify_src(src: &str) -> Vec<String> {
        let m = parse_module(src).unwrap();
        verify_module(&m).into_iter().map(|e| e.msg).collect()
    }

    #[test]
    fn accepts_valid_function() {
        let errs =
            verify_src("func @f(i32) -> i32 {\nbb0:\n  %0 = add i32 %a0, 1:i32\n  ret %0\n}\n");
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn rejects_missing_terminator() {
        let errs = verify_src("func @f() -> void {\nbb0:\n  %0 = add i32 1:i32, 2:i32\n}\n");
        assert!(errs.iter().any(|m| m.contains("terminator")), "{errs:?}");
    }

    #[test]
    fn rejects_phi_pred_mismatch() {
        // Phi claims an incoming edge from bb1 which is not a predecessor.
        let errs = verify_src(
            "func @f() -> void {\nbb0:\n  br bb2\nbb1:\n  br bb2\nbb2:\n  %0 = phi i32 [bb0: 1:i32]\n  ret\n}\n",
        );
        assert!(errs.iter().any(|m| m.contains("phi")), "{errs:?}");
    }

    #[test]
    fn rejects_branch_to_missing_block() {
        let errs = verify_src("func @f() -> i32 {\nbb0:\n  br bb7\n}\n");
        assert!(errs.iter().any(|m| m.contains("missing bb7")), "{errs:?}");
    }

    #[test]
    fn rejects_alloca_outside_entry() {
        let errs =
            verify_src("func @f() -> void {\nbb0:\n  br bb1\nbb1:\n  %0 = alloca 8\n  ret\n}\n");
        assert!(errs.iter().any(|m| m.contains("alloca")), "{errs:?}");
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let errs = verify_src(
            "func @g(i32) -> void {\nbb0:\n  ret\n}\nfunc @f() -> void {\nbb0:\n  call void @g()\n  ret\n}\n",
        );
        assert!(errs.iter().any(|m| m.contains("args")), "{errs:?}");
    }

    #[test]
    fn rejects_wrong_ret_type() {
        let errs = verify_src("func @f() -> i32 {\nbb0:\n  ret\n}\n");
        assert!(errs.iter().any(|m| m.contains("ret type")), "{errs:?}");
    }

    #[test]
    fn rejects_non_i1_condbr() {
        let errs =
            verify_src("func @f(i32) -> void {\nbb0:\n  condbr %a0, bb1, bb1\nbb1:\n  ret\n}\n");
        assert!(errs.iter().any(|m| m.contains("not i1")), "{errs:?}");
    }

    #[test]
    fn assert_valid_panics_with_report() {
        let m = parse_module("func @f() -> i32 {\nbb0:\n  ret\n}\n").unwrap();
        let r = std::panic::catch_unwind(|| assert_valid(&m));
        assert!(r.is_err());
    }
}
