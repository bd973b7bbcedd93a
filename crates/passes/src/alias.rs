//! Flow-insensitive points-to alias analysis ("basicaa"-grade).
//!
//! Every pointer value is mapped to a set of *abstract objects*: a specific
//! global, a specific alloca, a pointer argument, or Unknown. Two accesses
//! may alias iff their object sets intersect (Unknown intersects
//! everything). Constant (read-only) globals never conflict with writes —
//! the thesis' "constprop … will identify any constant globals".
//!
//! This is deliberately conservative: it is the information source for the
//! PDG's memory-dependence edges, where a false positive only costs
//! parallelism, never correctness.

use std::collections::{BTreeSet, HashMap};
use twill_ir::{Function, GlobalId, InstId, Op, Value};

/// An abstract memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemObject {
    Global(GlobalId),
    /// The alloca instruction that created the slot.
    Stack(InstId),
    /// The n-th pointer argument of the current function.
    ArgPtr(u16),
    /// Anything (integer-to-pointer, loads of pointers, …).
    Unknown,
}

/// Points-to sets for every instruction producing a pointer-like value.
pub struct AliasInfo {
    points_to: HashMap<InstId, BTreeSet<MemObject>>,
    arg_objects: Vec<BTreeSet<MemObject>>,
    /// `{Unknown}`, the object set of an out-of-range argument.
    unknown: BTreeSet<MemObject>,
}

impl AliasInfo {
    pub fn new(f: &Function) -> AliasInfo {
        let arg_objects: Vec<BTreeSet<MemObject>> = f
            .params
            .iter()
            .enumerate()
            .map(|(i, ty)| {
                let mut s = BTreeSet::new();
                if *ty == twill_ir::Ty::Ptr {
                    s.insert(MemObject::ArgPtr(i as u16));
                } else {
                    // Integer arg cast to pointer later => unknown.
                    s.insert(MemObject::Unknown);
                }
                s
            })
            .collect();
        let mut aa = AliasInfo {
            points_to: HashMap::new(),
            arg_objects,
            unknown: [MemObject::Unknown].into(),
        };

        // Iterate to fixpoint (phis can form cycles).
        let layout = f.inst_ids_in_layout();
        let mut changed = true;
        let mut rounds = 0;
        while changed && rounds < 64 {
            changed = false;
            rounds += 1;
            for &(_, iid) in &layout {
                let inst = f.inst(iid);
                let new: BTreeSet<MemObject> = match &inst.op {
                    Op::Alloca(_) => [MemObject::Stack(iid)].into(),
                    Op::GlobalAddr(g) => [MemObject::Global(*g)].into(),
                    Op::Gep(base, _, _) => aa.objects_of(*base).clone(),
                    Op::Cast(_, v) => aa.objects_of(*v).clone(),
                    Op::Select(_, a, b) => {
                        let mut s = aa.objects_of(*a).clone();
                        s.extend(aa.objects_of(*b));
                        s
                    }
                    Op::Phi(incoming) => {
                        let mut s = BTreeSet::new();
                        for (_, v) in incoming {
                            s.extend(aa.objects_of(*v));
                        }
                        s
                    }
                    // Pointer arithmetic through add/sub keeps the base set.
                    Op::Bin(twill_ir::BinOp::Add | twill_ir::BinOp::Sub, a, b) => {
                        let mut s = aa.objects_of(*a).clone();
                        s.extend(aa.objects_of(*b));
                        // Adding two constants produces no object; keep as-is.
                        s
                    }
                    // Loads of pointers, call results, function addresses:
                    // unknown (function addresses never alias data, but
                    // treating them as data pointers is merely conservative).
                    Op::Load(_)
                    | Op::Call(..)
                    | Op::CallIndirect(..)
                    | Op::Intrin(..)
                    | Op::FuncAddr(_) => [MemObject::Unknown].into(),
                    _ => continue,
                };
                let entry = aa.points_to.entry(iid).or_default();
                if *entry != new {
                    let merged: BTreeSet<MemObject> = entry.union(&new).copied().collect();
                    if *entry != merged {
                        *entry = merged;
                        changed = true;
                    }
                }
            }
        }
        aa
    }

    /// The abstract objects a pointer value may address, borrowed from the
    /// analysis (queries allocate nothing).
    pub fn objects_of(&self, v: Value) -> &BTreeSet<MemObject> {
        static EMPTY: BTreeSet<MemObject> = BTreeSet::new();
        match v {
            Value::Inst(i) => self.points_to.get(&i).unwrap_or(&EMPTY),
            Value::Arg(n) => self.arg_objects.get(n as usize).unwrap_or(&self.unknown),
            // A constant address (rare; only via inttoptr-style arithmetic)
            // addresses no object.
            Value::Imm(..) => &EMPTY,
        }
    }

    /// May the two addresses alias?
    ///
    /// Pointer arguments conservatively alias all globals and other pointer
    /// arguments (after the globals-to-arguments pass, callee pointer params
    /// *are* global addresses), but never this frame's own allocas.
    pub fn may_alias(&self, a: Value, b: Value) -> bool {
        let sb = self.objects_of(b);
        self.objects_of(a).iter().any(|&oa| sb.iter().any(|&ob| objects_compatible(oa, ob)))
    }

    /// May a memory access through `addr` conflict with writes done by any
    /// callee (conservatively true unless it's a distinct stack slot that
    /// never escapes — we keep it simple and return true except for
    /// non-escaping allocas).
    pub fn may_conflict_with_calls(&self, f: &Function, addr: Value) -> bool {
        let objs = self.objects_of(addr);
        if objs.contains(&MemObject::Unknown) {
            return true;
        }
        // A non-escaping alloca cannot be touched by a callee.
        objs.iter().any(|o| match o {
            MemObject::Stack(a) => alloca_escapes(f, *a),
            _ => true,
        })
    }
}

/// Whether two abstract objects may denote overlapping storage.
fn objects_compatible(a: MemObject, b: MemObject) -> bool {
    use MemObject::*;
    match (a, b) {
        (Unknown, _) | (_, Unknown) => true,
        (ArgPtr(_), ArgPtr(_)) => true,
        (ArgPtr(_), Global(_)) | (Global(_), ArgPtr(_)) => true,
        (ArgPtr(_), Stack(_)) | (Stack(_), ArgPtr(_)) => false,
        (Global(x), Global(y)) => x == y,
        (Stack(x), Stack(y)) => x == y,
        (Global(_), Stack(_)) | (Stack(_), Global(_)) => false,
    }
}

/// Does the address of this alloca flow anywhere except load/store
/// addresses and geps thereof? (Passed to a call, stored, enqueued, …)
pub fn alloca_escapes(f: &Function, alloca: InstId) -> bool {
    // Worklist over derived pointers.
    let mut derived: Vec<InstId> = vec![alloca];
    let mut seen = std::collections::HashSet::new();
    seen.insert(alloca);
    while let Some(p) = derived.pop() {
        for (_, iid) in f.inst_ids_in_layout() {
            let inst = f.inst(iid);
            let uses_p = {
                let mut found = false;
                inst.op.for_each_value(|v| {
                    if v == Value::Inst(p) {
                        found = true;
                    }
                });
                found
            };
            if !uses_p {
                continue;
            }
            match &inst.op {
                Op::Load(_) => {}
                Op::Store(v, _a) => {
                    // Storing the *pointer itself* escapes it.
                    if *v == Value::Inst(p) {
                        return true;
                    }
                }
                Op::Gep(..) | Op::Cast(..) | Op::Phi(_) | Op::Select(..) => {
                    if seen.insert(iid) {
                        derived.push(iid);
                    }
                }
                Op::Bin(..) | Op::Cmp(..) => {
                    // Address arithmetic/compares don't escape by themselves,
                    // but the derived value might: track adds/subs.
                    if matches!(inst.op, Op::Bin(twill_ir::BinOp::Add | twill_ir::BinOp::Sub, _, _))
                        && seen.insert(iid)
                    {
                        derived.push(iid);
                    }
                }
                // Calls, intrinsics, returns, branches: escapes.
                _ => return true,
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::parser::parse_module;
    use twill_ir::BlockId;

    #[test]
    fn distinct_globals_do_not_alias() {
        let src = r#"
global @a size=4 []
global @b size=4 []
func @f() -> void {
bb0:
  %0 = gaddr @a
  %1 = gaddr @b
  store i32 1:i32, %0
  store i32 2:i32, %1
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let aa = AliasInfo::new(f);
        let g0 = Value::Inst(f.block(BlockId(0)).insts[0]);
        let g1 = Value::Inst(f.block(BlockId(0)).insts[1]);
        assert!(!aa.may_alias(g0, g1));
        assert!(aa.may_alias(g0, g0));
    }

    #[test]
    fn gep_keeps_base_object() {
        let src = r#"
global @a size=64 []
func @f(i32) -> void {
bb0:
  %0 = gaddr @a
  %1 = gep %0, %a0, 4
  %2 = gep %0, 3:i32, 4
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let aa = AliasInfo::new(f);
        let p1 = Value::Inst(f.block(BlockId(0)).insts[1]);
        let p2 = Value::Inst(f.block(BlockId(0)).insts[2]);
        // Same base object → may alias (field-insensitive).
        assert!(aa.may_alias(p1, p2));
    }

    #[test]
    fn allocas_are_distinct() {
        let src = r#"
func @f() -> void {
bb0:
  %0 = alloca 8
  %1 = alloca 8
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let aa = AliasInfo::new(f);
        let a0 = Value::Inst(f.block(BlockId(0)).insts[0]);
        let a1 = Value::Inst(f.block(BlockId(0)).insts[1]);
        assert!(!aa.may_alias(a0, a1));
    }

    #[test]
    fn phi_of_pointers_unions() {
        let src = r#"
global @a size=4 []
global @b size=4 []
func @f(i1) -> void {
bb0:
  %0 = gaddr @a
  %1 = gaddr @b
  condbr %a0, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  %2 = phi ptr [bb1: %0], [bb2: %1]
  store i32 0:i32, %2
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let aa = AliasInfo::new(f);
        let phi = Value::Inst(f.block(BlockId(3)).insts[0]);
        let g0 = Value::Inst(f.block(BlockId(0)).insts[0]);
        let g1 = Value::Inst(f.block(BlockId(0)).insts[1]);
        assert!(aa.may_alias(phi, g0));
        assert!(aa.may_alias(phi, g1));
    }

    #[test]
    fn loaded_pointer_is_unknown() {
        let src = r#"
global @a size=4 []
func @f() -> void {
bb0:
  %0 = gaddr @a
  %1 = load ptr %0
  store i32 0:i32, %1
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let aa = AliasInfo::new(f);
        let loaded = Value::Inst(f.block(BlockId(0)).insts[1]);
        let g0 = Value::Inst(f.block(BlockId(0)).insts[0]);
        assert!(aa.may_alias(loaded, g0)); // unknown aliases everything
    }

    #[test]
    fn escape_analysis() {
        let src = r#"
func @g(ptr) -> void {
bb0:
  ret
}
func @f() -> void {
bb0:
  %0 = alloca 8
  %1 = alloca 8
  store i32 1:i32, %0
  call void @g(%1)
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[1];
        let a0 = f.block(BlockId(0)).insts[0];
        let a1 = f.block(BlockId(0)).insts[1];
        assert!(!alloca_escapes(f, a0));
        assert!(alloca_escapes(f, a1));
    }

    #[test]
    fn pointer_arg_vs_global_may_alias() {
        let src = r#"
global @a size=4 []
func @f(ptr) -> void {
bb0:
  %0 = gaddr @a
  store i32 1:i32, %a0
  store i32 2:i32, %0
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let aa = AliasInfo::new(f);
        let g = Value::Inst(f.block(BlockId(0)).insts[0]);
        // After globals-to-args, pointer params may be global addresses:
        // must conservatively alias.
        assert!(aa.may_alias(Value::Arg(0), g));
    }

    #[test]
    fn pointer_arg_does_not_alias_local_alloca() {
        let src = r#"
func @f(ptr) -> void {
bb0:
  %0 = alloca 8
  store i32 1:i32, %a0
  store i32 2:i32, %0
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let f = &m.funcs[0];
        let aa = AliasInfo::new(f);
        let a = Value::Inst(f.block(BlockId(0)).insts[0]);
        assert!(!aa.may_alias(Value::Arg(0), a));
    }
}
