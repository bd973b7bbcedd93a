//! Global value numbering ("gvn", scoped-hash-table flavor).
//!
//! Walks the dominator tree keeping a scoped table of `(opcode, operands)`
//! expression keys; a pure instruction whose key is already bound to a
//! dominating definition is replaced by it. Commutative operators
//! canonicalize operand order. Also performs simple redundant-load
//! elimination *within a block*: a load from the same address as an earlier
//! load (or store) with no intervening may-alias write, call or intrinsic
//! reuses the earlier value.

use crate::alias::AliasInfo;
use crate::domtree::DomTree;
use std::collections::{HashMap, HashSet};
use twill_ir::{BinOp, BlockId, Function, InstId, Op, Ty, Value};

#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Bin(BinOp, Value, Value),
    Cmp(twill_ir::CmpOp, Value, Value),
    Cast(twill_ir::CastOp, Ty, Value),
    Select(Value, Value, Value),
    Gep(Value, Value, u32),
    GlobalAddr(twill_ir::GlobalId),
}

/// Whether `a`'s printed form sorts before `b`'s (the commutative-operand
/// order). Both are formatted into stack buffers, so the comparison
/// allocates nothing.
fn debug_lt(a: Value, b: Value) -> bool {
    /// Fixed buffer for one `Value`'s `Debug` text; the longest,
    /// `-9223372036854775808:void`, is 25 bytes.
    struct Buf {
        bytes: [u8; 32],
        len: usize,
    }
    impl std::fmt::Write for Buf {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            let end = self.len + s.len();
            self.bytes.get_mut(self.len..end).ok_or(std::fmt::Error)?.copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    fn print(v: Value) -> Buf {
        let mut buf = Buf { bytes: [0; 32], len: 0 };
        std::fmt::Write::write_fmt(&mut buf, format_args!("{v:?}")).expect("value text fits");
        buf
    }
    let (a, b) = (print(a), print(b));
    a.bytes[..a.len] < b.bytes[..b.len]
}

pub fn gvn(f: &mut Function) -> bool {
    let dt = DomTree::new(f);
    let aa = AliasInfo::new(f);
    let mut table: HashMap<Key, Vec<(usize, Value)>> = HashMap::new(); // key -> stack of (depth, value)
    let mut replace: HashMap<InstId, Value> = HashMap::new();

    fn key_of(f: &Function, iid: InstId) -> Option<Key> {
        let inst = f.inst(iid);
        Some(match &inst.op {
            Op::Bin(b, x, y) => {
                if b.can_trap() {
                    // Division can still be numbered (same operands, same
                    // trap behavior) — identical expression is safe.
                }
                let (x, y) = if b.commutative() && debug_lt(*y, *x) { (*y, *x) } else { (*x, *y) };
                Key::Bin(*b, x, y)
            }
            Op::Cmp(c, x, y) => Key::Cmp(*c, *x, *y),
            Op::Cast(c, v) => Key::Cast(*c, inst.ty, *v),
            Op::Select(c, a, b) => Key::Select(*c, *a, *b),
            Op::Gep(b, i, s) => Key::Gep(*b, *i, *s),
            Op::GlobalAddr(g) => Key::GlobalAddr(*g),
            _ => return None,
        })
    }

    // Recursive scoped walk.
    fn walk(
        f: &Function,
        dt: &DomTree,
        aa: &AliasInfo,
        b: BlockId,
        depth: usize,
        table: &mut HashMap<Key, Vec<(usize, Value)>>,
        replace: &mut HashMap<InstId, Value>,
    ) {
        let mut pushed: Vec<Key> = Vec::new();
        // Block-local available loads: addr value -> loaded value, type.
        let mut avail_loads: Vec<(Value, Value, Ty)> = Vec::new();
        for &iid in &f.block(b).insts {
            let inst = f.inst(iid);
            // Resolve operands through prior replacements for better hits.
            match &inst.op {
                Op::Load(addr) => {
                    let addr = *addr;
                    if let Some((_, v, _)) =
                        avail_loads.iter().find(|(a, _, t)| *a == addr && *t == inst.ty)
                    {
                        replace.insert(iid, *v);
                    } else {
                        avail_loads.push((addr, Value::Inst(iid), inst.ty));
                    }
                }
                Op::Store(v, addr) => {
                    // Invalidate may-alias loads; the stored value becomes
                    // available at this address.
                    avail_loads.retain(|(a, _, _)| !aa.may_alias(*a, *addr));
                    avail_loads.push((*addr, *v, inst.ty));
                }
                Op::Call(..) | Op::CallIndirect(..) | Op::Intrin(..) => {
                    avail_loads.clear();
                }
                _ => {
                    if let Some(key) = key_of(f, iid) {
                        match table.get(&key).and_then(|s| s.last()) {
                            Some((_, v)) => {
                                replace.insert(iid, *v);
                            }
                            None => {
                                table
                                    .entry(key.clone())
                                    .or_default()
                                    .push((depth, Value::Inst(iid)));
                                pushed.push(key);
                            }
                        }
                    }
                }
            }
        }
        for &c in &dt.children[b.index()] {
            walk(f, dt, aa, c, depth + 1, table, replace);
        }
        for key in pushed {
            table.get_mut(&key).unwrap().pop();
        }
    }

    walk(f, &dt, &aa, f.entry, 0, &mut table, &mut replace);

    if replace.is_empty() {
        return false;
    }
    // Apply with chain resolution.
    let resolve = |mut v: Value| {
        let mut fuel = replace.len() + 1;
        while let Value::Inst(i) = v {
            match replace.get(&i) {
                Some(&next) if fuel > 0 => {
                    v = next;
                    fuel -= 1;
                }
                _ => break,
            }
        }
        v
    };
    for inst in &mut f.insts {
        inst.op.for_each_value_mut(|v| {
            let r = resolve(*v);
            if r != *v {
                *v = r;
            }
        });
    }
    let dead: HashSet<InstId> = replace.keys().copied().collect();
    crate::utils::remove_insts(f, &dead);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::parser::parse_module;
    use twill_ir::printer::print_module;

    #[test]
    fn operand_order_matches_printed_text() {
        // The canonical order is the order of the `Debug` strings, digits
        // included ("%10" < "%9", "%1" < "%a0", "-1:i32" < "0:i1").
        let mut vals = vec![Value::Arg(0), Value::Arg(12), Value::Arg(u16::MAX)];
        for i in [0, 1, 9, 10, 99, 100, u32::MAX] {
            vals.push(Value::Inst(InstId(i)));
        }
        for v in [i64::MIN, -100, -1, 0, 1, 7, 10, i64::MAX] {
            for t in [Ty::Void, Ty::I1, Ty::I8, Ty::I16, Ty::I32, Ty::Ptr] {
                vals.push(Value::Imm(v, t));
            }
        }
        for &a in &vals {
            for &b in &vals {
                assert_eq!(debug_lt(a, b), format!("{a:?}") < format!("{b:?}"), "{a:?} vs {b:?}");
            }
        }
    }

    fn run_gvn(src: &str, input: Vec<i32>) -> String {
        let mut m = parse_module(src).unwrap();
        twill_ir::layout::assign_global_addrs(&mut m);
        let (before, _, _) = twill_ir::interp::run_main(&m, input.clone(), 1_000_000).unwrap();
        for func in &mut m.funcs {
            gvn(func);
        }
        crate::utils::assert_valid_ssa(&m);
        let (after, _, _) = twill_ir::interp::run_main(&m, input, 1_000_000).unwrap();
        assert_eq!(before, after);
        print_module(&m)
    }

    #[test]
    fn dedupes_identical_expressions() {
        let out = run_gvn(
            "func @main() -> i32 {\nbb0:\n  %0 = in\n  %1 = add i32 %0, 5:i32\n  %2 = add i32 %0, 5:i32\n  %3 = mul i32 %1, %2\n  out %3\n  ret %3\n}\n",
            vec![2],
        );
        assert_eq!(out.matches("add").count(), 1, "{out}");
    }

    #[test]
    fn commutative_canonicalization() {
        let out = run_gvn(
            "func @main() -> i32 {\nbb0:\n  %0 = in\n  %1 = in\n  %2 = add i32 %0, %1\n  %3 = add i32 %1, %0\n  %4 = sub i32 %2, %3\n  out %4\n  ret %4\n}\n",
            vec![3, 4],
        );
        assert_eq!(out.matches("add").count(), 1, "{out}");
    }

    #[test]
    fn dominating_def_reused_across_blocks() {
        let out = run_gvn(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %1 = mul i32 %0, 3:i32
  %c = cmp sgt %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %2 = mul i32 %0, 3:i32
  out %2
  ret %2
bb2:
  out %1
  ret %1
}
"#,
            vec![5],
        );
        assert_eq!(out.matches("mul").count(), 1, "{out}");
    }

    #[test]
    fn sibling_blocks_do_not_share() {
        // Expressions in sibling branches must not replace each other.
        let out = run_gvn(
            r#"
func @main() -> i32 {
bb0:
  %0 = in
  %c = cmp sgt %0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %1 = add i32 %0, 7:i32
  out %1
  ret %1
bb2:
  %2 = add i32 %0, 7:i32
  out %2
  ret %2
}
"#,
            vec![-3],
        );
        assert_eq!(out.matches("add").count(), 2, "{out}");
    }

    #[test]
    fn redundant_load_in_block_removed() {
        let out = run_gvn(
            r#"
global @g size=4 []
func @main() -> i32 {
bb0:
  %0 = gaddr @g
  store i32 42:i32, %0
  %1 = load i32 %0
  %2 = load i32 %0
  %3 = add i32 %1, %2
  out %3
  ret %3
}
"#,
            vec![],
        );
        // Both loads forwarded from the store.
        assert_eq!(out.matches("load").count(), 0, "{out}");
    }

    #[test]
    fn load_not_forwarded_across_aliasing_store() {
        let out = run_gvn(
            r#"
global @g size=4 []
func @main() -> i32 {
bb0:
  %0 = gaddr @g
  store i32 1:i32, %0
  %1 = load i32 %0
  store i32 2:i32, %0
  %2 = load i32 %0
  %3 = add i32 %1, %2
  out %3
  ret %3
}
"#,
            vec![],
        );
        // Loads forwarded from their respective stores: 1 + 2 = 3.
        assert!(out.contains("out"), "{out}");
    }

    #[test]
    fn call_invalidates_loads() {
        let out = run_gvn(
            r#"
global @g size=4 []
func @bump() -> void {
bb0:
  %0 = gaddr @g
  %1 = load i32 %0
  %2 = add i32 %1, 1:i32
  store i32 %2, %0
  ret
}
func @main() -> i32 {
bb0:
  %0 = gaddr @g
  %1 = load i32 %0
  call void @bump()
  %2 = load i32 %0
  %3 = add i32 %1, %2
  out %3
  ret %3
}
"#,
            vec![],
        );
        assert_eq!(out.split("func @main").nth(1).unwrap().matches("load").count(), 2, "{out}");
    }
}
