//! The thesis' §7 function-pointer extension: function addresses are
//! first-class, indirect calls execute on the software master, and the
//! rest of the program still reaches hardware.

use twill::{Compiler, ConfigError, SimError};

const DISPATCH_SRC: &str = r#"
int op_add(int a, int b) { return a + b; }
int op_xor(int a, int b) { return a ^ b; }
int op_mul(int a, int b) { return (a * b) & 0xFFFF; }

int main() {
  int *table[4];
  table[0] = op_add;
  table[1] = op_xor;
  table[2] = op_mul;
  table[3] = op_add;
  int acc = 1;
  unsigned int hw = 0;
  for (int i = 0; i < 16; i++) {
    int v = in();
    acc = table[i & 3](acc, v);      /* indirect: software master */
    unsigned int x = (unsigned int) v * 2654435761u;
    hw = hw * 31 + ((x >> 9) ^ x);   /* pure mixing: hardware     */
  }
  out(acc);
  out((int) hw);
  return 0;
}
"#;

fn input() -> Vec<i32> {
    (0..16).map(|i| i * 37 + 5).collect()
}

#[test]
fn dispatch_table_all_configs() {
    let b = Compiler::new().partitions(3).compile("fp", DISPATCH_SRC).expect("compile");
    let golden = b.run_reference(input()).expect("reference");
    // Hand-check the accumulator against Rust.
    let mut acc: i32 = 1;
    for (i, v) in input().into_iter().enumerate() {
        acc = match i & 3 {
            0 | 3 => acc.wrapping_add(v),
            1 => acc ^ v,
            _ => (acc.wrapping_mul(v)) & 0xFFFF,
        };
    }
    assert_eq!(golden[0], acc);

    assert_eq!(b.simulate_pure_sw(input()).unwrap().output, golden);
    let tw = b.simulate_hybrid(input()).expect("hybrid");
    assert_eq!(tw.output, golden);
}

/// Pure HW runs the whole program as one hardware thread, and hardware
/// cannot call through a pointer: the run is refused before it starts,
/// naming the function and the C line of the indirect call.
#[test]
fn pure_hw_rejects_the_indirect_call_before_the_run() {
    let b = Compiler::new().partitions(3).compile("fp", DISPATCH_SRC).unwrap();
    let err = b.simulate_pure_hw(input()).expect_err("pure HW cannot call through a pointer");
    match &err {
        SimError::Config(ConfigError::HwUnsupported { func, line, what }) => {
            assert_eq!(func, "main");
            assert_eq!(*line, 16, "the line of `acc = table[i & 3](acc, v)`");
            assert!(what.contains("indirect call"), "{what}");
        }
        other => panic!("expected HwUnsupported, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("@main, line 16") && msg.contains("hardware thread"), "{msg}");
}

#[test]
fn address_taken_functions_are_software_pinned() {
    let b = Compiler::new().partitions(3).compile("fp", DISPATCH_SRC).unwrap();
    for f in &b.dswp().module.funcs {
        let hw_version = f.name.starts_with("op_") && !f.name.ends_with("_dswp_0");
        if hw_version {
            let real = f
                .inst_ids_in_layout()
                .iter()
                .filter(|(_, i)| {
                    !matches!(f.inst(*i).op, twill_ir::Op::Br(_) | twill_ir::Op::Ret(_))
                })
                .count();
            assert_eq!(real, 0, "@{} must be a stub (software-pinned)", f.name);
        }
    }
}

#[test]
fn deref_call_syntax() {
    let src = r#"
int twice(int x) { return 2 * x; }
int main() {
  int *fp = twice;
  out((*fp)(21));
  out(fp(10));
  return 0;
}
"#;
    let b = Compiler::new().partitions(2).compile("fp2", src).unwrap();
    let golden = b.run_reference(vec![]).unwrap();
    assert_eq!(golden, vec![42, 20]);
    assert_eq!(b.simulate_hybrid(vec![]).unwrap().output, golden);
}

#[test]
fn bad_indirect_target_traps() {
    let src = r#"
int main() {
  int x = 1234;
  int *p = &x;
  out(p(1));
  return 0;
}
"#;
    let b = Compiler::new().partitions(2).compile("bad", src).unwrap();
    let err = b.run_reference(vec![]).unwrap_err();
    assert!(matches!(err, twill_ir::ExecError::Trap(_)), "{err}");
}

#[test]
fn arity_mismatch_traps() {
    let src = r#"
int one_arg(int x) { return x; }
int main() {
  int *fp = one_arg;
  out(fp(1, 2));
  return 0;
}
"#;
    let b = Compiler::new().partitions(2).compile("arity", src).unwrap();
    let err = b.run_reference(vec![]).unwrap_err();
    assert!(matches!(err, twill_ir::ExecError::Trap(_)), "{err}");
}

#[test]
fn functions_not_assignable() {
    let src = "int f() { return 1; } int main() { f = 3; return 0; }";
    let err = match Compiler::new().compile("na", src) {
        Err(e) => e,
        Ok(_) => panic!("expected a semantic error"),
    };
    assert!(err.msg.contains("not assignable"), "{err}");
}
