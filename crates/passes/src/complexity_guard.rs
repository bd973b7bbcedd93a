//! Deterministic complexity guard for the fixpoint CFG passes. Runs
//! `simplifycfg` and `ifconvert` on synthetic functions of N, 2N and 4N
//! blocks and bounds the growth of the instruction-touch counter
//! ([`crate::utils::work`]) instead of wall time: linear work grows 4× from
//! N to 4N, quadratic work 16×.

use crate::ifconvert::ifconvert;
use crate::simplifycfg::simplifycfg;
use crate::utils::work;
use std::fmt::Write;
use twill_ir::parser::parse_module;
use twill_ir::{Function, Module};

/// Blocks per motif in [`synthetic`].
const MOTIF_BLOCKS: usize = 5;
/// Motifs in the smallest (N-block) function.
const UNITS: usize = 24;
/// Allowed work(4N) / work(N).
const MAX_GROWTH: f64 = 6.0;

/// One function of `units` five-block motifs in a row: a branch head, two
/// arms, a phi merge and a straight-line tail. Motifs rotate through a full
/// diamond, a triangle whose false arm is an empty forwarder, and a diamond
/// with a store in one arm (never speculated).
fn synthetic(units: usize) -> Module {
    let mut s = String::from(
        "global @g size=4 []\nfunc @main(i32) -> i32 {\nbb0:\n  %g = gaddr @g\n  %acc = add i32 %a0, 1:i32\n  br bb1\n",
    );
    let mut prev = "acc".to_string();
    for u in 0..units {
        let [h, t, f, m, c] = std::array::from_fn(|k| 1 + MOTIF_BLOCKS * u + k);
        let kind = u % 3;
        writeln!(
            s,
            "bb{h}:\n  %x{u} = add i32 %{prev}, {u}:i32\n  %y{u} = mul i32 %x{u}, 3:i32\n  \
             %c{u} = cmp slt %y{u}, 50:i32\n  condbr %c{u}, bb{t}, bb{f}"
        )
        .unwrap();
        writeln!(s, "bb{t}:\n  %ta{u} = add i32 %x{u}, 5:i32\n  %tb{u} = xor i32 %ta{u}, %y{u}")
            .unwrap();
        if kind == 2 {
            writeln!(s, "  store i32 %tb{u}, %g").unwrap();
        }
        writeln!(s, "  br bb{m}").unwrap();
        let f_val = if kind == 1 {
            writeln!(s, "bb{f}:\n  br bb{m}").unwrap();
            format!("%y{u}")
        } else {
            writeln!(
                s,
                "bb{f}:\n  %fa{u} = sub i32 %x{u}, 7:i32\n  %fb{u} = and i32 %fa{u}, %y{u}\n  br bb{m}"
            )
            .unwrap();
            format!("%fb{u}")
        };
        writeln!(
            s,
            "bb{m}:\n  %p{u} = phi i32 [bb{t}: %tb{u}], [bb{f}: {f_val}]\n  \
             %m{u} = add i32 %p{u}, %y{u}\n  br bb{c}"
        )
        .unwrap();
        writeln!(
            s,
            "bb{c}:\n  %o{u} = add i32 %m{u}, 1:i32\n  %r{u} = mul i32 %o{u}, 2:i32\n  br bb{}",
            c + 1
        )
        .unwrap();
        prev = format!("r{u}");
    }
    writeln!(s, "bb{}:\n  out %{prev}\n  ret %{prev}\n}}", 1 + MOTIF_BLOCKS * units).unwrap();
    parse_module(&s).unwrap()
}

/// Work counted while `pass` runs on the `units`-motif function, after
/// `prepare` has shaped it.
fn work_of(units: usize, prepare: fn(&mut Function), pass: fn(&mut Function)) -> u64 {
    let mut m = synthetic(units);
    prepare(&mut m.funcs[0]);
    work::take();
    pass(&mut m.funcs[0]);
    let w = work::take();
    crate::utils::assert_valid_ssa(&m);
    w
}

fn assert_linear(name: &str, prepare: fn(&mut Function), pass: fn(&mut Function)) {
    let w: Vec<u64> = [1, 2, 4].iter().map(|k| work_of(k * UNITS, prepare, pass)).collect();
    let growth = w[2] as f64 / w[0] as f64;
    assert!(
        growth <= MAX_GROWTH,
        "{name}: work at N/2N/4N = {w:?} (N = {} blocks) grows {growth:.1}x from N to 4N; \
         linear is 4x, quadratic 16x",
        UNITS * MOTIF_BLOCKS
    );
}

#[test]
fn simplifycfg_work_is_linear() {
    let mut m = synthetic(UNITS);
    let before = m.funcs[0].blocks.len();
    assert!(simplifycfg(&mut m.funcs[0]));
    let after = m.funcs[0].blocks.len();
    assert!(after + UNITS <= before, "the motifs must give simplifycfg work: {before} -> {after}");
    assert_linear(
        "simplifycfg",
        |_| {},
        |f| {
            simplifycfg(f);
        },
    );
}

#[test]
fn ifconvert_work_is_linear() {
    let mut m = synthetic(UNITS);
    simplifycfg(&mut m.funcs[0]);
    assert!(ifconvert(&mut m.funcs[0]));
    let selects = twill_ir::printer::print_module(&m).matches("select").count();
    assert!(selects >= UNITS / 2, "the motifs must give ifconvert work: {selects} selects");
    let prepare = |f: &mut Function| {
        simplifycfg(f);
    };
    assert_linear("ifconvert", prepare, |f| {
        ifconvert(f);
    });
}
