//! Resource-constrained list scheduling with chaining and loop pipelining.

use std::collections::HashMap;
use twill_ir::cost::{hw_cost, CHAIN_BUDGET};
use twill_ir::{BlockId, FuncId, Function, InstId, Intr, Module, Op, Value};
use twill_passes::domtree::DomTree;
use twill_passes::loops::LoopInfo;

/// Operand-visit counter behind the live-value complexity guard
/// (`live_value_count_is_linear`). Compiled out of non-test builds.
#[cfg(test)]
mod work {
    use std::cell::Cell;

    thread_local! {
        static VISITS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn touch(n: usize) {
        VISITS.with(|t| t.set(t.get() + n as u64));
    }

    pub(super) fn take() -> u64 {
        VISITS.with(|t| t.replace(0))
    }
}

#[cfg(not(test))]
mod work {
    #[inline(always)]
    pub(super) fn touch(_n: usize) {}
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HlsOptions {
    /// Pack chains of dependent combinational ops into one cycle.
    pub chaining: bool,
    /// Enable iterative-modulo-style pipelining of innermost single-block
    /// loops (LegUp's modulo scheduler, thesis §3.1.2).
    pub loop_pipelining: bool,
    /// Concurrent DSP multipliers available per function.
    pub multipliers: u32,
    /// Serial dividers per function (LegUp was "set up to use a simple
    /// serial divider", thesis §6.4).
    pub dividers: u32,
}

impl Default for HlsOptions {
    fn default() -> Self {
        HlsOptions { chaining: true, loop_pipelining: true, multipliers: 4, dividers: 1 }
    }
}

/// One scheduled basic block.
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    /// Instructions in issue order with their start state (cycle offset).
    pub ops: Vec<(InstId, u32)>,
    /// Cycles to traverse the block with no stalls (≥ 1).
    pub depth: u32,
    /// Initiation interval when this block is a pipelined loop body.
    pub ii: Option<u32>,
}

#[derive(Debug, Clone)]
pub struct FuncSchedule {
    pub func: FuncId,
    pub blocks: Vec<BlockSchedule>,
    /// Total FSM states (Σ block depths) — drives the area model.
    pub states: u32,
    /// Peak concurrent use per functional-unit class (sharing estimate).
    pub peak_units: UnitUsage,
    /// Number of values live across a state boundary (register estimate).
    pub live_values: u32,
}

/// Functional-unit classes tracked for sharing/area.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitUsage {
    pub add: u32,
    pub logic: u32,
    pub shift: u32,
    pub mul: u32,
    pub div: u32,
    pub cmp: u32,
    pub mem: u32,
    pub queue: u32,
}

/// Schedules for all functions of a module.
#[derive(Debug, Clone)]
pub struct ModuleSchedule {
    pub funcs: Vec<FuncSchedule>,
    pub opts: HlsOptions,
}

/// Classify an op for resource accounting. Returns None for free ops.
fn unit_class(op: &Op) -> Option<&'static str> {
    use twill_ir::BinOp::*;
    match op {
        Op::Bin(b, _, _) => Some(match b {
            Add | Sub => "add",
            And | Or | Xor => "logic",
            Shl | AShr | LShr => "shift",
            Mul => "mul",
            SDiv | UDiv | SRem | URem => "div",
        }),
        Op::Cmp(..) => Some("cmp"),
        Op::Select(..) => Some("logic"),
        Op::Gep(..) => Some("add"),
        Op::Load(_) | Op::Store(..) => Some("mem"),
        Op::Intrin(..) => Some("queue"),
        _ => None,
    }
}

/// Is this op effectful (must issue in program order)?
fn is_effect(op: &Op) -> bool {
    matches!(op, Op::Load(_) | Op::Store(..) | Op::Intrin(..) | Op::Call(..) | Op::CallIndirect(..))
}

/// Schedule one basic block: ASAP with chaining, serialized effectful ops
/// (one runtime/memory issue per cycle, fully serialized bus), and limited
/// mul/div units.
fn schedule_block(
    m: &Module,
    f: &Function,
    block: BlockId,
    opts: &HlsOptions,
    usage: &mut HashMap<(&'static str, u32), u32>,
) -> BlockSchedule {
    let insts = &f.block(block).insts;
    // finish[i] = cycle *after* which the result is usable; chain[i] =
    // accumulated combinational delay within its finish cycle.
    let mut start: HashMap<InstId, u32> = HashMap::new();
    let mut finish: HashMap<InstId, u32> = HashMap::new();
    let mut chain: HashMap<InstId, u32> = HashMap::new();
    let mut ops: Vec<(InstId, u32)> = Vec::new();

    let mut last_effect_issue: i64 = -1;
    let mut last_mem_free: u32 = 0; // bus serialization point
    let mut div_free: u32 = 0; // serial divider availability
    let mut mul_busy: HashMap<u32, u32> = HashMap::new(); // cycle -> count
    let mut depth: u32 = 1;

    for &iid in insts.iter() {
        let inst = f.inst(iid);
        if inst.op.is_phi() {
            // Resolved as muxes on block entry: available at cycle 0.
            start.insert(iid, 0);
            finish.insert(iid, 0);
            chain.insert(iid, 0);
            ops.push((iid, 0));
            continue;
        }
        if inst.op.is_terminator() {
            // Scheduled at the block's final state below.
            continue;
        }
        let mut c = hw_cost(&inst.op);
        // Loads from constant globals are per-thread ROMs: registered
        // 1-cycle reads off the shared memory bus.
        let rom = matches!(&inst.op, Op::Load(a) if m.const_global_base(f, *a).is_some());
        if rom {
            c.latency = 1;
        }

        // Earliest cycle from operands.
        let mut ready: u32 = 0;
        let mut ready_chain: u32 = 0;
        inst.op.for_each_value(|v| {
            if let Value::Inst(d) = v {
                if let Some(&fin) = finish.get(&d) {
                    if fin > ready {
                        ready = fin;
                        ready_chain = chain.get(&d).copied().unwrap_or(0);
                    } else if fin == ready {
                        ready_chain = ready_chain.max(chain.get(&d).copied().unwrap_or(0));
                    }
                }
            }
        });

        let (s, fin, ch) = if c.latency == 0 {
            // Combinational: try to chain into `ready` cycle.
            if opts.chaining && ready_chain + c.delay <= CHAIN_BUDGET {
                (ready, ready, ready_chain + c.delay)
            } else if opts.chaining {
                (ready + 1, ready + 1, c.delay)
            } else {
                // No chaining: each op takes its own state.
                (ready + 1, ready + 1, c.delay)
            }
        } else {
            let mut s = if ready_chain > 0 { ready + 1 } else { ready.max(1) };
            // Resource constraints: effectful ops issue in order, one per
            // cycle (the bus accepts one message per cycle); loads are
            // pipelined — the 2-cycle latency spaces their *dependents*,
            // not the next issue.
            if is_effect(&inst.op) && !rom {
                s = s.max((last_effect_issue + 1) as u32);
            }
            match &inst.op {
                Op::Bin(
                    twill_ir::BinOp::SDiv
                    | twill_ir::BinOp::UDiv
                    | twill_ir::BinOp::SRem
                    | twill_ir::BinOp::URem,
                    _,
                    _,
                ) => {
                    s = s.max(div_free);
                    div_free = s + c.latency; // serial divider busy
                }
                Op::Bin(twill_ir::BinOp::Mul, _, _) => {
                    // Pipelined DSPs: limited issue width per cycle.
                    let mut cyc = s;
                    loop {
                        let n = mul_busy.entry(cyc).or_insert(0);
                        if *n < opts.multipliers {
                            *n += 1;
                            break;
                        }
                        cyc += 1;
                    }
                    s = cyc;
                }
                _ => {}
            }
            if is_effect(&inst.op) && !rom {
                last_effect_issue = s as i64;
                last_mem_free = last_mem_free.max(s + c.latency);
            }
            (s, s + c.latency, 0)
        };
        start.insert(iid, s);
        finish.insert(iid, fin);
        chain.insert(iid, ch);
        ops.push((iid, s));
        depth = depth.max(fin.max(s + 1));
    }

    // Terminator occupies the final state.
    if let Some(term) = f.block(block).terminator() {
        if f.inst(term).op.is_terminator() {
            ops.push((term, depth.saturating_sub(1)));
        }
    }

    // Record per-state unit usage for the sharing estimate.
    for &(iid, s) in &ops {
        if let Some(class) = unit_class(&f.inst(iid).op) {
            *usage.entry((class, s)).or_insert(0) += 1;
        }
    }

    BlockSchedule { ops, depth: depth.max(1), ii: None }
}

/// Loop pipelining: for an innermost loop whose body is a single block,
/// compute the initiation interval II = max(RecMII, ResMII).
fn compute_ii(f: &Function, block: BlockId, sched: &BlockSchedule) -> u32 {
    // ResMII: serialized resources — memory/queue ops share one bus port;
    // each divider occupies HW_DIV_LATENCY cycles.
    let mut mem_ops = 0u32;
    let mut div_cycles = 0u32;
    for &iid in &f.block(block).insts {
        match &f.inst(iid).op {
            Op::Load(_) | Op::Store(..) | Op::Intrin(..) => mem_ops += 1,
            Op::Bin(b, _, _) if b.can_trap() => {
                div_cycles += twill_ir::cost::HW_DIV_LATENCY;
            }
            _ => {}
        }
    }
    // Effectful ops need ~latency cycles each on the serialized bus.
    let res_mii = (mem_ops * 2).max(div_cycles).max(1);

    // RecMII: longest dataflow cycle through a loop phi, measured as the
    // path cost (in chain units: latency*BUDGET + combinational delay)
    // from the phi to its latch operand.
    let _ = sched;
    let mut rec_mii = 1u32;
    for &iid in &f.block(block).insts {
        if let Op::Phi(incoming) = &f.inst(iid).op {
            for (pred, v) in incoming {
                if *pred == block {
                    if let Value::Inst(latch) = v {
                        let units = longest_path_units(f, block, iid, *latch);
                        rec_mii = rec_mii.max(units.div_ceil(CHAIN_BUDGET).max(1));
                    }
                }
            }
        }
    }
    res_mii.max(rec_mii)
}

/// Longest DFG path cost (chain units) from `phi` to `target` within one
/// block; 0 if `target` doesn't depend on `phi`.
fn longest_path_units(f: &Function, block: BlockId, phi: InstId, target: InstId) -> u32 {
    // Memoized DFS over block-local operands.
    fn walk(
        f: &Function,
        block: BlockId,
        phi: InstId,
        node: InstId,
        memo: &mut HashMap<InstId, Option<u32>>,
        owner: &[Option<BlockId>],
    ) -> Option<u32> {
        if node == phi {
            return Some(0);
        }
        if let Some(r) = memo.get(&node) {
            return *r;
        }
        memo.insert(node, None); // cycle guard
        let mut best: Option<u32> = None;
        f.inst(node).op.for_each_value(|v| {
            if let Value::Inst(d) = v {
                if owner.get(d.index()).copied().flatten() == Some(block) {
                    if let Some(sub) = walk(f, block, phi, d, memo, owner) {
                        best = Some(best.unwrap_or(0).max(sub));
                    }
                }
            }
        });
        let r = best.map(|b| {
            let c = hw_cost(&f.inst(node).op);
            b + c.latency * CHAIN_BUDGET + c.delay
        });
        memo.insert(node, r);
        r
    }
    let owner = f.inst_blocks();
    let mut memo = HashMap::new();
    walk(f, block, phi, target, &mut memo, &owner).unwrap_or(0)
}

/// Schedule one function.
pub fn schedule_function(
    m: &Module,
    f: &Function,
    func_id: FuncId,
    opts: &HlsOptions,
) -> FuncSchedule {
    let mut usage: HashMap<(&'static str, u32), u32> = HashMap::new();
    let mut blocks: Vec<BlockSchedule> =
        f.block_ids().map(|b| schedule_block(m, f, b, opts, &mut usage)).collect();

    // Loop pipelining for innermost single-block loops.
    if opts.loop_pipelining {
        let dt = DomTree::new(f);
        let li = LoopInfo::new(f, &dt);
        for l in 0..li.loops.len() {
            let lp = &li.loops[l];
            if lp.children.is_empty() && lp.blocks.len() == 1 {
                let b = lp.header;
                let ii = compute_ii(f, b, &blocks[b.index()]);
                if ii < blocks[b.index()].depth {
                    blocks[b.index()].ii = Some(ii);
                }
            }
        }
    }

    // Peak concurrent units across all states (what sharing must provide).
    let mut peak = UnitUsage::default();
    for ((class, _), &n) in &usage {
        let slot = match *class {
            "add" => &mut peak.add,
            "logic" => &mut peak.logic,
            "shift" => &mut peak.shift,
            "mul" => &mut peak.mul,
            "div" => &mut peak.div,
            "cmp" => &mut peak.cmp,
            "mem" => &mut peak.mem,
            "queue" => &mut peak.queue,
            _ => continue,
        };
        *slot = (*slot).max(n);
    }

    // Live values across states: results used in a later cycle or block.
    // One pass over every operand in the layout flags each defining
    // instruction that some user sees from another block or a later state.
    let sched_start: HashMap<InstId, u32> =
        blocks.iter().flat_map(|b| b.ops.iter().copied()).collect();
    let start = |i: InstId| sched_start.get(&i).copied().unwrap_or(0);
    let owner = f.inst_blocks();
    let mut crosses = vec![false; f.insts.len()];
    for (ub, uid) in f.inst_ids_in_layout() {
        f.inst(uid).op.for_each_value(|v| {
            work::touch(1);
            if let Value::Inst(d) = v {
                if owner[d.index()].is_some_and(|db| db != ub || start(uid) > start(d)) {
                    crosses[d.index()] = true;
                }
            }
        });
    }
    let live = f
        .inst_ids_in_layout()
        .into_iter()
        .filter(|&(_, i)| f.inst(i).ty != twill_ir::Ty::Void && crosses[i.index()])
        .count() as u32;

    let states = blocks.iter().map(|b| b.depth).sum();
    FuncSchedule { func: func_id, blocks, states, peak_units: peak, live_values: live }
}

/// Schedule every function of a module, in function-table order.
pub fn schedule_module(m: &Module, opts: &HlsOptions) -> ModuleSchedule {
    let funcs = m.func_ids().map(|fid| schedule_function(m, m.func(fid), fid, opts)).collect();
    ModuleSchedule { funcs, opts: *opts }
}

impl ModuleSchedule {
    pub fn for_func(&self, f: FuncId) -> &FuncSchedule {
        &self.funcs[f.index()]
    }

    /// Sum of block depths, an ILP quality metric used in tests/benches.
    pub fn total_states(&self) -> u32 {
        self.funcs.iter().map(|f| f.states).sum()
    }
}

/// Estimated cycles for one pass through a block (no stalls, no pipelining).
pub fn block_latency(s: &BlockSchedule) -> u32 {
    s.depth
}

/// Does the intrinsic block the FSM until an external response?
pub fn is_blocking_intrinsic(i: &Intr) -> bool {
    matches!(i, Intr::Dequeue(_) | Intr::Enqueue(_) | Intr::SemLower(_) | Intr::In | Intr::Out)
        || matches!(i, Intr::SemRaise(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::parser::parse_module;

    fn sched(src: &str, opts: &HlsOptions) -> (twill_ir::Module, ModuleSchedule) {
        let m = parse_module(src).unwrap();
        let s = schedule_module(&m, opts);
        (m, s)
    }

    #[test]
    fn chaining_packs_simple_ops() {
        let src = "func @f(i32) -> i32 {\nbb0:\n  %0 = add i32 %a0, 1:i32\n  %1 = xor i32 %0, 7:i32\n  %2 = add i32 %1, %0\n  ret %2\n}\n";
        let (_, with) = sched(src, &HlsOptions::default());
        let (_, without) = sched(src, &HlsOptions { chaining: false, ..Default::default() });
        assert!(with.total_states() < without.total_states());
        // All three ALU ops chain into few cycles.
        assert!(with.funcs[0].blocks[0].depth <= 2, "{:?}", with.funcs[0].blocks[0]);
    }

    #[test]
    fn chain_budget_forces_new_cycle() {
        // A long dependent chain of adds must span multiple cycles.
        let src = r#"func @f(i32) -> i32 {
bb0:
  %0 = add i32 %a0, 1:i32
  %1 = add i32 %0, 1:i32
  %2 = add i32 %1, 1:i32
  %3 = add i32 %2, 1:i32
  %4 = add i32 %3, 1:i32
  %5 = add i32 %4, 1:i32
  ret %5
}
"#;
        let (_, s) = sched(src, &HlsOptions::default());
        let d = s.funcs[0].blocks[0].depth;
        assert!(d >= 3, "six dependent adds can't fit one cycle: depth={d}");
    }

    #[test]
    fn independent_ops_schedule_in_parallel() {
        let src = r#"func @f(i32, i32, i32, i32) -> i32 {
bb0:
  %0 = add i32 %a0, %a1
  %1 = add i32 %a2, %a3
  %2 = xor i32 %a0, %a2
  %3 = add i32 %0, %1
  %4 = add i32 %3, %2
  ret %4
}
"#;
        let (_, s) = sched(src, &HlsOptions::default());
        // ILP: parallel adds share the first state.
        let b = &s.funcs[0].blocks[0];
        let starts: Vec<u32> = b.ops.iter().map(|(_, c)| *c).collect();
        assert!(starts.iter().filter(|&&c| c == 0).count() >= 3, "{starts:?}");
    }

    #[test]
    fn memory_ops_serialize() {
        let src = r#"global @g size=16 []
func @f() -> i32 {
bb0:
  %p = gaddr @g
  %0 = load i32 %p
  %q = gep %p, 1:i32, 4
  %1 = load i32 %q
  %2 = add i32 %0, %1
  ret %2
}
"#;
        let (m, s) = sched(src, &HlsOptions::default());
        let f = &m.funcs[0];
        let b = &s.funcs[0].blocks[0];
        let start: HashMap<InstId, u32> = b.ops.iter().copied().collect();
        let loads: Vec<InstId> = f
            .inst_ids_in_layout()
            .into_iter()
            .filter(|(_, i)| matches!(f.inst(*i).op, Op::Load(_)))
            .map(|(_, i)| i)
            .collect();
        assert_eq!(loads.len(), 2);
        let (s0, s1) = (start[&loads[0]], start[&loads[1]]);
        assert!(s1 > s0, "loads issue in order, one per cycle: {s0} vs {s1}");
    }

    #[test]
    fn divider_is_serial() {
        let src = r#"func @f(i32, i32) -> i32 {
bb0:
  %0 = sdiv i32 %a0, 3:i32
  %1 = sdiv i32 %a1, 5:i32
  %2 = add i32 %0, %1
  ret %2
}
"#;
        let (m, s) = sched(src, &HlsOptions::default());
        let b = &s.funcs[0].blocks[0];
        let start: HashMap<InstId, u32> = b.ops.iter().copied().collect();
        let f = &m.funcs[0];
        let divs: Vec<InstId> = f
            .inst_ids_in_layout()
            .into_iter()
            .filter(|(_, i)| matches!(f.inst(*i).op, Op::Bin(twill_ir::BinOp::SDiv, _, _)))
            .map(|(_, i)| i)
            .collect();
        let gap = start[&divs[1]].abs_diff(start[&divs[0]]);
        assert!(gap >= twill_ir::cost::HW_DIV_LATENCY, "serial divider: gap={gap}");
    }

    #[test]
    fn pipelining_assigns_ii_to_simple_loop() {
        let src = r#"func @f(i32) -> i32 {
bb0:
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  %s = phi i32 [bb0: 0:i32], [bb1: %ns]
  %x = mul i32 %i, %i
  %y = xor i32 %x, 255:i32
  %z = add i32 %y, 13:i32
  %ns = add i32 %s, %z
  %ni = add i32 %i, 1:i32
  %c = cmp slt %ni, %a0
  condbr %c, bb1, bb2
bb2:
  ret %s
}
"#;
        let (_, s) = sched(src, &HlsOptions::default());
        let body = &s.funcs[0].blocks[1];
        assert!(body.ii.is_some(), "loop body should pipeline");
        assert!(body.ii.unwrap() < body.depth);
        // Disabled => no II.
        let (_, s2) = sched(src, &HlsOptions { loop_pipelining: false, ..Default::default() });
        assert!(s2.funcs[0].blocks[1].ii.is_none());
    }

    #[test]
    fn rom_loads_do_not_serialize() {
        // Loads from a constant global are per-thread ROMs: latency 1, no
        // shared-bus serialization, so two independent ROM reads issue in
        // the same state.
        let src = r#"global @tbl size=16 const [01 00 00 00 02 00 00 00 03 00 00 00 04 00 00 00]
func @f(i32, i32) -> i32 {
bb0:
  %p = gaddr @tbl
  %q0 = gep %p, %a0, 4
  %q1 = gep %p, %a1, 4
  %0 = load i32 %q0
  %1 = load i32 %q1
  %2 = add i32 %0, %1
  ret %2
}
"#;
        let (m, s) = sched(src, &HlsOptions::default());
        let f = &m.funcs[0];
        let b = &s.funcs[0].blocks[0];
        let start: HashMap<InstId, u32> = b.ops.iter().copied().collect();
        let loads: Vec<InstId> = f
            .inst_ids_in_layout()
            .into_iter()
            .filter(|(_, i)| matches!(f.inst(*i).op, Op::Load(_)))
            .map(|(_, i)| i)
            .collect();
        assert_eq!(loads.len(), 2);
        assert_eq!(start[&loads[0]], start[&loads[1]], "independent ROM reads share a state");
    }

    #[test]
    fn rom_load_faster_than_ram_load() {
        let rom = r#"global @tbl size=8 const [07 00 00 00 09 00 00 00]
func @f(i32) -> i32 {
bb0:
  %p = gaddr @tbl
  %q = gep %p, %a0, 4
  %0 = load i32 %q
  %1 = add i32 %0, 1:i32
  ret %1
}
"#;
        let ram = rom.replace(" const", "");
        let (_, sr) = sched(rom, &HlsOptions::default());
        let (_, sw) = sched(&ram, &HlsOptions::default());
        assert!(
            sr.funcs[0].blocks[0].depth < sw.funcs[0].blocks[0].depth,
            "ROM read ({}) should beat bus read ({})",
            sr.funcs[0].blocks[0].depth,
            sw.funcs[0].blocks[0].depth
        );
    }

    #[test]
    fn multiplier_limit_spreads_issues() {
        // Five independent multiplies: with one DSP they spread over five
        // cycles; with the default four they need at most two.
        let src = r#"func @f(i32, i32) -> i32 {
bb0:
  %0 = mul i32 %a0, 3:i32
  %1 = mul i32 %a0, 5:i32
  %2 = mul i32 %a0, 7:i32
  %3 = mul i32 %a1, 11:i32
  %4 = mul i32 %a1, 13:i32
  %5 = add i32 %0, %1
  %6 = add i32 %2, %3
  %7 = add i32 %5, %6
  %8 = add i32 %7, %4
  ret %8
}
"#;
        let one = HlsOptions { multipliers: 1, ..Default::default() };
        let (m, s1) = sched(src, &one);
        let (_, s4) = sched(src, &HlsOptions::default());
        let muls = |s: &ModuleSchedule| -> Vec<u32> {
            let f = &m.funcs[0];
            let start: HashMap<InstId, u32> = s.funcs[0].blocks[0].ops.iter().copied().collect();
            f.inst_ids_in_layout()
                .into_iter()
                .filter(|(_, i)| matches!(f.inst(*i).op, Op::Bin(twill_ir::BinOp::Mul, _, _)))
                .map(|(_, i)| start[&i])
                .collect()
        };
        let starts1 = muls(&s1);
        let mut uniq1 = starts1.clone();
        uniq1.sort();
        uniq1.dedup();
        assert_eq!(uniq1.len(), 5, "one DSP => all five muls in distinct cycles: {starts1:?}");
        let starts4 = muls(&s4);
        let mut uniq4 = starts4.clone();
        uniq4.sort();
        uniq4.dedup();
        assert!(uniq4.len() <= 2, "four DSPs => at most two issue cycles: {starts4:?}");
    }

    #[test]
    fn res_mii_counts_memory_traffic() {
        // Three RAM ops per iteration => ResMII >= 6 (2 bus cycles each).
        let src = r#"global @a size=64 []
global @b size=64 []
func @f(i32) -> void {
bb0:
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  %pa = gaddr @a
  %pb = gaddr @b
  %qa = gep %pa, %i, 4
  %qb = gep %pb, %i, 4
  %0 = load i32 %qa
  %1 = load i32 %qb
  %2 = add i32 %0, %1
  store i32 %2, %qa
  %ni = add i32 %i, 1:i32
  %c = cmp slt %ni, %a0
  condbr %c, bb1, bb2
bb2:
  ret
}
"#;
        let (_, s) = sched(src, &HlsOptions::default());
        let body = &s.funcs[0].blocks[1];
        if let Some(ii) = body.ii {
            assert!(ii >= 6, "3 memory ops need >= 6 bus cycles per iteration, got {ii}");
        }
    }

    #[test]
    fn rec_mii_grows_with_carried_chain() {
        // A loop-carried multiply chain forces a larger II than a pure
        // counter recurrence.
        let cheap = r#"func @f(i32) -> i32 {
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
"#;
        let heavy = r#"func @f(i32) -> i32 {
bb0:
  br bb1
bb1:
  %s = phi i32 [bb0: 1:i32], [bb1: %ns]
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  %m0 = mul i32 %s, 3:i32
  %m1 = mul i32 %m0, 5:i32
  %ns = add i32 %m1, 1:i32
  %ni = add i32 %i, 1:i32
  %c = cmp slt %ni, %a0
  condbr %c, bb1, bb2
bb2:
  ret %s
}
"#;
        let (_, sc) = sched(cheap, &HlsOptions::default());
        let (_, sh) = sched(heavy, &HlsOptions::default());
        let ii_of =
            |s: &ModuleSchedule| s.funcs[0].blocks[1].ii.unwrap_or(s.funcs[0].blocks[1].depth);
        assert!(
            ii_of(&sh) > ii_of(&sc),
            "carried mul chain must raise II: cheap={} heavy={}",
            ii_of(&sc),
            ii_of(&sh)
        );
    }

    #[test]
    fn peak_units_reflect_parallel_adders() {
        let src = r#"func @f(i32, i32, i32, i32) -> i32 {
bb0:
  %0 = add i32 %a0, %a1
  %1 = add i32 %a2, %a3
  %2 = add i32 %0, %1
  ret %2
}
"#;
        let (_, s) = sched(src, &HlsOptions::default());
        assert!(
            s.funcs[0].peak_units.add >= 2,
            "two adds share state 0: {:?}",
            s.funcs[0].peak_units
        );
    }

    #[test]
    fn live_values_count_cross_state_results() {
        // A value consumed in a later block must be registered.
        let src = r#"func @f(i32) -> i32 {
bb0:
  %0 = add i32 %a0, 3:i32
  %c = cmp sgt %a0, 0:i32
  condbr %c, bb1, bb2
bb1:
  %1 = mul i32 %0, %0
  ret %1
bb2:
  ret %0
}
"#;
        let (_, s) = sched(src, &HlsOptions::default());
        assert!(s.funcs[0].live_values >= 1, "{}", s.funcs[0].live_values);
    }

    #[test]
    fn live_value_count_is_linear() {
        // Complexity guard: operand visits of the live-value count on a
        // chain of N, 2N and 4N blocks, each with several instructions
        // reading the previous block. Linear work grows 4x, quadratic 16x.
        fn visits(blocks: usize) -> u64 {
            let mut src = String::from("func @f(i32) -> i32 {\nbb0:\n  br bb1\n");
            let mut prev = "%a0".to_string();
            for b in 1..=blocks {
                src.push_str(&format!(
                    "bb{b}:\n  %x{b} = add i32 {prev}, {b}:i32\n  %y{b} = mul i32 %x{b}, {prev}\n  \
                     %z{b} = xor i32 %y{b}, %x{b}\n  %w{b} = sub i32 %z{b}, {prev}\n  br bb{}\n",
                    b + 1
                ));
                prev = format!("%w{b}");
            }
            src.push_str(&format!("bb{}:\n  ret {prev}\n}}\n", blocks + 1));
            let m = parse_module(&src).unwrap();
            work::take();
            let s = schedule_function(&m, &m.funcs[0], FuncId(0), &HlsOptions::default());
            assert!(s.live_values as usize >= blocks, "{}", s.live_values);
            work::take()
        }
        let w = [visits(64), visits(128), visits(256)];
        let growth = w[2] as f64 / w[0] as f64;
        assert!(growth <= 6.0, "operand visits at N/2N/4N = {w:?} grow {growth:.1}x");
    }

    #[test]
    fn multiplier_limit_never_loses_ops() {
        // Resource constraints reorder issues but must schedule every op.
        let src = r#"func @f(i32) -> i32 {
bb0:
  %0 = mul i32 %a0, 3:i32
  %1 = mul i32 %a0, 5:i32
  %2 = sdiv i32 %0, 3:i32
  %3 = sdiv i32 %1, 5:i32
  %4 = add i32 %2, %3
  ret %4
}
"#;
        for mults in [1, 2, 4] {
            let opts = HlsOptions { multipliers: mults, ..Default::default() };
            let (m, s) = sched(src, &opts);
            let n_sched = s.funcs[0].blocks[0].ops.len();
            let n_insts = m.funcs[0].block(twill_ir::BlockId(0)).insts.len();
            assert_eq!(n_sched, n_insts, "multipliers={mults}");
        }
    }

    #[test]
    fn schedules_all_chstone_benchmarks() {
        for b in chstone::all() {
            let m = chstone::compile_and_prepare(&b);
            let s = schedule_module(&m, &HlsOptions::default());
            assert!(s.total_states() > 0, "{}", b.name);
            for fs in &s.funcs {
                for bs in &fs.blocks {
                    assert!(bs.depth >= 1);
                    if let Some(ii) = bs.ii {
                        assert!(ii >= 1 && ii < bs.depth);
                    }
                }
            }
        }
    }
}
