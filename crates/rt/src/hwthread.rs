//! Hardware-thread agent: cycle-accurate execution of `twill-hls` FSM
//! schedules against the simulated buses.
//!
//! Each simulation lowers the functions its hardware threads can reach
//! against their schedules once ([`HwPlan`]): constant-ROM loads are
//! flagged, each phi run becomes one parallel-copy list per predecessor,
//! and every entry carries its schedule offset inline. The executor then
//! steps the lowered form without consulting the `Module` or the
//! `ModuleSchedule`. Lowering also rejects what no hardware thread can
//! execute (`switch`, indirect calls, a phi missing an input for a
//! reachable predecessor) as a [`ConfigError`] before the run starts.
//!
//! Every operand is an index into its frame's register file, laid out per
//! function as
//!
//! ```text
//! [0, insts)                       instruction results (zero at start)
//! [insts, insts + params)          arguments, masked to their parameter
//!                                  types when the frame starts
//! [insts + params, ..)             the function's constants, each masked
//!                                  to its type, one register per value
//! ```
//!
//! Each lowered function keeps its initial register file (results and
//! arguments zero, constants in place); a new frame starts as a copy of it
//! with the caller's arguments written in, so reading an operand is one
//! indexed load whatever kind of value it names. The copy lands in a
//! register vector the thread recycles from returned frames, so a call
//! allocates nothing once the thread has reached its deepest nesting.

use crate::agent::{Progress, SimAgent};
use crate::shared::{OpKind, PendState, Pending, Shared};
use crate::system::ConfigError;
use std::collections::HashMap;
use twill_hls::schedule::ModuleSchedule;
use twill_ir::cost;
use twill_ir::interp::{eval_bin, eval_cast, eval_cmp};
use twill_ir::{
    BinOp, BlockId, CastOp, CmpOp, FuncId, InstId, Intr, Module, Op, QueueId, SemId, Ty, Value,
};

/// A lowered operand: the index of a frame register (see the module doc).
type Opnd = u32;

/// A runtime intrinsic with its queue width resolved.
#[derive(Debug, Clone, Copy)]
enum LIntr {
    Enqueue(QueueId, Ty),
    Dequeue(QueueId),
    SemRaise(SemId),
    SemLower(SemId),
    Out,
    In,
}

/// A branch edge: target block and the gap waiver it grants (`None`
/// leaves the current waiver untouched).
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: BlockId,
    waive: Option<u32>,
}

/// One schedule entry lowered against its function. Results land in the
/// register of the entry's instruction.
#[derive(Debug, Clone)]
enum LOp {
    Bin(BinOp, Opnd, Opnd),
    /// Compare; the type is the operands'.
    Cmp(CmpOp, Ty, Opnd, Opnd),
    Select(Opnd, Opnd, Opnd),
    /// Cast from the given source type.
    Cast(CastOp, Ty, Opnd),
    /// `base + sext(index: ty) * size`.
    Gep(Opnd, Opnd, Ty, u32),
    /// A global's or a function's address.
    Const(i64),
    Alloca(u32),
    /// `rom`: the address derives from a constant global, read from the
    /// thread-local ROM without bus traffic.
    Load {
        addr: Opnd,
        rom: bool,
    },
    Store {
        val: Opnd,
        addr: Opnd,
    },
    Intrin(LIntr, Option<Opnd>),
    Call(FuncId, Box<[Opnd]>),
    Ret(Option<Opnd>),
    Br(Edge),
    CondBr(Opnd, Edge, Edge),
    /// A run of consecutive phis, resolved atomically on block entry: per
    /// reachable predecessor, the range of its parallel copies in
    /// [`LFunc::copies`].
    Phis(Box<[(BlockId, u32, u32)]>),
}

/// One lowered schedule entry.
#[derive(Debug, Clone)]
struct LEntry {
    /// Schedule offset (FSM state) the entry issues in.
    start: u32,
    /// The instruction (attribution site and result register).
    iid: u32,
    /// The instruction's result type.
    ty: Ty,
    op: LOp,
}

/// A phi's copy on one incoming edge.
#[derive(Debug, Clone, Copy)]
struct PhiCopy {
    dst: u32,
    ty: Ty,
    src: Opnd,
}

/// One function lowered against its schedule.
#[derive(Debug, Clone)]
struct LFunc {
    entry: BlockId,
    /// The register file a new frame starts from (see the module doc).
    init: Vec<i64>,
    /// The first argument register.
    args: u32,
    /// Parameter types, one per argument register.
    params: Box<[Ty]>,
    /// Indexed by block; blocks unreachable from the entry stay empty.
    blocks: Vec<Vec<LEntry>>,
    copies: Vec<PhiCopy>,
}

impl LFunc {
    /// A fresh frame of this function with its arguments in place, its
    /// register file refilled into `regs` (a recycled vector).
    fn frame(
        &self,
        func: FuncId,
        args: impl Iterator<Item = i64>,
        sp_save: u32,
        mut regs: Vec<i64>,
    ) -> HwFrame {
        regs.clear();
        regs.extend_from_slice(&self.init);
        let arg_regs = &mut regs[self.args as usize..][..self.params.len()];
        for ((r, ty), v) in arg_regs.iter_mut().zip(self.params.iter()).zip(args) {
            *r = ty.mask(v);
        }
        HwFrame {
            func,
            block: self.entry,
            prev_block: None,
            op_idx: 0,
            cur_offset: 0,
            regs,
            pending_call: None,
            sp_save,
        }
    }
}

/// The hardware threads' code for one simulation: every function reachable
/// from a hardware entry, lowered against its schedule.
#[derive(Debug, Clone, Default)]
pub struct HwPlan {
    /// Indexed by function; functions no hardware thread reaches stay empty.
    funcs: Vec<LFunc>,
}

impl HwPlan {
    /// Lower every function reachable from `entries` (`sched` must have
    /// been produced from `m`), or name the first operation in them a
    /// hardware thread cannot execute.
    pub(crate) fn new(
        m: &Module,
        sched: &ModuleSchedule,
        entries: &[FuncId],
    ) -> Result<HwPlan, ConfigError> {
        let unreached = LFunc {
            entry: BlockId::new(0),
            init: Vec::new(),
            args: 0,
            params: Box::new([]),
            blocks: Vec::new(),
            copies: Vec::new(),
        };
        let mut funcs = vec![unreached; m.funcs.len()];
        let mut lowered = vec![false; m.funcs.len()];
        let mut work: Vec<FuncId> = entries.to_vec();
        while let Some(fid) = work.pop() {
            if std::mem::replace(&mut lowered[fid.index()], true) {
                continue;
            }
            let lf = lower_func(m, sched, fid)?;
            for block in &lf.blocks {
                for e in block {
                    if let LOp::Call(callee, _) = e.op {
                        work.push(callee);
                    }
                }
            }
            funcs[fid.index()] = lf;
        }
        Ok(HwPlan { funcs })
    }
}

/// The register file of a function being lowered.
struct RegFile {
    init: Vec<i64>,
    args: u32,
    /// Constant value → its register.
    consts: HashMap<i64, u32>,
}

impl RegFile {
    fn opnd(&mut self, v: Value) -> Opnd {
        match v {
            Value::Inst(i) => i.0,
            Value::Arg(n) => self.args + n as u32,
            Value::Imm(x, t) => {
                let x = t.mask(x);
                let init = &mut self.init;
                *self.consts.entry(x).or_insert_with(|| {
                    init.push(x);
                    init.len() as u32 - 1
                })
            }
        }
    }
}

fn lower_func(m: &Module, sched: &ModuleSchedule, fid: FuncId) -> Result<LFunc, ConfigError> {
    let f = m.func(fid);
    let fs = sched.for_func(fid);
    let unsupported = |iid: InstId, what: &'static str| ConfigError::HwUnsupported {
        func: f.name.clone(),
        line: f.loc(iid).line,
        what,
    };
    let reachable = twill_passes::utils::reachable_blocks(f);
    // Reachable predecessors per block, one entry per distinct block.
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids().filter(|b| reachable[b.index()]) {
        for s in f.successors(b) {
            if !preds[s.index()].contains(&b) {
                preds[s.index()].push(b);
            }
        }
    }
    let n_args = f.params.len() as u32;
    let mut rf = RegFile {
        init: vec![0; f.insts.len() + n_args as usize],
        args: f.insts.len() as u32,
        consts: HashMap::new(),
    };
    let mut copies = Vec::new();
    let mut blocks = Vec::with_capacity(fs.blocks.len());
    for (bi, bs) in fs.blocks.iter().enumerate() {
        let from = BlockId::new(bi);
        let mut ops: Vec<LEntry> = Vec::new();
        if !reachable[bi] {
            blocks.push(ops);
            continue;
        }
        // Pipelined back edge: the next iteration initiates after II cycles
        // instead of the full depth, so the edge grants a gap waiver; a
        // plain self-loop keeps the current one, any other edge clears it.
        let edge = |target: BlockId| Edge {
            target,
            waive: if target == from {
                bs.ii.map(|ii| bs.depth.saturating_sub(ii))
            } else {
                Some(0)
            },
        };
        ops.reserve(bs.ops.len());
        let mut i = 0;
        while i < bs.ops.len() {
            let (iid, start) = bs.ops[i];
            let inst = f.inst(iid);
            i += 1;
            let op = match &inst.op {
                Op::Phi(_) => {
                    // Collect the whole run of consecutive phis.
                    let mut run = vec![iid];
                    while i < bs.ops.len() && f.inst(bs.ops[i].0).op.is_phi() {
                        run.push(bs.ops[i].0);
                        i += 1;
                    }
                    let mut edges = Vec::with_capacity(preds[bi].len());
                    for &pred in &preds[bi] {
                        let lo = copies.len() as u32;
                        for &pid in &run {
                            let Op::Phi(incoming) = &f.inst(pid).op else { unreachable!() };
                            // Duplicate predecessors (condbr with equal
                            // targets) carry equal values; take the first.
                            let Some(&(_, v)) = incoming.iter().find(|(b, _)| *b == pred) else {
                                return Err(unsupported(
                                    pid,
                                    "a phi missing a predecessor's input",
                                ));
                            };
                            let src = rf.opnd(v);
                            copies.push(PhiCopy { dst: pid.0, ty: f.inst(pid).ty, src });
                        }
                        edges.push((pred, lo, copies.len() as u32));
                    }
                    LOp::Phis(edges.into())
                }
                Op::Bin(b, x, y) => LOp::Bin(*b, rf.opnd(*x), rf.opnd(*y)),
                Op::Cmp(c, x, y) => LOp::Cmp(*c, f.value_ty(*x), rf.opnd(*x), rf.opnd(*y)),
                Op::Select(c, a, b) => LOp::Select(rf.opnd(*c), rf.opnd(*a), rf.opnd(*b)),
                Op::Cast(c, v) => LOp::Cast(*c, f.value_ty(*v), rf.opnd(*v)),
                Op::Gep(b, idx, sz) => LOp::Gep(rf.opnd(*b), rf.opnd(*idx), f.value_ty(*idx), *sz),
                Op::GlobalAddr(g) => LOp::Const(m.global(*g).addr as i64),
                Op::FuncAddr(func) => LOp::Const(twill_ir::interp::func_addr_encode(*func)),
                Op::Alloca(size) => LOp::Alloca(*size),
                Op::Load(a) => {
                    LOp::Load { addr: rf.opnd(*a), rom: m.const_global_base(f, *a).is_some() }
                }
                Op::Store(v, a) => LOp::Store { val: rf.opnd(*v), addr: rf.opnd(*a) },
                Op::Intrin(intr, args) => {
                    let i = match intr {
                        Intr::Enqueue(q) => LIntr::Enqueue(*q, m.queues[q.index()].width),
                        Intr::Dequeue(q) => LIntr::Dequeue(*q),
                        Intr::SemRaise(s) => LIntr::SemRaise(*s),
                        Intr::SemLower(s) => LIntr::SemLower(*s),
                        Intr::Out => LIntr::Out,
                        Intr::In => LIntr::In,
                    };
                    LOp::Intrin(i, args.first().map(|a| rf.opnd(*a)))
                }
                Op::Call(callee, args) => {
                    LOp::Call(*callee, args.iter().map(|a| rf.opnd(*a)).collect())
                }
                Op::Ret(v) => LOp::Ret(v.map(|v| rf.opnd(v))),
                Op::Br(t) => LOp::Br(edge(*t)),
                Op::CondBr(c, t, e) => LOp::CondBr(rf.opnd(*c), edge(*t), edge(*e)),
                Op::Switch(..) => return Err(unsupported(iid, "a switch")),
                Op::CallIndirect(..) => {
                    // Function pointers require the processor (thesis §7);
                    // DSWP pins indirect calls to the software master.
                    return Err(unsupported(iid, "an indirect call"));
                }
            };
            ops.push(LEntry { start, iid: iid.0, ty: inst.ty, op });
        }
        blocks.push(ops);
    }
    Ok(LFunc {
        entry: f.entry,
        init: rf.init,
        args: rf.args,
        params: f.params.clone().into(),
        blocks,
        copies,
    })
}

struct HwFrame {
    func: FuncId,
    block: BlockId,
    prev_block: Option<BlockId>,
    op_idx: usize,
    cur_offset: u32,
    /// The register file (layout in the module doc).
    regs: Vec<i64>,
    /// The call awaiting its callee: result register and type.
    pending_call: Option<(u32, Ty)>,
    sp_save: u32,
}

impl HwFrame {
    #[inline]
    fn eval(&self, o: Opnd) -> i64 {
        self.regs[o as usize]
    }

    /// Land a completed result and move to the next entry.
    fn retire(&mut self, dst: u32, ty: Ty, v: i64) {
        if ty != Ty::Void {
            self.regs[dst as usize] = ty.mask(v);
        }
        self.op_idx += 1;
    }
}

/// An in-flight runtime/memory operation and where its result goes.
struct InFlight {
    dst: u32,
    ty: Ty,
    op: Pending,
    /// Polls so far, the issue cycle included.
    ticks: u32,
    /// Schedule offset the op issued in.
    issue_off: u32,
}

/// One hardware thread executing a (partition) entry function.
pub struct HwThread {
    agent_id: usize,
    /// The partition entry function (wait-for-graph analysis).
    entry: FuncId,
    frames: Vec<HwFrame>,
    /// Register files of returned frames, refilled by the next calls.
    reg_pool: Vec<Vec<i64>>,
    /// Phi parallel-copy staging, reused across block entries.
    phi_buf: Vec<i64>,
    /// Idle cycles left to burn (schedule gaps).
    charge: u32,
    pending: Option<InFlight>,
    /// Pipelined-loop gap waiver (depth - II) granted per back edge.
    waive_credit: u32,
    /// Instruction the current/most recent cycle belongs to (profiling);
    /// `None` before the start message arrives.
    attr_site: Option<(usize, usize)>,
    finished: bool,
    /// Stack bump pointer for allocas (pure-HW runs of whole programs).
    sp: u32,
    stack_limit: u32,
    finish_cycle: u64,
}

impl HwThread {
    pub(crate) fn new(
        agent_id: usize,
        plan: &HwPlan,
        entry: FuncId,
        stack: (u32, u32),
    ) -> HwThread {
        HwThread {
            agent_id,
            entry,
            frames: vec![plan.funcs[entry.index()].frame(
                entry,
                std::iter::empty(),
                stack.0,
                Vec::new(),
            )],
            reg_pool: Vec::new(),
            phi_buf: Vec::new(),
            charge: 0,
            pending: None,
            waive_credit: 0,
            attr_site: None,
            finished: false,
            sp: stack.0,
            stack_limit: stack.1,
            finish_cycle: 0,
        }
    }

    /// Execute schedule entries until a cycle is consumed. With `hold_bus`
    /// it returns `Blocked`, having issued nothing, on reaching a module-bus
    /// op (see [`HwThread::run_plain`]); it never returns `Blocked`
    /// otherwise.
    fn execute(&mut self, plan: &HwPlan, shared: &mut Shared, hold_bus: bool) -> Progress {
        // Only calls, returns and branches change the frame or the block,
        // and each of them ends the cycle.
        let fr = self.frames.last_mut().unwrap();
        let lf = &plan.funcs[fr.func.index()];
        let ops = &lf.blocks[fr.block.index()];
        loop {
            debug_assert!(fr.op_idx < ops.len(), "ran past block schedule");
            let e = &ops[fr.op_idx];
            let site = Some((fr.func.index(), e.iid as usize));

            // Burn schedule gaps (less any pipelining waiver).
            if e.start > fr.cur_offset {
                let mut gap = e.start - fr.cur_offset;
                let w = gap.min(self.waive_credit);
                self.waive_credit -= w;
                gap -= w;
                fr.cur_offset = e.start;
                if gap > 0 {
                    // Gap cycles are dependence latency before `e` issues.
                    self.attr_site = site;
                    self.charge = gap - 1;
                    return Progress::Busy;
                }
                continue;
            }

            let (dst, ty) = (e.iid, e.ty);
            let set = |fr: &mut HwFrame, v: i64| {
                fr.regs[dst as usize] = v;
                fr.op_idx += 1;
            };
            let (kind, lat) = match &e.op {
                LOp::Phis(edges) => {
                    // Resolve the whole phi run atomically (parallel copy):
                    // evaluate every source, then commit.
                    let prev = fr.prev_block.expect("phi without pred");
                    let &(_, lo, hi) = edges
                        .iter()
                        .find(|(b, _, _)| *b == prev)
                        .expect("the plan lists every reachable predecessor");
                    let copies = &lf.copies[lo as usize..hi as usize];
                    self.phi_buf.clear();
                    self.phi_buf.extend(copies.iter().map(|c| c.ty.mask(fr.eval(c.src))));
                    for (c, &v) in copies.iter().zip(&self.phi_buf) {
                        fr.regs[c.dst as usize] = v;
                    }
                    fr.op_idx += 1;
                    continue; // phis are free muxes on block entry
                }
                LOp::Bin(b, x, y) => {
                    // The HW divider yields 0 on /0.
                    let r = eval_bin(*b, ty, fr.eval(*x), fr.eval(*y)).unwrap_or(0);
                    set(fr, r);
                    continue;
                }
                LOp::Cmp(c, opty, x, y) => {
                    let r = eval_cmp(*c, *opty, fr.eval(*x), fr.eval(*y));
                    set(fr, r);
                    continue;
                }
                LOp::Select(c, a, b) => {
                    let r = if fr.eval(*c) & 1 != 0 { fr.eval(*a) } else { fr.eval(*b) };
                    set(fr, ty.mask(r));
                    continue;
                }
                LOp::Cast(c, from, v) => {
                    let r = eval_cast(*c, *from, ty, fr.eval(*v));
                    set(fr, r);
                    continue;
                }
                LOp::Gep(b, i, ity, sz) => {
                    let base = fr.eval(*b);
                    let idx = ity.sext(fr.eval(*i));
                    set(fr, Ty::Ptr.mask(base.wrapping_add(idx.wrapping_mul(*sz as i64))));
                    continue;
                }
                LOp::Const(v) => {
                    set(fr, *v);
                    continue;
                }
                LOp::Alloca(size) => {
                    let addr = self.sp;
                    let new_sp = (addr + ((*size + 3) & !3).max(4)).min(self.stack_limit);
                    shared.mem[addr as usize..new_sp as usize].fill(0);
                    self.sp = new_sp;
                    set(fr, addr as i64);
                    continue;
                }
                LOp::Load { addr, rom } => {
                    let addr = fr.eval(*addr) as u32;
                    if *rom {
                        // Constant-global ROM local to this thread: no
                        // shared-bus traffic; latency is in the schedule.
                        let v = twill_ir::interp::load_mem(&shared.mem, addr, ty).unwrap_or(0);
                        set(fr, ty.mask(v));
                        continue;
                    }
                    // Pipelined memory: one issue per bus grant; the
                    // 2-cycle result latency is already encoded in the
                    // schedule offsets of dependent operations.
                    (OpKind::MemLoad(addr, ty), 1)
                }
                LOp::Store { val, addr } => {
                    let addr = fr.eval(*addr) as u32;
                    (OpKind::MemStore(addr, ty, fr.eval(*val)), cost::HW_STORE_LATENCY)
                }
                LOp::Intrin(i, arg) => {
                    if hold_bus {
                        return Progress::Blocked;
                    }
                    let arg = || fr.eval(arg.expect("intrinsic operand"));
                    match *i {
                        LIntr::Enqueue(q, qty) => {
                            (OpKind::Enqueue(q, qty.mask(arg())), cost::HW_QUEUE_LATENCY)
                        }
                        LIntr::Dequeue(q) => (OpKind::Dequeue(q), cost::HW_QUEUE_LATENCY),
                        LIntr::SemRaise(s) => {
                            (OpKind::SemRaise(s, arg() as u32), cost::HW_SEM_RAISE_LATENCY)
                        }
                        LIntr::SemLower(s) => {
                            (OpKind::SemLower(s, arg() as u32), cost::HW_SEM_LOWER_LATENCY)
                        }
                        LIntr::Out => (OpKind::Out(arg()), cost::HW_QUEUE_LATENCY),
                        LIntr::In => (OpKind::In, cost::HW_QUEUE_LATENCY),
                    }
                }
                LOp::Call(callee, args) => {
                    let args = args.iter().map(|&a| fr.eval(a));
                    let regs = self.reg_pool.pop().unwrap_or_default();
                    let frame = plan.funcs[callee.index()].frame(*callee, args, self.sp, regs);
                    fr.pending_call = Some((dst, ty));
                    self.attr_site = site;
                    self.frames.push(frame);
                    self.waive_credit = 0;
                    return Progress::Busy; // FSM handoff: 1 cycle
                }
                LOp::Ret(v) => {
                    let val = v.map(|x| fr.eval(x));
                    self.attr_site = site;
                    let done = self.frames.pop().unwrap();
                    self.sp = done.sp_save;
                    self.reg_pool.push(done.regs);
                    self.waive_credit = 0;
                    return match self.frames.last_mut() {
                        None => {
                            if val.is_some() {
                                shared.ret = val;
                            }
                            self.finished = true;
                            self.finish_cycle = shared.cycle;
                            Progress::Finished
                        }
                        Some(caller) => {
                            let (call, cty) = caller.pending_call.take().expect("ret without call");
                            if let Some(v) = val {
                                caller.regs[call as usize] = cty.mask(v);
                            }
                            caller.op_idx += 1;
                            // Completing the call consumed the callee's
                            // cycles; the return handoff is 1 more.
                            Progress::Busy
                        }
                    };
                }
                LOp::Br(edge) => {
                    self.attr_site = site;
                    let edge = *edge;
                    return self.take_branch(edge);
                }
                LOp::CondBr(c, t, e) => {
                    let edge = if fr.eval(*c) & 1 != 0 { *t } else { *e };
                    self.attr_site = site;
                    return self.take_branch(edge);
                }
            };
            self.attr_site = site;
            let start = e.start;
            let p = shared.start_op(kind, lat);
            return self.issue(dst, ty, p, start, shared);
        }
    }

    fn issue(
        &mut self,
        dst: u32,
        ty: Ty,
        p: Pending,
        issue_off: u32,
        shared: &mut Shared,
    ) -> Progress {
        // The issue cycle itself polls once (grant can happen same cycle).
        let p = shared.poll(p);
        if let PendState::Done(v) = p.state {
            let fr = self.frames.last_mut().unwrap();
            fr.retire(dst, ty, v);
            fr.cur_offset = issue_off + 1;
        } else {
            self.pending = Some(InFlight { dst, ty, op: p, ticks: 1, issue_off });
        }
        Progress::Busy
    }

    fn take_branch(&mut self, edge: Edge) -> Progress {
        if let Some(w) = edge.waive {
            self.waive_credit = w;
        }
        let fr = self.frames.last_mut().unwrap();
        fr.prev_block = Some(fr.block);
        fr.block = edge.target;
        fr.op_idx = 0;
        fr.cur_offset = 0;
        Progress::Busy // the branch state consumes its cycle
    }
}

impl SimAgent for HwThread {
    fn agent_id(&self) -> usize {
        self.agent_id
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn finish_cycle(&self) -> u64 {
        self.finish_cycle
    }

    fn charge(&self) -> u32 {
        self.charge
    }

    fn charge_mut(&mut self) -> &mut u32 {
        &mut self.charge
    }

    fn pending(&self) -> Option<&Pending> {
        self.pending.as_ref().map(|p| &p.op)
    }

    fn pending_mut(&mut self) -> Option<&mut Pending> {
        self.pending.as_mut().map(|p| &mut p.op)
    }

    fn attr_site(&self) -> Option<(usize, usize)> {
        self.attr_site
    }

    fn entries(&self) -> &[FuncId] {
        std::slice::from_ref(&self.entry)
    }

    fn tick(&mut self, _m: &Module, plan: &HwPlan, shared: &mut Shared) -> Progress {
        if self.finished {
            return Progress::Finished;
        }
        if self.charge > 0 {
            self.charge -= 1;
            return Progress::Busy;
        }
        // In-flight runtime op?
        let Some(mut p) = self.pending.take() else {
            return self.execute(plan, shared, false);
        };
        p.op = shared.poll(p.op);
        p.ticks += 1;
        match p.op.state {
            PendState::Done(v) => {
                let fr = self.frames.last_mut().unwrap();
                fr.retire(p.dst, p.ty, v);
                fr.cur_offset = p.issue_off + p.ticks;
                Progress::Busy
            }
            _ => {
                self.pending = Some(p);
                Progress::Blocked
            }
        }
    }

    /// Run-ahead fast path (DESIGN.md §12): execute FSM states back to
    /// back, each in its own cycle opened with `begin_cycle`, burning
    /// schedule gaps in bulk, until an op stays in flight past its issue
    /// cycle, the thread finishes, or the clock reaches `limit`. Memory ops
    /// issue through the normal bus path: no sleeping peer polls a bus.
    /// Legal when every peer is finished or asleep through `limit`. With
    /// `peers` set the run stops before a module-bus op (queue, semaphore,
    /// stream I/O), which a sleeper later in the rotation could be served
    /// by in the same cycle, and closes that cycle again unobserved; the
    /// op issues on a real tick. Returns how many of the cycles it advanced
    /// were busy; the one other cycle it can advance is the finishing one,
    /// which `tick_agent` charges `Idle`.
    fn run_plain(
        &mut self,
        _m: &Module,
        plan: &HwPlan,
        shared: &mut Shared,
        limit: u64,
        peers: bool,
    ) -> u64 {
        let mut busy = 0;
        while self.charge == 0 && self.pending.is_none() && !self.finished && shared.cycle < limit {
            shared.begin_cycle();
            match self.execute(plan, shared, peers) {
                Progress::Busy => busy += 1,
                Progress::Blocked => {
                    // Held before a module-bus op. The entries executed in
                    // this cycle touched only the thread's own registers
                    // and stack, so the real tick carries on from the op.
                    shared.cycle -= 1;
                    shared.stats.cycles = shared.cycle;
                    break;
                }
                Progress::Finished => {}
            }
            let k = (self.charge as u64).min(limit - shared.cycle);
            self.charge -= k as u32;
            shared.skip_cycles(k);
            busy += k;
        }
        busy
    }

    /// Every poll of an in-flight op, blocked or burning latency, counts
    /// toward the schedule offset it completes at.
    fn skip_polls(&mut self, k: u64) {
        if let Some(p) = &mut self.pending {
            p.ticks = p.ticks.wrapping_add(k as u32);
        }
    }
}
