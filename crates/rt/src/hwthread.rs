//! Hardware-thread agent: cycle-accurate execution of `twill-hls` FSM
//! schedules against the simulated buses.

use crate::shared::{OpKind, PendState, Pending, Shared};
use twill_hls::schedule::ModuleSchedule;
use twill_ir::cost;
use twill_ir::interp::{eval_bin, eval_cast, eval_cmp};
use twill_ir::{BlockId, FuncId, InstId, Intr, Module, Op, Ty, Value};
use twill_obs::StallClass;

/// What an agent did this tick (for stats/progress detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    Busy,
    Blocked,
    Finished,
}

/// How every cycle of a fast-forward span must be accounted for one agent:
/// the Progress the naive tick would report, the stall class it would be
/// charged under, and — for a resource-blocked op — the op kind whose
/// per-retry stall counters must be bumped. All three are constant across
/// a span by construction (the span ends before the agent's
/// `next_interesting_cycle`), so one spec covers the whole leap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SkipSpec {
    pub progress: Progress,
    pub class: StallClass,
    /// The blocked op whose retry counters accrue each skipped cycle
    /// (`None` unless the agent is in `PendState::WaitResource`).
    pub stall_kind: Option<OpKind>,
}

struct HwFrame {
    func: FuncId,
    block: BlockId,
    prev_block: Option<BlockId>,
    op_idx: usize,
    cur_offset: u32,
    regs: Vec<i64>,
    args: Vec<i64>,
    pending_call: Option<InstId>,
    sp_save: u32,
}

/// One hardware thread executing a (partition) entry function.
pub struct HwThread {
    pub agent_id: usize,
    /// The partition entry function (wait-for-graph analysis).
    entry: FuncId,
    frames: Vec<HwFrame>,
    /// Idle cycles left to burn (schedule gaps).
    charge: u32,
    /// In-flight runtime/memory operation and its destination register.
    pending: Option<(InstId, Pending, u32 /*ticks so far*/, u32 /*issue offset*/)>,
    /// Pipelined-loop gap waiver (depth - II) granted per back edge.
    waive_credit: u32,
    /// Instruction the current/most recent cycle belongs to (profiling);
    /// `None` before the start message arrives.
    attr_site: Option<(usize, usize)>,
    finished: bool,
    /// Stack bump pointer for allocas (pure-HW runs of whole programs).
    sp: u32,
    stack_limit: u32,
    pub busy_cycles: u64,
    pub blocked_cycles: u64,
    pub finish_cycle: u64,
}

impl HwThread {
    pub fn new(agent_id: usize, m: &Module, entry: FuncId, stack: (u32, u32)) -> HwThread {
        let f = m.func(entry);
        HwThread {
            agent_id,
            entry,
            frames: vec![HwFrame {
                func: entry,
                block: f.entry,
                prev_block: None,
                op_idx: 0,
                cur_offset: 0,
                regs: vec![0; f.insts.len()],
                args: vec![],
                pending_call: None,
                sp_save: stack.0,
            }],
            charge: 0,
            pending: None,
            waive_credit: 0,
            attr_site: None,
            finished: false,
            sp: stack.0,
            stack_limit: stack.1,
            busy_cycles: 0,
            blocked_cycles: 0,
            finish_cycle: 0,
        }
    }

    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Attribution for a cycle this agent reported [`Progress::Blocked`].
    pub fn stall_class(&self) -> StallClass {
        self.pending.as_ref().map(|(_, p, _, _)| p.stall_class()).unwrap_or(StallClass::Busy)
    }

    /// Delay execution until the master's StartThread message arrives.
    pub fn set_start_delay(&mut self, cycles: u32) {
        self.charge += cycles;
    }

    /// Instruction site the cycle just ticked belongs to (profiling).
    pub fn attr_site(&self) -> Option<(usize, usize)> {
        self.attr_site
    }

    /// The kind of the in-flight runtime op, if any (hang diagnosis).
    pub fn pending_kind(&self) -> Option<OpKind> {
        self.pending.as_ref().map(|(_, p, _, _)| p.kind)
    }

    /// The partition entry function (hang diagnosis).
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// Freeze this thread for `cycles` extra cycles (fault injection:
    /// a transient stall, attributed as busy time like any other charge).
    pub fn inject_stall(&mut self, cycles: u32) {
        self.charge += cycles;
    }

    /// Earliest cycle (> `now`, the cycle just ticked) at which this
    /// agent's tick can do anything beyond burning a charge cycle or
    /// re-polling a blocked/latency-burning op — the fast-forward contract
    /// (DESIGN.md §12). `u64::MAX` means "not until a peer acts".
    pub(crate) fn next_interesting_cycle(&self, now: u64, shared: &Shared) -> u64 {
        if self.finished {
            return u64::MAX;
        }
        if self.charge > 0 {
            // Ticks now+1 ..= now+charge burn the charge; the next one
            // executes.
            return now + self.charge as u64 + 1;
        }
        match &self.pending {
            Some((_, p, _, _)) => match p.state {
                // Latency(n) polls down to Done at tick now+n.
                PendState::Latency(n) => now + n as u64,
                // Blocked on a queue/sem: only a peer can unblock it, and
                // peers act at their own interesting cycles. But if the
                // resource is ready right now the last poll simply missed
                // it (the peer served later in the same cycle, or this
                // agent was riding out a charge) — the wake tick is next.
                PendState::WaitResource => {
                    if shared.resource_ready(p.kind) {
                        now + 1
                    } else {
                        u64::MAX
                    }
                }
                // Bus arbitration is re-run every cycle in agent order;
                // never skip over it.
                _ => now + 1,
            },
            None => now + 1,
        }
    }

    /// The constant per-cycle accounting of a fast-forward span starting
    /// after `now`. Only meaningful when `next_interesting_cycle` allows a
    /// skip (the run loop guarantees that).
    pub(crate) fn skip_spec(&self) -> SkipSpec {
        if self.finished {
            return SkipSpec {
                progress: Progress::Finished,
                class: StallClass::Idle,
                stall_kind: None,
            };
        }
        if self.charge > 0 {
            return SkipSpec {
                progress: Progress::Busy,
                class: StallClass::Busy,
                stall_kind: None,
            };
        }
        match &self.pending {
            Some((_, p, _, _)) => match p.state {
                PendState::WaitResource => SkipSpec {
                    progress: Progress::Blocked,
                    class: p.stall_class(),
                    stall_kind: Some(p.kind),
                },
                // Latency burn: blocked progress, charged as busy.
                _ => SkipSpec {
                    progress: Progress::Blocked,
                    class: StallClass::Busy,
                    stall_kind: None,
                },
            },
            None => {
                debug_assert!(false, "skip_spec on an agent with nothing in flight");
                SkipSpec { progress: Progress::Busy, class: StallClass::Busy, stall_kind: None }
            }
        }
    }

    /// Replay the state changes of `k` skipped ticks in one step: burn
    /// charge, count down op latency, and advance the pending-op tick
    /// counter exactly as `k` naive polls would have.
    pub(crate) fn apply_skip(&mut self, k: u64) {
        if self.finished {
            return;
        }
        if self.charge > 0 {
            debug_assert!(k <= self.charge as u64, "skip overran charge");
            self.charge -= k as u32;
            self.busy_cycles += k;
            return;
        }
        match self.pending.as_mut() {
            Some((_, p, ticks, _)) => {
                *ticks = ticks.wrapping_add(k as u32);
                if let PendState::Latency(n) = &mut p.state {
                    debug_assert!(k < *n as u64, "skip overran op latency");
                    *n -= k as u32;
                }
                self.blocked_cycles += k;
            }
            None => debug_assert!(false, "apply_skip on an agent with nothing in flight"),
        }
    }

    fn eval(&self, m: &Module, v: Value) -> i64 {
        let fr = self.frames.last().unwrap();
        match v {
            Value::Inst(i) => fr.regs[i.index()],
            Value::Arg(n) => {
                let ty = m.func(fr.func).params[n as usize];
                ty.mask(fr.args[n as usize])
            }
            Value::Imm(x, t) => t.mask(x),
        }
    }

    /// One simulated cycle.
    pub fn tick(&mut self, m: &Module, sched: &ModuleSchedule, shared: &mut Shared) -> Progress {
        if self.finished {
            return Progress::Finished;
        }
        if self.charge > 0 {
            self.charge -= 1;
            self.busy_cycles += 1;
            return Progress::Busy;
        }
        // In-flight runtime op?
        if let Some((dst, p, ticks, issue_off)) = self.pending.take() {
            let p = shared.poll(p);
            let ticks = ticks + 1;
            match p.state {
                PendState::Done(v) => {
                    let fr = self.frames.last_mut().unwrap();
                    let ty = m.func(fr.func).inst(dst).ty;
                    if ty != Ty::Void {
                        fr.regs[dst.index()] = ty.mask(v);
                    }
                    fr.op_idx += 1;
                    fr.cur_offset = issue_off + ticks;
                    self.busy_cycles += 1;
                    Progress::Busy
                }
                _ => {
                    self.pending = Some((dst, p, ticks, issue_off));
                    self.blocked_cycles += 1;
                    Progress::Blocked
                }
            }
        } else {
            self.execute(m, sched, shared)
        }
    }

    /// Execute schedule entries until a cycle is consumed.
    fn execute(&mut self, m: &Module, sched: &ModuleSchedule, shared: &mut Shared) -> Progress {
        loop {
            let (func, block, op_idx, cur_offset) = {
                let fr = self.frames.last().unwrap();
                (fr.func, fr.block, fr.op_idx, fr.cur_offset)
            };
            let bs = &sched.for_func(func).blocks[block.index()];
            debug_assert!(op_idx < bs.ops.len(), "ran past block schedule");
            let (iid, start) = bs.ops[op_idx];

            // Burn schedule gaps (less any pipelining waiver).
            if start > cur_offset {
                let mut gap = start - cur_offset;
                let w = gap.min(self.waive_credit);
                self.waive_credit -= w;
                gap -= w;
                self.frames.last_mut().unwrap().cur_offset = start;
                if gap > 0 {
                    // Gap cycles are dependence latency before `iid` issues.
                    self.attr_site = Some((func.index(), iid.index()));
                    self.charge = gap - 1;
                    self.busy_cycles += 1;
                    return Progress::Busy;
                }
                continue;
            }

            let f = m.func(func);
            let inst = f.inst(iid);
            match &inst.op {
                Op::Phi(_) => {
                    // Resolve the whole phi run atomically (parallel copy).
                    let prev = self.frames.last().unwrap().prev_block.expect("phi without pred");
                    let mut updates: Vec<(InstId, i64)> = Vec::new();
                    let mut idx = op_idx;
                    while idx < bs.ops.len() {
                        let (pid, _) = bs.ops[idx];
                        match &f.inst(pid).op {
                            Op::Phi(incoming) => {
                                let (_, v) = incoming
                                    .iter()
                                    .find(|(b, _)| *b == prev)
                                    .unwrap_or_else(|| panic!("phi {pid} missing {prev}"));
                                updates.push((pid, f.inst(pid).ty.mask(self.eval(m, *v))));
                                idx += 1;
                            }
                            _ => break,
                        }
                    }
                    let fr = self.frames.last_mut().unwrap();
                    for (pid, v) in updates {
                        fr.regs[pid.index()] = v;
                    }
                    fr.op_idx = idx;
                    continue; // phis are free muxes on block entry
                }
                Op::Bin(b, x, y) => {
                    let r = eval_bin(*b, inst.ty, self.eval(m, *x), self.eval(m, *y))
                        .unwrap_or(0); // HW divider yields 0 on /0
                    self.setreg(iid, r);
                    continue;
                }
                Op::Cmp(c, x, y) => {
                    let opty = f.value_ty(*x);
                    let r = eval_cmp(*c, opty, self.eval(m, *x), self.eval(m, *y));
                    self.setreg(iid, r);
                    continue;
                }
                Op::Select(c, a, b) => {
                    let r = if self.eval(m, *c) & 1 != 0 {
                        self.eval(m, *a)
                    } else {
                        self.eval(m, *b)
                    };
                    self.setreg(iid, inst.ty.mask(r));
                    continue;
                }
                Op::Cast(c, v) => {
                    let from = f.value_ty(*v);
                    let r = eval_cast(*c, from, inst.ty, self.eval(m, *v));
                    self.setreg(iid, r);
                    continue;
                }
                Op::Gep(b, i, sz) => {
                    let base = self.eval(m, *b);
                    let idx = f.value_ty(*i).sext(self.eval(m, *i));
                    self.setreg(iid, Ty::Ptr.mask(base.wrapping_add(idx.wrapping_mul(*sz as i64))));
                    continue;
                }
                Op::GlobalAddr(g) => {
                    self.setreg(iid, m.global(*g).addr as i64);
                    continue;
                }
                Op::Alloca(size) => {
                    let addr = self.sp;
                    let new_sp = (addr + ((*size + 3) & !3).max(4)).min(self.stack_limit);
                    for b in &mut shared.mem[addr as usize..new_sp as usize] {
                        *b = 0;
                    }
                    self.sp = new_sp;
                    self.setreg(iid, addr as i64);
                    continue;
                }
                Op::Load(a) => {
                    let addr = self.eval(m, *a) as u32;
                    if m.const_global_base(f, *a).is_some() {
                        // Constant-global ROM local to this thread: no
                        // shared-bus traffic; latency is in the schedule.
                        let v = twill_ir::interp::load_mem(&shared.mem, addr, inst.ty)
                            .unwrap_or(0);
                        self.setreg(iid, inst.ty.mask(v));
                        continue;
                    }
                    // Pipelined memory: one issue per bus grant; the
                    // 2-cycle result latency is already encoded in the
                    // schedule offsets of dependent operations.
                    let p = shared.start_op(OpKind::MemLoad(addr, inst.ty), 1);
                    return self.issue(m, iid, p, start, shared);
                }
                Op::Store(v, a) => {
                    let addr = self.eval(m, *a) as u32;
                    let val = self.eval(m, *v);
                    let p = shared
                        .start_op(OpKind::MemStore(addr, inst.ty, val), cost::HW_STORE_LATENCY);
                    return self.issue(m, iid, p, start, shared);
                }
                Op::Intrin(i, args) => {
                    let (kind, lat) = match i {
                        Intr::Enqueue(q) => {
                            let qty = m.queues[q.index()].width;
                            (
                                OpKind::Enqueue(*q, qty.mask(self.eval(m, args[0]))),
                                cost::HW_QUEUE_LATENCY,
                            )
                        }
                        Intr::Dequeue(q) => (OpKind::Dequeue(*q), cost::HW_QUEUE_LATENCY),
                        Intr::SemRaise(s) => (
                            OpKind::SemRaise(*s, self.eval(m, args[0]) as u32),
                            cost::HW_SEM_RAISE_LATENCY,
                        ),
                        Intr::SemLower(s) => (
                            OpKind::SemLower(*s, self.eval(m, args[0]) as u32),
                            cost::HW_SEM_LOWER_LATENCY,
                        ),
                        Intr::Out => (OpKind::Out(self.eval(m, args[0])), cost::HW_QUEUE_LATENCY),
                        Intr::In => (OpKind::In, cost::HW_QUEUE_LATENCY),
                    };
                    let p = shared.start_op(kind, lat);
                    return self.issue(m, iid, p, start, shared);
                }
                Op::Call(callee, args) => {
                    let argv: Vec<i64> = args.iter().map(|a| self.eval(m, *a)).collect();
                    let cf = m.func(*callee);
                    self.attr_site = Some((func.index(), iid.index()));
                    self.frames.last_mut().unwrap().pending_call = Some(iid);
                    self.frames.push(HwFrame {
                        func: *callee,
                        block: cf.entry,
                        prev_block: None,
                        op_idx: 0,
                        cur_offset: 0,
                        regs: vec![0; cf.insts.len()],
                        args: argv,
                        pending_call: None,
                        sp_save: self.sp,
                    });
                    self.waive_credit = 0;
                    self.busy_cycles += 1;
                    return Progress::Busy; // FSM handoff: 1 cycle
                }
                Op::Ret(v) => {
                    let val = v.map(|x| self.eval(m, x));
                    self.attr_site = Some((func.index(), iid.index()));
                    let done = self.frames.pop().unwrap();
                    self.sp = done.sp_save;
                    self.waive_credit = 0;
                    match self.frames.last_mut() {
                        None => {
                            self.finished = true;
                            self.finish_cycle = shared.cycle;
                            return Progress::Finished;
                        }
                        Some(caller) => {
                            let call = caller.pending_call.take().expect("ret without call");
                            if let Some(v) = val {
                                let ty = m.func(caller.func).inst(call).ty;
                                caller.regs[call.index()] = ty.mask(v);
                            }
                            caller.op_idx += 1;
                            // Completing the call consumed the callee's
                            // cycles; the return handoff is 1 more.
                            self.busy_cycles += 1;
                            return Progress::Busy;
                        }
                    }
                }
                Op::Br(t) => {
                    self.attr_site = Some((func.index(), iid.index()));
                    return self.take_branch(m, sched, *t, block);
                }
                Op::CondBr(c, t, e) => {
                    let cond = self.eval(m, *c) & 1 != 0;
                    let target = if cond { *t } else { *e };
                    self.attr_site = Some((func.index(), iid.index()));
                    return self.take_branch(m, sched, target, block);
                }
                Op::Switch(..) => panic!("switch reaches HW executor"),
                Op::FuncAddr(func) => {
                    self.setreg(iid, twill_ir::interp::func_addr_encode(*func));
                    continue;
                }
                Op::CallIndirect(..) => panic!(
                    "indirect call reached a hardware thread: function                      pointers require the processor (thesis §7); DSWP pins                      them to the software master"
                ),
            }
        }
    }

    fn setreg(&mut self, iid: InstId, v: i64) {
        let fr = self.frames.last_mut().unwrap();
        fr.regs[iid.index()] = v;
        fr.op_idx += 1;
    }

    fn issue(
        &mut self,
        m: &Module,
        dst: InstId,
        p: Pending,
        issue_offset: u32,
        shared: &mut Shared,
    ) -> Progress {
        self.attr_site = Some((self.frames.last().unwrap().func.index(), dst.index()));
        // The issue cycle itself polls once (grant can happen same cycle).
        let p = shared.poll(p);
        if let PendState::Done(v) = p.state {
            let fr = self.frames.last_mut().unwrap();
            let ty = m.func(fr.func).inst(dst).ty;
            if ty != Ty::Void {
                fr.regs[dst.index()] = ty.mask(v);
            }
            fr.op_idx += 1;
            fr.cur_offset = issue_offset + 1;
            self.busy_cycles += 1;
            return Progress::Busy;
        }
        self.pending = Some((dst, p, 1, issue_offset));
        self.busy_cycles += 1;
        Progress::Busy
    }

    fn take_branch(
        &mut self,
        m: &Module,
        sched: &ModuleSchedule,
        target: BlockId,
        from: BlockId,
    ) -> Progress {
        let func = self.frames.last().unwrap().func;
        let bs = &sched.for_func(func).blocks[from.index()];
        // Pipelined back edge: next iteration initiates after II cycles
        // instead of the full depth — grant a gap waiver.
        if target == from {
            if let Some(ii) = bs.ii {
                self.waive_credit = bs.depth.saturating_sub(ii);
            }
        } else {
            self.waive_credit = 0;
        }
        let fr = self.frames.last_mut().unwrap();
        fr.prev_block = Some(from);
        fr.block = target;
        fr.op_idx = 0;
        fr.cur_offset = 0;
        let _ = m;
        self.busy_cycles += 1;
        Progress::Busy // the branch state consumes its cycle
    }
}
