//! Reference interpreter for the IR.
//!
//! This is the *semantic ground truth* for the whole project: the frontend,
//! every optimization pass, the DSWP thread extractor, the HLS FSM executor
//! and the cycle-level runtime simulator are all validated against it.
//!
//! The interpreter is a resumable stepping machine: a step that hits a
//! full/empty queue or a zero semaphore reports [`StepEvent::Blocked`]
//! without advancing, and can be retried after other threads make
//! progress. `twill-rt`'s CPU agent steps its software threads (the
//! partition functions produced by DSWP) this way.
//!
//! Runtime effects (queues, semaphores, stream I/O) are routed through the
//! [`Runtime`] trait; [`Machine`] provides the functional implementation,
//! while `twill-rt` provides the cycle-accurate bus-level one.

use crate::entities::{BlockId, FuncId, InstId, QueueId, SemId};
use crate::inst::{BinOp, CastOp, CmpOp, Intr, Op, Value};
use crate::layout;
use crate::module::{Module, Ty};
use std::collections::VecDeque;

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    Trap(String),
    DivByZero,
    /// Address, size of the faulting access.
    MemFault(u32, u32),
    /// Stack region exhausted.
    StackOverflow,
    /// Recursive call detected (unsupported by Twill, like the thesis).
    Recursion(String),
    /// The single-threaded runner hit a blocking runtime op.
    DeadlockedOn(String),
    /// Step budget exhausted.
    OutOfFuel,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Trap(m) => write!(f, "trap: {m}"),
            ExecError::DivByZero => write!(f, "division by zero"),
            ExecError::MemFault(a, s) => write!(f, "memory fault at {a:#x} size {s}"),
            ExecError::StackOverflow => write!(f, "stack overflow"),
            ExecError::Recursion(name) => write!(f, "recursion into @{name}"),
            ExecError::DeadlockedOn(m) => write!(f, "deadlocked on {m}"),
            ExecError::OutOfFuel => write!(f, "out of fuel"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of trying a blocking runtime operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtPoll {
    /// Operation completed (payload for dequeue, 0 otherwise).
    Done(i64),
    /// Operation cannot complete now; retry later without advancing.
    WouldBlock,
}

/// Interface to the runtime primitives, implemented functionally by
/// [`Machine`] and cycle-accurately by `twill-rt`.
pub trait Runtime {
    fn enqueue(&mut self, q: QueueId, v: i64) -> RtPoll;
    fn dequeue(&mut self, q: QueueId) -> RtPoll;
    fn sem_raise(&mut self, s: SemId, n: i64) -> RtPoll;
    fn sem_lower(&mut self, s: SemId, n: i64) -> RtPoll;
    fn write_out(&mut self, v: i64);
    fn read_in(&mut self) -> i64;
}

/// Shared machine state: the unified memory image plus a functional
/// implementation of queues/semaphores and stream I/O.
pub struct Machine {
    pub mem: Vec<u8>,
    pub input: Vec<i32>,
    pub in_pos: usize,
    pub output: Vec<i32>,
    queues: Vec<VecDeque<i64>>,
    queue_caps: Vec<u32>,
    sems: Vec<u32>,
    sem_maxes: Vec<u32>,
}

impl Machine {
    /// Build a machine for `m`: lay out globals (addresses must already be
    /// assigned via [`layout::assign_global_addrs`]) and size queues/sems
    /// from the module's declarations.
    pub fn new(m: &Module, mem_size: u32, input: Vec<i32>) -> Machine {
        Machine {
            mem: layout::initial_memory(m, mem_size),
            input,
            in_pos: 0,
            output: Vec::new(),
            queues: m.queues.iter().map(|_| VecDeque::new()).collect(),
            queue_caps: m.queues.iter().map(|q| q.depth).collect(),
            sems: m.sems.iter().map(|s| s.initial).collect(),
            sem_maxes: m.sems.iter().map(|s| s.max).collect(),
        }
    }

    /// True if every queue is drained (used to assert clean pipeline exit).
    pub fn all_queues_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }
}

impl Runtime for Machine {
    fn enqueue(&mut self, q: QueueId, v: i64) -> RtPoll {
        let cap = self.queue_caps[q.index()] as usize;
        let qq = &mut self.queues[q.index()];
        if qq.len() >= cap {
            RtPoll::WouldBlock
        } else {
            qq.push_back(v);
            RtPoll::Done(0)
        }
    }

    fn dequeue(&mut self, q: QueueId) -> RtPoll {
        match self.queues[q.index()].pop_front() {
            Some(v) => RtPoll::Done(v),
            None => RtPoll::WouldBlock,
        }
    }

    fn sem_raise(&mut self, s: SemId, n: i64) -> RtPoll {
        let max = self.sem_maxes[s.index()];
        let v = &mut self.sems[s.index()];
        *v = (*v + n.max(0) as u32).min(max);
        RtPoll::Done(0)
    }

    fn sem_lower(&mut self, s: SemId, n: i64) -> RtPoll {
        let n = n.max(0) as u32;
        let v = &mut self.sems[s.index()];
        if *v >= n {
            *v -= n;
            RtPoll::Done(0)
        } else {
            RtPoll::WouldBlock
        }
    }

    fn write_out(&mut self, v: i64) {
        self.output.push(v as i32);
    }

    fn read_in(&mut self) -> i64 {
        let v = self.input.get(self.in_pos).copied().unwrap_or(-1);
        self.in_pos += 1;
        v as i64
    }
}

// ---------------------------------------------------------------------------
// Memory access helpers (shared with the HLS executor and the simulator)
// ---------------------------------------------------------------------------

/// Little-endian typed load; returns raw bits zero-extended.
pub fn load_mem(mem: &[u8], addr: u32, ty: Ty) -> Result<i64, ExecError> {
    let size = ty.bytes();
    if addr < layout::GLOBAL_BASE || (addr as u64 + size as u64) > mem.len() as u64 {
        return Err(ExecError::MemFault(addr, size));
    }
    let a = addr as usize;
    let v = match ty {
        Ty::I1 => mem[a] as i64 & 1,
        Ty::I8 => mem[a] as i64,
        Ty::I16 => u16::from_le_bytes([mem[a], mem[a + 1]]) as i64,
        Ty::I32 | Ty::Ptr => {
            u32::from_le_bytes([mem[a], mem[a + 1], mem[a + 2], mem[a + 3]]) as i64
        }
        Ty::Void => 0,
    };
    Ok(v)
}

/// Little-endian typed store.
pub fn store_mem(mem: &mut [u8], addr: u32, ty: Ty, val: i64) -> Result<(), ExecError> {
    let size = ty.bytes();
    if addr < layout::GLOBAL_BASE || (addr as u64 + size as u64) > mem.len() as u64 {
        return Err(ExecError::MemFault(addr, size));
    }
    let a = addr as usize;
    match ty {
        Ty::I1 => mem[a] = (val & 1) as u8,
        Ty::I8 => mem[a] = val as u8,
        Ty::I16 => mem[a..a + 2].copy_from_slice(&(val as u16).to_le_bytes()),
        Ty::I32 | Ty::Ptr => mem[a..a + 4].copy_from_slice(&(val as u32).to_le_bytes()),
        Ty::Void => {}
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pure operation evaluation (shared with HLS executor / const-folding)
// ---------------------------------------------------------------------------

/// Evaluate a binary op on raw (zero-extended) operand bits of type `ty`,
/// returning the raw result masked to `ty`.
pub fn eval_bin(op: BinOp, ty: Ty, a: i64, b: i64) -> Result<i64, ExecError> {
    let ua = ty.mask(a);
    let ub = ty.mask(b);
    let sa = ty.sext(ua);
    let sb = ty.sext(ub);
    let bits = ty.bits().max(1);
    let sh = (ub as u32) % bits;
    let r = match op {
        BinOp::Add => ua.wrapping_add(ub),
        BinOp::Sub => ua.wrapping_sub(ub),
        BinOp::Mul => ua.wrapping_mul(ub),
        BinOp::SDiv => {
            if sb == 0 {
                return Err(ExecError::DivByZero);
            }
            sa.wrapping_div(sb)
        }
        BinOp::UDiv => {
            if ub == 0 {
                return Err(ExecError::DivByZero);
            }
            ((ua as u64) / (ub as u64)) as i64
        }
        BinOp::SRem => {
            if sb == 0 {
                return Err(ExecError::DivByZero);
            }
            sa.wrapping_rem(sb)
        }
        BinOp::URem => {
            if ub == 0 {
                return Err(ExecError::DivByZero);
            }
            ((ua as u64) % (ub as u64)) as i64
        }
        BinOp::And => ua & ub,
        BinOp::Or => ua | ub,
        BinOp::Xor => ua ^ ub,
        BinOp::Shl => ua.wrapping_shl(sh),
        BinOp::AShr => sa.wrapping_shr(sh),
        BinOp::LShr => ((ua as u64) >> sh) as i64,
    };
    Ok(ty.mask(r))
}

/// Evaluate a comparison on raw bits of type `ty`, returning 0/1.
pub fn eval_cmp(op: CmpOp, ty: Ty, a: i64, b: i64) -> i64 {
    let ua = ty.mask(a) as u64;
    let ub = ty.mask(b) as u64;
    let sa = ty.sext(ty.mask(a));
    let sb = ty.sext(ty.mask(b));
    let r = match op {
        CmpOp::Eq => ua == ub,
        CmpOp::Ne => ua != ub,
        CmpOp::Slt => sa < sb,
        CmpOp::Sle => sa <= sb,
        CmpOp::Sgt => sa > sb,
        CmpOp::Sge => sa >= sb,
        CmpOp::Ult => ua < ub,
        CmpOp::Ule => ua <= ub,
        CmpOp::Ugt => ua > ub,
        CmpOp::Uge => ua >= ub,
    };
    r as i64
}

/// Evaluate a cast from `from_ty` raw bits to `to_ty` raw bits.
pub fn eval_cast(op: CastOp, from_ty: Ty, to_ty: Ty, v: i64) -> i64 {
    match op {
        CastOp::Zext => to_ty.mask(from_ty.mask(v)),
        CastOp::Sext => to_ty.mask(from_ty.sext(from_ty.mask(v))),
        CastOp::Trunc => to_ty.mask(v),
    }
}

/// Function addresses live far above the data address space so stray
/// pointers cannot collide with them.
pub const FUNC_ADDR_BASE: i64 = 0xF000_0000;

/// Encode a function id as a pointer-sized "address".
pub fn func_addr_encode(f: FuncId) -> i64 {
    FUNC_ADDR_BASE + f.0 as i64
}

/// Decode a function address back to an id, if valid.
pub fn func_addr_decode(raw: i64, m: &Module) -> Option<FuncId> {
    let v = raw & 0xffff_ffff;
    if (FUNC_ADDR_BASE..FUNC_ADDR_BASE + m.funcs.len() as i64).contains(&v) {
        Some(FuncId((v - FUNC_ADDR_BASE) as u32))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// The stepping interpreter
// ---------------------------------------------------------------------------

/// What a single [`Interp::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Executed the given instruction (of the given function).
    Executed(FuncId, InstId),
    /// Hit a blocking runtime op; nothing advanced. Retry later.
    Blocked(FuncId, InstId),
    /// The outermost function returned (payload = return value).
    Finished(Option<i64>),
}

struct Frame {
    func: FuncId,
    block: BlockId,
    pc: usize,
    regs: Vec<i64>,
    args: Vec<i64>,
    sp_save: u32,
    /// Call instruction in this frame currently awaiting a callee result.
    pending_call: Option<InstId>,
}

/// A resumable single thread of IR execution.
pub struct Interp {
    frames: Vec<Frame>,
    sp: u32,
    stack_limit: u32,
    finished: Option<Option<i64>>,
    /// Total instructions executed.
    pub steps: u64,
    /// Phi parallel-copy staging, reused across branches.
    phi_buf: Vec<(InstId, i64)>,
    /// Register and argument vectors of returned frames, reused by the
    /// next calls so a call allocates nothing past the deepest nesting.
    frame_pool: Vec<(Vec<i64>, Vec<i64>)>,
}

impl Interp {
    /// Start executing `func(args)`. `stack` is the [start, limit) region in
    /// machine memory this thread may use for allocas.
    pub fn new(m: &Module, func: FuncId, args: Vec<i64>, stack: (u32, u32)) -> Interp {
        let f = m.func(func);
        let frame = Frame {
            func,
            block: f.entry,
            pc: 0,
            regs: vec![0; f.insts.len()],
            args,
            sp_save: stack.0,
            pending_call: None,
        };
        Interp {
            frames: vec![frame],
            sp: stack.0,
            stack_limit: stack.1,
            finished: None,
            steps: 0,
            phi_buf: Vec::new(),
            frame_pool: Vec::new(),
        }
    }

    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    pub fn result(&self) -> Option<Option<i64>> {
        self.finished
    }

    /// Current call depth (for diagnostics).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Location of the next instruction to execute.
    pub fn current_loc(&self, m: &Module) -> Option<(FuncId, InstId)> {
        let fr = self.frames.last()?;
        let f = m.func(fr.func);
        let iid = *f.block(fr.block).insts.get(fr.pc)?;
        Some((fr.func, iid))
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

    /// Enter `callee` with `args` evaluated in the current frame.
    fn push_frame(&mut self, m: &Module, callee: FuncId, args: &[Value]) {
        let (mut regs, mut argv) = self.frame_pool.pop().unwrap_or_default();
        argv.clear();
        argv.extend(args.iter().map(|a| self.eval(m, *a)));
        let cf = m.func(callee);
        regs.clear();
        regs.resize(cf.insts.len(), 0);
        self.frames.push(Frame {
            func: callee,
            block: cf.entry,
            pc: 0,
            regs,
            args: argv,
            sp_save: self.sp,
            pending_call: None,
        });
    }

    /// Transfer control to `target`, resolving its PHIs in parallel.
    fn branch_to(&mut self, m: &Module, from: BlockId, target: BlockId) {
        // Evaluate all phi inputs first (parallel-copy semantics), then
        // commit, so phis referencing other phis of the same block read the
        // pre-branch values.
        let fid = self.frames.last().unwrap().func;
        let f = m.func(fid);
        let mut updates = std::mem::take(&mut self.phi_buf);
        updates.clear();
        for &iid in &f.block(target).insts {
            match &f.inst(iid).op {
                Op::Phi(incoming) => {
                    // Predecessors may appear multiple times (condbr with
                    // equal targets); any matching entry has the same value.
                    let (_, v) = incoming
                        .iter()
                        .find(|(b, _)| *b == from)
                        .unwrap_or_else(|| panic!("phi {iid} missing incoming for {from}"));
                    updates.push((iid, self.eval(m, *v)));
                }
                _ => break,
            }
        }
        let fr = self.frames.last_mut().unwrap();
        for &(iid, v) in &updates {
            fr.regs[iid.index()] = v;
        }
        fr.block = target;
        fr.pc = updates.len();
        self.phi_buf = updates;
    }

    /// Execute one instruction. `mem` is the unified memory; `rt` handles
    /// runtime primitives.
    pub fn step(
        &mut self,
        m: &Module,
        mem: &mut [u8],
        rt: &mut dyn Runtime,
    ) -> Result<StepEvent, ExecError> {
        if let Some(r) = self.finished {
            return Ok(StepEvent::Finished(r));
        }
        let (fid, iid) = {
            let fr = self.frames.last().unwrap();
            let f = m.func(fr.func);
            let iid = f.block(fr.block).insts[fr.pc];
            (fr.func, iid)
        };
        let f = m.func(fid);
        let inst = f.inst(iid);
        let ty = inst.ty;

        macro_rules! setreg {
            ($v:expr) => {{
                let v = ty.mask($v);
                self.frames.last_mut().unwrap().regs[iid.index()] = v;
            }};
        }
        macro_rules! advance {
            () => {{
                self.frames.last_mut().unwrap().pc += 1;
                self.steps += 1;
                return Ok(StepEvent::Executed(fid, iid));
            }};
        }

        match &inst.op {
            Op::Bin(b, x, y) => {
                let r = eval_bin(*b, ty, self.eval(m, *x), self.eval(m, *y))?;
                setreg!(r);
                advance!();
            }
            Op::Cmp(c, x, y) => {
                let opty = f.value_ty(*x);
                let r = eval_cmp(*c, opty, self.eval(m, *x), self.eval(m, *y));
                setreg!(r);
                advance!();
            }
            Op::Select(c, a, b) => {
                let r = if self.eval(m, *c) & 1 != 0 { self.eval(m, *a) } else { self.eval(m, *b) };
                setreg!(r);
                advance!();
            }
            Op::Cast(c, v) => {
                let from = f.value_ty(*v);
                let r = eval_cast(*c, from, ty, self.eval(m, *v));
                setreg!(r);
                advance!();
            }
            Op::Load(a) => {
                let addr = self.eval(m, *a) as u32;
                let r = load_mem(mem, addr, ty)?;
                setreg!(r);
                advance!();
            }
            Op::Store(v, a) => {
                let addr = self.eval(m, *a) as u32;
                let val = self.eval(m, *v);
                store_mem(mem, addr, ty, val)?;
                advance!();
            }
            Op::Gep(base, idx, sz) => {
                let b = self.eval(m, *base);
                let i = f.value_ty(*idx).sext(self.eval(m, *idx));
                setreg!(b.wrapping_add(i.wrapping_mul(*sz as i64)));
                advance!();
            }
            Op::Alloca(size) => {
                let addr = self.sp;
                let new_sp = addr + ((*size + 3) & !3).max(4);
                if new_sp > self.stack_limit {
                    return Err(ExecError::StackOverflow);
                }
                self.sp = new_sp;
                // Zero the slot (deterministic across configs).
                for b in &mut mem[addr as usize..new_sp as usize] {
                    *b = 0;
                }
                setreg!(addr as i64);
                advance!();
            }
            Op::GlobalAddr(g) => {
                setreg!(m.global(*g).addr as i64);
                advance!();
            }
            Op::FuncAddr(func) => {
                setreg!(func_addr_encode(*func));
                advance!();
            }
            Op::CallIndirect(target, args) => {
                let raw = self.eval(m, *target);
                let Some(callee) = func_addr_decode(raw, m) else {
                    return Err(ExecError::Trap(format!(
                        "indirect call through non-function address {raw:#x}"
                    )));
                };
                let cf = m.func(callee);
                if cf.params.len() != args.len() {
                    return Err(ExecError::Trap(format!(
                        "indirect call to @{} with {} args (expects {})",
                        cf.name,
                        args.len(),
                        cf.params.len()
                    )));
                }
                if self.frames.len() >= 512 {
                    return Err(ExecError::Recursion(cf.name.clone()));
                }
                self.frames.last_mut().unwrap().pending_call = Some(iid);
                self.push_frame(m, callee, args);
                self.steps += 1;
                Ok(StepEvent::Executed(fid, iid))
            }
            Op::Call(callee, args) => {
                // Bounded call depth (recursion is permitted when the
                // frontend was configured to accept it; runaway recursion
                // still faults like a real stack overflow would).
                if self.frames.len() >= 512 {
                    return Err(ExecError::Recursion(m.func(*callee).name.clone()));
                }
                self.frames.last_mut().unwrap().pending_call = Some(iid);
                self.push_frame(m, *callee, args);
                self.steps += 1;
                Ok(StepEvent::Executed(fid, iid))
            }
            Op::Intrin(intr, args) => {
                let poll = match intr {
                    Intr::Out => {
                        rt.write_out(self.eval(m, args[0]));
                        RtPoll::Done(0)
                    }
                    Intr::In => RtPoll::Done(rt.read_in()),
                    Intr::Enqueue(q) => {
                        let qty = m.queues[q.index()].width;
                        rt.enqueue(*q, qty.mask(self.eval(m, args[0])))
                    }
                    Intr::Dequeue(q) => rt.dequeue(*q),
                    Intr::SemRaise(s) => rt.sem_raise(*s, self.eval(m, args[0])),
                    Intr::SemLower(s) => rt.sem_lower(*s, self.eval(m, args[0])),
                };
                match poll {
                    RtPoll::Done(v) => {
                        if ty != Ty::Void {
                            setreg!(v);
                        }
                        advance!();
                    }
                    RtPoll::WouldBlock => Ok(StepEvent::Blocked(fid, iid)),
                }
            }
            Op::Phi(_) => {
                // Phis are resolved at branch time; stepping onto one means
                // the entry block starts with a phi, which is invalid IR.
                Err(ExecError::Trap(format!("executed phi {iid} directly")))
            }
            Op::Br(t) => {
                let from = self.frames.last().unwrap().block;
                self.branch_to(m, from, *t);
                self.steps += 1;
                Ok(StepEvent::Executed(fid, iid))
            }
            Op::CondBr(c, t, e) => {
                let cond = self.eval(m, *c) & 1 != 0;
                let from = self.frames.last().unwrap().block;
                self.branch_to(m, from, if cond { *t } else { *e });
                self.steps += 1;
                Ok(StepEvent::Executed(fid, iid))
            }
            Op::Switch(v, cases, default) => {
                let x = f.value_ty(*v).sext(self.eval(m, *v));
                let target =
                    cases.iter().find(|(k, _)| *k == x).map(|(_, b)| *b).unwrap_or(*default);
                let from = self.frames.last().unwrap().block;
                self.branch_to(m, from, target);
                self.steps += 1;
                Ok(StepEvent::Executed(fid, iid))
            }
            Op::Ret(v) => {
                let val = v.map(|x| self.eval(m, x));
                let done = self.frames.pop().unwrap();
                self.sp = done.sp_save;
                self.frame_pool.push((done.regs, done.args));
                self.steps += 1;
                match self.frames.last_mut() {
                    None => {
                        self.finished = Some(val);
                        Ok(StepEvent::Finished(val))
                    }
                    Some(caller) => {
                        let call_inst =
                            caller.pending_call.take().expect("return without pending call");
                        if let Some(v) = val {
                            let cf = m.func(caller.func);
                            caller.regs[call_inst.index()] = cf.inst(call_inst).ty.mask(v);
                        }
                        caller.pc += 1;
                        Ok(StepEvent::Executed(fid, iid))
                    }
                }
            }
        }
    }
}

/// Convenience: run `main` of a single-threaded module to completion with
/// the functional runtime. Any blocking op is a deadlock (single thread).
pub fn run_main(
    m: &Module,
    input: Vec<i32>,
    fuel: u64,
) -> Result<(Vec<i32>, Option<i64>, u64), ExecError> {
    let main = m.find_func("main").ok_or_else(|| ExecError::Trap("no @main in module".into()))?;
    let mut machine = Machine::new(m, layout::DEFAULT_MEM_SIZE, input);
    let globals_end =
        m.globals.iter().map(|g| g.addr + g.size).max().unwrap_or(layout::GLOBAL_BASE);
    let stack_base = (globals_end + 63) & !63;
    let mut it = Interp::new(m, main, vec![], (stack_base, layout::DEFAULT_MEM_SIZE));
    let mut remaining = fuel;
    loop {
        if remaining == 0 {
            return Err(ExecError::OutOfFuel);
        }
        remaining -= 1;
        let mut mem = std::mem::take(&mut machine.mem);
        let ev = it.step(m, &mut mem, &mut machine);
        machine.mem = mem;
        match ev? {
            StepEvent::Finished(v) => return Ok((machine.output, v, it.steps)),
            StepEvent::Blocked(f, i) => {
                return Err(ExecError::DeadlockedOn(format!("{}:{i}", m.func(f).name)))
            }
            StepEvent::Executed(..) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn run_src(src: &str, input: Vec<i32>) -> (Vec<i32>, Option<i64>) {
        let mut m = parse_module(src).unwrap();
        layout::assign_global_addrs(&mut m);
        crate::verifier::assert_valid(&m);
        let (out, ret, _) = run_main(&m, input, 10_000_000).unwrap();
        (out, ret)
    }

    #[test]
    fn arithmetic_and_loop() {
        // sum 1..=5 via loop, print it
        let src = r#"
func @main() -> i32 {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 0:i32], [bb1: %2]
  %1 = phi i32 [bb0: 1:i32], [bb1: %3]
  %2 = add i32 %0, %1
  %3 = add i32 %1, 1:i32
  %4 = cmp sle %3, 5:i32
  condbr %4, bb1, bb2
bb2:
  out %2
  ret %2
}
"#;
        let (out, ret) = run_src(src, vec![]);
        assert_eq!(out, vec![15]);
        assert_eq!(ret, Some(15));
    }

    #[test]
    fn memory_and_globals() {
        let src = r#"
global @tab size=16 [0a 00 00 00 14 00 00 00 1e 00 00 00 28 00 00 00]
func @main() -> i32 {
bb0:
  %0 = gaddr @tab
  %1 = gep %0, 2:i32, 4
  %2 = load i32 %1
  %3 = alloca 4
  store i32 %2, %3
  %4 = load i32 %3
  out %4
  ret %4
}
"#;
        let (out, ret) = run_src(src, vec![]);
        assert_eq!(out, vec![30]);
        assert_eq!(ret, Some(30));
    }

    #[test]
    fn signedness_matters() {
        // -1 as u32 is large; check slt vs ult.
        let src = r#"
func @main() -> i32 {
bb0:
  %0 = cmp slt -1:i32, 0:i32
  %1 = cmp ult -1:i32, 0:i32
  %2 = zext %0 to i32
  %3 = zext %1 to i32
  out %2
  out %3
  ret 0:i32
}
"#;
        let (out, _) = run_src(src, vec![]);
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn narrow_type_wraparound() {
        // i8 250 + 10 = 4 (wraps); sext of i8 0xf4 is -12.
        let src = r#"
func @main() -> i32 {
bb0:
  %0 = add i8 250:i8, 10:i8
  %1 = zext %0 to i32
  %2 = sext 244:i8 to i32
  out %1
  out %2
  ret 0:i32
}
"#;
        let (out, _) = run_src(src, vec![]);
        assert_eq!(out, vec![4, -12]);
    }

    #[test]
    fn division_semantics() {
        let src = r#"
func @main() -> i32 {
bb0:
  %0 = sdiv i32 -7:i32, 2:i32
  %1 = udiv i32 -7:i32, 2:i32
  %2 = srem i32 -7:i32, 2:i32
  out %0
  out %2
  %3 = cmp ugt %1, 1000000:i32
  %4 = zext %3 to i32
  out %4
  ret 0:i32
}
"#;
        let (out, _) = run_src(src, vec![]);
        assert_eq!(out, vec![-3, -1, 1]);
    }

    #[test]
    fn div_by_zero_traps() {
        let src = "func @main() -> i32 {\nbb0:\n  %0 = sdiv i32 1:i32, 0:i32\n  ret %0\n}\n";
        let mut m = parse_module(src).unwrap();
        layout::assign_global_addrs(&mut m);
        let err = run_main(&m, vec![], 1000).unwrap_err();
        assert_eq!(err, ExecError::DivByZero);
    }

    #[test]
    fn calls_and_returns() {
        let src = r#"
func @square(i32) -> i32 {
bb0:
  %0 = mul i32 %a0, %a0
  ret %0
}
func @main() -> i32 {
bb0:
  %0 = in
  %1 = call i32 @square(%0)
  %2 = call i32 @square(%1)
  out %2
  ret %2
}
"#;
        let (out, ret) = run_src(src, vec![3]);
        assert_eq!(out, vec![81]);
        assert_eq!(ret, Some(81));
    }

    #[test]
    fn recursion_is_rejected() {
        let src = r#"
func @f(i32) -> i32 {
bb0:
  %0 = call i32 @f(%a0)
  ret %0
}
func @main() -> i32 {
bb0:
  %0 = call i32 @f(1:i32)
  ret %0
}
"#;
        let mut m = parse_module(src).unwrap();
        layout::assign_global_addrs(&mut m);
        let err = run_main(&m, vec![], 1000).unwrap_err();
        assert!(matches!(err, ExecError::Recursion(_)));
    }

    #[test]
    fn switch_dispatch() {
        let src = r#"
func @main() -> i32 {
bb0:
  %0 = in
  switch %0, [1: bb1], [2: bb2], default bb3
bb1:
  out 100:i32
  ret 1:i32
bb2:
  out 200:i32
  ret 2:i32
bb3:
  out 300:i32
  ret 3:i32
}
"#;
        assert_eq!(run_src(src, vec![2]).0, vec![200]);
        assert_eq!(run_src(src, vec![9]).0, vec![300]);
    }

    #[test]
    fn parallel_phi_swap() {
        // Classic swap-via-phi: both phis must read pre-branch values.
        let src = r#"
func @main() -> i32 {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 1:i32], [bb1: %1]
  %1 = phi i32 [bb0: 2:i32], [bb1: %0]
  %2 = phi i32 [bb0: 0:i32], [bb1: %3]
  %3 = add i32 %2, 1:i32
  %4 = cmp slt %3, 3:i32
  condbr %4, bb1, bb2
bb2:
  out %0
  out %1
  ret 0:i32
}
"#;
        // After 3 iterations of swapping starting from (1,2):
        // iter counts: enter bb1 with (1,2); swap happens on each back edge.
        // 3 back edges? loop runs while %3 < 3: %3 = 1,2,3 -> two back edges.
        // (1,2) -> (2,1) -> (1,2); final values printed after exit: (1,2).
        let (out, _) = run_src(src, vec![]);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn queue_blocking_reported_as_deadlock_single_threaded() {
        let src =
            "queue q0 i32 x 2\nfunc @main() -> i32 {\nbb0:\n  %0 = dequeue i32 q0\n  ret %0\n}\n";
        let mut m = parse_module(src).unwrap();
        layout::assign_global_addrs(&mut m);
        let err = run_main(&m, vec![], 1000).unwrap_err();
        assert!(matches!(err, ExecError::DeadlockedOn(_)));
    }

    #[test]
    fn queues_work_within_capacity() {
        let src = r#"
queue q0 i32 x 4
func @main() -> i32 {
bb0:
  enqueue q0, 11:i32
  enqueue q0, 22:i32
  %0 = dequeue i32 q0
  %1 = dequeue i32 q0
  out %0
  out %1
  ret 0:i32
}
"#;
        let (out, _) = run_src(src, vec![]);
        assert_eq!(out, vec![11, 22]);
    }

    #[test]
    fn semaphores_count() {
        let src = r#"
sem sem0 max=4 init=2
func @main() -> i32 {
bb0:
  lower sem0, 2:i32
  raise sem0, 3:i32
  lower sem0, 3:i32
  out 1:i32
  ret 0:i32
}
"#;
        let (out, _) = run_src(src, vec![]);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn input_eof_returns_minus_one() {
        let src = "func @main() -> i32 {\nbb0:\n  %0 = in\n  %1 = in\n  out %0\n  out %1\n  ret 0:i32\n}\n";
        let (out, _) = run_src(src, vec![7]);
        assert_eq!(out, vec![7, -1]);
    }

    #[test]
    fn co_execution_of_two_threads_over_shared_machine() {
        // Producer enqueues 1..=100; consumer sums and prints. Queue depth 4
        // forces interleaving and exercises Blocked/retry.
        let src = r#"
queue q0 i32 x 4
func @producer() -> void {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 1:i32], [bb1: %1]
  enqueue q0, %0
  %1 = add i32 %0, 1:i32
  %2 = cmp sle %1, 100:i32
  condbr %2, bb1, bb2
bb2:
  ret
}
func @consumer() -> void {
bb0:
  br bb1
bb1:
  %0 = phi i32 [bb0: 0:i32], [bb1: %2]
  %3 = phi i32 [bb0: 0:i32], [bb1: %4]
  %1 = dequeue i32 q0
  %2 = add i32 %0, %1
  %4 = add i32 %3, 1:i32
  %5 = cmp slt %4, 100:i32
  condbr %5, bb1, bb2
bb2:
  out %2
  ret
}
"#;
        let mut m = parse_module(src).unwrap();
        layout::assign_global_addrs(&mut m);
        crate::verifier::assert_valid(&m);
        let mut machine = Machine::new(&m, layout::DEFAULT_MEM_SIZE, vec![]);
        let p = m.find_func("producer").unwrap();
        let c = m.find_func("consumer").unwrap();
        let mut t0 = Interp::new(&m, p, vec![], (0x10000, 0x20000));
        let mut t1 = Interp::new(&m, c, vec![], (0x20000, 0x30000));
        let mut fuel = 1_000_000;
        while !(t0.is_finished() && t1.is_finished()) {
            assert!(fuel > 0, "deadlock");
            fuel -= 1;
            let mut mem = std::mem::take(&mut machine.mem);
            if !t0.is_finished() {
                t0.step(&m, &mut mem, &mut machine).unwrap();
            }
            if !t1.is_finished() {
                t1.step(&m, &mut mem, &mut machine).unwrap();
            }
            machine.mem = mem;
        }
        assert_eq!(machine.output, vec![5050]);
        assert!(machine.all_queues_empty());
    }
}
