//! The Microblaze-style soft-CPU agent: executes software threads (IR via
//! the reference interpreter) with the calibrated per-instruction cycle
//! costs, runtime ops through the 5-cycle stream interface, and a
//! hardware-scheduler-driven round robin when more than one software
//! thread exists (thesis §4.4: single context switch, scheduler snoops for
//! blocked threads).

use crate::agent::{Progress, SimAgent};
use crate::hwthread::HwPlan;
use crate::shared::{op_class, OpKind, PendState, Pending, Shared};
use twill_ir::cost;
use twill_ir::interp::{Interp, RtPoll, Runtime, StepEvent};
use twill_ir::{FuncId, InstId, Intr, Module, Op};
use twill_obs::EventKind;

/// Cycles charged when the HW scheduler switches the active SW thread
/// (thesis: a *single* context switch, no software scheduling loop).
pub const CONTEXT_SWITCH_CYCLES: u32 = 12;

struct SwThread {
    interp: Interp,
    finished: bool,
}

/// The CPU with its software threads.
pub struct Cpu {
    agent_id: usize,
    /// Entry function of each software thread (wait-for-graph analysis).
    entries: Vec<FuncId>,
    threads: Vec<SwThread>,
    /// Threads not yet finished.
    live: usize,
    active: usize,
    /// Per function, per instruction: cycles an executed instruction
    /// costs (built once per run from `twill_ir::cost`).
    costs: Vec<Vec<u32>>,
    /// Busy cycles left for the current instruction.
    charge: u32,
    /// In-flight runtime op (owned by the active thread).
    pending: Option<Pending>,
    /// Result ready for delivery to the retried intrinsic.
    ready: Option<i64>,
    /// Consecutive cycles the active thread's op has been resource-blocked
    /// (the HW scheduler snoops the bus for this, §4.4).
    blocked_streak: u32,
    /// Instruction the current/most recent cycle belongs to (profiling);
    /// `None` during runtime overhead (startup, context switches).
    attr_site: Option<(usize, usize)>,
    finish_cycle: u64,
}

impl Cpu {
    pub fn new(agent_id: usize, m: &Module, entries: &[FuncId], stacks: &[(u32, u32)]) -> Cpu {
        let threads = entries
            .iter()
            .zip(stacks)
            .map(|(&e, &st)| SwThread { interp: Interp::new(m, e, vec![], st), finished: false })
            .collect();
        Cpu {
            agent_id,
            entries: entries.to_vec(),
            live: entries.len(),
            threads,
            active: 0,
            costs: m
                .funcs
                .iter()
                .map(|f| f.insts.iter().map(|i| inst_cycles(&i.op)).collect())
                .collect(),
            charge: 0,
            pending: None,
            ready: None,
            blocked_streak: 0,
            attr_site: None,
            finish_cycle: 0,
        }
    }

    /// Step the active thread's interpreter once, issuing a runtime op on
    /// the bus if it reaches one.
    fn step(&mut self, m: &Module, shared: &mut Shared) -> Progress {
        let t = &mut self.threads[self.active];
        let mut mem = std::mem::take(&mut shared.mem);
        let mut rt = CpuRt { shared, bus: Some((&mut self.pending, &mut self.ready)) };
        let ev = t.interp.step(m, &mut mem, &mut rt);
        shared.mem = mem;
        match ev {
            Ok(StepEvent::Executed(fid, iid)) => self.executed(fid, iid),
            // The adapter started (or is still waiting on) a runtime op;
            // the issue cycle counts as busy.
            Ok(StepEvent::Blocked(fid, iid)) => self.attr_site = Some((fid.index(), iid.index())),
            Ok(StepEvent::Finished(v)) => self.finish_thread(v, shared),
            Err(e) => panic!("CPU execution fault: {e}"),
        }
        Progress::Busy
    }

    /// Account a retired plain instruction: its issue cycle now, the rest
    /// of its cost as charge.
    fn executed(&mut self, fid: FuncId, iid: InstId) {
        self.attr_site = Some((fid.index(), iid.index()));
        self.charge = self.costs[fid.index()][iid.index()] - 1;
    }

    /// The active thread's outermost function returned `ret` this (busy)
    /// cycle: retire the thread and switch to the next runnable one, if any.
    fn finish_thread(&mut self, ret: Option<i64>, shared: &mut Shared) {
        if ret.is_some() {
            shared.ret = ret;
        }
        self.threads[self.active].finished = true;
        self.live -= 1;
        self.finish_cycle = shared.cycle;
        self.attr_site = None;
        if let Some(next) = self.next_runnable() {
            self.switch_to(next, shared);
        }
    }

    /// Switch the active thread to `next` (the HW scheduler's single
    /// context switch): this cycle plus the rest as charge, all busy.
    fn switch_to(&mut self, next: usize, shared: &mut Shared) -> Progress {
        shared.record(EventKind::ContextSwitch { to: next as u16 });
        self.active = next;
        self.attr_site = None;
        self.charge = CONTEXT_SWITCH_CYCLES.saturating_sub(1);
        Progress::Busy
    }

    fn next_runnable(&self) -> Option<usize> {
        (0..self.threads.len())
            .map(|i| (self.active + 1 + i) % self.threads.len())
            .find(|&i| !self.threads[i].finished)
    }
}

impl SimAgent for Cpu {
    fn agent_id(&self) -> usize {
        self.agent_id
    }

    fn is_finished(&self) -> bool {
        self.live == 0
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
        self.pending.as_ref()
    }

    fn pending_mut(&mut self) -> Option<&mut Pending> {
        self.pending.as_mut()
    }

    fn attr_site(&self) -> Option<(usize, usize)> {
        self.attr_site
    }

    fn entries(&self) -> &[FuncId] {
        &self.entries
    }

    fn tick(&mut self, m: &Module, _plan: &HwPlan, shared: &mut Shared) -> Progress {
        if self.is_finished() {
            return Progress::Finished;
        }
        if self.charge > 0 {
            self.charge -= 1;
            return Progress::Busy;
        }
        // Poll an in-flight runtime op.
        if let Some(p) = self.pending.take() {
            let p = shared.poll(p);
            match p.state {
                PendState::Done(v) => {
                    self.ready = Some(v);
                    self.blocked_streak = 0;
                    // fall through to re-step the interp this cycle
                }
                PendState::WaitResource => {
                    // The HW scheduler snoops the bus for a blocked active
                    // thread and switches it out (§4.4). A WaitResource op
                    // has had no effect yet, so it is discarded and
                    // reissued when the thread is rescheduled.
                    self.blocked_streak += 1;
                    if self.blocked_streak >= 4 {
                        if let Some(next) = self.next_runnable().filter(|&n| n != self.active) {
                            shared.record(EventKind::OpCancel { op: op_class(p.kind) });
                            self.blocked_streak = 0;
                            return self.switch_to(next, shared);
                        }
                    }
                    self.pending = Some(p);
                    return Progress::Blocked;
                }
                _ => {
                    self.pending = Some(p);
                    return Progress::Blocked;
                }
            }
        }

        if self.threads[self.active].finished {
            return match self.next_runnable() {
                Some(next) => self.switch_to(next, shared),
                None => Progress::Finished,
            };
        }

        self.step(m, shared)
    }

    /// Run-ahead fast path (DESIGN.md §12): retire plain instructions back
    /// to back, charging each one's cycles in bulk, until the next
    /// instruction is a runtime op, the CPU finishes, or the clock reaches
    /// `limit`. The memory is taken and the runtime adapter built once for
    /// the whole run. A runtime op needs the bus, so it is handed back
    /// unissued whether or not peers are live; plain instructions touch no
    /// bus, so the run is legal when every peer is finished or asleep
    /// through `limit`. Every cycle it advances is busy; returns how many.
    fn run_plain(
        &mut self,
        m: &Module,
        _plan: &HwPlan,
        shared: &mut Shared,
        limit: u64,
        _peers: bool,
    ) -> u64 {
        let start = shared.cycle;
        if self.pending.is_some() || self.ready.is_some() {
            return 0;
        }
        let mut mem = std::mem::take(&mut shared.mem);
        // No op slot: a runtime op is handed back unissued.
        let mut rt = CpuRt { shared, bus: None };
        while self.charge == 0 && !self.threads[self.active].finished && rt.shared.cycle < limit {
            // Open the cycle the instruction issues in. A runtime op needs
            // the bus, so it is left for a real tick and the cycle is
            // closed again: nothing was observed in it.
            rt.shared.cycle += 1;
            match self.threads[self.active].interp.step(m, &mut mem, &mut rt) {
                Ok(StepEvent::Executed(fid, iid)) => self.executed(fid, iid),
                Ok(StepEvent::Blocked(..)) => {
                    rt.shared.cycle -= 1;
                    break;
                }
                Ok(StepEvent::Finished(v)) => self.finish_thread(v, rt.shared),
                Err(e) => panic!("CPU execution fault: {e}"),
            }
            let k = (self.charge as u64).min(limit - rt.shared.cycle);
            self.charge -= k as u32;
            rt.shared.cycle += k;
        }
        let shared = rt.shared;
        shared.mem = mem;
        shared.stats.cycles = shared.cycle;
        shared.cycle - start
    }

    /// The HW scheduler switches out a thread blocked for 4 consecutive
    /// cycles when another is runnable; that switch is the next interesting
    /// event. Thread liveness cannot change while this thread is blocked
    /// (all SW threads run on this CPU), so the horizon is exact. The sole
    /// runnable thread is blocked until a peer acts.
    fn wait_horizon(&self, now: u64) -> u64 {
        match self.next_runnable() {
            Some(next) if next != self.active => {
                now + 4u64.saturating_sub(self.blocked_streak as u64).max(1)
            }
            _ => u64::MAX,
        }
    }

    /// Grow the blocked streak as the skipped polls would: only a
    /// resource-blocked poll counts toward the switch.
    fn skip_polls(&mut self, k: u64) {
        if matches!(self.pending, Some(Pending { state: PendState::WaitResource, .. })) {
            // Matches the naive per-cycle `+= 1` modulo 2^32 (the streak
            // only ever gates on reaching 4).
            self.blocked_streak = self.blocked_streak.wrapping_add(k as u32);
        }
    }
}

/// Cycles one executed instruction costs the CPU.
fn inst_cycles(op: &Op) -> u32 {
    match op {
        // Queue/sem cost was paid through the pending op; stream I/O
        // charges its five cycles here.
        Op::Intrin(Intr::Out | Intr::In, _) => cost::SW_IO as u32,
        Op::Intrin(..) => 1,
        Op::Phi(_) => 1,
        _ => (cost::sw_cycles(op) + cost::SW_EXPANSION_OVERHEAD).max(1) as u32,
    }
}

/// Adapter bridging the interpreter's synchronous [`Runtime`] trait to the
/// asynchronous bus simulation: the first call starts a 5-cycle stream
/// operation and reports WouldBlock; the interpreter retries the same
/// instruction each cycle until the op completes.
struct CpuRt<'s, 'c> {
    shared: &'s mut Shared,
    /// The in-flight op slot and the result awaiting delivery; `None`
    /// leaves runtime ops unissued (see [`Cpu::run_plain`]).
    bus: Option<(&'c mut Option<Pending>, &'c mut Option<i64>)>,
}

impl CpuRt<'_, '_> {
    fn run(&mut self, kind: OpKind) -> RtPoll {
        let Some((pending, ready)) = self.bus.as_mut() else {
            return RtPoll::WouldBlock;
        };
        if let Some(v) = ready.take() {
            return RtPoll::Done(v);
        }
        if pending.is_none() {
            // Thesis §4.5: five cycles for any CPU runtime operation.
            let p = self.shared.start_op(kind, cost::SW_RUNTIME_OP as u32);
            // The start cycle polls once (stream put).
            let p = self.shared.poll(p);
            if let PendState::Done(v) = p.state {
                return RtPoll::Done(v);
            }
            **pending = Some(p);
        }
        RtPoll::WouldBlock
    }
}

impl Runtime for CpuRt<'_, '_> {
    fn enqueue(&mut self, q: twill_ir::QueueId, v: i64) -> RtPoll {
        self.run(OpKind::Enqueue(q, v))
    }
    fn dequeue(&mut self, q: twill_ir::QueueId) -> RtPoll {
        self.run(OpKind::Dequeue(q))
    }
    fn sem_raise(&mut self, s: twill_ir::SemId, n: i64) -> RtPoll {
        self.run(OpKind::SemRaise(s, n.max(0) as u32))
    }
    fn sem_lower(&mut self, s: twill_ir::SemId, n: i64) -> RtPoll {
        self.run(OpKind::SemLower(s, n.max(0) as u32))
    }
    fn write_out(&mut self, v: i64) {
        // `out` is non-blocking at the interpreter level but still costs a
        // runtime operation; we model it as an immediate effect plus the
        // stream charge folded into the instruction cost table (SW_IO).
        self.shared.output.push(v as i32);
        self.shared.record(EventKind::Output { value: v as i32 });
    }
    fn read_in(&mut self) -> i64 {
        let v = self.shared.input.get(self.shared.in_pos).copied().unwrap_or(-1);
        self.shared.in_pos += 1;
        v as i64
    }
}
