//! The Microblaze-style soft-CPU agent: executes software threads (IR via
//! the reference interpreter) with the calibrated per-instruction cycle
//! costs, runtime ops through the 5-cycle stream interface, and a
//! hardware-scheduler-driven round robin when more than one software
//! thread exists (thesis §4.4: single context switch, scheduler snoops for
//! blocked threads).

use crate::hwthread::{Progress, SkipSpec};
use crate::shared::{op_class, OpKind, PendState, Pending, Shared};
use twill_ir::cost;
use twill_ir::interp::{Interp, RtPoll, Runtime, StepEvent};
use twill_ir::{FuncId, InstId, Intr, Module, Op};
use twill_obs::{EventKind, StallClass};

/// Cycles charged when the HW scheduler switches the active SW thread
/// (thesis: a *single* context switch, no software scheduling loop).
pub const CONTEXT_SWITCH_CYCLES: u32 = 12;

struct SwThread {
    interp: Interp,
    finished: bool,
}

/// The CPU with its software threads.
pub struct Cpu {
    pub agent_id: usize,
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
    pub busy_cycles: u64,
    pub blocked_cycles: u64,
    pub finish_cycle: u64,
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
            busy_cycles: 0,
            blocked_cycles: 0,
            finish_cycle: 0,
        }
    }

    pub fn is_finished(&self) -> bool {
        self.live == 0
    }

    /// Charge startup work (the master's StartThread stream operations).
    pub fn add_startup_charge(&mut self, cycles: u32) {
        self.charge += cycles;
    }

    pub fn thread_results(&self) -> Vec<Option<i64>> {
        self.threads.iter().map(|t| t.interp.result().flatten()).collect()
    }

    /// Attribution for a cycle this agent reported [`Progress::Blocked`].
    pub fn stall_class(&self) -> StallClass {
        self.pending.as_ref().map(|p| p.stall_class()).unwrap_or(StallClass::Busy)
    }

    /// Instruction site the cycle just ticked belongs to (profiling).
    pub fn attr_site(&self) -> Option<(usize, usize)> {
        self.attr_site
    }

    /// The kind of the in-flight runtime op, if any (hang diagnosis).
    pub fn pending_kind(&self) -> Option<OpKind> {
        self.pending.as_ref().map(|p| p.kind)
    }

    /// Entry functions of the software threads (hang diagnosis).
    pub fn entries(&self) -> &[FuncId] {
        &self.entries
    }

    /// One simulated cycle.
    pub fn tick(&mut self, m: &Module, shared: &mut Shared) -> Progress {
        if self.is_finished() {
            return Progress::Finished;
        }
        if self.charge > 0 {
            self.charge -= 1;
            self.busy_cycles += 1;
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
                    // has had no effect yet, so it can be cancelled and
                    // reissued when the thread is rescheduled.
                    self.blocked_streak += 1;
                    self.blocked_cycles += 1;
                    if self.blocked_streak >= 4 {
                        if let Some(next) = self.next_runnable() {
                            if next != self.active {
                                // The blocked op is discarded (it had no
                                // effect) and will be reissued when this
                                // thread is rescheduled.
                                shared.record(EventKind::OpCancel { op: op_class(p.kind) });
                                shared.record(EventKind::ContextSwitch { to: next as u16 });
                                self.active = next;
                                self.blocked_streak = 0;
                                self.attr_site = None;
                                self.charge = CONTEXT_SWITCH_CYCLES.saturating_sub(1);
                                self.busy_cycles += 1;
                                return Progress::Busy;
                            }
                        }
                    }
                    self.pending = Some(p);
                    return Progress::Blocked;
                }
                _ => {
                    self.pending = Some(p);
                    self.blocked_cycles += 1;
                    return Progress::Blocked;
                }
            }
        }

        let t = &mut self.threads[self.active];
        if t.finished {
            if let Some(next) = self.next_runnable() {
                shared.record(EventKind::ContextSwitch { to: next as u16 });
                self.active = next;
                self.attr_site = None;
                self.charge = CONTEXT_SWITCH_CYCLES.saturating_sub(1);
                self.busy_cycles += 1;
                return Progress::Busy;
            }
            return Progress::Finished;
        }

        self.step(m, shared)
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
            Ok(StepEvent::Blocked(fid, iid)) => {
                // The adapter started (or is still waiting on) a runtime
                // op; the issue cycle counts as busy.
                self.attr_site = Some((fid.index(), iid.index()));
                self.busy_cycles += 1;
            }
            Ok(StepEvent::Finished(_)) => self.finish_thread(shared),
            Err(e) => panic!("CPU execution fault: {e}"),
        }
        Progress::Busy
    }

    /// Account a retired plain instruction: its issue cycle now, the rest
    /// of its cost as charge.
    fn executed(&mut self, fid: FuncId, iid: InstId) {
        self.attr_site = Some((fid.index(), iid.index()));
        self.charge = self.costs[fid.index()][iid.index()] - 1;
        self.busy_cycles += 1;
    }

    /// The active thread's outermost function returned this (busy) cycle:
    /// retire the thread and switch to the next runnable one, if any.
    fn finish_thread(&mut self, shared: &mut Shared) {
        self.threads[self.active].finished = true;
        self.live -= 1;
        self.finish_cycle = shared.cycle;
        self.attr_site = None;
        if let Some(next) = self.next_runnable() {
            shared.record(EventKind::ContextSwitch { to: next as u16 });
            self.active = next;
            self.charge = CONTEXT_SWITCH_CYCLES.saturating_sub(1);
        }
        self.busy_cycles += 1;
    }

    /// Run-ahead fast path (DESIGN.md §12): retire plain instructions back
    /// to back, charging each one's cycles in bulk, until the next
    /// instruction is a runtime op, the CPU finishes, or the clock reaches
    /// `limit`. The memory is taken and the runtime adapter built once for
    /// the whole run. A runtime op needs the bus, so it is handed back
    /// unissued; plain instructions touch no bus, so the run is legal when
    /// every peer is finished or asleep through `limit`. Every cycle it
    /// advances is busy; returns how many.
    pub(crate) fn run_plain(&mut self, m: &Module, shared: &mut Shared, limit: u64) -> u64 {
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
                Ok(StepEvent::Finished(_)) => self.finish_thread(rt.shared),
                Err(e) => panic!("CPU execution fault: {e}"),
            }
            let k = (self.charge as u64).min(limit - rt.shared.cycle);
            self.charge -= k as u32;
            self.busy_cycles += k;
            rt.shared.cycle += k;
        }
        let shared = rt.shared;
        shared.mem = mem;
        shared.stats.cycles = shared.cycle;
        shared.cycle - start
    }

    /// Earliest cycle (> `now`, the cycle just ticked) at which this
    /// agent's tick can do anything beyond burning a charge cycle or
    /// re-polling a blocked/latency-burning op — the fast-forward contract
    /// (DESIGN.md §12). `u64::MAX` means "not until a peer acts".
    pub(crate) fn next_interesting_cycle(&self, now: u64, shared: &Shared) -> u64 {
        if self.is_finished() {
            return u64::MAX;
        }
        if self.charge > 0 {
            return now + self.charge as u64 + 1;
        }
        match &self.pending {
            Some(p) => match p.state {
                PendState::Latency(n) => now + n as u64,
                // A ready resource means the last poll missed it (the HW
                // peer served after the CPU's tick in the same cycle) —
                // the serving wake tick is next and must happen for real.
                PendState::WaitResource if shared.resource_ready(p.kind) => now + 1,
                PendState::WaitResource => match self.next_runnable() {
                    // The HW scheduler switches out a thread blocked for 4
                    // consecutive cycles when another is runnable; that
                    // switch is the next interesting event. Thread liveness
                    // cannot change while this thread is blocked (all SW
                    // threads run on this CPU), so the horizon is exact.
                    Some(next) if next != self.active => {
                        now + 4u64.saturating_sub(self.blocked_streak as u64).max(1)
                    }
                    // Sole runnable thread: blocked until a peer acts.
                    _ => u64::MAX,
                },
                // Bus arbitration re-runs every cycle; never skip it.
                _ => now + 1,
            },
            None => now + 1,
        }
    }

    /// The constant per-cycle accounting of a fast-forward span starting
    /// after `now` (see [`HwThread::skip_spec`]).
    ///
    /// [`HwThread::skip_spec`]: crate::hwthread::HwThread
    pub(crate) fn skip_spec(&self) -> SkipSpec {
        if self.is_finished() {
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
            Some(p) => match p.state {
                PendState::WaitResource => SkipSpec {
                    progress: Progress::Blocked,
                    class: p.stall_class(),
                    stall_kind: Some(p.kind),
                },
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
    /// charge, count down op latency, and grow the blocked streak exactly
    /// as `k` naive polls would have.
    pub(crate) fn apply_skip(&mut self, k: u64) {
        if self.is_finished() {
            return;
        }
        if self.charge > 0 {
            debug_assert!(k <= self.charge as u64, "skip overran charge");
            self.charge -= k as u32;
            self.busy_cycles += k;
            return;
        }
        match self.pending.as_mut() {
            Some(p) => {
                match &mut p.state {
                    PendState::Latency(n) => {
                        debug_assert!(k < *n as u64, "skip overran op latency");
                        *n -= k as u32;
                    }
                    PendState::WaitResource => {
                        // Matches the naive per-cycle `+= 1` modulo 2^32
                        // (the streak only ever gates on reaching 4).
                        self.blocked_streak = self.blocked_streak.wrapping_add(k as u32);
                    }
                    _ => debug_assert!(false, "unskippable pending state"),
                }
                self.blocked_cycles += k;
            }
            None => debug_assert!(false, "apply_skip on an agent with nothing in flight"),
        }
    }

    fn next_runnable(&self) -> Option<usize> {
        (0..self.threads.len())
            .map(|i| (self.active + 1 + i) % self.threads.len())
            .find(|&i| !self.threads[i].finished)
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

/// Intrinsic classification helper used by system stats.
pub fn is_runtime_intrinsic(i: &Intr) -> bool {
    !matches!(i, Intr::Out | Intr::In)
}
