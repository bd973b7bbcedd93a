//! Shared simulator state: buses, runtime primitives, memory, I/O, stats.
//!
//! Observability has two tiers:
//!
//! * **Metrics counters** (always on): plain integers and pre-sized vectors
//!   in [`SimStats`], updated unconditionally. Everything is allocated at
//!   construction, so the steady-state simulation performs zero heap
//!   allocations per cycle.
//! * **Event tracing** (`SimConfig::trace_events`): typed
//!   [`twill_obs::Event`]s pushed into a bounded ring buffer for Perfetto
//!   export. Disabled at run time the hooks are a `None` check.

use crate::fault::{EnqueueFaults, FaultPlan, FaultRecord, FaultSite, FaultState};
use std::collections::VecDeque;
use twill_ir::{Module, QueueId, SemId};
use twill_obs::{ClassCycles, Event, EventKind, FaultMetrics, OpClass, Ring, StallClass};

/// A runtime operation an agent can have in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Enqueue(QueueId, i64),
    Dequeue(QueueId),
    SemRaise(SemId, u32),
    SemLower(SemId, u32),
    /// Memory-bus load (HW threads only): address, width bytes.
    MemLoad(u32, twill_ir::Ty),
    /// Memory-bus store.
    MemStore(u32, twill_ir::Ty, i64),
    Out(i64),
    In,
}

impl OpKind {
    fn uses_module_bus(&self) -> bool {
        !matches!(self, OpKind::MemLoad(..) | OpKind::MemStore(..))
    }
}

pub(crate) fn op_class(kind: OpKind) -> OpClass {
    match kind {
        OpKind::Enqueue(..) => OpClass::Enqueue,
        OpKind::Dequeue(_) => OpClass::Dequeue,
        OpKind::SemRaise(..) => OpClass::SemRaise,
        OpKind::SemLower(..) => OpClass::SemLower,
        OpKind::MemLoad(..) => OpClass::MemLoad,
        OpKind::MemStore(..) => OpClass::MemStore,
        OpKind::Out(_) => OpClass::Out,
        OpKind::In => OpClass::In,
    }
}

/// Progress of an in-flight operation.
#[derive(Debug, Clone, Copy)]
pub enum PendState {
    /// Waiting for a bus grant.
    NeedBus,
    /// Granted, but the primitive can't serve yet (queue full/empty, …).
    WaitResource,
    /// Serving: remaining cycles until completion.
    Latency(u32),
    /// Completed with result payload.
    Done(i64),
}

/// An agent's in-flight runtime operation.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    pub kind: OpKind,
    pub state: PendState,
    /// Base service latency once the resource is available.
    pub base_latency: u32,
}

impl Pending {
    /// Attribution of a cycle spent on this op in its current state.
    pub fn stall_class(&self) -> StallClass {
        match self.state {
            PendState::NeedBus => {
                if self.kind.uses_module_bus() {
                    StallClass::ModuleBus
                } else {
                    StallClass::MemBus
                }
            }
            PendState::WaitResource => match self.kind {
                OpKind::Enqueue(..) => StallClass::QueueFull,
                OpKind::Dequeue(_) => StallClass::QueueEmpty,
                OpKind::SemLower(..) => StallClass::Sem,
                _ => StallClass::Busy,
            },
            PendState::Latency(_) | PendState::Done(_) => StallClass::Busy,
        }
    }
}

/// One queue's lifetime statistics (always collected).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueStat {
    pub depth: u32,
    pub pushes: u64,
    pub pops: u64,
    /// Blocked producer attempts (one per blocked cycle).
    pub full_stalls: u64,
    /// Blocked consumer attempts.
    pub empty_stalls: u64,
    /// `occupancy_hist[n]`: push/pop completions that left the queue
    /// holding `n` values. Sized `depth + 1` at construction.
    pub occupancy_hist: Vec<u64>,
}

/// Simulation counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    pub cycles: u64,
    pub module_bus_grants: u64,
    pub module_bus_conflicts: u64,
    pub mem_bus_grants: u64,
    pub mem_bus_conflicts: u64,
    /// Per-agent: full cycle accounting by stall class (sums to `cycles`).
    pub agent_cycles: Vec<ClassCycles>,
    /// Peak simultaneous occupancy per queue.
    pub queue_peak: Vec<u32>,
    /// Per-queue traffic, stall, and occupancy statistics.
    pub queue_stats: Vec<QueueStat>,
    /// Injected-fault counters (all zero unless a fault plan is installed).
    pub faults: FaultMetrics,
}

struct SimQueue {
    items: VecDeque<i64>,
    cap: usize,
    /// Payload width in bits (bounds injected bit flips).
    width_bits: u32,
}

/// Central shared state.
pub struct Shared {
    pub cycle: u64,
    pub mem: Vec<u8>,
    pub input: Vec<i32>,
    pub in_pos: usize,
    pub output: Vec<i32>,
    /// `main`'s return value, stored when the thread whose entry returns
    /// it finishes (only the partition owning the original `ret` does).
    pub(crate) ret: Option<i64>,
    queues: Vec<SimQueue>,
    sems: Vec<u32>,
    sem_max: Vec<u32>,
    /// Extra per-operation queue latency (Fig 6.5 sweeps this; 0 extra at
    /// the thesis' 2-cycle baseline).
    pub queue_extra_latency: u32,
    /// Module-bus grant budget left this cycle (1 msg/cycle).
    module_bus_left: u8,
    /// Memory-bus grant budget left this cycle.
    mem_bus_left: u8,
    pub stats: SimStats,
    /// Per agent: cycles it ticked `Busy` (the CPU's share is the report's
    /// `cpu_busy_fraction`).
    pub(crate) busy_ticks: Vec<u64>,
    /// Which agent's events are being recorded (set by the system loop
    /// before each agent's tick; 0 for direct harnesses).
    cur_agent: u16,
    /// Fault-injection state (None = injection off; the strictly-opt-in
    /// default, one pointer test on the hot path).
    faults: Option<Box<FaultState>>,
    /// Bounded event recorder (None = tracing disabled).
    recorder: Option<Ring>,
}

impl Shared {
    pub fn new(
        m: &Module,
        mem_size: u32,
        input: Vec<i32>,
        queue_extra_latency: u32,
        queue_depth_override: Option<u32>,
        queue_depths: &[(usize, u32)],
        n_agents: usize,
    ) -> Shared {
        // Per-queue overrides win over the global override; on duplicate
        // ids the last entry wins (already validated by `validate_config`).
        let mut caps: Vec<u32> =
            m.queues.iter().map(|q| queue_depth_override.unwrap_or(q.depth)).collect();
        for &(id, depth) in queue_depths {
            if let Some(cap) = caps.get_mut(id) {
                *cap = depth;
            }
        }
        Shared {
            cycle: 0,
            mem: twill_ir::layout::initial_memory(m, mem_size),
            input,
            in_pos: 0,
            output: Vec::new(),
            ret: None,
            queues: m
                .queues
                .iter()
                .zip(&caps)
                .map(|(q, &cap)| SimQueue {
                    // Reserve up front: queue traffic must not allocate.
                    items: VecDeque::with_capacity(cap as usize),
                    cap: cap as usize,
                    width_bits: q.width.bits().max(1),
                })
                .collect(),
            sems: m.sems.iter().map(|s| s.initial).collect(),
            sem_max: m.sems.iter().map(|s| s.max).collect(),
            queue_extra_latency,
            module_bus_left: 1,
            mem_bus_left: 1,
            stats: SimStats {
                agent_cycles: vec![ClassCycles::default(); n_agents],
                queue_peak: vec![0; caps.len()],
                queue_stats: caps
                    .iter()
                    .map(|&cap| QueueStat {
                        depth: cap,
                        occupancy_hist: vec![0; cap as usize + 1],
                        ..Default::default()
                    })
                    .collect(),
                ..Default::default()
            },
            busy_ticks: vec![0; n_agents],
            cur_agent: 0,
            faults: None,
            recorder: None,
        }
    }

    /// Install a fault-injection plan for this run (see [`crate::fault`]).
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.faults = Some(Box::new(FaultState::new(plan)));
    }

    /// Detach the fault log: `(records in order, dropped count)`. Empty
    /// when no plan was installed.
    pub fn take_fault_log(&mut self) -> (Vec<FaultRecord>, u64) {
        match self.faults.as_deref_mut() {
            Some(fs) => fs.take_log(),
            None => (Vec::new(), 0),
        }
    }

    /// Attribute subsequent events to this agent's track.
    pub fn set_agent(&mut self, agent: u16) {
        self.cur_agent = agent;
    }

    /// Enable event tracing, keeping the most recent `capacity` events.
    pub fn enable_recorder(&mut self, capacity: usize) {
        self.recorder = Some(Ring::new(capacity));
    }

    /// Detach the recorder: `(events in order, dropped count)`.
    pub fn take_recorder(&mut self) -> (Vec<Event>, u64) {
        match self.recorder.take() {
            Some(r) => r.into_parts(),
            None => (Vec::new(), 0),
        }
    }

    pub(crate) fn record(&mut self, kind: EventKind) {
        if let Some(r) = &mut self.recorder {
            r.push(Event { cycle: self.cycle, track: self.cur_agent, kind });
        }
    }

    /// Called once per simulated cycle, before agents tick.
    pub fn begin_cycle(&mut self) {
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        self.module_bus_left = 1;
        self.mem_bus_left = 1;
        if self.faults.is_some() {
            self.cycle_faults();
        }
    }

    /// Leap the clock over `k` quiet cycles (fast-forward path). Only legal
    /// when nothing observable happens in the span: no agent executes, no
    /// bus poll occurs (budgets reset unused each naive cycle), and no
    /// fault is armed or rate-drawn. The caller bulk-charges each agent's
    /// counters separately so the `total() == cycle` invariants hold.
    pub(crate) fn skip_cycles(&mut self, k: u64) {
        self.cycle += k;
        self.stats.cycles = self.cycle;
    }

    /// Bulk equivalent of `k` consecutive [`Shared::note_stall`] retries of
    /// the same blocked op. None of them is the episode's first attempt (it
    /// happened at issue time), so no trace event is emitted — exactly like
    /// the naive loop's retry cycles.
    pub(crate) fn note_stall_bulk(&mut self, kind: OpKind, k: u64) {
        match kind {
            OpKind::Enqueue(q, _) => self.stats.queue_stats[q.index()].full_stalls += k,
            OpKind::Dequeue(q) => self.stats.queue_stats[q.index()].empty_stalls += k,
            _ => {}
        }
    }

    /// Whether a blocked (`WaitResource`) op of this kind would be served
    /// by its next poll. Fast-forward horizon check: a blocked agent's
    /// last real poll can predate the resource becoming ready (the peer
    /// acts after it in the same cycle, or it was riding out a charge), so
    /// a ready resource forces the wake tick to happen for real. Mirrors
    /// the availability tests in `try_serve`.
    pub(crate) fn resource_ready(&self, kind: OpKind) -> bool {
        match kind {
            OpKind::Enqueue(q, _) => {
                let qi = q.index();
                self.queues[qi].items.len() < self.queues[qi].cap
            }
            OpKind::Dequeue(q) => !self.queues[q.index()].items.is_empty(),
            OpKind::SemLower(s, n) => self.sems[s.index()] >= n,
            _ => true,
        }
    }

    /// The next not-yet-armed pinned fault's cycle (a fast-forward leap
    /// must not cross it: pinned stalls and memory upsets fire at exact
    /// cycles).
    pub(crate) fn next_pinned_fault_cycle(&self) -> Option<u64> {
        self.faults.as_deref().and_then(|fs| fs.next_pinned_cycle())
    }

    /// True while an armed pinned stall waits for its target agent's next
    /// tick; fast-forward must not skip that tick.
    pub(crate) fn has_armed_stalls(&self) -> bool {
        self.faults.as_deref().is_some_and(|fs| fs.has_armed_stalls())
    }

    /// True when the fault plan consumes PRNG draws every cycle (memory
    /// upsets per cycle, stall draws per live hardware thread per cycle).
    /// Fast-forward ticks such cycles, so the splitmix64 stream advances
    /// exactly as in the naive loop.
    pub(crate) fn fault_draws_per_cycle(&self, live_hw: bool) -> bool {
        match self.faults.as_deref() {
            None => false,
            Some(fs) => fs.spec.mem_upset_rate > 0.0 || (live_hw && fs.spec.hw_stall_rate > 0.0),
        }
    }

    /// Per-cycle fault work: arm pinned faults that came due, apply memory
    /// single-event upsets (pinned and rate-driven). Memory is upset before
    /// agents tick so the flip is visible this cycle.
    fn cycle_faults(&mut self) {
        let cycle = self.cycle;
        if let Some(fs) = self.faults.as_deref_mut() {
            fs.arm(cycle);
        }
        while let Some(site) = self.faults.as_deref_mut().and_then(|fs| fs.pop_armed_mem()) {
            if let FaultSite::MemUpset { addr, bit } = site {
                if (addr as usize) < self.mem.len() {
                    self.mem[addr as usize] ^= 1 << (bit & 7);
                }
            }
            self.note_fault(site);
        }
        let mem_len = self.mem.len() as u32;
        let upset = self.faults.as_deref_mut().and_then(|fs| {
            if mem_len > 0 && fs.rng.chance(fs.spec.mem_upset_rate) {
                let addr = fs.rng.below(mem_len);
                let bit = fs.rng.below(8) as u8;
                Some(FaultSite::MemUpset { addr, bit })
            } else {
                None
            }
        });
        if let Some(site) = upset {
            if let FaultSite::MemUpset { addr, bit } = site {
                self.mem[addr as usize] ^= 1 << bit;
            }
            self.note_fault(site);
        }
    }

    /// Injected stall length for agent `agent`'s tick this cycle, if one
    /// fires (the system loop freezes the agent for that many cycles).
    pub fn fault_stall(&mut self, agent: usize) -> Option<u32> {
        let fs = self.faults.as_deref_mut()?;
        let n = fs.stall_for(agent as u32)?;
        self.note_fault(FaultSite::HwStall { agent: agent as u32, cycles: n });
        Some(n)
    }

    /// The single accounting point for an injected fault: bumps the
    /// always-on counter, appends to the bounded fault log, and records the
    /// typed trace event.
    fn note_fault(&mut self, site: FaultSite) {
        self.stats.faults.bump(site.class());
        let cycle = self.cycle;
        if let Some(fs) = self.faults.as_deref_mut() {
            fs.log(cycle, site);
        }
        self.record(EventKind::Fault { fault: site.class(), unit: site.unit() });
    }

    /// Start a new operation (agent had none in flight).
    pub fn start_op(&mut self, kind: OpKind, base_latency: u32) -> Pending {
        self.record(EventKind::OpStart { op: op_class(kind) });
        Pending { kind, state: PendState::NeedBus, base_latency }
    }

    /// Advance an in-flight operation by (at most) one cycle's worth of
    /// progress. Returns the op (possibly completed).
    pub fn poll(&mut self, mut p: Pending) -> Pending {
        match p.state {
            PendState::Done(_) => p,
            PendState::NeedBus => {
                let granted = if p.kind.uses_module_bus() {
                    if self.module_bus_left > 0 {
                        self.module_bus_left -= 1;
                        self.stats.module_bus_grants += 1;
                        true
                    } else {
                        self.stats.module_bus_conflicts += 1;
                        false
                    }
                } else if self.mem_bus_left > 0 {
                    self.mem_bus_left -= 1;
                    self.stats.mem_bus_grants += 1;
                    true
                } else {
                    self.stats.mem_bus_conflicts += 1;
                    false
                };
                if granted {
                    p.state = PendState::WaitResource;
                    self.try_serve(p, true)
                } else {
                    p
                }
            }
            PendState::WaitResource => self.try_serve(p, false),
            PendState::Latency(n) => {
                if n <= 1 {
                    p.state = PendState::Done(self.complete(p.kind));
                    self.record(EventKind::OpRetire { op: op_class(p.kind) });
                } else {
                    p.state = PendState::Latency(n - 1);
                }
                p
            }
        }
    }

    /// Attempt to begin service (resource availability check). On success
    /// the op reserves its effect immediately (FIFO slot / sem count) and
    /// burns its service latency; the payload is delivered at completion.
    /// `first` marks the first attempt after the bus grant (the start of a
    /// stall episode, if the attempt fails).
    fn try_serve(&mut self, mut p: Pending, first: bool) -> Pending {
        let ok = match p.kind {
            OpKind::Enqueue(q, v) => {
                let qi = q.index();
                if self.queues[qi].items.len() < self.queues[qi].cap {
                    let width_bits = self.queues[qi].width_bits;
                    let ef = match self.faults.as_deref_mut() {
                        Some(fs) => fs.enqueue_faults(qi, width_bits),
                        None => EnqueueFaults::default(),
                    };
                    if ef.drop {
                        // The producer sees success; the message is lost in
                        // flight (not counted as a push — it never landed).
                        self.note_fault(FaultSite::QueueDrop { queue: qi as u32 });
                    } else {
                        let mut v = v;
                        if let Some(bit) = ef.flip_bit {
                            v ^= 1 << bit;
                            self.note_fault(FaultSite::QueueBitFlip { queue: qi as u32, bit });
                        }
                        self.push_queue(qi, v);
                        // A duplicate is one more message on the wire; it
                        // only fits if the queue has room for both.
                        if ef.dup && self.queues[qi].items.len() < self.queues[qi].cap {
                            self.push_queue(qi, v);
                            self.note_fault(FaultSite::QueueDup { queue: qi as u32 });
                        }
                    }
                    true
                } else {
                    false
                }
            }
            OpKind::Dequeue(q) => {
                // Value popped at completion so concurrent polls this cycle
                // see consistent state; reserve by checking emptiness.
                !self.queues[q.index()].items.is_empty()
            }
            OpKind::SemRaise(..) | OpKind::Out(_) | OpKind::In => true,
            OpKind::SemLower(s, n) => {
                if self.sems[s.index()] >= n {
                    self.sems[s.index()] -= n;
                    true
                } else {
                    false
                }
            }
            OpKind::MemLoad(..) | OpKind::MemStore(..) => true,
        };
        if ok {
            let lat = p.base_latency
                + match p.kind {
                    OpKind::Enqueue(..) | OpKind::Dequeue(_) => self.queue_extra_latency,
                    _ => 0,
                };
            if lat <= 1 {
                p.state = PendState::Done(self.complete(p.kind));
                self.record(EventKind::OpRetire { op: op_class(p.kind) });
            } else {
                p.state = PendState::Latency(lat - 1);
            }
        } else {
            self.note_stall(p.kind, first);
            p.state = PendState::WaitResource;
        }
        p
    }

    /// Land one value in queue `qi` with full accounting (peak, push
    /// count, occupancy histogram, trace event).
    fn push_queue(&mut self, qi: usize, v: i64) {
        self.queues[qi].items.push_back(v);
        let occ = self.queues[qi].items.len() as u32;
        let peak = &mut self.stats.queue_peak[qi];
        *peak = (*peak).max(occ);
        let qs = &mut self.stats.queue_stats[qi];
        qs.pushes += 1;
        let slot = (occ as usize).min(qs.occupancy_hist.len() - 1);
        qs.occupancy_hist[slot] += 1;
        self.record(EventKind::QueuePush { queue: qi as u16, occupancy: occ });
    }

    /// The single accounting point for a blocked service attempt: bumps
    /// the per-queue counter and, on the first attempt of an episode,
    /// records the trace event (so a long stall is one event, not
    /// thousands).
    fn note_stall(&mut self, kind: OpKind, first: bool) {
        self.note_stall_bulk(kind, 1);
        if !first {
            return;
        }
        let ev = match kind {
            OpKind::Enqueue(q, _) => EventKind::QueueStall { queue: q.index() as u16, full: true },
            OpKind::Dequeue(q) => EventKind::QueueStall { queue: q.index() as u16, full: false },
            OpKind::SemLower(s, _) => EventKind::SemWait { sem: s.index() as u16 },
            _ => return,
        };
        self.record(ev);
    }

    /// Apply the operation's effect and produce its payload.
    fn complete(&mut self, kind: OpKind) -> i64 {
        match kind {
            OpKind::Enqueue(..) => 0, // slot was reserved (and traced) at serve time
            OpKind::Dequeue(q) => {
                let v = self.queues[q.index()]
                    .items
                    .pop_front()
                    .expect("dequeue served on empty queue");
                let occ = self.queues[q.index()].items.len() as u32;
                let qs = &mut self.stats.queue_stats[q.index()];
                qs.pops += 1;
                let slot = (occ as usize).min(qs.occupancy_hist.len() - 1);
                qs.occupancy_hist[slot] += 1;
                self.record(EventKind::QueuePop { queue: q.index() as u16, occupancy: occ });
                v
            }
            OpKind::SemRaise(s, n) => {
                self.sems[s.index()] = (self.sems[s.index()] + n).min(self.sem_max[s.index()]);
                let value = self.sems[s.index()];
                self.record(EventKind::SemSignal { sem: s.0 as u16, value });
                0
            }
            OpKind::SemLower(s, _) => {
                let value = self.sems[s.index()];
                self.record(EventKind::SemSignal { sem: s.0 as u16, value });
                0
            }
            OpKind::MemLoad(addr, ty) => {
                twill_ir::interp::load_mem(&self.mem, addr, ty).unwrap_or(0)
            }
            OpKind::MemStore(addr, ty, v) => {
                let _ = twill_ir::interp::store_mem(&mut self.mem, addr, ty, v);
                0
            }
            OpKind::Out(v) => {
                self.output.push(v as i32);
                self.record(EventKind::Output { value: v as i32 });
                0
            }
            OpKind::In => {
                let v = self.input.get(self.in_pos).copied().unwrap_or(-1);
                self.in_pos += 1;
                v as i64
            }
        }
    }

    pub fn queue_len(&self, q: QueueId) -> usize {
        self.queues[q.index()].items.len()
    }

    /// Instantaneous occupancy of queue `i` (by raw index, not
    /// [`QueueId`]) — the level the timeline sampler records at each
    /// interval boundary.
    pub fn queue_occupancy(&self, i: usize) -> u32 {
        self.queues[i].items.len() as u32
    }

    /// Number of queues the module declares.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    pub fn all_queues_empty(&self) -> bool {
        self.queues.iter().all(|q| q.items.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::{QueueDecl, Ty};

    fn shared_with_queue(depth: u32, extra: u32) -> Shared {
        let mut m = Module::new("t");
        m.add_queue(QueueDecl { width: Ty::I32, depth });
        Shared::new(&m, 0x10000, vec![], extra, None, &[], 1)
    }

    fn run_to_done(s: &mut Shared, mut p: Pending, max: u32) -> (i64, u32) {
        for c in 0..max {
            s.begin_cycle();
            p = s.poll(p);
            if let PendState::Done(v) = p.state {
                return (v, c + 1);
            }
        }
        panic!("op did not complete: {p:?}");
    }

    #[test]
    fn enqueue_takes_two_cycles() {
        let mut s = shared_with_queue(8, 0);
        let p = s.start_op(OpKind::Enqueue(QueueId(0), 42), 2);
        let (_, cycles) = run_to_done(&mut s, p, 10);
        assert_eq!(cycles, 2, "thesis: queue ops take a minimum of 2 cycles");
        assert_eq!(s.queue_len(QueueId(0)), 1);
    }

    #[test]
    fn dequeue_returns_fifo_order() {
        let mut s = shared_with_queue(8, 0);
        for v in [1, 2, 3] {
            let p = s.start_op(OpKind::Enqueue(QueueId(0), v), 2);
            run_to_done(&mut s, p, 10);
        }
        for expect in [1, 2, 3] {
            let p = s.start_op(OpKind::Dequeue(QueueId(0)), 2);
            let (v, _) = run_to_done(&mut s, p, 10);
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn full_queue_blocks_until_drained() {
        let mut s = shared_with_queue(2, 0);
        for v in [1, 2] {
            let p = s.start_op(OpKind::Enqueue(QueueId(0), v), 2);
            run_to_done(&mut s, p, 10);
        }
        // Third enqueue stalls.
        let mut p = s.start_op(OpKind::Enqueue(QueueId(0), 3), 2);
        for _ in 0..5 {
            s.begin_cycle();
            p = s.poll(p);
        }
        assert!(matches!(p.state, PendState::WaitResource));
        assert_eq!(s.stats.queue_stats[0].full_stalls, 5, "one blocked attempt per cycle");
        assert_eq!(s.stats.queue_stats[0].empty_stalls, 0);
        assert_eq!(p.stall_class(), StallClass::QueueFull);
        // Drain one; enqueue can now complete.
        let d = s.start_op(OpKind::Dequeue(QueueId(0)), 2);
        run_to_done(&mut s, d, 10);
        let (_, _) = run_to_done(&mut s, p, 10);
        assert_eq!(s.queue_len(QueueId(0)), 2);
    }

    #[test]
    fn extra_latency_slows_queue_ops() {
        let mut s = shared_with_queue(8, 30);
        let p = s.start_op(OpKind::Enqueue(QueueId(0), 1), 2);
        let (_, cycles) = run_to_done(&mut s, p, 100);
        assert_eq!(cycles, 32);
    }

    #[test]
    fn module_bus_grants_one_per_cycle() {
        let mut m = Module::new("t");
        m.add_queue(QueueDecl { width: Ty::I32, depth: 8 });
        m.add_queue(QueueDecl { width: Ty::I32, depth: 8 });
        let mut s = Shared::new(&m, 0x10000, vec![], 0, None, &[], 2);
        let mut p1 = s.start_op(OpKind::Enqueue(QueueId(0), 1), 2);
        let mut p2 = s.start_op(OpKind::Enqueue(QueueId(1), 2), 2);
        s.begin_cycle();
        p1 = s.poll(p1);
        p2 = s.poll(p2);
        // p1 got the bus; p2 must still be waiting for a grant.
        assert!(!matches!(p1.state, PendState::NeedBus));
        assert!(matches!(p2.state, PendState::NeedBus));
        assert_eq!(s.stats.module_bus_conflicts, 1);
        assert_eq!(p2.stall_class(), StallClass::ModuleBus);
        let _ = (p1, p2);
    }

    #[test]
    fn memory_bus_read_two_write_one() {
        let m = Module::new("t");
        let mut s = Shared::new(&m, 0x10000, vec![], 0, None, &[], 1);
        let w =
            s.start_op(OpKind::MemStore(0x2000, Ty::I32, 0xBEEF), twill_ir::cost::HW_STORE_LATENCY);
        let (_, wc) = run_to_done(&mut s, w, 10);
        assert_eq!(wc, 1, "store takes one cycle");
        let r = s.start_op(OpKind::MemLoad(0x2000, Ty::I32), twill_ir::cost::HW_LOAD_LATENCY);
        let (v, rc) = run_to_done(&mut s, r, 10);
        assert_eq!(rc, 2, "read takes two cycles");
        assert_eq!(v, 0xBEEF);
    }

    #[test]
    fn semaphore_lower_blocks_at_zero() {
        let mut m = Module::new("t");
        m.add_sem(twill_ir::SemDecl { max: 4, initial: 0 });
        let mut s = Shared::new(&m, 0x10000, vec![], 0, None, &[], 1);
        let mut p = s.start_op(OpKind::SemLower(SemId(0), 1), 2);
        for _ in 0..3 {
            s.begin_cycle();
            p = s.poll(p);
        }
        assert!(matches!(p.state, PendState::WaitResource));
        assert_eq!(p.stall_class(), StallClass::Sem);
        let r = s.start_op(OpKind::SemRaise(SemId(0), 1), 1);
        run_to_done(&mut s, r, 10);
        run_to_done(&mut s, p, 10);
    }

    #[test]
    fn io_stream_round_trip() {
        let m = Module::new("t");
        let mut s = Shared::new(&m, 0x10000, vec![7, 8], 0, None, &[], 1);
        let i1 = s.start_op(OpKind::In, 2);
        let (v, _) = run_to_done(&mut s, i1, 10);
        assert_eq!(v, 7);
        let o = s.start_op(OpKind::Out(v * 2), 2);
        run_to_done(&mut s, o, 10);
        assert_eq!(s.output, vec![14]);
    }

    #[test]
    fn queue_stats_track_traffic_and_occupancy() {
        let mut s = shared_with_queue(4, 0);
        for v in [1, 2, 3] {
            let p = s.start_op(OpKind::Enqueue(QueueId(0), v), 2);
            run_to_done(&mut s, p, 10);
        }
        let p = s.start_op(OpKind::Dequeue(QueueId(0)), 2);
        run_to_done(&mut s, p, 10);
        let qs = &s.stats.queue_stats[0];
        assert_eq!(qs.depth, 4);
        assert_eq!(qs.pushes, 3);
        assert_eq!(qs.pops, 1);
        assert_eq!(s.stats.queue_peak[0], 3);
        // Pushes sampled occupancies 1, 2, 3; the pop sampled 2.
        assert_eq!(qs.occupancy_hist, vec![0, 1, 2, 1, 0]);
        let samples: u64 = qs.occupancy_hist.iter().sum();
        assert_eq!(samples, qs.pushes + qs.pops);
    }

    #[test]
    fn latency_class_counts_as_busy_not_stall() {
        let mut s = shared_with_queue(8, 10);
        let mut p = s.start_op(OpKind::Enqueue(QueueId(0), 1), 2);
        s.begin_cycle();
        p = s.poll(p); // granted + served: now burning latency
        assert!(matches!(p.state, PendState::Latency(_)));
        assert_eq!(p.stall_class(), StallClass::Busy);
    }

    #[test]
    fn recorder_captures_typed_events_per_track() {
        use twill_obs::EventKind;

        let mut s = shared_with_queue(2, 0);
        s.enable_recorder(64);
        s.set_agent(3);
        // Fill the queue, then stall once.
        for v in [1, 2] {
            let p = s.start_op(OpKind::Enqueue(QueueId(0), v), 2);
            run_to_done(&mut s, p, 10);
        }
        let mut p = s.start_op(OpKind::Enqueue(QueueId(0), 3), 2);
        for _ in 0..4 {
            s.begin_cycle();
            p = s.poll(p);
        }
        let (events, dropped) = s.take_recorder();
        assert_eq!(dropped, 0);
        assert!(events.iter().all(|e| e.track == 3));
        let starts = events.iter().filter(|e| matches!(e.kind, EventKind::OpStart { .. })).count();
        let retires =
            events.iter().filter(|e| matches!(e.kind, EventKind::OpRetire { .. })).count();
        assert_eq!(starts, 3);
        assert_eq!(retires, 2, "the stalled op has not retired");
        // The 4-cycle stall is a single episode event.
        let stalls = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::QueueStall { full: true, .. }))
            .count();
        assert_eq!(stalls, 1, "stall episodes are recorded once, not per cycle");
        // Cycles are non-decreasing.
        for w in events.windows(2) {
            assert!(w[0].cycle <= w[1].cycle);
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = shared_with_queue(8, 0);
        let p = s.start_op(OpKind::Enqueue(QueueId(0), 1), 2);
        run_to_done(&mut s, p, 10);
        let (events, dropped) = s.take_recorder();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }
}
