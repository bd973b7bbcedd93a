//! Deterministic, seed-driven fault injection for the simulated runtime.
//!
//! Real Virtex-5 fabric exposes the queue/semaphore/bus web to transient
//! upsets the thesis never had to model. Because our hardware is simulated
//! and fully inspectable we can do better than "hope": this module injects
//! the classic failure modes on demand — queue-payload bit flips,
//! dropped/duplicated queue messages, transient hardware-thread stalls,
//! and memory single-event upsets — either at per-cycle rates or at pinned
//! `(cycle, site)` points.
//!
//! Determinism is the contract:
//!
//! * All randomness comes from a [`SplitMix64`] PRNG seeded by
//!   [`FaultPlan::seed`] — no `std` randomness anywhere. The simulator
//!   consumes draws in its (deterministic) tick order, so the same seed and
//!   spec reproduce the identical fault trace, cycle for cycle.
//! * With no plan installed the fault layer is a single `Option` check on
//!   the hot path: zero draws, zero allocations, byte-identical cycle
//!   counts to a build that never heard of faults.
//!
//! Every injected fault is counted in `SimStats::faults` (a
//! [`twill_obs::FaultMetrics`], surfaced unchanged through `SimMetrics`),
//! appended to a bounded [`FaultRecord`] log on the report, and recorded as
//! a typed `EventKind::Fault` trace event.

/// Bound on the retained fault log; faults past this are still injected
/// and counted, only the per-fault records stop accumulating.
pub const FAULT_LOG_CAP: usize = 65_536;

/// SplitMix64: the tiny, statistically solid PRNG from Steele et al.'s
/// "Fast splittable pseudorandom number generators" (also the seeding
/// generator of xoshiro). One u64 of state, passes BigCrush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * 2f64.powi(-53)
    }

    /// Bernoulli draw. `rate <= 0` is `false` without consuming a draw, so
    /// a zero-rate spec leaves the stream untouched for the classes that
    /// are actually enabled.
    pub fn chance(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.next_f64() < rate
    }

    /// Uniform draw in `[0, n)` (`0` when `n == 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as u32
        }
    }
}

/// Derive the fault seed for retry `attempt` of a resilient run: attempt 0
/// keeps the user's seed (reproducing the observed failure), later
/// attempts re-mix it so each retry sees an independent fault stream.
pub fn reseed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        seed
    } else {
        let mut rng = SplitMix64::new(seed ^ ((attempt as u64) << 32 | attempt as u64));
        rng.next_u64()
    }
}

/// Per-cycle fault rates plus pinned fault points.
///
/// Rates are probabilities per opportunity: queue rates per successful
/// enqueue, the stall rate per hardware-thread tick, the memory-upset rate
/// per simulated cycle. All zero by default.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// P(flip one payload bit) per enqueue.
    pub queue_bit_flip_rate: f64,
    /// P(message silently lost) per enqueue.
    pub queue_drop_rate: f64,
    /// P(message delivered twice) per enqueue.
    pub queue_dup_rate: f64,
    /// P(transient stall) per hardware-thread tick.
    pub hw_stall_rate: f64,
    /// Length of an injected stall in cycles.
    pub hw_stall_cycles: u32,
    /// P(single-event upset in shared memory) per cycle.
    pub mem_upset_rate: f64,
    /// Deterministic fault points, applied in addition to the rates. Queue
    /// and stall sites fire at the first matching opportunity at or after
    /// their cycle; memory upsets fire exactly at their cycle.
    pub pinned: Vec<PinnedFault>,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec {
            queue_bit_flip_rate: 0.0,
            queue_drop_rate: 0.0,
            queue_dup_rate: 0.0,
            hw_stall_rate: 0.0,
            hw_stall_cycles: 25,
            mem_upset_rate: 0.0,
            pinned: Vec::new(),
        }
    }
}

impl FaultSpec {
    /// Uniform spec: every rate set to `rate` (campaign sweeps).
    pub fn uniform(rate: f64) -> FaultSpec {
        FaultSpec {
            queue_bit_flip_rate: rate,
            queue_drop_rate: rate,
            queue_dup_rate: rate,
            hw_stall_rate: rate,
            mem_upset_rate: rate,
            ..Default::default()
        }
    }

    /// True when nothing can ever fire (all rates zero, no pinned points).
    pub fn is_inert(&self) -> bool {
        self.queue_bit_flip_rate <= 0.0
            && self.queue_drop_rate <= 0.0
            && self.queue_dup_rate <= 0.0
            && self.hw_stall_rate <= 0.0
            && self.mem_upset_rate <= 0.0
            && self.pinned.is_empty()
    }

    /// `(field name, value)` of the first rate outside `[0, 1]`, if any.
    pub fn invalid_rate(&self) -> Option<(&'static str, f64)> {
        let rates = [
            ("queue_bit_flip_rate", self.queue_bit_flip_rate),
            ("queue_drop_rate", self.queue_drop_rate),
            ("queue_dup_rate", self.queue_dup_rate),
            ("hw_stall_rate", self.hw_stall_rate),
            ("mem_upset_rate", self.mem_upset_rate),
        ];
        rates.into_iter().find(|&(_, r)| !(0.0..=1.0).contains(&r) || r.is_nan())
    }
}

/// A concrete injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Flip bit `bit` of the next payload enqueued on queue `queue`.
    QueueBitFlip { queue: u32, bit: u32 },
    /// Silently lose the next message enqueued on queue `queue`.
    QueueDrop { queue: u32 },
    /// Deliver the next message on queue `queue` twice.
    QueueDup { queue: u32 },
    /// Freeze hardware agent `agent` for `cycles` cycles.
    HwStall { agent: u32, cycles: u32 },
    /// Flip bit `bit` of the shared-memory byte at `addr`.
    MemUpset { addr: u32, bit: u8 },
}

impl FaultSite {
    /// The affected resource index (queue / agent / byte address) as
    /// recorded in the `unit` field of the trace event.
    pub fn unit(self) -> u32 {
        match self {
            FaultSite::QueueBitFlip { queue, .. }
            | FaultSite::QueueDrop { queue }
            | FaultSite::QueueDup { queue } => queue,
            FaultSite::HwStall { agent, .. } => agent,
            FaultSite::MemUpset { addr, .. } => addr,
        }
    }

    /// The fault's class (counter bucket, trace-event kind, and — via
    /// [`twill_obs::FaultClass::name`] — its stable lowercase name).
    pub fn class(self) -> twill_obs::FaultClass {
        match self {
            FaultSite::QueueBitFlip { .. } => twill_obs::FaultClass::QueueBitFlip,
            FaultSite::QueueDrop { .. } => twill_obs::FaultClass::QueueDrop,
            FaultSite::QueueDup { .. } => twill_obs::FaultClass::QueueDup,
            FaultSite::HwStall { .. } => twill_obs::FaultClass::HwStall,
            FaultSite::MemUpset { .. } => twill_obs::FaultClass::MemUpset,
        }
    }
}

/// A fault pinned to fire at (or at the first opportunity after) `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedFault {
    pub cycle: u64,
    pub site: FaultSite,
}

/// The complete, reproducible description of a fault campaign for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub spec: FaultSpec,
}

impl FaultPlan {
    pub fn new(seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan { seed, spec }
    }

    /// The same plan with the seed re-mixed for retry `attempt`.
    pub fn reseeded(&self, attempt: u32) -> FaultPlan {
        FaultPlan { seed: reseed(self.seed, attempt), spec: self.spec.clone() }
    }
}

/// One injected fault, as retained in the run's fault log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    pub cycle: u64,
    pub site: FaultSite,
}

/// What an enqueue should suffer this time (decided before the push).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EnqueueFaults {
    pub drop: bool,
    pub dup: bool,
    /// Bit to flip in the payload, if any.
    pub flip_bit: Option<u32>,
}

/// Live injection state owned by `Shared` for the duration of one run.
/// Boxed behind an `Option` so the no-fault hot path pays one pointer test.
#[derive(Debug)]
pub struct FaultState {
    pub(crate) rng: SplitMix64,
    pub(crate) spec: FaultSpec,
    /// Pinned faults sorted by cycle; `next_pinned` indexes the first not
    /// yet armed.
    pinned: Vec<PinnedFault>,
    next_pinned: usize,
    /// Armed pinned queue faults waiting for a matching enqueue.
    armed_queue: Vec<FaultSite>,
    /// Armed pinned stalls waiting for the target agent's next tick.
    armed_stalls: Vec<(u32, u32)>,
    /// Bounded per-fault log (see [`FAULT_LOG_CAP`]).
    log: Vec<FaultRecord>,
    log_dropped: u64,
}

impl FaultState {
    pub fn new(plan: &FaultPlan) -> FaultState {
        let mut pinned = plan.spec.pinned.clone();
        pinned.sort_by_key(|p| p.cycle);
        FaultState {
            rng: SplitMix64::new(plan.seed),
            spec: plan.spec.clone(),
            pinned,
            next_pinned: 0,
            armed_queue: Vec::with_capacity(8),
            armed_stalls: Vec::with_capacity(8),
            log: Vec::with_capacity(256),
            log_dropped: 0,
        }
    }

    /// Arm pinned faults due at `cycle`; memory upsets and raw rate draws
    /// are handled by `Shared` (which owns the memory). Returns true if
    /// anything may fire this cycle (armed points or a nonzero mem rate).
    pub(crate) fn arm(&mut self, cycle: u64) {
        while self.next_pinned < self.pinned.len() && self.pinned[self.next_pinned].cycle <= cycle {
            let p = self.pinned[self.next_pinned];
            self.next_pinned += 1;
            match p.site {
                FaultSite::QueueBitFlip { .. }
                | FaultSite::QueueDrop { .. }
                | FaultSite::QueueDup { .. } => self.armed_queue.push(p.site),
                FaultSite::HwStall { agent, cycles } => self.armed_stalls.push((agent, cycles)),
                // Applied immediately by Shared::apply_cycle_faults.
                FaultSite::MemUpset { .. } => self.armed_queue.push(p.site),
            }
        }
    }

    /// Cycle of the earliest pinned fault not yet armed (fast-forward must
    /// not leap past it).
    pub(crate) fn next_pinned_cycle(&self) -> Option<u64> {
        self.pinned.get(self.next_pinned).map(|p| p.cycle)
    }

    /// Whether any armed pinned stall is still waiting for its target
    /// agent's next tick.
    pub(crate) fn has_armed_stalls(&self) -> bool {
        !self.armed_stalls.is_empty()
    }

    /// Pop one armed memory upset (fired the cycle it comes due).
    pub(crate) fn pop_armed_mem(&mut self) -> Option<FaultSite> {
        let pos = self.armed_queue.iter().position(|s| matches!(s, FaultSite::MemUpset { .. }))?;
        Some(self.armed_queue.remove(pos))
    }

    /// Decide what the next successful enqueue on queue `qi` suffers.
    /// `width_bits` bounds the flipped bit to the queue's payload width.
    pub(crate) fn enqueue_faults(&mut self, qi: usize, width_bits: u32) -> EnqueueFaults {
        let mut out = EnqueueFaults::default();
        // Pinned faults first (FIFO per queue); each armed site fires once.
        let mut i = 0;
        while i < self.armed_queue.len() {
            let consume = match self.armed_queue[i] {
                FaultSite::QueueDrop { queue } if queue as usize == qi => {
                    out.drop = true;
                    true
                }
                FaultSite::QueueDup { queue } if queue as usize == qi => {
                    out.dup = true;
                    true
                }
                FaultSite::QueueBitFlip { queue, bit } if queue as usize == qi => {
                    out.flip_bit = Some(bit % width_bits.max(1));
                    true
                }
                _ => false,
            };
            if consume {
                self.armed_queue.remove(i);
            } else {
                i += 1;
            }
        }
        // Then the rates.
        if !out.drop && self.rng.chance(self.spec.queue_drop_rate) {
            out.drop = true;
        }
        if !out.drop {
            if out.flip_bit.is_none() && self.rng.chance(self.spec.queue_bit_flip_rate) {
                out.flip_bit = Some(self.rng.below(width_bits.max(1)));
            }
            if !out.dup && self.rng.chance(self.spec.queue_dup_rate) {
                out.dup = true;
            }
        }
        out
    }

    /// Stall length for agent `agent`'s tick this cycle, if one fires.
    pub(crate) fn stall_for(&mut self, agent: u32) -> Option<u32> {
        if let Some(pos) = self.armed_stalls.iter().position(|&(a, _)| a == agent) {
            let (_, n) = self.armed_stalls.remove(pos);
            return Some(n.max(1));
        }
        if self.rng.chance(self.spec.hw_stall_rate) {
            return Some(self.spec.hw_stall_cycles.max(1));
        }
        None
    }

    /// Append to the bounded log.
    pub(crate) fn log(&mut self, cycle: u64, site: FaultSite) {
        if self.log.len() < FAULT_LOG_CAP {
            self.log.push(FaultRecord { cycle, site });
        } else {
            self.log_dropped += 1;
        }
    }

    /// Detach the log: `(records in order, dropped count)`.
    pub(crate) fn take_log(&mut self) -> (Vec<FaultRecord>, u64) {
        (std::mem::take(&mut self.log), self.log_dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        // Known first value for seed 0 (reference vectors from the paper).
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn unit_draws_are_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.below(13) < 13);
        }
        assert_eq!(r.below(0), 0);
        assert!(!r.chance(0.0), "zero rate never fires");
        assert!(r.chance(1.0), "unit rate always fires");
    }

    #[test]
    fn reseed_changes_stream_but_is_stable() {
        assert_eq!(reseed(99, 0), 99, "attempt 0 keeps the user's seed");
        assert_ne!(reseed(99, 1), 99);
        assert_eq!(reseed(99, 1), reseed(99, 1));
        assert_ne!(reseed(99, 1), reseed(99, 2));
    }

    #[test]
    fn spec_validation_and_inertness() {
        assert!(FaultSpec::default().is_inert());
        assert!(!FaultSpec::uniform(0.1).is_inert());
        let mut s = FaultSpec::default();
        s.pinned.push(PinnedFault { cycle: 5, site: FaultSite::QueueDrop { queue: 0 } });
        assert!(!s.is_inert());
        assert!(FaultSpec::uniform(0.5).invalid_rate().is_none());
        let bad = FaultSpec { queue_drop_rate: 1.5, ..Default::default() };
        assert_eq!(bad.invalid_rate(), Some(("queue_drop_rate", 1.5)));
        let nan = FaultSpec { mem_upset_rate: f64::NAN, ..Default::default() };
        assert_eq!(nan.invalid_rate().map(|(f, _)| f), Some("mem_upset_rate"));
    }

    #[test]
    fn pinned_queue_faults_fire_once_in_fifo_order() {
        let spec = FaultSpec {
            pinned: vec![
                PinnedFault { cycle: 10, site: FaultSite::QueueDrop { queue: 0 } },
                PinnedFault { cycle: 10, site: FaultSite::QueueBitFlip { queue: 1, bit: 3 } },
            ],
            ..Default::default()
        };
        let mut fs = FaultState::new(&FaultPlan::new(1, spec));
        fs.arm(9);
        assert!(!fs.enqueue_faults(0, 32).drop, "not armed before cycle 10");
        fs.arm(10);
        assert!(fs.enqueue_faults(0, 32).drop);
        assert!(!fs.enqueue_faults(0, 32).drop, "pinned faults fire once");
        assert_eq!(fs.enqueue_faults(1, 32).flip_bit, Some(3));
    }

    #[test]
    fn pinned_stall_targets_one_agent() {
        let spec = FaultSpec {
            pinned: vec![PinnedFault {
                cycle: 3,
                site: FaultSite::HwStall { agent: 2, cycles: 40 },
            }],
            ..Default::default()
        };
        let mut fs = FaultState::new(&FaultPlan::new(1, spec));
        fs.arm(3);
        assert_eq!(fs.stall_for(1), None);
        assert_eq!(fs.stall_for(2), Some(40));
        assert_eq!(fs.stall_for(2), None, "fires once");
    }

    #[test]
    fn log_is_bounded() {
        let mut fs = FaultState::new(&FaultPlan::new(1, FaultSpec::default()));
        for c in 0..(FAULT_LOG_CAP as u64 + 10) {
            fs.log(c, FaultSite::QueueDrop { queue: 0 });
        }
        let (log, dropped) = fs.take_log();
        assert_eq!(log.len(), FAULT_LOG_CAP);
        assert_eq!(dropped, 10);
    }
}
