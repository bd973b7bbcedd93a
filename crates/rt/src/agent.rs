//! The agent contract: how the run loop drives the CPU and every hardware
//! thread, written once for both (the paper's single runtime interface,
//! thesis ch. 4; the fast-forward contract of DESIGN.md §12).
//!
//! An agent exposes its own state — id, liveness, charge, the in-flight op
//! and the instruction site its last cycle belongs to — plus its `tick` and
//! its run-ahead `run_plain`. Everything fast-forward asks of it (horizon,
//! skip spec, skip replay, stall attribution) is derived from that state
//! here. An agent overrides only two things: how long a not-ready
//! `WaitResource` op sleeps ([`SimAgent::wait_horizon`]) and which counter
//! a skipped poll advances ([`SimAgent::skip_polls`]).

use crate::hwthread::HwPlan;
use crate::shared::{OpKind, PendState, Pending, Shared};
use twill_ir::{FuncId, Module};
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
pub struct SkipSpec {
    pub progress: Progress,
    pub class: StallClass,
    /// The blocked op whose retry counters accrue each skipped cycle
    /// (`None` unless the agent is in `PendState::WaitResource`).
    pub stall_kind: Option<OpKind>,
}

/// A simulated agent: the CPU with its software threads, or one hardware
/// thread. `tick` and `run_plain` take both the module (the CPU's code) and
/// the hardware plan (a hardware thread's); each agent ignores the other.
pub trait SimAgent {
    fn agent_id(&self) -> usize;
    fn is_finished(&self) -> bool;
    /// The cycle the agent finished on.
    fn finish_cycle(&self) -> u64;
    /// Busy cycles left to burn before the agent acts again (the rest of
    /// an instruction, a schedule gap, a start delay, an injected stall).
    fn charge(&self) -> u32;
    fn charge_mut(&mut self) -> &mut u32;
    /// The in-flight runtime or memory op, if any.
    fn pending(&self) -> Option<&Pending>;
    fn pending_mut(&mut self) -> Option<&mut Pending>;
    /// Instruction site the cycle just ticked belongs to (profiling);
    /// `None` for runtime overhead.
    fn attr_site(&self) -> Option<(usize, usize)>;
    /// Entry functions of the agent's threads (hang diagnosis).
    fn entries(&self) -> &[FuncId];

    /// One simulated cycle.
    fn tick(&mut self, m: &Module, plan: &HwPlan, shared: &mut Shared) -> Progress;

    /// Run-ahead fast path: advance the clock up to `limit` in one tight
    /// loop, without per-cycle loop work, and return how many of the cycles
    /// it advanced were busy. Any other cycle it advanced is a hardware
    /// thread's finishing cycle, charged `Idle` as a `Finished` tick is.
    /// Legal when every peer is finished or asleep through `limit`; with
    /// sleeping `peers` it also stops before any op that could serve one of
    /// them (DESIGN.md §12, awake run).
    fn run_plain(
        &mut self,
        m: &Module,
        plan: &HwPlan,
        shared: &mut Shared,
        limit: u64,
        peers: bool,
    ) -> u64;

    /// Horizon of an op blocked on a resource that is not ready: only a
    /// peer can unblock it, and peers act at their own interesting cycles,
    /// so by default it sleeps until one does.
    fn wait_horizon(&self, _now: u64) -> u64 {
        u64::MAX
    }

    /// Advance the agent's own poll counter over `k` skipped polls of its
    /// in-flight op, as `k` naive ticks would.
    fn skip_polls(&mut self, k: u64);

    /// Freeze the agent for `cycles` more busy cycles (a start delay, the
    /// master's startup work, an injected stall).
    fn add_charge(&mut self, cycles: u32) {
        *self.charge_mut() += cycles;
    }

    /// Attribution for a cycle this agent reported [`Progress::Blocked`].
    fn stall_class(&self) -> StallClass {
        self.pending().map_or(StallClass::Busy, Pending::stall_class)
    }

    /// The kind of the in-flight op, if any (hang diagnosis).
    fn pending_kind(&self) -> Option<OpKind> {
        self.pending().map(|p| p.kind)
    }

    /// Earliest cycle (> `now`, the cycle just ticked) at which this
    /// agent's tick can do anything beyond burning a charge cycle or
    /// re-polling a blocked/latency-burning op — the fast-forward contract
    /// (DESIGN.md §12). `u64::MAX` means "not until a peer acts".
    fn next_interesting_cycle(&self, now: u64, shared: &Shared) -> u64 {
        if self.is_finished() {
            return u64::MAX;
        }
        if self.charge() > 0 {
            // Ticks now+1 ..= now+charge burn the charge; the next one
            // acts.
            return now + self.charge() as u64 + 1;
        }
        match self.pending().map(|p| (p.kind, p.state)) {
            // Latency(n) polls down to Done at tick now+n.
            Some((_, PendState::Latency(n))) => now + n as u64,
            // If the resource is ready right now the last poll simply
            // missed it (the peer served later in the same cycle, or this
            // agent was riding out a charge): the wake tick is next.
            Some((kind, PendState::WaitResource)) if shared.resource_ready(kind) => now + 1,
            Some((_, PendState::WaitResource)) => self.wait_horizon(now),
            // Bus arbitration is re-run every cycle in agent order; never
            // skip over it.
            _ => now + 1,
        }
    }

    /// The constant per-cycle accounting of a fast-forward span starting
    /// after `now`. Only meaningful when `next_interesting_cycle` allows a
    /// skip (the run loop guarantees that).
    fn skip_spec(&self) -> SkipSpec {
        let (progress, class, stall_kind) = if self.is_finished() {
            (Progress::Finished, StallClass::Idle, None)
        } else if self.charge() > 0 {
            (Progress::Busy, StallClass::Busy, None)
        } else {
            match self.pending() {
                Some(p) if matches!(p.state, PendState::WaitResource) => {
                    (Progress::Blocked, p.stall_class(), Some(p.kind))
                }
                // Latency burn: blocked progress, charged as busy.
                Some(_) => (Progress::Blocked, StallClass::Busy, None),
                None => {
                    debug_assert!(false, "skip_spec on an agent with nothing in flight");
                    (Progress::Busy, StallClass::Busy, None)
                }
            }
        };
        SkipSpec { progress, class, stall_kind }
    }

    /// Replay the state changes of `k` skipped ticks in one step: burn
    /// charge, or count down op latency and advance the poll counter,
    /// exactly as `k` naive ticks would have.
    fn apply_skip(&mut self, k: u64) {
        if self.is_finished() {
            return;
        }
        let charge = self.charge_mut();
        if *charge > 0 {
            debug_assert!(k <= *charge as u64, "skip overran charge");
            *charge -= k as u32;
            return;
        }
        let Some(p) = self.pending_mut() else {
            debug_assert!(false, "apply_skip on an agent with nothing in flight");
            return;
        };
        if let PendState::Latency(n) = &mut p.state {
            debug_assert!(k < *n as u64, "skip overran op latency");
            *n -= k as u32;
        }
        self.skip_polls(k);
    }
}
