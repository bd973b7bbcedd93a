//! Optional per-instruction cycle attribution.
//!
//! When [`crate::SimConfig::profile`] is set, the run loop asks each agent
//! which instruction occupied the cycle just simulated and charges that
//! cycle — under its [`StallClass`] — to a per-agent site table. Cycles
//! with no instruction in flight (startup charges, context switches,
//! post-finish idling) land in an explicit `overhead` bucket so the table
//! still sums exactly to the run's cycle count (asserted in debug builds,
//! mirroring the aggregate [`ClassCycles`] invariant).
//!
//! Attribution is observation-only: it never feeds back into timing, so
//! profiled and unprofiled runs produce identical cycle counts.

use std::collections::BTreeMap;
use twill_obs::{ClassCycles, StallClass};

/// An attribution site: `(function index, instruction index)` in the
/// simulated module.
pub type Site = (usize, usize);

/// One agent's cycle attribution, keyed by instruction site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentProfile {
    /// Per-site cycle breakdown. BTreeMap keeps report order deterministic.
    pub sites: BTreeMap<Site, ClassCycles>,
    /// Cycles with no instruction in flight.
    pub overhead: ClassCycles,
}

impl AgentProfile {
    pub fn record(&mut self, site: Option<Site>, class: StallClass) {
        self.record_n(site, class, 1);
    }

    /// Bulk-charge `n` cycles of one class to one site (fast-forward spans
    /// attribute every skipped cycle to the instruction that was in flight
    /// when the span began — the site cannot change while skipping).
    pub fn record_n(&mut self, site: Option<Site>, class: StallClass, n: u64) {
        match site {
            Some(s) => self.sites.entry(s).or_default()[class] += n,
            None => self.overhead[class] += n,
        }
    }

    /// Total attributed cycles (equals the run's cycle count).
    pub fn total(&self) -> u64 {
        self.sites.values().map(|c| c.total()).sum::<u64>() + self.overhead.total()
    }
}

/// Cycle attribution for a whole run, one entry per agent in
/// [`crate::SimReport::agent_names`] order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimProfile {
    pub agents: Vec<AgentProfile>,
}

impl SimProfile {
    pub fn new(agents: usize) -> SimProfile {
        SimProfile { agents: vec![AgentProfile::default(); agents] }
    }
}
