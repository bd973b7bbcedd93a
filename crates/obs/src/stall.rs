//! The stall model's one data type: [`StallClass`] names where an agent's
//! cycle went, and [`ClassCycles`] counts cycles per class. The simulator
//! charges into it, and every artifact (metrics, source profile, timeline,
//! phases, diff, register map, tuner trail) reads it.
//!
//! Each class has exactly two spellings, both defined here: the display
//! [`StallClass::name`] (`queue-full`: diff, phase, timeline table, hints)
//! and the identifier [`StallClass::key`] (`queue_full`: JSON fields,
//! Prometheus `class` label, register names).

use crate::json::{FromJson, Json, ToJson};
use std::ops::{Index, IndexMut};

/// Where an agent's cycle went — the attribution classes of the stall
/// model. Every simulated cycle of every agent lands in exactly one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallClass {
    /// Executing, issuing, or being served (service latency is work).
    Busy,
    /// Enqueue blocked on a full queue.
    QueueFull,
    /// Dequeue blocked on an empty queue.
    QueueEmpty,
    /// Semaphore lower blocked at zero.
    Sem,
    /// Waiting for a memory-bus grant.
    MemBus,
    /// Waiting for a module-bus grant.
    ModuleBus,
    /// Agent finished (or not yet started) while the rest of the system ran.
    Idle,
}

impl StallClass {
    /// Every class, in the canonical order of all positional artifacts
    /// (profile and timeline arrays, register blocks, diff rows).
    pub const ALL: [StallClass; 7] = [
        StallClass::Busy,
        StallClass::QueueFull,
        StallClass::QueueEmpty,
        StallClass::Sem,
        StallClass::MemBus,
        StallClass::ModuleBus,
        StallClass::Idle,
    ];

    /// The five waiting classes: everything but busy work and idling.
    pub const STALLS: [StallClass; 5] = [
        StallClass::QueueFull,
        StallClass::QueueEmpty,
        StallClass::Sem,
        StallClass::MemBus,
        StallClass::ModuleBus,
    ];

    /// Display name (`queue-full`).
    pub fn name(self) -> &'static str {
        match self {
            StallClass::Busy => "busy",
            StallClass::QueueFull => "queue-full",
            StallClass::QueueEmpty => "queue-empty",
            StallClass::Sem => "sem",
            StallClass::MemBus => "mem-bus",
            StallClass::ModuleBus => "module-bus",
            StallClass::Idle => "idle",
        }
    }

    /// Identifier spelling (`queue_full`).
    pub fn key(self) -> &'static str {
        match self {
            StallClass::Busy => "busy",
            StallClass::QueueFull => "queue_full",
            StallClass::QueueEmpty => "queue_empty",
            StallClass::Sem => "sem",
            StallClass::MemBus => "mem_bus",
            StallClass::ModuleBus => "module_bus",
            StallClass::Idle => "idle",
        }
    }

    /// The class with display name `name`.
    pub fn from_name(name: &str) -> Option<StallClass> {
        StallClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Position in [`StallClass::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for StallClass {
    /// The display [`StallClass::name`] (honours width and alignment).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// Cycle counts by [`StallClass`]. For a whole agent the fields sum to the
/// run's total cycles (asserted in debug builds when a simulation
/// completes); for a site, interval or phase they sum to its share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCycles {
    pub busy: u64,
    pub queue_full: u64,
    pub queue_empty: u64,
    pub sem: u64,
    pub mem_bus: u64,
    pub module_bus: u64,
    pub idle: u64,
}

impl Index<StallClass> for ClassCycles {
    type Output = u64;
    fn index(&self, class: StallClass) -> &u64 {
        match class {
            StallClass::Busy => &self.busy,
            StallClass::QueueFull => &self.queue_full,
            StallClass::QueueEmpty => &self.queue_empty,
            StallClass::Sem => &self.sem,
            StallClass::MemBus => &self.mem_bus,
            StallClass::ModuleBus => &self.module_bus,
            StallClass::Idle => &self.idle,
        }
    }
}

impl IndexMut<StallClass> for ClassCycles {
    fn index_mut(&mut self, class: StallClass) -> &mut u64 {
        match class {
            StallClass::Busy => &mut self.busy,
            StallClass::QueueFull => &mut self.queue_full,
            StallClass::QueueEmpty => &mut self.queue_empty,
            StallClass::Sem => &mut self.sem,
            StallClass::MemBus => &mut self.mem_bus,
            StallClass::ModuleBus => &mut self.module_bus,
            StallClass::Idle => &mut self.idle,
        }
    }
}

impl ToJson for ClassCycles {
    /// `{"busy": n, "queue_full": n, …}`: one member per
    /// [`StallClass::key`], in [`StallClass::ALL`] order.
    fn to_tree(&self) -> Json {
        Json::obj(StallClass::ALL.map(|c| (c.key(), self[c])))
    }
}

impl FromJson for ClassCycles {
    /// Reads the [`ToJson`] members; other members of `doc` are ignored,
    /// so a breakdown can be read out of a larger record.
    fn from_json(doc: &Json) -> Result<ClassCycles, String> {
        let mut c = ClassCycles::default();
        for class in StallClass::ALL {
            c[class] = doc.req(class.key())?;
        }
        Ok(c)
    }
}

impl ClassCycles {
    /// Build from one count per class.
    pub fn from_fn(mut f: impl FnMut(StallClass) -> u64) -> ClassCycles {
        let mut c = ClassCycles::default();
        for class in StallClass::ALL {
            c[class] = f(class);
        }
        c
    }

    /// Counts in [`StallClass::ALL`] order.
    pub fn as_array(&self) -> [u64; 7] {
        StallClass::ALL.map(|c| self[c])
    }

    pub fn total(&self) -> u64 {
        self.as_array().iter().sum()
    }

    /// Cycles lost to stalls (everything but busy work and idling).
    pub fn stalled(&self) -> u64 {
        StallClass::STALLS.iter().map(|&c| self[c]).sum()
    }

    /// Busy fraction of the total (0 when there are no cycles).
    pub fn utilization(&self) -> f64 {
        match self.total() {
            0 => 0.0,
            t => self.busy as f64 / t as f64,
        }
    }

    /// Class-wise sum (saturating: sums of counts read from a file must
    /// not overflow on hostile input).
    pub fn add(&mut self, o: &ClassCycles) {
        for c in StallClass::ALL {
            self[c] = self[c].saturating_add(o[c]);
        }
    }

    /// Class-wise difference from an earlier snapshot of the same counters.
    pub fn since(&self, earlier: &ClassCycles) -> ClassCycles {
        ClassCycles::from_fn(|c| self[c] - earlier[c])
    }

    /// The stall class holding the most cycles, with its count; the last
    /// of several equal maxima wins. Falls back to `(Busy, busy)` when
    /// nothing stalled.
    pub fn dominant_stall(&self) -> (StallClass, u64) {
        let best = StallClass::STALLS.into_iter().max_by_key(|&c| self[c]).expect("five classes");
        match self[best] {
            0 => (StallClass::Busy, self.busy),
            n => (best, n),
        }
    }

    /// The class holding the most cycles over all seven, busy and idle
    /// included; the first of several equal maxima wins, so `Busy` takes
    /// a dead heat.
    pub fn dominant(&self) -> StallClass {
        StallClass::ALL.into_iter().rev().max_by_key(|&c| self[c]).expect("seven classes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_keys_and_indices_follow_all() {
        let names: Vec<_> = StallClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            ["busy", "queue-full", "queue-empty", "sem", "mem-bus", "module-bus", "idle"]
        );
        let keys: Vec<_> = StallClass::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(
            keys,
            ["busy", "queue_full", "queue_empty", "sem", "mem_bus", "module_bus", "idle"]
        );
        for (i, c) in StallClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(StallClass::from_name(c.name()), Some(c));
        }
        assert_eq!(StallClass::from_name("structural-change"), None);
        assert_eq!(format!("[{:>12}]", StallClass::QueueEmpty), "[ queue-empty]");
    }

    #[test]
    fn indexing_reaches_each_named_field() {
        let c = ClassCycles::from_fn(|c| 10 + c.index() as u64);
        assert_eq!(c.as_array(), [10, 11, 12, 13, 14, 15, 16]);
        assert_eq!((c.queue_full, c.module_bus, c.idle), (11, 15, 16));
        assert_eq!(c.total(), 91);
        assert_eq!(c.stalled(), 11 + 12 + 13 + 14 + 15);
        let mut d = c;
        d.add(&c);
        assert_eq!(d.since(&c), c);
        let sparse = ClassCycles { queue_empty: 3, idle: 4, ..Default::default() };
        assert_eq!(
            sparse.to_tree().to_string(),
            "{\"busy\": 0, \"queue_full\": 0, \"queue_empty\": 3, \"sem\": 0, \
             \"mem_bus\": 0, \"module_bus\": 0, \"idle\": 4}"
        );
        assert_eq!(ClassCycles::from_json(&sparse.to_tree()), Ok(sparse));
    }

    #[test]
    fn dominant_stall_tie_rule_and_stall_free_fallback() {
        // Stall-free: busy, not the last stall class in the list.
        let quiet = ClassCycles { busy: 40, idle: 60, ..Default::default() };
        assert_eq!(quiet.dominant_stall(), (StallClass::Busy, 40));
        // Equal stalls: the last maximum wins.
        let tie = ClassCycles { busy: 1, queue_full: 5, mem_bus: 5, ..Default::default() };
        assert_eq!(tie.dominant_stall(), (StallClass::MemBus, 5));
        let one = ClassCycles { busy: 900, sem: 3, ..Default::default() };
        assert_eq!(one.dominant_stall(), (StallClass::Sem, 3));
    }

    #[test]
    fn dominant_over_all_classes_takes_the_first_maximum() {
        assert_eq!(ClassCycles::default().dominant(), StallClass::Busy);
        let tie = ClassCycles { busy: 7, idle: 7, ..Default::default() };
        assert_eq!(tie.dominant(), StallClass::Busy);
        let stalls = ClassCycles { queue_empty: 9, module_bus: 9, idle: 8, ..Default::default() };
        assert_eq!(stalls.dominant(), StallClass::QueueEmpty);
        let idle = ClassCycles { busy: 2, idle: 9, ..Default::default() };
        assert_eq!(idle.dominant(), StallClass::Idle);
    }
}
