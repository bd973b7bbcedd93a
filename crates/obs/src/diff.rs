//! Differential profiling: explain *why* two runs of the same program
//! took a different number of cycles.
//!
//! [`diff`] compares two [`SimMetrics`] (typically a committed baseline
//! entry and a fresh run) and attributes the total cycle delta to cycle
//! classes on the **critical timeline**: in a real simulation every
//! agent's class counters sum to the run's cycle count (the accounting
//! invariant `twill-rt` asserts), so the per-class deltas of any one
//! thread decompose the wall-time change exactly. We pick the thread that
//! is busiest *across both runs* — the one that bounds pipeline
//! throughput — so the attribution names the classes that actually moved
//! the finish line. The choice is symmetric in its arguments, which gives
//! the algebra the regression tests lean on:
//!
//! * `diff(a, a)` is all-zero,
//! * the attribution deltas sum to the total cycle delta,
//! * `diff(a, b)` is the negation of `diff(b, a)`.
//!
//! Per-queue stall/traffic deltas and the critical-stage shift ride along
//! as supporting detail; when the two runs do not even have the same
//! thread or queue sets (a different partitioning, not a perf change) the
//! diff reports a structural change instead of pretending the counters
//! line up.

use crate::json::{self, Json, ToJson};
use crate::metrics::SimMetrics;
use crate::stall::StallClass;
use std::fmt::Write as _;

/// One cycle class' contribution to the total cycle delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDelta {
    pub class: &'static str,
    pub delta: i64,
}

/// Per-thread, per-class cycle deltas (indices follow [`StallClass::ALL`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadDelta {
    pub name: String,
    pub deltas: [i64; 7],
}

/// One queue's stall/traffic change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueDelta {
    pub name: String,
    pub full_stalls: i64,
    pub empty_stalls: i64,
    pub high_water: i64,
    pub pushes: i64,
    pub pops: i64,
}

impl QueueDelta {
    /// Largest stall movement on this queue (ranking key).
    pub fn magnitude(&self) -> i64 {
        self.full_stalls.abs().max(self.empty_stalls.abs())
    }

    pub fn is_zero(&self) -> bool {
        self.full_stalls == 0
            && self.empty_stalls == 0
            && self.high_water == 0
            && self.pushes == 0
            && self.pops == 0
    }
}

/// The full explanation of `new` relative to `base`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDiff {
    pub base_cycles: u64,
    pub new_cycles: u64,
    /// `new.cycles - base.cycles`.
    pub cycle_delta: i64,
    /// The thread/queue sets differ: the runs are different *designs*
    /// (e.g. a partitioning change), so per-counter attribution is
    /// meaningless and `attribution` carries one `structural-change`
    /// entry holding the whole delta.
    pub structural: bool,
    /// Ranked (|delta| descending) cycle-class attribution on the
    /// critical timeline; sums to `cycle_delta`.
    pub attribution: Vec<ClassDelta>,
    /// The thread whose timeline the attribution decomposes.
    pub attribution_thread: Option<String>,
    /// Per-thread class deltas for every matched thread (unranked).
    pub threads: Vec<ThreadDelta>,
    /// Per-queue deltas, ranked by stall movement, zero rows dropped.
    pub queues: Vec<QueueDelta>,
    /// Critical (busiest) stage of each run.
    pub critical_before: Option<String>,
    pub critical_after: Option<String>,
    pub dropped_events_delta: i64,
}

crate::json_object!(ClassDelta { class, delta } write-only);
crate::json_object!(QueueDelta {
    name, full_stalls, empty_stalls, high_water, pushes, pops
} write-only);

/// The pseudo-class used when the two runs are structurally different.
pub const STRUCTURAL_CLASS: &str = "structural-change";

/// Compare two metric reports; see the module docs for semantics.
pub fn diff(base: &SimMetrics, new: &SimMetrics) -> MetricsDiff {
    let cycle_delta = new.cycles as i64 - base.cycles as i64;
    let same_threads = base.threads.len() == new.threads.len()
        && base.threads.iter().zip(&new.threads).all(|(a, b)| a.name == b.name);
    let same_queues = base.queues.len() == new.queues.len()
        && base.queues.iter().zip(&new.queues).all(|(a, b)| a.name == b.name);
    let structural = !(same_threads && same_queues);

    let critical = |m: &SimMetrics| m.critical_thread().map(|i| m.threads[i].name.clone());

    let mut threads = Vec::new();
    let mut attribution = Vec::new();
    let mut attribution_thread = None;
    let mut queues = Vec::new();

    if structural {
        attribution.push(ClassDelta { class: STRUCTURAL_CLASS, delta: cycle_delta });
    } else {
        for (a, b) in base.threads.iter().zip(&new.threads) {
            let (ca, cb) = (a.cycles.as_array(), b.cycles.as_array());
            let mut deltas = [0i64; 7];
            for i in 0..7 {
                deltas[i] = cb[i] as i64 - ca[i] as i64;
            }
            threads.push(ThreadDelta { name: a.name.clone(), deltas });
        }
        // Critical timeline: the thread busiest across both runs. Using
        // the *sum* of busy cycles keeps the pick symmetric in (base,
        // new), so diff(a, b) mirrors diff(b, a) exactly.
        let k = base
            .threads
            .iter()
            .zip(&new.threads)
            .enumerate()
            .max_by_key(|(i, (a, b))| (a.cycles.busy + b.cycles.busy, std::cmp::Reverse(*i)))
            .map(|(i, _)| i);
        if let Some(k) = k {
            attribution_thread = Some(new.threads[k].name.clone());
            attribution = StallClass::ALL
                .into_iter()
                .zip(threads[k].deltas)
                .map(|(class, delta)| ClassDelta { class: class.name(), delta })
                .collect();
            // Rank by magnitude; class order breaks ties so the ranking
            // is deterministic and direction-independent.
            attribution.sort_by_key(|c| std::cmp::Reverse(c.delta.abs()));
        }
        for (a, b) in base.queues.iter().zip(&new.queues) {
            let q = QueueDelta {
                name: a.name.clone(),
                full_stalls: b.full_stalls as i64 - a.full_stalls as i64,
                empty_stalls: b.empty_stalls as i64 - a.empty_stalls as i64,
                high_water: b.high_water as i64 - a.high_water as i64,
                pushes: b.pushes as i64 - a.pushes as i64,
                pops: b.pops as i64 - a.pops as i64,
            };
            if !q.is_zero() {
                queues.push(q);
            }
        }
        queues.sort_by(|a, b| b.magnitude().cmp(&a.magnitude()).then(a.name.cmp(&b.name)));
    }

    MetricsDiff {
        base_cycles: base.cycles,
        new_cycles: new.cycles,
        cycle_delta,
        structural,
        attribution,
        attribution_thread,
        threads,
        queues,
        critical_before: critical(base),
        critical_after: critical(new),
        dropped_events_delta: new.dropped_events as i64 - base.dropped_events as i64,
    }
}

/// `+12.4k` / `-317` style signed human-readable count.
pub fn human_delta(n: i64) -> String {
    let sign = if n < 0 { "-" } else { "+" };
    let a = n.unsigned_abs();
    if a >= 10_000_000 {
        format!("{sign}{:.1}M", a as f64 / 1e6)
    } else if a >= 10_000 {
        format!("{sign}{:.1}k", a as f64 / 1e3)
    } else {
        format!("{sign}{a}")
    }
}

impl MetricsDiff {
    pub fn is_zero(&self) -> bool {
        self.cycle_delta == 0
            && !self.structural
            && self.attribution.iter().all(|c| c.delta == 0)
            && self.threads.iter().all(|t| t.deltas.iter().all(|&d| d == 0))
            && self.queues.is_empty()
    }

    /// Relative cycle change, e.g. `3.1` for +3.1%.
    pub fn percent(&self) -> f64 {
        if self.base_cycles == 0 {
            0.0
        } else {
            100.0 * self.cycle_delta as f64 / self.base_cycles as f64
        }
    }

    /// One-line headline: `"blowfish hybrid +3.1%: q2 full-stalls +12.4k,
    /// critical stage moved hw1→cpu"`.
    pub fn headline(&self, label: &str) -> String {
        let mut s = format!("{label} {:+.1}%", self.percent());
        let mut causes = Vec::new();
        if self.structural {
            causes.push("structural change (thread/queue sets differ)".to_string());
        } else {
            if let Some(q) = self.queues.first() {
                let (kind, n) = if q.full_stalls.abs() >= q.empty_stalls.abs() {
                    ("full-stalls", q.full_stalls)
                } else {
                    ("empty-stalls", q.empty_stalls)
                };
                causes.push(format!("{} {kind} {}", q.name, human_delta(n)));
            }
            if let Some(c) = self.attribution.iter().find(|c| c.delta != 0) {
                let t = self.attribution_thread.as_deref().unwrap_or("?");
                causes.push(format!("{t} {} {}", c.class, human_delta(c.delta)));
            }
        }
        if self.critical_before != self.critical_after {
            causes.push(format!(
                "critical stage moved {}\u{2192}{}",
                self.critical_before.as_deref().unwrap_or("-"),
                self.critical_after.as_deref().unwrap_or("-"),
            ));
        }
        if causes.is_empty() {
            causes.push("no counter movement".to_string());
        }
        let _ = write!(s, ": {}", causes.join(", "));
        s
    }

    /// The full ranked human-readable explanation.
    pub fn render_text(&self, label: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{label}: {} \u{2192} {} cycles ({}, {:+.2}%)",
            self.base_cycles,
            self.new_cycles,
            human_delta(self.cycle_delta),
            self.percent()
        );
        if self.structural {
            let _ = writeln!(
                out,
                "  structural change: thread/queue sets differ; counters are not comparable"
            );
            return out;
        }
        if let Some(t) = &self.attribution_thread {
            let _ = writeln!(out, "  attribution (critical timeline {t}):");
            for c in &self.attribution {
                if c.delta != 0 {
                    let _ = writeln!(out, "    {:<12} {:>12}", c.class, human_delta(c.delta));
                }
            }
            if self.attribution.iter().all(|c| c.delta == 0) {
                let _ = writeln!(out, "    (no movement)");
            }
        }
        if self.critical_before != self.critical_after {
            let _ = writeln!(
                out,
                "  critical stage: {} \u{2192} {}",
                self.critical_before.as_deref().unwrap_or("-"),
                self.critical_after.as_deref().unwrap_or("-"),
            );
        }
        if !self.queues.is_empty() {
            let _ = writeln!(out, "  queues:");
            for q in &self.queues {
                let _ = writeln!(
                    out,
                    "    {}: full-stalls {}, empty-stalls {}, peak {}, pushes {}",
                    q.name,
                    human_delta(q.full_stalls),
                    human_delta(q.empty_stalls),
                    human_delta(q.high_water),
                    human_delta(q.pushes),
                );
            }
        }
        if self.dropped_events_delta != 0 {
            let _ = writeln!(out, "  dropped events: {}", human_delta(self.dropped_events_delta));
        }
        out
    }

    /// `render_text` plus the source-line attribution hint, for callers
    /// that captured line-granular profiles of both runs (see
    /// [`crate::profile::line_regression`]): names the single source line
    /// whose cycles grew the most, e.g. "regression comes from line 42 of
    /// blowfish.c".
    pub fn render_text_with_line_hint(
        &self,
        label: &str,
        hint: Option<(&str, u32, i64)>,
    ) -> String {
        let mut out = self.render_text(label);
        if let Some((file, line, delta)) = hint {
            let _ = writeln!(
                out,
                "  regression comes from line {line} of {file} ({} cycles)",
                human_delta(delta)
            );
        }
        out
    }

    /// Machine-readable form of the same explanation, labelled `label`.
    pub fn to_tree(&self, label: &str) -> Json {
        let thread = |t: &ThreadDelta| {
            let mut row = Json::obj([("name", &t.name)]);
            for (class, d) in StallClass::ALL.into_iter().zip(t.deltas) {
                row.push(class.name(), d);
            }
            row
        };
        Json::obj([
            ("label", Json::from(label)),
            ("base_cycles", self.base_cycles.into()),
            ("new_cycles", self.new_cycles.into()),
            ("cycle_delta", self.cycle_delta.into()),
            ("percent", self.percent().into()),
            ("structural", self.structural.into()),
            ("attribution_thread", self.attribution_thread.to_tree()),
            ("attribution", self.attribution.to_tree()),
            ("threads", Json::arr(self.threads.iter().map(thread))),
            ("queues", self.queues.to_tree()),
            ("critical_before", self.critical_before.to_tree()),
            ("critical_after", self.critical_after.to_tree()),
            ("dropped_events_delta", self.dropped_events_delta.into()),
        ])
    }

    /// The printed [`MetricsDiff::to_tree`] document.
    pub fn to_json(&self, label: &str) -> String {
        json::print(&self.to_tree(label))
    }
}

// ---------------------------------------------------------------------------
// Per-phase attribution (temporal layer)
// ---------------------------------------------------------------------------

/// One aligned phase pair in a base-vs-new comparison: how much of the
/// total cycle delta this position of the phase sequence contributed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseDelta {
    /// Position in the aligned phase sequence (0-based).
    pub index: usize,
    /// Cycle range of the base run's phase (None when the new run grew an
    /// extra phase at this position).
    pub base: Option<(u64, u64)>,
    /// Cycle range of the new run's phase (None when the base run had a
    /// phase the new run no longer does).
    pub new: Option<(u64, u64)>,
    /// New duration minus base duration; the deltas of all entries sum
    /// exactly to the total cycle delta because phases tile each run.
    pub delta: i64,
    /// Dominant thread (from the new phase when present, else the base).
    pub thread: String,
    /// Dominant stall class.
    pub class: StallClass,
    /// Responsible queue, when the class is a queue stall.
    pub queue: Option<String>,
    /// Hottest function/line of the dominant pair (when annotated).
    pub func: Option<String>,
    pub line: u32,
}

/// Align two segmented timelines positionally and attribute the cycle
/// delta per phase. Phases partition `[1, total_cycles]` in each run, so
/// positional duration differences decompose the total delta exactly —
/// including when the runs have different phase counts (extra new phases
/// contribute their full duration, vanished base phases subtract theirs).
pub fn phase_attribution(
    base: &crate::phase::PhaseReport,
    new: &crate::phase::PhaseReport,
) -> Vec<PhaseDelta> {
    let n = base.phases.len().max(new.phases.len());
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let b = base.phases.get(i);
        let w = new.phases.get(i);
        let cycles = |p: Option<&crate::phase::Phase>| {
            p.map_or(0, |p| i64::try_from(p.cycles()).unwrap_or(i64::MAX))
        };
        let (b_cycles, w_cycles) = (cycles(b), cycles(w));
        // Describe by the new run's phase when it exists (that is where
        // the cycles are being spent now), else by the vanished base one.
        let desc = w.or(b).expect("i < max(len, len)");
        out.push(PhaseDelta {
            index: i,
            base: b.map(|p| (p.start, p.end)),
            new: w.map(|p| (p.start, p.end)),
            delta: w_cycles.saturating_sub(b_cycles),
            thread: desc.thread.clone(),
            class: desc.class,
            queue: desc.queue.clone(),
            func: desc.func.clone(),
            line: desc.line,
        });
    }
    out
}

/// Render the per-phase attribution, leading with the ISSUE-style
/// headline that names the phase responsible for the largest share of the
/// regression: "the +41k cycles come from phase 2 of 5 (cycles
/// 120000..310000, queue-full on q2, line 41)".
pub fn render_phase_attribution(deltas: &[PhaseDelta], cycle_delta: i64) -> String {
    let mut out = String::new();
    let Some(worst) = deltas.iter().max_by_key(|d| (d.delta, std::cmp::Reverse(d.index))) else {
        return out;
    };
    if worst.delta != 0 {
        let range =
            worst.new.or(worst.base).map(|(s, e)| format!("cycles {s}..{e}")).unwrap_or_default();
        let mut cause = format!("{} on {}", worst.class, worst.thread);
        if let Some(q) = &worst.queue {
            let _ = write!(cause, " ({q})");
        }
        if worst.line != 0 {
            let _ = write!(cause, ", line {}", worst.line);
            if let Some(f) = &worst.func {
                let _ = write!(cause, " in {f}");
            }
        }
        let _ = writeln!(
            out,
            "the {} cycles come from phase {} of {} ({range}, {cause}; {} of the delta)",
            human_delta(cycle_delta),
            worst.index + 1,
            deltas.len(),
            human_delta(worst.delta),
        );
    }
    let _ = writeln!(out, "per-phase deltas:");
    for d in deltas {
        let span = |r: Option<(u64, u64)>| match r {
            Some((s, e)) => format!("{s}..{e}"),
            None => "-".to_string(),
        };
        let mut cause = format!("{} on {}", d.class, d.thread);
        if let Some(q) = &d.queue {
            let _ = write!(cause, " ({q})");
        }
        if d.line != 0 {
            let _ = write!(cause, ", line {}", d.line);
        }
        let _ = writeln!(
            out,
            "  phase {:>2}: {:>8}  base {} \u{2192} new {}  [{cause}]",
            d.index + 1,
            human_delta(d.delta),
            span(d.base),
            span(d.new),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FaultMetrics, QueueMetrics, ThreadMetrics};
    use crate::ClassCycles;

    fn thread(name: &str, classes: [u64; 7]) -> ThreadMetrics {
        ThreadMetrics { name: name.into(), cycles: ClassCycles::from_fn(|c| classes[c.index()]) }
    }

    fn queue(name: &str, full: u64, empty: u64) -> QueueMetrics {
        QueueMetrics {
            name: name.into(),
            depth: 8,
            pushes: 100,
            pops: 100,
            high_water: 4,
            full_stalls: full,
            empty_stalls: empty,
            occupancy_hist: vec![1, 2, 3],
        }
    }

    fn base() -> SimMetrics {
        SimMetrics {
            cycles: 1000,
            threads: vec![
                thread("cpu", [400, 100, 200, 0, 0, 50, 250]),
                thread("hw1", [900, 0, 50, 0, 50, 0, 0]),
            ],
            queues: vec![queue("q0", 10, 20), queue("q1", 0, 5)],
            dropped_events: 0,
            faults: FaultMetrics::default(),
        }
    }

    #[test]
    fn diff_of_identical_runs_is_zero() {
        let m = base();
        let d = diff(&m, &m);
        assert!(d.is_zero(), "{d:?}");
        assert_eq!(d.cycle_delta, 0);
        assert!(d.attribution.iter().all(|c| c.delta == 0));
    }

    #[test]
    fn attribution_sums_to_cycle_delta_and_ranks() {
        let m = base();
        let mut worse = m.clone();
        worse.cycles = 1100;
        // hw1 (the critical timeline) gains 80 queue-full and 20 mem-bus.
        worse.threads[1].cycles.queue_full += 80;
        worse.threads[1].cycles.mem_bus += 20;
        worse.threads[0].cycles.queue_empty += 100; // cpu waits the extra time out
        worse.queues[0].full_stalls += 80;
        let d = diff(&m, &worse);
        assert_eq!(d.cycle_delta, 100);
        assert_eq!(d.attribution_thread.as_deref(), Some("hw1"));
        assert_eq!(d.attribution.iter().map(|c| c.delta).sum::<i64>(), 100);
        assert_eq!((d.attribution[0].class, d.attribution[0].delta), ("queue-full", 80));
        assert_eq!(d.queues[0].name, "q0");
        assert_eq!(d.queues[0].full_stalls, 80);
    }

    #[test]
    fn diff_negates_when_arguments_swap() {
        let m = base();
        let mut other = m.clone();
        other.cycles = 900;
        other.threads[1].cycles.busy -= 60;
        other.threads[1].cycles.queue_empty -= 40;
        other.threads[0].cycles.idle -= 100;
        other.queues[1].empty_stalls += 7;
        other.dropped_events = 3;
        let fwd = diff(&m, &other);
        let rev = diff(&other, &m);
        assert_eq!(fwd.cycle_delta, -rev.cycle_delta);
        assert_eq!(fwd.dropped_events_delta, -rev.dropped_events_delta);
        assert_eq!(fwd.attribution_thread, rev.attribution_thread);
        for (a, b) in fwd.attribution.iter().zip(&rev.attribution) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.delta, -b.delta);
        }
        for (a, b) in fwd.queues.iter().zip(&rev.queues) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.full_stalls, -b.full_stalls);
            assert_eq!(a.empty_stalls, -b.empty_stalls);
        }
    }

    #[test]
    fn different_thread_sets_report_structural_change() {
        let m = base();
        let mut other = m.clone();
        other.threads.push(thread("hw2", [500, 0, 0, 0, 0, 0, 500]));
        other.cycles = 1200;
        let d = diff(&m, &other);
        assert!(d.structural);
        assert_eq!(d.attribution.len(), 1);
        assert_eq!(d.attribution[0].class, STRUCTURAL_CLASS);
        assert_eq!(d.attribution[0].delta, 200);
        assert!(d.render_text("x").contains("structural change"));
    }

    #[test]
    fn critical_stage_shift_is_reported() {
        let m = base();
        let mut other = m.clone();
        // cpu becomes the busiest stage.
        other.threads[0].cycles.busy = 950;
        other.threads[0].cycles.idle = 0;
        let d = diff(&m, &other);
        assert_eq!(d.critical_before.as_deref(), Some("hw1"));
        assert_eq!(d.critical_after.as_deref(), Some("cpu"));
        assert!(d.headline("t hybrid").contains("critical stage moved hw1\u{2192}cpu"));
    }

    #[test]
    fn render_text_ranks_and_labels() {
        let m = base();
        let mut worse = m.clone();
        worse.cycles = 1031;
        worse.threads[1].cycles.queue_full += 12_400;
        worse.queues[1].full_stalls += 12_400;
        let t = diff(&m, &worse).render_text("blowfish hybrid");
        assert!(t.contains("blowfish hybrid: 1000 \u{2192} 1031 cycles"), "{t}");
        assert!(t.contains("queue-full"), "{t}");
        assert!(t.contains("+12.4k"), "{t}");
        let q_line = t.lines().find(|l| l.trim_start().starts_with("q1")).unwrap();
        assert!(q_line.contains("full-stalls +12.4k"), "{t}");
    }

    #[test]
    fn json_export_parses_back() {
        let m = base();
        let mut other = m.clone();
        other.cycles = 1100;
        other.threads[1].cycles.sem += 100;
        other.threads[0].cycles.idle += 100;
        let d = diff(&m, &other);
        let doc = json::parse(&d.to_json("aes hybrid")).expect("diff JSON parses");
        assert_eq!(doc.get("label").unwrap().as_str(), Some("aes hybrid"));
        assert_eq!(doc.get("cycle_delta").unwrap().as_f64(), Some(100.0));
        assert_eq!(doc.get("threads").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn human_delta_scales() {
        assert_eq!(human_delta(0), "+0");
        assert_eq!(human_delta(-317), "-317");
        assert_eq!(human_delta(12_400), "+12.4k");
        assert_eq!(human_delta(-12_400_000), "-12.4M");
    }

    fn phase(start: u64, end: u64, class: &str, queue: Option<&str>, line: u32) -> crate::Phase {
        crate::Phase {
            start,
            end,
            intervals: 1,
            thread: "hw1".into(),
            class: StallClass::from_name(class).unwrap(),
            stall_cycles: end - start + 1,
            queue: queue.map(str::to_string),
            func: (line != 0).then(|| "main".to_string()),
            line,
        }
    }

    fn report(phases: Vec<crate::Phase>) -> crate::PhaseReport {
        let total_cycles = phases.last().map(|p| p.end).unwrap_or(0);
        crate::PhaseReport { total_cycles, phases }
    }

    #[test]
    fn phase_deltas_sum_to_total_cycle_delta() {
        let base = report(vec![
            phase(1, 100, "busy", None, 7),
            phase(101, 220, "queue-full", Some("q2"), 41),
        ]);
        let new = report(vec![
            phase(1, 100, "busy", None, 7),
            phase(101, 290, "queue-full", Some("q2"), 41),
            phase(291, 300, "queue-empty", Some("q0"), 9),
        ]);
        let deltas = phase_attribution(&base, &new);
        assert_eq!(deltas.len(), 3);
        let sum: i64 = deltas.iter().map(|d| d.delta).sum();
        assert_eq!(sum, new.total_cycles as i64 - base.total_cycles as i64);
        assert_eq!(deltas[1].delta, 70);
        assert_eq!(deltas[2].delta, 10);
        assert!(deltas[2].base.is_none(), "extra new phase has no base range");
    }

    #[test]
    fn phase_deltas_sum_when_base_has_more_phases() {
        let base = report(vec![phase(1, 100, "busy", None, 0), phase(101, 400, "sem", None, 0)]);
        let new = report(vec![phase(1, 250, "busy", None, 0)]);
        let deltas = phase_attribution(&base, &new);
        let sum: i64 = deltas.iter().map(|d| d.delta).sum();
        assert_eq!(sum, 250 - 400);
        assert!(deltas[1].new.is_none(), "vanished base phase has no new range");
        assert_eq!(deltas[1].class, StallClass::Sem, "vanished phase described by its base");
    }

    #[test]
    fn phase_attribution_render_names_the_worst_phase() {
        let base = report(vec![
            phase(1, 100, "busy", None, 7),
            phase(101, 220, "queue-full", Some("q2"), 41),
        ]);
        let new = report(vec![
            phase(1, 100, "busy", None, 7),
            phase(101, 261, "queue-full", Some("q2"), 41),
        ]);
        let deltas = phase_attribution(&base, &new);
        let text = render_phase_attribution(&deltas, 41);
        assert!(text.contains("phase 2 of 2"), "{text}");
        assert!(text.contains("queue-full on hw1 (q2), line 41 in main"), "{text}");
        assert!(text.contains("cycles 101..261"), "{text}");
    }

    #[test]
    fn identical_phase_reports_have_all_zero_deltas() {
        let r = report(vec![
            phase(1, 100, "busy", None, 0),
            phase(101, 220, "queue-full", Some("q2"), 41),
        ]);
        let deltas = phase_attribution(&r, &r);
        assert!(deltas.iter().all(|d| d.delta == 0));
        let text = render_phase_attribution(&deltas, 0);
        assert!(!text.contains("come from"), "no headline when nothing moved: {text}");
    }
}
