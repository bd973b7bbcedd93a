//! Phase segmentation over a sampled [`Timeline`]: adjacent intervals
//! whose per-thread dominant stall classes agree are merged into one
//! phase, each phase is attributed to its hottest (thread, stall-class)
//! pair and — when the class is a queue stall — to the queue responsible,
//! and (given the run's source profile) named by the hottest C line of
//! that pair. The per-phase diff attribution in [`crate::diff`] aligns two
//! of these reports to say *when* a regression happened, not just where.

use crate::json::{FromJson, Json, Schema, Tag, ToJson};
use crate::profile::SourceProfile;
use crate::stall::{ClassCycles, StallClass};
use crate::timeseries::{check_tiling, Timeline};
use std::fmt::Write as _;

/// One phase: a maximal run of sample intervals with a stable per-thread
/// dominant stall-class signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// First cycle covered (inclusive).
    pub start: u64,
    /// Last cycle covered (inclusive).
    pub end: u64,
    /// Number of sample intervals merged into this phase.
    pub intervals: usize,
    /// Thread owning the phase's dominant stall (or the busiest thread
    /// when nothing stalled).
    pub thread: String,
    /// Dominant stall class (`Busy` for a stall-free phase).
    pub class: StallClass,
    /// Cycles the dominant (thread, class) pair accumulated in the phase.
    pub stall_cycles: u64,
    /// The responsible queue, when the dominant class is a queue stall.
    pub queue: Option<String>,
    /// Hottest function of the dominant pair (set by [`PhaseReport::annotate`]).
    pub func: Option<String>,
    /// Hottest source line of the dominant pair (0 = not annotated).
    pub line: u32,
}

impl Phase {
    /// Phase length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start + 1
    }

    /// `queue-full on q2` / `busy on cpu` style headline fragment.
    pub fn describe(&self) -> String {
        let mut s = format!("{} on {}", self.class, self.thread);
        if let Some(q) = &self.queue {
            let _ = write!(s, " ({q})");
        }
        if self.line != 0 {
            let _ = write!(s, ", line {}", self.line);
            if let Some(f) = &self.func {
                let _ = write!(s, " in {f}");
            }
        }
        s
    }
}

/// The segmented view of one run's timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// Total cycles covered (the run's cycle count).
    pub total_cycles: u64,
    /// Consecutive phases partitioning cycles `[1, total_cycles]`.
    pub phases: Vec<Phase>,
}

/// Segment a timeline into phases and attribute each one.
pub fn segment(t: &Timeline) -> PhaseReport {
    let mut report = PhaseReport { total_cycles: t.total_cycles(), phases: Vec::new() };
    let signature = |iv: &crate::timeseries::Interval| -> Vec<StallClass> {
        iv.threads.iter().map(ClassCycles::dominant).collect()
    };
    let mut runs: Vec<(usize, usize)> = Vec::new(); // (first interval, count)
    for (i, iv) in t.intervals.iter().enumerate() {
        match runs.last_mut() {
            Some((first, count)) if signature(&t.intervals[*first]) == signature(iv) => *count += 1,
            _ => runs.push((i, 1)),
        }
    }
    for (first, count) in runs {
        let ivs = &t.intervals[first..first + count];
        // Sum each thread's breakdown over the phase.
        let mut sums = vec![ClassCycles::default(); t.thread_names.len()];
        for iv in ivs {
            for (acc, d) in sums.iter_mut().zip(&iv.threads) {
                acc.add(d);
            }
        }
        // The phase's dominant pair: the largest real stall (excluding busy
        // and idle) across all threads; a stall-free phase is attributed to
        // its busiest thread.
        let mut best: Option<(usize, StallClass, u64)> = None; // (thread, class, cycles)
        for (ti, s) in sums.iter().enumerate() {
            for class in StallClass::STALLS {
                let v = s[class];
                if v > 0 && best.map(|(_, _, bv)| v > bv).unwrap_or(true) {
                    best = Some((ti, class, v));
                }
            }
        }
        let (thread, class, cycles) = best.unwrap_or_else(|| {
            let ti = sums
                .iter()
                .enumerate()
                .max_by_key(|(i, s)| (s.busy, std::cmp::Reverse(*i)))
                .map(|(i, _)| i)
                .unwrap_or(0);
            (ti, StallClass::Busy, sums.get(ti).map(|s| s.busy).unwrap_or(0))
        });
        // Queue stalls name the queue with the most matching blocked
        // cycles inside the phase.
        let queue = match class {
            StallClass::QueueFull | StallClass::QueueEmpty => {
                let mut totals = vec![0u64; t.queue_names.len()];
                for iv in ivs {
                    for (acc, w) in totals.iter_mut().zip(&iv.queues) {
                        let n = if class == StallClass::QueueFull {
                            w.full_stalls
                        } else {
                            w.empty_stalls
                        };
                        *acc = acc.saturating_add(n);
                    }
                }
                totals
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, &v)| (v, std::cmp::Reverse(*i)))
                    .filter(|(_, &v)| v > 0)
                    .map(|(i, _)| t.queue_names[i].clone())
            }
            _ => None,
        };
        report.phases.push(Phase {
            start: ivs[0].start,
            end: ivs[count - 1].end,
            intervals: count,
            thread: t.thread_names.get(thread).cloned().unwrap_or_default(),
            class,
            stall_cycles: cycles,
            queue,
            func: None,
            line: 0,
        });
    }
    report
}

impl PhaseReport {
    /// Name each phase by the hottest C line of its dominant (thread,
    /// class) pair in the run's source profile. The profile is an
    /// end-of-run aggregate, so the line named is the pair's hottest line
    /// over the whole run — the best stand-in available without per-site
    /// sampling. Ties pick the smallest line; `<runtime>` pseudo-sites
    /// (line 0) never win.
    pub fn annotate(&mut self, sp: &SourceProfile) {
        for p in &mut self.phases {
            let mut best: Option<(&str, u32, u64)> = None;
            for s in sp.samples.iter().filter(|s| s.thread == p.thread && s.line != 0) {
                let v = s.cycles[p.class];
                let better = match best {
                    None => v > 0,
                    Some((_, line, bv)) => v > bv || (v == bv && s.line < line),
                };
                if better {
                    best = Some((&s.func, s.line, v));
                }
            }
            if let Some((func, line, _)) = best {
                p.func = Some(func.to_string());
                p.line = line;
            }
        }
    }

    /// Human-readable phase table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== phases ({} over {} cycles) ===",
            self.phases.len(),
            self.total_cycles
        );
        for (i, p) in self.phases.iter().enumerate() {
            let _ = writeln!(
                out,
                "phase {}/{}: cycles {}..{} ({} cycles, {} interval(s)) — {}",
                i + 1,
                self.phases.len(),
                p.start,
                p.end,
                p.cycles(),
                p.intervals,
                p.describe()
            );
        }
        out
    }
}

/// The phase report's format tag.
pub const SCHEMA: Schema = Schema(&[("schema", Tag::Str("twill-phases-v1"))]);

impl ToJson for Phase {
    fn to_tree(&self) -> Json {
        let mut doc = Json::obj([
            ("start", Json::from(self.start)),
            ("end", self.end.into()),
            ("intervals", self.intervals.into()),
            ("thread", (&self.thread).into()),
            ("class", self.class.name().into()),
            ("stall_cycles", self.stall_cycles.into()),
            ("line", self.line.into()),
        ]);
        if let Some(q) = &self.queue {
            doc.push("queue", q);
        }
        if let Some(f) = &self.func {
            doc.push("func", f);
        }
        doc
    }
}

impl FromJson for Phase {
    fn from_json(doc: &Json) -> Result<Phase, String> {
        let class: String = doc.req("class")?;
        Ok(Phase {
            start: doc.req("start")?,
            end: doc.req("end")?,
            intervals: doc.req("intervals")?,
            thread: doc.req("thread")?,
            class: StallClass::from_name(&class)
                .ok_or_else(|| format!(".class: unknown stall class {class:?}"))?,
            stall_cycles: doc.req("stall_cycles")?,
            queue: doc.opt("queue")?,
            func: doc.opt("func")?,
            line: doc.req("line")?,
        })
    }
}

impl ToJson for PhaseReport {
    fn to_tree(&self) -> Json {
        SCHEMA.doc([
            ("total_cycles", Json::from(self.total_cycles)),
            ("phases", self.phases.to_tree()),
        ])
    }
}

impl FromJson for PhaseReport {
    /// Rejects a foreign schema and phases that do not tile the run.
    fn from_json(doc: &Json) -> Result<PhaseReport, String> {
        SCHEMA.check(doc)?;
        let r = PhaseReport {
            total_cycles: doc.req("total_cycles")?,
            phases: doc.opt("phases")?.unwrap_or_default(),
        };
        check_tiling("phases", r.phases.iter().map(|p| (p.start, p.end)))?;
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SiteSample;
    use crate::timeseries::{Interval, QueueWindow};

    fn bd(busy: u64, qf: u64, qe: u64) -> ClassCycles {
        ClassCycles { busy, queue_full: qf, queue_empty: qe, ..Default::default() }
    }

    fn timeline() -> Timeline {
        let qw = |full, empty, occ| QueueWindow {
            pushes: 1,
            pops: 1,
            full_stalls: full,
            empty_stalls: empty,
            occupancy: occ,
        };
        Timeline {
            sample_interval: 100,
            thread_names: vec!["cpu".into(), "hw1".into()],
            queue_names: vec!["q0".into(), "q1".into()],
            intervals: vec![
                // Two busy intervals (same signature: both threads busy).
                Interval {
                    start: 1,
                    end: 100,
                    threads: vec![bd(90, 10, 0), bd(100, 0, 0)],
                    queues: vec![qw(0, 0, 1), qw(0, 0, 0)],
                },
                Interval {
                    start: 101,
                    end: 200,
                    threads: vec![bd(80, 20, 0), bd(100, 0, 0)],
                    queues: vec![qw(5, 0, 2), qw(0, 0, 0)],
                },
                // A queue-full phase: cpu mostly blocked pushing into q1.
                Interval {
                    start: 201,
                    end: 300,
                    threads: vec![bd(10, 90, 0), bd(100, 0, 0)],
                    queues: vec![qw(2, 0, 1), qw(88, 0, 4)],
                },
            ],
        }
    }

    #[test]
    fn merges_equal_signatures_and_partitions_cycles() {
        let r = segment(&timeline());
        assert_eq!(r.total_cycles, 300);
        assert_eq!(r.phases.len(), 2, "{r:?}");
        assert_eq!((r.phases[0].start, r.phases[0].end), (1, 200));
        assert_eq!(r.phases[0].intervals, 2);
        assert_eq!((r.phases[1].start, r.phases[1].end), (201, 300));
        // Phases tile the run exactly.
        assert_eq!(r.phases.iter().map(|p| p.cycles()).sum::<u64>(), r.total_cycles);
    }

    #[test]
    fn attributes_dominant_stall_and_queue() {
        let r = segment(&timeline());
        // Phase 1's largest stall is cpu queue-full (30 cycles over the
        // two merged intervals).
        assert_eq!(r.phases[0].thread, "cpu");
        assert_eq!(r.phases[0].class, StallClass::QueueFull);
        assert_eq!(r.phases[0].stall_cycles, 30);
        // Phase 2's stall is also cpu queue-full, on q1 (88 > 2).
        assert_eq!(r.phases[1].queue.as_deref(), Some("q1"));
        assert_eq!(r.phases[1].stall_cycles, 90);
    }

    #[test]
    fn stall_free_phase_falls_back_to_busiest_thread() {
        let t = Timeline {
            sample_interval: 10,
            thread_names: vec!["cpu".into(), "hw1".into()],
            queue_names: vec![],
            intervals: vec![Interval {
                start: 1,
                end: 10,
                threads: vec![bd(4, 0, 0), bd(10, 0, 0)],
                queues: vec![],
            }],
        };
        let r = segment(&t);
        assert_eq!(r.phases[0].thread, "hw1");
        assert_eq!(r.phases[0].class, StallClass::Busy);
        assert!(r.phases[0].queue.is_none());
    }

    #[test]
    fn annotate_names_hottest_line_of_dominant_pair() {
        let mut r = segment(&timeline());
        let sp = SourceProfile {
            name: "t".into(),
            samples: vec![
                SiteSample {
                    thread: "cpu".into(),
                    func: "main".into(),
                    line: 41,
                    inst: String::new(),
                    cycles: bd(0, 100, 0),
                },
                SiteSample {
                    thread: "cpu".into(),
                    func: "main".into(),
                    line: 7,
                    inst: String::new(),
                    cycles: bd(500, 3, 0),
                },
                // A hotter line on the wrong thread must not win.
                SiteSample {
                    thread: "hw1".into(),
                    func: "main".into(),
                    line: 90,
                    inst: String::new(),
                    cycles: bd(0, 999, 0),
                },
            ],
        };
        r.annotate(&sp);
        assert_eq!(r.phases[1].line, 41);
        assert_eq!(r.phases[1].func.as_deref(), Some("main"));
        assert!(r.phases[1].describe().contains("line 41"));
    }

    #[test]
    fn json_round_trips_to_equal_report() {
        let mut r = segment(&timeline());
        r.phases[0].func = Some("main".into());
        r.phases[0].line = 12;
        let doc = crate::json::parse(&r.to_json()).expect("phase JSON must parse");
        assert_eq!(PhaseReport::from_json(&doc).unwrap(), r);
    }

    #[test]
    fn render_text_mentions_every_phase() {
        let r = segment(&timeline());
        let text = r.render_text();
        assert!(text.contains("phase 1/2"));
        assert!(text.contains("phase 2/2"));
        assert!(text.contains("queue-full on cpu"));
    }
}
