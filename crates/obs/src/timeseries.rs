//! Interval-sampled counter timelines: the temporal axis of the
//! observability layer. The simulator (with `SimConfig::sample_interval`
//! set) snapshots every always-on counter at each interval boundary and
//! records the *delta* over the window, so a [`Timeline`] is a lossless
//! decomposition of the end-of-run totals — per-interval deltas sum
//! exactly to the final `SimMetrics` for every thread and queue (tested in
//! the rt suite). Phase segmentation ([`crate::phase`]), per-phase diff
//! attribution ([`crate::diff::phase_attribution`]), and the Perfetto
//! counter-track export all consume this one structure.

use crate::json::{self, Json};
use crate::stall::ClassCycles;
use std::fmt::Write as _;

/// One queue's activity over a single sample window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWindow {
    /// Values pushed during the window.
    pub pushes: u64,
    /// Values popped during the window.
    pub pops: u64,
    /// Producer cycles blocked on a full queue during the window.
    pub full_stalls: u64,
    /// Consumer cycles blocked on an empty queue during the window.
    pub empty_stalls: u64,
    /// Instantaneous occupancy at the window's closing cycle (a level,
    /// not a delta — the Perfetto counter track plots this directly).
    pub occupancy: u32,
}

impl QueueWindow {
    fn add(&mut self, o: &QueueWindow) {
        self.pushes += o.pushes;
        self.pops += o.pops;
        self.full_stalls += o.full_stalls;
        self.empty_stalls += o.empty_stalls;
        // Totals keep the last window's level (the end-of-run occupancy).
        self.occupancy = o.occupancy;
    }
}

/// Counter deltas over one sample window, cycles `[start, end]` inclusive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interval {
    /// First cycle covered (previous boundary + 1; the first interval
    /// starts at cycle 1).
    pub start: u64,
    /// Last cycle covered (a multiple of the sample interval, except for
    /// the final partial window flushed when the run halts mid-interval).
    pub end: u64,
    /// Per-thread cycle deltas by stall class, in `thread_names` order.
    pub threads: Vec<ClassCycles>,
    /// Per-queue activity, in `queue_names` order.
    pub queues: Vec<QueueWindow>,
}

impl Interval {
    /// Window length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start + 1
    }
}

/// The sampled counter timeline of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Nominal window length in cycles (the last interval may be shorter).
    pub sample_interval: u64,
    /// Track names in agent order (`cpu`, `hw1`, ...).
    pub thread_names: Vec<String>,
    /// Queue names in id order (`q0`, `q1`, ...).
    pub queue_names: Vec<String>,
    /// Consecutive, non-overlapping windows covering cycles
    /// `[1, total_cycles]` exactly.
    pub intervals: Vec<Interval>,
}

impl Timeline {
    /// Total cycles covered (the run's cycle count).
    pub fn total_cycles(&self) -> u64 {
        self.intervals.last().map(|iv| iv.end).unwrap_or(0)
    }

    /// Per-thread deltas summed over all intervals; equals the end-of-run
    /// `ClassCycles` totals by construction.
    pub fn thread_totals(&self) -> Vec<ClassCycles> {
        let mut totals = vec![ClassCycles::default(); self.thread_names.len()];
        for iv in &self.intervals {
            for (acc, d) in totals.iter_mut().zip(&iv.threads) {
                acc.add(d);
            }
        }
        totals
    }

    /// Per-queue activity summed over all intervals (occupancy keeps the
    /// final window's level); push/pop/stall sums equal the end-of-run
    /// `QueueStat` totals by construction.
    pub fn queue_totals(&self) -> Vec<QueueWindow> {
        let mut totals = vec![QueueWindow::default(); self.queue_names.len()];
        for iv in &self.intervals {
            for (acc, w) in totals.iter_mut().zip(&iv.queues) {
                acc.add(w);
            }
        }
        totals
    }

    /// Serialize as a compact JSON document. Per-interval numbers are
    /// positional arrays (class order = [`crate::StallClass::ALL`], queue fields =
    /// pushes/pops/full/empty/occupancy) to keep golden files small.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"twill-timeline-v1\",\n");
        let _ = writeln!(out, "  \"sample_interval\": {},", self.sample_interval);
        let names =
            |ns: &[String]| ns.iter().map(|n| json::quote(n)).collect::<Vec<_>>().join(", ");
        let _ = writeln!(out, "  \"threads\": [{}],", names(&self.thread_names));
        let _ = writeln!(out, "  \"queues\": [{}],", names(&self.queue_names));
        out.push_str("  \"intervals\": [");
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ =
                write!(out, "\n    {{\"start\": {}, \"end\": {}, \"threads\": [", iv.start, iv.end);
            for (j, t) in iv.threads.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{}]", t.as_array().map(|v| v.to_string()).join(", "));
            }
            out.push_str("], \"queues\": [");
            for (j, q) in iv.queues.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "[{}, {}, {}, {}, {}]",
                    q.pushes, q.pops, q.full_stalls, q.empty_stalls, q.occupancy
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a document produced by [`Timeline::to_json`].
    pub fn from_json(doc: &Json) -> Result<Timeline, String> {
        let u64s = |v: &Json, what: &str| -> Result<Vec<u64>, String> {
            v.as_arr()
                .ok_or_else(|| format!("timeline: {what} is not an array"))?
                .iter()
                .map(|n| n.as_u64().ok_or_else(|| format!("timeline: non-integer in {what}")))
                .collect()
        };
        let names = |key: &str| -> Result<Vec<String>, String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .ok_or_else(|| format!("timeline: missing {key}"))?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("timeline: non-string in {key}"))
                })
                .collect()
        };
        let mut t = Timeline {
            sample_interval: doc
                .get("sample_interval")
                .and_then(|v| v.as_u64())
                .ok_or("timeline: missing sample_interval")?,
            thread_names: names("threads")?,
            queue_names: names("queues")?,
            intervals: Vec::new(),
        };
        for iv in doc.get("intervals").and_then(|v| v.as_arr()).unwrap_or(&[]) {
            let field = |key: &str| {
                iv.get(key)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("timeline: interval missing {key}"))
            };
            let mut interval =
                Interval { start: field("start")?, end: field("end")?, ..Default::default() };
            for row in iv.get("threads").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                let a = u64s(row, "thread row")?;
                if a.len() != 7 {
                    return Err("timeline: thread row needs 7 classes".into());
                }
                interval.threads.push(ClassCycles::from_fn(|c| a[c.index()]));
            }
            for row in iv.get("queues").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                let a = u64s(row, "queue row")?;
                if a.len() != 5 {
                    return Err("timeline: queue row needs 5 fields".into());
                }
                interval.queues.push(QueueWindow {
                    pushes: a[0],
                    pops: a[1],
                    full_stalls: a[2],
                    empty_stalls: a[3],
                    occupancy: a[4] as u32,
                });
            }
            if interval.threads.len() != t.thread_names.len()
                || interval.queues.len() != t.queue_names.len()
            {
                return Err("timeline: interval row count mismatch".into());
            }
            t.intervals.push(interval);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Timeline {
        let bd = |busy, qf| ClassCycles { busy, queue_full: qf, ..Default::default() };
        Timeline {
            sample_interval: 100,
            thread_names: vec!["cpu".into(), "hw1".into()],
            queue_names: vec!["q0".into()],
            intervals: vec![
                Interval {
                    start: 1,
                    end: 100,
                    threads: vec![bd(90, 10), bd(100, 0)],
                    queues: vec![QueueWindow {
                        pushes: 40,
                        pops: 38,
                        full_stalls: 10,
                        empty_stalls: 0,
                        occupancy: 2,
                    }],
                },
                Interval {
                    start: 101,
                    end: 130,
                    threads: vec![bd(30, 0), bd(25, 5)],
                    queues: vec![QueueWindow {
                        pushes: 2,
                        pops: 4,
                        full_stalls: 0,
                        empty_stalls: 5,
                        occupancy: 0,
                    }],
                },
            ],
        }
    }

    #[test]
    fn totals_sum_over_intervals() {
        let t = sample();
        assert_eq!(t.total_cycles(), 130);
        let threads = t.thread_totals();
        assert_eq!(threads[0].busy, 120);
        assert_eq!(threads[0].queue_full, 10);
        assert_eq!(threads[1].busy, 125);
        let queues = t.queue_totals();
        assert_eq!(queues[0].pushes, 42);
        assert_eq!(queues[0].pops, 42);
        assert_eq!(queues[0].full_stalls, 10);
        assert_eq!(queues[0].empty_stalls, 5);
        assert_eq!(queues[0].occupancy, 0, "totals keep the final level");
    }

    #[test]
    fn json_round_trips_to_equal_timeline() {
        let t = sample();
        let doc = json::parse(&t.to_json()).expect("timeline JSON must parse");
        assert_eq!(Timeline::from_json(&doc).unwrap(), t);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        let bad = json::parse(r#"{"sample_interval": 10}"#).unwrap();
        assert!(Timeline::from_json(&bad).unwrap_err().contains("threads"));
        let short_row = r#"{"schema": "twill-timeline-v1", "sample_interval": 10,
            "threads": ["cpu"], "queues": [],
            "intervals": [{"start": 1, "end": 10, "threads": [[1, 2]], "queues": []}]}"#;
        let doc = json::parse(short_row).unwrap();
        assert!(Timeline::from_json(&doc).unwrap_err().contains("7 classes"));
    }

    #[test]
    fn empty_timeline_round_trips() {
        let t = Timeline {
            sample_interval: 64,
            thread_names: vec!["cpu".into()],
            queue_names: vec![],
            intervals: vec![],
        };
        let doc = json::parse(&t.to_json()).unwrap();
        assert_eq!(Timeline::from_json(&doc).unwrap(), t);
        assert_eq!(t.total_cycles(), 0);
    }
}
