//! Interval-sampled counter timelines: the temporal axis of the
//! observability layer. The simulator (with `SimConfig::sample_interval`
//! set) snapshots every always-on counter at each interval boundary and
//! records the *delta* over the window, so a [`Timeline`] is a lossless
//! decomposition of the end-of-run totals — per-interval deltas sum
//! exactly to the final `SimMetrics` for every thread and queue (tested in
//! the rt suite). Phase segmentation ([`crate::phase`]), per-phase diff
//! attribution ([`crate::diff::phase_attribution`]), and the Perfetto
//! counter-track export all consume this one structure.

use crate::json::{FromJson, Json, Schema, Tag, ToJson};
use crate::stall::ClassCycles;

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
}

/// The timeline document's format tag.
pub const SCHEMA: Schema = Schema(&[("schema", Tag::Str("twill-timeline-v1"))]);

/// Check that `spans` tile cycles `[1, last end]`: the first starts at
/// cycle 1, each later one at the previous end + 1, and none ends before
/// it starts. `what` names the array in the error (`.intervals[3]: …`).
/// Phase reports are read under the same rule.
pub(crate) fn check_tiling(
    what: &str,
    spans: impl IntoIterator<Item = (u64, u64)>,
) -> Result<(), String> {
    let mut next = 1;
    for (i, (start, end)) in spans.into_iter().enumerate() {
        if start != next {
            return Err(format!(
                ".{what}[{i}]: starts at cycle {start}, expected {next} (the previous end + 1)"
            ));
        }
        if end < start {
            return Err(format!(".{what}[{i}]: ends at cycle {end}, before its start {start}"));
        }
        next = end.saturating_add(1);
    }
    Ok(())
}

impl ToJson for Timeline {
    /// Per-interval numbers are positional arrays (class order =
    /// [`crate::StallClass::ALL`], queue fields =
    /// pushes/pops/full/empty/occupancy) to keep golden files small.
    fn to_tree(&self) -> Json {
        let interval = |iv: &Interval| {
            let queue = |q: &QueueWindow| {
                Json::arr([q.pushes, q.pops, q.full_stalls, q.empty_stalls, q.occupancy.into()])
            };
            Json::obj([
                ("start", iv.start.into()),
                ("end", iv.end.into()),
                ("threads", Json::arr(iv.threads.iter().map(|t| Json::arr(t.as_array())))),
                ("queues", Json::arr(iv.queues.iter().map(queue))),
            ])
        };
        SCHEMA.doc([
            ("sample_interval", self.sample_interval.into()),
            ("threads", Json::arr(&self.thread_names)),
            ("queues", Json::arr(&self.queue_names)),
            ("intervals", Json::arr(self.intervals.iter().map(interval))),
        ])
    }
}

impl FromJson for Interval {
    fn from_json(doc: &Json) -> Result<Interval, String> {
        let threads: Vec<Vec<u64>> = doc.req("threads")?;
        if let Some(i) = threads.iter().position(|row| row.len() != 7) {
            return Err(format!(".threads[{i}]: thread row needs 7 classes"));
        }
        let mut iv = Interval {
            start: doc.req("start")?,
            end: doc.req("end")?,
            threads: threads.iter().map(|a| ClassCycles::from_fn(|c| a[c.index()])).collect(),
            queues: Vec::new(),
        };
        for (i, row) in doc.req::<Vec<Vec<u64>>>("queues")?.iter().enumerate() {
            let [pushes, pops, full_stalls, empty_stalls, occupancy] = row[..] else {
                return Err(format!(".queues[{i}]: queue row needs 5 fields"));
            };
            let occupancy = u32::try_from(occupancy)
                .map_err(|_| format!(".queues[{i}][4]: {occupancy} is out of range for u32"))?;
            iv.queues.push(QueueWindow { pushes, pops, full_stalls, empty_stalls, occupancy });
        }
        Ok(iv)
    }
}

impl FromJson for Timeline {
    /// Rejects a foreign schema, rows of the wrong width or count, and
    /// intervals that do not tile the run.
    fn from_json(doc: &Json) -> Result<Timeline, String> {
        SCHEMA.check(doc)?;
        let t = Timeline {
            sample_interval: doc.req("sample_interval")?,
            thread_names: doc.req("threads")?,
            queue_names: doc.req("queues")?,
            intervals: doc.opt("intervals")?.unwrap_or_default(),
        };
        for (i, iv) in t.intervals.iter().enumerate() {
            if iv.threads.len() != t.thread_names.len() || iv.queues.len() != t.queue_names.len() {
                return Err(format!(".intervals[{i}]: row count does not match the track names"));
            }
        }
        check_tiling("intervals", t.intervals.iter().map(|iv| (iv.start, iv.end)))?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

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
        let bad = json::parse(r#"{"schema": "twill-timeline-v1", "sample_interval": 10}"#).unwrap();
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
