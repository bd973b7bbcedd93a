//! Aggregate simulation metrics: per-thread stall attribution, per-queue
//! occupancy statistics, and bottleneck (critical pipeline stage)
//! identification.
//!
//! These are computed from counters the simulator keeps unconditionally
//! (plain pre-allocated integers — no tracing required), so metrics are
//! available for every run; the event trace is only needed for the
//! timeline view.

use crate::event::FaultClass;
use crate::json::{self, FromJson, Json, ToJson};
use crate::stall::{ClassCycles, StallClass};
use std::fmt::Write as _;

/// Where one simulated agent's cycles went. Every cycle of the run falls
/// in exactly one class, so the counts sum to the run's total cycle count
/// (the accounting invariant `twill-rt` asserts in debug builds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadMetrics {
    /// Track name (`cpu`, `hw1`, …).
    pub name: String,
    pub cycles: ClassCycles,
}

/// One queue's lifetime statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueMetrics {
    pub name: String,
    pub depth: u32,
    pub pushes: u64,
    pub pops: u64,
    /// High-water mark: peak simultaneous occupancy.
    pub high_water: u32,
    /// Producer-side blocked attempts (one per blocked cycle).
    pub full_stalls: u64,
    /// Consumer-side blocked attempts.
    pub empty_stalls: u64,
    /// Event-sampled occupancy histogram: `occupancy_hist[n]` counts the
    /// push/pop completions that left the queue holding `n` values.
    pub occupancy_hist: Vec<u64>,
}

impl QueueMetrics {
    /// Mean occupancy over the sampled events.
    pub fn mean_occupancy(&self) -> f64 {
        let samples: u64 = self.occupancy_hist.iter().sum();
        if samples == 0 {
            return 0.0;
        }
        let weighted: u64 =
            self.occupancy_hist.iter().enumerate().map(|(occ, &n)| occ as u64 * n).sum();
        weighted as f64 / samples as f64
    }
}

/// Counts of injected faults by class (all zero unless a fault plan was
/// configured — the fault layer is strictly opt-in).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// Queue payloads that had a bit flipped in flight.
    pub bit_flips: u64,
    /// Queue messages silently lost between producer and consumer.
    pub drops: u64,
    /// Queue messages delivered twice.
    pub dups: u64,
    /// Transient hardware-thread stalls injected.
    pub stalls: u64,
    /// Single-event upsets applied to shared memory.
    pub mem_upsets: u64,
}

impl FaultMetrics {
    pub fn total(&self) -> u64 {
        self.bit_flips + self.drops + self.dups + self.stalls + self.mem_upsets
    }

    /// Count one injected fault.
    pub fn bump(&mut self, class: FaultClass) {
        match class {
            FaultClass::QueueBitFlip => self.bit_flips += 1,
            FaultClass::QueueDrop => self.drops += 1,
            FaultClass::QueueDup => self.dups += 1,
            FaultClass::HwStall => self.stalls += 1,
            FaultClass::MemUpset => self.mem_upsets += 1,
        }
    }
}

/// The full metrics report for one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    pub cycles: u64,
    pub threads: Vec<ThreadMetrics>,
    pub queues: Vec<QueueMetrics>,
    /// Trace events lost to the ring-buffer bound (0 when tracing was
    /// disabled or nothing was dropped).
    pub dropped_events: u64,
    /// Injected-fault counters (zero without a fault plan).
    pub faults: FaultMetrics,
}

/// A compact per-sweep-point digest (what the experiment runner records
/// for every point of a parameter sweep).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSummary {
    pub cycles: u64,
    /// Busy fraction per thread, in track order.
    pub utilization: Vec<f64>,
    /// Fraction of all thread-cycles spent blocked on a resource.
    pub stall_fraction: f64,
    /// Name of the largest stall class across all threads (`busy` when
    /// no thread ever stalled).
    pub dominant_stall: &'static str,
    /// Index of the throughput-bounding thread.
    pub critical_thread: usize,
    pub max_queue_high_water: u32,
}

impl SimMetrics {
    /// The DSWP pipeline stage that bounds throughput: in a decoupled
    /// pipeline every stage runs for the whole execution, so the stage
    /// with the most busy cycles is the one the others wait on (its
    /// upstream neighbours see full queues, its downstream ones empty
    /// queues).
    pub fn critical_thread(&self) -> Option<usize> {
        self.threads
            .iter()
            .enumerate()
            .max_by_key(|(i, t)| (t.cycles.busy, std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
    }

    pub fn summary(&self) -> MetricsSummary {
        let mut agg = ClassCycles::default();
        for t in &self.threads {
            agg.add(&t.cycles);
        }
        let (total, stalled) = (agg.total(), agg.stalled());
        MetricsSummary {
            cycles: self.cycles,
            utilization: self.threads.iter().map(|t| t.cycles.utilization()).collect(),
            stall_fraction: if total == 0 { 0.0 } else { stalled as f64 / total as f64 },
            dominant_stall: agg.dominant_stall().0.name(),
            critical_thread: self.critical_thread().unwrap_or(0),
            max_queue_high_water: self.queues.iter().map(|q| q.high_water).max().unwrap_or(0),
        }
    }

    /// Render as Prometheus text exposition format (version 0.0.4) — the
    /// scrape body a sweep service would serve for this run. Counter
    /// samples carry `_total` suffixes; derived gauges (`utilization`) are
    /// recomputed from the raw counters, never stored.
    pub fn metrics_text(&self) -> String {
        let esc = json::prom_label;
        let mut out = String::new();
        out.push_str("# HELP twill_cycles_total Simulated cycles of the run.\n");
        out.push_str("# TYPE twill_cycles_total counter\n");
        let _ = writeln!(out, "twill_cycles_total {}", self.cycles);
        out.push_str(
            "# HELP twill_thread_cycles_total Per-thread cycle attribution by stall class.\n",
        );
        out.push_str("# TYPE twill_thread_cycles_total counter\n");
        for t in &self.threads {
            for class in StallClass::ALL {
                let _ = writeln!(
                    out,
                    "twill_thread_cycles_total{{thread=\"{}\",class=\"{}\"}} {}",
                    esc(&t.name),
                    class.key(),
                    t.cycles[class]
                );
            }
        }
        out.push_str("# HELP twill_thread_utilization Busy fraction of the run per thread.\n");
        out.push_str("# TYPE twill_thread_utilization gauge\n");
        for t in &self.threads {
            let _ = writeln!(
                out,
                "twill_thread_utilization{{thread=\"{}\"}} {}",
                esc(&t.name),
                json::number(t.cycles.utilization())
            );
        }
        out.push_str("# HELP twill_queue_events_total Queue lifetime event counts.\n");
        out.push_str("# TYPE twill_queue_events_total counter\n");
        for q in &self.queues {
            let events = [
                ("push", q.pushes),
                ("pop", q.pops),
                ("full_stall", q.full_stalls),
                ("empty_stall", q.empty_stalls),
            ];
            for (event, n) in events {
                let _ = writeln!(
                    out,
                    "twill_queue_events_total{{queue=\"{}\",event=\"{event}\"}} {n}",
                    esc(&q.name)
                );
            }
        }
        out.push_str("# HELP twill_queue_pushes_total Values pushed per queue.\n");
        out.push_str("# TYPE twill_queue_pushes_total counter\n");
        for q in &self.queues {
            let _ = writeln!(
                out,
                "twill_queue_pushes_total{{queue=\"{}\"}} {}",
                esc(&q.name),
                q.pushes
            );
        }
        out.push_str(
            "# HELP twill_queue_stall_cycles_total Producer (full) and consumer (empty) \
             blocked cycles per queue.\n",
        );
        out.push_str("# TYPE twill_queue_stall_cycles_total counter\n");
        for q in &self.queues {
            for (kind, n) in [("full", q.full_stalls), ("empty", q.empty_stalls)] {
                let _ = writeln!(
                    out,
                    "twill_queue_stall_cycles_total{{queue=\"{}\",kind=\"{kind}\"}} {n}",
                    esc(&q.name)
                );
            }
        }
        out.push_str("# HELP twill_queue_depth Declared queue capacity.\n");
        out.push_str("# TYPE twill_queue_depth gauge\n");
        for q in &self.queues {
            let _ = writeln!(out, "twill_queue_depth{{queue=\"{}\"}} {}", esc(&q.name), q.depth);
        }
        out.push_str("# HELP twill_queue_high_water Peak simultaneous queue occupancy.\n");
        out.push_str("# TYPE twill_queue_high_water gauge\n");
        for q in &self.queues {
            let _ = writeln!(
                out,
                "twill_queue_high_water{{queue=\"{}\",depth=\"{}\"}} {}",
                esc(&q.name),
                q.depth,
                q.high_water
            );
        }
        out.push_str(
            "# HELP twill_dropped_events_total Trace events lost to the ring-buffer bound.\n",
        );
        out.push_str("# TYPE twill_dropped_events_total counter\n");
        let _ = writeln!(out, "twill_dropped_events_total {}", self.dropped_events);
        out.push_str("# HELP twill_faults_total Injected faults by class.\n");
        out.push_str("# TYPE twill_faults_total counter\n");
        let faults = [
            ("bit_flip", self.faults.bit_flips),
            ("drop", self.faults.drops),
            ("dup", self.faults.dups),
            ("stall", self.faults.stalls),
            ("mem_upset", self.faults.mem_upsets),
        ];
        for (class, n) in faults {
            let _ = writeln!(out, "twill_faults_total{{class=\"{class}\"}} {n}");
        }
        out
    }

    /// The `twillc --profile` stall/utilization table.
    pub fn profile_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>7} {:>8} {:>9} {:>7} {:>8} {:>8} {:>7}",
            "thread", "cycles", "busy%", "q-full%", "q-empty%", "sem%", "mem%", "bus%", "idle%"
        );
        let pct = |n: u64, d: u64| if d == 0 { 0.0 } else { 100.0 * n as f64 / d as f64 };
        for t in &self.threads {
            let (c, d) = (&t.cycles, t.cycles.total());
            let _ = writeln!(
                out,
                "{:<8} {:>12} {:>7.1} {:>8.1} {:>9.1} {:>7.1} {:>8.1} {:>8.1} {:>7.1}",
                t.name,
                d,
                pct(c.busy, d),
                pct(c.queue_full, d),
                pct(c.queue_empty, d),
                pct(c.sem, d),
                pct(c.mem_bus, d),
                pct(c.module_bus, d),
                pct(c.idle, d),
            );
        }
        if let Some(c) = self.critical_thread() {
            let t = &self.threads[c];
            let _ = writeln!(
                out,
                "critical stage: {} ({:.1}% busy — bounds pipeline throughput)",
                t.name,
                100.0 * t.cycles.utilization()
            );
        }
        if !self.queues.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<6} {:>6} {:>10} {:>10} {:>5} {:>12} {:>13} {:>9}",
                "queue",
                "depth",
                "pushes",
                "pops",
                "peak",
                "full-stalls",
                "empty-stalls",
                "mean-occ"
            );
            for q in &self.queues {
                let _ = writeln!(
                    out,
                    "{:<6} {:>6} {:>10} {:>10} {:>5} {:>12} {:>13} {:>9.2}",
                    q.name,
                    q.depth,
                    q.pushes,
                    q.pops,
                    q.high_water,
                    q.full_stalls,
                    q.empty_stalls,
                    q.mean_occupancy(),
                );
            }
        }
        if self.faults.total() > 0 {
            let f = &self.faults;
            let _ = writeln!(
                out,
                "\nfaults injected: {} (bit-flips {}, drops {}, dups {}, stalls {}, \
                 mem-upsets {})",
                f.total(),
                f.bit_flips,
                f.drops,
                f.dups,
                f.stalls,
                f.mem_upsets,
            );
        }
        if self.dropped_events > 0 {
            let _ = writeln!(out, "\ntrace truncated: {} events dropped", self.dropped_events);
        }
        out
    }
}

impl ToJson for ThreadMetrics {
    /// `{"name", <one member per class>, "utilization"}`.
    fn to_tree(&self) -> Json {
        let mut row = Json::obj([("name", &self.name)]);
        for class in StallClass::ALL {
            row.push(class.key(), self.cycles[class]);
        }
        row.push("utilization", self.cycles.utilization());
        row
    }
}

impl FromJson for ThreadMetrics {
    fn from_json(doc: &Json) -> Result<ThreadMetrics, String> {
        Ok(ThreadMetrics { name: doc.req("name")?, cycles: ClassCycles::from_json(doc)? })
    }
}

impl ToJson for QueueMetrics {
    fn to_tree(&self) -> Json {
        Json::obj([
            ("name", Json::from(&self.name)),
            ("depth", self.depth.into()),
            ("pushes", self.pushes.into()),
            ("pops", self.pops.into()),
            ("high_water", self.high_water.into()),
            ("full_stalls", self.full_stalls.into()),
            ("empty_stalls", self.empty_stalls.into()),
            ("mean_occupancy", self.mean_occupancy().into()),
            ("occupancy_hist", Json::arr(self.occupancy_hist.iter().copied())),
        ])
    }
}

crate::json_object!(QueueMetrics {
    name, depth, pushes, pops, high_water, full_stalls, empty_stalls, occupancy_hist
} read-only);

crate::json_object!(FaultMetrics { bit_flips, drops, dups, stalls, mem_upsets });

impl ToJson for SimMetrics {
    /// The derived `critical_thread`, `utilization` and `mean_occupancy`
    /// are written for the reader's convenience and recomputed on read.
    /// `faults` is written only when a fault was injected, so unfaulted
    /// runs (e.g. the committed baseline) keep byte-identical documents.
    fn to_tree(&self) -> Json {
        let mut doc = Json::obj([("cycles", self.cycles), ("dropped_events", self.dropped_events)]);
        if self.faults.total() > 0 {
            doc.push("faults", self.faults.to_tree());
        }
        doc.push("critical_thread", self.critical_thread().to_tree());
        doc.push("threads", self.threads.to_tree());
        doc.push("queues", self.queues.to_tree());
        doc
    }
}

impl FromJson for SimMetrics {
    /// Documents without `faults` (unfaulted runs, and files written
    /// before fault injection existed) read as zero faults.
    fn from_json(doc: &Json) -> Result<SimMetrics, String> {
        Ok(SimMetrics {
            cycles: doc.req("cycles")?,
            dropped_events: doc.req("dropped_events")?,
            faults: doc.opt("faults")?.unwrap_or_default(),
            threads: doc.opt("threads")?.unwrap_or_default(),
            queues: doc.opt("queues")?.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimMetrics {
        SimMetrics {
            cycles: 100,
            threads: vec![
                ThreadMetrics {
                    name: "cpu".into(),
                    cycles: ClassCycles {
                        busy: 40,
                        queue_full: 10,
                        queue_empty: 20,
                        module_bus: 5,
                        idle: 25,
                        ..Default::default()
                    },
                },
                ThreadMetrics {
                    name: "hw1".into(),
                    cycles: ClassCycles {
                        busy: 90,
                        queue_empty: 5,
                        mem_bus: 5,
                        ..Default::default()
                    },
                },
            ],
            queues: vec![QueueMetrics {
                name: "q0".into(),
                depth: 8,
                pushes: 50,
                pops: 50,
                high_water: 6,
                full_stalls: 10,
                empty_stalls: 20,
                occupancy_hist: vec![10, 20, 30, 40, 0, 0, 0, 0, 0],
            }],
            dropped_events: 3,
            faults: FaultMetrics::default(),
        }
    }

    #[test]
    fn accounting_totals_and_utilization() {
        let m = sample();
        assert_eq!(m.threads[0].cycles.total(), 100);
        assert_eq!(m.threads[0].cycles.stalled(), 35);
        assert!((m.threads[1].cycles.utilization() - 0.9).abs() < 1e-12);
        assert_eq!(m.threads[0].cycles.dominant_stall(), (StallClass::QueueEmpty, 20));
    }

    #[test]
    fn critical_thread_is_busiest() {
        let m = sample();
        assert_eq!(m.critical_thread(), Some(1));
        assert_eq!(SimMetrics::default().critical_thread(), None);
    }

    #[test]
    fn mean_occupancy_weighted() {
        let m = sample();
        // (0*10 + 1*20 + 2*30 + 3*40) / 100 = 2.0
        assert!((m.queues[0].mean_occupancy() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_parses_back_with_all_sections() {
        let m = sample();
        let doc = crate::json::parse(&m.to_json()).expect("metrics JSON must parse");
        assert_eq!(doc.get("cycles").unwrap().as_u64(), Some(100));
        assert_eq!(doc.get("dropped_events").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("critical_thread").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("threads").unwrap().as_arr().unwrap().len(), 2);
        let q = &doc.get("queues").unwrap().as_arr().unwrap()[0];
        assert_eq!(q.get("high_water").unwrap().as_u64(), Some(6));
        assert_eq!(q.get("occupancy_hist").unwrap().as_arr().unwrap().len(), 9);
    }

    #[test]
    fn json_round_trips_to_equal_metrics() {
        let m = sample();
        let doc = crate::json::parse(&m.to_json()).unwrap();
        assert_eq!(SimMetrics::from_json(&doc).unwrap(), m);
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let doc = crate::json::parse(r#"{"cycles": 10}"#).unwrap();
        let err = SimMetrics::from_json(&doc).unwrap_err();
        assert!(err.contains("dropped_events"), "{err}");
    }

    #[test]
    fn faults_round_trip_and_default_when_missing() {
        let mut m = sample();
        // Unfaulted runs emit no "faults" block (baseline stays stable).
        assert!(!m.to_json().contains("\"faults\""));
        m.faults = FaultMetrics { bit_flips: 1, drops: 2, dups: 3, stalls: 4, mem_upsets: 5 };
        assert_eq!(m.faults.total(), 15);
        let doc = crate::json::parse(&m.to_json()).unwrap();
        assert_eq!(SimMetrics::from_json(&doc).unwrap(), m);
        assert!(m.profile_table().contains("faults injected: 15"));
        // Pre-fault-layer documents parse with zeroed counters.
        let old = crate::json::parse(r#"{"cycles": 1, "dropped_events": 0}"#).unwrap();
        assert_eq!(SimMetrics::from_json(&old).unwrap().faults.total(), 0);
    }

    #[test]
    fn profile_table_mentions_critical_stage_and_truncation() {
        let t = sample().profile_table();
        assert!(t.contains("critical stage: hw1"));
        assert!(t.contains("3 events dropped"));
        assert!(t.lines().next().unwrap().contains("busy%"));
    }

    #[test]
    fn metrics_text_is_valid_prometheus_exposition() {
        let t = sample().metrics_text();
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in t.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "), "{line}");
                continue;
            }
            let (sample, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!sample.is_empty());
            assert!(value.parse::<f64>().is_ok(), "non-numeric value in {line:?}");
        }
        assert!(t.contains("twill_cycles_total 100\n"));
        assert!(t.contains("twill_thread_cycles_total{thread=\"cpu\",class=\"queue_empty\"} 20\n"));
        assert!(t.contains("twill_thread_utilization{thread=\"hw1\"} 0.9\n"));
        assert!(t.contains("twill_queue_events_total{queue=\"q0\",event=\"full_stall\"} 10\n"));
        assert!(t.contains("twill_queue_high_water{queue=\"q0\",depth=\"8\"} 6\n"));
        assert!(t.contains("twill_dropped_events_total 3\n"));
        assert!(t.contains("twill_faults_total{class=\"drop\"} 0\n"));
        // Each # TYPE header appears before its first sample.
        let type_pos = t.find("# TYPE twill_queue_depth gauge").unwrap();
        let sample_pos = t.find("twill_queue_depth{").unwrap();
        assert!(type_pos < sample_pos);
    }

    #[test]
    fn metrics_text_exposes_per_queue_families() {
        let t = sample().metrics_text();
        assert!(t.contains("twill_queue_pushes_total{queue=\"q0\"} 50\n"));
        assert!(t.contains("twill_queue_stall_cycles_total{queue=\"q0\",kind=\"full\"} 10\n"));
        assert!(t.contains("twill_queue_stall_cycles_total{queue=\"q0\",kind=\"empty\"} 20\n"));
        // Each new family carries its HELP/TYPE headers before the samples.
        for fam in ["twill_queue_pushes_total", "twill_queue_stall_cycles_total"] {
            let type_pos = t.find(&format!("# TYPE {fam} counter")).unwrap();
            let sample_pos = t.find(&format!("{fam}{{")).unwrap();
            assert!(type_pos < sample_pos, "{fam}: TYPE header after first sample");
        }
    }

    #[test]
    fn metrics_text_escapes_label_values() {
        let mut m = sample();
        m.threads[0].name = "cp\"u\\x".into();
        assert!(m.metrics_text().contains("thread=\"cp\\\"u\\\\x\""));
    }

    #[test]
    fn summary_digest() {
        let s = sample().summary();
        assert_eq!(s.cycles, 100);
        assert_eq!(s.critical_thread, 1);
        assert_eq!(s.max_queue_high_water, 6);
        assert_eq!(s.dominant_stall, "queue-empty");
        assert!((s.stall_fraction - 45.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_a_stall_free_run_names_busy() {
        let mut m = sample();
        for t in &mut m.threads {
            let c = t.cycles;
            t.cycles = ClassCycles { busy: c.busy, idle: c.total() - c.busy, ..Default::default() };
        }
        let s = m.summary();
        assert_eq!(s.dominant_stall, "busy");
        assert_eq!(s.stall_fraction, 0.0);
        // A tie between stall classes keeps the later class.
        m.threads[0].cycles.sem = 4;
        m.threads[1].cycles.module_bus = 4;
        assert_eq!(m.summary().dominant_stall, "module-bus");
    }
}
