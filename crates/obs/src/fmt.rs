//! Shared human-readable rendering of a profiled run: the one formatter
//! behind `twillc --profile`, `twill-bench profile`, and the compare
//! report, so every surface prints the same header, stall/utilization
//! table, and compiler-stage timing section.

use crate::metrics::SimMetrics;
use crate::span::Span;
use crate::timeseries::Timeline;
use std::fmt::Write as _;

/// Compiler-side timing data to append to a profile report: the stage
/// execution spans plus the `StageCounts` run/hit totals.
#[derive(Debug, Clone, Copy)]
pub struct StageSection<'a> {
    pub spans: &'a [Span],
    /// Stage executions (cache misses — the work actually done).
    pub runs: usize,
    /// Demands answered from a memoization cache.
    pub hits: usize,
}

/// Render one run's profile: `=== title (N cycles) ===`, the per-thread
/// stall/utilization table, and (when provided) the wall-clock compiler
/// stage timings.
pub fn profile_report(title: &str, m: &SimMetrics, stages: Option<StageSection<'_>>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {title} ({} cycles) ===", m.cycles);
    out.push_str(&m.profile_table());
    if let Some(s) = stages {
        out.push_str("compiler stages (wall clock):\n");
        for span in s.spans {
            let _ = writeln!(out, "  {:<10} {:>9.2} ms", span.name, span.dur_ns as f64 / 1e6);
        }
        let _ = writeln!(out, "  {} stage run(s), {} cache hit(s)", s.runs, s.hits);
    }
    out
}

/// Render a sampled timeline as a per-interval table: one row per sample
/// window, the dominant stall class of each thread, and each queue's
/// occupancy level at the window's close. The quick terminal view of the
/// same data the Perfetto counter tracks plot.
pub fn timeline_table(t: &Timeline) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== timeline ({} interval(s) of {} cycles over {} cycles) ===",
        t.intervals.len(),
        t.sample_interval,
        t.total_cycles()
    );
    let _ = write!(out, "{:>20}", "cycles");
    for n in &t.thread_names {
        let _ = write!(out, " {n:>14}");
    }
    for n in &t.queue_names {
        let _ = write!(out, " {:>8}", format!("{n} occ"));
    }
    out.push('\n');
    for iv in &t.intervals {
        let _ = write!(out, "{:>20}", format!("{}..{}", iv.start, iv.end));
        for b in &iv.threads {
            let _ = write!(out, " {:>14}", b.dominant());
        }
        for q in &iv.queues {
            let _ = write!(out, " {:>8}", q.occupancy);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FaultMetrics, ThreadMetrics};

    fn metrics() -> SimMetrics {
        SimMetrics {
            cycles: 500,
            threads: vec![ThreadMetrics {
                name: "cpu".into(),
                cycles: crate::ClassCycles { busy: 400, idle: 100, ..Default::default() },
            }],
            queues: vec![],
            dropped_events: 0,
            faults: FaultMetrics::default(),
        }
    }

    #[test]
    fn header_table_and_stage_section() {
        let spans = [Span { name: "dswp".into(), start_ns: 0, dur_ns: 2_500_000 }];
        let r = profile_report(
            "aes",
            &metrics(),
            Some(StageSection { spans: &spans, runs: 3, hits: 1 }),
        );
        assert!(r.starts_with("=== aes (500 cycles) ==="), "{r}");
        assert!(r.contains("busy%"), "{r}");
        assert!(r.contains("dswp"), "{r}");
        assert!(r.contains("2.50 ms"), "{r}");
        assert!(r.contains("3 stage run(s), 1 cache hit(s)"), "{r}");
    }

    #[test]
    fn stage_section_is_optional() {
        let r = profile_report("aes", &metrics(), None);
        assert!(!r.contains("compiler stages"), "{r}");
    }

    #[test]
    fn timeline_table_rows_per_interval() {
        use crate::timeseries::{Interval, QueueWindow, Timeline};
        let t = Timeline {
            sample_interval: 100,
            thread_names: vec!["cpu".into()],
            queue_names: vec!["q0".into()],
            intervals: vec![
                Interval {
                    start: 1,
                    end: 100,
                    threads: vec![crate::ClassCycles { busy: 100, ..Default::default() }],
                    queues: vec![QueueWindow { occupancy: 3, ..Default::default() }],
                },
                Interval {
                    start: 101,
                    end: 150,
                    threads: vec![crate::ClassCycles { queue_empty: 50, ..Default::default() }],
                    queues: vec![QueueWindow { occupancy: 0, ..Default::default() }],
                },
            ],
        };
        let r = timeline_table(&t);
        assert!(r.contains("2 interval(s) of 100 cycles over 150 cycles"), "{r}");
        assert!(r.contains("1..100"), "{r}");
        assert!(r.contains("queue-empty"), "{r}");
        assert_eq!(r.lines().count(), 4, "{r}");
    }
}
