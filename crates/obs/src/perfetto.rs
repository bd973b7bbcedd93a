//! Chrome `trace_event` JSON export, loadable in `ui.perfetto.dev` (or
//! `chrome://tracing`).
//!
//! Layout:
//! * **pid 1 — "twill compiler (wall clock)"**: one `X` complete event per
//!   compiler stage span, timestamps in microseconds since the process
//!   observability epoch.
//! * **pid 2 — "twill simulator (cycles)"**: one slice track per simulated
//!   agent (`B`/`E` pairs from op start/retire/cancel, instants for
//!   stalls, context switches and output), plus one `C` counter track per
//!   queue tracking occupancy.
//!
//! Compiler spans and simulator events use different time units, so they
//! live in different process groups rather than pretending nanoseconds
//! and cycles share an axis. Dropped-event counts and caller metadata go
//! in `otherData`.

use crate::event::{Event, EventKind, QueueName};
use crate::json;
use crate::span::Span;
use crate::timeseries::Timeline;
use std::fmt::Write as _;

const COMPILER_PID: u32 = 1;
const SIM_PID: u32 = 2;

/// Assembles a Chrome/Perfetto trace from plain data. No simulator types
/// appear here, so the exporter is trivially testable (and reusable for
/// traces that never came from a live run).
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    thread_names: Vec<String>,
    queue_names: Vec<String>,
    events: Vec<Event>,
    dropped: u64,
    spans: Vec<Span>,
    metadata: Vec<(String, String)>,
    timeline: Option<Timeline>,
}

impl TraceBuilder {
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Name the simulator tracks, in track-index order (`cpu`, `hw1`, …).
    /// Tracks that appear in events but not here fall back to `t<N>`.
    pub fn threads<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.thread_names = names.into_iter().map(Into::into).collect();
        self
    }

    /// Name the queue counter tracks, in queue-index order.
    pub fn queues<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.queue_names = names.into_iter().map(Into::into).collect();
        self
    }

    /// Supply the simulator events plus how many the ring buffer dropped.
    pub fn events(mut self, events: Vec<Event>, dropped: u64) -> Self {
        self.events = events;
        self.dropped = dropped;
        self
    }

    /// Supply compiler-side wall-clock spans.
    pub fn spans(mut self, spans: Vec<Span>) -> Self {
        self.spans = spans;
        self
    }

    /// Attach a key/value pair to `otherData`.
    pub fn meta(mut self, key: &str, value: &str) -> Self {
        self.metadata.push((key.to_string(), value.to_string()));
        self
    }

    /// Attach a sampled counter timeline: emits real timestamped `C`
    /// counter tracks — one per (thread, stall class) with any activity,
    /// plus a sampled-occupancy track per queue — so Perfetto plots how
    /// stalls and queue levels evolve over the run instead of a single
    /// end-of-run total.
    pub fn timeline(mut self, t: Timeline) -> Self {
        self.timeline = Some(t);
        self
    }

    fn thread_name(&self, track: u16) -> String {
        self.thread_names.get(track as usize).cloned().unwrap_or_else(|| format!("t{track}"))
    }

    fn queue_name(&self, queue: u16) -> String {
        self.queue_names
            .get(queue as usize)
            .cloned()
            .unwrap_or_else(|| QueueName(queue as usize).to_string())
    }

    /// Render the trace as a JSON document.
    pub fn build(&self) -> String {
        let mut ev = Vec::new();

        if !self.spans.is_empty() {
            ev.push(meta_event("process_name", COMPILER_PID, 0, "twill compiler (wall clock)"));
            ev.push(meta_event("thread_name", COMPILER_PID, 0, "build stages"));
            for s in &self.spans {
                // Complete events; timestamps are microseconds.
                ev.push(format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": {COMPILER_PID}, \"tid\": 0, \
                     \"ts\": {}, \"dur\": {}, \"cat\": \"compile\"}}",
                    json::quote(&s.name),
                    json::number(s.start_ns as f64 / 1000.0),
                    json::number((s.dur_ns.max(1)) as f64 / 1000.0),
                ));
            }
        }

        if !self.events.is_empty() || !self.thread_names.is_empty() {
            ev.push(meta_event("process_name", SIM_PID, 0, "twill simulator (cycles)"));
            let mut named: Vec<u16> = (0..self.thread_names.len() as u16).collect();
            for e in &self.events {
                if !named.contains(&e.track) {
                    named.push(e.track);
                }
            }
            named.sort_unstable();
            for track in named {
                ev.push(meta_event("thread_name", SIM_PID, track, &self.thread_name(track)));
            }
        }

        // Per-track open-slice depth, so an `E` whose `B` was lost to ring
        // truncation is skipped instead of corrupting the track.
        let max_track = self.events.iter().map(|e| e.track as usize + 1).max().unwrap_or(0);
        let mut depth = vec![0u32; max_track];

        for e in &self.events {
            let tid = e.track;
            match e.kind {
                EventKind::OpStart { op } => {
                    depth[tid as usize] += 1;
                    ev.push(format!(
                        "{{\"name\": {}, \"ph\": \"B\", \"pid\": {SIM_PID}, \"tid\": {tid}, \
                         \"ts\": {}, \"cat\": \"op\"}}",
                        json::quote(op.name()),
                        e.cycle,
                    ));
                }
                EventKind::OpRetire { op } | EventKind::OpCancel { op } => {
                    if depth[tid as usize] == 0 {
                        continue; // opening edge was dropped
                    }
                    depth[tid as usize] -= 1;
                    let cancelled = matches!(e.kind, EventKind::OpCancel { .. });
                    ev.push(format!(
                        "{{\"name\": {}, \"ph\": \"E\", \"pid\": {SIM_PID}, \"tid\": {tid}, \
                         \"ts\": {}, \"cat\": \"op\", \"args\": {{\"cancelled\": {cancelled}}}}}",
                        json::quote(op.name()),
                        e.cycle,
                    ));
                }
                EventKind::QueuePush { queue, occupancy }
                | EventKind::QueuePop { queue, occupancy } => {
                    ev.push(format!(
                        "{{\"name\": {}, \"ph\": \"C\", \"pid\": {SIM_PID}, \"tid\": {tid}, \
                         \"ts\": {}, \"args\": {{\"occupancy\": {occupancy}}}}}",
                        json::quote(&format!("{} occupancy", self.queue_name(queue))),
                        e.cycle,
                    ));
                }
                EventKind::QueueStall { queue, full } => {
                    ev.push(instant(
                        &format!(
                            "stall: {} {}",
                            self.queue_name(queue),
                            if full { "full" } else { "empty" }
                        ),
                        tid,
                        e.cycle,
                    ));
                }
                EventKind::SemWait { sem } => {
                    ev.push(instant(&format!("wait: sem{sem}"), tid, e.cycle));
                }
                EventKind::SemSignal { sem, value } => {
                    ev.push(format!(
                        "{{\"name\": {}, \"ph\": \"C\", \"pid\": {SIM_PID}, \"tid\": {tid}, \
                         \"ts\": {}, \"args\": {{\"value\": {value}}}}}",
                        json::quote(&format!("sem{sem}")),
                        e.cycle,
                    ));
                }
                EventKind::ContextSwitch { to } => {
                    ev.push(instant(&format!("switch to sw-thread {to}"), tid, e.cycle));
                }
                EventKind::Output { value } => {
                    ev.push(instant(&format!("out {value}"), tid, e.cycle));
                }
                EventKind::Fault { fault, unit } => {
                    ev.push(instant(&format!("fault: {} unit={unit}", fault.name()), tid, e.cycle));
                }
            }
        }

        if let Some(t) = &self.timeline {
            // One counter track per (thread, stall class) that ever moved;
            // all-zero tracks are skipped so the UI stays readable. The
            // timestamp is the closing cycle of each sample window.
            let totals = t.thread_totals();
            for (ti, name) in t.thread_names.iter().enumerate() {
                for class in crate::StallClass::ALL {
                    if totals.get(ti).map(|b| b[class]).unwrap_or(0) == 0 {
                        continue;
                    }
                    for iv in &t.intervals {
                        ev.push(format!(
                            "{{\"name\": {}, \"ph\": \"C\", \"pid\": {SIM_PID}, \"tid\": {ti}, \
                             \"ts\": {}, \"args\": {{\"cycles\": {}}}}}",
                            json::quote(&format!("{name}:{class}")),
                            iv.end,
                            iv.threads[ti][class],
                        ));
                    }
                }
            }
            // Sampled occupancy levels per queue — named distinctly from
            // the event-driven `{q} occupancy` push/pop counters so the
            // two sources never interleave on one track.
            for (qi, qname) in t.queue_names.iter().enumerate() {
                for iv in &t.intervals {
                    ev.push(format!(
                        "{{\"name\": {}, \"ph\": \"C\", \"pid\": {SIM_PID}, \"tid\": 0, \
                         \"ts\": {}, \"args\": {{\"occupancy\": {}}}}}",
                        json::quote(&format!("{qname} occupancy (sampled)")),
                        iv.end,
                        iv.queues[qi].occupancy,
                    ));
                }
            }
        }

        let mut out = String::new();
        out.push_str("{\n  \"traceEvents\": [\n");
        for (i, line) in ev.iter().enumerate() {
            let _ = write!(out, "    {line}");
            out.push_str(if i + 1 < ev.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"displayTimeUnit\": \"ns\",\n  \"otherData\": {\n");
        let _ = write!(out, "    \"dropped_events\": \"{}\"", self.dropped);
        for (k, v) in &self.metadata {
            let _ = write!(out, ",\n    {}: {}", json::quote(k), json::quote(v));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn meta_event(name: &str, pid: u32, tid: u16, value: &str) -> String {
    format!(
        "{{\"name\": \"{name}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
         \"args\": {{\"name\": {}}}}}",
        json::quote(value)
    )
}

fn instant(name: &str, tid: u16, cycle: u64) -> String {
    format!(
        "{{\"name\": {}, \"ph\": \"i\", \"pid\": {SIM_PID}, \"tid\": {tid}, \
         \"ts\": {cycle}, \"s\": \"t\"}}",
        json::quote(name)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpClass;
    use crate::json::parse;

    fn ev(cycle: u64, track: u16, kind: EventKind) -> Event {
        Event { cycle, track, kind }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            ev(1, 0, EventKind::OpStart { op: OpClass::Enqueue }),
            ev(1, 1, EventKind::OpStart { op: OpClass::Dequeue }),
            ev(2, 1, EventKind::QueueStall { queue: 0, full: false }),
            ev(4, 0, EventKind::QueuePush { queue: 0, occupancy: 1 }),
            ev(4, 0, EventKind::OpRetire { op: OpClass::Enqueue }),
            ev(5, 1, EventKind::QueuePop { queue: 0, occupancy: 0 }),
            ev(5, 1, EventKind::OpRetire { op: OpClass::Dequeue }),
            ev(6, 0, EventKind::ContextSwitch { to: 1 }),
            ev(7, 1, EventKind::Output { value: 42 }),
        ]
    }

    #[test]
    fn export_parses_and_has_expected_shape() {
        let out = TraceBuilder::new()
            .threads(["cpu", "hw1"])
            .queues(["q0"])
            .events(sample_events(), 0)
            .meta("benchmark", "mips")
            .build();
        let doc = parse(&out).expect("trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

        let count =
            |ph: &str| events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some(ph)).count();
        assert_eq!(count("B"), 2);
        assert_eq!(count("E"), 2);
        assert_eq!(count("C"), 2, "one counter sample per push/pop");
        assert_eq!(count("i"), 3, "stall + switch + output instants");
        // process_name + two thread_name metadata records.
        assert_eq!(count("M"), 3);

        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"cpu"));
        assert!(names.contains(&"hw1"));
        assert!(names.contains(&"twill simulator (cycles)"));

        assert_eq!(doc.get("otherData").unwrap().get("benchmark").unwrap().as_str(), Some("mips"));
    }

    #[test]
    fn spans_go_to_the_compiler_process() {
        let out = TraceBuilder::new()
            .spans(vec![
                Span { name: "frontend".into(), start_ns: 10_000, dur_ns: 5_000 },
                Span { name: "dswp".into(), start_ns: 20_000, dur_ns: 1_000 },
            ])
            .build();
        let doc = parse(&out).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let xs: Vec<_> =
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("X")).collect();
        assert_eq!(xs.len(), 2);
        for x in &xs {
            assert_eq!(x.get("pid").unwrap().as_u64(), Some(COMPILER_PID as u64));
        }
        assert_eq!(xs[0].get("ts").unwrap().as_f64(), Some(10.0), "ns -> us");
    }

    #[test]
    fn orphan_end_events_are_skipped() {
        // Ring truncation can lose an OpStart; its retire must not emit an
        // unmatched E.
        let out = TraceBuilder::new()
            .events(
                vec![
                    ev(3, 0, EventKind::OpRetire { op: OpClass::Dequeue }),
                    ev(4, 0, EventKind::OpStart { op: OpClass::Out }),
                    ev(5, 0, EventKind::OpCancel { op: OpClass::Out }),
                ],
                12,
            )
            .build();
        let doc = parse(&out).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let count =
            |ph: &str| events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some(ph)).count();
        assert_eq!(count("B"), 1);
        assert_eq!(count("E"), 1, "only the cancel that closes a live slice");
        assert_eq!(
            doc.get("otherData").unwrap().get("dropped_events").unwrap().as_str(),
            Some("12")
        );
    }

    #[test]
    fn empty_builder_still_produces_valid_json() {
        let doc = parse(&TraceBuilder::new().build()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn timeline_becomes_timestamped_counter_tracks() {
        use crate::timeseries::{Interval, QueueWindow, Timeline};
        let bd = |busy, qf| crate::ClassCycles { busy, queue_full: qf, ..Default::default() };
        let t = Timeline {
            sample_interval: 100,
            thread_names: vec!["cpu".into(), "hw1".into()],
            queue_names: vec!["q0".into()],
            intervals: vec![
                Interval {
                    start: 1,
                    end: 100,
                    threads: vec![bd(90, 10), bd(100, 0)],
                    queues: vec![QueueWindow { occupancy: 2, ..Default::default() }],
                },
                Interval {
                    start: 101,
                    end: 130,
                    threads: vec![bd(30, 0), bd(30, 0)],
                    queues: vec![QueueWindow { occupancy: 0, ..Default::default() }],
                },
            ],
        };
        let out = TraceBuilder::new().threads(["cpu", "hw1"]).queues(["q0"]).timeline(t).build();
        let doc = parse(&out).expect("trace with timeline must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> =
            events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("C")).collect();
        let named = |n: &str| {
            counters.iter().filter(|e| e.get("name").unwrap().as_str() == Some(n)).count()
        };
        // Active (thread, class) tracks get one sample per interval; the
        // all-zero tracks (e.g. hw1:queue-full) are skipped entirely.
        assert_eq!(named("cpu:busy"), 2);
        assert_eq!(named("cpu:queue-full"), 2);
        assert_eq!(named("hw1:busy"), 2);
        assert_eq!(named("hw1:queue-full"), 0);
        assert_eq!(named("q0 occupancy (sampled)"), 2);
        // Timestamps are the interval end cycles.
        let ts: Vec<u64> = counters
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("cpu:busy"))
            .map(|e| e.get("ts").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(ts, vec![100, 130]);
    }
}
