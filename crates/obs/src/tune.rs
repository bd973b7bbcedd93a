//! Typed artifacts of the profile-guided auto-tuner (`twill-tune`).
//!
//! The tuner (in the `twill` core crate) searches DSWP split points and
//! per-queue depths to minimize hybrid cycles. This module owns what the
//! search *leaves behind*: every evaluated configuration is a
//! [`TrialRecord`] naming the observability signal that proposed it (a
//! saturated queue's high-water mark, a starved or overloaded critical
//! thread) and the C line that charged the most cycles to the triggering
//! stall class; the whole search renders as a Perfetto trace (one track
//! per search arm, a counter track for best-so-far cycles); and the final
//! [`TuningReport`] proves the win through the [`crate::diff`] engine, so
//! its stall-class deltas reconcile exactly with the cycle delta.
//!
//! Determinism contract: nothing here reads a clock or any other ambient
//! state. The report is a pure function of the trials, so the same
//! profile and seed produce byte-identical JSON and trace documents
//! (DESIGN.md §13).

use crate::diff::MetricsDiff;
use crate::event::QueueName;
use crate::json::{self, Json, ToJson};
use crate::stall::ClassCycles;
use std::fmt::Write as _;

/// The observability signal that proposed a search move. Every trial
/// carries one, so a report reader can always answer "why did the tuner
/// try this?" with a measured quantity, not a heuristic's say-so.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSignal {
    /// Signal class: `queue-full-saturated`, `queue-empty-starved`,
    /// `critical-thread-busy`, `critical-thread-starved`, `baseline`.
    pub kind: String,
    /// Human sentence quoting the measurement, e.g. "q2 high-water 8/8
    /// with 14.2k full-stalls".
    pub detail: String,
    /// Queue the signal reads, when queue-shaped.
    pub queue: Option<usize>,
    /// Thread the signal reads, when thread-shaped (`cpu`, `hw1`, …).
    pub thread: Option<String>,
    /// Source file of the charging line (empty when unattributed).
    pub file: String,
    /// 1-based C line charging the most cycles to `stall_class`
    /// (0 = no line-granular attribution available).
    pub line: u32,
    /// Stall class the signal is about (`queue-full`, `queue-empty`, …).
    pub stall_class: String,
    /// Percentage of the source thread's stall cycles charged to
    /// (`line`, `stall_class`) — the "61% of stalls" in the report hint.
    pub charge_pct: f64,
}

impl ObsSignal {
    /// The synthetic signal attached to the baseline trial.
    pub fn baseline() -> ObsSignal {
        ObsSignal {
            kind: "baseline".into(),
            detail: "paper-default configuration".into(),
            queue: None,
            thread: None,
            file: String::new(),
            line: 0,
            stall_class: String::new(),
            charge_pct: 0.0,
        }
    }

    /// One-line provenance: `"line 41 of jpeg.c charged 61% of stalls to
    /// queue-full"` (or just the detail when no line was attributed).
    pub fn provenance(&self) -> String {
        if self.line > 0 {
            format!(
                "{}; line {} of {} charged {:.0}% of stalls to {}",
                self.detail, self.line, self.file, self.charge_pct, self.stall_class
            )
        } else {
            self.detail.clone()
        }
    }
}

crate::json_object!(ObsSignal {
    kind, detail, queue, thread, file, line, stall_class, charge_pct
} write-only);

/// One evaluated configuration: what was tried, why, and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// 0-based evaluation order (trial 0 is the baseline run).
    pub id: usize,
    /// Search round the trial belongs to.
    pub round: usize,
    /// Search arm: `baseline`, `queue-depth`, or `split-point`.
    pub arm: String,
    /// Human description of the move, e.g. `"q2 depth 8\u{2192}32"` or
    /// `"sw_fraction 0.25\u{2192}0.15"`.
    pub action: String,
    /// The observability signal that proposed this move.
    pub signal: ObsSignal,
    /// Hybrid cycles under the trial configuration.
    pub cycles: u64,
    /// Best (lowest) cycles seen before this trial was evaluated.
    pub best_before: u64,
    /// Whether the search adopted this configuration.
    pub accepted: bool,
    /// Critical-thread stall-class breakdown of the trial run.
    pub stalls: ClassCycles,
}

crate::json_object!(TrialRecord {
    id, round, arm, action, signal, cycles, best_before, accepted, stalls
} write-only);

/// The configuration the search settled on, in plain replayable terms
/// (`twillc --sw-fraction … --queue-depths …`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TunedConfig {
    /// Total partition count, when a partition-merge move was accepted
    /// (None = paper default).
    pub partitions: Option<usize>,
    /// Software-partition work fraction, when a split-point move was
    /// accepted (None = paper default).
    pub sw_fraction: Option<f64>,
    /// Accepted per-queue depth overrides, ascending by queue id.
    pub queue_depths: Vec<(usize, u32)>,
}

impl TunedConfig {
    pub fn is_default(&self) -> bool {
        self.partitions.is_none() && self.sw_fraction.is_none() && self.queue_depths.is_empty()
    }

    /// The equivalent `twillc` flags, e.g.
    /// `--partitions 2 --sw-fraction 0.15 --queue-depths q2=32,q5=16`.
    pub fn as_flags(&self) -> String {
        let mut parts = Vec::new();
        if let Some(p) = self.partitions {
            parts.push(format!("--partitions {p}"));
        }
        if let Some(f) = self.sw_fraction {
            parts.push(format!("--sw-fraction {f}"));
        }
        if !self.queue_depths.is_empty() {
            let list: Vec<String> =
                self.queue_depths.iter().map(|(q, d)| format!("{}={d}", QueueName(*q))).collect();
            parts.push(format!("--queue-depths {}", list.join(",")));
        }
        if parts.is_empty() {
            "(paper default)".into()
        } else {
            parts.join(" ")
        }
    }
}

impl ToJson for TunedConfig {
    fn to_tree(&self) -> Json {
        let depth =
            |&(q, d): &(usize, u32)| Json::obj([("queue", Json::from(q)), ("depth", d.into())]);
        Json::obj([
            ("partitions", self.partitions.to_tree()),
            ("sw_fraction", self.sw_fraction.to_tree()),
            ("queue_depths", Json::arr(self.queue_depths.iter().map(depth))),
        ])
    }
}

/// The complete, self-proving record of one tuning search.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningReport {
    /// Program/benchmark name.
    pub bench: String,
    /// Search seed (same profile + seed ⇒ byte-identical report).
    pub seed: u64,
    /// Search rounds executed (a round proposes and evaluates a batch).
    pub rounds: usize,
    /// Hybrid cycles under the paper-default configuration.
    pub baseline_cycles: u64,
    /// Hybrid cycles under the accepted configuration (== baseline when
    /// no move improved).
    pub tuned_cycles: u64,
    /// Every evaluated configuration, in evaluation order.
    pub trials: Vec<TrialRecord>,
    /// The accepted configuration.
    pub tuned: TunedConfig,
    /// Diff-engine proof: baseline metrics → tuned metrics. Its
    /// attribution deltas sum exactly to `tuned_cycles - baseline_cycles`
    /// (or carry one structural entry when the partitioning changed).
    pub diff: MetricsDiff,
    /// One line per accepted move: the obs signal and C line behind it.
    pub hints: Vec<String>,
}

impl TuningReport {
    /// `baseline / tuned` — 1.0 when nothing improved.
    pub fn speedup(&self) -> f64 {
        if self.tuned_cycles == 0 {
            1.0
        } else {
            self.baseline_cycles as f64 / self.tuned_cycles as f64
        }
    }

    /// Accepted trials, in evaluation order.
    pub fn accepted(&self) -> impl Iterator<Item = &TrialRecord> {
        self.trials.iter().filter(|t| t.accepted)
    }

    /// Human summary: headline, accepted moves with provenance, proof.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tune {}: {} \u{2192} {} cycles ({:.2}x, {} trial(s), {} round(s), seed {})",
            self.bench,
            self.baseline_cycles,
            self.tuned_cycles,
            self.speedup(),
            self.trials.len(),
            self.rounds,
            self.seed,
        );
        let _ = writeln!(out, "tuned config: {}", self.tuned.as_flags());
        let moves: Vec<&TrialRecord> = self.accepted().filter(|t| t.arm != "baseline").collect();
        for t in &moves {
            let _ = writeln!(
                out,
                "  accepted [{}] {}: {} cycles (best was {})\n    because {}",
                t.arm,
                t.action,
                t.cycles,
                t.best_before,
                t.signal.provenance()
            );
        }
        if moves.is_empty() {
            let _ = writeln!(out, "  no move beat the default; keeping the paper configuration");
        }
        out.push_str(&self.diff.render_text(&format!("{} tuned vs default", self.bench)));
        out
    }

    /// Export the search itself as a Chrome/Perfetto `trace_event`
    /// document: one slice track per search arm (each trial an `X` event
    /// on its arm's track, timeline = trial evaluation order), a counter
    /// track following best-so-far cycles, and an instant per accepted
    /// move. Like the [`ToJson`] document, byte-deterministic.
    pub fn search_trace(&self) -> String {
        const TUNE_PID: u32 = 3;
        let mut arms: Vec<&str> = Vec::new();
        for t in &self.trials {
            if !arms.contains(&t.arm.as_str()) {
                arms.push(&t.arm);
            }
        }
        let mut ev = Vec::new();
        ev.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {TUNE_PID}, \"tid\": 0, \
             \"args\": {{\"name\": {}}}}}",
            json::quote(&format!("twill tuner (search, {})", self.bench))
        ));
        for (tid, arm) in arms.iter().enumerate() {
            ev.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {TUNE_PID}, \
                 \"tid\": {tid}, \"args\": {{\"name\": {}}}}}",
                json::quote(&format!("arm: {arm}"))
            ));
        }
        let mut best = u64::MAX;
        for t in &self.trials {
            let tid = arms.iter().position(|a| *a == t.arm).unwrap_or(0);
            ev.push(format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": {TUNE_PID}, \"tid\": {tid}, \
                 \"ts\": {}, \"dur\": 1, \"cat\": \"trial\", \"args\": {{\"cycles\": {}, \
                 \"accepted\": {}, \"signal\": {}, \"round\": {}}}}}",
                json::quote(&t.action),
                t.id,
                t.cycles,
                t.accepted,
                json::quote(&t.signal.kind),
                t.round,
            ));
            if t.accepted {
                ev.push(format!(
                    "{{\"name\": {}, \"ph\": \"i\", \"pid\": {TUNE_PID}, \"tid\": {tid}, \
                     \"ts\": {}, \"s\": \"p\"}}",
                    json::quote(&format!("accepted: {}", t.action)),
                    t.id,
                ));
            }
            best = best.min(t.cycles);
            ev.push(format!(
                "{{\"name\": \"best-so-far cycles\", \"ph\": \"C\", \"pid\": {TUNE_PID}, \
                 \"tid\": 0, \"ts\": {}, \"args\": {{\"cycles\": {best}}}}}",
                t.id,
            ));
        }
        let mut out = String::new();
        out.push_str("{\n  \"traceEvents\": [\n");
        for (i, line) in ev.iter().enumerate() {
            let _ = write!(out, "    {line}");
            out.push_str(if i + 1 < ev.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"displayTimeUnit\": \"ns\",\n  \"otherData\": {\n");
        let _ = writeln!(out, "    \"bench\": {},", json::quote(&self.bench));
        let _ = writeln!(out, "    \"seed\": \"{}\",", self.seed);
        let _ = writeln!(out, "    \"baseline_cycles\": \"{}\",", self.baseline_cycles);
        let _ = writeln!(out, "    \"tuned_cycles\": \"{}\"", self.tuned_cycles);
        out.push_str("  }\n}\n");
        out
    }
}

impl ToJson for TuningReport {
    /// Contains no timestamps or ambient state: same trials, same bytes.
    /// The diff-engine proof nests as a sub-document.
    fn to_tree(&self) -> Json {
        Json::obj([
            ("bench", Json::from(&self.bench)),
            ("seed", self.seed.into()),
            ("rounds", self.rounds.into()),
            ("baseline_cycles", self.baseline_cycles.into()),
            ("tuned_cycles", self.tuned_cycles.into()),
            ("speedup", self.speedup().into()),
            ("tuned", self.tuned.to_tree()),
            ("tuned_flags", self.tuned.as_flags().as_str().into()),
            ("hints", Json::arr(&self.hints)),
            ("trials", self.trials.to_tree()),
            ("diff", self.diff.to_tree(&format!("{} tuned vs default", self.bench))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff;
    use crate::metrics::{QueueMetrics, SimMetrics, ThreadMetrics};

    fn metrics(cycles: u64, busy: u64, full: u64) -> SimMetrics {
        SimMetrics {
            cycles,
            threads: vec![ThreadMetrics {
                name: "hw1".into(),
                cycles: ClassCycles {
                    busy,
                    queue_full: full,
                    idle: cycles - busy - full,
                    ..Default::default()
                },
            }],
            queues: vec![QueueMetrics {
                name: "q0".into(),
                depth: 8,
                high_water: 8,
                full_stalls: full,
                ..Default::default()
            }],
            dropped_events: 0,
            faults: Default::default(),
        }
    }

    fn report() -> TuningReport {
        let base = metrics(1000, 600, 300);
        let tuned = metrics(800, 600, 100);
        let signal = ObsSignal {
            kind: "queue-full-saturated".into(),
            detail: "q0 high-water 8/8 with 300 full-stalls".into(),
            queue: Some(0),
            thread: Some("hw1".into()),
            file: "jpeg.c".into(),
            line: 41,
            stall_class: "queue-full".into(),
            charge_pct: 61.0,
        };
        let trials = vec![
            TrialRecord {
                id: 0,
                round: 0,
                arm: "baseline".into(),
                action: "paper default".into(),
                signal: ObsSignal::baseline(),
                cycles: 1000,
                best_before: u64::MAX,
                accepted: true,
                stalls: ClassCycles { busy: 600, queue_full: 300, idle: 100, ..Default::default() },
            },
            TrialRecord {
                id: 1,
                round: 1,
                arm: "queue-depth".into(),
                action: "q0 depth 8\u{2192}32".into(),
                signal: signal.clone(),
                cycles: 800,
                best_before: 1000,
                accepted: true,
                stalls: ClassCycles { busy: 600, queue_full: 100, idle: 100, ..Default::default() },
            },
        ];
        TuningReport {
            bench: "jpeg".into(),
            seed: 7,
            rounds: 1,
            baseline_cycles: 1000,
            tuned_cycles: 800,
            trials,
            tuned: TunedConfig { partitions: None, sw_fraction: None, queue_depths: vec![(0, 32)] },
            diff: diff(&base, &tuned),
            hints: vec!["depth of q0 raised 8\u{2192}32 because line 41 of jpeg.c charged 61% of \
                 stalls to queue-full"
                .into()],
        }
    }

    #[test]
    fn json_is_valid_and_carries_the_story() {
        let r = report();
        let doc = json::parse(&r.to_json()).expect("tuning report JSON parses");
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("jpeg"));
        assert_eq!(doc.get("baseline_cycles").unwrap().as_u64(), Some(1000));
        assert_eq!(doc.get("tuned_cycles").unwrap().as_u64(), Some(800));
        let trials = doc.get("trials").unwrap().as_arr().unwrap();
        assert_eq!(trials.len(), 2);
        let t1 = &trials[1];
        assert_eq!(t1.get("arm").unwrap().as_str(), Some("queue-depth"));
        assert_eq!(t1.get("signal").unwrap().get("line").unwrap().as_u64(), Some(41));
        // The embedded diff parses as part of the same document.
        assert_eq!(doc.get("diff").unwrap().get("cycle_delta").unwrap().as_f64(), Some(-200.0));
    }

    #[test]
    fn diff_proof_reconciles_exactly() {
        let r = report();
        let total: i64 = r.diff.attribution.iter().map(|c| c.delta).sum();
        assert_eq!(total, r.tuned_cycles as i64 - r.baseline_cycles as i64);
    }

    #[test]
    fn report_is_byte_deterministic() {
        let (a, b) = (report(), report());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.search_trace(), b.search_trace());
    }

    #[test]
    fn search_trace_has_arm_tracks_and_counter() {
        let r = report();
        let doc = json::parse(&r.search_trace()).expect("search trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let count =
            |ph: &str| events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some(ph)).count();
        assert_eq!(count("X"), 2, "one slice per trial");
        assert_eq!(count("C"), 2, "best-so-far sample per trial");
        assert_eq!(count("i"), 2, "accepted-move instants");
        // Arm tracks named after the arms.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"arm: baseline"), "{names:?}");
        assert!(names.contains(&"arm: queue-depth"), "{names:?}");
    }

    #[test]
    fn render_text_names_signal_and_line() {
        let t = report().render_text();
        assert!(t.contains("1000 \u{2192} 800 cycles"), "{t}");
        assert!(t.contains("q0 depth 8\u{2192}32"), "{t}");
        assert!(t.contains("line 41 of jpeg.c"), "{t}");
        assert!(t.contains("61% of stalls"), "{t}");
    }

    #[test]
    fn tuned_config_flags_round_trip_shape() {
        let c = TunedConfig {
            partitions: None,
            sw_fraction: Some(0.15),
            queue_depths: vec![(2, 32), (5, 16)],
        };
        assert_eq!(c.as_flags(), "--sw-fraction 0.15 --queue-depths q2=32,q5=16");
        let p = TunedConfig { partitions: Some(2), sw_fraction: None, queue_depths: vec![] };
        assert_eq!(p.as_flags(), "--partitions 2");
        assert!(TunedConfig::default().is_default());
        assert_eq!(TunedConfig::default().as_flags(), "(paper default)");
    }
}
