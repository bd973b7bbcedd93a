//! The on-disk performance baseline (`BENCH_baseline.json` at the repo
//! root): a versioned JSON record of every CHStone benchmark × mode
//! (sw/hw/hybrid) simulation — cycle count, full stall-class breakdown and
//! queue statistics ([`SimMetrics`]) — plus per-benchmark wall-clock
//! compile-stage timings, with environment metadata and a schema version.
//!
//! The file is the single source of truth for perf regression tracking:
//! `twill-bench baseline` (re)records it, `twill-bench compare` and the
//! CI perf gate diff fresh runs against it with [`crate::diff`], and the
//! golden-cycle test in `twill-rt` reads its expected counts from it.
//! Simulated cycle data is deterministic (bit-equal across re-records on
//! any machine); the wall-clock stage timings are environment-dependent
//! and only ever compared under a generous noise band.

use crate::json::{self, Json};
use crate::metrics::SimMetrics;

/// Current schema version. Bump when the file layout changes; [`parse`]
/// rejects versions it does not understand instead of misreading them.
pub const SCHEMA_VERSION: u64 = 1;

/// The three simulated configurations of the paper's evaluation.
pub const MODES: [&str; 3] = ["sw", "hw", "hybrid"];

/// One benchmark × mode measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    pub bench: String,
    /// `sw`, `hw`, or `hybrid`.
    pub mode: String,
    /// Workload scale the cycles were recorded at.
    pub scale: u32,
    pub metrics: SimMetrics,
}

impl BaselineEntry {
    pub fn cycles(&self) -> u64 {
        self.metrics.cycles
    }
}

/// One benchmark's wall-clock compile-stage record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTimings {
    pub bench: String,
    /// `(stage name, wall-clock ns)` per stage *execution*, in completion
    /// order (cache hits record nothing).
    pub spans: Vec<(String, u64)>,
    /// Stage executions / memoization-cache hits (`StageCounts` totals).
    pub runs: u64,
    pub hits: u64,
}

impl StageTimings {
    /// Total wall-clock across all stage executions.
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().map(|(_, ns)| ns).sum()
    }
}

/// The whole baseline document.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    pub schema_version: u64,
    /// Free-form `(key, value)` environment metadata (os, arch, …).
    pub env: Vec<(String, String)>,
    pub entries: Vec<BaselineEntry>,
    pub stages: Vec<StageTimings>,
}

impl Default for Baseline {
    fn default() -> Self {
        Baseline {
            schema_version: SCHEMA_VERSION,
            env: Vec::new(),
            entries: Vec::new(),
            stages: Vec::new(),
        }
    }
}

fn indent_block(s: &str, pad: usize) -> String {
    let prefix = " ".repeat(pad);
    let mut out = String::with_capacity(s.len());
    for (i, line) in s.trim_end().lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        if !line.is_empty() {
            out.push_str(&prefix);
        }
        out.push_str(line);
    }
    out
}

impl Baseline {
    /// Look up one benchmark × mode entry.
    pub fn find(&self, bench: &str, mode: &str) -> Option<&BaselineEntry> {
        self.entries.iter().find(|e| e.bench == bench && e.mode == mode)
    }

    pub fn find_stages(&self, bench: &str) -> Option<&StageTimings> {
        self.stages.iter().find(|s| s.bench == bench)
    }

    /// Serialize the document (parse it back with [`parse`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        out.push_str("  \"env\": {");
        for (i, (k, v)) in self.env.iter().enumerate() {
            let sep = if i + 1 < self.env.len() { ", " } else { "" };
            let _ = write!(out, "{}: {}{sep}", json::quote(k), json::quote(v));
        }
        out.push_str("},\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"bench\": {}, \"mode\": {}, \"scale\": {},",
                json::quote(&e.bench),
                json::quote(&e.mode),
                e.scale
            );
            let _ = write!(out, "     \"metrics\": {}}}", indent_block(&e.metrics.to_json(), 5));
            out.push_str(if i + 1 < self.entries.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"bench\": {}, \"runs\": {}, \"hits\": {}, \"spans\": [",
                json::quote(&s.bench),
                s.runs,
                s.hits
            );
            for (j, (name, ns)) in s.spans.iter().enumerate() {
                let sep = if j + 1 < s.spans.len() { ", " } else { "" };
                let _ = write!(out, "{{\"name\": {}, \"dur_ns\": {ns}}}{sep}", json::quote(name));
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.stages.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Read and parse a baseline file.
    pub fn load(path: &std::path::Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Parse a baseline document. Unknown schema versions are an error: a
/// newer tool wrote the file and silently misreading it would corrupt
/// every downstream comparison.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let doc = json::parse(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("baseline: missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "baseline: unknown schema version {version} (this tool understands {SCHEMA_VERSION}); \
             re-record with `twill-bench baseline`"
        ));
    }
    let mut b = Baseline { schema_version: version, ..Default::default() };
    if let Some(Json::Obj(fields)) = doc.get("env") {
        for (k, v) in fields {
            b.env
                .push((k.clone(), v.as_str().ok_or("baseline: non-string env value")?.to_string()));
        }
    }
    for e in doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]) {
        let field = |key: &str| -> Result<String, String> {
            e.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline entry: missing {key:?}"))
        };
        b.entries.push(BaselineEntry {
            bench: field("bench")?,
            mode: field("mode")?,
            scale: e.get("scale").and_then(Json::as_u64).ok_or("baseline entry: missing scale")?
                as u32,
            metrics: SimMetrics::from_json(
                e.get("metrics").ok_or("baseline entry: missing metrics")?,
            )?,
        });
    }
    for s in doc.get("stages").and_then(Json::as_arr).unwrap_or(&[]) {
        let mut spans = Vec::new();
        for sp in s.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            spans.push((
                sp.get("name")
                    .and_then(Json::as_str)
                    .ok_or("baseline stage span: missing name")?
                    .to_string(),
                sp.get("dur_ns")
                    .and_then(Json::as_u64)
                    .ok_or("baseline stage span: missing dur_ns")?,
            ));
        }
        b.stages.push(StageTimings {
            bench: s
                .get("bench")
                .and_then(Json::as_str)
                .ok_or("baseline stage: missing bench")?
                .to_string(),
            spans,
            runs: s.get("runs").and_then(Json::as_u64).unwrap_or(0),
            hits: s.get("hits").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FaultMetrics, QueueMetrics, ThreadMetrics};

    fn sample() -> Baseline {
        Baseline {
            schema_version: SCHEMA_VERSION,
            env: vec![("os".into(), "linux".into()), ("arch".into(), "x86_64".into())],
            entries: vec![BaselineEntry {
                bench: "aes".into(),
                mode: "hybrid".into(),
                scale: 1,
                metrics: SimMetrics {
                    cycles: 1736,
                    threads: vec![ThreadMetrics {
                        name: "cpu".into(),
                        cycles: crate::ClassCycles {
                            busy: 1000,
                            queue_empty: 700,
                            idle: 36,
                            ..Default::default()
                        },
                    }],
                    queues: vec![QueueMetrics {
                        name: "q0".into(),
                        depth: 8,
                        pushes: 40,
                        pops: 40,
                        high_water: 3,
                        full_stalls: 0,
                        empty_stalls: 12,
                        occupancy_hist: vec![5, 30, 5],
                    }],
                    dropped_events: 0,
                    faults: FaultMetrics::default(),
                },
            }],
            stages: vec![StageTimings {
                bench: "aes".into(),
                spans: vec![("dswp".into(), 1_200_000), ("hls".into(), 800_000)],
                runs: 2,
                hits: 1,
            }],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let b = sample();
        let parsed = parse(&b.to_json()).expect("baseline JSON parses");
        assert_eq!(parsed, b);
        // And the serialization is a fixpoint (stable committed file).
        assert_eq!(parsed.to_json(), b.to_json());
    }

    #[test]
    fn unknown_schema_version_is_an_error() {
        let newer = sample().to_json().replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", SCHEMA_VERSION + 41),
            1,
        );
        let err = parse(&newer).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
        assert!(err.contains(&format!("{}", SCHEMA_VERSION + 41)), "{err}");
    }

    #[test]
    fn find_locates_entries_and_stages() {
        let b = sample();
        assert_eq!(b.find("aes", "hybrid").unwrap().cycles(), 1736);
        assert!(b.find("aes", "sw").is_none());
        assert_eq!(b.find_stages("aes").unwrap().total_ns(), 2_000_000);
        assert!(b.find_stages("gsm").is_none());
    }

    #[test]
    fn missing_schema_version_is_an_error() {
        assert!(parse("{}").unwrap_err().contains("schema_version"));
    }
}
