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

use crate::json::{FromJson, Json, Members, Schema, Tag, ToJson};
use crate::metrics::SimMetrics;

/// Current schema version. Bump when the file layout changes; readers
/// reject versions they do not understand instead of misreading them.
pub const SCHEMA_VERSION: u64 = 1;

/// The baseline document's format tag.
pub const SCHEMA: Schema = Schema(&[("schema_version", Tag::Int(SCHEMA_VERSION))]);

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
    /// One span per stage *execution*, in completion order (cache hits
    /// record nothing).
    pub spans: Vec<StageSpan>,
    /// Stage executions / memoization-cache hits (`StageCounts` totals).
    pub runs: u64,
    pub hits: u64,
}

/// One stage execution's wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    pub name: String,
    pub dur_ns: u64,
}

impl StageTimings {
    /// Total wall-clock across all stage executions.
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_ns).sum()
    }
}

/// The whole baseline document (schema version [`SCHEMA_VERSION`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Free-form `(key, value)` environment metadata (os, arch, …).
    pub env: Vec<(String, String)>,
    pub entries: Vec<BaselineEntry>,
    pub stages: Vec<StageTimings>,
}

impl Baseline {
    /// Look up one benchmark × mode entry.
    pub fn find(&self, bench: &str, mode: &str) -> Option<&BaselineEntry> {
        self.entries.iter().find(|e| e.bench == bench && e.mode == mode)
    }

    pub fn find_stages(&self, bench: &str) -> Option<&StageTimings> {
        self.stages.iter().find(|s| s.bench == bench)
    }

    /// Read and parse a baseline file.
    pub fn load(path: &std::path::Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

crate::json_object!(BaselineEntry { bench, mode, scale, metrics });

crate::json_object!(StageSpan { name, dur_ns });
crate::json_object!(StageTimings { bench, runs, hits, spans });

impl ToJson for Baseline {
    fn to_tree(&self) -> Json {
        SCHEMA.doc([
            ("env", Json::obj(self.env.iter().map(|(k, v)| (k.as_str(), v)))),
            ("entries", self.entries.to_tree()),
            ("stages", self.stages.to_tree()),
        ])
    }
}

impl FromJson for Baseline {
    /// Unknown schema versions are an error: a newer tool wrote the file
    /// and silently misreading it would corrupt every downstream
    /// comparison.
    fn from_json(doc: &Json) -> Result<Baseline, String> {
        SCHEMA.check(doc)?;
        Ok(Baseline {
            env: doc.req::<Members<String>>("env")?.0,
            entries: doc.req("entries")?,
            stages: doc.req("stages")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{FaultMetrics, QueueMetrics, ThreadMetrics};

    fn sample() -> Baseline {
        Baseline {
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
                spans: vec![
                    StageSpan { name: "dswp".into(), dur_ns: 1_200_000 },
                    StageSpan { name: "hls".into(), dur_ns: 800_000 },
                ],
                runs: 2,
                hits: 1,
            }],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let b = sample();
        let parsed = Baseline::from_json_str(&b.to_json()).expect("baseline JSON parses");
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
        let err = Baseline::from_json_str(&newer).unwrap_err();
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
        assert!(Baseline::from_json_str("{}").unwrap_err().contains("schema_version"));
    }
}
