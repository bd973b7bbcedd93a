//! # twill-obs
//!
//! The observability layer for the Twill reproduction: typed simulator
//! events, a bounded ring-buffer recorder, stall-attribution metrics, and
//! exporters (Chrome/Perfetto `trace_event` JSON, metrics JSON, profile
//! tables). `twill-rt` threads these hooks through the cycle simulator and
//! charges its cycle accounting straight into the [`stall`] types;
//! `twill` (core) adds compiler-stage spans on the same timeline. On top
//! of the metrics sit the perf-regression tools (DESIGN.md §9): the versioned [`baseline`] store
//! (`BENCH_baseline.json`), the [`diff`] engine that attributes a cycle
//! delta to stall classes / queues / critical-stage shifts, and the
//! shared [`fmt`] profile renderer.
//!
//! Design constraints (DESIGN.md §8):
//! * **Zero cost when disabled** — the simulator's hot path only ever
//!   checks an `Option` and touches pre-allocated counters; no event is
//!   constructed and no heap allocation happens unless a recorder was
//!   installed.
//! * **No external dependencies** — events use plain integer ids and the
//!   JSON writer/parser is in-tree, so the crate builds offline.
//! * **Bounded memory** — the ring buffer keeps the most recent `capacity`
//!   events and counts what it dropped; truncation is always surfaced
//!   ([`Ring::dropped`], `SimReport::dropped_events`, and the
//!   `otherData.dropped_events` field of the Perfetto export).

pub mod baseline;
pub mod diff;
pub mod event;
pub mod fmt;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod phase;
pub mod profile;
pub mod regmap;
pub mod ring;
pub mod span;
pub mod stall;
pub mod timeseries;
pub mod tune;

pub use baseline::{Baseline, BaselineEntry, StageTimings};
pub use diff::{diff, phase_attribution, render_phase_attribution, MetricsDiff, PhaseDelta};
pub use event::{Event, EventKind, FaultClass, OpClass, QueueName};
pub use fmt::{profile_report, timeline_table, StageSection};
pub use json::{FromJson, Json, ToJson};
pub use metrics::{FaultMetrics, MetricsSummary, QueueMetrics, SimMetrics, ThreadMetrics};
pub use perfetto::TraceBuilder;
pub use phase::{segment, Phase, PhaseReport};
pub use profile::{line_regression, SiteSample, SourceProfile};
pub use regmap::{hardware_view, CounterDump, QueueDesc, RegMap};
pub use ring::Ring;
pub use span::{now_ns, Span};
pub use stall::{ClassCycles, StallClass};
pub use timeseries::{Interval, QueueWindow, Timeline};
pub use tune::{ObsSignal, TrialRecord, TunedConfig, TuningReport};
