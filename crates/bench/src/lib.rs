//! Shared helpers for the experiment binaries: printing, the perf
//! baseline collector (`twill-bench baseline` / `compare` / the CI perf
//! gate all measure through [`collect_baseline`]). The bins' shared
//! observability flags live in [`twill::cli`].

pub mod campaign;

pub use twill::experiments;
pub use twill::report::format_table;

use twill::Compiler;
use twill_obs::baseline::{Baseline, BaselineEntry, StageSpan, StageTimings, SCHEMA_VERSION};

/// Print a markdown-ish section header.
pub fn section(title: &str) {
    println!("\n## {title}\n");
}

/// Workload scale every baseline entry is recorded at (the scale the
/// golden-cycle regression in `twill-rt` pins).
pub const BASELINE_SCALE: u32 = 1;

/// Default path of the committed baseline, relative to the repo root.
pub const BASELINE_PATH: &str = "BENCH_baseline.json";

/// Environment metadata recorded in the baseline. Only the cycle data is
/// compared across machines — this is provenance, not a cache key.
pub fn env_metadata() -> Vec<(String, String)> {
    let no_ff = std::env::var_os("TWILL_NO_FAST_FORWARD").is_some();
    vec![
        ("generator".into(), "twill-bench baseline".into()),
        ("schema".into(), SCHEMA_VERSION.to_string()),
        ("os".into(), std::env::consts::OS.into()),
        ("arch".into(), std::env::consts::ARCH.into()),
        // Which simulator loop produced the numbers (they are identical
        // by contract, but a mismatch investigation starts here).
        ("fast_forward".into(), (if no_ff { "off" } else { "on" }).into()),
        ("TWILL_NO_FAST_FORWARD".into(), (if no_ff { "set" } else { "unset" }).into()),
    ]
}

/// Measure the full baseline: every CHStone benchmark × mode simulated at
/// [`BASELINE_SCALE`] (cycles + stall/queue metrics — deterministic), plus
/// per-benchmark wall-clock compile-stage timings (environment-dependent;
/// compared only under a noise band). Each benchmark is compiled on a
/// fresh [`twill::artifacts::BuildGraph`] from source so the stage spans
/// reflect a cold compile (frontend through HLS) regardless of what else
/// the process ran.
pub fn collect_baseline() -> Baseline {
    let mut entries = Vec::new();
    let mut stages = Vec::new();
    for b in chstone::all() {
        let build = Compiler::new()
            .partitions(b.partitions)
            .compile(b.name, b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let input = chstone::input_for(b.name, BASELINE_SCALE);
        let runs = [
            ("sw", build.simulate_pure_sw(input.clone())),
            ("hw", build.simulate_pure_hw(input.clone())),
            ("hybrid", build.simulate_hybrid(input)),
        ];
        for (mode, rep) in runs {
            let rep = rep.unwrap_or_else(|e| panic!("{} {mode} simulation failed: {e}", b.name));
            entries.push(BaselineEntry {
                bench: b.name.to_string(),
                mode: mode.to_string(),
                scale: BASELINE_SCALE,
                metrics: rep.metrics(),
            });
        }
        let (c, spans) = (build.graph().counters(), build.graph().spans());
        stages.push(StageTimings {
            bench: b.name.to_string(),
            spans: spans
                .into_iter()
                .map(|s| StageSpan { name: s.name, dur_ns: s.dur_ns })
                .collect(),
            runs: c.runs() as u64,
            hits: c.hits() as u64,
        });
    }
    Baseline { env: env_metadata(), entries, stages }
}
