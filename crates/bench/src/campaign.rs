//! Deterministic fault-injection campaign over the CHStone suite.
//!
//! For every benchmark × fault-rate cell the driver runs the hybrid under
//! a seeded [`FaultPlan`], classifies the outcome against the golden
//! interpreter output (survived / corrupted / hang / timeout), retries
//! with fresh derived seeds, and degrades to a fault-free pure-software
//! run when every hybrid attempt fails — the same policy as
//! `TwillBuild::run_resilient`, but with the full per-attempt taxonomy
//! recorded for the survival table.
//!
//! Everything is keyed off the campaign seed, so the same invocation
//! produces byte-identical JSON twice.

use twill::{Compiler, FaultPlan, FaultSpec, SimulationConfig};
use twill_obs::json::{Json, Schema, Tag, ToJson};
use twill_rt::SimError;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Per-cycle fault rates to sweep (applied uniformly to every fault
    /// class via [`FaultSpec::uniform`]).
    pub rates: Vec<f64>,
    /// Master seed; every cell/attempt seed is derived from it.
    pub seed: u64,
    /// Hybrid attempts per cell before degrading to pure software.
    pub attempts: u32,
    /// Workload scale for every benchmark.
    pub scale: u32,
    /// Watchdog no-progress window (small, so injected deadlocks are
    /// diagnosed quickly).
    pub watchdog: u64,
    /// Cycle budget per attempt (small relative to the simulator default:
    /// a faulted run that blows far past its clean cycle count is a
    /// failure worth classifying, not worth simulating for billions of
    /// cycles).
    pub max_cycles: u64,
    /// Event-ring capacity armed on every run (0 = tracing off). With
    /// tracing armed, dropped events count as observability data loss.
    pub trace_capacity: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            rates: vec![1e-6, 1e-5, 1e-4],
            seed: 1,
            attempts: 3,
            scale: 1,
            watchdog: 200_000,
            max_cycles: 20_000_000,
            trace_capacity: 0,
        }
    }
}

/// How one hybrid attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with correct output (faults absorbed).
    Survived,
    /// Completed but the output differs from the golden reference — the
    /// runtime itself did not notice (caught only by the cross-check).
    Corrupted,
    /// The watchdog declared a hang and produced a diagnosis.
    Hang,
    /// The cycle budget ran out.
    Timeout,
}

impl Outcome {
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Survived => "survived",
            Outcome::Corrupted => "corrupted",
            Outcome::Hang => "hang",
            Outcome::Timeout => "timeout",
        }
    }
}

/// One hybrid attempt's record.
#[derive(Debug, Clone)]
pub struct Attempt {
    pub outcome: Outcome,
    /// Faults injected during the attempt.
    pub faults: u64,
    /// For hangs: the wait-for walk produced a non-empty chain.
    pub diagnosed: bool,
    /// Trace events dropped (observability loss when tracing was armed).
    pub obs_lost: u64,
}

/// One benchmark × rate cell.
#[derive(Debug, Clone)]
pub struct Cell {
    pub bench: String,
    pub rate: f64,
    pub attempts: Vec<Attempt>,
    /// `"hybrid"` or `"pure-sw"` — the path that served the final output.
    pub served: &'static str,
    /// 0-based attempt index that served (0 for the fallback too).
    pub served_attempt: u32,
    /// The served output matched the golden reference.
    pub final_ok: bool,
    /// The bounded fault log could not hold every injected fault.
    pub log_truncated: bool,
}

/// The whole campaign result.
#[derive(Debug)]
pub struct Campaign {
    pub seed: u64,
    pub attempts: u32,
    pub scale: u32,
    pub cells: Vec<Cell>,
}

/// Derive a per-cell seed from the campaign seed, benchmark name, and
/// rate index (FNV-1a over the name, folded with the master seed).
fn cell_seed(seed: u64, bench: &str, rate_idx: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in bench.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h.wrapping_add(rate_idx as u64)
}

/// Run the campaign over `benches`.
pub fn run_campaign(benches: &[chstone::Benchmark], opts: &CampaignOptions) -> Campaign {
    let mut cells = Vec::new();
    for b in benches {
        let build = Compiler::new()
            .partitions(b.partitions)
            .compile(b.name, b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let input = chstone::input_for(b.name, opts.scale);
        let golden = build
            .run_reference(input.clone())
            .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", b.name));
        for (ri, &rate) in opts.rates.iter().enumerate() {
            let plan = FaultPlan::new(cell_seed(opts.seed, b.name, ri), FaultSpec::uniform(rate));
            let mut cell = Cell {
                bench: b.name.to_string(),
                rate,
                attempts: Vec::new(),
                served: "pure-sw",
                served_attempt: 0,
                final_ok: false,
                log_truncated: false,
            };
            for k in 0..opts.attempts {
                let cfg = SimulationConfig {
                    fault: Some(plan.reseeded(k)),
                    watchdog_window: opts.watchdog,
                    max_cycles: opts.max_cycles,
                    trace_events: opts.trace_capacity,
                    ..build.sim_config()
                };
                let (attempt, report) = match build.simulate_hybrid_with(input.clone(), &cfg) {
                    Ok(rep) => {
                        let ok = rep.output == golden;
                        let a = Attempt {
                            outcome: if ok { Outcome::Survived } else { Outcome::Corrupted },
                            faults: rep.stats.faults.total(),
                            diagnosed: false,
                            obs_lost: rep.dropped_events,
                        };
                        (a, Some(rep))
                    }
                    Err(SimError::Deadlock { report, partial }) => {
                        let a = Attempt {
                            outcome: Outcome::Hang,
                            faults: partial.stats.faults.total(),
                            diagnosed: !report.chain.is_empty(),
                            obs_lost: partial.dropped_events,
                        };
                        (a, Some(*partial))
                    }
                    Err(SimError::Timeout { partial, .. }) => {
                        let a = Attempt {
                            outcome: Outcome::Timeout,
                            faults: partial.stats.faults.total(),
                            diagnosed: false,
                            obs_lost: partial.dropped_events,
                        };
                        (a, Some(*partial))
                    }
                    Err(e @ SimError::Config(_)) => {
                        panic!("{} rate {rate}: {e}", b.name)
                    }
                };
                if let Some(rep) = &report {
                    if (rep.stats.faults.total() as usize) > rep.fault_log.len() {
                        cell.log_truncated = true;
                    }
                }
                let outcome = attempt.outcome;
                cell.attempts.push(attempt);
                if outcome == Outcome::Survived {
                    cell.served = "hybrid";
                    cell.served_attempt = k;
                    cell.final_ok = true;
                    break;
                }
            }
            if cell.served != "hybrid" {
                // Degraded path: the whole program on the soft CPU,
                // injection off — must produce the golden output.
                let cfg = SimulationConfig { fault: None, ..build.sim_config() };
                let rep = twill_rt::simulate_pure_sw(build.prepared(), input.clone(), &cfg)
                    .unwrap_or_else(|e| panic!("{}: pure-SW fallback failed: {e}", b.name));
                cell.final_ok = rep.output == golden;
            }
            cells.push(cell);
        }
    }
    Campaign { seed: opts.seed, attempts: opts.attempts, scale: opts.scale, cells }
}

impl Campaign {
    /// Any cell whose *served* output was wrong — corruption that slipped
    /// past both the retry policy and the fallback.
    pub fn undetected_corruption(&self) -> bool {
        self.cells.iter().any(|c| !c.final_ok)
    }

    /// The survival/detection/corruption table.
    pub fn table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                let count =
                    |o: Outcome| c.attempts.iter().filter(|a| a.outcome == o).count().to_string();
                let faults: u64 = c.attempts.iter().map(|a| a.faults).sum();
                let diagnosed = c.attempts.iter().filter(|a| a.diagnosed).count();
                vec![
                    c.bench.clone(),
                    format!("{:e}", c.rate),
                    faults.to_string(),
                    count(Outcome::Survived),
                    count(Outcome::Corrupted),
                    format!(
                        "{} ({diagnosed} diagnosed)",
                        c.attempts.iter().filter(|a| a.outcome == Outcome::Hang).count()
                    ),
                    count(Outcome::Timeout),
                    c.served.to_string(),
                    if c.final_ok { "ok".to_string() } else { "CORRUPT".to_string() },
                ]
            })
            .collect();
        twill::report::format_table(
            &[
                "bench",
                "rate",
                "faults",
                "survived",
                "corrupted",
                "hangs",
                "timeouts",
                "served",
                "final",
            ],
            &rows,
        )
    }
}

/// The campaign document's format tag.
pub const SCHEMA: Schema = Schema(&[("schema", Tag::Int(1))]);

impl ToJson for Outcome {
    fn to_tree(&self) -> Json {
        self.label().into()
    }
}

twill_obs::json_object!(Attempt { outcome, faults, diagnosed, obs_lost } write-only);
twill_obs::json_object!(Cell {
    bench, rate, served, served_attempt, final_ok, log_truncated, attempts
} write-only);

impl ToJson for Campaign {
    /// Deterministic: same seed + spec → byte-identical document.
    fn to_tree(&self) -> Json {
        SCHEMA.doc([
            ("seed", Json::from(self.seed)),
            ("attempts", self.attempts.into()),
            ("scale", self.scale.into()),
            ("cells", self.cells.to_tree()),
        ])
    }
}
