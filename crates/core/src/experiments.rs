//! Regeneration of every table and figure in the paper's Chapter 6.
//!
//! Each function returns structured rows; the `twill-bench` binaries print
//! them and `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! | Paper item | Function |
//! |---|---|
//! | Table 6.1 (queues/semaphores/HW threads)    | [`table_6_1`] |
//! | Table 6.2 (LUT columns)                     | [`table_6_2`] |
//! | Fig 6.1 (power, normalized to pure SW)      | [`fig_6_1`] |
//! | Fig 6.2 (speedups, normalized to pure SW)   | [`fig_6_2`] |
//! | Fig 6.3 (MIPS split-point sweep)            | [`fig_6_3_4`] |
//! | Fig 6.4 (Blowfish split-point sweep)        | [`fig_6_3_4`] |
//! | Fig 6.5 (queue-latency sweep)               | [`fig_6_5`] |
//! | Fig 6.6 (queue-size sweep)                  | [`fig_6_6`] |
//! | §6.4 Blowfish tuned heuristic               | [`blowfish_tuned`] |
//! | Design-choice ablations on AES              | [`ablations`] |

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::artifacts::BuildGraph;
use crate::report::{power_breakdown, PowerBreakdown};
use crate::{Compiler, TwillBuild};
use chstone::Benchmark;
use twill_dswp::DswpOptions;
use twill_hls::schedule::HlsOptions;

/// Process-wide artifact graph per benchmark: every table/figure in one
/// `twill-bench` run (and every sweep point within a figure) shares the
/// same memoized frontend/passes/DSWP/HLS artifacts, so each CHStone
/// program is compiled exactly once per process.
pub fn benchmark_graph(b: &Benchmark) -> Arc<BuildGraph> {
    static GRAPHS: OnceLock<Mutex<HashMap<String, Arc<BuildGraph>>>> = OnceLock::new();
    let mut map = GRAPHS.get_or_init(Default::default).lock().unwrap();
    map.entry(b.name.to_string())
        .or_insert_with(|| {
            Arc::new(BuildGraph::from_prepared(b.name, chstone::compile_and_prepare(b)))
        })
        .clone()
}

fn build_benchmark(b: &Benchmark) -> TwillBuild {
    Compiler::new().partitions(b.partitions).build_on(&benchmark_graph(b))
}

fn input(b: &Benchmark, scale: Option<u32>) -> Vec<i32> {
    chstone::input_for(b.name, scale.unwrap_or(b.default_scale))
}

/// Fan-out width for the Fig 6.3–6.6 sweeps: each sweep point's hybrid
/// simulation runs on its own thread, while every build is compiled on
/// the calling thread first. Points share the memoized build artifacts
/// read-only (`&DswpResult` / `&ModuleSchedule`) and each writes only its
/// own row slot, so any width produces rows byte-identical to the serial
/// loop (see `crate::par`; pinned by
/// `sweep_rows_identical_serial_vs_parallel`).
fn sweep_threads() -> usize {
    crate::par::default_threads()
}

// ---------------------------------------------------------------------------
// Table 6.1
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Table61Row {
    pub name: String,
    pub queues: usize,
    pub semaphores: usize,
    pub hw_threads: usize,
    /// Extraction products when forced to the paper's thread count with
    /// even targets (no cost-model stage merging) — closer to what the
    /// thesis' always-splitting partitioner reports.
    pub forced_queues: usize,
    pub forced_hw_threads: usize,
    /// Paper values for side-by-side comparison.
    pub paper_queues: usize,
    pub paper_semaphores: usize,
    pub paper_hw_threads: usize,
}

/// Paper Table 6.1 values (MIPS, ADPCM, AES, Blowfish, GSM, JPEG, MPEG-2,
/// SHA).
pub const PAPER_TABLE_6_1: [(&str, usize, usize, usize); 8] = [
    ("mips", 12, 0, 1),
    ("adpcm", 328, 0, 5),
    ("aes", 100, 0, 3),
    ("blowfish", 104, 2, 2),
    ("gsm", 65, 0, 3),
    ("jpeg", 576, 3, 6),
    ("motion", 47, 0, 4),
    ("sha", 82, 0, 1),
];

pub fn table_6_1() -> Vec<Table61Row> {
    chstone::all()
        .iter()
        .map(|b| {
            let graph = benchmark_graph(b);
            let build = Compiler::new().partitions(b.partitions).build_on(&graph);
            let s = build.stats();
            // Forced split at the paper's partition count (same graph: the
            // prepared module is shared, only the DSWP stage differs).
            let even = vec![1.0 / b.partitions as f64; b.partitions];
            let forced =
                Compiler::new().partitions(b.partitions).split_points(even).build_on(&graph);
            let fs = forced.stats();
            let paper = PAPER_TABLE_6_1.iter().find(|(n, ..)| *n == b.name).unwrap();
            Table61Row {
                name: b.name.into(),
                queues: s.queues,
                semaphores: s.semaphores,
                hw_threads: s.hw_threads,
                forced_queues: fs.queues,
                forced_hw_threads: fs.hw_threads,
                paper_queues: paper.1,
                paper_semaphores: paper.2,
                paper_hw_threads: paper.3,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 6.2
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Table62Row {
    pub name: String,
    pub legup_luts: u32,
    pub twill_hw_luts: u32,
    pub twill_luts: u32,
    pub twill_mb_luts: u32,
    pub paper: (u32, u32, u32, u32),
}

/// Paper Table 6.2 (LegUp, Twill HWThreads, Twill, Twill + Microblaze).
pub const PAPER_TABLE_6_2: [(&str, u32, u32, u32, u32); 8] = [
    ("mips", 2101, 1830, 2318, 3752),
    ("adpcm", 16893, 7182, 28682, 30116),
    ("aes", 16488, 8302, 15338, 16772),
    ("blowfish", 5872, 3293, 10493, 11927),
    ("gsm", 7397, 5888, 11983, 13417),
    ("jpeg", 31084, 18443, 56101, 57535),
    ("motion", 16295, 8116, 13467, 14901),
    ("sha", 12956, 7856, 13352, 14768),
];

pub fn table_6_2() -> Vec<Table62Row> {
    chstone::all()
        .iter()
        .map(|b| {
            let build = build_benchmark(b);
            let a = build.area();
            let p = PAPER_TABLE_6_2.iter().find(|(n, ..)| *n == b.name).unwrap();
            Table62Row {
                name: b.name.into(),
                legup_luts: a.legup.luts,
                twill_hw_luts: a.twill_hw_threads.luts,
                twill_luts: a.twill_total.luts,
                twill_mb_luts: a.twill_plus_microblaze.luts,
                paper: (p.1, p.2, p.3, p.4),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig 6.1 — power
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig61Row {
    pub name: String,
    pub power: PowerBreakdown,
    /// (pure SW, pure HW, Twill), normalized to pure SW.
    pub normalized: (f64, f64, f64),
}

pub fn fig_6_1(scale: Option<u32>) -> Vec<Fig61Row> {
    chstone::all()
        .iter()
        .map(|b| {
            let build = build_benchmark(b);
            let util =
                build.simulate_hybrid(input(b, scale)).map(|r| r.cpu_busy_fraction).unwrap_or(0.25);
            let power = power_breakdown(&build, util);
            Fig61Row { name: b.name.into(), normalized: power.normalized(), power }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig 6.2 — performance
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig62Row {
    pub name: String,
    pub sw_cycles: u64,
    pub hw_cycles: u64,
    pub twill_cycles: u64,
    pub hw_speedup: f64,
    pub twill_speedup: f64,
    pub twill_vs_hw: f64,
}

pub fn fig_6_2(scale: Option<u32>) -> Vec<Fig62Row> {
    chstone::all()
        .iter()
        .map(|b| {
            let build = build_benchmark(b);
            let inp = input(b, scale);
            let sw = build.simulate_pure_sw(inp.clone()).expect("pure SW sim");
            let hw = build.simulate_pure_hw(inp.clone()).expect("pure HW sim");
            let tw = build.simulate_hybrid(inp).expect("hybrid sim");
            assert_eq!(sw.output, hw.output, "{}: HW output diverged", b.name);
            assert_eq!(sw.output, tw.output, "{}: hybrid output diverged", b.name);
            Fig62Row {
                name: b.name.into(),
                sw_cycles: sw.cycles,
                hw_cycles: hw.cycles,
                twill_cycles: tw.cycles,
                hw_speedup: sw.cycles as f64 / hw.cycles as f64,
                twill_speedup: sw.cycles as f64 / tw.cycles as f64,
                twill_vs_hw: hw.cycles as f64 / tw.cycles as f64,
            }
        })
        .collect()
}

/// Geometric means reported under Fig 6.2 (paper: HW ≈ 13.6×, Twill ≈
/// 22.2×, Twill/HW ≈ 1.63×).
pub fn fig_6_2_geomeans(rows: &[Fig62Row]) -> (f64, f64, f64) {
    let n = rows.len() as f64;
    let g = |f: &dyn Fn(&Fig62Row) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / n).exp()
    };
    (g(&|r| r.hw_speedup), g(&|r| r.twill_speedup), g(&|r| r.twill_vs_hw))
}

// ---------------------------------------------------------------------------
// Fig 6.3 / 6.4 — split-point sweeps
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct SplitSweepRow {
    pub sw_target_percent: u32,
    pub cycles: u64,
    pub queues: usize,
    pub speedup_vs_sw: f64,
    /// Stall/utilization summary of this sweep point's hybrid run.
    pub metrics: twill_obs::MetricsSummary,
}

/// Sweep the targeted SW/HW split point for a benchmark with 2 partitions
/// (Fig 6.3: mips, Fig 6.4: blowfish).
pub fn fig_6_3_4(bench_name: &str, scale: Option<u32>) -> Vec<SplitSweepRow> {
    fig_6_3_4_with_threads(bench_name, scale, sweep_threads())
}

/// [`fig_6_3_4`] with an explicit fan-out width (`threads <= 1` runs the
/// plain serial loop).
pub fn fig_6_3_4_with_threads(
    bench_name: &str,
    scale: Option<u32>,
    threads: usize,
) -> Vec<SplitSweepRow> {
    let b = chstone::by_name(bench_name).expect("unknown benchmark");
    let graph = benchmark_graph(&b);
    let inp = input(&b, scale);
    let sw_cycles = twill_rt::simulate_pure_sw(graph.prepared(), inp.clone(), &Default::default())
        .expect("pure SW sim")
        .cycles;
    // Compile every point serially first — the graph memoizes per split
    // point and the stage-span log keeps a deterministic order — so the
    // fan-out below is simulation-only.
    let points: Vec<(u32, TwillBuild)> = [10u32, 20, 30, 40, 50, 60, 70, 80, 90]
        .into_iter()
        .map(|pct| {
            let frac = pct as f64 / 100.0;
            let build =
                Compiler::new().partitions(2).split_points(vec![frac, 1.0 - frac]).build_on(&graph);
            build.hybrid_schedule();
            (pct, build)
        })
        .collect();
    crate::par::par_map(&points, threads, |_, (pct, build)| {
        let rep = build.simulate_hybrid(inp.clone()).expect("hybrid sim");
        SplitSweepRow {
            sw_target_percent: *pct,
            cycles: rep.cycles,
            queues: build.stats().queues,
            speedup_vs_sw: sw_cycles as f64 / rep.cycles as f64,
            metrics: rep.metrics().summary(),
        }
    })
}

// ---------------------------------------------------------------------------
// Fig 6.5 — queue latency sweep
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct LatencySweepRow {
    pub name: String,
    /// cycles at queue latency 2/4/8/16/32/64/128, normalized to latency 2.
    pub normalized: Vec<f64>,
    /// Stall/utilization summary at each latency point (tracks where the
    /// pipeline tips from compute-bound to communication-bound).
    pub metrics: Vec<twill_obs::MetricsSummary>,
}

pub const LATENCY_POINTS: [u32; 7] = [2, 4, 8, 16, 32, 64, 128];

pub fn fig_6_5(scale: Option<u32>) -> Vec<LatencySweepRow> {
    fig_6_5_with_threads(scale, sweep_threads())
}

/// [`fig_6_5`] with an explicit fan-out width (`threads <= 1` runs the
/// plain serial loop).
pub fn fig_6_5_with_threads(scale: Option<u32>, threads: usize) -> Vec<LatencySweepRow> {
    chstone::all()
        .iter()
        .map(|b| {
            let build = build_benchmark(b);
            let inp = input(b, scale);
            // Warm the DSWP artifact and schedule cache serially; the
            // latency points then only simulate.
            build.hybrid_schedule();
            let runs = crate::par::par_map(&LATENCY_POINTS, threads, |_, &lat| {
                let cfg = twill_rt::SimConfig { queue_latency: lat, ..build.sim_config() };
                let rep = build.simulate_hybrid_with(inp.clone(), &cfg).expect("sim");
                (rep.cycles, rep.metrics().summary())
            });
            let base = runs[0].0 as f64;
            LatencySweepRow {
                name: b.name.into(),
                normalized: runs.iter().map(|r| base / r.0 as f64).collect(),
                metrics: runs.into_iter().map(|r| r.1).collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig 6.6 — queue size sweep
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct SizeSweepRow {
    pub name: String,
    /// speedup at queue depth 2/4/8/16/32, normalized to depth 8.
    pub normalized: Vec<f64>,
    /// Whether the design fits the Virtex-5 LX110T at each depth (the
    /// paper's 32-deep JPEG did not fit).
    pub fits_device: Vec<bool>,
    /// Stall/utilization summary at each depth point.
    pub metrics: Vec<twill_obs::MetricsSummary>,
}

pub const SIZE_POINTS: [u32; 5] = [2, 4, 8, 16, 32];

pub fn fig_6_6(scale: Option<u32>) -> Vec<SizeSweepRow> {
    fig_6_6_with_threads(scale, sweep_threads())
}

/// [`fig_6_6`] with an explicit fan-out width (`threads <= 1` runs the
/// plain serial loop).
pub fn fig_6_6_with_threads(scale: Option<u32>, threads: usize) -> Vec<SizeSweepRow> {
    chstone::all()
        .iter()
        .map(|b| {
            let build = build_benchmark(b);
            let inp = input(b, scale);
            // Warm the artifacts serially; the per-depth area math below is
            // pure, so the depth points are simulation + arithmetic only.
            build.hybrid_schedule();
            let hw_threads = build.dswp().threads.iter().filter(|t| t.is_hw).count() as u32;
            let hw_area = build.area().twill_hw_threads;
            let runs = crate::par::par_map(&SIZE_POINTS, threads, |_, &depth| {
                let cfg = twill_rt::SimConfig { queue_depth: Some(depth), ..build.sim_config() };
                let rep = build.simulate_hybrid_with(inp.clone(), &cfg).expect("sim");
                // Area with this queue depth.
                let mut m2 = build.dswp().module.clone();
                for q in &mut m2.queues {
                    q.depth = depth;
                }
                let mut area = hw_area;
                area.add(twill_hls::area::runtime_area(&m2, hw_threads, 1));
                area.add(twill_hls::area::microblaze_area());
                (rep.cycles, twill_hls::area::fits_device(&area), rep.metrics().summary())
            });
            let base = runs[2].0 as f64; // depth 8 is the paper baseline
            SizeSweepRow {
                name: b.name.into(),
                normalized: runs.iter().map(|r| base / r.0 as f64).collect(),
                fits_device: runs.iter().map(|r| r.1).collect(),
                metrics: runs.into_iter().map(|r| r.2).collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §6.4 — the Blowfish tuned-heuristic experiment
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct BlowfishTuned {
    pub default_cycles: u64,
    pub default_queues: usize,
    pub tuned_cycles: u64,
    pub tuned_queues: usize,
    pub hw_cycles: u64,
    /// Paper: tuned heuristic reached 1.89× over pure HW and cut queues
    /// from 92 to 34.
    pub tuned_vs_hw: f64,
}

/// The thesis' modified heuristic pins call subtrees so master control
/// stops ping-ponging; our equivalent keeps hot functions out of the
/// software stage and merges stages whose cut exceeds their work (both on
/// by default), so the "tuned" run here widens the search to more stage
/// counts while the "default" run disables the cost-model merge.
pub fn blowfish_tuned(scale: Option<u32>) -> BlowfishTuned {
    let b = chstone::by_name("blowfish").unwrap();
    let graph = benchmark_graph(&b);
    let inp = input(&b, scale);
    let cfg = twill_rt::SimConfig::default();
    let hw = twill_rt::simulate_pure_hw_scheduled(
        graph.prepared(),
        &graph.pure_schedule(&cfg.hls),
        inp.clone(),
        &cfg,
    )
    .expect("pure HW sim");

    // "Default" heuristic: fixed even split across the paper's partition
    // count (no cost model) — the configuration the thesis describes as
    // choosing poor partitions.
    let even = vec![1.0 / b.partitions as f64; b.partitions];
    let default_build =
        Compiler::new().partitions(b.partitions).split_points(even).build_on(&graph);
    let default_rep = default_build.simulate_hybrid(inp.clone()).expect("sim");

    // "Tuned": the full heuristic (loop-guarded SW + cost-model stage
    // selection).
    let tuned_build = Compiler::new().partitions(b.partitions).build_on(&graph);
    let tuned_rep = tuned_build.simulate_hybrid(inp).expect("sim");

    BlowfishTuned {
        default_cycles: default_rep.cycles,
        default_queues: default_build.stats().queues,
        tuned_cycles: tuned_rep.cycles,
        tuned_queues: tuned_build.stats().queues,
        hw_cycles: hw.cycles,
        tuned_vs_hw: hw.cycles as f64 / tuned_rep.cycles as f64,
    }
}

// ---------------------------------------------------------------------------
// Design-choice ablations (AES)
// ---------------------------------------------------------------------------

/// Simulated AES cycles with one design choice switched off at a time.
/// Each list opens with its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ablations {
    /// HLS chaining / loop pipelining: pure-HW cycles.
    pub hls: Vec<(&'static str, u64)>,
    /// DSWP control pruning, PHI-constant pairs, frequency-weighted
    /// placement: hybrid cycles and queue count.
    pub dswp: Vec<(&'static str, u64, usize)>,
}

/// The ablations of the design choices DESIGN.md calls out, on AES at its
/// default scale.
pub fn ablations() -> Ablations {
    let b = chstone::AES;
    let graph = benchmark_graph(&b);
    let inp = input(&b, None);
    let hls = [
        ("baseline", true, true),
        ("no-chaining", false, true),
        ("no-loop-pipelining", true, false),
        ("neither", false, false),
    ]
    .map(|(name, chaining, loop_pipelining)| {
        let hls = HlsOptions { chaining, loop_pipelining, ..Default::default() };
        let cfg = twill_rt::SimConfig { hls, ..Default::default() };
        let sched = graph.pure_schedule(&cfg.hls);
        let rep = twill_rt::simulate_pure_hw_scheduled(graph.prepared(), &sched, inp.clone(), &cfg)
            .expect("pure HW sim");
        (name, rep.cycles)
    });
    let base = DswpOptions { num_partitions: b.partitions, ..Default::default() };
    let dswp = [
        ("baseline", base.clone()),
        ("no-pruning", DswpOptions { prune: false, ..base.clone() }),
        ("no-phi-const-pairs", DswpOptions { phi_const_pairs: false, ..base.clone() }),
        ("flat-placement-weights", DswpOptions { freq_weights: false, ..base }),
    ]
    .map(|(name, opts)| {
        let d = graph.dswp(&opts);
        let cfg = twill_rt::SimConfig::default();
        let sched = graph.hybrid_schedule(&d, &cfg.hls);
        let rep = twill_rt::simulate_hybrid_scheduled(&d.result, &sched, inp.clone(), &cfg)
            .expect("hybrid sim");
        (name, rep.cycles, d.result.stats.queues)
    });
    Ablations { hls: hls.to_vec(), dswp: dswp.to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_6_1_has_all_benchmarks() {
        let rows = table_6_1();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.queues > 0 || r.hw_threads <= 1, "{}: no queues", r.name);
        }
    }

    #[test]
    fn table_6_2_twill_hw_smaller_than_legup() {
        // The paper's area claim: Twill's HW threads need less logic than
        // the full LegUp translation (avg 1.73× decrease) because the
        // software thread absorbs part of the program. Our partitioner
        // only offloads setup code it can take *whole* (see DESIGN.md), so
        // the reduction shows on the benchmarks with one-shot setup loops
        // (mips/blowfish/motion/…) and not on those that split hot
        // pipelines across extra HW FSMs (aes).
        let rows = table_6_2();
        let mut smaller = 0;
        for r in &rows {
            if r.twill_hw_luts <= r.legup_luts + 8 {
                smaller += 1;
            }
            assert!(r.twill_mb_luts > r.twill_luts);
        }
        assert!(smaller >= 4, "HW-thread area should shrink on several: {rows:?}");
    }

    #[test]
    fn fig_6_1_ordering() {
        for row in fig_6_1(Some(1)) {
            let (sw, hw, twill) = row.normalized;
            assert_eq!(sw, 1.0);
            assert!(hw < 1.0, "{}: pure HW should be below SW", row.name);
            assert!(twill < 1.0, "{}: Twill should be below SW", row.name);
            assert!(hw <= twill + 1e-9, "{}: pure HW lowest", row.name);
        }
    }

    #[test]
    fn sweep_rows_identical_serial_vs_parallel() {
        // The sweep fan-out must be invisible: any thread count yields rows
        // byte-identical to the serial loop (same artifacts, same sims,
        // same slot order).
        let serial = fig_6_3_4_with_threads("mips", Some(1), 1);
        let parallel = fig_6_3_4_with_threads("mips", Some(1), 4);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));

        let serial = fig_6_5_with_threads(Some(1), 1);
        let parallel = fig_6_5_with_threads(Some(1), 5);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));

        let serial = fig_6_6_with_threads(Some(1), 1);
        let parallel = fig_6_6_with_threads(Some(1), 3);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn ablations_are_pinned() {
        // Simulated cycles are deterministic, so the EXPERIMENTS.md
        // ablation table is pinned exactly.
        let a = ablations();
        assert_eq!(
            a.hls,
            [
                ("baseline", 10_553),
                ("no-chaining", 73_894),
                ("no-loop-pipelining", 10_553),
                ("neither", 73_894),
            ]
        );
        assert_eq!(
            a.dswp,
            [
                ("baseline", 4_298, 61),
                ("no-pruning", 4_595, 64),
                ("no-phi-const-pairs", 4_298, 61),
                ("flat-placement-weights", 4_243, 59),
            ]
        );
    }

    #[test]
    fn fig_6_5_latency_monotone_degradation() {
        // More queue latency never speeds a benchmark up.
        for row in fig_6_5(Some(1)) {
            assert!((row.normalized[0] - 1.0).abs() < 1e-9);
            for w in row.normalized.windows(2) {
                assert!(w[1] <= w[0] + 0.02, "{}: {:?}", row.name, row.normalized);
            }
            // Every sweep point carries its stall/utilization summary.
            assert_eq!(row.metrics.len(), LATENCY_POINTS.len());
            for m in &row.metrics {
                assert!(m.cycles > 0);
                assert!(m.utilization.iter().all(|u| (0.0..=1.0).contains(u)), "{m:?}");
                assert!((0.0..=1.0).contains(&m.stall_fraction), "{m:?}");
            }
        }
    }
}
