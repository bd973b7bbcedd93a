//! Pipeline-level profiling of a CHStone benchmark's hybrid run.
//!
//! ```console
//! profile [BENCH] [--scale N] [--trace FILE] [--metrics FILE]
//!         [--metrics-text FILE] [--profile-json FILE] [--folded FILE]
//!         [--annotate FILE] [--timeline-out FILE] [--phases FILE]
//!         [--emit-regmap FILE] [--counter-dump FILE] [--sample-interval N]
//!         [--obs-ring-capacity N] [--strict-obs]
//! ```
//!
//! With no benchmark name, profiles all eight. Prints the per-thread
//! stall/utilization table (busy / queue-full / queue-empty / semaphore /
//! memory-bus / module-bus / idle) and names the critical pipeline stage.
//! The observability flags are `twillc`'s ([`twill::cli`]): same
//! spelling, defaults and bytes. `--trace` writes a Chrome/Perfetto
//! `trace_event` JSON of the run (compiler stages + cycle timeline, open
//! at <https://ui.perfetto.dev>), `--metrics` the structured metrics
//! report as JSON and `--metrics-text` the same metrics in the Prometheus
//! text exposition format. `--profile-json`, `--folded` and `--annotate`
//! write the line-granular profile as JSON, folded-stack lines for
//! flamegraph tooling and the benchmark's C source annotated with the
//! per-line cycles/stall gutter. `--timeline-out` writes the
//! interval-sampled counter timeline as JSON and `--phases` the
//! phase-segmentation report (runs of intervals sharing a dominant
//! stall-class signature, each named by its hottest C line); both sample
//! every [`cli::DEFAULT_SAMPLE_INTERVAL`] cycles unless `--sample-interval`
//! says otherwise. `--emit-regmap`/`--counter-dump` write the hardware
//! performance-counter register map and the simulated word-for-word
//! counter dump (DESIGN.md §14 readback artifacts). `--strict-obs` arms
//! the event ring ([`cli::DEFAULT_RING_CAPACITY`] events unless
//! `--obs-ring-capacity` says otherwise) and exits non-zero if any run
//! lost an event; a loss always warns on stderr.

use std::process::ExitCode;
use twill::cli::{self, ObsArgs};
use twill::experiments::benchmark_graph;
use twill::Compiler;

fn usage() -> ! {
    eprintln!(
        "usage: profile [BENCH] [--scale N] [--trace FILE] [--metrics FILE] \
         [--metrics-text FILE] [--profile-json FILE] [--folded FILE] \
         [--annotate FILE] [--timeline-out FILE] [--phases FILE] \
         [--emit-regmap FILE] [--counter-dump FILE] [--sample-interval N] \
         [--obs-ring-capacity N] [--strict-obs]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut bench: Option<String> = None;
    let mut scale: Option<u32> = None;
    let mut obs = ObsArgs::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = Some(cli::value(&mut it).unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            flag if obs.take(flag, &mut it) => {}
            other if !other.starts_with('-') && bench.is_none() => bench = Some(other.to_string()),
            _ => usage(),
        }
    }

    let benches: Vec<chstone::Benchmark> = match &bench {
        Some(name) => {
            vec![chstone::by_name(name).unwrap_or_else(|| {
                eprintln!("profile: unknown benchmark {name:?}");
                std::process::exit(2);
            })]
        }
        None => chstone::all(),
    };
    if benches.len() > 1 && obs.writes_files() {
        eprintln!("profile: per-file output flags need a single benchmark");
        std::process::exit(2);
    }

    let mut dropped = Vec::new();
    for b in &benches {
        let graph = benchmark_graph(b);
        let build = Compiler::new()
            .partitions(b.partitions)
            .hw_counters(obs.hw_counters())
            .build_on(&graph);
        let input = chstone::input_for(b.name, scale.unwrap_or(b.default_scale));
        let cfg = obs.sim_config(build.sim_config(), false, false);
        let rep = build.simulate_hybrid_with(input, &cfg).expect("hybrid simulation");
        let c = graph.counters();
        let spans = graph.spans();
        println!(
            "{}",
            twill_obs::profile_report(
                b.name,
                &rep.metrics(),
                Some(twill_obs::StageSection { spans: &spans, runs: c.runs(), hits: c.hits() }),
            )
        );
        if let Err(e) = obs.write(b.source, &build, Some(&rep)) {
            eprintln!("profile: {e}");
            return ExitCode::FAILURE;
        }
        dropped.push((b.name, rep.dropped_events));
    }
    obs.ring.check_data_loss("profile", dropped, false).err().unwrap_or(ExitCode::SUCCESS)
}
