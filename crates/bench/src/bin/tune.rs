//! Run the profile-guided auto-tuner over the CHStone suite and record
//! the results (`BENCH_tuning.json`).
//!
//! ```console
//! tune [--out FILE] [--seed N] [--rounds N] [--bench a,b,c]
//!      [--report-dir DIR] [--trace-dir DIR]
//!      [--obs-ring-capacity N] [--strict-obs]
//! ```
//!
//! For every selected benchmark the tuner searches DSWP split points and
//! per-queue depths from the paper-default configuration and the bin
//! writes one document with `{default, tuned}` hybrid cycles and the
//! trial count per benchmark. Acceptance is strictly improving, so a
//! tuned entry with more cycles than the default is a tuner bug — the
//! bin exits non-zero on one (the CI tuning gate relies on this).
//!
//! `--report-dir`/`--trace-dir` additionally write each benchmark's full
//! [`twill_obs::TuningReport`] JSON and Perfetto search trace (the CI
//! gate uploads both as artifacts). The search is seeded and
//! deterministic: same tree, seed, and benchmark set ⇒ byte-identical
//! outputs.
//!
//! `--obs-ring-capacity` or `--strict-obs` arm the event recorder on each
//! benchmark's *baseline* run (trials always run untraced — tracing is
//! observation-only either way), with the shared ring default of
//! [`twill::cli`]; truncation warns on stderr, never silent, and exits
//! non-zero under `--strict-obs`.

use std::path::Path;
use std::process::ExitCode;

use twill::cli::{self, RingArgs};
use twill::{Compiler, TuneOptions};
use twill_obs::json::{self, Json, ToJson};

/// Default path of the tuning record, relative to the repo root.
const TUNING_PATH: &str = "BENCH_tuning.json";

struct Args {
    out: String,
    seed: u64,
    rounds: usize,
    benches: Option<Vec<String>>,
    report_dir: Option<String>,
    trace_dir: Option<String>,
    ring: RingArgs,
}

fn usage() -> ! {
    eprintln!(
        "usage: tune [--out FILE] [--seed N] [--rounds N] [--bench a,b,c] \
         [--report-dir DIR] [--trace-dir DIR] \
         [--obs-ring-capacity N] [--strict-obs]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        out: TUNING_PATH.into(),
        seed: 0,
        rounds: 4,
        benches: None,
        report_dir: None,
        trace_dir: None,
        ring: RingArgs::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = it.next().unwrap_or_else(|| usage()),
            "--seed" => args.seed = cli::value(&mut it).unwrap_or_else(|| usage()),
            "--rounds" => args.rounds = cli::value(&mut it).unwrap_or_else(|| usage()),
            "--bench" => {
                let list = it.next().unwrap_or_else(|| usage());
                args.benches =
                    Some(list.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect());
            }
            "--report-dir" => args.report_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--trace-dir" => args.trace_dir = Some(it.next().unwrap_or_else(|| usage())),
            flag if args.ring.take(flag, &mut it) => {}
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let all = chstone::all();
    let selected: Vec<&chstone::Benchmark> = all
        .iter()
        .filter(|b| args.benches.as_ref().is_none_or(|names| names.iter().any(|n| n == b.name)))
        .collect();
    if selected.is_empty() {
        eprintln!("tune: no benchmark matches {:?}", args.benches);
        return ExitCode::FAILURE;
    }
    for dir in [&args.report_dir, &args.trace_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("tune: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut rows = Vec::new();
    let mut regressed = false;
    let mut improved = 0usize;
    let mut dropped = Vec::new();
    for b in &selected {
        let build = Compiler::new()
            .partitions(b.partitions)
            .compile(b.name, b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let input = chstone::input_for(b.name, twill_bench::BASELINE_SCALE);
        let cfg = twill::SimulationConfig {
            trace_events: args.ring.trace_events(false),
            ..build.sim_config()
        };
        let topts =
            TuneOptions { seed: args.seed, max_rounds: args.rounds, bench: b.name.to_string() };
        let outcome = match twill::tune(&build, &input, &cfg, &topts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("tune: {} baseline run failed: {e}", b.name);
                return ExitCode::FAILURE;
            }
        };
        dropped.push((b.name, outcome.dropped_events));
        let r = &outcome.report;
        if r.tuned_cycles > r.baseline_cycles {
            eprintln!(
                "tune: REGRESSION: {} tuned to {} cycles from {} — strictly-improving \
                 acceptance is broken",
                b.name, r.tuned_cycles, r.baseline_cycles
            );
            regressed = true;
        }
        if r.tuned_cycles < r.baseline_cycles {
            improved += 1;
        }
        println!(
            "  {:<10} {:>10} \u{2192} {:>10} cycles ({:.2}x, {} trial(s))  {}",
            b.name,
            r.baseline_cycles,
            r.tuned_cycles,
            r.speedup(),
            r.trials.len(),
            r.tuned.as_flags()
        );
        for h in &r.hints {
            println!("      {h}");
        }
        if let Some(dir) = &args.report_dir {
            let f = Path::new(dir).join(format!("{}_tuning.json", b.name));
            if let Err(e) = std::fs::write(&f, r.to_json()) {
                eprintln!("tune: cannot write {}: {e}", f.display());
                return ExitCode::FAILURE;
            }
        }
        if let Some(dir) = &args.trace_dir {
            let f = Path::new(dir).join(format!("{}_search_trace.json", b.name));
            if let Err(e) = std::fs::write(&f, r.search_trace()) {
                eprintln!("tune: cannot write {}: {e}", f.display());
                return ExitCode::FAILURE;
            }
        }
        rows.push(Json::obj([
            ("bench", Json::from(b.name)),
            ("default_cycles", r.baseline_cycles.into()),
            ("tuned_cycles", r.tuned_cycles.into()),
            ("trials", r.trials.len().into()),
            ("speedup", r.speedup().into()),
            ("tuned_flags", r.tuned.as_flags().into()),
        ]));
    }

    let doc = render_json(args.seed, args.rounds, &rows);
    if let Err(e) = std::fs::write(&args.out, doc) {
        eprintln!("tune: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "tuning record written to {}: {}/{} benchmark(s) improved, seed {}",
        args.out,
        improved,
        rows.len(),
        args.seed
    );
    if let Err(code) = args.ring.check_data_loss("tune", dropped, false) {
        return code;
    }
    if regressed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `BENCH_tuning.json`: benchmark × {default, tuned} cycles + trial
/// count. Cycle data is deterministic; env metadata is provenance.
fn render_json(seed: u64, rounds: usize, rows: &[Json]) -> String {
    json::print(&Json::obj([
        ("seed", Json::from(seed)),
        ("rounds", rounds.into()),
        ("env", Json::obj(twill_bench::env_metadata())),
        ("benches", Json::Arr(rows.to_vec())),
    ]))
}
