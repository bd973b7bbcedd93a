//! Compare a fresh measurement of the suite against a recorded baseline —
//! the perf-regression gate CI runs on every PR.
//!
//! ```console
//! compare [--against FILE] [--report FILE] [--max-wall-factor F] [--verbose]
//! ```
//!
//! Re-simulates every benchmark × mode entry of the baseline and diffs the
//! metrics with the `twill-obs` diff engine. Simulated cycles must match
//! the baseline **exactly** — the simulator is deterministic, so any delta
//! is a real behaviour change and fails the gate with a ranked stall-class
//! attribution in the log. Wall-clock compile-stage timings are
//! environment noise; they only fail the gate when a benchmark's total
//! compile time exceeds `--max-wall-factor` (default 5x) times the
//! recorded value. `--report` additionally writes the full diff report as
//! JSON (the CI artifact).

use twill_obs::baseline::Baseline;
use twill_obs::json::{self, Json};

struct Args {
    against: String,
    report: Option<String>,
    max_wall_factor: f64,
    verbose: bool,
}

fn usage() -> ! {
    eprintln!("usage: compare [--against FILE] [--report FILE] [--max-wall-factor F] [--verbose]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        against: twill_bench::BASELINE_PATH.to_string(),
        report: None,
        max_wall_factor: 5.0,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--against" => args.against = it.next().unwrap_or_else(|| usage()),
            "--report" => args.report = Some(it.next().unwrap_or_else(|| usage())),
            "--max-wall-factor" => {
                args.max_wall_factor =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--verbose" => args.verbose = true,
            _ => usage(),
        }
    }
    args
}

/// Ignore wall-clock comparison below this baseline total: timer jitter
/// on a sub-millisecond stage is not a regression signal.
const WALL_FLOOR_NS: u64 = 1_000_000;

fn main() {
    let args = parse_args();
    let baseline = Baseline::load(std::path::Path::new(&args.against)).unwrap_or_else(|e| {
        eprintln!("compare: {e}");
        std::process::exit(2);
    });

    eprintln!("re-measuring {} baseline entries...", baseline.entries.len());
    let current = twill_bench::collect_baseline();

    let mut failures: Vec<String> = Vec::new();
    let mut report_json: Vec<Json> = Vec::new();
    let mut clean = 0usize;

    for base in &baseline.entries {
        let label = format!("{} {}", base.bench, base.mode);
        let Some(now) = current.find(&base.bench, &base.mode) else {
            failures.push(format!("{label}: entry missing from current measurement"));
            continue;
        };
        let d = twill_obs::diff(&base.metrics, &now.metrics);
        report_json.push(d.to_tree(&label));
        if d.cycle_delta == 0 && !d.structural {
            clean += 1;
            if args.verbose {
                println!("ok {label}: {} cycles (no delta)", base.cycles());
            }
            if !d.is_zero() {
                // Same cycle count but counters moved: worth a line even
                // though the gate only keys on cycles.
                println!("note {}", d.headline(&label));
            }
        } else {
            failures.push(d.headline(&label));
            print!("{}", d.render_text(&format!("FAIL {label}")));
        }
    }

    // Wall-clock: generous noise band around the recorded stage totals.
    for s in &baseline.stages {
        let Some(now) = current.find_stages(&s.bench) else { continue };
        let (base_ns, now_ns) = (s.total_ns(), now.total_ns());
        if base_ns < WALL_FLOOR_NS {
            continue;
        }
        let factor = now_ns as f64 / base_ns as f64;
        if factor > args.max_wall_factor {
            failures.push(format!(
                "{}: compile stages took {:.1} ms vs {:.1} ms recorded ({factor:.1}x > {:.1}x band)",
                s.bench,
                now_ns as f64 / 1e6,
                base_ns as f64 / 1e6,
                args.max_wall_factor
            ));
        } else if args.verbose {
            println!(
                "ok {} stages: {:.1} ms vs {:.1} ms recorded ({factor:.2}x)",
                s.bench,
                now_ns as f64 / 1e6,
                base_ns as f64 / 1e6
            );
        }
    }

    if let Some(f) = &args.report {
        let doc = json::print(&Json::obj([
            ("diffs", Json::Arr(report_json)),
            ("failures", failures.len().into()),
            ("entries", baseline.entries.len().into()),
        ]));
        std::fs::write(f, doc).unwrap_or_else(|e| {
            eprintln!("compare: cannot write {f}: {e}");
            std::process::exit(2);
        });
        println!("compare report written to {f}");
    }

    if failures.is_empty() {
        println!(
            "perf gate PASS: {clean}/{} entries match the baseline exactly",
            baseline.entries.len()
        );
    } else {
        println!("perf gate FAIL ({} regression(s)):", failures.len());
        for f in &failures {
            println!("  {f}");
        }
        std::process::exit(1);
    }
}
