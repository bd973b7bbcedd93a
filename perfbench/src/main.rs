//! `perfbench --workload <compile|simulate|explore> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics and writes the spans to
//! `perfbench/out/spans-<workload>-<seed>.json`.

use std::process::ExitCode;

use twill_perfbench::ops::Workload;
use twill_perfbench::{report, run, trace};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <compile|simulate|explore> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Percentiles need MIN_OPS op times; a traced run reports none.
    let min_ops = if args.traced { 0 } else { run::MIN_OPS };
    let res = match run::run(args.workload, args.seed, args.seconds, min_ops, args.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &res.errors {
        eprintln!("failed op: {e}");
    }
    let correct = res.failed == 0 && res.exact.outputs_ok;
    let workload = args.workload.name();
    let runs = res.ops.len();
    println!("workload {workload}, seed {}, {runs} op runs, {} failed", args.seed, res.failed);
    let metrics = if args.traced {
        let (metrics, scopes) = report::per_layer(&res);
        for x in &metrics {
            let scope = scopes.get(x.name).map_or("run", |p| p.name());
            println!("{workload}/{:<28} {:>16.6} {:<10} ({scope})", x.name, x.value, x.unit);
        }
        for (layer, share) in report::layer_shares(&res) {
            println!("{workload}/share.{layer:<22} {share:>16.4} of op time");
        }
        let path = format!("perfbench/out/spans-{workload}-{}.json", args.seed);
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, trace::to_json(&res.spans)));
        match written {
            Ok(()) => println!("spans: {} written to {path}", res.spans.len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        metrics
    } else {
        for (kind, n, ms) in report::kind_times(&res) {
            println!("{workload}/kind {kind:<24} runs {n:<5} median {ms:>9.3} ms");
        }
        let metrics = report::end_to_end(&res);
        for x in &metrics {
            println!("{workload}/{:<24} {:>16.6} {}", x.name, x.value, x.unit);
        }
        let fail_frac = res.failed as f64 / runs as f64;
        println!("{workload}/{:<24} {:>16.6} ratio", "fail_frac", fail_frac);
        metrics
    };
    println!("{}", report::result_json(correct, &res, &metrics));
    ExitCode::SUCCESS
}
