//! (Re)record the performance baseline (`BENCH_baseline.json`).
//!
//! ```console
//! baseline [--out FILE]
//! ```
//!
//! Simulates every CHStone benchmark in all three configurations
//! (sw/hw/hybrid) at the golden workload scale and writes the versioned
//! baseline document: per-entry cycle counts with the full stall-class
//! and queue-occupancy breakdown, per-benchmark compile-stage wall-clock
//! timings, and environment metadata. The cycle data is deterministic, so
//! re-running on an unchanged tree rewrites the file with identical
//! simulation numbers (only the wall-clock spans move).
//!
//! Commit the result; `twill-bench compare` and the CI perf gate judge
//! every future change against it, and the golden-cycle test in
//! `twill-rt` reads its expected counts from it.

fn main() {
    let mut out = twill_bench::BASELINE_PATH.to_string();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(f) => out = f,
                None => usage(),
            },
            _ => usage(),
        }
    }

    eprintln!("recording baseline (8 benchmarks x 3 modes)...");
    let baseline = twill_bench::collect_baseline();
    std::fs::write(&out, twill_obs::ToJson::to_json(&baseline)).unwrap_or_else(|e| {
        eprintln!("baseline: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "baseline written to {out}: {} entries, {} stage records, schema v{}",
        baseline.entries.len(),
        baseline.stages.len(),
        twill_obs::baseline::SCHEMA_VERSION
    );
    for e in &baseline.entries {
        println!("  {:<10} {:<8} {:>12} cycles", e.bench, e.mode, e.cycles());
    }
}

fn usage() -> ! {
    eprintln!("usage: baseline [--out FILE]");
    std::process::exit(2);
}
