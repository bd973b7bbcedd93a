//! `faults` — the deterministic fault-injection campaign driver.
//!
//! ```console
//! faults [--benches a,b,c] [--rates 1e-6,1e-5,1e-4] [--seed N]
//!        [--attempts K] [--scale S] [--watchdog CYCLES] [--json FILE]
//!        [--strict-obs] [--obs-ring-capacity N]
//! ```
//!
//! Sweeps per-cycle fault rates across the CHStone suite, injecting queue
//! bit flips, dropped/duplicated messages, transient hardware-thread
//! stalls, and memory upsets, and prints the survival/detection/
//! corruption table. Each cell retries the hybrid with fresh derived
//! seeds and degrades to pure software when every attempt fails.
//!
//! Exit status is non-zero when any cell's *served* output is corrupt
//! (corruption that slipped past retry and fallback), or — with
//! `--strict-obs` — when observability data was lost (dropped trace
//! events or a truncated fault log). Fixed seeds make the `--json`
//! artifact byte-identical across runs. `--strict-obs` arms the event ring
//! on every run with the shared default of [`twill::cli`].

use std::process::ExitCode;
use twill::cli::{self, RingArgs};
use twill_bench::campaign::{run_campaign, CampaignOptions};

fn usage() -> ! {
    eprintln!(
        "usage: faults [--benches a,b,c] [--rates r1,r2] [--seed N] \
         [--attempts K] [--scale S] [--watchdog CYCLES] [--json FILE] \
         [--strict-obs] [--obs-ring-capacity N]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut opts = CampaignOptions::default();
    let mut benches = chstone::all();
    let mut json_out: Option<String> = None;
    let mut ring = RingArgs::default();

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benches" => {
                let list = it.next().unwrap_or_else(|| usage());
                benches = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|n| chstone::by_name(n.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--rates" => {
                let list = it.next().unwrap_or_else(|| usage());
                opts.rates = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--seed" => opts.seed = cli::value(&mut it).unwrap_or_else(|| usage()),
            "--attempts" => opts.attempts = cli::value(&mut it).unwrap_or_else(|| usage()),
            "--scale" => opts.scale = cli::value(&mut it).unwrap_or_else(|| usage()),
            "--watchdog" => opts.watchdog = cli::value(&mut it).unwrap_or_else(|| usage()),
            "--json" => json_out = Some(it.next().unwrap_or_else(|| usage())),
            flag if ring.take(flag, &mut it) => {}
            _ => usage(),
        }
    }
    opts.trace_capacity = ring.trace_events(false);

    eprintln!(
        "fault campaign: {} benchmark(s) x {} rate(s), seed {}, up to {} attempt(s)...",
        benches.len(),
        opts.rates.len(),
        opts.seed,
        opts.attempts
    );
    let campaign = run_campaign(&benches, &opts);
    print!("{}", campaign.table());

    if let Some(f) = &json_out {
        if let Err(e) = std::fs::write(f, twill_obs::ToJson::to_json(&campaign)) {
            eprintln!("faults: cannot write {f}: {e}");
            return ExitCode::FAILURE;
        }
        println!("campaign JSON written to {f}");
    }

    if campaign.undetected_corruption() {
        eprintln!("faults: FAIL: a served output is corrupt");
        return ExitCode::FAILURE;
    }
    let dropped = campaign.cells.iter().map(|c| {
        (format!("{} at rate {:e}", c.bench, c.rate), c.attempts.iter().map(|a| a.obs_lost).sum())
    });
    let log_truncated = campaign.cells.iter().any(|c| c.log_truncated);
    ring.check_data_loss("faults", dropped, log_truncated).err().unwrap_or(ExitCode::SUCCESS)
}
