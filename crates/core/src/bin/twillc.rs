//! `twillc` — the Twill compiler as a command-line tool.
//!
//! ```console
//! twillc program.c [--partitions N] [--sw-fraction F] [--queue-depth D]
//!        [--queue-depths q0=4,q1=32]
//!        [--allow-recursion] [--run] [--input 1,2,3] [--emit-verilog FILE]
//!        [--emit-ir FILE] [--stats] [--profile] [--annotate FILE]
//!        [--folded FILE] [--profile-json FILE] [--trace FILE]
//!        [--metrics FILE] [--metrics-text FILE] [--compare BASELINE]
//!        [--compare-profile PROFILE.json] [--compare-timeline TIMELINE.json]
//!        [--sample-interval N] [--timeline-out FILE] [--phases FILE]
//!        [--obs-ring-capacity N]
//!        [--strict-obs] [--fault-rate R] [--fault-seed N]
//!        [--watchdog CYCLES] [--resilient]
//!        [--hw-counters] [--emit-regmap FILE] [--counter-dump FILE]
//!        [--tune] [--tune-report FILE] [--tune-trace FILE]
//!        [--tune-seed N] [--tune-rounds N]
//! ```
//!
//! The observability flags (`--trace` through `--strict-obs`, plus
//! `--emit-regmap` and `--counter-dump`) are shared with the `profile`
//! bench bin through [`twill::cli`]: same spelling, defaults and output.
//!
//! `--hw-counters` instruments the emitted Verilog with the synthesizable
//! `twill_perf` register file (DESIGN.md §14): per-thread busy/stall/idle
//! cycle counters and per-queue push/pop/stall counters, readable over the
//! existing runtime interface. `--emit-regmap` writes the machine-readable
//! register map (JSON) that describes every readback word; `--counter-dump`
//! runs the hybrid simulation and writes the word-for-word counter dump a
//! host would read from the hardware — decode it against the register map
//! to recover the exact simulator metrics. Either artifact flag implies
//! `--hw-counters`. `--metrics-text` writes the run's metrics in the
//! Prometheus text exposition format for scrape-based dashboards.
//!
//! `--tune` runs the profile-guided auto-tuner (DESIGN.md §13): it
//! searches DSWP split points and per-queue depths to minimize hybrid
//! cycles and prints the tuning report — every accepted move names the
//! observability signal and C line that proposed it, and the win is
//! proved through the metrics diff engine. `--tune-report` writes the
//! full report as JSON; `--tune-trace` writes the *search itself* as a
//! Perfetto trace (one track per search arm, a counter track for
//! best-so-far cycles); `--tune-seed`/`--tune-rounds` control the seeded
//! deterministic search (same program + seed ⇒ byte-identical outputs).
//!
//! `--fault-rate` injects deterministic faults (queue bit flips, drops,
//! duplications, transient hardware-thread stalls, memory upsets) at the
//! given per-cycle rate, seeded by `--fault-seed` (default 1) — same
//! seed, same faults; `--watchdog` sets the no-progress window before a
//! hung run is diagnosed into a wait-for-graph hang report; `--resilient`
//! retries a failing hybrid with fresh seeds and degrades to pure
//! software instead of failing.
//!
//! `--profile` prints the hybrid run's stall/utilization table plus
//! compiler-stage timings; `--annotate` writes the C source with a
//! per-line cycles/stall-class gutter (plus the top stall sites; give
//! `/dev/stdout` to print it); `--folded` writes folded-stack lines for
//! flamegraph tooling; `--profile-json` writes the line-granular profile
//! as JSON (feed it to a later `--compare-profile`); `--trace` writes a
//! Chrome/Perfetto `trace_event` JSON (open at <https://ui.perfetto.dev>)
//! with the compiler stages and the cycle-level simulator timeline;
//! `--metrics` writes the structured metrics report as JSON; `--compare`
//! diffs the hybrid run against the matching entry of a recorded
//! baseline (`BENCH_baseline.json`) and prints the ranked cycle-delta
//! attribution — add `--compare-profile` with a previously saved
//! `--profile-json` file and the diff also names the source line the
//! regression comes from. `--strict-obs` or `--obs-ring-capacity` arm
//! the event ring even without `--trace` (default
//! [`cli::DEFAULT_RING_CAPACITY`] events); lost events always warn on
//! stderr, and under `--strict-obs` they turn into a non-zero exit.
//!
//! `--sample-interval N` snapshots every cycle-class and queue counter
//! each N cycles into a sampled timeline (printed as a per-interval
//! table); `--timeline-out` writes that timeline as JSON (feed it to a
//! later `--compare-timeline`); `--phases` segments the timeline into
//! execution phases — runs of intervals with the same dominant
//! stall-class signature — names each phase's hottest C line, prints the
//! phase table and writes it as JSON; `--compare-timeline` with a
//! previously saved timeline makes `--compare` attribute the cycle delta
//! phase by phase ("the +41k cycles come from phase 2 of 5"). Timeline
//! flags without an explicit `--sample-interval` default to one sample
//! every [`cli::DEFAULT_SAMPLE_INTERVAL`] cycles; a sampled `--trace`
//! additionally carries per-thread/per-class and per-queue-occupancy
//! counter tracks over time.
//!
//! Set `TWILL_NO_FAST_FORWARD=1` to run the simulator's naive
//! tick-every-cycle loop instead of the event-driven fast-forward core
//! (they are observably identical by contract).

use std::process::ExitCode;
use std::str::FromStr;
use twill::cli::{self, ObsArgs};
use twill::Compiler;
use twill_obs::{FromJson, ToJson};

#[derive(Default)]
struct Args {
    source: Option<String>,
    partitions: usize,
    sw_fraction: Option<f64>,
    queue_depth: Option<u32>,
    queue_depths: Vec<(usize, u32)>,
    allow_recursion: bool,
    run: bool,
    input: Vec<i32>,
    emit_verilog: Option<String>,
    emit_ir: Option<String>,
    stats: bool,
    profile: bool,
    compare: Option<String>,
    compare_profile: Option<String>,
    compare_timeline: Option<String>,
    fault_rate: Option<f64>,
    fault_seed: u64,
    watchdog: Option<u64>,
    resilient: bool,
    hw_counters: bool,
    tune: bool,
    tune_report: Option<String>,
    tune_trace: Option<String>,
    tune_seed: u64,
    tune_rounds: usize,
    obs: ObsArgs,
}

/// Hybrid attempts before `--resilient` degrades to pure software.
const RESILIENT_ATTEMPTS: u32 = 3;

/// Parse `q0=4,q1=32` (the `q` prefix is optional) into per-queue depth
/// overrides. `None` on any malformed entry or a zero depth.
fn parse_queue_depths(list: &str) -> Option<Vec<(usize, u32)>> {
    let mut out = Vec::new();
    for entry in list.split(',').filter(|s| !s.is_empty()) {
        let (id, depth) = entry.split_once('=')?;
        let id = id.trim().strip_prefix('q').unwrap_or(id.trim());
        let depth: u32 = depth.trim().parse().ok()?;
        if depth == 0 {
            return None;
        }
        out.push((id.parse().ok()?, depth));
    }
    Some(out)
}

fn usage() -> ! {
    eprintln!(
        "usage: twillc <program.c> [--partitions N] [--sw-fraction F] \
         [--queue-depth D] [--queue-depths q0=4,q1=32] \
         [--allow-recursion] [--run] [--input a,b,c] \
         [--emit-verilog FILE] [--emit-ir FILE] [--stats] [--profile] \
         [--annotate FILE] [--folded FILE] [--profile-json FILE] \
         [--trace FILE] [--metrics FILE] [--metrics-text FILE] \
         [--compare BASELINE] \
         [--compare-profile PROFILE.json] [--compare-timeline TIMELINE.json] \
         [--sample-interval N] [--timeline-out FILE] [--phases FILE] \
         [--obs-ring-capacity N] \
         [--strict-obs] [--fault-rate R] [--fault-seed N] \
         [--watchdog CYCLES] [--resilient] \
         [--hw-counters] [--emit-regmap FILE] [--counter-dump FILE] \
         [--tune] [--tune-report FILE] [--tune-trace FILE] \
         [--tune-seed N] [--tune-rounds N]"
    );
    std::process::exit(2);
}

/// The next argument as the current flag's value, or a usage error.
fn arg<T: FromStr>(it: &mut impl Iterator<Item = String>) -> T {
    cli::value(it).unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut args = Args { partitions: 3, fault_seed: 1, tune_rounds: 4, ..Default::default() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--partitions" => args.partitions = arg(&mut it),
            "--sw-fraction" => args.sw_fraction = Some(arg(&mut it)),
            "--queue-depth" => args.queue_depth = Some(arg(&mut it)),
            "--queue-depths" => {
                args.queue_depths =
                    parse_queue_depths(&arg::<String>(&mut it)).unwrap_or_else(|| usage())
            }
            "--allow-recursion" => args.allow_recursion = true,
            "--run" => args.run = true,
            "--input" => {
                args.input = arg::<String>(&mut it)
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--emit-verilog" => args.emit_verilog = Some(arg(&mut it)),
            "--emit-ir" => args.emit_ir = Some(arg(&mut it)),
            "--stats" => args.stats = true,
            "--profile" => args.profile = true,
            "--compare" => args.compare = Some(arg(&mut it)),
            "--compare-profile" => args.compare_profile = Some(arg(&mut it)),
            "--compare-timeline" => args.compare_timeline = Some(arg(&mut it)),
            "--fault-rate" => args.fault_rate = Some(arg(&mut it)),
            "--fault-seed" => args.fault_seed = arg(&mut it),
            "--watchdog" => args.watchdog = Some(arg(&mut it)),
            "--resilient" => args.resilient = true,
            "--hw-counters" => args.hw_counters = true,
            "--tune" => args.tune = true,
            "--tune-report" => args.tune_report = Some(arg(&mut it)),
            "--tune-trace" => args.tune_trace = Some(arg(&mut it)),
            "--tune-seed" => args.tune_seed = arg(&mut it),
            "--tune-rounds" => args.tune_rounds = arg(&mut it),
            "--help" | "-h" => usage(),
            flag if args.obs.take(flag, &mut it) => {}
            other if !other.starts_with('-') && args.source.is_none() => {
                args.source = Some(other.to_string())
            }
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(path) = args.source.clone() else { usage() };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("twillc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = std::path::Path::new(&path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program")
        .to_string();

    let mut compiler = Compiler::new()
        .partitions(args.partitions)
        .allow_recursion(args.allow_recursion)
        .hw_counters(args.hw_counters || args.obs.hw_counters());
    if let Some(f) = args.sw_fraction {
        compiler = compiler.sw_fraction(f);
    }
    if let Some(d) = args.queue_depth {
        compiler = compiler.queue_depth(d);
    }
    if !args.queue_depths.is_empty() {
        compiler = compiler.queue_depths(args.queue_depths.clone());
    }

    let build = match compiler.compile(&name, &src) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{path}:{e}");
            return ExitCode::FAILURE;
        }
    };

    let s = build.stats();
    println!(
        "compiled {name}: {} partition(s), {} hardware thread(s), {} queue(s), {} semaphore(s)",
        s.partitions, s.hw_threads, s.queues, s.semaphores
    );

    if args.stats {
        let a = build.area();
        println!(
            "area: LegUp {} LUTs | Twill HW threads {} | + runtime {} | + Microblaze {}",
            a.legup.luts, a.twill_hw_threads.luts, a.twill_total.luts, a.twill_plus_microblaze.luts
        );
        println!("instructions per partition: {:?}", s.insts_per_partition);
    }

    if let Some(f) = &args.emit_ir {
        let text = twill_ir::printer::print_module(&build.dswp().module);
        if let Err(e) = std::fs::write(f, text) {
            eprintln!("twillc: cannot write {f}: {e}");
            return ExitCode::FAILURE;
        }
        println!("partitioned IR written to {f}");
    }

    if let Some(f) = &args.emit_verilog {
        if let Err(e) = std::fs::write(f, build.verilog().as_bytes()) {
            eprintln!("twillc: cannot write {f}: {e}");
            return ExitCode::FAILURE;
        }
        println!("hardware-thread Verilog written to {f}");
    }

    if args.tune || args.tune_report.is_some() || args.tune_trace.is_some() {
        // The tuner gets the same watchdog as the main run, but never
        // fault injection: it optimizes the healthy machine.
        let mut tune_cfg = build.sim_config();
        if let Some(w) = args.watchdog {
            tune_cfg.watchdog_window = w;
        }
        let topts = twill::TuneOptions {
            seed: args.tune_seed,
            max_rounds: args.tune_rounds,
            bench: name.clone(),
        };
        let outcome = match twill::tune(&build, &args.input, &tune_cfg, &topts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("twillc: tuning baseline run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", outcome.report.render_text());
        if let Some(f) = &args.tune_report {
            if let Err(e) = std::fs::write(f, outcome.report.to_json()) {
                eprintln!("twillc: cannot write {f}: {e}");
                return ExitCode::FAILURE;
            }
            println!("tuning report written to {f}");
        }
        if let Some(f) = &args.tune_trace {
            if let Err(e) = std::fs::write(f, outcome.report.search_trace()) {
                eprintln!("twillc: cannot write {f}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "search trace written to {f} ({} trial(s)) — open at https://ui.perfetto.dev",
                outcome.report.trials.len()
            );
        }
    }

    let observing = args.run
        || args.profile
        || args.compare.is_some()
        || args.compare_profile.is_some()
        || args.compare_timeline.is_some()
        || args.obs.needs_run();
    let mut report = None;
    if observing {
        // One hybrid run serves --run, --profile, --compare and every
        // observability artifact; it records what those flags need.
        let mut cfg = twill::SimulationConfig {
            fault: args
                .fault_rate
                .map(|r| twill::FaultPlan::new(args.fault_seed, twill::FaultSpec::uniform(r))),
            ..args.obs.sim_config(
                build.sim_config(),
                args.compare_profile.is_some(),
                args.compare_timeline.is_some(),
            )
        };
        if let Some(w) = args.watchdog {
            cfg.watchdog_window = w;
        }
        let tw = if args.resilient {
            match build.run_resilient(args.input.clone(), &cfg, RESILIENT_ATTEMPTS) {
                Ok(outcome) => {
                    for f in &outcome.failures {
                        eprintln!("twillc: {f}");
                    }
                    println!("resilient run served by {}", outcome.served_by);
                    outcome.report
                }
                Err(e) => {
                    eprintln!("twillc: resilient run failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            match build.simulate_hybrid_with(args.input.clone(), &cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("twillc: hybrid simulation failed: {e}");
                    if let Some(hang) = e.hang_report() {
                        eprintln!("{hang}");
                    }
                    return ExitCode::FAILURE;
                }
            }
        };

        if args.run {
            let sw = build.simulate_pure_sw(args.input.clone());
            let hw = build.simulate_pure_hw(args.input.clone());
            match (sw, hw) {
                (Ok(sw), Ok(hw)) => {
                    if sw.output != tw.output || sw.output != hw.output {
                        if cfg.fault.is_some() {
                            // Expected failure mode under injection: the
                            // cross-configuration check caught it.
                            eprintln!("twillc: injected faults corrupted the output");
                        } else {
                            eprintln!("twillc: CONFIGURATION OUTPUTS DIVERGED (bug!)");
                        }
                        return ExitCode::FAILURE;
                    }
                    println!("output: {:?}", tw.output);
                    println!(
                        "cycles: pure SW {} | pure HW {} ({:.2}x) | Twill {} ({:.2}x vs SW, {:.2}x vs HW)",
                        sw.cycles,
                        hw.cycles,
                        sw.cycles as f64 / hw.cycles as f64,
                        tw.cycles,
                        sw.cycles as f64 / tw.cycles as f64,
                        hw.cycles as f64 / tw.cycles as f64
                    );
                }
                (sw, hw) => {
                    for (name, r) in [("SW", sw.err()), ("HW", hw.err())] {
                        if let Some(e) = r {
                            eprintln!("twillc: {name} simulation failed: {e}");
                        }
                    }
                    return ExitCode::FAILURE;
                }
            }
        }

        if args.profile {
            let c = build.graph().counters();
            let spans = build.graph().spans();
            println!(
                "{}",
                twill_obs::profile_report(
                    &name,
                    &tw.metrics(),
                    Some(twill_obs::StageSection { spans: &spans, runs: c.runs(), hits: c.hits() }),
                )
            );
        }

        if args.obs.sample_interval.is_some() {
            let t = tw.timeline.as_ref().expect("sampling was enabled");
            print!("{}", twill_obs::timeline_table(t));
        }

        let source_profile = tw.source_profile(&build.dswp().module);

        if let Some(f) = &args.compare {
            let baseline = match twill_obs::Baseline::load(std::path::Path::new(f)) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("twillc: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let Some(entry) = baseline.find(&name, "hybrid") else {
                eprintln!("twillc: no `{name} hybrid` entry in {f}");
                return ExitCode::FAILURE;
            };
            // With a saved line-granular profile, name the source line
            // the regression comes from.
            let hint = args.compare_profile.as_ref().and_then(|pf| {
                let text = match std::fs::read_to_string(pf) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("twillc: cannot read {pf}: {e}");
                        std::process::exit(1);
                    }
                };
                let base_profile =
                    twill_obs::SourceProfile::from_json_str(&text).unwrap_or_else(|e| {
                        eprintln!("twillc: {pf}: {e}");
                        std::process::exit(1);
                    });
                let cur = source_profile.as_ref().expect("profiling was enabled");
                twill_obs::line_regression(&base_profile, cur)
            });
            let d = twill_obs::diff(&entry.metrics, &tw.metrics());
            let label = format!("{name} hybrid");
            if d.is_zero() {
                println!("compare {label}: identical to baseline ({} cycles)", entry.cycles());
            } else {
                let file = std::path::Path::new(&path)
                    .file_name()
                    .and_then(|s| s.to_str())
                    .unwrap_or(&path);
                print!("{}", d.render_text_with_line_hint(&label, hint.map(|(l, c)| (file, l, c))));
            }
        }

        if let Some(tf) = &args.compare_timeline {
            // Segment both timelines into phases and attribute the cycle
            // delta phase by phase; the per-phase deltas sum exactly to
            // the total because phases tile each run.
            let text = match std::fs::read_to_string(tf) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("twillc: cannot read {tf}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let base_t = match twill_obs::Timeline::from_json_str(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("twillc: {tf}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let t = tw.timeline.as_ref().expect("sampling was enabled");
            if base_t.sample_interval != t.sample_interval {
                eprintln!(
                    "twillc: WARN: baseline timeline sampled every {} cycles, this run \
                     every {} — phase alignment may be coarse",
                    base_t.sample_interval, t.sample_interval
                );
            }
            let base_phases = twill_obs::segment(&base_t);
            let mut new_phases = twill_obs::segment(t);
            if let Some(sp) = source_profile.as_ref() {
                new_phases.annotate(sp);
            }
            let cycle_delta = (tw.cycles as i64).saturating_sub(base_t.total_cycles() as i64);
            let deltas = twill_obs::phase_attribution(&base_phases, &new_phases);
            if cycle_delta == 0 && deltas.iter().all(|d| d.delta == 0) {
                println!("compare timeline: identical phase timing ({} cycles)", tw.cycles);
            } else {
                print!("{}", twill_obs::render_phase_attribution(&deltas, cycle_delta));
            }
        }
        report = Some(tw);
    }

    if let Err(e) = args.obs.write(&src, &build, report.as_ref()) {
        eprintln!("twillc: {e}");
        return ExitCode::FAILURE;
    }
    let dropped = report.iter().map(|tw| (&name, tw.dropped_events));
    args.obs.ring.check_data_loss("twillc", dropped, false).err().unwrap_or(ExitCode::SUCCESS)
}
