//! The command-line layer every tool that runs an observed simulation
//! shares: `twillc` and the `twill-bench` bins `profile`, `tune` and
//! `faults`. It owns the observability flags, their defaults, the rules
//! that decide what a run must record, the artifact writer and the
//! data-loss rule, so each flag has one spelling, one default and one
//! meaning in every tool.
//!
//! A tool's argument loop handles its own flags and falls through to
//! [`ObsArgs::take`] (or [`RingArgs::take`] for tools that write no
//! per-run artifacts); `false` from `take` is a usage error.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use crate::{SimulationConfig, TwillBuild};
use twill_obs::ToJson;
use twill_rt::SimReport;

/// Event-ring bound when a run arms the recorder without an explicit
/// `--obs-ring-capacity`: large enough that no CHStone program at its
/// default scale drops an event.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 22;

/// Sample window when a timeline flag is used without an explicit
/// `--sample-interval`: coarse enough to stay cheap on long runs, fine
/// enough that CHStone-sized programs still get several intervals.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 4096;

/// Parse the next argument as a flag's value; `None` when it is missing
/// or malformed.
pub fn value<T: FromStr>(args: &mut impl Iterator<Item = String>) -> Option<T> {
    args.next()?.parse().ok()
}

/// `--obs-ring-capacity N` and `--strict-obs`: the event ring and the
/// data-loss rule.
#[derive(Debug, Default)]
pub struct RingArgs {
    capacity: Option<usize>,
    strict: bool,
}

impl RingArgs {
    /// Consume `flag` (and its value) if it is one of these. `false` when
    /// it is not, or when its value is missing or malformed.
    pub fn take(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) -> bool {
        match flag {
            "--obs-ring-capacity" => {
                self.capacity = value(args);
                self.capacity.is_some()
            }
            "--strict-obs" => {
                self.strict = true;
                true
            }
            _ => false,
        }
    }

    /// `SimulationConfig::trace_events` for a run. The ring is armed when
    /// the run is traced, when `--strict-obs` must account for lost
    /// events, or when a capacity is given.
    pub fn trace_events(&self, traced: bool) -> usize {
        let armed = traced || self.strict || self.capacity.is_some();
        if armed {
            self.capacity.unwrap_or(DEFAULT_RING_CAPACITY)
        } else {
            0
        }
    }

    /// The data-loss rule: one WARN line on stderr per run in `dropped`
    /// that lost trace events, and under `--strict-obs` a failing exit
    /// code when any did or when `other_loss` (loss the tool accounts
    /// itself, such as a truncated fault log).
    pub fn check_data_loss(
        &self,
        tool: &str,
        dropped: impl IntoIterator<Item = (impl Display, u64)>,
        other_loss: bool,
    ) -> Result<(), ExitCode> {
        let mut lost = other_loss;
        for (run, n) in dropped.into_iter().filter(|&(_, n)| n > 0) {
            lost = true;
            eprintln!(
                "{tool}: WARN: trace truncated for {run}: {n} event(s) dropped — \
                 raise --obs-ring-capacity"
            );
        }
        if self.strict && lost {
            eprintln!("{tool}: --strict-obs: observability data was lost");
            return Err(ExitCode::FAILURE);
        }
        Ok(())
    }
}

/// The flags of one observed hybrid run: the artifacts it writes, the
/// timeline sample interval and the event ring.
#[derive(Debug, Default)]
pub struct ObsArgs {
    trace: Option<String>,
    metrics: Option<String>,
    metrics_text: Option<String>,
    profile_json: Option<String>,
    folded: Option<String>,
    annotate: Option<String>,
    timeline_out: Option<String>,
    phases: Option<String>,
    emit_regmap: Option<String>,
    counter_dump: Option<String>,
    pub sample_interval: Option<u64>,
    pub ring: RingArgs,
}

impl ObsArgs {
    /// Consume `flag` (and its value) if it is one of these. `false` when
    /// it is not, or when its value is missing or malformed.
    pub fn take(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) -> bool {
        let file = match flag {
            "--trace" => &mut self.trace,
            "--metrics" => &mut self.metrics,
            "--metrics-text" => &mut self.metrics_text,
            "--profile-json" => &mut self.profile_json,
            "--folded" => &mut self.folded,
            "--annotate" => &mut self.annotate,
            "--timeline-out" => &mut self.timeline_out,
            "--phases" => &mut self.phases,
            "--emit-regmap" => &mut self.emit_regmap,
            "--counter-dump" => &mut self.counter_dump,
            "--sample-interval" => {
                self.sample_interval = value(args);
                return self.sample_interval.is_some();
            }
            _ => return self.ring.take(flag, args),
        };
        *file = args.next();
        file.is_some()
    }

    /// The artifacts that come from a simulation run (all but the
    /// register map, which is a property of the build).
    fn run_artifacts(&self) -> [&Option<String>; 9] {
        [
            &self.trace,
            &self.metrics,
            &self.metrics_text,
            &self.profile_json,
            &self.folded,
            &self.annotate,
            &self.timeline_out,
            &self.phases,
            &self.counter_dump,
        ]
    }

    /// Whether any artifact file was requested.
    pub fn writes_files(&self) -> bool {
        self.emit_regmap.is_some() || self.run_artifacts().iter().any(|f| f.is_some())
    }

    /// Whether these flags need a hybrid simulation run.
    pub fn needs_run(&self) -> bool {
        self.sample_interval.is_some() || self.run_artifacts().iter().any(|f| f.is_some())
    }

    /// Whether the build must carry the `twill_perf` counter bank.
    pub fn hw_counters(&self) -> bool {
        self.emit_regmap.is_some() || self.counter_dump.is_some()
    }

    /// `base` with the recording these flags need: the event ring, the
    /// line profile and the sampled timeline. `line_profile` and
    /// `phases` add a caller's own needs (`twillc --compare-profile`,
    /// `--compare-timeline`). Phases need both the timeline and the line
    /// profile, because each phase is named after its hottest C line.
    pub fn sim_config(
        &self,
        base: SimulationConfig,
        line_profile: bool,
        phases: bool,
    ) -> SimulationConfig {
        let phases = phases || self.phases.is_some();
        let line_profile = line_profile
            || phases
            || self.profile_json.is_some()
            || self.folded.is_some()
            || self.annotate.is_some();
        let sampling = phases || self.sample_interval.is_some() || self.timeline_out.is_some();
        SimulationConfig {
            trace_events: self.ring.trace_events(self.trace.is_some()),
            profile: line_profile,
            sample_interval: sampling
                .then(|| self.sample_interval.unwrap_or(DEFAULT_SAMPLE_INTERVAL)),
            ..base
        }
    }

    /// Write every requested artifact of `build` and of its hybrid run
    /// `rep`, printing one line per file. With no run only the register
    /// map is written. `source` is the C text `--annotate` reprints.
    pub fn write(
        &self,
        source: &str,
        build: &TwillBuild,
        rep: Option<&SimReport>,
    ) -> Result<(), String> {
        let put = |f: &str, bytes: &[u8]| {
            std::fs::write(f, bytes).map_err(|e| format!("cannot write {f}: {e}"))
        };
        if let Some(f) = &self.emit_regmap {
            put(f, build.regmap_json().as_bytes())?;
            println!("performance-counter register map written to {f}");
        }
        let Some(rep) = rep else { return Ok(()) };
        let source_profile = rep.source_profile(&build.dswp().module);
        let sp = || source_profile.as_ref().expect("line views turn the line profile on");
        let timeline = || rep.timeline.as_ref().expect("timeline views turn sampling on");

        if let Some(f) = &self.trace {
            put(f, rep.trace_builder().spans(build.graph().spans()).build().as_bytes())?;
            println!(
                "Perfetto trace written to {f} ({} event(s), {} dropped) — open at https://ui.perfetto.dev",
                rep.events.len(),
                rep.dropped_events
            );
        }
        if let Some(f) = &self.metrics {
            put(f, rep.metrics().to_json().as_bytes())?;
            println!("metrics JSON written to {f}");
        }
        if let Some(f) = &self.metrics_text {
            put(f, rep.metrics().metrics_text().as_bytes())?;
            println!("Prometheus text metrics written to {f}");
        }
        if let Some(f) = &self.profile_json {
            put(f, sp().to_json().as_bytes())?;
            println!("line-granular profile written to {f}");
        }
        if let Some(f) = &self.folded {
            put(f, sp().folded_stacks().as_bytes())?;
            println!("folded stacks written to {f} (feed to flamegraph.pl / inferno)");
        }
        if let Some(f) = &self.annotate {
            let mut text = sp().annotate_source(source);
            text.push('\n');
            text.push_str(&sp().report(10));
            put(f, text.as_bytes())?;
            println!("annotated source written to {f}");
        }
        if let Some(f) = &self.timeline_out {
            let t = timeline();
            put(f, t.to_json().as_bytes())?;
            println!(
                "sampled timeline written to {f} ({} interval(s) of {} cycles)",
                t.intervals.len(),
                t.sample_interval
            );
        }
        if let Some(f) = &self.phases {
            let mut pr = twill_obs::segment(timeline());
            pr.annotate(sp());
            put(f, pr.to_json().as_bytes())?;
            print!("{}", pr.render_text());
            println!("phase report written to {f} ({} phase(s))", pr.phases.len());
        }
        if let Some(f) = &self.counter_dump {
            put(f, build.counter_bank(rep).dump().to_json().as_bytes())?;
            println!("hardware counter dump written to {f} (decode with --emit-regmap)");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Option<ObsArgs> {
        let mut obs = ObsArgs::default();
        let mut it = argv.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            if !obs.take(&flag, &mut it) {
                return None;
            }
        }
        Some(obs)
    }

    #[test]
    fn take_owns_the_shared_flags_and_rejects_missing_values() {
        assert!(parse(&["--phases", "p.json", "--strict-obs", "--sample-interval", "64"]).is_some());
        assert!(parse(&["--metrics"]).is_none());
        assert!(parse(&["--sample-interval", "many"]).is_none());
        assert!(parse(&["--obs-ring-capacity"]).is_none());
        assert!(parse(&["--scale", "1"]).is_none());
    }

    #[test]
    fn flags_decide_what_the_run_records() {
        let cfg = |argv: &[&str], line, phases| {
            let c = parse(argv).unwrap().sim_config(SimulationConfig::default(), line, phases);
            (c.trace_events, c.profile, c.sample_interval)
        };
        assert_eq!(cfg(&[], false, false), (0, false, None));
        assert_eq!(cfg(&["--folded", "f"], false, false), (0, true, None));
        assert_eq!(
            cfg(&["--timeline-out", "t"], false, false),
            (0, false, Some(DEFAULT_SAMPLE_INTERVAL))
        );
        assert_eq!(cfg(&["--phases", "p"], false, false), (0, true, Some(DEFAULT_SAMPLE_INTERVAL)));
        assert_eq!(cfg(&["--sample-interval", "64"], false, true), (0, true, Some(64)));
        assert_eq!(cfg(&[], true, false), (0, true, None));
        assert_eq!(cfg(&["--trace", "t"], false, false), (DEFAULT_RING_CAPACITY, false, None));
        assert_eq!(cfg(&["--strict-obs"], false, false), (DEFAULT_RING_CAPACITY, false, None));
        assert_eq!(cfg(&["--obs-ring-capacity", "8"], false, false), (8, false, None));
    }
}
