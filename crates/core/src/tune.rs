//! `twill-tune`: the profile-guided auto-tuner that closes the
//! obs → compiler loop (DESIGN.md §13).
//!
//! The tuner reads one instrumented hybrid run — [`SimMetrics`] for the
//! stall-class and queue counters, [`SourceProfile`] for line-granular
//! attribution — and searches two arms to minimize hybrid cycles:
//!
//! * **queue-depth** — a queue whose high-water mark pins its depth while
//!   charging full-stall cycles is saturated; trials raise its simulator
//!   cap ([`SimConfig::queue_depths`]), which reuses the cached DSWP
//!   artifact and HLS schedule, so these trials cost one simulation each.
//! * **split-point** — when the software master is the critical thread the
//!   pipeline is CPU-bound, so trials lower `sw_fraction`; when a hardware
//!   thread is critical they raise it. These trials fork a [`TwillBuild`]
//!   on the same [`crate::artifacts::BuildGraph`], so repartitioning is
//!   memoized per option set.
//!
//! Every evaluated configuration becomes a [`TrialRecord`] naming the
//! observability signal and C line that proposed it; the final
//! [`TuningReport`] proves the win through the diff engine. Acceptance is
//! strictly-improving greedy, so the tuned configuration never has more
//! cycles than the paper default.
//!
//! Determinism contract: the search reads no clock and no ambient state.
//! Randomness comes from one [`SplitMix64`] stream seeded by
//! [`TuneOptions::seed`], consumed in proposal order; trials are evaluated
//! in parallel but recorded in proposal order. Same program, input, and
//! seed ⇒ byte-identical report and search trace.

use std::collections::BTreeMap;

use twill_obs::{
    diff, ClassCycles, ObsSignal, SimMetrics, SourceProfile, StallClass, TrialRecord, TunedConfig,
    TuningReport,
};
use twill_rt::fault::SplitMix64;
use twill_rt::{SimConfig, SimError};

use crate::{Compiler, TwillBuild};

/// Largest queue depth the tuner will propose (64 words keeps the FIFO
/// BRAM cost plausible for the paper's Atlys-class part).
const MAX_QUEUE_DEPTH: u32 = 64;
/// Saturated queues considered per round, busiest first.
const QUEUES_PER_ROUND: usize = 2;

/// Knobs of the search itself (the *searched* knobs live in
/// [`TunedConfig`]).
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Seed of the search's PRNG (candidate sub-sampling).
    pub seed: u64,
    /// Maximum propose→evaluate rounds; the search also stops at the
    /// first round where no trial beats the incumbent.
    pub max_rounds: usize,
    /// Benchmark name for the report; source lines are attributed to
    /// `<bench>.c`.
    pub bench: String,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions { seed: 0, max_rounds: 4, bench: "program".into() }
    }
}

/// What [`tune`] hands back: the self-proving report plus the two ways to
/// replay the winning configuration.
pub struct TuneOutcome {
    pub report: TuningReport,
    /// Replays the tuned config on the tuned build's graph: accepted
    /// queue depths as simulator caps (cheap — reuses cached artifacts).
    pub cfg: SimConfig,
    /// Rebuilds the tuned config from scratch: accepted depths baked into
    /// the *declared* FIFO depths (so Verilog and the area model see
    /// them) and the accepted `sw_fraction` applied.
    pub compiler: Compiler,
    /// Events dropped from the baseline run's trace ring. Always 0 unless
    /// the caller armed tracing via `base_cfg.trace_events`; a non-zero
    /// value means the observability data behind the tuning report is
    /// incomplete (the `--strict-obs` signal).
    pub dropped_events: u64,
}

/// Floor of the `sw_fraction` grid: the software master keeps only the
/// work DSWP cannot move (the "drain the master" probe).
const SW_FLOOR: f64 = 0.02;
/// A hardware thread busier than this never triggers a merge proposal.
const UNDERUTILIZED: f64 = 0.5;

/// One candidate configuration change. Partition moves carry the
/// `sw_fraction` they repartition at: merging threads and draining the
/// software master often only pay off *together* (neither alone beats
/// the default), so the compound is a single greedy move.
#[derive(Clone, Debug)]
enum Move {
    QueueDepth { queue: usize, from: u32, to: u32 },
    SwFraction { from: f64, to: f64 },
    Partitions { from: usize, to: usize, sw_from: f64, sw: f64 },
}

/// A proposed move with its full provenance.
#[derive(Clone, Debug)]
struct Candidate {
    mv: Move,
    arm: &'static str,
    action: String,
    signal: ObsSignal,
}

/// Search DSWP split points and per-queue depths to minimize hybrid
/// cycles for `input`, starting from `build`'s configuration. `base_cfg`
/// supplies the simulation parameters (HLS options, latencies, loop
/// mode); trials run with `profile` forced on and event tracing off —
/// both observation-only, so trial cycle counts equal plain-run counts
/// and the "tuned is never slower" guarantee transfers. The baseline run
/// honors the caller's `trace_events` ring, and any truncation it suffers
/// is reported via [`TuneOutcome::dropped_events`].
///
/// Fails only if the *baseline* run fails; trials that deadlock or time
/// out are recorded as worthless (`u64::MAX` would lie — they are simply
/// skipped) and never accepted.
pub fn tune(
    build: &TwillBuild,
    input: &[i32],
    base_cfg: &SimConfig,
    opts: &TuneOptions,
) -> Result<TuneOutcome, SimError> {
    let file = format!("{}.c", opts.bench);
    let mut rng = SplitMix64::new(opts.seed);

    // Trial template: profiling on (free in cycle terms), tracing off.
    let mut trial_cfg = base_cfg.clone();
    trial_cfg.profile = true;
    trial_cfg.trace_events = 0;

    // The baseline run alone keeps the caller's event ring: it is the one
    // run whose trace a caller may want to inspect, and its drop count is
    // surfaced so truncation is never silent. Tracing is observation-only,
    // so trial cycle counts still equal baseline cycle counts.
    let baseline_cfg = SimConfig { trace_events: base_cfg.trace_events, ..trial_cfg.clone() };
    let base_rep = build.simulate_hybrid_with(input.to_vec(), &baseline_cfg)?;
    let base_metrics = base_rep.metrics();
    let base_profile = base_rep.source_profile(&build.dswp().module);

    let mut trials = vec![TrialRecord {
        id: 0,
        round: 0,
        arm: "baseline".into(),
        action: "paper default".into(),
        signal: ObsSignal::baseline(),
        cycles: base_rep.cycles,
        best_before: u64::MAX,
        accepted: true,
        stalls: crit_breakdown(&base_metrics),
    }];
    let mut hints: Vec<String> = Vec::new();

    // Search state. `tuned_build` is Some once a repartitioning move
    // (split-point or partition-merge) landed; accepted queue depths live
    // in `trial_cfg.queue_depths` so every later trial inherits them.
    let mut tuned_build: Option<TwillBuild> = None;
    let mut accepted_partitions: Option<usize> = None;
    let mut accepted_sw: Option<f64> = None;
    let mut accepted_depths: BTreeMap<usize, u32> = BTreeMap::new();
    let mut best_cycles = base_rep.cycles;
    let mut best_metrics = base_metrics.clone();
    let mut best_profile = base_profile;

    let mut rounds = 0;
    for round in 1..=opts.max_rounds {
        let cur_sw = accepted_sw.unwrap_or(build.dswp_opts.sw_fraction);
        let cur_p = accepted_partitions.unwrap_or(build.dswp_opts.num_partitions);
        let cands = propose(&best_metrics, best_profile.as_ref(), cur_sw, cur_p, &file, &mut rng);
        if cands.is_empty() {
            break;
        }
        rounds = round;

        let cur: &TwillBuild = tuned_build.as_ref().unwrap_or(build);
        let results = crate::par::par_map(&cands, crate::par::default_threads(), |_, cand| {
            evaluate(build, cur, cur_p, input, &trial_cfg, cand)
        });

        // Accept the best strictly-improving trial (ties: first proposed).
        let winner = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|e| (i, e.cycles)))
            .filter(|&(_, c)| c < best_cycles)
            .min_by_key(|&(i, c)| (c, i))
            .map(|(i, _)| i);

        for (i, cand) in cands.iter().enumerate() {
            let accepted = Some(i) == winner;
            let (cycles, stalls) = match &results[i] {
                Some(e) => (e.cycles, crit_breakdown(&e.metrics)),
                // Failed trial (deadlock/timeout): record the failure as
                // "no better than baseline" with an empty breakdown.
                None => (u64::MAX, ClassCycles::default()),
            };
            trials.push(TrialRecord {
                id: trials.len(),
                round,
                arm: cand.arm.into(),
                action: cand.action.clone(),
                signal: cand.signal.clone(),
                cycles,
                best_before: best_cycles,
                accepted,
                stalls,
            });
        }

        let Some(w) = winner else { break };
        let eval = results[w].as_ref().expect("winner evaluated");
        let cand = &cands[w];
        hints.push(hint_for(cand));
        match cand.mv {
            Move::QueueDepth { queue, to, .. } => {
                accepted_depths.insert(queue, to);
                trial_cfg.queue_depths.push((queue, to));
            }
            Move::SwFraction { to, .. } => {
                // Repartitioning renumbers the queues, so depth overrides
                // tuned against the old partitioning are dropped.
                accepted_sw = Some(to);
                accepted_depths.clear();
                trial_cfg.queue_depths.clear();
                tuned_build = Some(fork(build, cur_p, to).build_on(build.graph()));
            }
            Move::Partitions { to, sw, .. } => {
                accepted_partitions = Some(to);
                if (sw - build.dswp_opts.sw_fraction).abs() > 1e-12 {
                    accepted_sw = Some(sw);
                }
                accepted_depths.clear();
                trial_cfg.queue_depths.clear();
                tuned_build = Some(fork(build, to, sw).build_on(build.graph()));
            }
        }
        best_cycles = eval.cycles;
        best_metrics = eval.metrics.clone();
        best_profile = eval.profile.clone();
    }

    let tuned = TunedConfig {
        partitions: accepted_partitions,
        sw_fraction: accepted_sw,
        queue_depths: accepted_depths.iter().map(|(&q, &d)| (q, d)).collect(),
    };
    let report = TuningReport {
        bench: opts.bench.clone(),
        seed: opts.seed,
        rounds,
        baseline_cycles: base_rep.cycles,
        tuned_cycles: best_cycles,
        trials,
        tuned: tuned.clone(),
        diff: diff(&base_metrics, &best_metrics),
        hints,
    };

    // Replay config: the user's cfg plus the accepted simulator caps.
    let repartitioned = accepted_sw.is_some() || accepted_partitions.is_some();
    let mut cfg = base_cfg.clone();
    cfg.queue_depths = if repartitioned {
        tuned.queue_depths.clone()
    } else {
        let mut qd = base_cfg.queue_depths.clone();
        qd.extend(tuned.queue_depths.iter().copied());
        qd
    };
    // From-scratch compiler: depths become declared FIFO depths.
    let mut compiler = if repartitioned {
        fork(
            build,
            accepted_partitions.unwrap_or(build.dswp_opts.num_partitions),
            accepted_sw.unwrap_or(build.dswp_opts.sw_fraction),
        )
    } else {
        build.compiler()
    };
    compiler.dswp.queue_depth_overrides.extend(tuned.queue_depths.iter().copied());

    Ok(TuneOutcome { report, cfg, compiler, dropped_events: base_rep.dropped_events })
}

/// A successfully simulated trial.
struct Eval {
    cycles: u64,
    metrics: SimMetrics,
    profile: Option<SourceProfile>,
}

fn evaluate(
    base: &TwillBuild,
    cur: &TwillBuild,
    cur_p: usize,
    input: &[i32],
    trial_cfg: &SimConfig,
    cand: &Candidate,
) -> Option<Eval> {
    let rep = match &cand.mv {
        Move::QueueDepth { queue, to, .. } => {
            let mut cfg = trial_cfg.clone();
            cfg.queue_depths.push((*queue, *to));
            cur.simulate_hybrid_with(input.to_vec(), &cfg).ok()?
        }
        mv @ (Move::SwFraction { .. } | Move::Partitions { .. }) => {
            let (p, sw) = match mv {
                Move::SwFraction { to, .. } => (cur_p, *to),
                Move::Partitions { to, sw, .. } => (*to, *sw),
                Move::QueueDepth { .. } => unreachable!(),
            };
            // Fresh partitioning: old queue ids are meaningless here.
            let mut cfg = trial_cfg.clone();
            cfg.queue_depths.clear();
            let f = fork(base, p, sw).build_on(base.graph());
            let rep = f.simulate_hybrid_with(input.to_vec(), &cfg).ok()?;
            let metrics = rep.metrics();
            let profile = rep.source_profile(&f.dswp().module);
            return Some(Eval { cycles: rep.cycles, metrics, profile });
        }
    };
    let metrics = rep.metrics();
    let profile = rep.source_profile(&cur.dswp().module);
    Some(Eval { cycles: rep.cycles, metrics, profile })
}

/// Compiler for a repartitioning fork of `build` at `partitions = p`,
/// `sw_fraction = sw`. Explicit split points and old depth overrides are
/// dropped: the tuner owns the split now.
fn fork(build: &TwillBuild, p: usize, sw: f64) -> Compiler {
    let mut c = build.compiler();
    c.dswp.num_partitions = p;
    c.dswp.sw_fraction = sw;
    c.dswp.split_points = None;
    c.dswp.queue_depth_overrides.clear();
    c
}

/// Propose this round's candidates from the incumbent's observability
/// artifacts. Deterministic given (metrics, profile, rng state).
fn propose(
    m: &SimMetrics,
    sp: Option<&SourceProfile>,
    cur_sw: f64,
    cur_p: usize,
    file: &str,
    rng: &mut SplitMix64,
) -> Vec<Candidate> {
    let mut out = Vec::new();

    // -- queue-depth arm: saturated queues, busiest first ----------------
    let mut sat: Vec<usize> = (0..m.queues.len())
        .filter(|&i| {
            let q = &m.queues[i];
            q.full_stalls > 0 && q.high_water >= q.depth && q.depth < MAX_QUEUE_DEPTH
        })
        .collect();
    sat.sort_by_key(|&i| (std::cmp::Reverse(m.queues[i].full_stalls), i));
    sat.truncate(QUEUES_PER_ROUND);
    for i in sat {
        let q = &m.queues[i];
        let (line, pct, thread) = attribute(sp, None, StallClass::QueueFull);
        let signal = ObsSignal {
            kind: "queue-full-saturated".into(),
            detail: format!(
                "{} high-water {}/{} with {} full-stall cycle(s)",
                q.name, q.high_water, q.depth, q.full_stalls
            ),
            queue: Some(i),
            thread,
            file: if line > 0 { file.into() } else { String::new() },
            line,
            stall_class: "queue-full".into(),
            charge_pct: pct,
        };
        for to in [q.depth * 2, q.depth * 4] {
            let to = to.min(MAX_QUEUE_DEPTH);
            if to <= q.depth {
                continue;
            }
            if out.iter().any(|c: &Candidate| {
                matches!(c.mv, Move::QueueDepth { queue, to: t, .. } if queue == i && t == to)
            }) {
                continue;
            }
            out.push(Candidate {
                mv: Move::QueueDepth { queue: i, from: q.depth, to },
                arm: "queue-depth",
                action: format!("{} depth {}\u{2192}{}", q.name, q.depth, to),
                signal: signal.clone(),
            });
        }
    }

    // -- split-point arm: move work away from the critical thread --------
    if let Some(ci) = m.critical_thread() {
        let t = &m.threads[ci];
        if m.cycles > 0 && t.cycles.busy > 0 {
            let busy_pct = 100.0 * t.cycles.busy as f64 / m.cycles as f64;
            let cpu_bound = ci == 0;
            let starved = t.cycles.queue_empty > 0;
            let (kind, class, mut fracs): (&str, StallClass, Vec<f64>) = if cpu_bound {
                // Software master bounds the pipeline: shrink its share.
                (
                    "critical-thread-cpu",
                    StallClass::Busy,
                    [0.4, 0.6, 0.8].iter().map(|k| (cur_sw * k).max(SW_FLOOR)).collect(),
                )
            } else if starved {
                // The critical hardware thread waits on empty queues fed
                // by the software master: drain the master's share so
                // operands arrive ahead of the consumer.
                (
                    "critical-thread-starved",
                    StallClass::QueueEmpty,
                    vec![(cur_sw * 0.4).max(SW_FLOOR), SW_FLOOR],
                )
            } else {
                // A purely-busy hardware thread bounds it: give the CPU
                // more of the work.
                (
                    "critical-thread-hw",
                    StallClass::Busy,
                    [1.5, 2.0, 2.5].iter().map(|k| (cur_sw * k).min(0.9)).collect(),
                )
            };
            fracs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            fracs.retain(|f| (*f - cur_sw).abs() > 1e-9);
            // Seeded sub-sampling: drop one candidate so the seed shapes
            // the walk (and the trial budget stays small).
            if fracs.len() > 2 {
                let drop = (rng.next_u64() % fracs.len() as u64) as usize;
                fracs.remove(drop);
            }
            let (line, pct, _) = attribute(sp, Some(&t.name), class);
            let detail = if starved && !cpu_bound {
                format!(
                    "{} is the critical thread yet waits on empty queues {:.0}% of {} cycles",
                    t.name,
                    100.0 * t.cycles.queue_empty as f64 / m.cycles as f64,
                    m.cycles
                )
            } else {
                format!(
                    "{} is the critical thread ({:.0}% busy of {} cycles)",
                    t.name, busy_pct, m.cycles
                )
            };
            let signal = ObsSignal {
                kind: kind.into(),
                detail,
                queue: None,
                thread: Some(t.name.clone()),
                file: if line > 0 { file.into() } else { String::new() },
                line,
                stall_class: class.name().into(),
                charge_pct: pct,
            };
            for f in fracs {
                out.push(Candidate {
                    mv: Move::SwFraction { from: cur_sw, to: f },
                    arm: "split-point",
                    action: format!("sw_fraction {:.3}\u{2192}{:.3}", cur_sw, f),
                    signal: signal.clone(),
                });
            }
        }
    }

    // -- partition arm: merge threads the partitioner can't keep busy ----
    // Compound candidates (partitions, sw_fraction): see [`Move`].
    let actual = m.threads.len(); // 1 software master + materialized HW
    let mut merges: Vec<(usize, f64)> = Vec::new();
    let mut signal: Option<ObsSignal> = None;
    if cur_p > actual && actual >= 2 {
        // DSWP could not fill the requested partition count; the declared
        // but empty partitions still shape the split targets.
        merges.extend([(actual, cur_sw), (actual, SW_FLOOR)]);
        let crit = m.critical_thread().map(|i| m.threads[i].name.clone());
        let (line, pct, _) = attribute(sp, crit.as_deref(), StallClass::QueueEmpty);
        signal = Some(ObsSignal {
            kind: "partition-collapse".into(),
            detail: format!(
                "requested {} partitions but only {} materialized ({} hw thread(s))",
                cur_p,
                actual,
                actual - 1
            ),
            queue: None,
            thread: crit,
            file: if line > 0 { file.into() } else { String::new() },
            line,
            stall_class: "queue-empty".into(),
            charge_pct: pct,
        });
    } else if actual > 2 {
        let (li, lt) = m.threads[1..]
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (t.cycles.busy, *i))
            .map(|(i, t)| (i + 1, t))
            .expect("at least one hw thread");
        let util = lt.cycles.busy as f64 / m.cycles.max(1) as f64;
        if util < UNDERUTILIZED && cur_p > 2 {
            for p in [cur_p - 1, 2] {
                for sw in [cur_sw, SW_FLOOR] {
                    if !merges.contains(&(p, sw)) {
                        merges.push((p, sw));
                    }
                }
            }
            let (class, _) = lt.cycles.dominant_stall();
            let (line, pct, _) = attribute(sp, Some(&m.threads[li].name), class);
            signal = Some(ObsSignal {
                kind: "underutilized-hw-thread".into(),
                detail: format!(
                    "{} is busy only {:.0}% of {} cycles (dominant stall: {})",
                    lt.name,
                    100.0 * util,
                    m.cycles,
                    class
                ),
                queue: None,
                thread: Some(lt.name.clone()),
                file: if line > 0 { file.into() } else { String::new() },
                line,
                stall_class: class.name().into(),
                charge_pct: pct,
            });
        }
    }
    if let Some(signal) = signal {
        merges.retain(|&(p, sw)| p != cur_p || (sw - cur_sw).abs() > 1e-9);
        // Same seeded sub-sampling as the split arm.
        while merges.len() > 3 {
            let drop = (rng.next_u64() % merges.len() as u64) as usize;
            merges.remove(drop);
        }
        for (p, sw) in merges {
            let action = if (sw - cur_sw).abs() > 1e-9 {
                format!("partitions {cur_p}\u{2192}{p} + sw_fraction {cur_sw:.3}\u{2192}{sw:.3}")
            } else {
                format!("partitions {cur_p}\u{2192}{p}")
            };
            out.push(Candidate {
                mv: Move::Partitions { from: cur_p, to: p, sw_from: cur_sw, sw },
                arm: "partition-merge",
                action,
                signal: signal.clone(),
            });
        }
    }
    out
}

/// Line-granular attribution: the 1-based C line charging the most
/// cycles to `class` (optionally restricted to one thread), the share of
/// the class total it carries, and the thread it ran on. `(0, 0.0, _)`
/// when the profile has no attributable line.
fn attribute(
    sp: Option<&SourceProfile>,
    thread: Option<&str>,
    class: StallClass,
) -> (u32, f64, Option<String>) {
    let Some(sp) = sp else { return (0, 0.0, thread.map(String::from)) };
    let mut total = 0u64;
    let mut lines: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &sp.samples {
        if thread.is_some_and(|t| t != s.thread) {
            continue;
        }
        let v = s.cycles[class];
        total += v;
        if s.line > 0 && v > 0 {
            *lines.entry(s.line).or_default() += v;
        }
    }
    // Smallest line wins ties, so attribution is order-independent.
    let best = lines.iter().max_by_key(|&(l, v)| (*v, std::cmp::Reverse(*l)));
    let Some((&line, &val)) = best else { return (0, 0.0, thread.map(String::from)) };
    let who = thread.map(String::from).or_else(|| {
        sp.samples
            .iter()
            .filter(|s| s.line == line && s.cycles[class] > 0)
            .max_by_key(|s| s.cycles[class])
            .map(|s| s.thread.clone())
    });
    let pct = if total > 0 { 100.0 * val as f64 / total as f64 } else { 0.0 };
    (line, pct, who)
}

/// The report hint for an accepted move, ISSUE-shaped: *"depth of q2
/// raised 8→32 because line 41 of jpeg.c charged 61% of stalls to
/// queue-full"*.
fn hint_for(cand: &Candidate) -> String {
    let s = &cand.signal;
    let because = if s.line > 0 {
        format!(
            "line {} of {} charged {:.0}% of {} to {}",
            s.line,
            s.file,
            s.charge_pct,
            if s.stall_class == "busy" { "busy cycles" } else { "stalls" },
            s.stall_class
        )
    } else {
        s.detail.clone()
    };
    match cand.mv {
        Move::QueueDepth { queue, from, to } => {
            format!("depth of q{queue} raised {from}\u{2192}{to} because {because}")
        }
        Move::SwFraction { from, to } => format!(
            "sw_fraction {} {from:.3}\u{2192}{to:.3} because {} ({because})",
            if to < from { "lowered" } else { "raised" },
            s.detail
        ),
        Move::Partitions { from, to, sw_from, sw } => {
            let sw_part = if (sw - sw_from).abs() > 1e-9 {
                format!(" with sw_fraction {sw_from:.3}\u{2192}{sw:.3}")
            } else {
                String::new()
            };
            format!(
                "partitions merged {from}\u{2192}{to}{sw_part} because {} ({because})",
                s.detail
            )
        }
    }
}

/// Stall-class breakdown of the critical thread of a run.
fn crit_breakdown(m: &SimMetrics) -> ClassCycles {
    m.critical_thread().map(|i| m.threads[i].cycles).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_obs::ToJson;

    const SRC: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 200; i++) {
    int x = (i * 7 + 3) ^ (i << 2);
    int y = (x % 13) * (x % 7) + (x >> 1);
    acc += (y % 11) * (y % 11) - (x & 15);
  }
  out(acc);
  return 0;
}
"#;

    fn opts(seed: u64) -> TuneOptions {
        TuneOptions { seed, max_rounds: 3, bench: "demo".into() }
    }

    #[test]
    fn tuned_never_slower_and_output_preserved() {
        let b = Compiler::new().partitions(3).compile("demo", SRC).unwrap();
        let cfg = b.sim_config();
        let out = tune(&b, &[], &cfg, &opts(1)).unwrap();
        let r = &out.report;
        assert!(r.tuned_cycles <= r.baseline_cycles, "{} > {}", r.tuned_cycles, r.baseline_cycles);
        // The replay config reproduces the tuned cycle count on the
        // tuned build (or the original when no split move landed).
        let replay = match r.tuned.sw_fraction {
            Some(_) => out.compiler.build_on(b.graph()).simulate_hybrid_with(vec![], &out.cfg),
            None => b.simulate_hybrid_with(vec![], &out.cfg),
        }
        .unwrap();
        assert_eq!(replay.cycles, r.tuned_cycles);
        assert_eq!(replay.output, b.run_reference(vec![]).unwrap());
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let b = Compiler::new().partitions(3).compile("demo", SRC).unwrap();
        let cfg = b.sim_config();
        let a = tune(&b, &[], &cfg, &opts(7)).unwrap().report;
        let b2 = tune(&b, &[], &cfg, &opts(7)).unwrap().report;
        assert_eq!(a.to_json(), b2.to_json());
        assert_eq!(a.search_trace(), b2.search_trace());
    }

    #[test]
    fn every_nonbaseline_trial_names_its_signal() {
        let b = Compiler::new().partitions(3).compile("demo", SRC).unwrap();
        let cfg = b.sim_config();
        let r = tune(&b, &[], &cfg, &opts(3)).unwrap().report;
        for t in r.trials.iter().skip(1) {
            assert_ne!(t.signal.kind, "baseline", "{:?}", t);
            assert!(!t.signal.detail.is_empty(), "{:?}", t);
        }
        // Diff proof reconciles exactly with the headline delta.
        let total: i64 = r.diff.attribution.iter().map(|c| c.delta).sum();
        assert_eq!(total, r.tuned_cycles as i64 - r.baseline_cycles as i64);
    }

    /// The merge signal for an underutilized hardware thread names the C
    /// line charging its *dominant* stall class, whichever class that is.
    #[test]
    fn underutilized_signal_follows_the_dominant_class() {
        let thread = |name: &str, cycles: ClassCycles| twill_obs::ThreadMetrics {
            name: name.into(),
            cycles,
        };
        let site = |line, cycles| twill_obs::SiteSample {
            thread: "hw2".into(),
            func: "main_dswp_2".into(),
            line,
            inst: String::new(),
            cycles,
        };
        let merge_signals = |hw2: ClassCycles, samples: Vec<twill_obs::SiteSample>| {
            let m = SimMetrics {
                cycles: 1000,
                threads: vec![
                    thread("cpu", ClassCycles { busy: 900, idle: 100, ..Default::default() }),
                    thread("hw1", ClassCycles { busy: 950, queue_empty: 50, ..Default::default() }),
                    thread("hw2", hw2),
                ],
                ..Default::default()
            };
            let sp = SourceProfile { name: "demo".into(), samples };
            let cands = propose(&m, Some(&sp), 0.25, 3, "demo.c", &mut SplitMix64::new(1));
            let merges: Vec<ObsSignal> = cands
                .into_iter()
                .filter(|c| c.arm == "partition-merge")
                .map(|c| c.signal)
                .collect();
            assert!(!merges.is_empty(), "an underutilized thread proposes merges");
            merges
        };

        // Memory-bus dominated: line 20 carries every mem-bus cycle, line
        // 12 every queue-empty cycle.
        let hw2 = ClassCycles { busy: 100, queue_empty: 300, mem_bus: 600, ..Default::default() };
        let samples = vec![
            site(12, ClassCycles { busy: 50, queue_empty: 300, ..Default::default() }),
            site(20, ClassCycles { busy: 50, mem_bus: 600, ..Default::default() }),
        ];
        for s in merge_signals(hw2, samples) {
            assert_eq!(s.kind, "underutilized-hw-thread");
            assert_eq!(s.stall_class, "mem-bus");
            assert_eq!((s.line, s.charge_pct), (20, 100.0));
            assert!(s.detail.contains("dominant stall: mem-bus"), "{}", s.detail);
        }

        // Stall-free: the busiest line, charged as busy cycles.
        let hw2 = ClassCycles { busy: 100, idle: 900, ..Default::default() };
        let samples = vec![
            site(12, ClassCycles { busy: 30, ..Default::default() }),
            site(20, ClassCycles { busy: 70, ..Default::default() }),
        ];
        for s in merge_signals(hw2, samples) {
            assert_eq!(s.stall_class, "busy");
            assert_eq!((s.line, s.charge_pct), (20, 70.0));
        }
    }
}
