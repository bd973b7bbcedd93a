//! Metrics of a run: the end-to-end set (untraced run) and the per-layer
//! set (traced run), plus the result line.

use std::collections::BTreeMap;

use crate::run::RunResult;
use crate::trace::{self, Phase, SpanRec};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile of `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end metrics, as a user of Twill would see them.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let mut ms: Vec<f64> = r.ops.iter().map(|&(_, ns)| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    let runs = ms.len() as f64;
    let busy_s = ms.iter().sum::<f64>() / 1e3;
    vec![
        m("ops_per_s", runs / busy_s, "1/s"),
        m("op_ms_p50", percentile(&ms, 0.5), "ms"),
        m("op_ms_p90", percentile(&ms, 0.9), "ms"),
        m("setup_s", median(&r.setup_s), "s"),
        m("peak_rss_mb", r.peak_rss_mb, "MiB"),
        m("pass_frac", (runs - r.failed as f64) / runs, "ratio"),
        m("hybrid_speedup_geomean", r.exact.hybrid_speedup_geomean, "x"),
        m("twill_luts_total", r.exact.twill_luts_total as f64, "LUT"),
    ]
}

/// Spans of one layer, taken from the first phase that has any: the ops,
/// else set-up, else the post phase. Counts therefore come from a fixed
/// multiset of calls (whole rounds, identical set-ups, a fixed post phase).
struct Layers<'a> {
    spans: &'a [SpanRec],
    self_ns: Vec<u64>,
    /// Phase each metric was taken from, for the log.
    scopes: BTreeMap<&'static str, Phase>,
}

impl<'a> Layers<'a> {
    fn pick(&self, pred: impl Fn(&SpanRec) -> bool) -> (Option<Phase>, Vec<usize>) {
        for phase in [Phase::Op, Phase::Setup, Phase::Post] {
            let idx: Vec<usize> = (0..self.spans.len())
                .filter(|&i| self.spans[i].phase == phase && pred(&self.spans[i]))
                .collect();
            if !idx.is_empty() {
                return (Some(phase), idx);
            }
        }
        (None, Vec::new())
    }

    /// The spans `metrics` are computed from, noting the phase they came
    /// from.
    fn scoped(&mut self, metrics: &[&'static str], pred: impl Fn(&SpanRec) -> bool) -> Vec<usize> {
        let (phase, idx) = self.pick(pred);
        if let Some(p) = phase {
            self.scopes.extend(metrics.iter().map(|&m| (m, p)));
        }
        idx
    }

    fn mean(values: impl Iterator<Item = f64>) -> f64 {
        let (n, sum) = values.fold((0usize, 0.0), |(n, s), v| (n + 1, s + v));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean self time per call, in ms.
    fn self_ms(&mut self, metric: &'static str, name: &str, prog: Option<&str>) -> Metric {
        let idx =
            self.scoped(&[metric], |s| s.name == name && prog.is_none_or(|p| s.prog == Some(p)));
        m(metric, Self::mean(idx.iter().map(|&i| self.self_ns[i] as f64 / 1e6)), "ms")
    }

    /// Mean of a count noted on a layer's spans.
    fn count(&mut self, metric: &'static str, name: &str, key: &str) -> Metric {
        let idx = self.scoped(&[metric], |s| s.name == name && s.note(key).is_some());
        m(metric, Self::mean(idx.iter().filter_map(|&i| self.spans[i].note(key))), "count")
    }

    fn sum_note(&self, idx: &[usize], key: &str) -> f64 {
        idx.iter().filter_map(|&i| self.spans[i].note(key)).sum()
    }

    /// Simulated Mcycles per host second of one simulation mode.
    fn mcycles_per_s(&mut self, metric: &'static str, name: &str) -> Metric {
        let idx = self.scoped(&[metric], |s| s.name == name);
        let host_us: f64 = idx.iter().map(|&i| self.self_ns[i] as f64 / 1e3).sum();
        m(metric, ratio(self.sum_note(&idx, "cycles"), host_us), "Mcycles/s")
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn is_sim(s: &SpanRec) -> bool {
    matches!(s.name, "rt.sw" | "rt.hw" | "rt.hybrid")
}

/// The per-layer metrics of a traced run, and the phase each came from.
pub fn per_layer(r: &RunResult) -> (Vec<Metric>, BTreeMap<&'static str, Phase>) {
    let mut l = Layers {
        spans: &r.spans,
        self_ns: trace::self_times_ns(&r.spans),
        scopes: BTreeMap::new(),
    };
    let mut out = vec![
        l.self_ms("frontend.ms", "frontend", None),
        l.count("frontend.insts", "frontend", "insts"),
        l.self_ms("pdg.ms", "pdg", None),
        l.count("pdg.nodes", "pdg", "nodes"),
        l.count("pdg.sccs", "pdg", "sccs"),
        l.self_ms("dswp.ms", "dswp", None),
        l.count("dswp.queues", "dswp", "queues"),
        l.count("dswp.hw_threads", "dswp", "hw_threads"),
        l.self_ms("passes.ms", "passes", None),
        l.self_ms("passes.aes_ms", "passes", Some("aes")),
        l.count("passes.insts", "passes", "insts"),
        l.self_ms("hls.schedule_ms", "hls.schedule", None),
        l.self_ms("hls.aes_schedule_ms", "hls.schedule", Some("aes")),
        l.count("hls.states", "hls.schedule", "states"),
        l.self_ms("hls.verilog_ms", "hls.verilog", None),
        l.count("hls.verilog_bytes", "hls.verilog", "bytes"),
    ];

    // Stage ledger of the op (or set-up build) roots that demanded stages.
    let roots = |s: &SpanRec| {
        matches!(s.name, "op" | "build")
            && s.note("stage_runs").unwrap_or(0.0) + s.note("stage_hits").unwrap_or(0.0) > 0.0
    };
    let idx = l.scoped(&["core.stage_runs", "core.stage_hits", "core.hit_ratio"], roots);
    let (runs, hits) = (l.sum_note(&idx, "stage_runs"), l.sum_note(&idx, "stage_hits"));
    let n = idx.len().max(1) as f64;
    out.push(m("core.stage_runs", runs / n, "count"));
    out.push(m("core.stage_hits", hits / n, "count"));
    out.push(m("core.hit_ratio", ratio(hits, runs + hits), "ratio"));

    out.push(l.self_ms("ir.interp_ms", "ir.interp", None));
    out.push(l.count("ir.interp_steps", "ir.interp", "steps"));

    out.push(l.self_ms("rt.sw_ms", "rt.sw", None));
    out.push(l.self_ms("rt.hw_ms", "rt.hw", None));
    out.push(l.self_ms("rt.hybrid_ms", "rt.hybrid", None));
    out.push(l.mcycles_per_s("rt.sw_mcycles_per_s", "rt.sw"));
    out.push(l.mcycles_per_s("rt.hw_mcycles_per_s", "rt.hw"));
    out.push(l.mcycles_per_s("rt.hybrid_mcycles_per_s", "rt.hybrid"));
    let sims = l.scoped(&["rt.sim_cycles", "rt.stall_frac"], is_sim);
    out.push(m("rt.sim_cycles", ratio(l.sum_note(&sims, "cycles"), sims.len() as f64), "cycles"));
    let stall = ratio(l.sum_note(&sims, "stalled_cycles"), l.sum_note(&sims, "agent_cycles"));
    out.push(m("rt.stall_frac", stall, "ratio"));
    out.push(l.self_ms("rt.fixed_ms", "rt.fixed", None));
    let naive = l.scoped(&["rt.ff_speedup"], |s| s.name == "rt.naive");
    let naive_ns: f64 = naive.iter().map(|&i| r.spans[i].dur_ns() as f64).sum();
    out.push(m("rt.ff_speedup", ratio(naive_ns, l.sum_note(&naive, "ff_ns")), "ratio"));

    out.push(l.self_ms("obs.metrics_ms", "obs.metrics", None));
    let overhead = ratio(r.traced_ns as f64 - r.untraced_ns as f64, r.untraced_ns as f64);
    out.push(m("trace.overhead_frac", overhead, "ratio"));
    (out, l.scopes)
}

/// Share of op wall time per layer (self time under the `op` roots of
/// the traced ops); `op` itself is the time no layer span covers.
pub fn layer_shares(r: &RunResult) -> Vec<(&'static str, f64)> {
    let self_ns = trace::self_times_ns(&r.spans);
    let mut root_of: Vec<Option<usize>> = vec![None; r.spans.len()];
    let mut total = 0.0;
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in r.spans.iter().enumerate() {
        root_of[i] = match s.parent {
            None => (s.phase == Phase::Op && s.name == "op").then_some(i),
            Some(p) => root_of[p],
        };
        if root_of[i].is_some() {
            if s.parent.is_none() {
                total += s.dur_ns() as f64;
            }
            *by_layer.entry(s.name).or_default() += self_ns[i] as f64;
        }
    }
    let mut shares: Vec<(&'static str, f64)> =
        by_layer.into_iter().map(|(k, v)| (k, ratio(v, total))).collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// Per op kind: how often it ran and its median time in ms (the op mix's
/// cost bands).
pub fn kind_times(r: &RunResult) -> Vec<(String, usize, f64)> {
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for &(op, ns) in &r.ops {
        by_kind.entry(op.kind()).or_default().push(ns as f64 / 1e6);
    }
    by_kind.into_iter().map(|(k, v)| (k, v.len(), median(&v))).collect()
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, r: &RunResult, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.ops.len(),
        r.failed,
        body.join(", ")
    )
}
