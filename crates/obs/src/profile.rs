//! Line-granular source profile: per-instruction cycle attribution folded
//! up to C source lines.
//!
//! The simulator (`twill-rt`) attributes every agent cycle to the
//! instruction occupying it; this module receives those samples as plain
//! data — thread name, function name, source line, printed instruction —
//! and aggregates them into the reports a user actually reads:
//!
//! * a top-N stall-site table ("where do the cycles go, and why"),
//! * folded-stack lines for flamegraph tooling,
//! * a per-line annotation gutter over the original C source,
//! * a per-line regression hint for the metrics diff engine.
//!
//! Line 0 marks synthetic work with no source counterpart (runtime
//! startup, context switches, compiler-invented glue).

use crate::json::{FromJson, Json, ToJson};
use crate::stall::{ClassCycles, StallClass};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One attribution site: a (thread, function, line, instruction) tuple and
/// the cycles it accounts for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSample {
    /// Simulator track name (`cpu`, `hw1`, …).
    pub thread: String,
    /// Function the instruction lives in; "<runtime>" for overhead cycles
    /// not tied to any instruction.
    pub func: String,
    /// 1-based C source line; 0 = synthetic (no source counterpart).
    pub line: u32,
    /// Printed IR instruction, empty for overhead pseudo-sites.
    pub inst: String,
    pub cycles: ClassCycles,
}

/// A whole run's attribution, aggregable along the
/// thread → function → line → instruction hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceProfile {
    /// Program/module name (report headers, folded-stack roots).
    pub name: String,
    pub samples: Vec<SiteSample>,
}

impl SourceProfile {
    /// Total cycles attributed to each thread, in first-seen order.
    pub fn thread_totals(&self) -> Vec<(String, u64)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.samples {
            if !totals.contains_key(s.thread.as_str()) {
                order.push(s.thread.clone());
            }
            *totals.entry(s.thread.as_str()).or_default() += s.cycles.total();
        }
        order.into_iter().map(|t| (t.clone(), totals[t.as_str()])).collect()
    }

    /// Cycle breakdown per source line, summed across threads and
    /// instructions (line 0 collects synthetic work).
    pub fn line_table(&self) -> BTreeMap<u32, ClassCycles> {
        let mut table: BTreeMap<u32, ClassCycles> = BTreeMap::new();
        for s in &self.samples {
            table.entry(s.line).or_default().add(&s.cycles);
        }
        table
    }

    /// The `n` sites losing the most cycles to stalls, most-stalled first.
    /// Ties break deterministically on (thread, func, line, inst).
    pub fn top_stall_sites(&self, n: usize) -> Vec<&SiteSample> {
        let mut sites: Vec<&SiteSample> =
            self.samples.iter().filter(|s| s.cycles.stalled() > 0).collect();
        sites.sort_by(|a, b| {
            b.cycles.stalled().cmp(&a.cycles.stalled()).then_with(|| {
                (&a.thread, &a.func, a.line, &a.inst).cmp(&(&b.thread, &b.func, b.line, &b.inst))
            })
        });
        sites.truncate(n);
        sites
    }

    /// The source line carrying the most cycles (line 0 excluded).
    pub fn hottest_line(&self) -> Option<(u32, u64)> {
        self.line_table()
            .into_iter()
            .filter(|(l, _)| *l != 0)
            .map(|(l, c)| (l, c.total()))
            .max_by_key(|&(l, t)| (t, std::cmp::Reverse(l)))
    }

    /// Folded-stack lines for flamegraph tooling: one
    /// `thread;func;line:N cycles` frame stack per site, deterministic
    /// order, synthetic sites folded as `line:?`.
    pub fn folded_stacks(&self) -> String {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.samples {
            let total = s.cycles.total();
            if total == 0 {
                continue;
            }
            let frame = if s.line == 0 {
                format!("{};{};line:?", s.thread, s.func)
            } else {
                format!("{};{};line:{}", s.thread, s.func, s.line)
            };
            *folded.entry(frame).or_default() += total;
        }
        let mut out = String::new();
        for (frame, cycles) in folded {
            let _ = writeln!(out, "{frame} {cycles}");
        }
        out
    }

    /// Annotate the original C source with a per-line cycle gutter:
    /// `cycles | dominant-stall-class | source text`. Lines without
    /// attributed cycles get an empty gutter; attributed lines beyond the
    /// end of `src` (and synthetic line-0 work) are appended as a
    /// trailer so no cycles silently vanish from the report.
    pub fn annotate_source(&self, src: &str) -> String {
        let table = self.line_table();
        let mut out = String::new();
        let _ = writeln!(out, "{:>12} {:>12}   source ({})", "cycles", "stall", self.name);
        let mut max_line = 0u32;
        for (ln, text) in src.lines().enumerate() {
            let ln = ln as u32 + 1;
            max_line = ln;
            match table.get(&ln) {
                Some(c) if c.total() > 0 => {
                    let (class, _) = c.dominant_stall();
                    let _ = writeln!(out, "{:>12} {:>12} | {}", c.total(), class, text);
                }
                _ => {
                    let _ = writeln!(out, "{:>12} {:>12} | {}", "", "", text);
                }
            }
        }
        let stragglers: Vec<(u32, &ClassCycles)> = table
            .iter()
            .filter(|(l, c)| (**l == 0 || **l > max_line) && c.total() > 0)
            .map(|(l, c)| (*l, c))
            .collect();
        if !stragglers.is_empty() {
            let _ = writeln!(out, "---");
            for (l, c) in stragglers {
                if l == 0 {
                    let _ = writeln!(out, "{:>12} {:>12} | <synthetic/runtime>", c.total(), "");
                } else {
                    let _ =
                        writeln!(out, "{:>12} {:>12} | <line {} beyond source>", c.total(), "", l);
                }
            }
        }
        out
    }

    /// Human-readable top-N stall-site report.
    pub fn report(&self, n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "top stall sites ({})", self.name);
        let sites = self.top_stall_sites(n);
        if sites.is_empty() {
            let _ = writeln!(out, "  (no stalled cycles attributed)");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:>10} {:>12} {:<6} {:<10} {:<14} inst",
            "stalled", "class", "thread", "func", "line"
        );
        for s in sites {
            let (class, _) = s.cycles.dominant_stall();
            let line = if s.line == 0 { "-".to_string() } else { s.line.to_string() };
            let _ = writeln!(
                out,
                "  {:>10} {:>12} {:<6} {:<10} {:<14} {}",
                s.cycles.stalled(),
                class,
                s.thread,
                s.func,
                line,
                s.inst
            );
        }
        out
    }
}

impl ToJson for SiteSample {
    /// `cycles` is positional, in [`StallClass::ALL`] order.
    fn to_tree(&self) -> Json {
        Json::obj([
            ("thread", Json::from(&self.thread)),
            ("func", (&self.func).into()),
            ("line", self.line.into()),
            ("inst", (&self.inst).into()),
            ("cycles", Json::arr(self.cycles.as_array())),
        ])
    }
}

impl FromJson for SiteSample {
    fn from_json(doc: &Json) -> Result<SiteSample, String> {
        let cycles: Vec<u64> = doc.req("cycles")?;
        if cycles.len() != StallClass::ALL.len() {
            return Err(format!(".cycles: needs 7 entries, found {}", cycles.len()));
        }
        Ok(SiteSample {
            thread: doc.req("thread")?,
            func: doc.req("func")?,
            line: doc.req("line")?,
            inst: doc.req("inst")?,
            cycles: ClassCycles::from_fn(|c| cycles[c.index()]),
        })
    }
}

crate::json_object!(SourceProfile { name, samples });

/// The single source line whose total cycles grew the most between two
/// profiles (the "regression comes from line N" hint for `compare`).
/// Returns `None` when no line regressed. Line 0 (synthetic) is reported
/// last-resort only if no real line regressed.
pub fn line_regression(base: &SourceProfile, new: &SourceProfile) -> Option<(u32, i64)> {
    let b = base.line_table();
    let n = new.line_table();
    let mut deltas: BTreeMap<u32, i64> = BTreeMap::new();
    for (l, c) in &n {
        *deltas.entry(*l).or_default() += c.total() as i64;
    }
    for (l, c) in &b {
        *deltas.entry(*l).or_default() -= c.total() as i64;
    }
    let pick = |synthetic: bool| {
        deltas
            .iter()
            .filter(|(l, d)| (**l == 0) == synthetic && **d > 0)
            .max_by_key(|(l, d)| (**d, std::cmp::Reverse(**l)))
            .map(|(l, d)| (*l, *d))
    };
    pick(false).or_else(|| pick(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(thread: &str, func: &str, line: u32, inst: &str, busy: u64, qe: u64) -> SiteSample {
        SiteSample {
            thread: thread.into(),
            func: func.into(),
            line,
            inst: inst.into(),
            cycles: ClassCycles { busy, queue_empty: qe, ..Default::default() },
        }
    }

    fn profile() -> SourceProfile {
        SourceProfile {
            name: "blowfish".into(),
            samples: vec![
                sample("cpu", "main", 4, "%1 = load i32 %0", 100, 0),
                sample("cpu", "main", 5, "%2 = dequeue i32 q0", 10, 400),
                sample("hw1", "main.p1", 5, "enqueue q0, %3", 50, 0),
                sample("hw1", "main.p1", 0, "", 7, 0),
            ],
        }
    }

    #[test]
    fn line_table_aggregates_across_threads() {
        let t = profile().line_table();
        assert_eq!(t[&4].total(), 100);
        assert_eq!(t[&5].total(), 460);
        assert_eq!(t[&0].total(), 7);
    }

    #[test]
    fn top_stall_sites_ranked_by_stalled_cycles() {
        let p = profile();
        let top = p.top_stall_sites(3);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].line, 5);
        assert_eq!(top[0].cycles.dominant_stall().0, StallClass::QueueEmpty);
    }

    #[test]
    fn folded_stacks_are_deterministic_and_complete() {
        let p = profile();
        let folded = p.folded_stacks();
        assert!(folded.contains("cpu;main;line:4 100\n"));
        assert!(folded.contains("cpu;main;line:5 410\n"));
        assert!(folded.contains("hw1;main.p1;line:5 50\n"));
        assert!(folded.contains("hw1;main.p1;line:? 7\n"));
        let total: u64 =
            folded.lines().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
        assert_eq!(total, p.samples.iter().map(|s| s.cycles.total()).sum::<u64>());
    }

    #[test]
    fn annotation_places_cycles_in_the_gutter() {
        let src = "int main() {\n  int x = 0;\n  x += 1;\n  use(x);\n  poll(x);\n}\n";
        let ann = profile().annotate_source(src);
        let l4 = ann.lines().nth(4).unwrap(); // header + 3 source lines
        assert!(l4.contains("100"), "line 4 gutter: {l4}");
        assert!(l4.contains("use(x);"));
        assert!(ann.contains("<synthetic/runtime>"));
    }

    #[test]
    fn json_roundtrip_preserves_samples() {
        let p = profile();
        let doc = crate::json::parse(&p.to_json()).unwrap();
        let back = SourceProfile::from_json(&doc).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn regression_hint_names_the_worst_line() {
        let base = profile();
        let mut new = profile();
        new.samples[1].cycles.queue_empty += 5000; // line 5 regresses
        assert_eq!(line_regression(&base, &new), Some((5, 5000)));
        assert_eq!(line_regression(&base, &base), None);
    }
}
