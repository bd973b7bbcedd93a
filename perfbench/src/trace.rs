//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each Twill module. Each span keeps its name, start, end, parent span,
//! op id and phase; the spans stay in memory until the run writes them out.
//! When tracing is off, [`span`] is a plain call.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The timed ops.
    Op,
    /// Set-up: what the ops depend on.
    Setup,
    /// After the timed phase: exact metrics and layer probes.
    Post,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Op => "op",
            Phase::Setup => "setup",
            Phase::Post => "post",
        }
    }
}

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: Option<u64>,
    pub phase: Phase,
    /// CHStone program the span worked on, if any.
    pub prog: Option<&'static str>,
    /// Counts measured at this boundary (IR size, cycles, …).
    pub notes: Vec<(&'static str, f64)>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn note(&self, key: &str) -> Option<f64> {
        self.notes.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    last_closed: Option<usize>,
    op: Option<u64>,
    phase: Phase,
    prog: Option<&'static str>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        last_closed: None,
        op: None,
        phase: Phase::Setup,
        prog: None,
    });
}

pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Set the phase, op id and program that new spans are tagged with.
pub fn set_context(phase: Phase, op: Option<u64>, prog: Option<&'static str>) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.phase = phase;
        r.op = op;
        r.prog = prog;
    });
}

/// Run `f` inside a span named `name` (a plain call when tracing is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        let rec = SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: r.stack.last().copied(),
            op: r.op,
            phase: r.phase,
            prog: r.prog,
            notes: Vec::new(),
        };
        r.spans.push(rec);
        let idx = r.spans.len() - 1;
        r.stack.push(idx);
        idx
    });
    let value = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans[idx].end_ns = now;
        r.stack.pop();
        r.last_closed = Some(idx);
    });
    value
}

/// Index of the most recently closed span.
pub fn last_closed() -> Option<usize> {
    if !enabled() {
        return None;
    }
    REC.with(|r| r.borrow().last_closed)
}

/// Duration of span `idx` (0 when absent).
pub fn dur_ns(idx: Option<usize>) -> u64 {
    idx.map_or(0, |i| REC.with(|r| r.borrow().spans[i].dur_ns()))
}

/// Attach a count to span `idx`.
pub fn note_at(idx: Option<usize>, key: &'static str, value: f64) {
    if let Some(i) = idx {
        REC.with(|r| r.borrow_mut().spans[i].notes.push((key, value)));
    }
}

/// Attach a count to the most recently closed span.
pub fn note(key: &'static str, value: f64) {
    note_at(last_closed(), key, value);
}

/// Index of the current unit's root: the outermost open span, else the
/// last `op` or `build` root (counts are noted after a unit closes).
fn unit_root(r: &Recorder) -> Option<usize> {
    r.stack.first().copied().or_else(|| {
        r.spans.iter().rposition(|s| s.parent.is_none() && matches!(s.name, "op" | "build"))
    })
}

/// Attach a count to the current unit root (the enclosing `op` or `build`).
pub fn note_root(key: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    note_at(REC.with(|r| unit_root(&r.borrow())), key, value);
}

/// The `nth` span named `name` within the current unit, in start order.
pub fn find(name: &str, nth: usize) -> Option<usize> {
    if !enabled() {
        return None;
    }
    REC.with(|r| {
        let r = r.borrow();
        let from = unit_root(&r)?;
        (from..r.spans.len()).filter(|&i| r.spans[i].name == name).nth(nth)
    })
}

/// The most recent span named `name` within the current unit.
pub fn find_last(name: &str) -> Option<usize> {
    if !enabled() {
        return None;
    }
    REC.with(|r| {
        let r = r.borrow();
        let from = unit_root(&r)?;
        (from..r.spans.len()).rev().find(|&i| r.spans[i].name == name)
    })
}

/// Rename the most recently closed span (a stage demand that turned out
/// to be a cache hit is the cache's time, not the stage's).
pub fn rename_last(name: &'static str) {
    if let Some(i) = last_closed() {
        REC.with(|r| r.borrow_mut().spans[i].name = name);
    }
}

pub fn phase() -> Phase {
    REC.with(|r| r.borrow().phase)
}

/// Close every open span (after a panic unwound through them).
pub fn reset_stack() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        while let Some(i) = r.stack.pop() {
            r.spans[i].end_ns = now;
        }
    });
}

/// Take every recorded span, leaving the recorder empty.
pub fn take() -> Vec<SpanRec> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.last_closed = None;
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one span never overlap (the recorder is one thread).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRec::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// The spans as a JSON document, one object per span.
pub fn to_json(spans: &[SpanRec]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\"schema\": \"twill-perfbench-spans-v1\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
             \"parent\": {}, \"op\": {}, \"phase\": \"{}\", \"prog\": {}",
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns[i],
            opt(s.parent.map(|p| p.to_string())),
            opt(s.op.map(|o| o.to_string())),
            s.phase.name(),
            opt(s.prog.map(|p| format!("\"{p}\""))),
        ));
        for (k, v) in &s.notes {
            out.push_str(&format!(", \"{k}\": {v}"));
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        set_enabled(true);
        set_context(Phase::Op, Some(7), Some("mips"));
        span("op", || {
            span("passes", || std::thread::sleep(std::time::Duration::from_millis(2)));
            note("insts", 42.0);
            span("dswp", || {});
        });
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].note("insts"), Some(42.0));
        assert!(spans.iter().all(|s| s.op == Some(7) && s.prog == Some("mips")));
        let own = self_times_ns(&spans);
        assert_eq!(own[0] + own[1] + own[2], spans[0].dur_ns());
        assert!(to_json(&spans).contains("\"name\": \"passes\""));
    }
}
