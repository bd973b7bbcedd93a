//! Deadlock diagnosis: when the watchdog sees no agent make progress for
//! a whole window, it walks the queue/semaphore wait-for graph and renders
//! a structured [`HangReport`] instead of a bare "deadlock" string.
//!
//! The wait-for graph is built from two sources:
//!
//! * **Dynamic**: each agent's in-flight blocked operation names the exact
//!   resource it is stuck on (enqueue on a full queue, dequeue on an empty
//!   one, a semaphore lower at zero) and — via the profiler's attribution
//!   site — the C source line of the blocked instruction.
//! * **Static**: which agent *could* unblock that resource is read from
//!   the IR by walking the call graph from every agent's entry functions
//!   and collecting the queues/semaphores each side touches.
//!
//! A cycle in that graph (`cpu -> q0 -> hw1 -> q1 -> cpu`) is a true
//! deadlock; a chain that dead-ends in a finished agent is the signature
//! of a lost message (e.g. an injected queue drop).

use crate::shared::OpKind;
use std::fmt;
use twill_ir::{FuncId, InstId, Intr, Module, Op, QueueId, SemId};
use twill_obs::StallClass;

/// What an agent was doing when the watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitState {
    /// Enqueue blocked on a full queue.
    QueueFull { queue: u32 },
    /// Dequeue blocked on an empty queue.
    QueueEmpty { queue: u32 },
    /// Semaphore lower blocked at zero.
    Sem { sem: u32 },
    /// Waiting for a bus grant (transient; not a steady-state blocker).
    Bus,
    /// Executing or burning latency — not resource-blocked.
    Running,
    /// Finished while the rest of the system hung.
    Finished,
}

impl WaitState {
    /// Classify an agent from its in-flight op and stall attribution.
    pub(crate) fn classify(kind: Option<OpKind>, class: StallClass, finished: bool) -> WaitState {
        if finished {
            return WaitState::Finished;
        }
        match (kind, class) {
            (Some(OpKind::Enqueue(q, _)), StallClass::QueueFull) => {
                WaitState::QueueFull { queue: q.index() as u32 }
            }
            (Some(OpKind::Dequeue(q)), StallClass::QueueEmpty) => {
                WaitState::QueueEmpty { queue: q.index() as u32 }
            }
            (Some(OpKind::SemLower(s, _)), StallClass::Sem) => {
                WaitState::Sem { sem: s.index() as u32 }
            }
            (Some(_), StallClass::MemBus | StallClass::ModuleBus) => WaitState::Bus,
            _ => WaitState::Running,
        }
    }

    /// The blocked resource's display label (`q3`, `sem0`), if any.
    fn resource(&self) -> Option<String> {
        match self {
            WaitState::QueueFull { queue } | WaitState::QueueEmpty { queue } => {
                Some(QueueId(*queue).to_string())
            }
            WaitState::Sem { sem } => Some(SemId(*sem).to_string()),
            _ => None,
        }
    }

    fn describe(&self) -> String {
        match self {
            WaitState::QueueFull { queue } => {
                format!("blocked: enqueue on full {}", QueueId(*queue))
            }
            WaitState::QueueEmpty { queue } => {
                format!("blocked: dequeue on empty {}", QueueId(*queue))
            }
            WaitState::Sem { sem } => format!("blocked: lower on sem{sem} at zero"),
            WaitState::Bus => "waiting for a bus grant".to_string(),
            WaitState::Running => "running (not resource-blocked)".to_string(),
            WaitState::Finished => "finished".to_string(),
        }
    }
}

/// One agent's entry in the hang report.
#[derive(Debug, Clone)]
pub struct AgentWait {
    /// Track name (`cpu`, `hw1`, …).
    pub name: String,
    pub state: WaitState,
    /// `(function name, 1-based C line)` of the blocked instruction (line
    /// 0 marks compiler-synthesized runtime plumbing).
    pub site: Option<(String, u32)>,
}

/// The structured diagnosis of a hung simulation.
#[derive(Debug, Clone)]
pub struct HangReport {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// The no-progress window that tripped it.
    pub window: u64,
    /// Every agent's state, in track order.
    pub agents: Vec<AgentWait>,
    /// Alternating agent / resource labels of the wait-for walk, e.g.
    /// `["cpu", "q0", "hw1", "q1", "cpu"]`. When [`Self::wait_cycle`] the
    /// first and last label coincide (a true circular wait); otherwise the
    /// chain dead-ends (typically in a finished agent — a lost message).
    pub chain: Vec<String>,
    /// Whether the chain closes into a cycle.
    pub wait_cycle: bool,
}

impl HangReport {
    /// Human-readable multi-line rendering (also used for golden tests).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hang at cycle {}: no agent progressed for {} cycles",
            self.cycle, self.window
        );
        if !self.chain.is_empty() {
            let kind = if self.wait_cycle { "wait-for cycle" } else { "wait-for chain" };
            let _ = writeln!(out, "{kind}: {}", self.chain.join(" -> "));
        }
        for a in &self.agents {
            let _ = write!(out, "  {}: {}", a.name, a.state.describe());
            match &a.site {
                Some((func, line)) if *line > 0 => {
                    let _ = write!(out, " at C line {line} (@{func})");
                }
                Some((func, _)) => {
                    let _ = write!(out, " (@{func})");
                }
                None => {}
            }
            out.push('\n');
        }
        out
    }

    /// The C source lines implicated in the hang (deduplicated, sorted).
    pub fn source_lines(&self) -> Vec<u32> {
        let mut lines: Vec<u32> = self
            .agents
            .iter()
            .filter_map(|a| a.site.as_ref())
            .map(|&(_, l)| l)
            .filter(|&l| l > 0)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

/// What the system loop knows about one agent when the watchdog fires.
pub(crate) struct AgentSnapshot {
    pub name: String,
    /// Entry functions (a CPU runs one per software thread).
    pub entries: Vec<FuncId>,
    pub state: WaitState,
    /// Profiler attribution site `(func index, inst index)` of the
    /// blocked/current instruction.
    pub site: Option<(usize, usize)>,
}

/// Per-agent static resource usage: which queues/semaphores the code
/// reachable from the agent's entries can touch.
struct Usage {
    enq: Vec<bool>,
    deq: Vec<bool>,
    raise: Vec<bool>,
}

fn usage(m: &Module, entries: &[FuncId]) -> Usage {
    let mut u = Usage {
        enq: vec![false; m.queues.len()],
        deq: vec![false; m.queues.len()],
        raise: vec![false; m.sems.len()],
    };
    let mut seen = vec![false; m.funcs.len()];
    let mut work: Vec<FuncId> = entries.to_vec();
    while let Some(fid) = work.pop() {
        if seen[fid.index()] {
            continue;
        }
        seen[fid.index()] = true;
        let f = m.func(fid);
        for inst in &f.insts {
            match &inst.op {
                Op::Intrin(Intr::Enqueue(q), _) => u.enq[q.index()] = true,
                Op::Intrin(Intr::Dequeue(q), _) => u.deq[q.index()] = true,
                Op::Intrin(Intr::SemRaise(s), _) => u.raise[s.index()] = true,
                Op::Call(callee, _) => work.push(*callee),
                _ => {}
            }
        }
    }
    u
}

/// Can agent `j` (statically) unblock an agent stuck in `state`?
fn provides(state: WaitState, u: &Usage) -> bool {
    match state {
        WaitState::QueueFull { queue } => u.deq[queue as usize],
        WaitState::QueueEmpty { queue } => u.enq[queue as usize],
        WaitState::Sem { sem } => u.raise[sem as usize],
        _ => false,
    }
}

/// Build the report: classify agents, resolve source sites, walk the
/// wait-for graph for a cycle (or the longest chain from the first
/// blocked agent).
pub(crate) fn build_hang_report(
    m: &Module,
    cycle: u64,
    window: u64,
    agents: &[AgentSnapshot],
) -> HangReport {
    let usages: Vec<Usage> = agents.iter().map(|a| usage(m, &a.entries)).collect();
    let waits: Vec<AgentWait> = agents
        .iter()
        .map(|a| AgentWait {
            name: a.name.clone(),
            state: a.state,
            site: a.site.map(|(fi, ii)| {
                let f = &m.funcs[fi];
                (f.name.clone(), f.loc(InstId::new(ii)).line)
            }),
        })
        .collect();

    // Successor of a blocked agent: prefer a provider that is itself
    // blocked (extends the walk toward a cycle), else any provider.
    let next_of = |i: usize| -> Option<usize> {
        let blocked = |j: usize| waits[j].state.resource().is_some();
        let candidates: Vec<usize> =
            (0..agents.len()).filter(|&j| j != i && provides(waits[i].state, &usages[j])).collect();
        candidates.iter().copied().find(|&j| blocked(j)).or(candidates.first().copied())
    };

    let mut chain: Vec<String> = Vec::new();
    let mut wait_cycle = false;
    if let Some(start) = (0..waits.len()).find(|&i| waits[i].state.resource().is_some()) {
        let mut path: Vec<usize> = vec![start];
        loop {
            let cur = *path.last().unwrap();
            let Some(res) = waits[cur].state.resource() else { break };
            let Some(next) = next_of(cur) else {
                // Nobody can serve this resource; end the chain at it.
                chain = interleave(&path, &waits);
                chain.push(res);
                break;
            };
            if let Some(pos) = path.iter().position(|&p| p == next) {
                // Closed a loop: report the cycle from its first entry.
                let cyc = &path[pos..];
                chain = interleave(cyc, &waits);
                if let Some(r) = waits[*cyc.last().unwrap()].state.resource() {
                    chain.push(r);
                }
                chain.push(waits[next].name.clone());
                wait_cycle = true;
                break;
            }
            path.push(next);
        }
        if chain.is_empty() {
            // Walk ended at a non-blocked agent (finished/running).
            chain = interleave(&path, &waits);
        }
    }

    HangReport { cycle, window, agents: waits, chain, wait_cycle }
}

/// Render a path of agent indices as alternating `agent -> resource`
/// labels (the resource each agent is blocked on leads to the next hop).
fn interleave(path: &[usize], waits: &[AgentWait]) -> Vec<String> {
    let mut out = Vec::with_capacity(path.len() * 2);
    for (k, &i) in path.iter().enumerate() {
        out.push(waits[i].name.clone());
        if k + 1 < path.len() {
            if let Some(r) = waits[i].state.resource() {
                out.push(r);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module_two_sided() -> Module {
        // @prod enqueues q0 and dequeues q1; @cons dequeues q0, enqueues q1.
        let src = r#"
module "t"
queue q0 i32 x 4
queue q1 i32 x 4

func @prod() {
bb0:
  enqueue q0, 1:i32 !1
  %1 = dequeue i32 q1 !2
  ret
}

func @cons() {
bb0:
  %0 = dequeue i32 q0 !3
  enqueue q1, 2:i32 !4
  ret
}
"#;
        twill_ir::parser::parse_module(src).expect("test module parses")
    }

    #[test]
    fn classify_maps_blocked_ops() {
        let d =
            WaitState::classify(Some(OpKind::Dequeue(QueueId(2))), StallClass::QueueEmpty, false);
        assert_eq!(d, WaitState::QueueEmpty { queue: 2 });
        assert_eq!(WaitState::classify(None, StallClass::Busy, true), WaitState::Finished);
        assert_eq!(WaitState::classify(None, StallClass::Busy, false), WaitState::Running);
    }

    #[test]
    fn cyclic_wait_is_reported_as_cycle() {
        let m = module_two_sided();
        let prod = m.find_func("prod").unwrap();
        let cons = m.find_func("cons").unwrap();
        // prod stuck dequeuing empty q1 (the credit cons would send), cons
        // stuck dequeuing empty q0 (the data prod would send):
        // cpu -> q1 -> hw1 -> q0 -> cpu.
        let agents = [
            AgentSnapshot {
                name: "cpu".into(),
                entries: vec![prod],
                state: WaitState::QueueEmpty { queue: 1 },
                site: Some((prod.index(), 1)),
            },
            AgentSnapshot {
                name: "hw1".into(),
                entries: vec![cons],
                state: WaitState::QueueEmpty { queue: 0 },
                site: Some((cons.index(), 0)),
            },
        ];
        let r = build_hang_report(&m, 1_000_100, 1_000_000, &agents);
        assert!(r.wait_cycle, "chain = {:?}", r.chain);
        assert_eq!(r.chain, vec!["cpu", "q1", "hw1", "q0", "cpu"]);
        let text = r.render();
        assert!(text.contains("wait-for cycle: cpu -> q1 -> hw1 -> q0 -> cpu"), "{text}");
        assert!(text.contains("at C line"), "{text}");
        assert!(!r.source_lines().is_empty());
    }

    #[test]
    fn chain_dead_ends_in_finished_agent() {
        let m = module_two_sided();
        let prod = m.find_func("prod").unwrap();
        let cons = m.find_func("cons").unwrap();
        // Producer finished; consumer still waits on q0: the signature of
        // a lost message.
        let agents = [
            AgentSnapshot {
                name: "cpu".into(),
                entries: vec![prod],
                state: WaitState::Finished,
                site: None,
            },
            AgentSnapshot {
                name: "hw1".into(),
                entries: vec![cons],
                state: WaitState::QueueEmpty { queue: 0 },
                site: Some((cons.index(), 0)),
            },
        ];
        let r = build_hang_report(&m, 2_000_000, 1_000_000, &agents);
        assert!(!r.wait_cycle);
        assert_eq!(r.chain, vec!["hw1", "q0", "cpu"]);
        assert!(r.render().contains("cpu: finished"));
    }
}
