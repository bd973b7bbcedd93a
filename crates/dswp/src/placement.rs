//! SCC-to-partition assignment (the thesis' greedy partitioning heuristic).

use std::collections::BTreeSet;
use twill_ir::Function;
use twill_pdg::{NodeWeights, Pdg, SccDag, SccId};

/// Work counter behind the placement complexity guard
/// (`complexity_guard` tests): available-set operations and per-SCC
/// precomputation. Compiled out of non-test builds.
#[cfg(test)]
pub(crate) mod work {
    use std::cell::Cell;

    thread_local! {
        static TOUCHES: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn touch(n: usize) {
        TOUCHES.with(|t| t.set(t.get() + n as u64));
    }

    /// Read and reset this thread's counter.
    pub(crate) fn take() -> u64 {
        TOUCHES.with(|t| t.replace(0))
    }
}

#[cfg(not(test))]
mod work {
    #[inline(always)]
    pub(super) fn touch(_n: usize) {}
}

/// DSWP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DswpOptions {
    /// Total number of partitions (pipeline stages). Partition 0 is the
    /// software master thread; 1..n are hardware threads.
    pub num_partitions: usize,
    /// Targeted fraction of estimated work for the software partition
    /// (thesis default ≈ 25%: "a workload split of about 75%-25% between
    /// the hardware threads and the software thread").
    pub sw_fraction: f64,
    /// Optional explicit per-partition work targets (overrides
    /// `sw_fraction`; must sum to ~1.0). Used by the Fig 6.3/6.4 sweeps.
    pub split_points: Option<Vec<f64>>,
    /// Queue depth for all data queues (paper runs 8×32 queues).
    pub queue_depth: u32,
    /// Per-queue depth overrides `(queue id, depth)`, applied to the
    /// declared depths after extraction materializes the queue set (so
    /// they land in the Verilog FIFOs and the area model, not just the
    /// simulator). Ids past the declared set are ignored; duplicates keep
    /// the last entry. The auto-tuner and `--queue-depths` set these.
    pub queue_depth_overrides: Vec<(usize, u32)>,
    /// Prune irrelevant loops/diamonds per partition (thesis behaviour).
    pub prune: bool,
    /// Include the PHI-constant fake dependence pairs in the PDG.
    pub phi_const_pairs: bool,
    /// Reuse queues between non-overlapping regions, guarded by semaphores
    /// where call sites may overlap (thesis §5.2; ablation option).
    pub reuse_queues: bool,
    /// Scale placement weights by loop-depth frequency estimates so hot
    /// loops dominate the per-partition budgets and get split into
    /// pipeline stages across the hardware threads. Disable for the
    /// flat-static-weight ablation.
    pub freq_weights: bool,
}

impl Default for DswpOptions {
    fn default() -> Self {
        DswpOptions {
            num_partitions: 3,
            sw_fraction: 0.25,
            split_points: None,
            queue_depth: 8,
            queue_depth_overrides: Vec::new(),
            prune: true,
            phi_const_pairs: true,
            reuse_queues: false,
            freq_weights: true,
        }
    }
}

impl DswpOptions {
    /// Per-partition work-fraction targets.
    pub fn targets(&self) -> Vec<f64> {
        if let Some(sp) = &self.split_points {
            assert_eq!(sp.len(), self.num_partitions);
            return sp.clone();
        }
        let k = self.num_partitions.max(1);
        if k == 1 {
            return vec![1.0];
        }
        let hw = (1.0 - self.sw_fraction) / (k - 1) as f64;
        let mut v = vec![self.sw_fraction];
        v.extend(std::iter::repeat_n(hw, k - 1));
        v
    }
}

/// Result of partitioning one function.
pub struct Placement {
    /// Partition per SCC.
    pub of_scc: Vec<usize>,
    /// Partition per PDG node.
    pub of_node: Vec<usize>,
    /// Estimated software-cycle weight placed in each partition.
    pub weight: Vec<u64>,
}

impl Placement {
    /// The thesis' greedy: walk the SCC DAG maintaining the set of
    /// *available* SCCs (all predecessors placed); fill partition 0, then
    /// 1, … each up to its targeted share of the total estimated work,
    /// always taking the smallest available SCC by the domain-appropriate
    /// weight. The pipeline property (cross-partition edges only point
    /// from lower to higher partitions) holds by construction.
    pub fn compute(
        f: &Function,
        pdg: &Pdg,
        dag: &SccDag,
        w: &NodeWeights,
        opts: &DswpOptions,
    ) -> Placement {
        Self::compute_for(f, pdg, dag, w, opts, true)
    }

    /// `sw_allowed = false` gives the software stage nothing (used for hot
    /// functions whose every invocation comes from a loop).
    pub fn compute_for(
        f: &Function,
        pdg: &Pdg,
        dag: &SccDag,
        w: &NodeWeights,
        opts: &DswpOptions,
        sw_allowed: bool,
    ) -> Placement {
        let nscc = dag.len();
        // Loop depth of an SCC (max over members) — the software partition
        // prefers shallow (cold) SCCs so hot-loop recurrences stay in
        // hardware; the thesis observes its greedy "works well enough" but
        // §6.5 shows heuristic choice dominates, and keeping hot-loop SCCs
        // off the processor is what its good configurations do.
        let depth: Vec<u32> = (0..nscc)
            .map(|s| dag.members[s].iter().map(|&n| w.depth[n]).max().unwrap_or(0))
            .collect();
        // Outermost loop per SCC (None = straight-line), so the software
        // stage can absorb *whole* one-shot setup loops atomically: a loop
        // split between SW and HW pays per-iteration stream traffic, but a
        // whole loop on the processor costs startup time only — this is
        // what produces the thesis' 75%/25% static split and the Table 6.2
        // area reduction.
        let dt = twill_passes::domtree::DomTree::new(f);
        let li = twill_passes::loops::LoopInfo::new(f, &dt);
        let top_loop: Vec<Option<usize>> = (0..nscc)
            .map(|s| {
                let inner = dag.members[s].iter().find_map(|&n| li.loop_of(pdg.block_of[n]))?;
                let mut l = inner;
                while let Some(parent) = li.loops[l].parent {
                    l = parent;
                }
                Some(l)
            })
            .collect();
        let sw: Vec<u64> = (0..nscc).map(|s| w.scc_sw(dag, SccId(s as u32))).collect();
        work::touch(pdg.len() + nscc);
        let k = opts.num_partitions.max(1);
        let targets = opts.targets();
        let total: u64 = w.total_sw().max(1);

        let mut g = Greedy::new(dag, &depth, &top_loop, &sw, li.loops.len(), k);
        for p in 0..k {
            let is_last = p + 1 == k;
            if p > 0 {
                g.order_by_program();
            }
            // HW budgets rebalance over what the software stage actually
            // took (it may stop early at the loop boundary, below).
            let budget = if p == 0 {
                (targets[0] * total as f64) as u64
            } else {
                let placed_w: u64 = g.weight.iter().sum();
                (total - placed_w.min(total)) / (k - p).max(1) as u64
            };
            loop {
                if g.avail.is_empty() || (!is_last && g.weight[p] >= budget) {
                    break;
                }
                if g.placed == nscc {
                    break;
                }
                // Smallest available by the stage's key (see `Greedy::key`).
                let best = g.first().expect("avail nonempty");
                // The software stage never *splits* a loop: a processor
                // participating in a pipelined loop pays the 5-cycle stream
                // cost per value per iteration and becomes the bottleneck
                // (the thesis' "communication costs skyrocket" at bad split
                // points, §6.5). It may absorb a *whole* loop nest when its
                // entire SCC set fits the remaining budget (one-shot setup
                // loops — the source of the thesis' 75/25 static split and
                // the Table 6.2 area reduction). Explicit split_points (the
                // Fig 6.3/6.4 sweeps) disable this guard.
                if p == 0 && opts.split_points.is_none() && !sw_allowed {
                    break;
                }
                if p == 0 && opts.split_points.is_none() && depth[best] > 0 {
                    let Some(top) = top_loop[best] else { break };
                    if g.weight[0] + g.loop_sw[top] > budget {
                        break;
                    }
                    if !g.absorb_loop(top, budget + budget / 4) {
                        break;
                    }
                    continue;
                }
                g.place(best, p);
            }
        }
        // Anything left (when budgets rounded down) goes to the last
        // partition in topological order.
        g.order_by_program();
        while g.placed < nscc {
            let best = g.first().expect("DAG must drain");
            g.place(best, k - 1);
        }

        let Greedy { of_scc, weight, .. } = g;
        let of_node: Vec<usize> = (0..pdg.len()).map(|n| of_scc[dag.scc_of[n].index()]).collect();
        Placement { of_scc, of_node, weight }
    }

    /// Validate the pipeline property: every PDG edge goes to an equal or
    /// higher partition, except edges into replicated instructions (which
    /// extraction handles via backward-safe forwarding).
    pub fn pipeline_violations(&self, pdg: &Pdg) -> usize {
        let mut v = 0;
        for (t, h, _) in pdg.all_edges() {
            if self.of_node[t] > self.of_node[h] {
                v += 1;
            }
        }
        v
    }
}

/// State of the greedy fill. `avail` holds the SCCs whose predecessors are
/// all placed, ordered by the current stage's pick key, so every pick is the
/// set's minimum. Keys end in the SCC's first member node, which is unique
/// per SCC, so the picks do not depend on the order SCCs became available.
struct Greedy<'a> {
    dag: &'a SccDag,
    depth: &'a [u32],
    top_loop: &'a [Option<usize>],
    sw: &'a [u64],
    /// Software-stage key `(depth, sw weight, first member)` when true, the
    /// hardware stages' program order `(0, 0, first member)` when false.
    by_cost: bool,
    avail: BTreeSet<(u64, u64, usize)>,
    /// Available SCCs per outermost loop, by first member (software stage
    /// only; emptied once the hardware stages start).
    avail_in_loop: Vec<BTreeSet<usize>>,
    /// Unplaced SCC count and software weight per outermost loop.
    loop_left: Vec<usize>,
    loop_sw: Vec<u64>,
    of_scc: Vec<usize>,
    unplaced_preds: Vec<usize>,
    weight: Vec<u64>,
    placed: usize,
}

impl<'a> Greedy<'a> {
    fn new(
        dag: &'a SccDag,
        depth: &'a [u32],
        top_loop: &'a [Option<usize>],
        sw: &'a [u64],
        loops: usize,
        k: usize,
    ) -> Greedy<'a> {
        let nscc = dag.len();
        let mut g = Greedy {
            dag,
            depth,
            top_loop,
            sw,
            by_cost: true,
            avail: BTreeSet::new(),
            avail_in_loop: vec![BTreeSet::new(); loops],
            loop_left: vec![0; loops],
            loop_sw: vec![0; loops],
            of_scc: vec![usize::MAX; nscc],
            unplaced_preds: dag.preds.iter().map(Vec::len).collect(),
            weight: vec![0; k],
            placed: 0,
        };
        for s in 0..nscc {
            if let Some(l) = top_loop[s] {
                g.loop_left[l] += 1;
                g.loop_sw[l] += sw[s];
            }
            if g.unplaced_preds[s] == 0 {
                g.insert(s);
            }
        }
        g
    }

    fn first_member(&self, s: usize) -> usize {
        self.dag.members[s][0]
    }

    fn key(&self, s: usize) -> (u64, u64, usize) {
        if self.by_cost {
            // Software: shallowest first, then cheapest.
            (self.depth[s] as u64, self.sw[s], self.first_member(s))
        } else {
            // Hardware stages take available SCCs in program order,
            // producing contiguous pipeline slabs (a weight-sorted pick
            // interleaves cheap memory SCCs into early stages and explodes
            // the cut).
            (0, 0, self.first_member(s))
        }
    }

    /// The next pick: the available SCC with the smallest key.
    fn first(&self) -> Option<usize> {
        work::touch(1);
        self.avail.first().map(|&(_, _, n)| self.dag.scc_of[n].index())
    }

    fn insert(&mut self, s: usize) {
        work::touch(1);
        let (key, first) = (self.key(s), self.first_member(s));
        self.avail.insert(key);
        if self.by_cost {
            if let Some(l) = self.top_loop[s] {
                self.avail_in_loop[l].insert(first);
            }
        }
    }

    fn remove(&mut self, s: usize) {
        work::touch(1);
        let (key, first) = (self.key(s), self.first_member(s));
        self.avail.remove(&key);
        if self.by_cost {
            if let Some(l) = self.top_loop[s] {
                self.avail_in_loop[l].remove(&first);
            }
        }
    }

    /// Switch the available set to program order (the hardware stages'
    /// and the drain's key).
    fn order_by_program(&mut self) {
        if !self.by_cost {
            return;
        }
        work::touch(self.avail.len());
        self.by_cost = false;
        self.avail = self.avail.iter().map(|&(_, _, n)| (0, 0, n)).collect();
        self.avail_in_loop.iter_mut().for_each(BTreeSet::clear);
    }

    /// Place available SCC `s` in partition `p` and release its successors;
    /// `unplace` undoes it.
    fn place(&mut self, s: usize, p: usize) {
        self.remove(s);
        self.of_scc[s] = p;
        self.weight[p] += self.sw[s];
        self.placed += 1;
        if let Some(l) = self.top_loop[s] {
            self.loop_left[l] -= 1;
            self.loop_sw[l] -= self.sw[s];
        }
        let dag = self.dag;
        for &nx in &dag.succs[s] {
            self.unplaced_preds[nx.index()] -= 1;
            if self.unplaced_preds[nx.index()] == 0 {
                self.insert(nx.index());
            }
        }
    }

    /// Undo the most recent still-standing `place(s, _)`.
    fn unplace(&mut self, s: usize) {
        let dag = self.dag;
        for &nx in &dag.succs[s] {
            if self.unplaced_preds[nx.index()] == 0 {
                self.remove(nx.index());
            }
            self.unplaced_preds[nx.index()] += 1;
        }
        if let Some(l) = self.top_loop[s] {
            self.loop_left[l] += 1;
            self.loop_sw[l] += self.sw[s];
        }
        self.weight[self.of_scc[s]] -= self.sw[s];
        self.of_scc[s] = usize::MAX;
        self.placed -= 1;
        self.insert(s);
    }

    /// Trial absorption of outermost loop `top` into the software stage:
    /// take available depth-0 and this-loop SCCs in program order until the
    /// loop is fully placed. Rolls back and returns false if it gets stuck
    /// on a foreign dependency or would push the stage past `cap`.
    ///
    /// The caller's pick had depth > 0 and depth leads the software key, so
    /// no depth-0 SCC is available when the trial starts; the ones it
    /// releases are tracked in `released`.
    fn absorb_loop(&mut self, top: usize, cap: u64) -> bool {
        let mut taken: Vec<usize> = Vec::new();
        let mut released: BTreeSet<usize> = BTreeSet::new();
        let ok = loop {
            if self.loop_left[top] == 0 {
                break true;
            }
            let cand = [released.first(), self.avail_in_loop[top].first()]
                .into_iter()
                .flatten()
                .min()
                .map(|&n| self.dag.scc_of[n].index());
            let Some(cs) = cand else { break false };
            if self.weight[0] + self.sw[cs] > cap {
                break false;
            }
            released.remove(&self.first_member(cs));
            self.place(cs, 0);
            taken.push(cs);
            let dag = self.dag;
            for &nx in &dag.succs[cs] {
                let nx = nx.index();
                if self.unplaced_preds[nx] == 0 && self.depth[nx] == 0 {
                    work::touch(1);
                    released.insert(self.first_member(nx));
                }
            }
        };
        if !ok {
            for &s in taken.iter().rev() {
                self.unplace(s);
            }
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_passes::callgraph::function_effects;
    use twill_pdg::PdgOptions;

    fn place(src: &str, opts: &DswpOptions) -> (Placement, Pdg, SccDag) {
        let m = twill_ir::parser::parse_module(src).unwrap();
        let fx = function_effects(&m);
        let pdg =
            Pdg::build(&m, &m.funcs[0], &fx, &PdgOptions { phi_const_pairs: opts.phi_const_pairs });
        let dag = SccDag::new(&pdg);
        let w = NodeWeights::compute(&m.funcs[0], &pdg);
        let p = Placement::compute(&m.funcs[0], &pdg, &dag, &w, opts);
        (p, pdg, dag)
    }

    const PIPE: &str = r#"
func @f(i32) -> void {
bb0:
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb1: %ni]
  %ni = add i32 %i, 1:i32
  %x = mul i32 %i, 3:i32
  %y = mul i32 %x, %x
  %z = add i32 %y, 7:i32
  out %z
  %c = cmp slt %ni, %a0
  condbr %c, bb1, bb2
bb2:
  ret
}
"#;

    #[test]
    fn all_sccs_placed_and_pipeline_holds() {
        let opts = DswpOptions { num_partitions: 3, ..Default::default() };
        let (p, pdg, dag) = place(PIPE, &opts);
        assert!(p.of_scc.iter().all(|&x| x < 3));
        assert_eq!(p.pipeline_violations(&pdg), 0);
        assert_eq!(p.of_scc.len(), dag.len());
    }

    #[test]
    fn single_partition_takes_everything() {
        let opts = DswpOptions { num_partitions: 1, ..Default::default() };
        let (p, _, _) = place(PIPE, &opts);
        assert!(p.of_scc.iter().all(|&x| x == 0));
    }

    #[test]
    fn sw_fraction_steers_partition_zero_weight() {
        let small = DswpOptions { num_partitions: 2, sw_fraction: 0.1, ..Default::default() };
        let large = DswpOptions { num_partitions: 2, sw_fraction: 0.9, ..Default::default() };
        let (ps, _, _) = place(PIPE, &small);
        let (pl, _, _) = place(PIPE, &large);
        let tot_s: u64 = ps.weight.iter().sum();
        let tot_l: u64 = pl.weight.iter().sum();
        assert_eq!(tot_s, tot_l);
        assert!(ps.weight[0] <= pl.weight[0]);
    }

    #[test]
    fn explicit_split_points() {
        let opts = DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.5, 0.5]),
            ..Default::default()
        };
        let (p, _, _) = place(PIPE, &opts);
        let tot: u64 = p.weight.iter().sum();
        assert!(p.weight[0] > 0 && p.weight[0] < tot);
    }

    #[test]
    fn targets_sum_to_one() {
        let opts = DswpOptions { num_partitions: 4, sw_fraction: 0.25, ..Default::default() };
        let t = opts.targets();
        assert_eq!(t.len(), 4);
        assert!((t.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((t[0] - 0.25).abs() < 1e-9);
        assert!((t[1] - 0.25).abs() < 1e-9);
    }
}
