//! SCC-to-partition assignment (the thesis' greedy partitioning heuristic).

use twill_ir::Function;
use twill_pdg::{NodeWeights, Pdg, SccDag, SccId};

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
        // Loop depth of an SCC (max over members) — the software partition
        // prefers shallow (cold) SCCs so hot-loop recurrences stay in
        // hardware; the thesis observes its greedy "works well enough" but
        // §6.5 shows heuristic choice dominates, and keeping hot-loop SCCs
        // off the processor is what its good configurations do.
        let scc_depth: Vec<u32> = (0..dag.len())
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
        let block_of_node = |n: usize| pdg.block_of[n];
        let scc_top_loop: Vec<Option<usize>> = (0..dag.len())
            .map(|s| {
                dag.members[s]
                    .iter()
                    .filter_map(|&n| li.loop_chain(block_of_node(n)).last().copied())
                    .next()
            })
            .collect();
        let k = opts.num_partitions.max(1);
        let targets = opts.targets();
        let total: u64 = w.total_sw().max(1);

        let nscc = dag.len();
        let mut of_scc = vec![usize::MAX; nscc];
        let mut unplaced_preds: Vec<usize> = dag.preds.iter().map(|p| p.len()).collect();
        let mut avail: Vec<SccId> =
            (0..nscc).filter(|&s| unplaced_preds[s] == 0).map(|s| SccId(s as u32)).collect();
        let mut weight = vec![0u64; k];
        let mut placed = 0usize;

        for p in 0..k {
            let is_last = p + 1 == k;
            // HW budgets rebalance over what the software stage actually
            // took (it may stop early at the loop boundary, below).
            let budget = if p == 0 {
                (targets[0] * total as f64) as u64
            } else {
                let placed_w: u64 = weight.iter().sum();
                (total - placed_w.min(total)) / (k - p).max(1) as u64
            };
            loop {
                if avail.is_empty() || (!is_last && weight[p] >= budget) {
                    break;
                }
                if placed == nscc {
                    break;
                }
                // Smallest available by appropriate weight; tie-break on
                // first member for determinism.
                let key = |s: SccId| {
                    if p == 0 {
                        // Software: shallowest first, then cheapest.
                        (scc_depth[s.index()] as u64, w.scc_sw(dag, s), dag.members[s.index()][0])
                    } else {
                        // Hardware stages take available SCCs in program
                        // order, producing contiguous pipeline slabs (a
                        // weight-sorted pick interleaves cheap memory SCCs
                        // into early stages and explodes the cut).
                        (0, 0, dag.members[s.index()][0])
                    }
                };
                let (ai, &best) =
                    avail.iter().enumerate().min_by_key(|(_, s)| key(**s)).expect("avail nonempty");
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
                if p == 0 && opts.split_points.is_none() && scc_depth[best.index()] > 0 {
                    let Some(top) = scc_top_loop[best.index()] else { break };
                    let loop_sccs: Vec<usize> = (0..nscc)
                        .filter(|&s| of_scc[s] == usize::MAX && scc_top_loop[s] == Some(top))
                        .collect();
                    let loop_weight: u64 =
                        loop_sccs.iter().map(|&s| w.scc_sw(dag, SccId(s as u32))).sum();
                    if weight[0] + loop_weight > budget {
                        break;
                    }
                    // Trial absorption on a snapshot: take depth-0 and
                    // this-loop SCCs in topo order until the loop is fully
                    // placed; roll back if stuck on a foreign dependency.
                    let snap =
                        (of_scc.clone(), unplaced_preds.clone(), avail.clone(), weight[0], placed);
                    let mut ok = false;
                    let mut remaining: std::collections::BTreeSet<usize> =
                        loop_sccs.iter().copied().collect();
                    loop {
                        if remaining.is_empty() {
                            ok = true;
                            break;
                        }
                        let cand = avail
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| {
                                remaining.contains(&s.index()) || scc_depth[s.index()] == 0
                            })
                            .min_by_key(|(_, s)| dag.members[s.index()][0])
                            .map(|(i, s)| (i, *s));
                        let Some((ci, cs)) = cand else { break };
                        if weight[0] + w.scc_sw(dag, cs) > budget + budget / 4 {
                            break;
                        }
                        avail.swap_remove(ci);
                        of_scc[cs.index()] = 0;
                        weight[0] += w.scc_sw(dag, cs);
                        placed += 1;
                        remaining.remove(&cs.index());
                        for &nx in &dag.succs[cs.index()] {
                            unplaced_preds[nx.index()] -= 1;
                            if unplaced_preds[nx.index()] == 0 {
                                avail.push(nx);
                            }
                        }
                    }
                    if !ok {
                        let (so, su, sa, sw0, spl) = snap;
                        of_scc = so;
                        unplaced_preds = su;
                        avail = sa;
                        weight[0] = sw0;
                        placed = spl;
                        break;
                    }
                    continue;
                }
                avail.swap_remove(ai);
                of_scc[best.index()] = p;
                weight[p] += w.scc_sw(dag, best);
                placed += 1;
                for &nx in &dag.succs[best.index()] {
                    unplaced_preds[nx.index()] -= 1;
                    if unplaced_preds[nx.index()] == 0 {
                        avail.push(nx);
                    }
                }
            }
        }
        // Anything left (when budgets rounded down) goes to the last
        // partition in topological order.
        while placed < nscc {
            let (ai, &best) = avail
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| dag.members[s.index()][0])
                .expect("DAG must drain");
            avail.swap_remove(ai);
            of_scc[best.index()] = k - 1;
            weight[k - 1] += w.scc_sw(dag, best);
            placed += 1;
            for &nx in &dag.succs[best.index()] {
                unplaced_preds[nx.index()] -= 1;
                if unplaced_preds[nx.index()] == 0 {
                    avail.push(nx);
                }
            }
        }

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
