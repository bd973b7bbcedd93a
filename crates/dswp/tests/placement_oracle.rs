//! Oracle test for the greedy SCC placement. `Placement::compute_for`
//! keeps its available SCCs in an ordered set; `linear_scan_placement`
//! below is the straightforward form it replaced, which scans the whole
//! available list for every pick and re-sums SCC weights on every
//! comparison. Both must place every SCC of every function in the same
//! partition with the same per-partition weights, for k = 1..5 and for
//! random split points, on the property-test programs, the fuzzer's random
//! programs and the CHStone programs. The same corpus checks that Tarjan's
//! emission order (the SCC ids) is a reverse topological order of the DAG.

#[path = "support/programs.rs"]
mod programs;
#[path = "../../../tests/support/random_gen.rs"]
mod random_gen;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use random_gen::Gen;
use twill_dswp::{DswpOptions, Placement};
use twill_ir::{Function, Module};
use twill_passes::PipelineOptions;
use twill_pdg::{NodeWeights, Pdg, PdgOptions, SccDag, SccId};

/// Fuzzer seeds of `Gen::program` and `Gen::program_with_helpers`.
const RANDOM_SEEDS: std::ops::Range<u64> = 0..24;
const HELPER_SEEDS: std::ops::Range<u64> = 0..12;

/// The placement greedy as a linear scan over the available list.
fn linear_scan_placement(
    f: &Function,
    pdg: &Pdg,
    dag: &SccDag,
    w: &NodeWeights,
    opts: &DswpOptions,
    sw_allowed: bool,
) -> (Vec<usize>, Vec<u64>) {
    let scc_depth: Vec<u32> = (0..dag.len())
        .map(|s| dag.members[s].iter().map(|&n| w.depth[n]).max().unwrap_or(0))
        .collect();
    let dt = twill_passes::domtree::DomTree::new(f);
    let li = twill_passes::loops::LoopInfo::new(f, &dt);
    let scc_top_loop: Vec<Option<usize>> = (0..dag.len())
        .map(|s| {
            dag.members[s]
                .iter()
                .filter_map(|&n| li.loop_chain(pdg.block_of[n]).last().copied())
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
            let key = |s: SccId| {
                if p == 0 {
                    (scc_depth[s.index()] as u64, w.scc_sw(dag, s), dag.members[s.index()][0])
                } else {
                    (0, 0, dag.members[s.index()][0])
                }
            };
            let (ai, &best) =
                avail.iter().enumerate().min_by_key(|(_, s)| key(**s)).expect("avail nonempty");
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
    (of_scc, weight)
}

fn prepare(src: &str, pipeline: &PipelineOptions) -> Module {
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, pipeline);
    m
}

/// `k` random positive shares summing to one.
fn random_splits(rng: &mut StdRng, k: usize) -> Vec<f64> {
    let raw: Vec<u32> = (0..k).map(|_| rng.gen_range(1..=10)).collect();
    let total: u32 = raw.iter().sum();
    raw.iter().map(|&r| r as f64 / total as f64).collect()
}

/// Check every function of `m`; returns the number of SCCs checked.
fn check_module(name: &str, m: &Module, rng: &mut StdRng) -> usize {
    let fx = twill_passes::callgraph::function_effects(m);
    let mut sccs = 0;
    for f in &m.funcs {
        for phi_const_pairs in [true, false] {
            let pdg = Pdg::build(m, f, &fx, &PdgOptions { phi_const_pairs });
            let dag = SccDag::new(&pdg);
            for (s, succs) in dag.succs.iter().enumerate() {
                for nx in succs {
                    assert!(
                        nx.index() < s,
                        "{name} @{}: DAG edge {s} -> {} breaks the emission order",
                        f.name,
                        nx.index()
                    );
                }
            }
            sccs += dag.len();
            for freq in [true, false] {
                let w = NodeWeights::compute_with(f, &pdg, freq);
                let mut options: Vec<DswpOptions> = (1..=5)
                    .map(|k| DswpOptions { num_partitions: k, ..Default::default() })
                    .collect();
                for k in 1..=5 {
                    let split_points = Some(random_splits(rng, k));
                    options.push(DswpOptions {
                        num_partitions: k,
                        split_points,
                        ..Default::default()
                    });
                    let sw_fraction = rng.gen_range(1..=19) as f64 / 20.0;
                    options.push(DswpOptions {
                        num_partitions: k,
                        sw_fraction,
                        ..Default::default()
                    });
                }
                for opts in &options {
                    for sw_allowed in [true, false] {
                        let got = Placement::compute_for(f, &pdg, &dag, &w, opts, sw_allowed);
                        let want = linear_scan_placement(f, &pdg, &dag, &w, opts, sw_allowed);
                        assert_eq!(
                            (&got.of_scc, &got.weight),
                            (&want.0, &want.1),
                            "{name} @{}: k = {}, split points {:?}, sw_allowed {sw_allowed}, \
                             freq weights {freq}, phi-const pairs {phi_const_pairs}",
                            f.name,
                            opts.num_partitions,
                            opts.split_points
                        );
                    }
                }
            }
        }
    }
    sccs
}

/// A loop whose exit block is laid out before its body, with heavy
/// straight-line code after the loop: the exit code becomes available in
/// the middle of a whole-loop absorption trial and precedes the rest of the
/// loop in program order, so the trial takes it first, and it decides
/// whether the loop still fits the software stage's budget.
const EXIT_BEFORE_BODY: &str = r#"
func @main(i32) -> i32 {
bb0:
  %s = add i32 %a0, 1:i32
  br bb1
bb1:
  %i = phi i32 [bb0: 0:i32], [bb3: %ni]
  %c = cmp slt %i, %a0
  condbr %c, bb3, bb2
bb2:
  %r0 = sdiv i32 %i, 3:i32
  %r1 = sdiv i32 %r0, 5:i32
  %r2 = add i32 %r1, %s
  ret %r2
bb3:
  %x = mul i32 %i, %s
  %y = add i32 %x, 7:i32
  %z = mul i32 %y, %x
  %ni = add i32 %i, 1:i32
  br bb1
}
"#;

#[test]
fn ordered_placement_matches_linear_scan_on_test_programs() {
    let mut rng = StdRng::seed_from_u64(1);
    for (i, src) in programs::PROGRAMS.iter().enumerate() {
        let m = prepare(src, &PipelineOptions::default());
        assert!(check_module(&format!("program {i}"), &m, &mut rng) > 0);
    }
    let m = twill_ir::parser::parse_module(EXIT_BEFORE_BODY).unwrap();
    for _ in 0..8 {
        check_module("exit before body", &m, &mut rng);
    }
}

#[test]
fn ordered_placement_matches_linear_scan_on_random_programs() {
    let mut rng = StdRng::seed_from_u64(2);
    let sources = RANDOM_SEEDS
        .map(|s| (s, Gen::new(s).program()))
        .chain(HELPER_SEEDS.map(|s| (s, Gen::new(s).program_with_helpers())));
    for (seed, src) in sources {
        let m = prepare(&src, &PipelineOptions::hls_flow());
        check_module(&format!("seed {seed}"), &m, &mut rng);
    }
}

#[test]
fn ordered_placement_matches_linear_scan_on_chstone() {
    let mut rng = StdRng::seed_from_u64(3);
    for b in chstone::all() {
        let m = prepare(b.source, &PipelineOptions::hls_flow());
        check_module(b.name, &m, &mut rng);
    }
}
