//! Thread extraction: builds the per-partition functions with queue
//! communication, pruning, and master/slave call handling.

use crate::placement::{DswpOptions, Placement};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use twill_ir::{
    BlockId, FuncId, Function, InstId, Intr, Module, Op, QueueDecl, QueueId, SemDecl, Ty, Value,
};
use twill_passes::callgraph::{function_effects, CallGraph};
use twill_passes::domtree::PostDomTree;
use twill_pdg::{DepKind, NodeWeights, Pdg, PdgOptions, SccDag};

/// One extracted thread.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Entry function (`main_dswp_<p>`) in the output module.
    pub entry: FuncId,
    /// Partition index (0 = software master).
    pub partition: usize,
    /// Hardware thread (true) or software thread (false).
    pub is_hw: bool,
}

/// Queue bookkeeping for reporting (Table 6.1).
#[derive(Debug, Clone, Default)]
pub struct DswpStats {
    pub queues: usize,
    pub data_queues: usize,
    pub token_queues: usize,
    pub semaphores: usize,
    pub hw_threads: usize,
    pub partitions: usize,
    /// Instructions placed per partition (whole module).
    pub insts_per_partition: Vec<usize>,
}

/// Output of the DSWP pass.
pub struct DswpResult {
    pub module: Module,
    pub threads: Vec<ThreadSpec>,
    pub stats: DswpStats,
}

impl DswpResult {
    /// Agent track names of the hybrid system this partitioning deploys
    /// to: the software master (`cpu`) followed by one `hw<i>` per
    /// hardware thread, in partition order. This is the naming authority
    /// shared by the simulator's `SimReport`, the observability exporters,
    /// and the hardware performance-counter register map — all three must
    /// agree on it for counter readbacks to line up.
    pub fn agent_names(&self) -> Vec<String> {
        let mut names = vec!["cpu".to_string()];
        names.extend(
            (1..=self.threads.iter().filter(|t| t.is_hw).count()).map(|i| format!("hw{i}")),
        );
        names
    }
}

/// Per-(function, partition) extraction plan.
struct PartPlan {
    needed_args: Vec<u16>,
    /// Foreign defs whose value this partition dequeues.
    needed_defs: Vec<InstId>,
    /// Foreign pure defs this partition re-materializes locally (gaddr),
    /// sorted.
    remat_defs: Vec<InstId>,
    /// Foreign effectful instructions this partition token-syncs on:
    /// (instruction, producing partition).
    token_defs: Vec<(InstId, usize)>,
    /// Rewritten conditional branches: block -> new unconditional target.
    branch_rewrite: HashMap<BlockId, BlockId>,
    /// Reachable blocks under the rewrites.
    kept: Vec<bool>,
    nonempty: bool,
}

struct FnPlan {
    placement: Placement,
    pdg: Pdg,
    /// PDG node -> owning partition, indexed by InstId arena slot.
    owner_of_inst: Vec<usize>,
    /// SCC id per InstId arena slot (usize::MAX = dead).
    scc_of_inst: Vec<usize>,
    /// Members per SCC.
    scc_members: Vec<Vec<InstId>>,
    /// SCCs cheap and pure enough to replicate into consumer partitions
    /// (loop induction/condition recurrences): avoids per-iteration
    /// condition broadcasts through queues.
    scc_replicable: Vec<bool>,
    parts: Vec<PartPlan>,
    /// Partition owning the (unique) return value, and its node.
    ret_owner: usize,
    has_ret_value: bool,
}

/// Queue allocation key.
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
enum QKey {
    /// Value of `def` forwarded from its owner to `consumer`.
    Data(u32 /*func*/, InstId, usize),
    /// Memory/IO ordering token for `def` from `producer` into `consumer`.
    Token(u32, InstId, usize, usize),
}

/// Run DSWP over a prepared module.
pub fn run_dswp(m: &Module, opts: &DswpOptions) -> DswpResult {
    let k = opts.num_partitions.max(1);
    let fx = function_effects(m);
    let cg = CallGraph::new(m);
    // Recursion (thesis §7 extension): recursive call trees and everything
    // they invoke are pinned whole to the software master — "the master
    // function call always being in software" — so no hardware thread ever
    // needs a stack and no queue crosses a recursive region.
    let mut pinned: Vec<bool> =
        if cg.is_recursive() { cg.software_pinned_set(m) } else { vec![false; m.funcs.len()] };
    // Function pointers (thesis §7 extension): address-taken functions can
    // be invoked from anywhere through an indirect call — which DSWP pins
    // to the software master — so they (and their callees) are
    // software-pinned too.
    {
        let mut stack: Vec<usize> = Vec::new();
        for f in &m.funcs {
            for (_, iid) in f.inst_ids_in_layout() {
                if let Op::FuncAddr(t) = &f.inst(iid).op {
                    if !pinned[t.index()] {
                        pinned[t.index()] = true;
                        stack.push(t.index());
                    }
                }
            }
        }
        while let Some(fi) = stack.pop() {
            for &c in &cg.callees[fi] {
                if !pinned[c.index()] {
                    pinned[c.index()] = true;
                    stack.push(c.index());
                }
            }
        }
    }

    // Interprocedural hotness: a function whose every call site sits
    // inside a loop (transitively) is hot — the software stage must not
    // take slices of it, or every invocation ping-pongs between the
    // processor and hardware (the thesis' Blowfish pathology, §6.4).
    let fn_hot = compute_fn_hotness(m, &cg);

    // ---- analysis per function ----
    let pdg_opts = PdgOptions { phi_const_pairs: opts.phi_const_pairs };
    let mut plans: Vec<FnPlan> = Vec::with_capacity(m.funcs.len());
    for fid in m.func_ids() {
        let f = m.func(fid);
        let pdg = Pdg::build(m, f, &fx, &pdg_opts);
        let dag = SccDag::new(&pdg);
        let w = NodeWeights::compute_with(f, &pdg, opts.freq_weights);
        // The thesis iterates the partitioning with different targets
        // (§5.2); we implement that as a static steady-state cost model:
        // try every stage count up to the requested one and keep the
        // cheapest (max over stages of loop-resident work + queue traffic).
        let mut placement = Placement::compute_for(f, &pdg, &dag, &w, opts, !fn_hot[fid.index()]);
        if opts.split_points.is_none() && opts.num_partitions > 2 {
            let mut best_cost = placement_cost(&pdg, &w, &placement, k);
            for k_eff in 2..opts.num_partitions {
                let mut o2 = opts.clone();
                o2.num_partitions = k_eff;
                let cand = Placement::compute_for(f, &pdg, &dag, &w, &o2, !fn_hot[fid.index()]);
                // Re-express in k partitions (unused tail stays empty).
                let mut of_scc = cand.of_scc.clone();
                let mut weight = cand.weight.clone();
                weight.resize(k, 0);
                let of_node: Vec<usize> =
                    (0..pdg.len()).map(|n| of_scc[dag.scc_of[n].index()]).collect();
                let expanded = Placement { of_scc: std::mem::take(&mut of_scc), of_node, weight };
                let cost = placement_cost(&pdg, &w, &expanded, k);
                if cost < best_cost {
                    best_cost = cost;
                    placement = expanded;
                }
            }
        }

        if pinned[fid.index()] {
            // Whole function on the software master.
            placement.of_scc.iter_mut().for_each(|p| *p = 0);
            placement.of_node.iter_mut().for_each(|p| *p = 0);
        }

        // The software master drives program execution (thesis §5.3): in
        // `main`, pin the entry block's terminator chain… we express this
        // by pinning allocas and IO-free entry to partition 0 only when it
        // is main. Simpler faithful rule: nothing to do — partition 0 is
        // always software and main_dswp_0 exists by construction.
        //
        // Allocas: "all allocations … on a single special thread" — pin
        // every alloca's SCC to partition 0 (software memory manager).
        let mut moved = false;
        for (n, &iid) in pdg.nodes.iter().enumerate() {
            if matches!(f.inst(iid).op, Op::Alloca(_) | Op::CallIndirect(..)) {
                moved |= reassign_scc_with_preds(&mut placement, &dag, dag.scc_of[n], 0);
            }
        }
        if moved {
            for (n, p) in placement.of_node.iter_mut().enumerate() {
                *p = placement.of_scc[dag.scc_of[n].index()];
            }
        }

        let mut owner_of_inst = vec![usize::MAX; f.insts.len()];
        for (n, &iid) in pdg.nodes.iter().enumerate() {
            owner_of_inst[iid.index()] = placement.of_node[n];
        }

        // SCC replication analysis.
        let mut scc_of_inst = vec![usize::MAX; f.insts.len()];
        for (n, &iid) in pdg.nodes.iter().enumerate() {
            scc_of_inst[iid.index()] = dag.scc_of[n].index();
        }
        let scc_members: Vec<Vec<InstId>> =
            dag.members.iter().map(|ms| ms.iter().map(|&n| pdg.nodes[n]).collect()).collect();
        let dt = twill_passes::domtree::DomTree::new(f);
        let li = twill_passes::loops::LoopInfo::new(f, &dt);
        let inst_block = f.inst_blocks();
        let scc_replicable: Vec<bool> = scc_members
            .iter()
            .map(|ms| {
                if ms.len() > 16 {
                    return false;
                }
                // Pure, cheap ops only (ROM loads allowed).
                for &iid in ms {
                    let inst = f.inst(iid);
                    let ok = match &inst.op {
                        Op::Load(a) => m.const_global_base(f, *a).is_some(),
                        Op::Store(..)
                        | Op::Call(..)
                        | Op::CallIndirect(..)
                        | Op::Intrin(..)
                        | Op::Alloca(_) => false,
                        Op::Bin(b, _, _) if b.can_trap() => false,
                        _ => true,
                    };
                    if !ok {
                        return false;
                    }
                }
                // The SCC's loop: external operands must come from outside
                // it (forwarded once per entry, not per iteration).
                let blocks: Vec<twill_ir::BlockId> =
                    ms.iter().filter_map(|&iid| inst_block[iid.index()]).collect();
                let Some(&first) = blocks.first() else { return false };
                let mut common: Option<usize> = li.loop_of(first);
                for &b in &blocks[1..] {
                    common = match common {
                        Some(l) => li.lowest_common_loop(li.loops[l].header, b),
                        None => None,
                    };
                }
                if let Some(l) = common {
                    let member_set: std::collections::HashSet<InstId> =
                        ms.iter().copied().collect();
                    for &iid in ms {
                        let mut bad = false;
                        f.inst(iid).op.for_each_value(|v| {
                            if let Value::Inst(d) = v {
                                if !member_set.contains(&d) {
                                    if let Some(db) = inst_block[d.index()] {
                                        if li.in_loop(l, db) {
                                            bad = true;
                                        }
                                    }
                                }
                            }
                        });
                        if bad {
                            return false;
                        }
                    }
                }
                true
            })
            .collect();

        // Return ownership.
        let mut ret_owner = 0usize;
        let mut has_ret_value = false;
        for (n, &iid) in pdg.nodes.iter().enumerate() {
            if let Op::Ret(v) = &f.inst(iid).op {
                ret_owner = placement.of_node[n];
                has_ret_value = v.is_some();
            }
        }

        plans.push(FnPlan {
            placement,
            pdg,
            owner_of_inst,
            scc_of_inst,
            scc_members,
            scc_replicable,
            parts: Vec::new(),
            ret_owner,
            has_ret_value,
        });
    }

    // ---- per-partition planning, callees before callers ----
    // (pinned functions may form cycles; their summaries are preset below
    // so ordering among them is irrelevant)
    let order: Vec<FuncId> = if pinned.iter().any(|&p| p) {
        cg.reverse_topo_excluding(m, &pinned)
    } else {
        cg.reverse_topo.clone()
    };
    // g_nonempty[f][p], g_needed_args[f][p], g_mem[f][p] (partition's
    // version of f transitively touches memory or the IO stream).
    let mut g_nonempty: Vec<Vec<bool>> = vec![vec![false; k]; m.funcs.len()];
    let mut g_needed_args: Vec<Vec<Vec<u16>>> = vec![vec![Vec::new(); k]; m.funcs.len()];
    let mut g_mem: Vec<Vec<bool>> = vec![vec![false; k]; m.funcs.len()];
    for (fi, &pin) in pinned.iter().enumerate() {
        if pin {
            // Software-master-only: full original signature, runs (and may
            // touch memory) on partition 0 exclusively.
            g_nonempty[fi][0] = true;
            g_needed_args[fi][0] = (0..m.funcs[fi].params.len() as u16).collect();
            g_mem[fi][0] = true;
        }
    }

    // Every function's ret owner is fixed by now.
    let ret_owners: Vec<(usize, bool)> =
        plans.iter().map(|pl| (pl.ret_owner, pl.has_ret_value)).collect();
    for &fid in &order {
        let f = m.func(fid);
        let plan = &plans[fid.index()];
        let facts = FnFacts::new(f);
        // Which partitions of this function touch memory/IO directly or
        // through a relevant callee? A callee row of `g_mem` may be this
        // function's own row under recursion; it is read before this
        // function's row is written.
        let mut touches = vec![false; k];
        for &(_, iid) in &facts.layout {
            match &f.inst(iid).op {
                Op::Load(_) | Op::Store(..) | Op::Intrin(Intr::Out | Intr::In, _) => {
                    touches[plan.owner_of_inst[iid.index()]] = true;
                }
                Op::Call(c, _) => {
                    for (t, &callee) in touches.iter_mut().zip(&g_mem[c.index()]) {
                        *t |= callee;
                    }
                }
                _ => {}
            }
        }
        g_mem[fid.index()] = touches;
        let mut parts: Vec<PartPlan> = (0..k)
            .map(|p| {
                plan_partition(
                    f,
                    &facts,
                    plan,
                    p,
                    opts,
                    &g_nonempty,
                    &g_needed_args,
                    &g_mem,
                    &ret_owners,
                )
            })
            .collect();
        // A callee whose return value callers may consume must have its
        // ret-owner version instantiated even if otherwise empty (e.g. a
        // function returning a constant).
        if plan.has_ret_value && plan.ret_owner < k {
            parts[plan.ret_owner].nonempty = true;
        }
        if pinned[fid.index()] {
            // Keep the preset full-signature summary (self-calls were
            // planned against it).
            parts[0].needed_args = (0..f.params.len() as u16).collect();
            parts[0].nonempty = true;
        }
        // Producer side of non-emptiness: p is active if any sibling
        // partition consumes one of its defs.
        let mut produces = vec![false; k];
        for (c, part) in parts.iter().enumerate() {
            for &d in &part.needed_defs {
                let o = value_owner(f, d, &plan.owner_of_inst, &ret_owners);
                if o != c {
                    produces[o] = true;
                }
            }
            for &(_, prod) in &part.token_defs {
                if prod != c {
                    produces[prod] = true;
                }
            }
        }
        for (p, part) in parts.iter_mut().enumerate() {
            part.nonempty |= produces[p];
            g_nonempty[fid.index()][p] = part.nonempty;
            g_needed_args[fid.index()][p] = part.needed_args.clone();
        }
        plans[fid.index()].parts = parts;
    }

    // ---- queue allocation (deterministic order) ----
    // Collect every (def, consumer) pair across all functions/partitions.
    let mut qmap: BTreeMap<QKey, QueueId> = BTreeMap::new();
    let mut out = Module::new(format!("{}.dswp", m.name));
    out.globals = m.globals.clone();
    for fid in m.func_ids() {
        let f = m.func(fid);
        let plan = &plans[fid.index()];
        for p in 0..k {
            for &d in &plan.parts[p].needed_defs {
                let ty = queue_width(f.inst(d).ty);
                let key = QKey::Data(fid.0, d, p);
                qmap.entry(key).or_insert_with(|| {
                    out.add_queue(QueueDecl { width: ty, depth: opts.queue_depth })
                });
            }
            for &(d, prod) in &plan.parts[p].token_defs {
                let key = QKey::Token(fid.0, d, prod, p);
                qmap.entry(key).or_insert_with(|| {
                    out.add_queue(QueueDecl { width: Ty::I1, depth: opts.queue_depth })
                });
            }
        }
    }

    // ---- build partition functions ----
    // Function ids in the output module: func_ids[orig][p].
    let mut func_ids: Vec<Vec<FuncId>> = vec![Vec::new(); m.funcs.len()];
    for fid in m.func_ids() {
        let f = m.func(fid);
        let mut v = Vec::with_capacity(k);
        for p in 0..k {
            let plan = &plans[fid.index()];
            let params: Vec<Ty> =
                plan.parts[p].needed_args.iter().map(|&a| f.params[a as usize]).collect();
            let ret = if p == plan.ret_owner && plan.has_ret_value { f.ret } else { Ty::Void };
            let nf = Function::new(format!("{}_dswp_{}", f.name, p), params, ret);
            v.push(out.add_func(nf));
        }
        func_ids[fid.index()] = v;
    }

    let mut data_queues = 0usize;
    let mut token_queues = 0usize;
    for key in qmap.keys() {
        match key {
            QKey::Data(..) => data_queues += 1,
            QKey::Token(..) => token_queues += 1,
        }
    }

    let mut insts_per_partition = vec![0usize; k];
    for fid in m.func_ids() {
        let f = m.func(fid);
        let plan = &plans[fid.index()];
        for p in 0..k {
            let built = build_partition_function(
                m,
                f,
                fid,
                plan,
                p,
                &qmap,
                &func_ids,
                &g_needed_args,
                &g_nonempty,
                &ret_owners,
            );
            insts_per_partition[p] += count_real_insts(&built);
            out.funcs[func_ids[fid.index()][p].index()] = built;
        }
    }

    // ---- optional queue reuse with semaphore guards ----
    let mut semaphores = 0usize;
    if opts.reuse_queues {
        semaphores = reuse_queues(&mut out, m, &cg);
    }

    // Per-queue depth overrides land in the declared depths so the
    // Verilog FIFOs and area model see them, not just the simulator.
    // Queue ids are deterministic (BTreeMap allocation order above), so
    // an override tuned against one run names the same queue in the next.
    for &(id, depth) in &opts.queue_depth_overrides {
        if let Some(q) = out.queues.get_mut(id) {
            q.depth = depth.max(1);
        }
    }

    twill_ir::layout::assign_global_addrs(&mut out);

    // ---- threads ----
    let main = m.find_func("main").expect("module needs @main");
    let mut threads = Vec::new();
    for (p, _) in (0..k).enumerate() {
        // A partition participates if any function is nonempty for it.
        let active = (0..m.funcs.len()).any(|fi| g_nonempty[fi][p]) || p == 0;
        if active {
            threads.push(ThreadSpec {
                entry: func_ids[main.index()][p],
                partition: p,
                is_hw: p != 0,
            });
        }
    }
    let hw_threads = threads.iter().filter(|t| t.is_hw).count();

    let stats = DswpStats {
        queues: out.queues.len(),
        data_queues,
        token_queues,
        semaphores,
        hw_threads,
        partitions: k,
        insts_per_partition,
    };
    DswpResult { module: out, threads, stats }
}

fn queue_width(ty: Ty) -> Ty {
    match ty {
        Ty::I1 => Ty::I1,
        Ty::I8 => Ty::I8,
        Ty::I16 => Ty::I16,
        _ => Ty::I32,
    }
}

/// Move an SCC (and, transitively, its unplaced-constraint predecessors if
/// they sit in higher partitions) to `target`, preserving the pipeline
/// property. Updates `of_scc` only; returns whether anything moved, so the
/// caller can rebuild `of_node` once after all moves.
fn reassign_scc_with_preds(
    placement: &mut Placement,
    dag: &SccDag,
    scc: twill_pdg::SccId,
    target: usize,
) -> bool {
    let mut moved = false;
    let mut stack = vec![scc];
    while let Some(s) = stack.pop() {
        if placement.of_scc[s.index()] <= target {
            continue; // already at or below the target stage: pipeline ok
        }
        placement.of_scc[s.index()] = target;
        moved = true;
        for &pr in &dag.preds[s.index()] {
            if placement.of_scc[pr.index()] > target {
                stack.push(pr);
            }
        }
    }
    moved
}

/// Can this instruction be re-materialized in any partition instead of
/// being forwarded through a queue?
fn is_remat(op: &Op) -> bool {
    matches!(op, Op::GlobalAddr(_))
}

/// Static steady-state cost of a placement: the slowest pipeline stage's
/// per-iteration work plus its queue traffic (2 cycles per enqueue or
/// dequeue of a loop-resident cross-partition value). The software stage's
/// work is weighted by the CPU cost table.
fn placement_cost(pdg: &Pdg, w: &NodeWeights, placement: &Placement, k: usize) -> u64 {
    let mut work = vec![0u64; k];
    for n in 0..pdg.len() {
        if w.depth[n] == 0 {
            continue;
        }
        let p = placement.of_node[n];
        // Rough HW throughput: ~3 chained ops per cycle; SW is the table.
        work[p] += if p == 0 { w.sw[n] * 2 } else { 1 };
    }
    for w in work.iter_mut().skip(1) {
        *w = w.div_ceil(3);
    }
    // Queue traffic per iteration: distinct (def, consumer) pairs for
    // loop-resident cross-partition data/memory edges.
    let mut enq = vec![0u64; k];
    let mut deq = vec![0u64; k];
    let mut consumers = vec![false; k];
    for (t, es) in pdg.edges.iter().enumerate() {
        if w.depth[t] == 0 {
            continue;
        }
        let pt = placement.of_node[t];
        for &(h, kind) in es {
            let ph = placement.of_node[h];
            if matches!(kind, DepKind::Data | DepKind::Memory) && pt != ph && !consumers[ph] {
                consumers[ph] = true;
                enq[pt] += 2;
                deq[ph] += 2;
            }
        }
        consumers.fill(false);
    }
    (0..k)
        .map(|p| {
            let q = enq[p] + deq[p];
            work[p] + if p == 0 { q * 5 / 2 } else { q }
        })
        .max()
        .unwrap_or(0)
}

/// Hot = every call site is inside a loop, or inside a hot caller.
/// `main` is never hot; unreachable functions are hot (doesn't matter).
fn compute_fn_hotness(m: &Module, cg: &CallGraph) -> Vec<bool> {
    let n = m.funcs.len();
    let main = m.find_func("main");
    let mut hot = vec![true; n];
    if let Some(main) = main {
        hot[main.index()] = false;
    }
    // Iterate to fixpoint: a callee is cold if some cold caller calls it
    // from outside any loop.
    let mut changed = true;
    while changed {
        changed = false;
        for fid in m.func_ids() {
            if hot[fid.index()] {
                continue;
            }
            let f = m.func(fid);
            let dt = twill_passes::domtree::DomTree::new(f);
            let li = twill_passes::loops::LoopInfo::new(f, &dt);
            for (b, iid) in f.inst_ids_in_layout() {
                if let Op::Call(c, _) = &f.inst(iid).op {
                    if li.loop_of(b).is_none() && hot[c.index()] {
                        hot[c.index()] = false;
                        changed = true;
                    }
                }
            }
        }
    }
    let _ = cg;
    hot
}

/// The partition that *produces the SSA value* of an instruction. For call
/// instructions the result materializes in the callee's ret-owner
/// partition (that partition's callee version has the non-void return);
/// for everything else it is the instruction's placement.
fn value_owner(
    f: &Function,
    iid: InstId,
    owner_of_inst: &[usize],
    ret_owners: &[(usize, bool)],
) -> usize {
    match &f.inst(iid).op {
        Op::Call(c, _) => {
            let (ro, has) = ret_owners[c.index()];
            if has {
                ro
            } else {
                owner_of_inst[iid.index()]
            }
        }
        _ => owner_of_inst[iid.index()],
    }
}

fn count_real_insts(f: &Function) -> usize {
    f.inst_ids_in_layout().iter().filter(|(_, i)| !matches!(f.inst(*i).op, Op::Br(_))).count()
}

/// Per-function CFG facts that every partition's plan reads, computed once
/// per function.
struct FnFacts {
    /// Live instructions in layout order.
    layout: Vec<(BlockId, InstId)>,
    /// Owning block per instruction arena slot.
    inst_block: Vec<Option<BlockId>>,
    /// Predecessor table (one entry per edge).
    preds: Vec<Vec<BlockId>>,
    pdt: PostDomTree,
}

impl FnFacts {
    fn new(f: &Function) -> FnFacts {
        FnFacts {
            layout: f.inst_ids_in_layout(),
            inst_block: f.inst_blocks(),
            preds: f.predecessors(),
            pdt: PostDomTree::new(f),
        }
    }
}

/// Compute the extraction plan for one (function, partition).
#[allow(clippy::too_many_arguments)]
fn plan_partition(
    f: &Function,
    facts: &FnFacts,
    plan: &FnPlan,
    p: usize,
    opts: &DswpOptions,
    g_nonempty: &[Vec<bool>],
    g_needed_args: &[Vec<Vec<u16>>],
    g_mem: &[Vec<bool>],
    ret_owners: &[(usize, bool)],
) -> PartPlan {
    let owner = &plan.owner_of_inst;
    // Value-producer ownership (differs from placement for calls).
    let vowner = |iid: InstId| value_owner(f, iid, owner, ret_owners);
    let pdg = &plan.pdg;
    let pdt = &facts.pdt;
    let k = plan.placement.weight.len();

    // Token deps: cross-partition memory/IO ordering edges whose *head*
    // this partition executes. Calls run in every partition whose callee
    // version touches memory (the callee's memory ops run in all those
    // threads).
    let runs_in = |node: usize, q: usize| -> bool {
        match &f.inst(pdg.nodes[node]).op {
            Op::Call(c, _) => g_mem[c.index()][q],
            _ => plan.placement.of_node[node] == q,
        }
    };
    let mut token_defs: Vec<(InstId, usize)> = Vec::new();
    for (t, es) in pdg.edges.iter().enumerate() {
        for &(h, kind) in es {
            if kind == DepKind::Memory && runs_in(h, p) {
                for prod in (0..k).filter(|&q| q != p && runs_in(t, q)) {
                    token_defs.push((pdg.nodes[t], prod));
                }
            }
        }
    }
    token_defs.sort_unstable();
    token_defs.dedup();

    // Relevant calls for p.
    let call_relevant = |iid: InstId| -> bool {
        match &f.inst(iid).op {
            Op::Call(c, _) => g_nonempty[c.index()][p],
            _ => false,
        }
    };
    let owned = |iid: InstId| owner[iid.index()] == p;

    // Uses contributed by p's own (non-branch) instructions + relevant
    // call args + owned ret operands. These are iteration-independent.
    let mut base_uses: Vec<Value> = Vec::new();
    for &(_, iid) in &facts.layout {
        let inst = f.inst(iid);
        match &inst.op {
            Op::Br(_) | Op::CondBr(..) | Op::Switch(..) => {}
            Op::Ret(Some(v)) if owned(iid) && p == plan.ret_owner => {
                base_uses.push(*v);
            }
            Op::Call(c, args)
                // p passes exactly the args its callee's p-version needs;
                // callees are planned before callers (reverse topo), so the
                // exact list is available.
                if call_relevant(iid) => {
                    for &a in &g_needed_args[c.index()][p] {
                        base_uses.push(args[a as usize]);
                    }
                }
            _ if owned(iid) => {
                inst.op.for_each_value(|v| base_uses.push(v));
            }
            _ => {}
        }
    }

    // Classify a set of root uses into queue-forwarded defs, argument
    // needs and locally re-materialized defs (single pure ops and whole
    // replicable SCCs, transitively through their external operands).
    // Each list comes back sorted and free of duplicates.
    let classify = |roots: &[Value]| -> Needs {
        let mut needs = Needs::default();
        let mut seen = vec![false; f.insts.len()];
        let mut in_remat = vec![false; f.insts.len()];
        let mut work: Vec<Value> = roots.to_vec();
        while let Some(v) = work.pop() {
            match v {
                Value::Imm(..) => {}
                Value::Arg(n) => needs.args.push(n),
                Value::Inst(d) => {
                    if std::mem::replace(&mut seen[d.index()], true) || vowner(d) == p {
                        continue;
                    }
                    let op = &f.inst(d).op;
                    if is_remat(op) {
                        if !std::mem::replace(&mut in_remat[d.index()], true) {
                            needs.remat.push(d);
                        }
                        continue;
                    }
                    let scc = plan.scc_of_inst[d.index()];
                    if scc != usize::MAX && plan.scc_replicable[scc] {
                        // Clone the whole recurrence; its external operands
                        // become further roots.
                        for &mem in &plan.scc_members[scc] {
                            if f.inst(mem).op.is_terminator() {
                                continue;
                            }
                            if !std::mem::replace(&mut in_remat[mem.index()], true) {
                                needs.remat.push(mem);
                                f.inst(mem).op.for_each_value(|ov| work.push(ov));
                            }
                        }
                    } else {
                        needs.defs.push(d);
                    }
                }
            }
        }
        needs.defs.sort_unstable();
        needs.args.sort_unstable();
        needs.args.dedup();
        needs.remat.sort_unstable();
        needs
    };

    // Fixpoint: needed defs/args ↔ kept branches. Seed with base uses
    // only; conditions join the need set only for branches that survive
    // pruning (starting from keep-all would let every loop keep itself
    // alive through its own condition dequeue).
    let mut needs = classify(&base_uses);
    let mut branch_rewrite: HashMap<BlockId, BlockId> = HashMap::new();
    let mut kept: Vec<bool> = vec![true; f.blocks.len()];
    // Region walks stamp `seen_in` with the branch block they start from.
    let mut seen_in: Vec<usize> = vec![usize::MAX; f.blocks.len()];
    loop {
        // Relevance from the current need set.
        let mut relevant = vec![false; f.blocks.len()];
        relevant[f.entry.index()] = true;
        for &(b, iid) in &facts.layout {
            let inst = f.inst(iid);
            let rel = match &inst.op {
                Op::Br(_) | Op::CondBr(..) | Op::Switch(..) => false,
                Op::Ret(_) => true,
                Op::Call(..) => call_relevant(iid),
                _ => owned(iid),
            };
            if rel {
                relevant[b.index()] = true;
            }
        }
        for d in needs.defs.iter().chain(&needs.remat).chain(token_defs.iter().map(|(d, _)| d)) {
            if let Some(b) = facts.inst_block[d.index()] {
                relevant[b.index()] = true;
            }
        }
        // Producer side: blocks where p owns a def some sibling consumes
        // are covered by the `owned` rule above.
        // Phi-pred forcing: predecessors of blocks holding phis this
        // partition materializes must stay, so incoming lists survive.
        for &(b, iid) in &facts.layout {
            if matches!(f.inst(iid).op, Op::Phi(_))
                && (owned(iid)
                    || needs.defs.binary_search(&iid).is_ok()
                    || needs.remat.binary_search(&iid).is_ok())
            {
                for &pr in &facts.preds[b.index()] {
                    relevant[pr.index()] = true;
                }
                relevant[b.index()] = true;
            }
        }

        // Pruning: rewrite a CondBr at B to Br(ipdom(B)) when no relevant
        // block lies strictly between B and its immediate post-dominator.
        let mut new_rewrites: HashMap<BlockId, BlockId> = HashMap::new();
        if opts.prune {
            seen_in.fill(usize::MAX);
            for b in f.block_ids() {
                let Some(t) = f.block(b).terminator() else { continue };
                if !matches!(f.inst(t).op, Op::CondBr(..)) {
                    continue;
                }
                let Some(ipd) = pdt.ipdom[b.index()] else { continue };
                let mut region_relevant = false;
                let mut stack: Vec<BlockId> =
                    f.successors(b).into_iter().filter(|s| *s != ipd).collect();
                while let Some(x) = stack.pop() {
                    if seen_in[x.index()] == b.index() {
                        continue;
                    }
                    seen_in[x.index()] = b.index();
                    if relevant[x.index()] {
                        region_relevant = true;
                        break;
                    }
                    for s in f.successors(x) {
                        if s != ipd && seen_in[s.index()] != b.index() {
                            stack.push(s);
                        }
                    }
                }
                if !region_relevant {
                    new_rewrites.insert(b, ipd);
                }
            }
        }

        // Reachability under the rewrites.
        let mut new_kept = vec![false; f.blocks.len()];
        let mut stack = vec![f.entry];
        new_kept[f.entry.index()] = true;
        while let Some(b) = stack.pop() {
            let succs: Vec<BlockId> = match new_rewrites.get(&b) {
                Some(t) => vec![*t],
                None => f.successors(b),
            };
            for s in succs {
                if !new_kept[s.index()] {
                    new_kept[s.index()] = true;
                    stack.push(s);
                }
            }
        }

        // Needs: base uses plus conditions of surviving branches.
        let mut uses = base_uses.clone();
        for b in f.block_ids() {
            if !new_kept[b.index()] || new_rewrites.contains_key(&b) {
                continue;
            }
            if let Some(t) = f.block(b).terminator() {
                if let Op::CondBr(c, _, _) = &f.inst(t).op {
                    uses.push(*c);
                }
            }
        }
        let new_needs = classify(&uses);

        let fixed = new_needs == needs && new_rewrites == branch_rewrite && new_kept == kept;
        needs = new_needs;
        branch_rewrite = new_rewrites;
        kept = new_kept;
        if fixed {
            break;
        }
    }

    // Non-emptiness (consumer side; the producer side is added by the
    // driver once all partitions of this function are planned).
    let mut nonempty = !needs.defs.is_empty() || !token_defs.is_empty();
    for &(_, iid) in &facts.layout {
        let inst = f.inst(iid);
        match &inst.op {
            Op::Br(_) | Op::CondBr(..) | Op::Switch(..) | Op::Ret(_) => {}
            Op::Call(..) => {
                if call_relevant(iid) {
                    nonempty = true;
                }
            }
            _ => {
                if owned(iid) {
                    nonempty = true;
                }
            }
        }
    }

    PartPlan {
        needed_args: needs.args,
        needed_defs: needs.defs,
        remat_defs: needs.remat,
        token_defs,
        branch_rewrite,
        kept,
        nonempty,
    }
}

/// What one partition needs from outside itself (see `plan_partition`'s
/// `classify`); every list is sorted and free of duplicates.
#[derive(Default, PartialEq)]
struct Needs {
    /// Foreign defs forwarded through queues.
    defs: Vec<InstId>,
    /// Function arguments.
    args: Vec<u16>,
    /// Foreign defs re-materialized locally.
    remat: Vec<InstId>,
}

/// Materialize partition `p`'s function.
#[allow(clippy::too_many_arguments)]
fn build_partition_function(
    m: &Module,
    f: &Function,
    fid: FuncId,
    plan: &FnPlan,
    p: usize,
    qmap: &BTreeMap<QKey, QueueId>,
    func_ids: &[Vec<FuncId>],
    g_needed_args: &[Vec<Vec<u16>>],
    g_nonempty: &[Vec<bool>],
    ret_owners: &[(usize, bool)],
) -> Function {
    let part = &plan.parts[p];
    let owner = &plan.owner_of_inst;
    let owned = |iid: InstId| owner[iid.index()] == p;
    let vowned = |iid: InstId| value_owner(f, iid, owner, ret_owners) == p;
    let needed = |iid: InstId| part.needed_defs.binary_search(&iid).is_ok();
    let remat = |iid: InstId| part.remat_defs.binary_search(&iid).is_ok();
    let params: Vec<Ty> = part.needed_args.iter().map(|&a| f.params[a as usize]).collect();
    let ret_ty = if p == plan.ret_owner && plan.has_ret_value { f.ret } else { Ty::Void };
    let mut nf = Function::new(format!("{}_dswp_{}", f.name, p), params, ret_ty);

    // Block mapping: one new block per kept block.
    let mut block_map: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    for b in f.block_ids() {
        if part.kept[b.index()] {
            block_map[b.index()] = Some(nf.create_block(f.block(b).name.clone()));
        }
    }
    nf.entry = block_map[f.entry.index()].expect("entry always kept");

    let arg_map: HashMap<u16, u16> =
        part.needed_args.iter().enumerate().map(|(i, &a)| (a, i as u16)).collect();

    // Consumers per def (for enqueue emission): consumer partitions that
    // listed `def` in needed_defs / token_defs.
    let mut data_consumers: HashMap<InstId, Vec<usize>> = HashMap::new();
    let mut token_consumers: HashMap<InstId, Vec<usize>> = HashMap::new();
    for (c, cp) in plan.parts.iter().enumerate() {
        if c == p {
            continue;
        }
        for &d in &cp.needed_defs {
            if vowned(d) {
                data_consumers.entry(d).or_default().push(c);
            }
        }
        // Token edges name their producer explicitly (calls fan out).
        for &(d, prod) in &cp.token_defs {
            if prod == p {
                token_consumers.entry(d).or_default().push(c);
            }
        }
    }

    // Value map: original InstId -> new Value.
    let mut vmap: HashMap<InstId, Value> = HashMap::new();
    let mut tokens: BTreeMap<InstId, Vec<usize>> = BTreeMap::new();
    for &(d, prod) in &part.token_defs {
        tokens.entry(d).or_default().push(prod);
    }

    // Remat cache per (block scope): GlobalAddr values materialized at def
    // point.
    let remap = |v: Value, vmap: &HashMap<InstId, Value>| -> Value {
        match v {
            Value::Inst(d) => {
                *vmap.get(&d).unwrap_or_else(|| panic!("@{}[p{}]: unmapped value {}", f.name, p, d))
            }
            Value::Arg(n) => Value::Arg(
                *arg_map
                    .get(&n)
                    .unwrap_or_else(|| panic!("@{}[p{}]: unmapped arg {}", f.name, p, n)),
            ),
            imm => imm,
        }
    };

    // Emit blocks in reverse post-order of the original CFG so every
    // non-phi def is mapped before its uses (defs dominate uses, and a
    // dominator precedes its subtree in RPO); phi operands may still
    // forward-reference and are patched afterwards.
    for b in twill_passes::utils::rpo(f) {
        if !part.kept[b.index()] {
            continue;
        }
        let nb = block_map[b.index()].unwrap();
        let mut cursor: Vec<InstId> = Vec::new(); // non-phi instruction list

        // Rewritten terminator?
        let rewrite = part.branch_rewrite.get(&b).copied();

        for &iid in &f.block(b).insts {
            let inst = f.inst(iid);
            match &inst.op {
                Op::Phi(incoming) => {
                    if owned(iid) {
                        // Clone the phi; incoming preds are guaranteed kept.
                        let inc: Vec<(BlockId, Value)> = incoming
                            .iter()
                            .map(|(pb, v)| {
                                (
                                    block_map[pb.index()].unwrap_or_else(|| {
                                        panic!(
                                            "@{}[p{}]: phi {} pred {} pruned",
                                            f.name, p, iid, pb
                                        )
                                    }),
                                    *v, // patched afterwards (may be fwd ref)
                                )
                            })
                            .collect();
                        let nid = nf.create_inst_at(Op::Phi(inc), inst.ty, f.loc(iid));
                        // Phis form the prefix; push at front section.
                        let nphis = nf
                            .block(nb)
                            .insts
                            .iter()
                            .take_while(|&&i| nf.inst(i).op.is_phi())
                            .count();
                        nf.block_mut(nb).insts.insert(nphis, nid);
                        vmap.insert(iid, Value::Inst(nid));
                        // Producer side.
                        emit_queue_ops_after_def(
                            &mut nf,
                            nb,
                            iid,
                            Value::Inst(nid),
                            fid,
                            p,
                            qmap,
                            &data_consumers,
                            &token_consumers,
                            f,
                        );
                    } else if remat(iid) {
                        // Replicated recurrence phi: clone with original
                        // incoming values (patched after the walk).
                        let inc: Vec<(BlockId, Value)> = incoming
                            .iter()
                            .map(|(pb, v)| {
                                (
                                    block_map[pb.index()].unwrap_or_else(|| {
                                        panic!(
                                            "@{}[p{}]: remat phi {} pred {} pruned",
                                            f.name, p, iid, pb
                                        )
                                    }),
                                    *v,
                                )
                            })
                            .collect();
                        let nid = nf.create_inst_at(Op::Phi(inc), inst.ty, f.loc(iid));
                        let nphis = nf
                            .block(nb)
                            .insts
                            .iter()
                            .take_while(|&&i| nf.inst(i).op.is_phi())
                            .count();
                        nf.block_mut(nb).insts.insert(nphis, nid);
                        vmap.insert(iid, Value::Inst(nid));
                    } else if needed(iid) {
                        let q = qmap[&QKey::Data(fid.0, iid, p)];
                        let nid = nf.create_inst_at(
                            Op::Intrin(Intr::Dequeue(q), vec![]),
                            dq_ty(inst.ty),
                            f.loc(iid),
                        );
                        cursor.push(nid);
                        vmap.insert(iid, Value::Inst(nid));
                    }
                    if let Some(prods) = tokens.get(&iid) {
                        for &prod in prods {
                            let q = qmap[&QKey::Token(fid.0, iid, prod, p)];
                            let nid = nf.create_inst_at(
                                Op::Intrin(Intr::Dequeue(q), vec![]),
                                Ty::I1,
                                f.loc(iid),
                            );
                            cursor.push(nid);
                        }
                    }
                }
                Op::Br(_) | Op::CondBr(..) | Op::Switch(..) | Op::Ret(_) => {
                    // handled below as terminator
                }
                Op::Call(callee, args) => {
                    let rel = g_nonempty[callee.index()][p];
                    if rel {
                        let cargs: Vec<Value> = g_needed_args[callee.index()][p]
                            .iter()
                            .map(|&a| remap(args[a as usize], &vmap))
                            .collect();
                        let (callee_ret_owner, callee_has_ret) = ret_owners[callee.index()];
                        let crets = if p == callee_ret_owner && callee_has_ret {
                            m.func(*callee).ret
                        } else {
                            Ty::Void
                        };
                        let nid = nf.create_inst_at(
                            Op::Call(func_ids[callee.index()][p], cargs),
                            crets,
                            f.loc(iid),
                        );
                        cursor.push(nid);
                        if crets != Ty::Void {
                            vmap.insert(iid, Value::Inst(nid));
                            // p produced the call's value: forward it.
                            emit_enqueues(
                                &mut cursor,
                                &mut nf,
                                iid,
                                Value::Inst(nid),
                                fid,
                                p,
                                qmap,
                                &data_consumers,
                                &token_consumers,
                                f,
                            );
                        } else {
                            // Token producers still signal completion.
                            emit_token_enqueues(
                                &mut cursor,
                                &mut nf,
                                iid,
                                fid,
                                p,
                                qmap,
                                &token_consumers,
                                f,
                            );
                        }
                    }
                    // Consumer of a foreign call result (call not owned /
                    // not result-owning here).
                    if !vmap.contains_key(&iid) && needed(iid) {
                        let q = qmap[&QKey::Data(fid.0, iid, p)];
                        let nid = nf.create_inst_at(
                            Op::Intrin(Intr::Dequeue(q), vec![]),
                            dq_ty(inst.ty),
                            f.loc(iid),
                        );
                        cursor.push(nid);
                        vmap.insert(iid, Value::Inst(nid));
                    }
                    if let Some(prods) = tokens.get(&iid) {
                        for &prod in prods {
                            let q = qmap[&QKey::Token(fid.0, iid, prod, p)];
                            let nid = nf.create_inst_at(
                                Op::Intrin(Intr::Dequeue(q), vec![]),
                                Ty::I1,
                                f.loc(iid),
                            );
                            cursor.push(nid);
                        }
                    }
                }
                op => {
                    if owned(iid) {
                        let mut new_op = op.clone();
                        new_op.for_each_value_mut(|v| *v = remap(*v, &vmap));
                        // Function addresses point to the software-master
                        // version (indirect calls only execute there).
                        if let Op::FuncAddr(t) = &mut new_op {
                            *t = func_ids[t.index()][0];
                        }
                        let nid = nf.create_inst_at(new_op, inst.ty, f.loc(iid));
                        cursor.push(nid);
                        if inst.ty != Ty::Void {
                            vmap.insert(iid, Value::Inst(nid));
                        }
                        emit_enqueues(
                            &mut cursor,
                            &mut nf,
                            iid,
                            Value::Inst(nid),
                            fid,
                            p,
                            qmap,
                            &data_consumers,
                            &token_consumers,
                            f,
                        );
                    } else {
                        if remat(iid) {
                            // Re-materialize (gaddr / replicated-SCC member)
                            // at the def point; non-phi operands were
                            // already mapped earlier in RPO.
                            let mut new_op = op.clone();
                            new_op.for_each_value_mut(|v| *v = remap(*v, &vmap));
                            let nid = nf.create_inst_at(new_op, inst.ty, f.loc(iid));
                            cursor.push(nid);
                            vmap.insert(iid, Value::Inst(nid));
                        } else if needed(iid) {
                            let q = qmap[&QKey::Data(fid.0, iid, p)];
                            let nid = nf.create_inst_at(
                                Op::Intrin(Intr::Dequeue(q), vec![]),
                                dq_ty(inst.ty),
                                f.loc(iid),
                            );
                            cursor.push(nid);
                            vmap.insert(iid, Value::Inst(nid));
                        }
                        if let Some(prods) = tokens.get(&iid) {
                            for &prod in prods {
                                let q = qmap[&QKey::Token(fid.0, iid, prod, p)];
                                let nid = nf.create_inst_at(
                                    Op::Intrin(Intr::Dequeue(q), vec![]),
                                    Ty::I1,
                                    f.loc(iid),
                                );
                                cursor.push(nid);
                            }
                        }
                    }
                }
            }
        }

        // Terminator.
        let term = f.block(b).terminator().expect("block has terminator");
        let tinst = f.inst(term);
        let new_term = match (&tinst.op, rewrite) {
            (_, Some(target)) => Op::Br(block_map[target.index()].unwrap_or_else(|| {
                panic!("@{}[p{}]: rewrite target {} pruned", f.name, p, target)
            })),
            (Op::Br(t), None) => Op::Br(block_map[t.index()].expect("Br target kept")),
            (Op::CondBr(c, t, e), None) => Op::CondBr(
                remap(*c, &vmap),
                block_map[t.index()].expect("condbr target kept"),
                block_map[e.index()].expect("condbr target kept"),
            ),
            (Op::Ret(v), None) => {
                if p == plan.ret_owner && plan.has_ret_value {
                    Op::Ret(Some(remap(v.expect("ret value"), &vmap)))
                } else {
                    Op::Ret(None)
                }
            }
            (Op::Switch(..), None) => panic!("switch must be lowered before DSWP"),
            (other, None) => panic!("unexpected terminator {other:?}"),
        };
        let tid = nf.create_inst_at(new_term, Ty::Void, f.loc(term));
        cursor.push(tid);
        nf.block_mut(nb).insts.extend(cursor);
    }

    // Patch phi operands: they were copied verbatim with ORIGINAL value
    // ids (phis may forward-reference defs mapped later in the walk).
    let live: Vec<InstId> = nf.inst_ids_in_layout().into_iter().map(|(_, i)| i).collect();
    for nid in live {
        let fname = &f.name;
        if let Op::Phi(incoming) = &mut nf.inst_mut(nid).op {
            for (_, v) in incoming.iter_mut() {
                match v {
                    Value::Inst(orig) => {
                        *v = *vmap.get(orig).unwrap_or_else(|| {
                            panic!("@{fname}[p{p}]: phi operand {orig} unmapped")
                        });
                    }
                    Value::Arg(n) => {
                        *v = Value::Arg(arg_map[n]);
                    }
                    Value::Imm(..) => {}
                }
            }
        }
    }

    nf
}

fn dq_ty(ty: Ty) -> Ty {
    if ty == Ty::Void {
        Ty::I1
    } else {
        ty
    }
}

/// Emit producer-side enqueues for a def directly after it in `cursor`.
#[allow(clippy::too_many_arguments)]
fn emit_enqueues(
    cursor: &mut Vec<InstId>,
    nf: &mut Function,
    def: InstId,
    val: Value,
    fid: FuncId,
    p: usize,
    qmap: &BTreeMap<QKey, QueueId>,
    data_consumers: &HashMap<InstId, Vec<usize>>,
    token_consumers: &HashMap<InstId, Vec<usize>>,
    f: &Function,
) {
    // Queue traffic attributes to the line of the value it forwards.
    let loc = f.loc(def);
    if let Some(cs) = data_consumers.get(&def) {
        for &c in cs {
            let q = qmap[&QKey::Data(fid.0, def, c)];
            let e = nf.create_inst_at(Op::Intrin(Intr::Enqueue(q), vec![val]), Ty::Void, loc);
            cursor.push(e);
        }
    }
    if let Some(cs) = token_consumers.get(&def) {
        for &c in cs {
            let q = qmap[&QKey::Token(fid.0, def, p, c)];
            let e = nf.create_inst_at(
                Op::Intrin(Intr::Enqueue(q), vec![Value::imm1(true)]),
                Ty::Void,
                loc,
            );
            cursor.push(e);
        }
    }
}

/// Token-only producer signalling (void calls).
#[allow(clippy::too_many_arguments)]
fn emit_token_enqueues(
    cursor: &mut Vec<InstId>,
    nf: &mut Function,
    def: InstId,
    fid: FuncId,
    p: usize,
    qmap: &BTreeMap<QKey, QueueId>,
    token_consumers: &HashMap<InstId, Vec<usize>>,
    f: &Function,
) {
    let loc = f.loc(def);
    if let Some(cs) = token_consumers.get(&def) {
        for &c in cs {
            let q = qmap[&QKey::Token(fid.0, def, p, c)];
            let e = nf.create_inst_at(
                Op::Intrin(Intr::Enqueue(q), vec![Value::imm1(true)]),
                Ty::Void,
                loc,
            );
            cursor.push(e);
        }
    }
}

/// Enqueue emission when the def was emitted directly into the block (phi
/// path): append right after the phi prefix.
#[allow(clippy::too_many_arguments)]
fn emit_queue_ops_after_def(
    nf: &mut Function,
    nb: BlockId,
    def: InstId,
    val: Value,
    fid: FuncId,
    p: usize,
    qmap: &BTreeMap<QKey, QueueId>,
    data_consumers: &HashMap<InstId, Vec<usize>>,
    token_consumers: &HashMap<InstId, Vec<usize>>,
    f: &Function,
) {
    let loc = f.loc(def);
    let mut pending: Vec<InstId> = Vec::new();
    if let Some(cs) = data_consumers.get(&def) {
        for &c in cs {
            let q = qmap[&QKey::Data(fid.0, def, c)];
            pending.push(nf.create_inst_at(Op::Intrin(Intr::Enqueue(q), vec![val]), Ty::Void, loc));
        }
    }
    if let Some(cs) = token_consumers.get(&def) {
        for &c in cs {
            let q = qmap[&QKey::Token(fid.0, def, p, c)];
            pending.push(nf.create_inst_at(
                Op::Intrin(Intr::Enqueue(q), vec![Value::imm1(true)]),
                Ty::Void,
                loc,
            ));
        }
    }
    if pending.is_empty() {
        return;
    }
    let nphis = nf.block(nb).insts.iter().take_while(|&&i| nf.inst(i).op.is_phi()).count();
    for (k, e) in pending.into_iter().enumerate() {
        nf.block_mut(nb).insts.insert(nphis + k, e);
    }
}

/// Queue reuse: merge data queues with identical (producer, consumer,
/// width) across *different functions* — safe because function activations
/// never interleave between a fixed thread pair and every queue drains by
/// its function's return. Guard functions with potentially overlapping
/// call sites with a binary semaphore (thesis §5.2). Returns #semaphores.
fn reuse_queues(out: &mut Module, orig: &Module, cg: &CallGraph) -> usize {
    // Queue -> (function set, producer partition, consumer partition).
    // We recover producer/consumer by scanning enqueue/dequeue sites.
    let mut producer: HashMap<QueueId, (usize, Ty)> = HashMap::new(); // func idx
    let mut consumer: HashMap<QueueId, usize> = HashMap::new();
    let mut pfunc: HashMap<QueueId, String> = HashMap::new();
    for (fi, f) in out.funcs.iter().enumerate() {
        for (_, iid) in f.inst_ids_in_layout() {
            match &f.inst(iid).op {
                Op::Intrin(Intr::Enqueue(q), _) => {
                    producer.insert(*q, (fi, out.queues[q.index()].width));
                    pfunc.insert(*q, f.name.clone());
                }
                Op::Intrin(Intr::Dequeue(q), _) => {
                    consumer.insert(*q, fi);
                }
                _ => {}
            }
        }
    }
    // Group by (producer func partition suffix, consumer func partition
    // suffix, width, base-function-distinct). Reuse across different base
    // functions only.
    let part_of = |name: &str| -> (String, String) {
        match name.rfind("_dswp_") {
            Some(i) => (name[..i].to_string(), name[i + 6..].to_string()),
            None => (name.to_string(), "?".into()),
        }
    };
    let mut groups: BTreeMap<(String, String, u32), Vec<QueueId>> = BTreeMap::new();
    for (q, (pf, width)) in &producer {
        let Some(cf) = consumer.get(q) else { continue };
        let (pbase, ppart) = part_of(&out.funcs[*pf].name);
        let (_, cpart) = part_of(&out.funcs[*cf].name);
        let _ = pbase;
        groups.entry((ppart, cpart, width.bits())).or_default().push(*q);
    }
    // Within each group, queues from different base functions can share one
    // physical queue. Build remap: representative per (group, base func) —
    // all map to the group representative.
    let mut remap: HashMap<QueueId, QueueId> = HashMap::new();
    for (_, qs) in groups {
        // Partition queues by base function of the producer site.
        let mut by_func: BTreeMap<String, Vec<QueueId>> = BTreeMap::new();
        for q in qs {
            let name = pfunc.get(&q).cloned().unwrap_or_default();
            let (base, _) = part_of(&name);
            by_func.entry(base).or_default().push(q);
        }
        if by_func.len() < 2 {
            continue;
        }
        // The function with the most queues keeps its ids; others reuse.
        let mut funcs: Vec<(String, Vec<QueueId>)> = by_func.into_iter().collect();
        funcs.sort_by_key(|(_, v)| std::cmp::Reverse(v.len()));
        let pool: Vec<QueueId> = funcs[0].1.clone();
        for (_, qs) in funcs.iter().skip(1) {
            for (i, q) in qs.iter().enumerate() {
                if i < pool.len() {
                    remap.insert(*q, pool[i]);
                }
            }
        }
    }
    if remap.is_empty() {
        return 0;
    }
    // Apply remap.
    for f in &mut out.funcs {
        let live: Vec<InstId> = f.inst_ids_in_layout().into_iter().map(|(_, i)| i).collect();
        for iid in live {
            if let Op::Intrin(Intr::Enqueue(q) | Intr::Dequeue(q), _) = &mut f.inst_mut(iid).op {
                if let Some(nq) = remap.get(q) {
                    *q = *nq;
                }
            }
        }
    }
    // Drop now-unused queue decls? Keep declarations but mark: simplest is
    // to rebuild the queue table compactly.
    compact_queue_table(out);

    // Semaphores: one per original function with multiple call sites that
    // lack a connecting dependence chain (thesis' conservative overlap
    // test). We approximate: any function with >1 static call site.
    let mut sems = 0;
    for fid in orig.func_ids() {
        if cg.call_site_count(orig, fid) > 1 && orig.func(fid).name != "main" {
            out.add_sem(SemDecl { max: 1, initial: 1 });
            sems += 1;
        }
    }
    sems
}

fn compact_queue_table(out: &mut Module) {
    let mut used: BTreeSet<QueueId> = BTreeSet::new();
    for f in &out.funcs {
        for (_, iid) in f.inst_ids_in_layout() {
            if let Op::Intrin(Intr::Enqueue(q) | Intr::Dequeue(q), _) = &f.inst(iid).op {
                used.insert(*q);
            }
        }
    }
    let mut remap: HashMap<QueueId, QueueId> = HashMap::new();
    let mut new_queues = Vec::new();
    for q in used {
        remap.insert(q, QueueId::new(new_queues.len()));
        new_queues.push(out.queues[q.index()]);
    }
    out.queues = new_queues;
    for f in &mut out.funcs {
        let live: Vec<InstId> = f.inst_ids_in_layout().into_iter().map(|(_, i)| i).collect();
        for iid in live {
            if let Op::Intrin(Intr::Enqueue(q) | Intr::Dequeue(q), _) = &mut f.inst_mut(iid).op {
                *q = remap[q];
            }
        }
    }
}
