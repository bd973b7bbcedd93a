//! # twill-dswp
//!
//! The Twill compiler core: modified Decoupled Software Pipelining (thesis
//! Ch. 5). Takes a prepared single-threaded module and produces one
//! *partition function* per thread per original function, communicating
//! through statically-declared FIFO queues, plus the HW/SW split.
//!
//! ## Algorithm (and how it maps to the thesis)
//!
//! 1. **Partitioning** (§5.2): per function, the PDG's SCC DAG is walked in
//!    topological order; a greedy heuristic fills each partition up to a
//!    targeted percentage of the function's estimated work, picking the
//!    smallest available SCC each time (the thesis' sorted-list greedy).
//!    Partition 0 is the software master (the thesis pins `main`'s master
//!    to software, §5.3); the remaining partitions are hardware threads.
//! 2. **Extraction** (§5.2.1): each partition receives a copy of the
//!    function CFG; instructions go to their SCC's partition; every
//!    cross-partition SSA value is forwarded through a dedicated queue with
//!    the *enqueue immediately after the definition* and the *dequeue at
//!    the definition's program point in the consumer* — which makes
//!    enqueue/dequeue counts match on every control-flow path by
//!    construction (the four loop-matching cases of Fig 5.3 all reduce to
//!    this placement). Cross-partition memory/IO orderings become 1-bit
//!    token queues at the same program points.
//! 3. **Pruning** (§5.2's "branch to the closest post-dominating block"):
//!    per partition, single-exit loops and branch diamonds containing no
//!    relevant work for that partition are skipped by retargeting to the
//!    post-dominator. Queues are materialized *after* pruning so both
//!    endpoints agree.
//! 4. **Function calls** (§5.2.1): every partition's copy of a call site
//!    calls its own partition's version of the callee (thread reuse, no
//!    recursion); argument values and the return value are forwarded like
//!    any other cross-partition value. Callees are processed before
//!    callers so signatures are known.
//!
//! The result runs on `twill-rt`'s cycle-level simulator: the software
//! master on the CPU, every other partition as a hardware thread.

#[cfg(test)]
mod complexity_guard;
pub mod extract;
pub mod placement;

pub use extract::{run_dswp, DswpResult, ThreadSpec};
pub use placement::{DswpOptions, Placement};
