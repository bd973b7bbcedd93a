//! Zero-allocation gate for the simulator hot path (DESIGN.md §8): with
//! tracing disabled, the per-cycle work — bus arbitration, queue/semaphore
//! ops, memory ops, and every always-on metrics counter — must not touch
//! the heap. A counting `#[global_allocator]` measures the steady-state
//! loop. It counts the allocations of the measuring thread only, so
//! nothing the test harness allocates on another thread pollutes it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use twill_ir::{Module, QueueDecl, SemDecl, Ty};
use twill_rt::shared::{OpKind, PendState};
use twill_rt::Shared;

struct Counting;

thread_local! {
    /// Allocations made by this thread. A const-initialized `Cell` needs
    /// no allocation and no destructor, so the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread tearing down its locals may still allocate; skip those.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// This thread's allocations so far.
fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; counting neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Run one op to completion, bounded so a deadlock fails loudly.
fn run_to_done(s: &mut Shared, kind: OpKind) -> i64 {
    let mut p = s.start_op(kind, 2);
    for _ in 0..64 {
        s.begin_cycle();
        p = s.poll(p);
        if let PendState::Done(v) = p.state {
            return v;
        }
    }
    panic!("op did not complete");
}

#[test]
fn steady_state_sim_loop_does_not_allocate() {
    // Setup (allocates): a module with one queue and one semaphore.
    let mut m = Module::new("zero-alloc");
    m.add_queue(QueueDecl { width: Ty::I32, depth: 4 });
    m.add_sem(SemDecl { max: 8, initial: 0 });
    let mut s = Shared::new(&m, 1 << 16, vec![], 0, None, &[], 1);
    s.set_agent(0);

    // Warm up one round so lazy one-time costs land before measuring.
    run_to_done(&mut s, OpKind::Enqueue(twill_ir::QueueId(0), 1));
    run_to_done(&mut s, OpKind::Dequeue(twill_ir::QueueId(0)));

    let before = allocs_so_far();
    for round in 0..1_000i64 {
        // Fill the queue to its depth, then drain it (exercises the full
        // push/pop/occupancy-histogram/peak accounting path).
        for v in 0..4 {
            run_to_done(&mut s, OpKind::Enqueue(twill_ir::QueueId(0), round * 4 + v));
        }
        for _ in 0..4 {
            run_to_done(&mut s, OpKind::Dequeue(twill_ir::QueueId(0)));
        }
        // Semaphore raise/lower pair.
        run_to_done(&mut s, OpKind::SemRaise(twill_ir::SemId(0), 2));
        run_to_done(&mut s, OpKind::SemLower(twill_ir::SemId(0), 2));
        // Memory-bus store + load.
        run_to_done(&mut s, OpKind::MemStore(64, Ty::I32, round));
        run_to_done(&mut s, OpKind::MemLoad(64, Ty::I32));
    }
    let after = allocs_so_far();
    assert_eq!(
        after - before,
        0,
        "simulator hot path allocated with tracing disabled (counters must be pre-allocated)"
    );

    // The counters did advance — we measured the real path, not a no-op.
    assert!(s.stats.queue_stats[0].pushes >= 4_000);
    assert!(s.stats.queue_stats[0].pops >= 4_000);
    assert_eq!(s.stats.queue_peak[0], 4);
}
