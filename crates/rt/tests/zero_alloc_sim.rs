//! Allocation-free agent steady state: a whole simulation allocates only
//! while it sets up, never per simulated block or cycle. Running the same
//! call-free looping program for 64 and for 4,096 iterations must cost
//! exactly the same number of heap allocations in every configuration, so
//! the CPU's interpreter and the hardware threads' FSM executor (phi
//! parallel copies included) meet the no-heap rule `zero_alloc.rs` sets
//! for the buses and queues. A counting `#[global_allocator]` measures
//! each run; this file holds exactly one test so no concurrent test can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use twill_dswp::{run_dswp, DswpOptions};
use twill_rt::{simulate_hybrid, simulate_pure_hw, simulate_pure_sw, SimConfig, SimReport};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// The iteration count comes from the input stream, so both runs simulate
/// the very same module; the loop header carries phis on every trip.
const PROGRAM: &str = r#"
int main() {
  int n = in();
  int acc = 0;
  int y = 1;
  for (int i = 0; i < n; i++) {
    int x = (i * 7 + 3) ^ (i << 2);
    y = (y * 5 + x) % 1009;
    acc += x % 11 + y;
  }
  out(acc);
  return 0;
}
"#;

/// Heap allocations made by one simulation, and its report.
fn allocs(run: impl FnOnce() -> SimReport) -> (u64, SimReport) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let rep = run();
    (ALLOCS.load(Ordering::Relaxed) - before, rep)
}

#[test]
fn whole_simulations_allocate_independently_of_trip_count() {
    let mut m = twill_frontend::compile("t", PROGRAM).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    let d = run_dswp(
        &m,
        &DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.5, 0.5]),
            ..Default::default()
        },
    );
    assert!(d.stats.queues > 0, "expected a pipelined hybrid");
    let cfg = SimConfig::default();
    for mode in ["pure-sw", "pure-hw", "hybrid"] {
        let sim = |n: i32| {
            allocs(|| {
                match mode {
                    "pure-sw" => simulate_pure_sw(&m, vec![n], &cfg),
                    "pure-hw" => simulate_pure_hw(&m, vec![n], &cfg),
                    _ => simulate_hybrid(&d, vec![n], &cfg),
                }
                .unwrap()
            })
        };
        let (short, short_rep) = sim(64);
        let (long, long_rep) = sim(4096);
        // The long run really did simulate ~64x more work.
        assert!(long_rep.cycles > 32 * short_rep.cycles, "{mode}: runs did not scale");
        assert_ne!(short_rep.output, long_rep.output, "{mode}");
        assert_eq!(
            short, long,
            "{mode}: allocations grew with the trip count ({short} at 64 iterations, \
             {long} at 4096): a per-block or per-cycle path allocates"
        );
    }
}
