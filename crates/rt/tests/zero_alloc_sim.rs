//! Allocation-free agent steady state: a whole simulation allocates only
//! while it sets up, never per simulated block, call or cycle. Running the
//! same looping program for 64 and for 4,096 iterations must cost exactly
//! the same number of heap allocations in every configuration, so the
//! CPU's interpreter and the hardware threads' FSM executor (phi parallel
//! copies and call frames included) meet the no-heap rule `zero_alloc.rs`
//! sets for the buses and queues. A counting `#[global_allocator]`
//! measures each run. It counts the allocations of the measuring thread
//! only (a simulation runs on its caller's thread), so nothing the test
//! harness allocates on another thread pollutes it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use twill_dswp::{run_dswp, DswpOptions, DswpResult};
use twill_ir::{Module, Op};
use twill_passes::inline::InlineOptions;
use twill_passes::PipelineOptions;
use twill_rt::{simulate_hybrid, simulate_pure_hw, simulate_pure_sw, SimConfig, SimReport};

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

/// The same loop with its update in a function that stays a call, so a
/// hardware thread opens and closes a frame on every trip.
const CALLING: &str = r#"
int step(int y, int x) { return (y * 5 + x) % 1009; }
int main() {
  int n = in();
  int acc = 0;
  int y = 1;
  for (int i = 0; i < n; i++) {
    int x = (i * 7 + 3) ^ (i << 2);
    y = step(y, x);
    acc += x % 11 + y;
  }
  out(acc);
  return 0;
}
"#;

/// Compile `src` with `opts` and split it into a two-stage pipeline.
fn build(src: &str, opts: &PipelineOptions) -> (Module, DswpResult) {
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, opts);
    let d = run_dswp(
        &m,
        &DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.5, 0.5]),
            ..Default::default()
        },
    );
    assert!(d.stats.queues > 0, "expected a pipelined hybrid");
    (m, d)
}

/// Whether a hardware thread's entry function makes a call.
fn hw_calls(d: &DswpResult) -> bool {
    d.threads
        .iter()
        .filter(|t| t.is_hw)
        .any(|t| d.module.func(t.entry).insts.iter().any(|i| matches!(i.op, Op::Call(..))))
}

/// Heap allocations made by one simulation, and its report.
fn allocs(run: impl FnOnce() -> SimReport) -> (u64, SimReport) {
    let before = allocs_so_far();
    let rep = run();
    (allocs_so_far() - before, rep)
}

#[test]
fn whole_simulations_allocate_independently_of_trip_count() {
    let no_inline = PipelineOptions {
        inline: InlineOptions {
            small_threshold: 0,
            single_site_threshold: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let calling = build(CALLING, &no_inline);
    assert!(hw_calls(&calling.1), "the hybrid's hardware thread must make the call");
    let (m, d) = build(PROGRAM, &Default::default());
    check_program("call-free", &m, &d);
    check_program("calling", &calling.0, &calling.1);
}

/// The 64- and 4,096-iteration runs of one program, in every mode.
fn check_program(name: &str, m: &Module, d: &DswpResult) {
    let cfg = SimConfig::default();
    for mode in ["pure-sw", "pure-hw", "hybrid"] {
        let sim = |n: i32| {
            allocs(|| {
                match mode {
                    "pure-sw" => simulate_pure_sw(m, vec![n], &cfg),
                    "pure-hw" => simulate_pure_hw(m, vec![n], &cfg),
                    _ => simulate_hybrid(d, vec![n], &cfg),
                }
                .unwrap()
            })
        };
        let mode = format!("{name} {mode}");
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
