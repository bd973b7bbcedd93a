//! # twill-rt
//!
//! Cycle-level simulation of the Twill runtime architecture (thesis Ch. 4)
//! and of the three experiment configurations (pure SW / pure HW / hybrid).
//!
//! ## Timing model (constants from the thesis, see `twill_ir::cost`)
//!
//! * **Module bus** — one message per cycle, 1-cycle grant latency;
//!   priority: processor first, then messages to the processor, then the
//!   longest-waiting primitive (§4.1). Modeled as a per-cycle grant budget
//!   with CPU-first tick ordering and round-rotation for fairness.
//! * **Queues** — enqueue/dequeue ≥ 2 cycles, blocking at full/empty with
//!   circular size+1 semantics (§4.3); the Fig 6.5 experiment adds
//!   configurable extra latency, Fig 6.6 overrides depth.
//! * **Semaphores** — raise 1 cycle, lower ≥ 2, FIFO wakeup (§4.2).
//! * **Memory bus** — HW threads: write 1 cycle, read 2 cycles, one
//!   operation in flight (§4.1). CPU memory is local BRAM (2-cycle
//!   load/store in the instruction cost table). Writes are applied to the
//!   single backing store immediately; the 2-cycle cross-domain visibility
//!   of the write-update scheme is subsumed by the ≥2-cycle token/queue
//!   synchronization DSWP inserts on every cross-thread dependence
//!   (DESIGN.md §2).
//! * **CPU runtime ops** — five cycles via the Microblaze stream
//!   interface (§4.5).
//! * **HW threads** — execute `twill-hls` schedules: one FSM state per
//!   cycle, chained ops free, multi-cycle ops stall, pipelined loop bodies
//!   initiate every II cycles.

pub mod agent;
pub mod counters;
pub mod cpu;
pub mod fault;
pub mod hang;
pub mod hwthread;
pub mod profile;
pub mod shared;
pub mod system;

pub use counters::CounterBank;
pub use fault::{FaultPlan, FaultRecord, FaultSite, FaultSpec, PinnedFault};
pub use hang::{AgentWait, HangReport, WaitState};
pub use profile::{AgentProfile, SimProfile};
pub use shared::{QueueStat, Shared, SimStats};
pub use system::{
    simulate_hybrid, simulate_hybrid_scheduled, simulate_pure_hw, simulate_pure_hw_scheduled,
    simulate_pure_sw, ConfigError, SimConfig, SimError, SimReport,
};

/// Re-export of the observability layer (stall classes, event model,
/// Perfetto export, metrics).
pub use twill_obs as obs;
