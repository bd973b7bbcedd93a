//! Twill's end-to-end and per-layer wall-time benchmark.
//!
//! One single-threaded process drives Twill's public API as a closed loop,
//! one op at a time with no think time, and checks every op's output. See
//! `perfbench/WORKLOADS.md` for the workloads and what each metric should
//! move.

pub mod ops;
pub mod report;
pub mod run;
pub mod trace;
