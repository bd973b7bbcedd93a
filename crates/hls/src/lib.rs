//! # twill-hls
//!
//! The LegUp stage of the thesis' tool flow, re-implemented as a model:
//!
//! * **scheduling** — per-basic-block resource-constrained list scheduling
//!   with operation chaining (multiple dependent combinational ops per
//!   100 MHz cycle) and iterative-modulo-style loop pipelining for
//!   innermost single-block loops (LegUp's ILP features per thesis §3.1.2),
//! * **area model** — LUT/DSP/BRAM estimation with functional-unit sharing,
//!   calibrated to the magnitudes of thesis Table 6.2,
//! * **power model** — static + PLL + activity-weighted dynamic power
//!   reproducing the ordering of thesis Fig 6.1,
//! * **Verilog emission** — a textual artifact per hardware thread with the
//!   Twill runtime interface signals of thesis §5.4.
//!
//! The cycle-accurate *execution* of schedules happens in `twill-rt`, which
//! walks [`BlockSchedule`]s against the simulated buses.

pub mod area;
pub mod power;
pub mod schedule;
pub mod verilog;

pub use area::{estimate_module_area, perf_counter_area, AreaReport};
pub use power::{power_mw, PowerConfig};
pub use schedule::{
    schedule_function, schedule_module, BlockSchedule, FuncSchedule, HlsOptions, ModuleSchedule,
};
pub use verilog::{emit_module, emit_module_with, EmitOptions};
