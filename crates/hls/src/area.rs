//! FPGA area model: LUT/DSP/BRAM estimation for scheduled modules,
//! calibrated so pure-HW translations of the CHStone kernels land in the
//! 2k–31k LUT range of thesis Table 6.2.

use crate::schedule::{FuncSchedule, ModuleSchedule};
use twill_ir::cost;
use twill_ir::Module;

/// Area of one function or module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AreaReport {
    pub luts: u32,
    pub dsps: u32,
    pub brams: u32,
}

impl AreaReport {
    pub fn add(&mut self, o: AreaReport) {
        self.luts += o.luts;
        self.dsps += o.dsps;
        self.brams += o.brams;
    }
}

/// Per-shared-unit LUT costs (32-bit datapath).
const LUTS_ADD: u32 = 32;
const LUTS_LOGIC: u32 = 32;
const LUTS_SHIFT: u32 = 96;
const LUTS_MUL: u32 = 40; // plus 1 DSP
const LUTS_DIV: u32 = 380; // serial divider
const LUTS_CMP: u32 = 16;
const LUTS_MEMPORT: u32 = 8;
const LUTS_QUEUEPORT: u32 = 6;
/// FSM one-hot state + next-state logic per state.
const LUTS_PER_STATE: u32 = 3;
/// Per cross-state live value: input mux into the shared datapath.
const LUTS_PER_LIVE: u32 = 6;
/// Per function: control glue (start/done handshake, return mux).
const LUTS_FUNC_GLUE: u32 = 24;

/// Area of a scheduled function.
pub fn estimate_function_area(fs: &FuncSchedule) -> AreaReport {
    let u = fs.peak_units;
    let luts = u.add * LUTS_ADD
        + u.logic * LUTS_LOGIC
        + u.shift * LUTS_SHIFT
        + u.mul * LUTS_MUL
        + u.div * LUTS_DIV
        + u.cmp * LUTS_CMP
        + u.mem.min(1) * LUTS_MEMPORT
        + u.queue.min(1) * LUTS_QUEUEPORT
        + fs.states * LUTS_PER_STATE
        + fs.live_values * LUTS_PER_LIVE
        + LUTS_FUNC_GLUE;
    AreaReport { luts, dsps: u.mul, brams: 0 }
}

/// Area of every function in a scheduled module (HW-thread logic only;
/// runtime-system area is accounted separately via [`runtime_area`]).
pub fn estimate_module_area(m: &Module, s: &ModuleSchedule) -> AreaReport {
    let mut total = AreaReport::default();
    for fs in &s.funcs {
        total.add(estimate_function_area(fs));
    }
    // LegUp-style BRAM use: one block per 2 KiB of global data when the
    // design owns its memories (the pure-HW flow); Twill's hybrid flow
    // stores data in the processor's memory instead (thesis §6.2).
    let global_bytes: u32 = m.globals.iter().map(|g| g.size).sum();
    total.brams += global_bytes.div_ceil(2048);
    total
}

/// Twill runtime-system area from the primitive counts (thesis §6.2
/// constants, re-exported from `twill_ir::cost`).
pub fn runtime_area(m: &Module, hw_threads: u32, cpus: u32) -> AreaReport {
    let mut luts = 0;
    let mut dsps = 0;
    for q in &m.queues {
        luts += cost::queue_luts(q.width, q.depth);
        dsps += cost::DSPS_QUEUE;
    }
    luts += m.sems.len() as u32 * cost::LUTS_SEMAPHORE;
    luts += hw_threads * cost::LUTS_HW_INTERFACE;
    luts += cost::LUTS_PROC_INTERFACE;
    luts += cost::LUTS_SCHEDULER;
    dsps += cost::DSPS_SCHEDULER;
    luts += 2 * cost::LUTS_BUS_ARBITER;
    let brams = cpus * cost::BRAMS_MICROBLAZE;
    let _ = cpus;
    AreaReport { luts, dsps, brams }
}

/// Per-counter LUT cost of the opt-in `twill_perf` subsystem: a 64-bit
/// increment chain plus the enable gate.
const LUTS_PERF_COUNTER64: u32 = 36;
/// Per-queue high-water tracker: 32-bit compare + register.
const LUTS_PERF_HIGH_WATER: u32 = 40;
/// Readback word mux, per mapped 32-bit word.
const LUTS_PERF_WORD_MUX: u32 = 2;
/// Fixed decode/handshake glue plus the FSM state taps.
const LUTS_PERF_GLUE: u32 = 48;

/// Instrumentation overhead of the `twill_perf` counter register file
/// (DESIGN.md §14), charged only when a design is emitted with hardware
/// counters enabled so `fits_device` stays honest about the instrumented
/// bitstream. Counter and word populations come from the register-map
/// layout constants — the same source the emitted Verilog is generated
/// from.
pub fn perf_counter_area(threads: u32, queues: u32) -> AreaReport {
    use twill_obs::regmap::{HEADER_WORDS, QUEUE_COUNTERS, QUEUE_WORDS, THREAD_WORDS};
    let classes = twill_obs::StallClass::ALL.len() as u32;
    let counters = 1 + threads * classes + queues * QUEUE_COUNTERS.len() as u32;
    let words = HEADER_WORDS + threads * THREAD_WORDS + queues * QUEUE_WORDS;
    AreaReport {
        luts: counters * LUTS_PERF_COUNTER64
            + queues * LUTS_PERF_HIGH_WATER
            + words * LUTS_PERF_WORD_MUX
            + LUTS_PERF_GLUE,
        dsps: 0,
        brams: 0,
    }
}

/// The Microblaze soft core itself (Table 6.2's final column delta).
pub fn microblaze_area() -> AreaReport {
    AreaReport { luts: cost::LUTS_MICROBLAZE, dsps: 3, brams: cost::BRAMS_MICROBLAZE }
}

/// Device capacity check (Virtex-5 LX110T, thesis board).
pub fn fits_device(total: &AreaReport) -> bool {
    total.luts <= cost::DEVICE_LUTS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule_module, HlsOptions};

    #[test]
    fn chstone_pure_hw_in_table_6_2_range() {
        // Table 6.2 LegUp column spans 2101..31084 LUTs.
        for b in chstone::all() {
            let m = chstone::compile_and_prepare(&b);
            let s = schedule_module(&m, &HlsOptions::default());
            let a = estimate_module_area(&m, &s);
            assert!(
                a.luts > 500 && a.luts < 80_000,
                "{}: {} LUTs way out of calibration range",
                b.name,
                a.luts
            );
        }
    }

    #[test]
    fn runtime_area_uses_thesis_constants() {
        let mut m = twill_ir::Module::new("t");
        for _ in 0..10 {
            m.add_queue(twill_ir::QueueDecl { width: twill_ir::Ty::I32, depth: 8 });
        }
        m.add_sem(twill_ir::SemDecl { max: 1, initial: 1 });
        let a = runtime_area(&m, 3, 1);
        // 10 queues * 65 + 70 + 3*44 + 24 + 98 + 2*15
        assert_eq!(a.luts, 650 + 70 + 132 + 24 + 98 + 30);
        assert_eq!(a.dsps, 10 + 2);
        assert_eq!(a.brams, 16);
    }

    #[test]
    fn more_states_more_area() {
        let src_small = "func @f(i32) -> i32 {\nbb0:\n  %0 = add i32 %a0, 1:i32\n  ret %0\n}\n";
        let src_big = r#"func @f(i32) -> i32 {
bb0:
  %0 = mul i32 %a0, 3:i32
  %1 = sdiv i32 %0, 7:i32
  %2 = mul i32 %1, %1
  %3 = sdiv i32 %2, 5:i32
  ret %3
}
"#;
        let ms = twill_ir::parser::parse_module(src_small).unwrap();
        let mb = twill_ir::parser::parse_module(src_big).unwrap();
        let a_small = estimate_module_area(&ms, &schedule_module(&ms, &HlsOptions::default()));
        let a_big = estimate_module_area(&mb, &schedule_module(&mb, &HlsOptions::default()));
        assert!(a_big.luts > a_small.luts);
        assert!(a_big.dsps >= 1);
    }

    #[test]
    fn perf_counter_area_scales_with_population() {
        let none = perf_counter_area(0, 0);
        // Cycle counter + glue + header mux words even for an empty map.
        assert_eq!(none.luts, 36 + 6 * 2 + 48);
        assert_eq!((none.dsps, none.brams), (0, 0));
        let small = perf_counter_area(2, 1);
        let big = perf_counter_area(3, 8);
        assert!(none.luts < small.luts && small.luts < big.luts);
        // One extra thread costs 7 counters + 15 mux words.
        assert_eq!(perf_counter_area(3, 1).luts - small.luts, 7 * 36 + 15 * 2);
        // One extra queue costs 4 counters + a high-water tracker + 10 words.
        assert_eq!(perf_counter_area(2, 2).luts - small.luts, 4 * 36 + 40 + 10 * 2);
    }

    #[test]
    fn device_capacity_check() {
        assert!(fits_device(&AreaReport { luts: 50_000, dsps: 0, brams: 0 }));
        assert!(!fits_device(&AreaReport { luts: 70_000, dsps: 0, brams: 0 }));
    }
}
