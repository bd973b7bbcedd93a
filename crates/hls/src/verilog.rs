//! Verilog emission (thesis §5.4): one module per hardware-thread function
//! with the Twill runtime interface signals driven by a priority
//! decoder/multiplexer over the generated state machine.
//!
//! The output is a textual artifact (snapshot-tested); synthesis happens in
//! the area model, not on this text.
//!
//! With [`EmitOptions::hw_counters`] set, the bundle additionally carries a
//! synthesizable `twill_perf` register file (DESIGN.md §14): 64-bit cycle
//! counters per agent stall class and per-queue event, readable one 32-bit
//! word at a time over the runtime interface (`rt_fn`
//! [`twill_obs::regmap::RT_FN_PERF_READ`], word address on `rt_target`).
//! The readback mux is generated from [`twill_obs::regmap::RegMap`] — the
//! same layout authority the simulator's counter model and the obs-side
//! dump ingester use — so the Verilog and the JSON register-map artifact
//! cannot drift apart. Counters off (the default) emits byte-identical
//! output to every pre-counter snapshot.

use crate::schedule::FuncSchedule;
use std::fmt::Write;
use twill_ir::{Function, Intr, Module, Op, QueueId, Ty};
use twill_obs::regmap::{
    QueueDesc, RegKind, RegMap, QUEUE_COUNTERS, REGMAP_MAGIC, REGMAP_VERSION, RT_FN_PERF_READ,
};
use twill_obs::StallClass;

/// Emission switches for [`emit_module_with`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmitOptions {
    /// Instantiate the `twill_perf` counter subsystem (off by default:
    /// instrumentation is strictly opt-in and costs area).
    pub hw_counters: bool,
    /// Agent track names of the deployed system (`cpu`, `hw1`, …) — the
    /// order defines the register map. Empty falls back to a single
    /// `hw0` agent (standalone / pure-hardware emission).
    pub threads: Vec<String>,
}

impl EmitOptions {
    /// The register map the emitted `twill_perf` file implements.
    pub fn regmap(&self, m: &Module) -> RegMap {
        let threads =
            if self.threads.is_empty() { vec!["hw0".to_string()] } else { self.threads.clone() };
        let queues = m
            .queues
            .iter()
            .enumerate()
            .map(|(i, q)| QueueDesc { name: QueueId::new(i).to_string(), depth: q.depth })
            .collect();
        RegMap::new(&m.name, threads, queues)
    }
}

/// Collision-free Verilog identifier for every function, in declaration
/// order. `sanitize` folds every non-alphanumeric character to `_`, so
/// distinct source names can collide (`foo.bar` vs `foo_bar`); the first
/// function to claim a spelling keeps it and later colliders get a
/// deterministic `_u<k>` suffix.
fn module_names(m: &Module) -> Vec<String> {
    let mut taken = std::collections::HashSet::new();
    let mut names = Vec::with_capacity(m.funcs.len());
    for f in &m.funcs {
        let base = sanitize(&f.name);
        let mut name = base.clone();
        let mut k = 2;
        while !taken.insert(name.clone()) {
            name = format!("{base}_u{k}");
            k += 1;
        }
        names.push(name);
    }
    names
}

/// Emit one function as a Verilog module.
pub fn emit_function(m: &Module, f: &Function, fs: &FuncSchedule) -> String {
    let names = module_names(m);
    let name = m
        .funcs
        .iter()
        .position(|g| std::ptr::eq(g, f))
        .map(|i| names[i].clone())
        .unwrap_or_else(|| sanitize(&f.name));
    emit_function_named(f, fs, &name, &names, &EmitOptions::default())
}

fn emit_function_named(
    f: &Function,
    fs: &FuncSchedule,
    name: &str,
    names: &[String],
    opts: &EmitOptions,
) -> String {
    // State encoding: one state per (block, cycle).
    let mut total_states = 1u32; // s0 = idle
    let mut block_base = Vec::new();
    for b in &fs.blocks {
        block_base.push(total_states);
        total_states += b.depth;
    }
    let sbits = 32 - (total_states.max(2) - 1).leading_zeros();

    let mut v = String::new();
    writeln!(v, "// Generated by twill-hls (LegUp-flow model)").unwrap();
    writeln!(v, "module {name} (").unwrap();
    writeln!(v, "    input  wire        clk,").unwrap();
    writeln!(v, "    input  wire        rst,").unwrap();
    writeln!(v, "    input  wire        start,").unwrap();
    writeln!(v, "    output reg         done,").unwrap();
    for (i, p) in f.params.iter().enumerate() {
        writeln!(v, "    input  wire [{}:0] arg{},", p.bits().max(1) - 1, i).unwrap();
    }
    if f.ret != Ty::Void {
        writeln!(v, "    output reg  [{}:0] retval,", f.ret.bits().max(1) - 1).unwrap();
    }
    if opts.hw_counters {
        // FSM current-state tap for the twill_perf snapshot register.
        writeln!(v, "    output wire [{}:0] perf_state,", sbits.max(1) - 1).unwrap();
    }
    writeln!(v, "    // Twill runtime interface (thesis ch.4)").unwrap();
    writeln!(v, "    output reg         rt_req,").unwrap();
    writeln!(v, "    output reg  [3:0]  rt_fn,").unwrap();
    writeln!(v, "    output reg  [15:0] rt_target,").unwrap();
    writeln!(v, "    output reg  [31:0] rt_wdata,").unwrap();
    writeln!(v, "    input  wire        rt_ack,").unwrap();
    writeln!(v, "    input  wire [31:0] rt_rdata").unwrap();
    writeln!(v, ");").unwrap();

    writeln!(v, "  localparam S_IDLE = 0;").unwrap();
    for (bi, base) in block_base.iter().enumerate() {
        writeln!(v, "  localparam S_BB{bi} = {base};").unwrap();
    }
    writeln!(v, "  reg [{}:0] state;", sbits.max(1) - 1).unwrap();
    if opts.hw_counters {
        writeln!(v, "  assign perf_state = state;").unwrap();
    }

    // Datapath registers for cross-state values.
    writeln!(v, "  // {} cross-state values", fs.live_values).unwrap();
    for (_, iid) in f.inst_ids_in_layout() {
        let inst = f.inst(iid);
        if inst.ty != Ty::Void && !inst.op.is_terminator() {
            writeln!(v, "  reg [{}:0] v{};", inst.ty.bits().max(1) - 1, iid.0).unwrap();
        }
    }

    writeln!(v, "  always @(posedge clk) begin").unwrap();
    writeln!(v, "    if (rst) begin state <= S_IDLE; done <= 0; rt_req <= 0; end").unwrap();
    writeln!(v, "    else begin").unwrap();
    writeln!(v, "      case (state)").unwrap();
    writeln!(v, "        S_IDLE: if (start) state <= S_BB{};", f.entry.0).unwrap();
    for (bi, bs) in fs.blocks.iter().enumerate() {
        let base = block_base[bi];
        writeln!(
            v,
            "        // bb{bi} ({} states{})",
            bs.depth,
            match bs.ii {
                Some(ii) => format!(", pipelined II={ii}"),
                None => String::new(),
            }
        )
        .unwrap();
        for cycle in 0..bs.depth {
            let st = base + cycle;
            writeln!(v, "        {st}: begin").unwrap();
            for &(iid, c) in &bs.ops {
                if c != cycle {
                    continue;
                }
                let inst = f.inst(iid);
                match &inst.op {
                    Op::Intrin(i, _) => {
                        let (code, tgt) = intr_code(i);
                        writeln!(
                            v,
                            "          rt_req <= 1; rt_fn <= {code}; rt_target <= {tgt}; // {}",
                            i.mnemonic()
                        )
                        .unwrap();
                    }
                    Op::Load(_) => {
                        writeln!(v, "          rt_req <= 1; rt_fn <= 8; // mem load v{}", iid.0)
                            .unwrap();
                    }
                    Op::Store(..) => {
                        writeln!(v, "          rt_req <= 1; rt_fn <= 9; // mem store").unwrap();
                    }
                    Op::Ret(Some(_)) => {
                        writeln!(v, "          retval <= v_ret; done <= 1; state <= S_IDLE;")
                            .unwrap();
                    }
                    Op::Ret(None) => {
                        writeln!(v, "          done <= 1; state <= S_IDLE;").unwrap();
                    }
                    Op::Br(t) => {
                        writeln!(v, "          state <= S_BB{};", t.0).unwrap();
                    }
                    Op::CondBr(_, t, e) => {
                        writeln!(v, "          state <= cond ? S_BB{} : S_BB{};", t.0, e.0)
                            .unwrap();
                    }
                    Op::Call(c, _) => {
                        writeln!(v, "          // call {}", names[c.index()]).unwrap();
                    }
                    _ => {
                        writeln!(v, "          v{} <= /* {} */ 0;", iid.0, opcode_name(&inst.op))
                            .unwrap();
                    }
                }
            }
            if cycle + 1 < bs.depth {
                writeln!(v, "          state <= {};", st + 1).unwrap();
            }
            writeln!(v, "        end").unwrap();
        }
    }
    writeln!(v, "      endcase").unwrap();
    writeln!(v, "    end").unwrap();
    writeln!(v, "  end").unwrap();
    writeln!(v, "endmodule").unwrap();
    v
}

fn intr_code(i: &Intr) -> (u32, u32) {
    match i {
        Intr::Enqueue(q) => (1, q.0),
        Intr::Dequeue(q) => (2, q.0),
        Intr::SemRaise(s) => (3, s.0),
        Intr::SemLower(s) => (4, s.0),
        Intr::Out => (5, 0),
        Intr::In => (6, 0),
    }
}

fn opcode_name(op: &Op) -> &'static str {
    match op {
        Op::Bin(b, _, _) => b.mnemonic(),
        Op::Cmp(..) => "cmp",
        Op::Select(..) => "select",
        Op::Cast(..) => "cast",
        Op::Gep(..) => "gep",
        Op::Phi(_) => "phi",
        Op::Alloca(_) => "alloca",
        Op::GlobalAddr(_) => "gaddr",
        _ => "op",
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_alphanumeric() { c } else { '_' }).collect()
}

/// The 64-bit counter signal name for a counter-kind register pair, or the
/// readback expression for constant/tap words.
fn perf_expr(r: &twill_obs::regmap::Register, map: &RegMap) -> String {
    let halfsel = |hi: bool| if hi { "[63:32]" } else { "[31:0]" };
    match r.kind {
        RegKind::Magic => format!("32'h{REGMAP_MAGIC:08x}"),
        RegKind::Version => format!("32'd{REGMAP_VERSION}"),
        RegKind::NumThreads => format!("32'd{}", map.threads.len()),
        RegKind::NumQueues => format!("32'd{}", map.queues.len()),
        RegKind::CyclesLo => "cnt_cycles[31:0]".into(),
        RegKind::CyclesHi => "cnt_cycles[63:32]".into(),
        RegKind::ThreadClass { thread, class, hi } => {
            format!("cnt_t{thread}_{}{}", class.key(), halfsel(hi))
        }
        RegKind::ThreadState { thread } => format!("{{16'd0, t{thread}_state}}"),
        RegKind::QueueCounter { queue, counter, hi } => {
            format!("cnt_q{queue}_{}{}", QUEUE_COUNTERS[counter], halfsel(hi))
        }
        RegKind::QueueHighWater { queue } => format!("hw_q{queue}"),
        RegKind::QueueDepth { queue } => format!("32'd{}", map.queues[queue].depth),
    }
}

/// Emit the synthesizable `twill_perf` counter register file for `map`.
fn emit_perf_module(map: &RegMap) -> String {
    let mut v = String::new();
    writeln!(v, "// twill_perf: performance-counter register file (DESIGN.md §14).").unwrap();
    writeln!(v, "// One 64-bit counter per agent stall class and per-queue event,").unwrap();
    writeln!(v, "// a high-water comparator per queue, and a read-only word mux on").unwrap();
    writeln!(v, "// runtime function {RT_FN_PERF_READ}. Word addresses match the twill-regmap")
        .unwrap();
    writeln!(v, "// JSON artifact emitted for this design ({} words).", map.words()).unwrap();
    writeln!(v, "module twill_perf (").unwrap();
    writeln!(v, "    input  wire        clk,").unwrap();
    writeln!(v, "    input  wire        rst,").unwrap();
    writeln!(v, "    input  wire        enable,").unwrap();
    for (t, name) in map.threads.iter().enumerate() {
        writeln!(v, "    // agent {t}: {name} (one strobe per stall class + FSM tap)").unwrap();
        for class in StallClass::ALL.map(StallClass::key) {
            writeln!(v, "    input  wire        t{t}_{class},").unwrap();
        }
        writeln!(v, "    input  wire [15:0] t{t}_state,").unwrap();
    }
    for (q, qd) in map.queues.iter().enumerate() {
        writeln!(v, "    // queue {q}: {} (depth {})", qd.name, qd.depth).unwrap();
        writeln!(v, "    input  wire        q{q}_push,").unwrap();
        writeln!(v, "    input  wire        q{q}_pop,").unwrap();
        writeln!(v, "    input  wire        q{q}_full_stall,").unwrap();
        writeln!(v, "    input  wire        q{q}_empty_stall,").unwrap();
        writeln!(v, "    input  wire [31:0] q{q}_count,").unwrap();
    }
    writeln!(v, "    // Twill runtime readback port (read-only)").unwrap();
    writeln!(v, "    input  wire        rt_req,").unwrap();
    writeln!(v, "    input  wire [3:0]  rt_fn,").unwrap();
    writeln!(v, "    input  wire [15:0] rt_target,").unwrap();
    writeln!(v, "    output reg  [31:0] rt_rdata").unwrap();
    writeln!(v, ");").unwrap();

    writeln!(v, "  reg [63:0] cnt_cycles;").unwrap();
    for t in 0..map.threads.len() {
        for class in StallClass::ALL.map(StallClass::key) {
            writeln!(v, "  reg [63:0] cnt_t{t}_{class};").unwrap();
        }
    }
    for q in 0..map.queues.len() {
        for counter in QUEUE_COUNTERS {
            writeln!(v, "  reg [63:0] cnt_q{q}_{counter};").unwrap();
        }
        writeln!(v, "  reg [31:0] hw_q{q};").unwrap();
    }

    writeln!(v, "  always @(posedge clk) begin").unwrap();
    writeln!(v, "    if (rst) begin").unwrap();
    writeln!(v, "      cnt_cycles <= 64'd0;").unwrap();
    for t in 0..map.threads.len() {
        for class in StallClass::ALL.map(StallClass::key) {
            writeln!(v, "      cnt_t{t}_{class} <= 64'd0;").unwrap();
        }
    }
    for q in 0..map.queues.len() {
        for counter in QUEUE_COUNTERS {
            writeln!(v, "      cnt_q{q}_{counter} <= 64'd0;").unwrap();
        }
        writeln!(v, "      hw_q{q} <= 32'd0;").unwrap();
    }
    writeln!(v, "    end else if (enable) begin").unwrap();
    writeln!(v, "      cnt_cycles <= cnt_cycles + 64'd1;").unwrap();
    for t in 0..map.threads.len() {
        for class in StallClass::ALL.map(StallClass::key) {
            writeln!(v, "      if (t{t}_{class}) cnt_t{t}_{class} <= cnt_t{t}_{class} + 64'd1;")
                .unwrap();
        }
    }
    for q in 0..map.queues.len() {
        writeln!(v, "      if (q{q}_push) cnt_q{q}_pushes <= cnt_q{q}_pushes + 64'd1;").unwrap();
        writeln!(v, "      if (q{q}_pop) cnt_q{q}_pops <= cnt_q{q}_pops + 64'd1;").unwrap();
        writeln!(
            v,
            "      if (q{q}_full_stall) cnt_q{q}_full_stalls <= cnt_q{q}_full_stalls + 64'd1;"
        )
        .unwrap();
        writeln!(
            v,
            "      if (q{q}_empty_stall) cnt_q{q}_empty_stalls <= cnt_q{q}_empty_stalls + 64'd1;"
        )
        .unwrap();
        writeln!(v, "      if (q{q}_count > hw_q{q}) hw_q{q} <= q{q}_count;").unwrap();
    }
    writeln!(v, "    end").unwrap();
    writeln!(v, "  end").unwrap();

    writeln!(v, "  // Read-only register file: one 32-bit word per rt_target address.").unwrap();
    writeln!(v, "  always @(*) begin").unwrap();
    writeln!(v, "    if (rt_req && rt_fn == {RT_FN_PERF_READ}) begin").unwrap();
    writeln!(v, "      case (rt_target)").unwrap();
    for r in map.registers() {
        writeln!(v, "        16'd{}: rt_rdata = {}; // {}", r.addr, perf_expr(&r, map), r.name)
            .unwrap();
    }
    writeln!(v, "        default: rt_rdata = 32'd0;").unwrap();
    writeln!(v, "      endcase").unwrap();
    writeln!(v, "    end else begin").unwrap();
    writeln!(v, "      rt_rdata = 32'd0;").unwrap();
    writeln!(v, "    end").unwrap();
    writeln!(v, "  end").unwrap();
    writeln!(v, "endmodule").unwrap();
    v
}

/// Emit the whole module (all functions) plus a top-level comment header.
pub fn emit_module(m: &Module, s: &crate::schedule::ModuleSchedule) -> String {
    emit_module_with(m, s, &EmitOptions::default())
}

/// [`emit_module`] with explicit emission switches. Default options
/// produce byte-identical output to [`emit_module`].
pub fn emit_module_with(
    m: &Module,
    s: &crate::schedule::ModuleSchedule,
    opts: &EmitOptions,
) -> String {
    let names = module_names(m);
    let mut out = String::new();
    writeln!(out, "// Twill hardware-thread bundle: {}", m.name).unwrap();
    writeln!(out, "// {} queues, {} semaphores", m.queues.len(), m.sems.len()).unwrap();
    for (i, (fs, f)) in s.funcs.iter().zip(&m.funcs).enumerate() {
        out.push('\n');
        out.push_str(&emit_function_named(f, fs, &names[i], &names, opts));
    }
    if opts.hw_counters {
        out.push('\n');
        out.push_str(&emit_perf_module(&opts.regmap(m)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule_module, HlsOptions};

    #[test]
    fn emits_wellformed_module() {
        let src = r#"func @kernel(i32) -> i32 {
bb0:
  %0 = mul i32 %a0, 3:i32
  %1 = add i32 %0, 7:i32
  ret %1
}
"#;
        let m = twill_ir::parser::parse_module(src).unwrap();
        let s = schedule_module(&m, &HlsOptions::default());
        let v = emit_module(&m, &s);
        assert!(v.contains("module kernel ("));
        assert!(v.contains("endmodule"));
        assert!(v.contains("input  wire        clk"));
        assert!(v.contains("S_IDLE"));
        // Balanced module/endmodule.
        assert_eq!(
            v.matches("\nmodule ").count() + usize::from(v.starts_with("module ")),
            v.matches("endmodule").count()
        );
    }

    #[test]
    fn runtime_interface_signals_present_for_queue_ops() {
        let src = "queue q0 i32 x 8\nfunc @t() -> void {\nbb0:\n  enqueue q0, 5:i32\n  %0 = dequeue i32 q0\n  ret\n}\n";
        let m = twill_ir::parser::parse_module(src).unwrap();
        let s = schedule_module(&m, &HlsOptions::default());
        let v = emit_module(&m, &s);
        assert!(v.contains("rt_req"));
        assert!(v.contains("// enqueue"));
        assert!(v.contains("// dequeue"));
    }

    #[test]
    fn stable_output_snapshot() {
        let src = "func @f(i32) -> i32 {\nbb0:\n  %0 = add i32 %a0, 1:i32\n  ret %0\n}\n";
        let m = twill_ir::parser::parse_module(src).unwrap();
        let s = schedule_module(&m, &HlsOptions::default());
        let v1 = emit_module(&m, &s);
        let v2 = emit_module(&m, &schedule_module(&m, &HlsOptions::default()));
        assert_eq!(v1, v2, "emission must be deterministic");
    }

    #[test]
    fn colliding_sanitized_names_are_uniquified() {
        // `foo.bar` and `foo_bar` both sanitize to `foo_bar`; the second
        // claimant must get a distinct module name, and call-site comments
        // must use the uniquified spelling.
        let src = "func @foo.bar() -> i32 {\nbb0:\n  ret 1:i32\n}\nfunc @foo_bar() -> i32 {\nbb0:\n  %0 = call i32 @foo.bar()\n  ret %0\n}\n";
        let m = twill_ir::parser::parse_module(src).unwrap();
        let s = schedule_module(&m, &HlsOptions::default());
        let v = emit_module(&m, &s);
        assert!(v.contains("module foo_bar ("), "first claimant keeps the plain spelling");
        assert!(v.contains("module foo_bar_u2 ("), "collider gets a deterministic suffix:\n{v}");
        assert!(v.contains("// call foo_bar\n"), "call comment points at the callee's module");
        // Emission stays deterministic under uniquification.
        assert_eq!(v, emit_module(&m, &schedule_module(&m, &HlsOptions::default())));
        // Module names are actually unique.
        let mut decls: Vec<&str> = v.lines().filter(|l| l.starts_with("module ")).collect();
        let n = decls.len();
        decls.sort_unstable();
        decls.dedup();
        assert_eq!(decls.len(), n, "duplicate module declaration in:\n{v}");
    }

    #[test]
    fn counters_off_is_byte_identical_to_plain_emission() {
        let src = "queue q0 i32 x 8\nfunc @t() -> void {\nbb0:\n  enqueue q0, 5:i32\n  ret\n}\n";
        let m = twill_ir::parser::parse_module(src).unwrap();
        let s = schedule_module(&m, &HlsOptions::default());
        let plain = emit_module(&m, &s);
        assert_eq!(plain, emit_module_with(&m, &s, &EmitOptions::default()));
        assert!(!plain.contains("twill_perf"));
        assert!(!plain.contains("perf_state"));
    }

    #[test]
    fn counters_on_emits_register_file_matching_the_regmap() {
        let src = "queue q0 i32 x 8\nfunc @t() -> void {\nbb0:\n  enqueue q0, 5:i32\n  %0 = dequeue i32 q0\n  ret\n}\n";
        let m = twill_ir::parser::parse_module(src).unwrap();
        let s = schedule_module(&m, &HlsOptions::default());
        let opts = EmitOptions { hw_counters: true, threads: vec!["cpu".into(), "hw1".into()] };
        let v = emit_module_with(&m, &s, &opts);
        assert!(v.contains("module twill_perf ("));
        assert!(v.contains("output wire [0:0] perf_state,") || v.contains("perf_state,"));
        assert!(v.contains("assign perf_state = state;"));
        // Every register of the map has exactly one mux arm at its address.
        let map = opts.regmap(&m);
        for r in map.registers() {
            let arm = format!("        16'd{}: rt_rdata = ", r.addr);
            assert_eq!(v.matches(&arm).count(), 1, "missing mux arm for {}", r.name);
            assert!(v.contains(&format!("// {}\n", r.name)), "unlabelled mux arm for {}", r.name);
        }
        assert!(v.contains(&format!("rt_fn == {RT_FN_PERF_READ}")));
        assert!(v.contains("16'd0: rt_rdata = 32'h54574c50; // magic"));
        // Counter registers exist and are reset + incremented.
        assert!(v.contains("reg [63:0] cnt_t1_queue_empty;"));
        assert!(v.contains("cnt_q0_pushes <= cnt_q0_pushes + 64'd1;"));
        assert!(v.contains("if (q0_count > hw_q0) hw_q0 <= q0_count;"));
    }
}
