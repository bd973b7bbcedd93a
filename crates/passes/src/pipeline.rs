//! The standard Twill preparation pipeline (thesis §5.1–5.2):
//!
//! 1. shaping: `mem2reg`, `mergereturn`, `lowerswitch`, `inline`,
//!    `simplifycfg`, `gvn`, `adce`, `loop-simplify`
//! 2. custom globals-to-arguments pass
//! 3. cleanups: `deadargelim`, `constprop`
//!
//! The exact LLVM order from the thesis is preserved where our passes have
//! a counterpart; `indvars` and `argpromotion` have no behavioural effect on
//! our IR (no canonical IV rewriting needed; args are already scalars) and
//! are documented as intentionally absent.

use twill_ir::Module;

#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineOptions {
    pub inline: crate::inline::InlineOptions,
    /// Verify SSA validity between stages (on in tests, off in benches).
    pub verify_between: bool,
}

impl PipelineOptions {
    /// The settings of the HLS flows (`twill::Compiler`, the CHStone
    /// benchmarks). They inline aggressively, as LegUp flattens everything
    /// it synthesizes; a higher threshold than the generic default exposes
    /// the per-round pipeline structure to DSWP.
    pub fn hls_flow() -> PipelineOptions {
        PipelineOptions {
            verify_between: false,
            inline: crate::inline::InlineOptions {
                small_threshold: 400,
                single_site_threshold: 600,
                max_inlines: 1000,
                ..Default::default()
            },
        }
    }
}

/// Run the full preparation pipeline in place.
///
/// Every stage runs on the calling thread, one function after another in
/// function-table order; module-level stages (inlining, global passes, DCE)
/// sit between the per-function loops.
pub fn run_standard_pipeline(m: &mut Module, opts: &PipelineOptions) {
    let verify = |m: &Module, stage: &str| {
        if opts.verify_between {
            let errs = twill_ir::verifier::verify_module(m);
            if !errs.is_empty() {
                let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
                panic!("pipeline stage '{stage}' broke the IR:\n{}", msgs.join("\n"));
            }
            for f in &m.funcs {
                let errs = crate::utils::verify_dominance(f);
                if !errs.is_empty() {
                    panic!(
                        "pipeline stage '{stage}' broke dominance in @{}:\n{}",
                        f.name,
                        errs.join("\n")
                    );
                }
            }
        }
    };

    for f in &mut m.funcs {
        crate::mem2reg::mem2reg(f);
    }
    verify(m, "mem2reg");

    for f in &mut m.funcs {
        crate::mergereturn::mergereturn(f);
    }
    verify(m, "mergereturn");

    for f in &mut m.funcs {
        crate::lowerswitch::lowerswitch(f);
    }
    verify(m, "lowerswitch");

    crate::inline::inline_module(m, opts.inline);
    verify(m, "inline");
    crate::dce::remove_dead_functions(m);
    verify(m, "remove-dead-functions");

    for f in &mut m.funcs {
        crate::simplifycfg::simplifycfg(f);
        crate::ifconvert::ifconvert(f);
        crate::simplifycfg::simplifycfg(f);
        crate::constfold::constfold(f);
        crate::gvn::gvn(f);
    }
    verify(m, "simplifycfg+ifconvert+constfold+gvn");

    crate::dce::dce_module(m);
    verify(m, "adce");

    for f in &mut m.funcs {
        crate::loops::loop_simplify(f);
    }
    verify(m, "loop-simplify");

    // Custom pass: globals to arguments (thesis §5.2 first custom pass).
    crate::globals2args::globals_to_args(m);
    verify(m, "globals2args");

    // Cleanups the thesis runs after the globals pass.
    crate::globals2args::dead_arg_elim(m);
    verify(m, "deadargelim");
    for f in &mut m.funcs {
        crate::constfold::constfold(f);
        crate::simplifycfg::simplifycfg(f);
    }
    crate::dce::dce_module(m);
    verify(m, "final-cleanup");
    // mergereturn may have been undone by simplifycfg merging; re-establish
    // the unique-return invariant the DSWP extractor wants.
    for f in &mut m.funcs {
        crate::mergereturn::mergereturn(f);
        crate::loops::loop_simplify(f);
    }
    verify(m, "re-normalize");
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_ir::parser::parse_module;

    /// An integration-style program exercising most constructs.
    const PROGRAM: &str = r#"
global @lut size=16 const [01 00 00 00 03 00 00 00 06 00 00 00 0a 00 00 00]
global @acc size=4 []
func @step(i32) -> i32 {
bb0:
  %0 = gaddr @lut
  %1 = and i32 %a0, 3:i32
  %2 = gep %0, %1, 4
  %3 = load i32 %2
  %4 = gaddr @acc
  %5 = load i32 %4
  %6 = add i32 %5, %3
  store i32 %6, %4
  ret %6
}
func @main() -> i32 {
bb0:
  %i = alloca 4
  store i32 0:i32, %i
  br bb1
bb1:
  %0 = load i32 %i
  %1 = cmp slt %0, 8:i32
  condbr %1, bb2, bb3
bb2:
  %2 = call i32 @step(%0)
  %3 = add i32 %0, 1:i32
  store i32 %3, %i
  br bb1
bb3:
  %4 = gaddr @acc
  %5 = load i32 %4
  out %5
  ret %5
}
"#;

    #[test]
    fn pipeline_preserves_semantics() {
        let mut m = parse_module(PROGRAM).unwrap();
        twill_ir::layout::assign_global_addrs(&mut m);
        let (before, rb, steps_before) =
            twill_ir::interp::run_main(&m, vec![], 10_000_000).unwrap();
        run_standard_pipeline(
            &mut m,
            &PipelineOptions { verify_between: true, ..Default::default() },
        );
        crate::utils::assert_valid_ssa(&m);
        let (after, ra, steps_after) = twill_ir::interp::run_main(&m, vec![], 10_000_000).unwrap();
        assert_eq!(before, after);
        assert_eq!(rb, ra);
        // The pipeline should not make the program bigger to execute.
        assert!(steps_after <= steps_before * 2, "{steps_before} -> {steps_after}");
    }

    #[test]
    fn pipeline_promotes_and_inlines() {
        let mut m = parse_module(PROGRAM).unwrap();
        twill_ir::layout::assign_global_addrs(&mut m);
        run_standard_pipeline(
            &mut m,
            &PipelineOptions { verify_between: true, ..Default::default() },
        );
        let text = twill_ir::printer::print_module(&m);
        assert!(!text.contains("alloca"), "{text}");
        // @step is small: inlined, then removed as dead.
        assert!(m.find_func("step").is_none(), "{text}");
    }

    #[test]
    fn pipeline_idempotent_semantically() {
        let mut m = parse_module(PROGRAM).unwrap();
        twill_ir::layout::assign_global_addrs(&mut m);
        run_standard_pipeline(&mut m, &Default::default());
        let (out1, _, _) = twill_ir::interp::run_main(&m, vec![], 10_000_000).unwrap();
        run_standard_pipeline(&mut m, &Default::default());
        let (out2, _, _) = twill_ir::interp::run_main(&m, vec![], 10_000_000).unwrap();
        assert_eq!(out1, out2);
    }
}
