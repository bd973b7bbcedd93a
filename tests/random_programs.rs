//! Differential fuzzing: generate random (but terminating, well-defined)
//! mini-C programs and require that the interpreter reference, the
//! optimization pipeline and the cycle-level simulation of all three
//! configurations agree bit-for-bit on the output and on `main`'s return
//! value.

#[path = "support/random_gen.rs"]
mod random_gen;

use random_gen::Gen;

fn check_program(seed: u64) {
    check_source(seed, Gen::new(seed).program());
}

fn check_source(seed: u64, src: String) {
    let build = twill::Compiler::new()
        .partitions(2 + (seed % 3) as usize)
        .compile("fuzz", &src)
        .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}\n{src}"));

    // Unoptimized reference (frontend output before the pass pipeline).
    let raw = twill_frontend::compile("fuzz", &src).unwrap();
    let input = vec![seed as i32, 7, -3, 100, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8];
    let (golden, ret, _) = twill_ir::interp::run_main(&raw, input.clone(), 500_000_000)
        .unwrap_or_else(|e| panic!("seed {seed}: raw run: {e}\n{src}"));

    // Pipeline preserved semantics.
    let opt = build
        .run_reference(input.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: optimized run: {e}\n{src}"));
    assert_eq!(golden, opt, "seed {seed}: pipeline diverged\n{src}");

    check_simulations(seed, &src, &build, input, &golden, ret);
}

/// All three cycle-accurate configurations reproduce the reference output
/// and return value.
fn check_simulations(
    seed: u64,
    src: &str,
    build: &twill::TwillBuild,
    input: Vec<i32>,
    golden: &[i32],
    ret: Option<i64>,
) {
    let sw = build
        .simulate_pure_sw(input.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: sw sim: {e}\n{src}"));
    assert_eq!(golden, sw.output, "seed {seed}: SW sim diverged\n{src}");
    assert_eq!(ret, sw.ret, "seed {seed}: SW sim return value\n{src}");
    let hw = build
        .simulate_pure_hw(input.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: hw sim: {e}\n{src}"));
    assert_eq!(golden, hw.output, "seed {seed}: HW sim diverged\n{src}");
    assert_eq!(ret, hw.ret, "seed {seed}: HW sim return value\n{src}");
    let tw = build
        .simulate_hybrid(input)
        .unwrap_or_else(|e| panic!("seed {seed}: hybrid sim: {e}\n{src}"));
    assert_eq!(golden, tw.output, "seed {seed}: hybrid sim diverged\n{src}");
    assert_eq!(ret, tw.ret, "seed {seed}: hybrid sim return value\n{src}");
}

#[test]
fn fuzz_batch_a() {
    for seed in 0..12 {
        check_program(seed);
    }
}

#[test]
fn fuzz_batch_b() {
    for seed in 100..112 {
        check_program(seed);
    }
}

#[test]
fn fuzz_batch_helpers() {
    // Programs whose expressions call randomly generated pure helpers:
    // exercises per-partition function versioning, ret-owner forwarding
    // and call memory-token fan-out on random shapes.
    let mut with_calls = 0;
    for seed in 300..310 {
        let src = Gen::new(seed).program_with_helpers();
        if src.contains("h0(") || src.contains("h1(") || src.contains("h2(") {
            with_calls += 1;
        }
        check_source(seed, src);
    }
    assert!(with_calls >= 5, "generator must actually emit helper calls: {with_calls}/10");
}

#[test]
fn fuzz_batch_c_forced_splits() {
    // Force aggressive splitting (bypasses the cost-model merge) so queue
    // machinery gets exercised even on small programs.
    for seed in 200..208 {
        let src = Gen::new(seed).program();
        let build = twill::Compiler::new()
            .partitions(3)
            .split_points(vec![0.2, 0.4, 0.4])
            .compile("fuzz", &src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let input = vec![seed as i32, 1, 2, 3, 4, 5, 6, 7, 8, 9];
        let (golden, ret, _) =
            twill_ir::interp::run_main(build.prepared(), input.clone(), 500_000_000).unwrap();
        check_simulations(seed, &src, &build, input, &golden, ret);
    }
}
