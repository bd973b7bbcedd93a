//! Compile-output golden: pins, byte for byte, what the compiler produces
//! for every CHStone program and for a fixed set of random programs. Each
//! line holds FNV-1a hashes of the prepared IR, the DSWP module, the
//! hybrid Verilog and the pure-HW Verilog, plus the per-function live-value
//! counts of both schedules. A compiler speed-up must leave this file
//! untouched; a deliberate output change regenerates it with:
//!
//! ```sh
//! TWILL_UPDATE_GOLDEN=1 cargo test -p twill --test compile_golden
//! ```

#[path = "support/random_gen.rs"]
mod random_gen;

use std::fmt::Write;
use std::path::PathBuf;

use random_gen::Gen;
use twill::TwillBuild;
use twill_hls::schedule::ModuleSchedule;

/// Seeds of `Gen::program` pinned by the golden.
const PLAIN_SEEDS: std::ops::Range<u64> = 0..24;
/// Seeds of `Gen::program_with_helpers` pinned by the golden.
const HELPER_SEEDS: std::ops::Range<u64> = 300..308;

/// FNV-1a 64 over a string.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn live(s: &ModuleSchedule) -> String {
    s.funcs.iter().map(|f| f.live_values.to_string()).collect::<Vec<_>>().join(",")
}

fn line(out: &mut String, name: &str, partitions: usize, b: &TwillBuild) {
    let ir = |m| fnv(&twill_ir::printer::print_module(m));
    let prepared = ir(b.prepared());
    writeln!(
        out,
        "{name} p={partitions} prepared={prepared:016x} dswp={:016x} verilog={:016x} \
         verilog_hw={:016x} live=[{}] live_hw=[{}]",
        ir(&b.dswp().module),
        fnv(&b.verilog()),
        fnv(&b.verilog_pure_hw()),
        live(b.hybrid_schedule()),
        live(b.pure_schedule()),
    )
    .unwrap();
}

fn render() -> String {
    let mut out = String::from(
        "# name partitions prepared-IR DSWP-module hybrid-Verilog pure-HW-Verilog \
         live-values(hybrid) live-values(pure HW)\n",
    );
    for b in chstone::all() {
        let build = twill::Compiler::new().partitions(b.partitions).compile(b.name, b.source);
        line(&mut out, b.name, b.partitions, &build.unwrap());
    }
    let seeds = PLAIN_SEEDS
        .map(|s| (s, Gen::new(s).program()))
        .chain(HELPER_SEEDS.map(|s| (s, Gen::new(s).program_with_helpers())));
    for (seed, src) in seeds {
        let partitions = 2 + (seed % 3) as usize;
        let build = twill::Compiler::new().partitions(partitions).compile("fuzz", &src);
        let build = build.unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        line(&mut out, &format!("seed{seed}"), partitions, &build);
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/compile_output.txt")
}

#[test]
fn compile_output_matches_golden() {
    let got = render();
    let path = golden_path();
    if std::env::var_os("TWILL_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing; run with TWILL_UPDATE_GOLDEN=1 to create it");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "compile output drifted from tests/golden/compile_output.txt");
    }
    assert_eq!(got, want, "compile output drifted from tests/golden/compile_output.txt");
}
