//! # chstone
//!
//! The eight CHStone-style benchmark programs the thesis evaluates Twill
//! on (Table 6.1), rewritten in the project's mini-C dialect, plus
//! deterministic workload generators and golden-output helpers.
//!
//! The thesis excludes the four 64-bit CHStone programs (DFAdd/DFDiv/
//! DFMul/DFSine); so do we. Per-benchmark substitutions relative to the
//! original CHStone sources are documented at the top of each `.c` file
//! and in `DESIGN.md`.

use twill_ir::Module;

/// A benchmark program.
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    pub name: &'static str,
    pub source: &'static str,
    /// DSWP partition count used for the headline experiments:
    /// Table 6.1's hardware-thread count plus the software master.
    pub partitions: usize,
    /// Default workload scale for experiments.
    pub default_scale: u32,
}

pub const MIPS: Benchmark = Benchmark {
    name: "mips",
    source: include_str!("c/mips.c"),
    partitions: 2, // 1 HW thread (Table 6.1)
    default_scale: 1,
};
pub const ADPCM: Benchmark = Benchmark {
    name: "adpcm",
    source: include_str!("c/adpcm.c"),
    partitions: 6, // 5 HW threads
    default_scale: 2,
};
pub const AES: Benchmark = Benchmark {
    name: "aes",
    source: include_str!("c/aes.c"),
    partitions: 4, // 3 HW threads
    default_scale: 8,
};
pub const BLOWFISH: Benchmark = Benchmark {
    name: "blowfish",
    source: include_str!("c/blowfish.c"),
    partitions: 3, // 2 HW threads
    default_scale: 4,
};
pub const GSM: Benchmark = Benchmark {
    name: "gsm",
    source: include_str!("c/gsm.c"),
    partitions: 4, // 3 HW threads
    default_scale: 3,
};
pub const JPEG: Benchmark = Benchmark {
    name: "jpeg",
    source: include_str!("c/jpeg.c"),
    partitions: 7, // 6 HW threads
    default_scale: 6,
};
pub const MOTION: Benchmark = Benchmark {
    name: "motion",
    source: include_str!("c/motion.c"),
    partitions: 5, // 4 HW threads (thesis: MPEG-2)
    default_scale: 2,
};
pub const SHA: Benchmark = Benchmark {
    name: "sha",
    source: include_str!("c/sha.c"),
    partitions: 2, // 1 HW thread
    default_scale: 6,
};

/// All eight benchmarks in the thesis' table order.
pub fn all() -> Vec<Benchmark> {
    vec![MIPS, ADPCM, AES, BLOWFISH, GSM, JPEG, MOTION, SHA]
}

pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

/// Deterministic pseudo-random stream for workload generation.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493))
    }
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }
    fn next_i32(&mut self) -> i32 {
        self.next() as i32
    }
}

/// The input stream for a benchmark at the given workload scale.
pub fn input_for(name: &str, scale: u32) -> Vec<i32> {
    let scale = scale.max(1);
    let mut r = Lcg::new(0xC0FFEE ^ name.len() as u64);
    let mut v = Vec::new();
    match name {
        "sha" => {
            let nblocks = 2 * scale as i32;
            v.push(nblocks);
            for _ in 0..nblocks * 16 {
                v.push(r.next_i32());
            }
        }
        "aes" => {
            for _ in 0..4 {
                v.push(r.next_i32()); // key
            }
            let nblocks = 2 * scale as i32;
            v.push(nblocks);
            for _ in 0..nblocks * 4 {
                v.push(r.next_i32());
            }
        }
        "adpcm" => {
            let n = 120 * scale as i32;
            v.push(n);
            // Smooth-ish waveform: random walk clamped to 16 bits.
            let mut s: i32 = 0;
            for _ in 0..n {
                s += (r.next() % 2048) as i32 - 1024;
                s = s.clamp(-30000, 30000);
                v.push(s);
            }
        }
        "gsm" => {
            let nframes = scale as i32;
            v.push(nframes);
            for _ in 0..nframes * 40 {
                v.push((r.next() & 0xFF) as i32);
            }
        }
        "blowfish" => {
            for _ in 0..4 {
                v.push(r.next_i32());
            }
            let nblocks = 8 * scale as i32;
            v.push(nblocks);
            for _ in 0..nblocks * 2 {
                v.push(r.next_i32());
            }
        }
        "mips" => {
            let n = 16i32;
            v.push(n);
            for _ in 0..n {
                v.push((r.next() % 1000) as i32);
            }
        }
        "jpeg" => {
            let nblocks = scale as i32;
            v.push(nblocks);
            for _ in 0..nblocks {
                for i in 0..64 {
                    // JPEG-like: large DC, sparse decaying AC.
                    if i == 0 {
                        v.push((r.next() % 128) as i32 - 64);
                    } else if r.next().is_multiple_of(4) && i < 24 {
                        v.push((r.next() % 31) as i32 - 15);
                    } else {
                        v.push(0);
                    }
                }
            }
        }
        "motion" => {
            v.push((r.next() | 1) as i32); // seed
            v.push((2 * scale as i32).min(9)); // macroblocks
        }
        other => panic!("unknown benchmark '{other}'"),
    }
    v
}

/// Compile a benchmark and run the thesis' preparation pipeline.
pub fn compile_and_prepare(b: &Benchmark) -> Module {
    let mut m =
        twill_frontend::compile(b.name, b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    twill_passes::run_standard_pipeline(&mut m, &twill_passes::PipelineOptions::hls_flow());
    m
}

/// Reference (single-threaded) execution: (output, interpreter steps).
pub fn reference_run(b: &Benchmark, scale: u32) -> (Vec<i32>, u64) {
    let m = compile_and_prepare(b);
    let (out, _, steps) = twill_ir::interp::run_main(&m, input_for(b.name, scale), 2_000_000_000)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    (out, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_compile() {
        for b in all() {
            let m = twill_frontend::compile(b.name, b.source)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(m.find_func("main").is_some(), "{}", b.name);
        }
    }

    #[test]
    fn all_benchmarks_run_and_are_deterministic() {
        for b in all() {
            let (out1, steps) = reference_run(&b, 1);
            let (out2, _) = reference_run(&b, 1);
            assert_eq!(out1, out2, "{} nondeterministic", b.name);
            assert!(!out1.is_empty(), "{} produced no output", b.name);
            assert!(steps > 100, "{} trivially small ({steps} steps)", b.name);
        }
    }

    #[test]
    fn pipeline_preserves_benchmark_semantics() {
        for b in all() {
            let mut m = twill_frontend::compile(b.name, b.source).unwrap();
            let input = input_for(b.name, 1);
            let (before, _, _) =
                twill_ir::interp::run_main(&m, input.clone(), 2_000_000_000).unwrap();
            twill_passes::run_standard_pipeline(&mut m, &Default::default());
            twill_passes::utils::assert_valid_ssa(&m);
            let (after, _, _) = twill_ir::interp::run_main(&m, input, 2_000_000_000).unwrap();
            assert_eq!(before, after, "{}: pipeline changed behaviour", b.name);
        }
    }

    #[test]
    fn mips_sorts_correctly() {
        let (out, _) = reference_run(&MIPS, 1);
        // First 16 outputs are the sorted array.
        let sorted = &out[..16];
        for w in sorted.windows(2) {
            assert!(w[0] <= w[1], "mips output not sorted: {sorted:?}");
        }
        // Instruction count follows.
        assert!(out[16] > 100);
    }

    #[test]
    fn sha_known_shape() {
        let (out, _) = reference_run(&SHA, 1);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn adpcm_reconstruction_reasonable() {
        let (out, _) = reference_run(&ADPCM, 1);
        // total_err (out[1]) should be positive but bounded relative to
        // the signal energy.
        assert!(out[1] > 0);
        assert!(out[1] < 120 * 32768);
    }

    #[test]
    fn motion_finds_the_planted_shift() {
        let (out, _) = reference_run(&MOTION, 1);
        // Current frame = reference shifted by (3,2): best vector is (3,2).
        let dx = out[1];
        let dy = out[2];
        assert_eq!((dx, dy), (3, 2), "full output: {out:?}");
    }

    #[test]
    fn workloads_scale() {
        for b in all() {
            let i1 = input_for(b.name, 1);
            let i3 = input_for(b.name, 3);
            assert!(i3.len() >= i1.len(), "{}", b.name);
        }
    }

    #[test]
    fn jpeg_pixels_in_range() {
        let (out, _) = reference_run(&JPEG, 1);
        for &px in &out[1..] {
            assert!((0..=255).contains(&px), "pixel {px} out of range");
        }
    }
}
