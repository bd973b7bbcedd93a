//! Workloads and their op lists.
//!
//! A run executes whole *rounds*. Every round of a workload holds the same
//! multiset of op kinds; the seed only permutes their order and draws the
//! `explore` configurations, so the op mix (and with it where `op_ms_p50`
//! and `op_ms_p90` fall) is the same on every seed.

use chstone::Benchmark;

/// The three workloads, each stressing different layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold compile of one CHStone program (`twillc --emit-verilog`).
    Compile,
    /// One program simulated pure-SW, pure-HW and hybrid (`twillc --run`).
    Simulate,
    /// One design point of a sweep over a shared graph (Fig 6.3–6.6).
    Explore,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Compile, Workload::Simulate, Workload::Explore];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Simulate => "simulate",
            Workload::Explore => "explore",
        }
    }
}

/// One `explore` design point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Point {
    /// The paper's default configuration; opens a sweep on a fresh graph,
    /// so DSWP and HLS miss.
    Base,
    /// Queue latency/depth override: DSWP and HLS hit the graph's caches.
    Queue { latency: u32, depth: u32 },
    /// Two partitions with the software stage targeting `sw_percent` of
    /// the work: a new DSWP key, so DSWP and HLS miss.
    Split { sw_percent: u32 },
}

/// One operation against Twill's public API.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Compile { prog: usize },
    Simulate { prog: usize },
    Explore { prog: usize, point: Point },
}

impl Op {
    pub fn prog(self) -> usize {
        match self {
            Op::Compile { prog } | Op::Simulate { prog } | Op::Explore { prog, .. } => prog,
        }
    }

    /// The op kind: what the op mix fixes (the seed never changes how
    /// often a kind occurs).
    pub fn kind(self) -> String {
        let name = programs()[self.prog()].name;
        match self {
            Op::Compile { .. } => format!("compile/{name}"),
            Op::Simulate { .. } => format!("simulate/{name}"),
            Op::Explore { point, .. } => {
                let p = match point {
                    Point::Base => "base",
                    Point::Queue { .. } => "queue",
                    Point::Split { .. } => "split",
                };
                format!("explore/{name}/{p}")
            }
        }
    }
}

/// The CHStone programs, in Table 6.1 order.
pub fn programs() -> Vec<Benchmark> {
    chstone::all()
}

pub fn prog_index(name: &str) -> usize {
    programs().iter().position(|b| b.name == name).expect("known CHStone program")
}

/// `compile` op kinds per round. Median op costs (release build, 2-vCPU
/// host) fall in bands: sha/adpcm ~3.5 ms, mips ~6 ms, blowfish/motion/gsm
/// ~8 ms, jpeg ~12.5 ms, AES ~500 ms. Each percentile sits off its
/// band's edges, so it never reads the next op kind: AES is 2 of 17 ops,
/// putting `op_ms_p90` 15% into the AES band, and blowfish/motion/gsm hold
/// ranks 5..13, putting `op_ms_p50` half-way into theirs.
pub const COMPILE_MIX: [(&str, usize); 8] = [
    ("mips", 2),
    ("adpcm", 1),
    ("aes", 2),
    ("blowfish", 4),
    ("gsm", 3),
    ("jpeg", 2),
    ("motion", 2),
    ("sha", 1),
];

/// `simulate` op kinds per round and each program's input size. Sizes
/// form two bands: mips, adpcm and sha (11 of 20 ops, ~15 ms) cost a third
/// of aes, blowfish, gsm and jpeg (8 ops, ~48 ms). Simulation slows ~1.8x
/// for seconds at a time on a shared host, and most of a run is slowed, so
/// each percentile sits high in its band, where it reads a slowed op unless
/// nearly every op of the band ran unslowed: `op_ms_p50` 91% into the lower
/// band, `op_ms_p90` 88% into the upper one. Slowed lower-band ops still
/// cost less than an unslowed upper-band op. Motion's smallest input, one
/// macroblock, costs several times more; it is 1 op in 20 and stays above
/// `op_ms_p90`.
pub const SIMULATE_MIX: [(&str, usize, u32); 8] = [
    ("mips", 4, 24),
    ("adpcm", 4, 8),
    ("aes", 2, 48),
    ("blowfish", 2, 48),
    ("gsm", 2, 44),
    ("jpeg", 2, 10),
    ("motion", 1, 1),
    ("sha", 3, 12),
];

/// Programs swept by `explore`, at their `default_scale`. Motion is left
/// out (150–370 ms per point); AES takes no split points (~100 ms per
/// miss).
pub const EXPLORE_PROGRAMS: [&str; 7] = ["mips", "adpcm", "aes", "blowfish", "gsm", "jpeg", "sha"];
pub const QUEUE_LATENCIES: [u32; 5] = [2, 8, 32, 128, 512];
pub const QUEUE_DEPTHS: [u32; 5] = [2, 4, 8, 16, 32];
/// Split points per sweep: one per stratum of the software share.
pub const SPLIT_STRATA: usize = 5;

/// The input one `simulate` op feeds `prog`. `size` is the chstone scale,
/// except for mips (array length, at most 60) and motion (macroblocks),
/// whose generators have no smaller or larger setting.
pub fn simulate_input(prog: usize, size: u32) -> Vec<i32> {
    let name = programs()[prog].name;
    let mut v = chstone::input_for(name, size);
    match name {
        "mips" => {
            let mut rng = SplitMix64(0x6d69_7073);
            v = vec![size as i32];
            v.extend((0..size).map(|_| (rng.next_u64() % 1000) as i32));
        }
        "motion" => v[1] = size as i32,
        _ => {}
    }
    v
}

/// Input for `explore` points and the exact metrics: the paper's scale.
pub fn default_input(prog: usize) -> Vec<i32> {
    let b = programs()[prog];
    chstone::input_for(b.name, b.default_scale)
}

/// SplitMix64: the seeded stream for op order and explore configurations.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Generates the rounds of one run from its seed.
///
/// The run's ops are fixed when the stream is made: the workload's mix,
/// with the `explore` configurations drawn from the seed. Every round runs
/// each of them once, in a new seed-drawn order, so each op repeats once
/// per round.
pub struct OpStream {
    rng: SplitMix64,
    /// The run's ops in sweeps: an `explore` sweep is one program's points
    /// on one graph, opening with its base point; a `compile` or
    /// `simulate` op is a sweep of its own.
    sweeps: Vec<Vec<Op>>,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64) -> OpStream {
        let mut rng = SplitMix64(seed ^ 0x7477_696c_6c00_0000);
        let sweeps = match workload {
            Workload::Compile => COMPILE_MIX
                .iter()
                .flat_map(|&(n, k)| {
                    std::iter::repeat_n(vec![Op::Compile { prog: prog_index(n) }], k)
                })
                .collect(),
            Workload::Simulate => SIMULATE_MIX
                .iter()
                .flat_map(|&(n, k, _)| {
                    std::iter::repeat_n(vec![Op::Simulate { prog: prog_index(n) }], k)
                })
                .collect(),
            Workload::Explore => {
                EXPLORE_PROGRAMS.iter().map(|n| sweep(&mut rng, prog_index(n))).collect()
            }
        };
        OpStream { rng, sweeps }
    }

    /// The next round: every op of the run once, sweeps in a seed-drawn
    /// order and each sweep's points after its base point shuffled.
    pub fn round(&mut self) -> Vec<Op> {
        self.rng.shuffle(&mut self.sweeps);
        for sweep in &mut self.sweeps {
            self.rng.shuffle(&mut sweep[1..]);
        }
        self.sweeps.concat()
    }
}

/// One program's sweep: the base point, then queue latency/depth points and
/// (except AES) split points.
fn sweep(rng: &mut SplitMix64, prog: usize) -> Vec<Op> {
    // Latencies and depths are paired by a seeded permutation, so every
    // sweep visits each latency and each depth exactly once.
    let mut depths = QUEUE_DEPTHS;
    rng.shuffle(&mut depths);
    let mut points = vec![Point::Base];
    points.extend(
        QUEUE_LATENCIES.iter().zip(depths).map(|(&latency, depth)| Point::Queue { latency, depth }),
    );
    if programs()[prog].name != "aes" {
        // One split point per 16%-wide stratum of the software share,
        // drawn within the stratum: 10..=89%.
        points.extend(
            (0..SPLIT_STRATA as u32)
                .map(|k| Point::Split { sw_percent: 10 + 16 * k + rng.below(16) as u32 }),
        );
    }
    points.into_iter().map(|point| Op::Explore { prog, point }).collect()
}
