//! The hardware performance-counter register map (DESIGN.md §14).
//!
//! The Verilog backend can instantiate a synthesizable `twill_perf`
//! subsystem: 64-bit cycle counters per hardware-thread stall class and
//! per-queue event, exposed as a read-only, memory-mapped register file on
//! the Twill runtime interface (`rt_fn` [`RT_FN_PERF_READ`], word address
//! in `rt_target`, data on `rt_rdata`). This module is the **single source
//! of truth for that word layout**: the emitter generates the readback mux
//! from [`RegMap::registers`], `twill-rt` encodes its simulated counters
//! through [`RegMap::encode`], and the ingester ([`RegMap::decode`]) turns
//! a raw [`CounterDump`] read off the device back into a
//! [`SimMetrics`]-compatible view. Layout drift between the three is
//! therefore impossible by construction.
//!
//! Word layout (all registers are 32-bit words; 64-bit counters occupy a
//! `lo`/`hi` pair, low word first):
//!
//! ```text
//! 0                magic      (REGMAP_MAGIC, "TWLP")
//! 1                version    (REGMAP_VERSION)
//! 2                n_threads
//! 3                n_queues
//! 4..=5            cycles lo/hi
//! 6 + t*15 + ..    thread t: 7 stall classes × (lo, hi), then the FSM
//!                  current-state snapshot word
//! 6 + T*15 + q*10  queue q: 4 event counters × (lo, hi), then the
//!                  high-water word and the declared-depth word
//! ```

use crate::event::QueueName;
use crate::json::{FromJson, Json, Schema, Tag, ToJson};
use crate::metrics::{QueueMetrics, SimMetrics, ThreadMetrics};
use crate::stall::{ClassCycles, StallClass};

/// Word 0 of every Twill counter register file: `"TWLP"` in ASCII.
pub const REGMAP_MAGIC: u32 = 0x5457_4C50;

/// Layout version (bump on any incompatible word-map change; [`RegMap::decode`]
/// rejects dumps from other versions loudly).
pub const REGMAP_VERSION: u32 = 1;

/// The `rt_fn` code a hardware thread (or the host readback tool) drives to
/// read one counter word. Codes 1–9 are taken by the runtime ops the
/// Verilog backend already emits (enqueue/dequeue/sem/IO/memory).
pub const RT_FN_PERF_READ: u32 = 10;

/// Fixed header: magic, version, n_threads, n_queues, cycles lo/hi.
pub const HEADER_WORDS: u32 = 6;

/// Per-thread block: 7 stall classes × 2 words + the FSM state snapshot.
/// Classes sit in [`StallClass::ALL`] order, named by [`StallClass::key`].
pub const THREAD_WORDS: u32 = 15;

/// Per-queue block: 4 event counters × 2 words + high-water + depth.
pub const QUEUE_WORDS: u32 = 10;

/// Queue event counters in register order.
pub const QUEUE_COUNTERS: [&str; 4] = ["pushes", "pops", "full_stalls", "empty_stalls"];

/// What one register word holds (typed, so encoders/decoders never match
/// on register-name strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegKind {
    Magic,
    Version,
    NumThreads,
    NumQueues,
    CyclesLo,
    CyclesHi,
    /// Half of thread `thread`'s 64-bit counter for `class`.
    ThreadClass {
        thread: usize,
        class: StallClass,
        hi: bool,
    },
    /// Thread `thread`'s FSM current-state snapshot (reads 0 — `S_IDLE` —
    /// once the run has finished).
    ThreadState {
        thread: usize,
    },
    /// Half of queue `queue`'s 64-bit counter for `QUEUE_COUNTERS[counter]`.
    QueueCounter {
        queue: usize,
        counter: usize,
        hi: bool,
    },
    /// Queue `queue`'s peak simultaneous occupancy.
    QueueHighWater {
        queue: usize,
    },
    /// Queue `queue`'s declared capacity (a constant; lets a dump be
    /// sanity-checked against its map).
    QueueDepth {
        queue: usize,
    },
}

/// One word of the register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// Word address (the value driven on `rt_target`).
    pub addr: u32,
    /// Stable symbolic name (`t0_busy_lo`, `q2_high_water`, …) — also the
    /// basis of the counter signal names in the generated Verilog.
    pub name: String,
    pub kind: RegKind,
}

/// One queue as the register map sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueDesc {
    pub name: String,
    pub depth: u32,
}

/// The register map of one generated design: which agents and queues it
/// instruments, and therefore the exact word layout of its counter file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegMap {
    /// Design name (the module/benchmark the map was generated for).
    pub design: String,
    /// Instrumented agents in track order (`cpu`, `hw1`, …).
    pub threads: Vec<String>,
    /// Instrumented queues in id order.
    pub queues: Vec<QueueDesc>,
}

impl RegMap {
    pub fn new(design: &str, threads: Vec<String>, queues: Vec<QueueDesc>) -> RegMap {
        RegMap { design: design.to_string(), threads, queues }
    }

    /// Total register-file size in 32-bit words.
    pub fn words(&self) -> u32 {
        HEADER_WORDS
            + self.threads.len() as u32 * THREAD_WORDS
            + self.queues.len() as u32 * QUEUE_WORDS
    }

    /// First word of thread `t`'s block.
    pub fn thread_base(&self, t: usize) -> u32 {
        HEADER_WORDS + t as u32 * THREAD_WORDS
    }

    /// First word of queue `q`'s block.
    pub fn queue_base(&self, q: usize) -> u32 {
        HEADER_WORDS + self.threads.len() as u32 * THREAD_WORDS + q as u32 * QUEUE_WORDS
    }

    /// Every register in address order. `registers()[i].addr == i` — the
    /// enumeration *is* the layout.
    pub fn registers(&self) -> Vec<Register> {
        let mut regs = Vec::with_capacity(self.words() as usize);
        let mut push = |name: String, kind: RegKind| {
            let addr = regs.len() as u32;
            regs.push(Register { addr, name, kind });
        };
        push("magic".into(), RegKind::Magic);
        push("version".into(), RegKind::Version);
        push("n_threads".into(), RegKind::NumThreads);
        push("n_queues".into(), RegKind::NumQueues);
        push("cycles_lo".into(), RegKind::CyclesLo);
        push("cycles_hi".into(), RegKind::CyclesHi);
        for t in 0..self.threads.len() {
            for class in StallClass::ALL {
                for hi in [false, true] {
                    let half = if hi { "hi" } else { "lo" };
                    push(
                        format!("t{t}_{}_{half}", class.key()),
                        RegKind::ThreadClass { thread: t, class, hi },
                    );
                }
            }
            push(format!("t{t}_state"), RegKind::ThreadState { thread: t });
        }
        for q in 0..self.queues.len() {
            let name = QueueName(q);
            for (c, counter) in QUEUE_COUNTERS.iter().enumerate() {
                for hi in [false, true] {
                    let half = if hi { "hi" } else { "lo" };
                    push(
                        format!("{name}_{counter}_{half}"),
                        RegKind::QueueCounter { queue: q, counter: c, hi },
                    );
                }
            }
            push(format!("{name}_high_water"), RegKind::QueueHighWater { queue: q });
            push(format!("{name}_depth"), RegKind::QueueDepth { queue: q });
        }
        debug_assert_eq!(regs.len() as u32, self.words());
        regs
    }

    /// Fill the register file from a metrics report — the model of what
    /// the synthesized counters hold once the corresponding run finishes.
    /// The report must describe exactly the threads and queues this map
    /// was generated for.
    pub fn encode(&self, m: &SimMetrics) -> Result<CounterDump, String> {
        if m.threads.len() != self.threads.len() {
            return Err(format!(
                "regmap: {} thread(s) in the map, {} in the metrics",
                self.threads.len(),
                m.threads.len()
            ));
        }
        if m.queues.len() != self.queues.len() {
            return Err(format!(
                "regmap: {} queue(s) in the map, {} in the metrics",
                self.queues.len(),
                m.queues.len()
            ));
        }
        for (name, t) in self.threads.iter().zip(&m.threads) {
            if *name != t.name {
                return Err(format!(
                    "regmap: thread {:?} does not match map entry {name:?}",
                    t.name
                ));
            }
        }
        for (qd, q) in self.queues.iter().zip(&m.queues) {
            if qd.name != q.name || qd.depth != q.depth {
                return Err(format!(
                    "regmap: queue {:?} (depth {}) does not match map entry {:?} (depth {})",
                    q.name, q.depth, qd.name, qd.depth
                ));
            }
        }
        let words = self
            .registers()
            .iter()
            .map(|r| match r.kind {
                RegKind::Magic => REGMAP_MAGIC,
                RegKind::Version => REGMAP_VERSION,
                RegKind::NumThreads => self.threads.len() as u32,
                RegKind::NumQueues => self.queues.len() as u32,
                RegKind::CyclesLo => m.cycles as u32,
                RegKind::CyclesHi => (m.cycles >> 32) as u32,
                RegKind::ThreadClass { thread, class, hi } => {
                    half(m.threads[thread].cycles[class], hi)
                }
                // Post-run snapshot: every FSM is back in S_IDLE (0).
                RegKind::ThreadState { .. } => 0,
                RegKind::QueueCounter { queue, counter, hi } => {
                    half(queue_counter(&m.queues[queue], counter), hi)
                }
                RegKind::QueueHighWater { queue } => m.queues[queue].high_water,
                RegKind::QueueDepth { queue } => self.queues[queue].depth,
            })
            .collect();
        Ok(CounterDump { words })
    }

    /// Parse a raw dump read off the device back into a structured metrics
    /// view. Validates the magic word, layout version, population counts,
    /// word count, and the per-queue depth constants before trusting any
    /// counter. The reconstruction carries exactly what the hardware
    /// counts: occupancy histograms, dropped-event and fault counters are
    /// not hardware-visible and come back empty/zero (compare against
    /// [`hardware_view`] of a simulator report).
    pub fn decode(&self, dump: &CounterDump) -> Result<SimMetrics, String> {
        let w = &dump.words;
        let expect = self.words() as usize;
        if w.len() != expect {
            return Err(format!("counter dump: {} word(s), register map has {expect}", w.len()));
        }
        if w[0] != REGMAP_MAGIC {
            return Err(format!(
                "counter dump: bad magic {:#010x} (want {REGMAP_MAGIC:#010x})",
                w[0]
            ));
        }
        if w[1] != REGMAP_VERSION {
            return Err(format!(
                "counter dump: layout version {} (this build reads {REGMAP_VERSION})",
                w[1]
            ));
        }
        if w[2] as usize != self.threads.len() || w[3] as usize != self.queues.len() {
            return Err(format!(
                "counter dump: {}t/{}q header, register map describes {}t/{}q",
                w[2],
                w[3],
                self.threads.len(),
                self.queues.len()
            ));
        }
        let pair =
            |base: u32| -> u64 { w[base as usize] as u64 | (w[base as usize + 1] as u64) << 32 };
        let mut m = SimMetrics { cycles: pair(4), ..Default::default() };
        for (t, name) in self.threads.iter().enumerate() {
            let base = self.thread_base(t);
            let cycles = ClassCycles::from_fn(|c| pair(base + 2 * c.index() as u32));
            m.threads.push(ThreadMetrics { name: name.clone(), cycles });
        }
        for (q, qd) in self.queues.iter().enumerate() {
            let base = self.queue_base(q);
            let depth = w[(base + 9) as usize];
            if depth != qd.depth {
                return Err(format!(
                    "counter dump: queue {:?} depth word {} disagrees with register map depth {}",
                    qd.name, depth, qd.depth
                ));
            }
            let counter = |c: usize| pair(base + 2 * c as u32);
            m.queues.push(QueueMetrics {
                name: qd.name.clone(),
                depth,
                pushes: counter(0),
                pops: counter(1),
                full_stalls: counter(2),
                empty_stalls: counter(3),
                high_water: w[(base + 8) as usize],
                occupancy_hist: Vec::new(),
            });
        }
        Ok(m)
    }
}

/// The register-map artifact's format tag.
pub const REGMAP_SCHEMA: Schema =
    Schema(&[("schema", Tag::Str("twill-regmap")), ("version", Tag::Int(REGMAP_VERSION as u64))]);

/// The counter-dump artifact's format tag.
pub const DUMP_SCHEMA: Schema = Schema(&[
    ("schema", Tag::Str("twill-counter-dump")),
    ("version", Tag::Int(REGMAP_VERSION as u64)),
]);

crate::json_object!(QueueDesc { name, depth });
crate::json_object!(Register { addr, name } write-only);

impl ToJson for RegMap {
    /// The machine-readable register-map artifact emitted next to the
    /// Verilog (`--emit-regmap`). Self-describing: carries the readback
    /// protocol constants and the full word table.
    fn to_tree(&self) -> Json {
        REGMAP_SCHEMA.doc([
            ("magic", Json::from(REGMAP_MAGIC)),
            ("design", (&self.design).into()),
            ("words", self.words().into()),
            (
                "readback",
                Json::obj([
                    ("rt_fn", Json::from(RT_FN_PERF_READ)),
                    ("addr", "rt_target".into()),
                    ("data", "rt_rdata".into()),
                ]),
            ),
            ("threads", Json::arr(&self.threads)),
            ("queues", self.queues.to_tree()),
            ("registers", self.registers().to_tree()),
        ])
    }
}

impl FromJson for RegMap {
    /// The word table is re-derived from the thread/queue lists (it is
    /// redundant in the document) and cross-checked against the recorded
    /// `words` count.
    fn from_json(doc: &Json) -> Result<RegMap, String> {
        REGMAP_SCHEMA.check(doc)?;
        let map = RegMap {
            design: doc.req("design")?,
            threads: doc.req("threads")?,
            queues: doc.req("queues")?,
        };
        match doc.opt::<u64>("words")? {
            Some(words) if words != map.words() as u64 => Err(format!(
                ".words: document says {words} word(s), thread/queue lists imply {}",
                map.words()
            )),
            _ => Ok(map),
        }
    }
}

/// A raw counter readback: one `u32` per register word, in address order —
/// exactly what a host tool collects by looping `rt_target` over the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDump {
    pub words: Vec<u32>,
}

impl ToJson for CounterDump {
    fn to_tree(&self) -> Json {
        DUMP_SCHEMA.doc([("words", Json::arr(self.words.iter().copied()))])
    }
}

impl FromJson for CounterDump {
    fn from_json(doc: &Json) -> Result<CounterDump, String> {
        DUMP_SCHEMA.check(doc)?;
        Ok(CounterDump { words: doc.req("words")? })
    }
}

/// Project a simulator metrics report onto what the hardware counters can
/// see: occupancy histograms (event-sampled, simulator-only), dropped
/// trace events, and fault counters are cleared. [`RegMap::decode`] of a
/// faithful dump compares equal to this — the counter↔metric equivalence
/// contract the consistency suite asserts.
pub fn hardware_view(m: &SimMetrics) -> SimMetrics {
    let mut hw = m.clone();
    hw.dropped_events = 0;
    hw.faults = Default::default();
    for q in &mut hw.queues {
        q.occupancy_hist.clear();
    }
    hw
}

fn half(v: u64, hi: bool) -> u32 {
    if hi {
        (v >> 32) as u32
    } else {
        v as u32
    }
}

fn queue_counter(q: &QueueMetrics, counter: usize) -> u64 {
    match counter {
        0 => q.pushes,
        1 => q.pops,
        2 => q.full_stalls,
        3 => q.empty_stalls,
        _ => unreachable!("QUEUE_COUNTERS has 4 entries"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::FaultMetrics;

    fn sample_map() -> RegMap {
        RegMap::new(
            "demo",
            vec!["cpu".into(), "hw1".into()],
            vec![
                QueueDesc { name: "q0".into(), depth: 8 },
                QueueDesc { name: "q1".into(), depth: 4 },
            ],
        )
    }

    fn sample_metrics() -> SimMetrics {
        SimMetrics {
            cycles: 0x1_0000_0005, // exercises the lo/hi split
            threads: vec![
                ThreadMetrics {
                    name: "cpu".into(),
                    cycles: ClassCycles {
                        busy: 40,
                        queue_full: 10,
                        queue_empty: 20,
                        sem: 1,
                        mem_bus: 2,
                        module_bus: 5,
                        idle: 22,
                    },
                },
                ThreadMetrics {
                    name: "hw1".into(),
                    cycles: ClassCycles {
                        busy: 0x2_0000_0001,
                        queue_empty: 5,
                        ..Default::default()
                    },
                },
            ],
            queues: vec![
                QueueMetrics {
                    name: "q0".into(),
                    depth: 8,
                    pushes: 50,
                    pops: 50,
                    high_water: 6,
                    full_stalls: 10,
                    empty_stalls: 20,
                    occupancy_hist: vec![1, 2, 3],
                },
                QueueMetrics {
                    name: "q1".into(),
                    depth: 4,
                    pushes: 0x1_0000_0000,
                    pops: 7,
                    high_water: 4,
                    full_stalls: 0,
                    empty_stalls: 9,
                    occupancy_hist: vec![4],
                },
            ],
            dropped_events: 3,
            faults: FaultMetrics { drops: 1, ..Default::default() },
        }
    }

    #[test]
    fn layout_counts_and_addresses_are_consistent() {
        let map = sample_map();
        assert_eq!(map.words(), 6 + 2 * 15 + 2 * 10);
        let regs = map.registers();
        assert_eq!(regs.len() as u32, map.words());
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(r.addr as usize, i, "{}", r.name);
        }
        assert_eq!(regs[map.thread_base(1) as usize].name, "t1_busy_lo");
        assert_eq!(regs[map.queue_base(0) as usize].name, "q0_pushes_lo");
        assert_eq!(regs.last().unwrap().name, "q1_depth");
    }

    #[test]
    fn encode_decode_round_trips_to_the_hardware_view() {
        let map = sample_map();
        let m = sample_metrics();
        let dump = map.encode(&m).unwrap();
        assert_eq!(dump.words.len() as u32, map.words());
        let decoded = map.decode(&dump).unwrap();
        assert_eq!(decoded, hardware_view(&m));
        // 64-bit values survive the word split.
        assert_eq!(decoded.cycles, 0x1_0000_0005);
        assert_eq!(decoded.threads[1].cycles.busy, 0x2_0000_0001);
        assert_eq!(decoded.queues[1].pushes, 0x1_0000_0000);
    }

    #[test]
    fn encode_rejects_mismatched_reports() {
        let map = sample_map();
        let mut m = sample_metrics();
        m.threads[1].name = "hw9".into();
        assert!(map.encode(&m).unwrap_err().contains("hw9"));
        let mut m = sample_metrics();
        m.queues.pop();
        assert!(map.encode(&m).unwrap_err().contains("queue"));
    }

    #[test]
    fn decode_validates_magic_version_and_shape() {
        let map = sample_map();
        let good = map.encode(&sample_metrics()).unwrap();

        let mut bad = good.clone();
        bad.words[0] = 0xdead_beef;
        assert!(map.decode(&bad).unwrap_err().contains("magic"));

        let mut bad = good.clone();
        bad.words[1] = REGMAP_VERSION + 1;
        assert!(map.decode(&bad).unwrap_err().contains("version"));

        let mut bad = good.clone();
        bad.words.pop();
        assert!(map.decode(&bad).unwrap_err().contains("word"));

        let mut bad = good.clone();
        bad.words[2] = 7;
        assert!(map.decode(&bad).unwrap_err().contains("header"));

        // Depth constant must agree with the map.
        let mut bad = good;
        let depth_addr = (map.queue_base(0) + 9) as usize;
        bad.words[depth_addr] = 99;
        assert!(map.decode(&bad).unwrap_err().contains("depth"));
    }

    #[test]
    fn regmap_json_round_trips() {
        let map = sample_map();
        let doc = json::parse(&map.to_json()).expect("regmap JSON parses");
        assert_eq!(RegMap::from_json(&doc).unwrap(), map);
        assert_eq!(doc.get("words").unwrap().as_u64(), Some(map.words() as u64));
        assert_eq!(
            doc.get("readback").unwrap().get("rt_fn").unwrap().as_u64(),
            Some(RT_FN_PERF_READ as u64)
        );
        let regs = doc.get("registers").unwrap().as_arr().unwrap();
        assert_eq!(regs.len() as u32, map.words());
    }

    #[test]
    fn dump_json_round_trips() {
        let map = sample_map();
        let dump = map.encode(&sample_metrics()).unwrap();
        let doc = json::parse(&dump.to_json()).expect("dump JSON parses");
        assert_eq!(CounterDump::from_json(&doc).unwrap(), dump);
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        let doc = json::parse(r#"{"schema": "something-else", "version": 1}"#).unwrap();
        assert!(RegMap::from_json(&doc).is_err());
        assert!(CounterDump::from_json(&doc).is_err());
    }
}
