//! Simulated hardware performance-counter readback (DESIGN.md §14).
//!
//! A deployed Twill design emitted with `--hw-counters` carries a
//! `twill_perf` register file; a host tool reads it one 32-bit word at a
//! time over the runtime interface. [`CounterBank`] models exactly that
//! artifact for a simulated run: it holds the word image the synthesized
//! counters would contain when the run finishes, serves single-word reads
//! ([`CounterBank::read_word`], out-of-range addresses return 0 like the
//! Verilog mux's `default` arm), and produces the raw [`CounterDump`] a
//! readback loop collects. Because the words are encoded through the same
//! [`RegMap`] the Verilog mux is generated from, decoding a dump on the
//! obs side must reproduce the simulator's `ClassCycles`/`QueueStat`
//! numbers exactly — the counter↔metric equivalence contract the
//! `hw_counters` test suite asserts in both loop modes.

use crate::system::SimReport;
use twill_obs::regmap::{CounterDump, QueueDesc, RegMap};

/// The post-run word image of one design's `twill_perf` register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterBank {
    regmap: RegMap,
    words: Vec<u32>,
}

impl CounterBank {
    /// Build the counter image a `--hw-counters` deployment of `design`
    /// would hold after the run `rep` describes. The register map is
    /// derived from the report's own agent and queue populations — the
    /// same shape `twill-hls` emits for the corresponding module.
    pub fn from_report(design: &str, rep: &SimReport) -> CounterBank {
        let metrics = rep.metrics();
        let queues = metrics
            .queues
            .iter()
            .map(|q| QueueDesc { name: q.name.clone(), depth: q.depth })
            .collect();
        let regmap = RegMap::new(design, rep.agent_names.clone(), queues);
        let dump = regmap
            .encode(&metrics)
            .expect("a report's metrics always match the map derived from them");
        CounterBank { regmap, words: dump.words }
    }

    /// The register map this bank implements (its `ToJson::to_json` is
    /// the `--emit-regmap` artifact).
    pub fn regmap(&self) -> &RegMap {
        &self.regmap
    }

    /// One `rt_fn`-10 word read. Unmapped addresses read 0, matching the
    /// generated mux's `default` arm.
    pub fn read_word(&self, addr: u32) -> u32 {
        self.words.get(addr as usize).copied().unwrap_or(0)
    }

    /// The full readback a host dump tool performs: loop `rt_target` over
    /// every mapped word in address order.
    pub fn dump(&self) -> CounterDump {
        CounterDump { words: (0..self.regmap.words()).map(|a| self.read_word(a)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twill_obs::regmap::REGMAP_MAGIC;

    fn tiny_report() -> SimReport {
        let src = "queue q0 i32 x 8\nfunc @main() -> void {\nbb0:\n  out 7:i32\n  ret\n}\n";
        let m = twill_ir::parser::parse_module(src).unwrap();
        let d = twill_dswp::run_dswp(&m, &twill_dswp::DswpOptions::default());
        crate::simulate_hybrid(&d, vec![], &crate::SimConfig::default()).unwrap()
    }

    #[test]
    fn bank_serves_words_and_round_trips_through_its_map() {
        let rep = tiny_report();
        let bank = CounterBank::from_report("tiny", &rep);
        assert_eq!(bank.read_word(0), REGMAP_MAGIC);
        // Out-of-range reads hit the Verilog default arm.
        assert_eq!(bank.read_word(bank.regmap().words() + 100), 0);
        let dump = bank.dump();
        assert_eq!(dump.words.len() as u32, bank.regmap().words());
        let decoded = bank.regmap().decode(&dump).unwrap();
        assert_eq!(decoded, twill_obs::regmap::hardware_view(&rep.metrics()));
    }
}
