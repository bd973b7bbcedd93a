//! Counter↔metric equivalence gate (DESIGN.md §14): for every CHStone
//! benchmark, the hardware counter dump read back word-by-word through its
//! register map must reproduce the simulator's per-thread `ClassCycles`
//! and per-queue `QueueStat` numbers *exactly* — in both the fast-forward
//! and the naive tick loop. The dump is a pure function of the final
//! counter state, so it must also be byte-identical across loop modes.
//!
//! CI runs this suite twice: once normally and once under
//! `TWILL_NO_FAST_FORWARD=1`, exercising the env-default path on top of
//! the explicit per-mode configs below.

use twill_dswp::{run_dswp, DswpOptions};
use twill_obs::json;
use twill_obs::regmap::{hardware_view, CounterDump, RegMap};
use twill_obs::{FromJson, ToJson};
use twill_rt::{simulate_hybrid, CounterBank, SimConfig, SimReport};

fn hybrid_report(b: &chstone::Benchmark, fast_forward: bool) -> SimReport {
    let m = chstone::compile_and_prepare(b);
    let d = run_dswp(&m, &DswpOptions { num_partitions: b.partitions, ..Default::default() });
    let cfg = SimConfig { fast_forward, ..Default::default() };
    simulate_hybrid(&d, chstone::input_for(b.name, 1), &cfg).unwrap()
}

#[test]
fn counter_dump_reproduces_simulator_metrics_exactly() {
    for b in chstone::all() {
        for fast_forward in [true, false] {
            let rep = hybrid_report(&b, fast_forward);
            let bank = CounterBank::from_report(b.name, &rep);
            let dump = bank.dump();
            let decoded = bank
                .regmap()
                .decode(&dump)
                .unwrap_or_else(|e| panic!("{} ff={fast_forward}: {e}", b.name));
            assert_eq!(
                decoded,
                hardware_view(&rep.metrics()),
                "{} ff={fast_forward}: hardware readback diverged from simulator metrics",
                b.name
            );
        }
    }
}

#[test]
fn counter_dump_is_loop_mode_independent() {
    for name in ["blowfish", "mips", "sha"] {
        let b = chstone::by_name(name).unwrap();
        let fast = CounterBank::from_report(name, &hybrid_report(&b, true));
        let naive = CounterBank::from_report(name, &hybrid_report(&b, false));
        assert_eq!(fast, naive, "{name}: counter state depends on loop mode");
        assert_eq!(
            fast.dump().to_json(),
            naive.dump().to_json(),
            "{name}: dump artifact not byte-identical across loop modes"
        );
    }
}

#[test]
fn artifacts_round_trip_through_json() {
    let b = chstone::by_name("blowfish").unwrap();
    let rep = hybrid_report(&b, true);
    let bank = CounterBank::from_report(b.name, &rep);

    // Register map artifact → parse → identical map.
    let map_doc = json::parse(&bank.regmap().to_json()).expect("regmap artifact parses");
    let map = RegMap::from_json(&map_doc).unwrap();
    assert_eq!(&map, bank.regmap());

    // Dump artifact → parse → decode against the *parsed* map: the full
    // flashed-host round trip (both sides reconstructed from JSON).
    let dump_doc = json::parse(&bank.dump().to_json()).expect("dump artifact parses");
    let dump = CounterDump::from_json(&dump_doc).unwrap();
    assert_eq!(map.decode(&dump).unwrap(), hardware_view(&rep.metrics()));
}

#[test]
fn regmap_names_match_simulator_tracks() {
    // The map's thread and queue names must be exactly the simulator's
    // report tracks — otherwise decoded metrics would not line up with
    // any obs exporter keyed by name.
    let b = chstone::by_name("mips").unwrap();
    let rep = hybrid_report(&b, true);
    let bank = CounterBank::from_report(b.name, &rep);
    assert_eq!(bank.regmap().threads, rep.agent_names);
    let queue_names: Vec<String> = bank.regmap().queues.iter().map(|q| q.name.clone()).collect();
    let metric_names: Vec<String> = rep.metrics().queues.iter().map(|q| q.name.clone()).collect();
    assert_eq!(queue_names, metric_names);
}
