//! Byte-identity gate for every artifact writer that renders stall-class
//! cycle counts: one blowfish hybrid run with the line profile and the
//! sampled timeline on, each artifact compared byte for byte against a
//! committed file under `tests/data/blowfish_artifacts/`.
//!
//! The metrics JSON, the Prometheus text, the source profile (JSON, folded
//! stacks, annotated source with its top-stall report), the timeline
//! table, the phase report, the counter register map and dump, and the
//! metrics diffs against the same run at queue depth 2 and at queue
//! latency 128 are all pinned, so
//! any change to how a class is named, ordered or summed shows up here.
//!
//! Regenerate after an intentional timing or format change with:
//!
//! ```sh
//! TWILL_UPDATE_GOLDEN=1 cargo test -p twill-rt --test artifact_golden
//! ```

use std::path::PathBuf;
use twill_dswp::{run_dswp, DswpOptions};
use twill_obs::{diff, fmt::timeline_table, segment, ToJson};
use twill_rt::{simulate_hybrid, CounterBank, SimConfig};

fn check(name: &str, actual: &str) -> Option<String> {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/blowfish_artifacts").join(name);
    if std::env::var_os("TWILL_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name} missing; run with TWILL_UPDATE_GOLDEN=1 to create it"));
    (golden != actual).then(|| name.to_string())
}

#[test]
fn blowfish_artifacts_match_golden() {
    let b = chstone::by_name("blowfish").unwrap();
    let m = chstone::compile_and_prepare(&b);
    let d = run_dswp(&m, &DswpOptions { num_partitions: b.partitions, ..Default::default() });
    let input = chstone::input_for(b.name, 1);
    let cfg = SimConfig { profile: true, sample_interval: Some(4096), ..Default::default() };
    let rep = simulate_hybrid(&d, input.clone(), &cfg).unwrap();
    // Blowfish's queues never hold more than one value, so depth 2 leaves
    // the cycles unchanged; the slow-queue run gives a nonzero attribution.
    let small = SimConfig { queue_depth: Some(2), ..cfg.clone() };
    let rep2 = simulate_hybrid(&d, input.clone(), &small).unwrap();
    let slow = SimConfig { queue_latency: 128, ..cfg };
    let rep3 = simulate_hybrid(&d, input, &slow).unwrap();

    let metrics = rep.metrics();
    let sp = rep.source_profile(&d.module).expect("profiled run");
    let timeline = rep.timeline.as_ref().expect("sampled run");
    let mut phases = segment(timeline);
    phases.annotate(&sp);
    let mut annotated = sp.annotate_source(b.source);
    annotated.push('\n');
    annotated.push_str(&sp.report(10));
    let bank = CounterBank::from_report(b.name, &rep);

    let artifacts = [
        ("metrics.json", metrics.to_json()),
        ("metrics.prom", metrics.metrics_text()),
        ("profile.json", sp.to_json()),
        ("folded.txt", sp.folded_stacks()),
        ("annotated.txt", annotated),
        ("timeline.txt", timeline_table(timeline)),
        ("phases.json", phases.to_json()),
        ("regmap.json", bank.regmap().to_json()),
        ("dump.json", bank.dump().to_json()),
        ("diff_depth2.json", diff(&metrics, &rep2.metrics()).to_json("queue_depth=2")),
        ("diff_latency128.json", diff(&metrics, &rep3.metrics()).to_json("queue_latency=128")),
    ];
    let drifted: Vec<String> =
        artifacts.iter().filter_map(|(name, text)| check(name, text)).collect();
    assert!(
        drifted.is_empty(),
        "artifacts drifted from tests/data/blowfish_artifacts: {drifted:?}"
    );
}
