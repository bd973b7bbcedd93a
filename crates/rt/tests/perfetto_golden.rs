//! Golden-file test for the Perfetto exporter: a deterministic 2-thread
//! hybrid run must produce exactly the committed `trace_event` JSON, and
//! the parse-back must show the structure ui.perfetto.dev needs — slice
//! events on every simulator thread and a counter track per queue.
//!
//! Regenerate the golden file after an intentional exporter or timing
//! change with:
//!
//! ```sh
//! TWILL_UPDATE_GOLDEN=1 cargo test -p twill-rt --test perfetto_golden
//! ```
use std::collections::BTreeSet;
use std::path::PathBuf;

use twill_dswp::{run_dswp, DswpOptions};
use twill_rt::obs::json::{self, Json};
use twill_rt::{simulate_hybrid, SimConfig, SimReport};

const SRC: &str = r#"
int main() {
  unsigned int acc = 0;
  for (int i = 0; i < 30; i++) {
    unsigned int x = (unsigned int)(i * 2654435761u);
    acc = acc * 31 + ((x >> 7) ^ x);
  }
  out((int) acc);
  return 0;
}
"#;

fn two_thread_run() -> SimReport {
    let mut m = twill_frontend::compile("golden", SRC).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    let d = run_dswp(
        &m,
        &DswpOptions {
            num_partitions: 2,
            split_points: Some(vec![0.4, 0.6]),
            ..Default::default()
        },
    );
    let cfg = SimConfig { trace_events: 1 << 16, ..Default::default() };
    simulate_hybrid(&d, vec![], &cfg).unwrap()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/hybrid_trace.json")
}

#[test]
fn exporter_matches_golden_file_and_parses_back() {
    let rep = two_thread_run();
    assert_eq!(rep.agent_names.len(), 2, "expected a 2-thread hybrid (cpu + hw1)");
    assert_eq!(rep.dropped_events, 0, "ring should be large enough for the golden run");

    let trace = rep.trace_builder().build();
    let path = golden_path();
    if std::env::var_os("TWILL_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &trace).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with TWILL_UPDATE_GOLDEN=1 to create it");
    assert_eq!(trace, golden, "Perfetto export drifted from tests/data/hybrid_trace.json");

    // Parse-back: the structural facts Perfetto needs to render the trace.
    let doc = json::parse(&trace).expect("exporter must emit valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");

    let mut thread_names = BTreeSet::new();
    let mut slice_tids = BTreeSet::new();
    let mut counter_names = BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or_default();
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or_default();
        match ph {
            "M" if ev.get("name").and_then(Json::as_str) == Some("thread_name") => {
                let n = ev.get("args").and_then(|a| a.get("name"));
                thread_names.insert(n.and_then(Json::as_str).unwrap_or_default().to_string());
            }
            "B" | "E" => {
                slice_tids.insert(tid);
            }
            "C" => {
                let n = ev.get("name").and_then(Json::as_str).unwrap_or_default();
                counter_names.insert(n.to_string());
            }
            _ => {}
        }
    }

    for agent in &rep.agent_names {
        assert!(thread_names.contains(agent), "missing thread_name metadata for {agent}");
    }
    assert!(
        slice_tids.len() >= rep.agent_names.len(),
        "expected a slice track per simulator thread, got tids {slice_tids:?}"
    );
    let queues = rep.stats.queue_stats.len();
    assert!(queues > 0, "golden program must exercise at least one queue");
    for q in 0..queues {
        let name = format!("q{q} occupancy");
        assert!(counter_names.contains(&name), "missing counter track {name:?}");
    }
    assert_eq!(
        doc.get("otherData").and_then(|o| o.get("dropped_events")).and_then(Json::as_str),
        Some("0"),
        "dropped_events metadata must be present"
    );
}
