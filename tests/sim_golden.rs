//! Simulator-report golden: pins, byte for byte, the full report of every
//! CHStone program simulated pure-SW, pure-HW and hybrid under the default
//! configuration and under a stall-heavy one (queue latency 128, depth 2),
//! plus a 2-partition hybrid split at 50%. Each line holds the cycle count
//! and an FNV-1a hash of the cycles, the output, the `SimStats` Debug text,
//! the agent names and the bits of `cpu_busy_fraction`. The file must not
//! depend on the loop mode (`TWILL_NO_FAST_FORWARD=1` reproduces it), and
//! a simulator speed-up must leave it untouched; a deliberate change to
//! simulated behaviour regenerates it with:
//!
//! ```sh
//! TWILL_UPDATE_GOLDEN=1 cargo test -p twill --test sim_golden
//! ```

use std::fmt::Write;
use std::path::PathBuf;

use twill_rt::{SimConfig, SimReport};

/// FNV-1a 64 over a string (the hash of `tests/compile_golden.rs`).
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn line(out: &mut String, name: &str, run: &str, rep: &SimReport) {
    let text = format!(
        "{} {:?} {:?} {:?} {:016x}",
        rep.cycles,
        rep.output,
        rep.stats,
        rep.agent_names,
        rep.cpu_busy_fraction.to_bits()
    );
    writeln!(out, "{name} {run} cycles={} report={:016x}", rep.cycles, fnv(&text)).unwrap();
}

fn render() -> String {
    let mut out = String::from("# name mode/config cycles FNV-1a(full report)\n");
    let configs = [
        ("default", SimConfig::default()),
        ("q128d2", SimConfig { queue_latency: 128, queue_depth: Some(2), ..Default::default() }),
    ];
    for b in chstone::all() {
        let build = twill::Compiler::new().partitions(b.partitions).compile(b.name, b.source);
        let build = build.unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let input = chstone::input_for(b.name, 1);
        for (cname, cfg) in &configs {
            let sim = |r: Result<SimReport, twill_rt::SimError>, mode: &str| {
                r.unwrap_or_else(|e| panic!("{} {mode} {cname}: {e}", b.name))
            };
            let sw = twill_rt::simulate_pure_sw(build.prepared(), input.clone(), cfg);
            line(&mut out, b.name, &format!("sw/{cname}"), &sim(sw, "sw"));
            let hw = twill_rt::simulate_pure_hw_scheduled(
                build.prepared(),
                build.pure_schedule(),
                input.clone(),
                cfg,
            );
            line(&mut out, b.name, &format!("hw/{cname}"), &sim(hw, "hw"));
            let hy = build.simulate_hybrid_with(input.clone(), cfg);
            line(&mut out, b.name, &format!("hybrid/{cname}"), &sim(hy, "hybrid"));
        }
        let split = twill::Compiler::new()
            .partitions(2)
            .split_points(vec![0.5, 0.5])
            .build_on(build.graph());
        let rep =
            split.simulate_hybrid(input).unwrap_or_else(|e| panic!("{} split50: {e}", b.name));
        line(&mut out, b.name, "hybrid/split50", &rep);
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sim_reports.txt")
}

#[test]
fn sim_reports_match_golden() {
    let got = render();
    let path = golden_path();
    if std::env::var_os("TWILL_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing; run with TWILL_UPDATE_GOLDEN=1 to create it");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "simulator reports drifted from tests/golden/sim_reports.txt");
    }
    assert_eq!(got, want, "simulator reports drifted from tests/golden/sim_reports.txt");
}
