//! End-to-end tests of the `twillc` command-line driver: flag parsing,
//! artifact emission, and the three-way simulation cross-check, all via
//! the real binary.

use std::process::Command;

fn twillc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_twillc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("twillc-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, contents).unwrap();
    p
}

const SRC: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 40; i++) {
    acc += (i * 3) ^ (acc >> 2);
  }
  out(acc);
  return 0;
}
"#;

#[test]
fn compiles_and_reports_stats() {
    let p = write_temp("basic.c", SRC);
    let out = twillc().arg(&p).arg("--stats").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("compiled basic:"), "{stdout}");
    assert!(stdout.contains("area: LegUp"), "{stdout}");
    assert!(stdout.contains("instructions per partition"), "{stdout}");
}

#[test]
fn run_cross_checks_three_configurations() {
    let p = write_temp("run.c", SRC);
    let out = twillc().arg(&p).arg("--run").arg("--partitions").arg("2").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("output: ["), "{stdout}");
    assert!(stdout.contains("cycles: pure SW"), "{stdout}");
}

#[test]
fn run_with_input_feeds_the_stream() {
    let p = write_temp(
        "echoish.c",
        "int main() { int a = in(); int b = in(); out(a * 10 + b); return 0; }",
    );
    let out = twillc().arg(&p).arg("--run").arg("--input").arg("7,3").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("output: [73]"), "{stdout}");
}

#[test]
fn emits_verilog_and_ir_artifacts() {
    let p = write_temp("emit.c", SRC);
    let v = p.with_file_name("emit.v");
    let ir = p.with_file_name("emit.ir");
    let out =
        twillc().arg(&p).arg("--emit-verilog").arg(&v).arg("--emit-ir").arg(&ir).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let vtext = std::fs::read_to_string(&v).unwrap();
    assert!(vtext.contains("module"), "{vtext}");
    let irtext = std::fs::read_to_string(&ir).unwrap();
    assert!(irtext.contains("func @"), "{irtext}");
    // The emitted IR round-trips through the parser.
    twill_ir::parser::parse_module(&irtext).unwrap();
}

#[test]
fn bad_source_fails_with_diagnostic() {
    let p = write_temp("bad.c", "int main( { return 0; }");
    let out = twillc().arg(&p).arg("--run").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.c"), "diagnostic names the file: {stderr}");
}

#[test]
fn program_without_main_exits_1_with_a_diagnostic() {
    let p = write_temp("nomain.c", "int helper(int x) { return x + 1; }\n");
    for flag in ["--stats", "--run"] {
        let out = twillc().arg(&p).arg(flag).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "twillc {flag}: {stderr}");
        assert!(stderr.contains("nomain.c:1:1: error: program has no 'main'"), "{stderr}");
    }
}

#[test]
fn missing_file_fails_cleanly() {
    let out = twillc().arg("/nonexistent/nope.c").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn recursion_needs_explicit_flag() {
    let rec =
        "int f(int n) { return n < 2 ? 1 : n * f(n - 1); }\nint main() { out(f(5)); return 0; }";
    let p = write_temp("rec.c", rec);
    let denied = twillc().arg(&p).output().unwrap();
    assert!(!denied.status.success());
    let allowed = twillc().arg(&p).arg("--allow-recursion").arg("--run").output().unwrap();
    let stdout = String::from_utf8_lossy(&allowed.stdout);
    assert!(allowed.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&allowed.stderr));
    assert!(stdout.contains("output: [120]"), "{stdout}");
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("twillc-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const BLOWFISH_C: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../chstone/src/c/blowfish.c");
const BLOWFISH_GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../rt/tests/data/blowfish_artifacts");

/// The blowfish hybrid run `twill-rt`'s artifact golden pins in process,
/// driven through the real `twillc`: every artifact it writes must be the
/// committed golden byte for byte. The `profile` bench bin is held to the
/// same files, so both tools write identical bytes.
#[test]
fn blowfish_artifacts_match_the_committed_golden() {
    let dir = temp_dir("golden");
    let input: Vec<String> =
        chstone::input_for("blowfish", 1).iter().map(|v| v.to_string()).collect();
    let artifacts = [
        ("--metrics", "metrics.json"),
        ("--metrics-text", "metrics.prom"),
        ("--profile-json", "profile.json"),
        ("--folded", "folded.txt"),
        ("--counter-dump", "dump.json"),
        ("--annotate", "annotated.txt"),
        ("--phases", "phases.json"),
    ];
    let mut cmd = twillc();
    cmd.arg(BLOWFISH_C)
        .args(["--partitions", "3", "--input", &input.join(","), "--sample-interval", "4096"])
        .arg("--emit-regmap")
        .arg(dir.join("regmap.json"));
    for (flag, file) in artifacts {
        cmd.arg(flag).arg(dir.join(file));
    }
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    for (flag, file) in artifacts {
        let golden = std::fs::read(std::path::Path::new(BLOWFISH_GOLDEN).join(file)).unwrap();
        let written = std::fs::read(dir.join(file)).unwrap();
        assert!(written == golden, "{flag} {file} differs from the golden");
    }
    // The golden regmap names the design after the benchmark; the tool
    // names it after the partitioned module, like the in-process build.
    let src = std::fs::read_to_string(BLOWFISH_C).unwrap();
    let build = twill::Compiler::new().partitions(3).hw_counters(true).compile("blowfish", &src);
    let regmap = std::fs::read_to_string(dir.join("regmap.json")).unwrap();
    assert_eq!(regmap, *build.unwrap().regmap_json());
}

#[test]
fn strict_obs_arms_the_event_ring_without_trace() {
    let hotspot = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/hotspot.c");
    let metrics = temp_dir("strict").join("m.json");
    let out = twillc()
        .arg(hotspot)
        .args(["--partitions", "2", "--metrics"])
        .arg(&metrics)
        .args(["--strict-obs", "--obs-ring-capacity", "1"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("twillc: WARN: trace truncated for hotspot: "), "{stderr}");
    assert!(stderr.contains("twillc: --strict-obs: observability data was lost"), "{stderr}");
}

/// A `--compare-timeline` file whose intervals do not tile the run is
/// rejected with an error naming the bad interval instead of a panic in
/// phase segmentation.
#[test]
fn compare_timeline_rejects_intervals_that_do_not_tile_the_run() {
    let hotspot = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/hotspot.c");
    let timeline = temp_dir("tiling").join("t.json");
    let out = twillc()
        .arg(hotspot)
        .args(["--partitions", "2", "--timeline-out"])
        .arg(&timeline)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&timeline).unwrap();
    let bad = text.replacen("\"start\": 4097, \"end\": 8192", "\"start\": 5000, \"end\": 3", 1);
    assert_ne!(bad, text, "the sampled timeline has a second 4096-cycle interval");
    std::fs::write(&timeline, bad).unwrap();
    let out = twillc()
        .arg(hotspot)
        .args(["--partitions", "2", "--compare-timeline"])
        .arg(&timeline)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr
            .contains(".intervals[1]: starts at cycle 5000, expected 4097 (the previous end + 1)"),
        "{stderr}"
    );
}

#[test]
fn usage_errors_exit_2() {
    let p = write_temp("usage.c", SRC);
    for args in [&["--no-such-flag"][..], &["--metrics"], &["--sample-interval", "x"]] {
        let out = twillc().arg(&p).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "twillc {args:?}");
    }
}
