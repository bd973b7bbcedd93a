//! End-to-end tests of the bench bins' command lines, via the real
//! binaries: the `profile` artifacts against the committed blowfish
//! golden, its write-error path, and the usage-error exit code of every
//! bin that takes the shared observability flags.

use std::path::Path;
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../rt/tests/data/blowfish_artifacts");

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The same run and files `twillc`'s golden test checks, through
/// `profile`: both tools must write the committed bytes.
#[test]
fn profile_writes_the_committed_blowfish_artifacts() {
    let dir = temp_dir("golden");
    let artifacts = [
        ("--metrics", "metrics.json"),
        ("--metrics-text", "metrics.prom"),
        ("--profile-json", "profile.json"),
        ("--folded", "folded.txt"),
        ("--counter-dump", "dump.json"),
        ("--annotate", "annotated.txt"),
        ("--phases", "phases.json"),
    ];
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_profile"));
    cmd.args(["blowfish", "--scale", "1", "--sample-interval", "4096", "--emit-regmap"])
        .arg(dir.join("regmap.json"));
    for (flag, file) in artifacts {
        cmd.arg(flag).arg(dir.join(file));
    }
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    for (flag, file) in artifacts {
        let golden = std::fs::read(Path::new(GOLDEN).join(file)).unwrap();
        let written = std::fs::read(dir.join(file)).unwrap();
        assert!(written == golden, "{flag} {file} differs from the golden");
    }
    // Like `twillc`, the register map names the partitioned module.
    let b = chstone::by_name("blowfish").unwrap();
    let build = twill::Compiler::new().partitions(3).hw_counters(true).compile(b.name, b.source);
    let regmap = std::fs::read_to_string(dir.join("regmap.json")).unwrap();
    assert_eq!(regmap, *build.unwrap().regmap_json());
}

#[test]
fn profile_reports_an_unwritable_path() {
    let out = Command::new(env!("CARGO_BIN_EXE_profile"))
        .args(["blowfish", "--metrics", "/nonexistent-dir/m.json"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("profile: cannot write /nonexistent-dir/m.json"), "{stderr}");
}

#[test]
fn usage_errors_exit_2() {
    let cases: [(&str, &[&str]); 6] = [
        (env!("CARGO_BIN_EXE_profile"), &["--no-such-flag"]),
        (env!("CARGO_BIN_EXE_profile"), &["blowfish", "--metrics"]),
        (env!("CARGO_BIN_EXE_tune"), &["--no-such-flag"]),
        (env!("CARGO_BIN_EXE_tune"), &["--obs-ring-capacity"]),
        (env!("CARGO_BIN_EXE_faults"), &["--no-such-flag"]),
        (env!("CARGO_BIN_EXE_faults"), &["--obs-ring-capacity"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    }
}
