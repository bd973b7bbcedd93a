//! The JSON codec against the committed artifacts: the layout rule, exact
//! integers, the shared accessor errors, the schema check, and the
//! invariants each reader enforces, exercised on real golden documents.

use twill_obs::json::{self, FromJson, Json, Schema, Tag, ToJson};
use twill_obs::{
    diff, Baseline, ClassCycles, CounterDump, PhaseReport, QueueMetrics, RegMap, SimMetrics,
    SourceProfile, ThreadMetrics, Timeline, TunedConfig, TuningReport,
};

fn golden(rel: &str) -> String {
    let path = format!("{}/../rt/tests/data/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).unwrap()
}

fn baseline_text() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json"))
        .unwrap()
}

/// `text` with its first `from` replaced by `to` (which must occur).
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "{from:?} not in document");
    text.replacen(from, to, 1)
}

#[test]
fn layout_rule_breaks_lines_only_around_arrays_of_objects() {
    let doc = Json::obj([
        ("flat", Json::obj([("a", Json::arr([1u64, 2])), ("e", Json::arr(Vec::<u64>::new()))])),
        (
            "rows",
            Json::arr([Json::obj([("x", 1u64)]), Json::obj([("y", Json::obj([("z", true)]))])]),
        ),
        ("nested", Json::obj([("rows", Json::arr([Json::obj([("k", "v")])]))])),
        ("empty", Json::obj(Vec::<(&str, Json)>::new())),
    ]);
    let want = r#"{
  "flat": {"a": [1, 2], "e": []},
  "rows": [
    {"x": 1},
    {"y": {"z": true}}
  ],
  "nested": {
    "rows": [
      {"k": "v"}
    ]
  },
  "empty": {}
}
"#;
    assert_eq!(json::print(&doc), want);
    assert_eq!(json::parse(want).unwrap(), doc);
    assert_eq!(json::print(&Json::obj(Vec::<(&str, Json)>::new())), "{}\n");
}

#[test]
fn every_golden_with_a_reader_is_a_fixpoint() {
    fn fixpoint<T: FromJson + ToJson>(text: &str) {
        assert!(T::from_json_str(text).unwrap().to_json() == text, "re-rendering changes bytes");
    }
    fixpoint::<SimMetrics>(&golden("blowfish_artifacts/metrics.json"));
    fixpoint::<SourceProfile>(&golden("blowfish_artifacts/profile.json"));
    fixpoint::<PhaseReport>(&golden("blowfish_artifacts/phases.json"));
    fixpoint::<RegMap>(&golden("blowfish_artifacts/regmap.json"));
    fixpoint::<CounterDump>(&golden("blowfish_artifacts/dump.json"));
    fixpoint::<Timeline>(&golden("adpcm_timeline.json"));
    // The committed baseline: `Baseline::load(..).to_json()` is the file.
    fixpoint::<Baseline>(&baseline_text());
}

#[test]
fn integers_are_exact_through_print_and_parse() {
    let doc = Json::obj([
        ("seed", Json::from(u64::MAX)),
        ("cycle_delta", Json::from(-200i64)),
        ("min", Json::from(i64::MIN)),
    ]);
    let text = json::print(&doc);
    assert_eq!(
        text,
        "{\n  \"seed\": 18446744073709551615,\n  \"cycle_delta\": -200,\n  \
         \"min\": -9223372036854775808\n}\n"
    );
    assert_eq!(json::parse(&text).unwrap(), doc);
    // 2^53 + 1 has no f64; it must not round to 2^53.
    let m = edit(&golden("blowfish_artifacts/metrics.json"), "102567", "9007199254740993");
    assert_eq!(SimMetrics::from_json_str(&m).unwrap().cycles, 9_007_199_254_740_993);
    // Above u64::MAX still parses exactly, and reads as out of range.
    let wide = json::parse(r#"{"n": 18446744073709551616}"#).unwrap();
    assert_eq!(
        wide.req::<u64>("n").unwrap_err(),
        ".n: 18446744073709551616 is out of range for u64"
    );
}

#[test]
fn tuning_report_prints_seed_and_negative_deltas_exactly() {
    let metrics = |cycles: u64| SimMetrics {
        cycles,
        threads: vec![ThreadMetrics {
            name: "hw1".into(),
            cycles: ClassCycles { busy: cycles, ..Default::default() },
        }],
        queues: vec![QueueMetrics { name: "q0".into(), depth: 8, ..Default::default() }],
        ..Default::default()
    };
    let report = TuningReport {
        bench: "jpeg".into(),
        seed: u64::MAX,
        rounds: 1,
        baseline_cycles: 1000,
        tuned_cycles: 800,
        trials: Vec::new(),
        tuned: TunedConfig::default(),
        diff: diff(&metrics(1000), &metrics(800)),
        hints: Vec::new(),
    };
    let text = report.to_json();
    assert!(text.contains("\n  \"seed\": 18446744073709551615,\n"), "{text}");
    assert!(text.contains("\n    \"cycle_delta\": -200,\n"), "{text}");
    let doc = json::parse(&text).unwrap();
    assert_eq!(doc.req::<u64>("seed"), Ok(u64::MAX));
    assert_eq!(doc.get("diff").unwrap().req::<i64>("cycle_delta"), Ok(-200));
}

#[test]
fn accessors_share_one_error_format() {
    let doc = json::parse(r#"{"q": [{"d": 4294967304}], "f": 1.5, "s": 3, "n": null}"#).unwrap();
    let q = &doc.get("q").unwrap().as_arr().unwrap()[0];
    assert_eq!(q.req::<u32>("d").unwrap_err(), ".d: 4294967304 is out of range for u32");
    assert_eq!(doc.req::<u64>("f").unwrap_err(), ".f: expected an integer, found 1.5");
    assert_eq!(doc.req::<f64>("f"), Ok(1.5));
    assert_eq!(doc.req::<String>("s").unwrap_err(), ".s: expected a string, found 3");
    assert_eq!(doc.req::<Vec<u64>>("s").unwrap_err(), ".s: expected an array, found 3");
    assert_eq!(doc.req::<u64>("gone").unwrap_err(), ".gone: missing");
    assert_eq!(doc.opt::<u64>("n"), Ok(None));
    assert_eq!(doc.opt::<u64>("gone"), Ok(None));
    assert!(doc.opt::<u64>("f").is_err());
}

#[test]
fn schema_is_written_first_and_checked_member_by_member() {
    const S: Schema = Schema(&[("schema", Tag::Str("t-v1")), ("version", Tag::Int(2))]);
    let doc = S.doc([("x", Json::from(1u64))]);
    assert_eq!(doc.to_string(), r#"{"schema": "t-v1", "version": 2, "x": 1}"#);
    assert_eq!(S.check(&doc), Ok(()));
    let old = json::parse(r#"{"schema": "t-v1", "version": 1}"#).unwrap();
    assert_eq!(
        S.check(&old).unwrap_err(),
        ".version: unsupported schema version: expected 2, found 1"
    );
    assert_eq!(
        S.check(&json::parse("{}").unwrap()).unwrap_err(),
        ".schema: missing (this build reads \"t-v1\")"
    );
}

#[test]
fn timeline_reader_checks_the_schema() {
    let text = edit(&golden("adpcm_timeline.json"), "twill-timeline-v1", "twill-timeline-v9");
    assert_eq!(
        Timeline::from_json_str(&text).unwrap_err(),
        ".schema: unsupported schema version: expected \"twill-timeline-v1\", \
         found \"twill-timeline-v9\""
    );
}

#[test]
fn phase_reader_checks_the_schema() {
    let text =
        edit(&golden("blowfish_artifacts/phases.json"), "twill-phases-v1", "twill-phases-v2");
    assert!(PhaseReport::from_json_str(&text).unwrap_err().starts_with(".schema: unsupported"));
}

#[test]
fn counter_dump_reader_checks_the_version() {
    let text = edit(&golden("blowfish_artifacts/dump.json"), "\"version\": 1", "\"version\": 2");
    assert_eq!(
        CounterDump::from_json_str(&text).unwrap_err(),
        ".version: unsupported schema version: expected 1, found 2"
    );
    let text = edit(&golden("blowfish_artifacts/regmap.json"), "\"version\": 1", "\"version\": 2");
    assert!(RegMap::from_json_str(&text).unwrap_err().starts_with(".version: unsupported"));
}

#[test]
fn timeline_reader_enforces_tiling() {
    let text = golden("adpcm_timeline.json");
    let reversed = edit(&text, "\"start\": 513, \"end\": 768", "\"start\": 5000, \"end\": 3");
    assert_eq!(
        Timeline::from_json_str(&reversed).unwrap_err(),
        ".intervals[2]: starts at cycle 5000, expected 513 (the previous end + 1)"
    );
    let backwards = edit(&text, "\"start\": 513, \"end\": 768", "\"start\": 513, \"end\": 3");
    assert_eq!(
        Timeline::from_json_str(&backwards).unwrap_err(),
        ".intervals[2]: ends at cycle 3, before its start 513"
    );
    let late = edit(&text, "\"start\": 1,", "\"start\": 2,");
    assert!(Timeline::from_json_str(&late).unwrap_err().starts_with(".intervals[0]: starts"));
}

#[test]
fn phase_reader_enforces_tiling() {
    let text =
        edit(&golden("blowfish_artifacts/phases.json"), "\"start\": 36865", "\"start\": 36866");
    assert_eq!(
        PhaseReport::from_json_str(&text).unwrap_err(),
        ".phases[1]: starts at cycle 36866, expected 36865 (the previous end + 1)"
    );
}

/// The error `T`'s reader gives for `text` with `from` edited to `to`.
fn rejection<T: FromJson>(text: &str, from: &str, to: &str) -> String {
    T::from_json_str(&edit(text, from, to)).err().expect("the edited document is rejected")
}

#[test]
fn readers_reject_values_wider_than_their_field() {
    let out_of_range = |path: &str| format!("{path}: 4294967304 is out of range for u32");
    let metrics = golden("blowfish_artifacts/metrics.json");
    assert_eq!(
        rejection::<SimMetrics>(&metrics, "\"depth\": 8", "\"depth\": 4294967304"),
        out_of_range(".queues[0].depth")
    );
    assert_eq!(
        rejection::<SimMetrics>(&metrics, "\"high_water\": 1", "\"high_water\": 4294967304"),
        out_of_range(".queues[0].high_water")
    );
    assert_eq!(
        rejection::<Timeline>(
            &golden("adpcm_timeline.json"),
            "[1, 1, 0, 4, 0]",
            "[1, 1, 0, 4, 4294967304]"
        ),
        out_of_range(".intervals[0].queues[0][4]")
    );
    assert_eq!(
        rejection::<RegMap>(
            &golden("blowfish_artifacts/regmap.json"),
            "\"depth\": 8",
            "\"depth\": 4294967304"
        ),
        out_of_range(".queues[0].depth")
    );
    assert_eq!(
        rejection::<PhaseReport>(
            &golden("blowfish_artifacts/phases.json"),
            "\"line\": 56",
            "\"line\": 4294967304"
        ),
        out_of_range(".phases[0].line")
    );
    assert_eq!(
        rejection::<SourceProfile>(
            &golden("blowfish_artifacts/profile.json"),
            "\"line\": 96",
            "\"line\": 4294967304"
        ),
        out_of_range(".samples[0].line")
    );
    assert_eq!(
        rejection::<Baseline>(&baseline_text(), "\"scale\": 1", "\"scale\": 4294967304"),
        out_of_range(".entries[0].scale")
    );
    assert_eq!(
        rejection::<CounterDump>(
            &golden("blowfish_artifacts/dump.json"),
            "[1415007312, 1,",
            "[1415007312, 4294967304,"
        ),
        out_of_range(".words[1]")
    );
}
