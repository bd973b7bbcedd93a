//! Property test: no JSON reader panics, whatever it is fed. Arbitrary
//! token soup and truncated documents go through `json::parse`; every
//! committed golden, mutated one member at a time, goes through its
//! `FromJson` reader; and every timeline or phase report that reads back
//! is also segmented and phase-attributed. A reader may reject its input,
//! but only with an error.

use proptest::prelude::*;
use std::sync::OnceLock;
use twill_obs::json::{self, FromJson, Json};
use twill_obs::{
    phase_attribution, render_phase_attribution, segment, Baseline, CounterDump, PhaseReport,
    RegMap, SimMetrics, SourceProfile, Timeline,
};

const DATA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../rt/tests/data");

/// The committed goldens that have a reader, as `(path, text)`.
fn goldens() -> &'static [(String, String)] {
    static GOLDENS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    GOLDENS.get_or_init(|| {
        let files = [
            "blowfish_artifacts/metrics.json",
            "blowfish_artifacts/profile.json",
            "blowfish_artifacts/phases.json",
            "blowfish_artifacts/regmap.json",
            "blowfish_artifacts/dump.json",
            "adpcm_timeline.json",
            "../../../../BENCH_baseline.json",
        ];
        files
            .iter()
            .map(|f| {
                let path = format!("{DATA}/{f}");
                let text = std::fs::read_to_string(&path).unwrap();
                (path, text)
            })
            .collect()
    })
}

/// Run the reader matching `path` (and, for timelines and phase reports,
/// everything downstream of it) on `doc`. Returns whether it read back.
fn read(path: &str, doc: &Json) -> bool {
    let name = path.rsplit('/').next().unwrap();
    match name {
        "metrics.json" => SimMetrics::from_json(doc).is_ok(),
        "profile.json" => SourceProfile::from_json(doc).is_ok(),
        "regmap.json" => RegMap::from_json(doc).is_ok(),
        "dump.json" => CounterDump::from_json(doc).is_ok(),
        "BENCH_baseline.json" => Baseline::from_json(doc).is_ok(),
        "phases.json" => PhaseReport::from_json(doc).map(|r| attribute(&r)).is_ok(),
        "adpcm_timeline.json" => Timeline::from_json(doc).map(|t| attribute(&segment(&t))).is_ok(),
        other => panic!("no reader for {other}"),
    }
}

/// Attribute `r` against itself and against an empty run.
fn attribute(r: &PhaseReport) {
    for base in [r, &PhaseReport::default()] {
        let deltas = phase_attribution(base, r);
        let total = deltas.iter().fold(0i64, |acc, d| acc.saturating_add(d.delta));
        render_phase_attribution(&deltas, total);
    }
}

/// How one slot (an object member or array element) of a document is
/// changed.
#[derive(Debug, Clone)]
enum Mutation {
    Drop,
    Int(i128),
    Float(f64),
    /// A string becomes a number and anything else a string.
    Swap,
}

fn arb_int() -> impl Strategy<Value = i128> {
    (any::<u64>(), 0u8..5).prop_map(|(n, kind)| match kind {
        0 => (n % 10) as i128,
        1 => n as i128,
        2 => -(n as i128),
        3 => u64::MAX as i128 + 1 + (n % 1000) as i128,
        _ => (n % 5000) as i128,
    })
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::Drop).boxed(),
        arb_int().prop_map(Mutation::Int).boxed(),
        (any::<i64>(), 1u32..1000).prop_map(|(n, d)| Mutation::Float(n as f64 / d as f64)).boxed(),
        Just(Mutation::Swap).boxed(),
    ]
}

fn slots(v: &Json) -> usize {
    match v {
        Json::Arr(items) => items.iter().map(|i| 1 + slots(i)).sum(),
        Json::Obj(members) => members.iter().map(|(_, m)| 1 + slots(m)).sum(),
        _ => 0,
    }
}

/// Apply `m` to slot number `*pick` in pre-order; returns true once done.
fn mutate(v: &mut Json, pick: &mut usize, m: &Mutation) -> bool {
    let len = match v {
        Json::Arr(items) => items.len(),
        Json::Obj(members) => members.len(),
        _ => return false,
    };
    for i in 0..len {
        let child = match v {
            Json::Arr(items) => &mut items[i],
            Json::Obj(members) => &mut members[i].1,
            _ => unreachable!("containers only"),
        };
        if *pick > 0 {
            *pick -= 1;
            if mutate(child, pick, m) {
                return true;
            }
            continue;
        }
        let replacement = match m {
            Mutation::Drop => None,
            Mutation::Int(n) => Some(Json::Int(*n)),
            Mutation::Float(f) => Some(Json::Num(*f)),
            Mutation::Swap => Some(match &*child {
                Json::Str(s) => Json::Int(s.len() as i128),
                other => Json::Str(other.to_string()),
            }),
        };
        match replacement {
            Some(new) => *child = new,
            None => match v {
                Json::Arr(items) => drop(items.remove(i)),
                Json::Obj(members) => drop(members.remove(i)),
                _ => unreachable!("containers only"),
            },
        }
        return true;
    }
    false
}

const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\"k\"",
    "0",
    "7",
    "-",
    ".",
    "e",
    "+",
    "1e999",
    "18446744073709551616",
    "99999999999999999999999999999999999999999",
    "true",
    "fals",
    "null",
    " ",
    "\n",
    "é",
    "\u{1f600}",
    "\"schema\"",
    "\"twill-timeline-v1\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_never_panics_on_token_soup(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..64)) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = json::parse(&text);
    }

    #[test]
    fn parse_never_panics_on_a_truncated_golden(file in 0usize..7, cut in any::<usize>()) {
        let text = &goldens()[file].1;
        let cut = text.char_indices().map(|(i, _)| i).nth(cut % text.chars().count()).unwrap();
        let _ = json::parse(&text[..cut]);
    }

    #[test]
    fn readers_never_panic_on_a_mutated_golden(
        file in 0usize..7,
        pick in any::<usize>(),
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let (path, text) = &goldens()[file];
        let mut doc = json::parse(text).unwrap();
        prop_assert!(read(path, &doc), "{path}: the unmutated golden reads back");
        for m in &mutations {
            let mut slot = pick % slots(&doc).max(1);
            mutate(&mut doc, &mut slot, m);
        }
        read(path, &doc);
        // The printed mutant parses back and is read again.
        let reparsed = json::parse(&json::print(&doc)).unwrap();
        read(path, &reparsed);
    }
}
