//! The IR text reader never panics: a module with a few random byte edits
//! either fails to parse with a `ParseError` or parses and verifies, with
//! or without `VerifyError`s.

use proptest::prelude::*;
use twill_ir::parser::parse_module;
use twill_ir::verifier::verify_module;

/// The parser's unit-test module: globals, a queue, a semaphore, calls,
/// phis and every terminator kind the printer emits but `switch`.
const SAMPLE: &str = include_str!("data/sample.ir");

/// Bytes an edit may write: IR punctuation, digits and the letters of
/// names and mnemonics, so most edits still reach the verifier.
const EDIT_BYTES: &[u8] = b" %:@[](){},=!;\n0123456789-abix";

/// `SAMPLE` with each edit `(position, kind, byte)` applied in turn: kind 0
/// truncates, 1 deletes a byte, 2 replaces it, 3 inserts one before it.
fn mangle(edits: &[(usize, u8, usize)]) -> String {
    let mut src = SAMPLE.as_bytes().to_vec();
    for &(at, kind, byte) in edits {
        let at = at % (src.len() + 1);
        let b = EDIT_BYTES[byte];
        match kind {
            0 => src.truncate(at),
            1 if at < src.len() => drop(src.remove(at)),
            2 if at < src.len() => src[at] = b,
            _ => src.insert(at, b),
        }
    }
    String::from_utf8(src).expect("ASCII edits of an ASCII module")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mangled_ir_never_panics(
        edits in proptest::collection::vec((any::<usize>(), 0u8..4, 0..EDIT_BYTES.len()), 1..4)
    ) {
        let src = mangle(&edits);
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(m) = parse_module(&src) {
                verify_module(&m);
            }
        });
        prop_assert!(outcome.is_ok(), "edits {:?} panicked on:\n{}", edits, src);
    }
}
