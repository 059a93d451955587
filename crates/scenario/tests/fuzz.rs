//! Byte-mutation fuzz over every shipped scenario file: damaged input may be
//! rejected, never crash the parser, and whatever is accepted behaves like a
//! hand-written spec — it round-trips through `render` and either validates or
//! fails the engine's own validation.
//!
//! Each case seeds its own RNG from its index, so a failure names a case that
//! replays on its own.

use faultline_scenario::{ScenarioError, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 4096;

/// What an insertion or a flipped byte may write: the grammar's punctuation,
/// digits and letters that make numbers, keys and booleans, whitespace, and
/// multi-byte UTF-8 (two, three and four bytes, plus a byte-order mark).
const ALPHABET: [&str; 32] = [
    "=", "\"", "[", "]", "\n", "#", ".", "-", "+", "_", " ", "\t", "\\", ",", "0", "1", "9", "e",
    "E", "x", "true", "false", "inf", "nan", "é", "ß", "→", "字", "😀", "\u{FEFF}", "\r", "'",
];

fn shipped_scenarios() -> Vec<(String, Vec<u8>)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("examples/scenarios directory ships with the repo")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("toml"))
        .map(|path| {
            let bytes = std::fs::read(&path).expect("readable scenario file");
            (path.display().to_string(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// Applies one to four random mutations to `bytes`: a byte replaced by an
/// alphabet byte, an alphabet token inserted, a short span deleted, or a span
/// duplicated elsewhere.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=bytes.len());
        let token = ALPHABET[rng.gen_range(0..ALPHABET.len())].as_bytes();
        match rng.gen_range(0..4) {
            0 if at < bytes.len() => bytes[at] = token[rng.gen_range(0..token.len())],
            1 => {
                bytes.splice(at..at, token.iter().copied());
            }
            2 => {
                let end = (at + rng.gen_range(1..=8)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => {
                let end = (at + rng.gen_range(1..=32)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                let to = rng.gen_range(0..=bytes.len());
                bytes.splice(to..to, span);
            }
        }
    }
}

#[test]
fn mutated_scenarios_never_panic_and_accepted_ones_round_trip() {
    let files = shipped_scenarios();
    assert!(!files.is_empty(), "no shipped scenario files found");
    let mut accepted = 0u64;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (path, original) = &files[rng.gen_range(0..files.len())];
        let mut bytes = original.clone();
        mutate(&mut bytes, &mut rng);
        // A mutation can split a multi-byte character; the parser takes `&str`.
        let text = String::from_utf8_lossy(&bytes).into_owned();

        let parsed = catch_unwind(AssertUnwindSafe(|| ScenarioSpec::parse(&text)));
        let Ok(parsed) = parsed else {
            panic!("case {case} ({path}): parse panicked on {text:?}");
        };
        let Ok(spec) = parsed else {
            continue;
        };
        accepted += 1;
        let rendered = spec.render();
        let reparsed = ScenarioSpec::parse(&rendered).unwrap_or_else(|e| {
            panic!("case {case} ({path}): rendered spec must reparse: {e}\n---\n{rendered}")
        });
        assert_eq!(
            reparsed, spec,
            "case {case} ({path}): round trip of {text:?}"
        );
        match spec.into_engine_config() {
            Ok(_) | Err(ScenarioError::Config(_)) => {}
            Err(e) => panic!("case {case} ({path}): into_engine_config returned {e:?}"),
        }
    }
    // Both paths are exercised: most mutations are rejected, but not all.
    assert!(
        (CASES / 20..CASES).contains(&accepted),
        "{accepted} of {CASES} mutated files accepted"
    );
}
