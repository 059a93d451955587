//! Fixture-driven proof that every rule class fires on a violation AND is silenced
//! by a justified allow annotation — the linter's acceptance contract.
//!
//! Each rule has a `<rule>_fire.rs` / `<rule>_allow.rs` pair under `fixtures/`
//! (excluded from the workspace walk: the fire halves are violations on purpose).
//! The fire tests pin rule identity, count, and line numbers, so a lexer or rule
//! regression that shifts spans fails loudly here.

use xlint::{lint_source, FileContext, FileKind, Rule};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn lint_fixture(name: &str, crate_name: &str) -> Vec<(Rule, u32)> {
    let ctx = FileContext {
        crate_name: Some(crate_name.to_string()),
        kind: FileKind::Lib,
    };
    lint_source(name, &fixture(name), &ctx)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn determinism_fires_and_allows() {
    let found = lint_fixture("determinism_fire.rs", "engine");
    assert_eq!(
        found,
        vec![
            (Rule::Determinism, 5),  // HashMap
            (Rule::Determinism, 6),  // HashSet
            (Rule::Determinism, 9),  // thread_rng
            (Rule::Determinism, 14), // Instant::now
            (Rule::Determinism, 15), // SystemTime
        ]
    );
    assert_eq!(lint_fixture("determinism_allow.rs", "engine"), vec![]);
}

#[test]
fn determinism_fixture_is_rule_scoped_not_textual() {
    // The same source in a non-result-affecting crate is clean: the rule keys on
    // crate identity, not on file content alone.
    assert_eq!(lint_fixture("determinism_fire.rs", "bench"), vec![]);
}

#[test]
fn no_alloc_fires_and_allows() {
    let found = lint_fixture("no_alloc_fire.rs", "routing");
    assert_eq!(
        found,
        vec![
            (Rule::NoAlloc, 12), // Vec::new
            (Rule::NoAlloc, 13), // Box::new
            (Rule::NoAlloc, 14), // format!
            (Rule::NoAlloc, 15), // .collect
            (Rule::NoAlloc, 16), // .to_vec
        ]
    );
    assert_eq!(lint_fixture("no_alloc_allow.rs", "routing"), vec![]);
}

#[test]
fn unsafe_hygiene_fires_and_allows() {
    let found = lint_fixture("unsafe_hygiene_fire.rs", "routing");
    assert_eq!(
        found,
        vec![(Rule::UnsafeHygiene, 5), (Rule::UnsafeHygiene, 10)]
    );
    assert_eq!(lint_fixture("unsafe_hygiene_allow.rs", "routing"), vec![]);
}

#[test]
fn panic_policy_fires_and_allows() {
    for crate_name in [
        "construction",
        "core",
        "engine",
        "linkdist",
        "metric",
        "overlay",
        "theory",
    ] {
        let found = lint_fixture("panic_policy_fire.rs", crate_name);
        assert_eq!(
            found,
            vec![
                (Rule::PanicPolicy, 6),  // .unwrap()
                (Rule::PanicPolicy, 7),  // .expect()
                (Rule::PanicPolicy, 9),  // panic!
                (Rule::PanicPolicy, 13), // unreachable!
            ],
            "{crate_name}"
        );
    }
    assert_eq!(lint_fixture("panic_policy_allow.rs", "failure"), vec![]);
}

#[test]
fn annotation_meta_rule_fires_and_allows() {
    let found = lint_fixture("annotation_fire.rs", "engine");
    assert_eq!(
        found,
        vec![
            (Rule::Annotation, 5),  // allow without justification
            (Rule::Annotation, 8),  // unknown rule name
            (Rule::Annotation, 11), // unclosed begin marker
            (Rule::Annotation, 14), // stale allow
        ]
    );
    assert_eq!(lint_fixture("annotation_allow.rs", "engine"), vec![]);
}
