//! The rule engine: project invariants, enforced over token streams.
//!
//! Each rule encodes a contract the workspace already pays for dynamically and
//! documents in prose; the linter makes the contract machine-checked at the source
//! level so it cannot regress silently:
//!
//! * **determinism** — thread-count-invariant results are proptest-pinned, but a
//!   stray `HashMap` iteration or `Instant::now` inside a result-affecting crate
//!   breaks replay long before a proptest notices. Result-affecting crates must not
//!   mention `HashMap`/`HashSet` (per-process-seeded iteration order), unseeded RNG
//!   sources, or wall-clock reads without a justification.
//! * **no_alloc** — the frozen routing kernel's zero-allocation contract is enforced
//!   by a counting allocator at test time; fenced regions (`begin(no_alloc)` /
//!   `end(no_alloc)` marker pairs, see [`Annotations`]) make it visible at the
//!   source level: no `Vec::new`/`Box::new`/`format!`/`.collect()`/`.to_vec()`-family
//!   calls inside.
//! * **unsafe_hygiene** — every `unsafe` is preceded by a `// SAFETY:` comment.
//! * **panic_policy** — construction/core/engine/failure/linkdist/metric/overlay/
//!   routing/scenario/theory library paths return errors or document invariants;
//!   they do not `unwrap`/`expect`/`panic!` (tests and benches do). `theory` is in
//!   because the connectivity oracle runs inside every failure-configured engine
//!   epoch; `construction` and `overlay` because every churn event runs the
//!   maintainer over the overlay graph; `core` because every engine call goes
//!   through its `Network` and `FrozenView`; `routing` because every uncached
//!   lookup walks its kernel; `scenario` because it parses files a user wrote;
//!   `metric` and `linkdist` because every build and every join measures distances
//!   and draws links through them.
//!
//! The escape hatch is deliberate and auditable: an allow annotation names the rule
//! *and* carries a justification, and an allow that stops suppressing anything is
//! itself a finding (`annotation`), so stale exemptions surface instead of rotting.

use crate::findings::{Finding, Rule};
use crate::lexer::{lex, Token, TokenKind};

/// Where a file sits in the workspace, which decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`crates/<name>/src/**`): all rules apply.
    Lib,
    /// Tests, benches, examples, build scripts: determinism and panic-policy are
    /// exempt (tests unwrap and iterate freely); unsafe hygiene and fenced no_alloc
    /// regions still apply.
    TestLike,
}

/// The linting context for one file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// The short crate name (`engine`, `telemetry`, …), if the file belongs to one.
    pub crate_name: Option<String>,
    pub kind: FileKind,
}

/// Crates whose code can affect query results: engine outputs are contractually
/// thread-count-invariant and replayable, so nondeterminism sources inside any of
/// these are findings. `core` is included because the directory/view layer feeds
/// routing; `sim`/`bench` are excluded — measuring wall time is their job.
const RESULT_AFFECTING: [&str; 10] = [
    "construction",
    "core",
    "engine",
    "failure",
    "linkdist",
    "metric",
    "overlay",
    "routing",
    "scenario",
    "theory",
];

/// Crates under the panic policy: library paths must not panic on reachable inputs.
const PANIC_FREE: [&str; 10] = [
    "construction",
    "core",
    "engine",
    "failure",
    "linkdist",
    "metric",
    "overlay",
    "routing",
    "scenario",
    "theory",
];

/// One parsed `xlint:` annotation of the allow form.
#[derive(Debug)]
struct Allow {
    rules: Vec<Rule>,
    /// Line of the annotation comment itself.
    line: u32,
    /// The next line holding code after the annotation (trailing allows cover their
    /// own line; leading allows cover the next code line).
    covered_line: Option<u32>,
    token: Token,
    used: std::cell::Cell<bool>,
}

/// Parsed per-file annotation state: allows plus fenced regions.
#[derive(Debug, Default)]
pub struct Annotations {
    allows: Vec<Allow>,
    /// Fenced byte ranges per rule, from `begin(<rule>)`/`end(<rule>)` marker pairs.
    regions: Vec<(Rule, std::ops::Range<usize>)>,
    /// Malformed/unbalanced annotations discovered during parsing.
    errors: Vec<(Token, String)>,
}

impl Annotations {
    /// Whether a finding of `rule` on `line` is covered by an allow (marks it used).
    fn covers(&self, rule: Rule, line: u32) -> bool {
        for allow in &self.allows {
            if allow.rules.contains(&rule)
                && (allow.line == line || allow.covered_line == Some(line))
            {
                allow.used.set(true);
                return true;
            }
        }
        false
    }

    fn regions_for(&self, rule: Rule) -> impl Iterator<Item = &std::ops::Range<usize>> {
        self.regions
            .iter()
            .filter(move |(r, _)| *r == rule)
            .map(|(_, range)| range)
    }
}

/// Strips comment sigils and leading whitespace from a comment token's text.
fn comment_body(text: &str) -> &str {
    let body = text
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start_matches('*');
    let body = body.strip_suffix("*/").unwrap_or(body);
    body.trim()
}

/// The marker every annotation starts with (after comment sigils).
const MARKER: &str = "xlint:";

/// Parses all `xlint:` annotations out of the comment tokens. Comments that merely
/// *mention* the marker mid-text (docs, prose) are ignored: an annotation must start
/// with it.
fn parse_annotations(source: &str, tokens: &[Token]) -> Annotations {
    let mut out = Annotations::default();
    // Open `begin` markers per rule: (rule, begin token, end byte of begin comment).
    let mut open: Vec<(Rule, Token)> = Vec::new();

    for (i, tok) in tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let body = comment_body(tok.text(source));
        let Some(rest) = body.strip_prefix(MARKER) else {
            continue;
        };
        let rest = rest.trim();
        if let Some(args) = parse_call(rest, "allow") {
            let (names, justification) = match args.tail.split_once("--") {
                Some((_, j)) => (args.inner, j.trim()),
                None => (args.inner, ""),
            };
            if justification.is_empty() {
                out.errors.push((
                    *tok,
                    "allow annotation needs a justification: `allow(<rule>) -- <why>`".to_string(),
                ));
                continue;
            }
            let mut rules = Vec::new();
            let mut bad = false;
            for name in names.split(',').map(str::trim) {
                match Rule::from_name(name) {
                    Some(rule) => rules.push(rule),
                    None => {
                        out.errors
                            .push((*tok, format!("unknown rule `{name}` in allow annotation")));
                        bad = true;
                    }
                }
            }
            if !bad && !rules.is_empty() {
                out.allows.push(Allow {
                    rules,
                    line: tok.line,
                    covered_line: next_code_line(tokens, i),
                    token: *tok,
                    used: std::cell::Cell::new(false),
                });
            }
        } else if let Some(args) = parse_call(rest, "begin") {
            match Rule::from_name(args.inner.trim()) {
                Some(rule) => open.push((rule, *tok)),
                None => out.errors.push((
                    *tok,
                    format!("unknown rule `{}` in begin marker", args.inner.trim()),
                )),
            }
        } else if let Some(args) = parse_call(rest, "end") {
            let Some(rule) = Rule::from_name(args.inner.trim()) else {
                out.errors.push((
                    *tok,
                    format!("unknown rule `{}` in end marker", args.inner.trim()),
                ));
                continue;
            };
            match open.iter().rposition(|(r, _)| *r == rule) {
                Some(idx) => {
                    let (_, begin) = open.remove(idx);
                    out.regions.push((rule, begin.end..tok.start));
                }
                None => out.errors.push((
                    *tok,
                    format!("end({}) marker without a matching begin", rule.name()),
                )),
            }
        } else {
            out.errors.push((
                *tok,
                "unrecognized xlint annotation; expected allow(<rule>) -- <why>, \
                 begin(<rule>), or end(<rule>)"
                    .to_string(),
            ));
        }
    }
    for (rule, begin) in open {
        out.errors.push((
            begin,
            format!(
                "begin({}) marker never closed by end({})",
                rule.name(),
                rule.name()
            ),
        ));
    }
    out
}

/// `name(inner) tail` parse helper for annotation bodies.
struct Call<'a> {
    inner: &'a str,
    tail: &'a str,
}

fn parse_call<'a>(text: &'a str, name: &str) -> Option<Call<'a>> {
    let rest = text.strip_prefix(name)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    Some(Call {
        inner: &rest[..close],
        tail: rest[close + 1..].trim(),
    })
}

/// The first line at or after token `i` (exclusive) that carries a non-comment
/// token on a *later* line than token `i` — the line a leading annotation covers.
fn next_code_line(tokens: &[Token], i: usize) -> Option<u32> {
    let line = tokens[i].line;
    tokens[i + 1..]
        .iter()
        .find(|t| {
            t.line > line && !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
        })
        .map(|t| t.line)
}

/// Byte offset of the first `#[cfg(test)]` attribute, if any. Code at or past it is
/// treated as test context for the determinism and panic-policy rules — the
/// workspace convention keeps unit-test modules at the end of the file.
fn cfg_test_offset(source: &str, code: &[&Token]) -> Option<usize> {
    code.windows(7).find_map(|w| {
        let texts: Vec<&str> = w.iter().map(|t| t.text(source)).collect();
        (texts == ["#", "[", "cfg", "(", "test", ")", "]"]).then(|| w[0].start)
    })
}

/// Lints one file's source and returns its (allow-filtered) findings, sorted by
/// position. `path` is used verbatim in the findings.
#[must_use]
pub fn lint_source(path: &str, source: &str, ctx: &FileContext) -> Vec<Finding> {
    let tokens = lex(source);
    let annotations = parse_annotations(source, &tokens);
    // Code view: every token except comments, for sequence matching.
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let test_boundary = cfg_test_offset(source, &code);
    let in_test_code =
        |tok: &Token| -> bool { test_boundary.is_some_and(|offset| tok.start >= offset) };

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: Rule, tok: &Token, message: String| {
        raw.push(Finding {
            rule,
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            start: tok.start,
            end: tok.end,
            message,
        });
    };

    let crate_name = ctx.crate_name.as_deref().unwrap_or("");
    let determinism_applies = ctx.kind == FileKind::Lib && RESULT_AFFECTING.contains(&crate_name);
    let panic_applies = ctx.kind == FileKind::Lib && PANIC_FREE.contains(&crate_name);

    let text_at = |j: usize| -> &str { code[j].text(source) };
    let is_punct =
        |j: usize, c: &str| -> bool { code[j].kind == TokenKind::Punct && text_at(j) == c };

    for j in 0..code.len() {
        let tok = code[j];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = tok.text(source);

        // --- determinism -------------------------------------------------------
        if determinism_applies && !in_test_code(tok) {
            match text {
                "HashMap" | "HashSet" => push(
                    Rule::Determinism,
                    tok,
                    format!(
                        "{text} in a result-affecting crate: iteration order is seeded \
                         per process; use an ordered container or justify why order \
                         cannot reach results"
                    ),
                ),
                "thread_rng" | "from_entropy" => push(
                    Rule::Determinism,
                    tok,
                    format!("{text} is an unseeded entropy source; derive RNG state from the run's seed"),
                ),
                "SystemTime" => push(
                    Rule::Determinism,
                    tok,
                    "SystemTime read in a result-affecting crate breaks replay determinism"
                        .to_string(),
                ),
                "Instant" if matches_path(&code, source, j, &["Instant", ":", ":", "now"]) => {
                    push(
                        Rule::Determinism,
                        tok,
                        "Instant::now in a result-affecting crate: wall-clock must not \
                         steer results; keep timing in telemetry or justify"
                            .to_string(),
                    );
                }
                _ => {}
            }
        }

        // --- unsafe hygiene ----------------------------------------------------
        if text == "unsafe" && !has_safety_comment(source, &tokens, tok) {
            push(
                Rule::UnsafeHygiene,
                tok,
                "unsafe without a `SAFETY:` comment on the preceding lines".to_string(),
            );
        }

        // --- panic policy ------------------------------------------------------
        if panic_applies && !in_test_code(tok) {
            let method_call = j >= 1 && is_punct(j - 1, ".");
            let macro_bang = j + 1 < code.len() && is_punct(j + 1, "!");
            if method_call && matches!(text, "unwrap" | "expect") {
                push(
                    Rule::PanicPolicy,
                    tok,
                    format!(
                        ".{text}() in a library path; return an error or justify the invariant"
                    ),
                );
            }
            if macro_bang && matches!(text, "panic" | "unreachable" | "todo" | "unimplemented") {
                push(
                    Rule::PanicPolicy,
                    tok,
                    format!("{text}! in a library path; return an error or justify the invariant"),
                );
            }
        }
    }

    // --- no_alloc fenced regions (any crate, any file kind) --------------------
    for region in annotations.regions_for(Rule::NoAlloc) {
        scan_no_alloc(&code, source, region, &mut push);
    }

    // --- annotation meta-rule --------------------------------------------------
    for (tok, message) in &annotations.errors {
        push(Rule::Annotation, tok, message.clone());
    }

    // Allow-filter everything found so far (annotation errors included — an
    // allow(annotation) can acknowledge a deliberate oddity).
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !annotations.covers(f.rule, f.line))
        .collect();

    // Stale allows: an exemption that suppresses nothing is rot — either the
    // violation was fixed (delete the annotation) or the annotation is misplaced.
    for allow in &annotations.allows {
        if !allow.used.get() {
            findings.push(Finding {
                rule: Rule::Annotation,
                path: path.to_string(),
                line: allow.token.line,
                col: allow.token.col,
                start: allow.token.start,
                end: allow.token.end,
                message: "stale allow annotation: it no longer suppresses any finding".to_string(),
            });
        }
    }

    findings.sort_by_key(|f| (f.start, f.rule.name()));
    findings
}

/// Whether code tokens starting at `j` spell the given path (e.g. `Instant::now`).
fn matches_path(code: &[&Token], source: &str, j: usize, parts: &[&str]) -> bool {
    parts
        .iter()
        .enumerate()
        .all(|(k, part)| code.get(j + k).is_some_and(|t| t.text(source) == *part))
}

/// Whether a `SAFETY:`-bearing comment sits on the `unsafe` token's line or within
/// the three lines above it (multi-line safety comments count via their last line).
fn has_safety_comment(source: &str, tokens: &[Token], unsafe_tok: &Token) -> bool {
    tokens.iter().any(|t| {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            return false;
        }
        let text = t.text(source);
        if !text.contains("SAFETY:") {
            return false;
        }
        let end_line = t.line + text.matches('\n').count() as u32;
        end_line <= unsafe_tok.line && unsafe_tok.line - end_line <= 3 || t.line == unsafe_tok.line
    })
}

/// Allocation calls banned inside a fenced `no_alloc` region.
fn scan_no_alloc(
    code: &[&Token],
    source: &str,
    region: &std::ops::Range<usize>,
    push: &mut impl FnMut(Rule, &Token, String),
) {
    const ALLOC_TYPES: [&str; 5] = ["Vec", "Box", "String", "Rc", "Arc"];
    const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];
    const ALLOC_METHODS: [&str; 4] = ["collect", "to_vec", "to_owned", "to_string"];
    const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

    for j in 0..code.len() {
        let tok = code[j];
        if tok.start < region.start || tok.start >= region.end || tok.kind != TokenKind::Ident {
            continue;
        }
        let text = tok.text(source);
        let prev_is_dot =
            j >= 1 && code[j - 1].kind == TokenKind::Punct && code[j - 1].text(source) == ".";
        let next_is_bang = j + 1 < code.len()
            && code[j + 1].kind == TokenKind::Punct
            && code[j + 1].text(source) == "!";

        if ALLOC_TYPES.contains(&text)
            && matches_path(code, source, j + 1, &[":", ":"])
            && code
                .get(j + 3)
                .is_some_and(|t| ALLOC_CTORS.contains(&t.text(source)))
        {
            push(
                Rule::NoAlloc,
                tok,
                format!(
                    "{}::{} allocates inside a no_alloc region",
                    text,
                    code[j + 3].text(source)
                ),
            );
        } else if prev_is_dot && ALLOC_METHODS.contains(&text) {
            push(
                Rule::NoAlloc,
                tok,
                format!(".{text}() allocates inside a no_alloc region"),
            );
        } else if next_is_bang && ALLOC_MACROS.contains(&text) {
            push(
                Rule::NoAlloc,
                tok,
                format!("{text}! allocates inside a no_alloc region"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx(name: &str) -> FileContext {
        FileContext {
            crate_name: Some(name.to_string()),
            kind: FileKind::Lib,
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn determinism_fires_only_in_result_affecting_lib_code() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&lint_source("f.rs", src, &lib_ctx("engine"))),
            vec![Rule::Determinism]
        );
        assert!(lint_source("f.rs", src, &lib_ctx("bench")).is_empty());
        let test_ctx = FileContext {
            crate_name: Some("engine".into()),
            kind: FileKind::TestLike,
        };
        assert!(lint_source("f.rs", src, &test_ctx).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt_from_determinism_and_panics() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint_source("f.rs", src, &lib_ctx("engine")).is_empty());
    }

    #[test]
    fn instant_now_fires_but_instant_storage_does_not() {
        let fires = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_source("f.rs", fires, &lib_ctx("engine"))),
            vec![Rule::Determinism]
        );
        let stores = "struct S { t: Instant }\n";
        assert!(lint_source("f.rs", stores, &lib_ctx("engine")).is_empty());
    }

    #[test]
    fn allow_with_justification_suppresses_and_unjustified_is_an_error() {
        let allowed = "// xlint: allow(determinism) -- keyed lookups only, never iterated\nuse std::collections::HashMap;\n";
        assert!(lint_source("f.rs", allowed, &lib_ctx("engine")).is_empty());
        let bare = "// xlint: allow(determinism)\nuse std::collections::HashMap;\n";
        let found = lint_source("f.rs", bare, &lib_ctx("engine"));
        assert_eq!(rules_of(&found), vec![Rule::Annotation, Rule::Determinism]);
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// xlint: allow(determinism) -- obsolete\nfn clean() {}\n";
        let found = lint_source("f.rs", src, &lib_ctx("engine"));
        assert_eq!(rules_of(&found), vec![Rule::Annotation]);
        assert!(found[0].message.contains("stale"));
    }

    #[test]
    fn unsafe_needs_a_safety_comment_anywhere_in_the_workspace() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let ctx = lib_ctx("whatever");
        assert_eq!(
            rules_of(&lint_source("f.rs", bad, &ctx)),
            vec![Rule::UnsafeHygiene]
        );
        let good = "// SAFETY: guarded by the branch above.\nfn f() { unsafe { x() } }\n";
        assert!(lint_source("f.rs", good, &ctx).is_empty());
    }

    #[test]
    fn no_alloc_region_bans_alloc_calls_between_markers() {
        let src = "fn warm() { let v: Vec<u8> = Vec::new(); }\n\
                   // xlint: begin(no_alloc)\n\
                   fn kernel() { let v: Vec<u8> = Vec::new(); }\n\
                   // xlint: end(no_alloc)\n\
                   fn cold() { let s = format!(\"x\"); }\n";
        let found = lint_source("f.rs", src, &lib_ctx("routing"));
        assert_eq!(rules_of(&found), vec![Rule::NoAlloc]);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn unbalanced_markers_are_annotation_findings() {
        let src = "// xlint: begin(no_alloc)\nfn f() {}\n";
        let found = lint_source("f.rs", src, &lib_ctx("routing"));
        assert_eq!(rules_of(&found), vec![Rule::Annotation]);
        assert!(found[0].message.contains("never closed"));
    }

    #[test]
    fn banned_names_inside_strings_and_comments_do_not_fire() {
        let src = "// HashMap and unsafe in prose are fine\nfn f() { let s = \"Instant::now() unsafe HashMap\"; }\n";
        assert!(lint_source("f.rs", src, &lib_ctx("engine")).is_empty());
    }
}
