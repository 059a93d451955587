//! Findings: what a rule reports, and how reports leave the process.
//!
//! Three renderings of the same data: human diagnostics (rustc-style, one per
//! finding), a JSON report for machines (CI artifacts, dashboards), and a GitHub
//! markdown table for `$GITHUB_STEP_SUMMARY`. The JSON is hand-rolled — the crate is
//! zero-dependency by design — but the escaping is complete for everything a Rust
//! source line can contain.

use std::fmt::Write as _;

/// The rule classes xlint enforces. Each has a stable kebab-free snake identifier —
/// the name used in `xlint: allow(<rule>)` annotations and in the JSON report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Nondeterminism sources in result-affecting crates: `HashMap`/`HashSet`
    /// (iteration order is per-process random), `thread_rng`/`from_entropy`
    /// (unseeded RNG), `Instant::now`/`SystemTime` (wall-clock reads).
    Determinism,
    /// Heap allocation inside `// xlint: begin(no_alloc)` … `end(no_alloc)` regions
    /// (the frozen routing kernel's contract, visible at the source level).
    NoAlloc,
    /// Every `unsafe` keyword must be preceded by a `// SAFETY:` comment.
    UnsafeHygiene,
    /// No `unwrap`/`expect`/`panic!`-family in engine/failure/theory library paths.
    PanicPolicy,
    /// Meta-rule: malformed or unbalanced `xlint:` annotations, and allow
    /// annotations that no longer suppress anything (rot detection).
    Annotation,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 5] = [
    Rule::Determinism,
    Rule::NoAlloc,
    Rule::UnsafeHygiene,
    Rule::PanicPolicy,
    Rule::Annotation,
];

impl Rule {
    /// The identifier used in allow-annotations and JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::NoAlloc => "no_alloc",
            Rule::UnsafeHygiene => "unsafe_hygiene",
            Rule::PanicPolicy => "panic_policy",
            Rule::Annotation => "annotation",
        }
    }

    /// Parses an allow-annotation rule name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// One violation: where, which rule, and why it matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Path as scanned (workspace-relative when walking a workspace).
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based byte column of the offending token.
    pub col: u32,
    /// Byte span of the offending token in the file.
    pub start: usize,
    pub end: usize,
    /// Human explanation, one sentence, actionable.
    pub message: String,
}

impl Finding {
    /// The rustc-style one-line rendering: `path:line:col: [rule] message`.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.path,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// Escapes a string for a JSON string literal (quotes not included).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full machine-readable report: findings plus per-rule counts and the
/// number of files scanned. Stable field order, sorted findings in, sorted JSON out —
/// the linter's own output must be deterministic (it lints for exactly that).
#[must_use]
pub fn to_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"files_scanned\": ");
    let _ = write!(out, "{files_scanned}");
    out.push_str(",\n  \"total_findings\": ");
    let _ = write!(out, "{}", findings.len());
    out.push_str(",\n  \"by_rule\": {");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        let count = findings.iter().filter(|f| f.rule == *rule).count();
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", rule.name(), count);
    }
    out.push_str("\n  },\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
             \"start\": {}, \"end\": {}, \"message\": \"{}\"}}",
            f.rule.name(),
            json_escape(&f.path),
            f.line,
            f.col,
            f.start,
            f.end,
            json_escape(&f.message)
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders the findings as a GitHub-flavored markdown table for
/// `$GITHUB_STEP_SUMMARY`, capped so a pathological run cannot blow the summary
/// size limit.
#[must_use]
pub fn to_markdown(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## xlint: workspace invariants");
    let _ = writeln!(
        out,
        "\n{} finding(s) across {} scanned files.\n",
        findings.len(),
        files_scanned
    );
    if findings.is_empty() {
        let _ = writeln!(
            out,
            "All invariants hold: determinism, no_alloc regions, unsafe hygiene, \
             panic policy."
        );
        return out;
    }
    let _ = writeln!(out, "| rule | location | message |");
    let _ = writeln!(out, "|---|---|---|");
    const CAP: usize = 100;
    for f in findings.iter().take(CAP) {
        let _ = writeln!(
            out,
            "| `{}` | `{}:{}:{}` | {} |",
            f.rule.name(),
            f.path,
            f.line,
            f.col,
            f.message.replace('|', "\\|")
        );
    }
    if findings.len() > CAP {
        let _ = writeln!(
            out,
            "\n… and {} more (see JSON artifact).",
            findings.len() - CAP
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: Rule::Determinism,
            path: "crates/engine/src/cache.rs".into(),
            line: 31,
            col: 5,
            start: 1200,
            end: 1207,
            message: "HashMap in a result-affecting crate".into(),
        }
    }

    #[test]
    fn rule_names_roundtrip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("nonsense"), None);
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut f = sample();
        f.message = "quote \" backslash \\ tab \t".into();
        let json = to_json(&[f], 3);
        assert!(json.contains("\\\" backslash \\\\ tab \\t"));
        assert!(json.contains("\"determinism\": 1"));
        assert!(json.contains("\"no_alloc\": 0"));
        assert!(json.contains("\"files_scanned\": 3"));
    }

    #[test]
    fn markdown_has_table_and_clean_message() {
        let md = to_markdown(&[sample()], 7);
        assert!(md.contains("| `determinism` |"));
        assert!(md.contains("`crates/engine/src/cache.rs:31:5`"));
        let clean = to_markdown(&[], 7);
        assert!(clean.contains("All invariants hold"));
    }
}
