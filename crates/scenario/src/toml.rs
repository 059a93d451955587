//! A hand-rolled parser for the TOML subset scenario files use.
//!
//! The workspace vendors every dependency (the build has no network access), so the
//! scenario DSL cannot lean on a real TOML crate. This module implements exactly
//! the grammar the schema needs — `[section]` headers, `key = value` assignments,
//! `#` comments, and string / integer / float / boolean / single-line-array
//! literals — with **1-based line numbers threaded through every token**, because
//! line-accurate diagnostics are the whole point of the typed
//! [`ScenarioError`] surface.
//!
//! Deliberately out of scope (a scenario never needs them): dotted keys, inline
//! tables, multi-line strings and arrays, datetimes, and hex/octal/binary integer
//! forms. Feeding any of those in is a [`ScenarioError::Syntax`](crate::ScenarioError)
//! on the offending line, not a silent misparse.

use crate::error::ScenarioError;

/// One literal value of the TOML subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A double-quoted string (escapes `\"`, `\\`, `\n`, `\t` resolved).
    String(String),
    /// A decimal integer (underscore separators allowed).
    Integer(i64),
    /// A float (anything numeric with a `.`, `e`, or `E`).
    Float(f64),
    /// `true` or `false`.
    Bool(bool),
    /// A single-line `[v, v, …]` array (possibly heterogeneous; the schema layer
    /// enforces element types).
    Array(Vec<Value>),
}

impl Value {
    /// The type label used in [`ScenarioError::TypeMismatch`](crate::ScenarioError)
    /// diagnostics.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::String(_) => "string",
            Value::Integer(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// One `key = value` assignment, with the line it was written on.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The bare key (left of `=`).
    pub key: String,
    /// The parsed literal (right of `=`).
    pub value: Value,
    /// 1-based source line of the assignment.
    pub line: usize,
}

/// One `[section]` and the assignments under it, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// The section name (between the brackets).
    pub name: String,
    /// 1-based source line of the header.
    pub line: usize,
    /// Assignments under this header, in file order.
    pub entries: Vec<Entry>,
}

impl Section {
    /// The first entry for `key`, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed scenario file: its sections in file order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    /// Sections in file order.
    pub sections: Vec<Section>,
}

impl Document {
    /// The first section named `name`, if any.
    #[must_use]
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }
}

/// Parses a scenario file into its section/entry structure.
///
/// Purely syntactic: schema knowledge (which sections exist, which keys they
/// take, value domains) lives in [`ScenarioSpec`](crate::ScenarioSpec). All
/// diagnostics are [`ScenarioError::Syntax`] with the 1-based line.
///
/// # Errors
///
/// Returns [`ScenarioError::Syntax`] for malformed headers, assignments outside
/// any section, missing `=`, unterminated strings, or unparsable literals.
pub fn parse(source: &str) -> Result<Document, ScenarioError> {
    let mut document = Document::default();
    for (index, raw) in source.lines().enumerate() {
        let line = index + 1;
        let stripped = strip_comment(raw, line)?;
        let text = stripped.trim();
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(syntax(line, "section header must close with `]`"));
            };
            let name = name.trim();
            if name.is_empty() {
                return Err(syntax(line, "section header names an empty section"));
            }
            if !name.chars().all(is_name_char) {
                return Err(syntax(
                    line,
                    "section names use letters, digits, `_` and `-` only",
                ));
            }
            document.sections.push(Section {
                name: name.to_string(),
                line,
                entries: Vec::new(),
            });
            continue;
        }
        let Some(eq) = text.find('=') else {
            return Err(syntax(
                line,
                "expected `key = value` or a `[section]` header",
            ));
        };
        let key = text[..eq].trim();
        if key.is_empty() {
            return Err(syntax(line, "assignment is missing its key"));
        }
        if !key.chars().all(is_name_char) {
            return Err(syntax(line, "keys use letters, digits, `_` and `-` only"));
        }
        let value = parse_value(text[eq + 1..].trim(), line)?;
        let Some(section) = document.sections.last_mut() else {
            return Err(syntax(line, "key appears before any `[section]` header"));
        };
        section.entries.push(Entry {
            key: key.to_string(),
            value,
            line,
        });
    }
    Ok(document)
}

fn syntax(line: usize, message: &str) -> ScenarioError {
    ScenarioError::Syntax {
        line,
        message: message.to_string(),
    }
}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Removes a `#` comment, honouring `#` inside double-quoted strings.
fn strip_comment(raw: &str, line: usize) -> Result<&str, ScenarioError> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in raw.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return Ok(&raw[..i]),
            _ => {}
        }
    }
    if in_string {
        return Err(syntax(line, "unterminated string"));
    }
    Ok(raw)
}

/// Parses one literal; the whole input must be consumed.
fn parse_value(text: &str, line: usize) -> Result<Value, ScenarioError> {
    if text.is_empty() {
        return Err(syntax(line, "assignment is missing its value"));
    }
    if text.starts_with('"') {
        let (value, rest) = parse_string(text, line)?;
        if !rest.trim().is_empty() {
            return Err(syntax(line, "trailing input after string literal"));
        }
        return Ok(Value::String(value));
    }
    if text.starts_with('[') {
        return parse_array(text, line);
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    parse_number(text, line)
}

/// Parses a leading double-quoted string, returning it and the unconsumed tail.
fn parse_string(text: &str, line: usize) -> Result<(String, &str), ScenarioError> {
    debug_assert!(text.starts_with('"'));
    let mut out = String::new();
    let mut chars = text.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &text[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => {
                    return Err(ScenarioError::Syntax {
                        line,
                        message: format!("unsupported escape `\\{other}` in string"),
                    })
                }
                None => return Err(syntax(line, "unterminated string")),
            },
            other => out.push(other),
        }
    }
    Err(syntax(line, "unterminated string"))
}

/// Parses a single-line `[…]` array by splitting on top-level commas.
fn parse_array(text: &str, line: usize) -> Result<Value, ScenarioError> {
    debug_assert!(text.starts_with('['));
    let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) else {
        return Err(syntax(line, "array must open and close on one line"));
    };
    let mut elements = Vec::new();
    for piece in split_top_level(inner, line)? {
        let piece = piece.trim();
        if piece.is_empty() {
            continue; // trailing comma
        }
        elements.push(parse_value(piece, line)?);
    }
    Ok(Value::Array(elements))
}

/// Splits array innards on commas that sit outside strings and nested brackets.
fn split_top_level(inner: &str, line: usize) -> Result<Vec<&str>, ScenarioError> {
    let mut pieces = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| syntax(line, "unbalanced `]` in array"))?;
            }
            ',' if !in_string && depth == 0 => {
                pieces.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_string {
        return Err(syntax(line, "unterminated string"));
    }
    if depth != 0 {
        return Err(syntax(line, "unbalanced `[` in array"));
    }
    pieces.push(&inner[start..]);
    Ok(pieces)
}

/// Parses a decimal integer or float (underscore digit separators allowed).
fn parse_number(text: &str, line: usize) -> Result<Value, ScenarioError> {
    if text.starts_with('_') || text.ends_with('_') || text.contains("__") {
        return Err(syntax(line, "misplaced `_` separator in number"));
    }
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let is_float = cleaned.contains(['.', 'e', 'E']);
    if is_float {
        if let Ok(f) = cleaned.parse::<f64>() {
            if f.is_finite() {
                return Ok(Value::Float(f));
            }
        }
    } else if let Ok(i) = cleaned.parse::<i64>() {
        return Ok(Value::Integer(i));
    }
    Err(ScenarioError::Syntax {
        line,
        message: format!("`{text}` is not a string, number, boolean, or array"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_entries_and_comment_noise() {
        let doc = parse(concat!(
            "# top comment\n",
            "[scenario]\n",
            "name = \"zipf-hotspot\" # trailing comment\n",
            "seed = 2_002\n",
            "\n",
            "[workload]\n",
            "ratio = 0.35\n",
            "ramp = true\n",
            "events = [\"region:128\", \"heal\"]\n",
        ))
        .expect("clean file parses");
        assert_eq!(doc.sections.len(), 2);
        let scenario = doc.section("scenario").expect("scenario section");
        assert_eq!(scenario.line, 2);
        assert_eq!(
            scenario.get("name").map(|e| &e.value),
            Some(&Value::String("zipf-hotspot".into()))
        );
        assert_eq!(
            scenario.get("seed").map(|e| (e.line, e.value.clone())),
            Some((4, Value::Integer(2002)))
        );
        let workload = doc.section("workload").expect("workload section");
        assert_eq!(
            workload.get("ratio").map(|e| &e.value),
            Some(&Value::Float(0.35))
        );
        assert_eq!(
            workload.get("ramp").map(|e| &e.value),
            Some(&Value::Bool(true))
        );
        assert_eq!(
            workload.get("events").map(|e| &e.value),
            Some(&Value::Array(vec![
                Value::String("region:128".into()),
                Value::String("heal".into()),
            ]))
        );
    }

    #[test]
    fn strings_keep_hashes_and_escapes() {
        let doc = parse("[s]\nlabel = \"a # not-a-comment \\\"quoted\\\" \\n tab\\t\"\n")
            .expect("escaped string parses");
        assert_eq!(
            doc.section("s")
                .and_then(|s| s.get("label"))
                .map(|e| &e.value),
            Some(&Value::String(
                "a # not-a-comment \"quoted\" \n tab\t".into()
            ))
        );
    }

    #[test]
    fn negative_and_separated_numbers() {
        let doc = parse("[n]\na = -7\nb = 1_000_000\nc = -0.5\nd = 1e3\n").expect("numbers parse");
        let section = doc.section("n").expect("section");
        assert_eq!(
            section.get("a").map(|e| &e.value),
            Some(&Value::Integer(-7))
        );
        assert_eq!(
            section.get("b").map(|e| &e.value),
            Some(&Value::Integer(1_000_000))
        );
        assert_eq!(
            section.get("c").map(|e| &e.value),
            Some(&Value::Float(-0.5))
        );
        assert_eq!(section.get("d").map(|e| &e.value), Some(&Value::Float(1e3)));
    }

    #[test]
    fn syntax_errors_name_the_line() {
        let err = |source: &str| parse(source).expect_err("must fail");
        assert_eq!(
            err("x = 1\n"),
            ScenarioError::Syntax {
                line: 1,
                message: "key appears before any `[section]` header".into()
            }
        );
        assert!(matches!(
            err("[s]\nkey\n"),
            ScenarioError::Syntax { line: 2, .. }
        ));
        assert!(matches!(
            err("[s]\nkey = \"open\n"),
            ScenarioError::Syntax { line: 2, .. }
        ));
        assert!(matches!(
            err("[s]\nkey = nope\n"),
            ScenarioError::Syntax { line: 2, .. }
        ));
        assert!(matches!(err("[s\n"), ScenarioError::Syntax { line: 1, .. }));
        assert!(matches!(
            err("[s]\nkey = [1, 2\n"),
            ScenarioError::Syntax { line: 2, .. }
        ));
    }
}
