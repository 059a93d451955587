//! Typed scenario diagnostics: every way a scenario file can be wrong, each with
//! enough position information to point the author at the offending line.
//!
//! The DSL's contract is **no silent repair**: a value outside its domain is an
//! error, never a clamp. Errors that originate in the engine's own
//! [`EngineConfig::validate_for_epochs`](faultline_engine::EngineConfig::validate_for_epochs)
//! pass through as [`ScenarioError::Config`], so the scenario front door surfaces
//! exactly the same diagnoses a hand-built config would.

use faultline_engine::ConfigError;
use std::fmt;

/// Why a scenario file failed to parse or validate.
///
/// Variants carry the 1-based source line wherever one exists; only
/// [`ScenarioError::MissingKey`] (the key is absent, so no line names it) and
/// [`ScenarioError::Config`] (the engine validates the assembled whole, not a
/// single line) omit it.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The line is not valid TOML-subset syntax (malformed header, missing `=`,
    /// unterminated string, unparsable literal, …).
    Syntax {
        /// 1-based source line of the malformed input.
        line: usize,
        /// What the parser expected instead.
        message: String,
    },
    /// A `[section]` header names a table the schema does not define.
    UnknownSection {
        /// 1-based source line of the header.
        line: usize,
        /// The unrecognised section name.
        section: String,
    },
    /// A key the named section's schema does not define.
    UnknownKey {
        /// 1-based source line of the assignment.
        line: usize,
        /// The section the key appeared in.
        section: String,
        /// The unrecognised key.
        key: String,
    },
    /// A section header or key appeared twice; the second occurrence is the error.
    Duplicate {
        /// 1-based source line of the *second* occurrence.
        line: usize,
        /// The duplicated section or `section.key` name.
        name: String,
    },
    /// A key holds a value of the wrong TOML type.
    TypeMismatch {
        /// 1-based source line of the assignment.
        line: usize,
        /// The key whose value has the wrong type.
        key: String,
        /// The type the schema expects (`"integer"`, `"string"`, …).
        expected: &'static str,
        /// The type the file supplied.
        found: &'static str,
    },
    /// A key the schema requires is absent.
    MissingKey {
        /// The section the key belongs to.
        section: &'static str,
        /// The required key.
        key: &'static str,
    },
    /// A well-typed value outside its domain (negative seed, fraction past 1,
    /// unknown enum label, contradictory knob pair, …).
    InvalidValue {
        /// 1-based source line of the assignment.
        line: usize,
        /// The key holding the out-of-domain value.
        key: String,
        /// What the domain actually is.
        message: String,
    },
    /// The parsed [`EngineConfig`](faultline_engine::EngineConfig) failed the
    /// engine's own validation — the scenario parsed, but describes a run the
    /// engine rejects.
    Config(ConfigError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Syntax { line, message } => {
                write!(f, "line {line}: syntax error: {message}")
            }
            ScenarioError::UnknownSection { line, section } => {
                write!(f, "line {line}: unknown section [{section}]")
            }
            ScenarioError::UnknownKey { line, section, key } => {
                write!(f, "line {line}: unknown key `{key}` in [{section}]")
            }
            ScenarioError::Duplicate { line, name } => {
                write!(f, "line {line}: `{name}` given more than once")
            }
            ScenarioError::TypeMismatch {
                line,
                key,
                expected,
                found,
            } => {
                write!(
                    f,
                    "line {line}: `{key}` expects a {expected}, found a {found}"
                )
            }
            ScenarioError::MissingKey { section, key } => {
                write!(f, "missing required key `{key}` in [{section}]")
            }
            ScenarioError::InvalidValue { line, key, message } => {
                write!(f, "line {line}: invalid `{key}`: {message}")
            }
            ScenarioError::Config(error) => write!(f, "engine rejected the scenario: {error}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Config(error) => Some(error),
            _ => None,
        }
    }
}

impl From<ConfigError> for ScenarioError {
    fn from(error: ConfigError) -> Self {
        ScenarioError::Config(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_the_line() {
        let cases: Vec<(ScenarioError, &str)> = vec![
            (
                ScenarioError::Syntax {
                    line: 3,
                    message: "expected `=`".into(),
                },
                "line 3: syntax error: expected `=`",
            ),
            (
                ScenarioError::UnknownSection {
                    line: 7,
                    section: "netwrok".into(),
                },
                "line 7: unknown section [netwrok]",
            ),
            (
                ScenarioError::UnknownKey {
                    line: 9,
                    section: "engine".into(),
                    key: "treads".into(),
                },
                "line 9: unknown key `treads` in [engine]",
            ),
            (
                ScenarioError::Duplicate {
                    line: 12,
                    name: "workload.seed".into(),
                },
                "line 12: `workload.seed` given more than once",
            ),
            (
                ScenarioError::TypeMismatch {
                    line: 4,
                    key: "nodes".into(),
                    expected: "integer",
                    found: "boolean",
                },
                "line 4: `nodes` expects a integer, found a boolean",
            ),
            (
                ScenarioError::MissingKey {
                    section: "scenario",
                    key: "name",
                },
                "missing required key `name` in [scenario]",
            ),
            (
                ScenarioError::InvalidValue {
                    line: 6,
                    key: "bias".into(),
                    message: "must lie in [0, 1]".into(),
                },
                "line 6: invalid `bias`: must lie in [0, 1]",
            ),
        ];
        for (error, want) in cases {
            assert_eq!(error.to_string(), want);
        }
    }

    #[test]
    fn config_errors_pass_through_with_source() {
        let inner = ConfigError::ScheduleOutlivesRun {
            events: 3,
            epochs: 2,
        };
        let error = ScenarioError::from(inner);
        assert_eq!(error, ScenarioError::Config(inner));
        assert!(error
            .to_string()
            .starts_with("engine rejected the scenario:"));
        assert!(std::error::Error::source(&error).is_some());
    }
}
