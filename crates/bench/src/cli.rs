//! Minimal command-line argument handling shared by every benchmark binary, and
//! the one way they write their reports ([`emit`]).

use std::io::{self, ErrorKind, StdoutLock, Write};

/// Common knobs accepted by every figure/table binary.
///
/// Flags:
///
/// * `--nodes N` — number of grid points (power of two recommended).
/// * `--links L` — long-distance links per node.
/// * `--trials T` — independent networks per data point.
/// * `--messages M` — messages routed per network.
/// * `--seed S` — master seed.
/// * `--paper-scale` — use the paper's full-size configuration (overrides the defaults
///   baked into each binary, not explicit flags).
/// * `--quick` — a smaller smoke configuration that finishes in seconds in release
///   builds (`route_kernel`).
///
/// `engine_throughput` takes none of these: its only flag is `--scenario PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Number of grid points, if given on the command line.
    pub nodes: Option<u64>,
    /// Long links per node, if given.
    pub links: Option<usize>,
    /// Trials per data point, if given.
    pub trials: Option<u64>,
    /// Messages per trial, if given.
    pub messages: Option<u64>,
    /// Master seed (default 2002, the paper's publication year).
    pub seed: u64,
    /// Run at the paper's full scale.
    pub paper_scale: bool,
    /// Run the smoke configuration.
    pub quick: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            nodes: None,
            links: None,
            trials: None,
            messages: None,
            seed: 2002,
            paper_scale: false,
            quick: false,
        }
    }
}

impl BenchArgs {
    /// Parses arguments from an iterator of strings (excluding the program name).
    ///
    /// Unknown flags terminate the process with a usage message when parsed from the real
    /// command line; from tests use [`BenchArgs::try_parse`] which returns an error.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        match Self::try_parse(args) {
            Ok(parsed) => parsed,
            Err(message) => {
                eprintln!("{message}");
                eprintln!(
                    "usage: [--nodes N] [--links L] [--trials T] [--messages M] [--seed S] [--paper-scale] [--quick]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses the real process arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Fallible parser used by unit tests.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut grab = |name: &str| -> Result<String, String> {
                iter.next()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match flag.as_str() {
                "--nodes" => out.nodes = Some(parse_number(&grab("--nodes")?)?),
                "--links" => out.links = Some(parse_number(&grab("--links")?)? as usize),
                "--trials" => out.trials = Some(parse_number(&grab("--trials")?)?),
                "--messages" => out.messages = Some(parse_number(&grab("--messages")?)?),
                "--seed" => out.seed = parse_number(&grab("--seed")?)?,
                "--paper-scale" => out.paper_scale = true,
                "--quick" => out.quick = true,
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        // An overlay needs two grid points, and no trials or no messages average nothing.
        if out.nodes.is_some_and(|n| n < 2) {
            return Err("--nodes must be at least 2".to_owned());
        }
        if out.trials == Some(0) || out.messages == Some(0) {
            return Err("--trials and --messages must be at least 1".to_owned());
        }
        Ok(out)
    }

    /// Resolves the node count: explicit flag, else paper scale, else the given default.
    #[must_use]
    pub fn nodes_or(&self, default: u64, paper: u64) -> u64 {
        self.nodes
            .unwrap_or(if self.paper_scale { paper } else { default })
    }

    /// Resolves the link count the same way.
    #[must_use]
    pub fn links_or(&self, default: usize, paper: usize) -> usize {
        self.links
            .unwrap_or(if self.paper_scale { paper } else { default })
    }

    /// Resolves the trial count the same way.
    #[must_use]
    pub fn trials_or(&self, default: u64, paper: u64) -> u64 {
        self.trials
            .unwrap_or(if self.paper_scale { paper } else { default })
    }

    /// Resolves the per-trial message count the same way.
    #[must_use]
    pub fn messages_or(&self, default: u64, paper: u64) -> u64 {
        self.messages
            .unwrap_or(if self.paper_scale { paper } else { default })
    }
}

/// Writes a binary's report through one locked stdout handle. A reader that goes
/// away before the end (`| head`) ends the process quietly with status 0, the
/// rows it did not want unwritten; any other write error is reported on stderr
/// and ends it with status 1.
pub fn emit(report: impl FnOnce(&mut StdoutLock<'static>) -> io::Result<()>) {
    let written = {
        let mut out = io::stdout().lock();
        report(&mut out).and_then(|()| out.flush())
    };
    match written {
        Ok(()) => {}
        Err(error) if error.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(error) => {
            eprintln!("error: writing the report to stdout: {error}");
            std::process::exit(1);
        }
    }
}

/// Accepts plain integers and `2^k` notation.
fn parse_number(text: &str) -> Result<u64, String> {
    if let Some(exp) = text.strip_prefix("2^") {
        let exp: u32 = exp.parse().map_err(|_| format!("bad exponent in {text}"))?;
        if exp >= 63 {
            return Err(format!("{text}: 2^k with k ≥ 63 overflows the node space"));
        }
        return Ok(1u64 << exp);
    }
    text.parse().map_err(|_| format!("not a number: {text}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn defaults_are_sane() {
        let args = parse(&[]);
        assert_eq!(args.seed, 2002);
        assert!(!args.paper_scale);
        assert_eq!(args.nodes_or(1024, 1 << 17), 1024);
    }

    #[test]
    fn explicit_flags_win() {
        let args = parse(&[
            "--nodes",
            "2^12",
            "--links",
            "7",
            "--trials",
            "3",
            "--messages",
            "50",
            "--seed",
            "9",
        ]);
        assert_eq!(args.nodes, Some(4096));
        assert_eq!(args.links, Some(7));
        assert_eq!(args.trials, Some(3));
        assert_eq!(args.messages, Some(50));
        assert_eq!(args.seed, 9);
        assert_eq!(args.nodes_or(1024, 1 << 17), 4096);
    }

    #[test]
    fn paper_scale_switches_defaults() {
        let args = parse(&["--paper-scale"]);
        assert_eq!(args.nodes_or(8192, 1 << 17), 1 << 17);
        assert_eq!(args.trials_or(30, 1000), 1000);
        assert_eq!(args.links_or(13, 17), 17);
        assert_eq!(args.messages_or(50, 100), 100);
    }

    #[test]
    fn quick_flag_parses() {
        let args = parse(&["--quick"]);
        assert!(args.quick);
        assert!(!parse(&[]).quick);
    }

    #[test]
    fn bad_input_is_reported() {
        assert!(BenchArgs::try_parse(vec!["--nodes".to_string()]).is_err());
        assert!(BenchArgs::try_parse(vec!["--bogus".to_string()]).is_err());
        for value in ["x", "2^64", "2^63", "0", "1"] {
            assert!(BenchArgs::try_parse(vec!["--nodes".to_string(), value.to_string()]).is_err());
        }
        for flag in ["--trials", "--messages"] {
            assert!(BenchArgs::try_parse(vec![flag.to_string(), "0".to_string()]).is_err());
            assert!(BenchArgs::try_parse(vec![flag.to_string(), "1".to_string()]).is_ok());
        }
    }
}
