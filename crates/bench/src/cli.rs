//! Minimal command-line argument handling shared by every benchmark binary, and
//! the one way they write their reports ([`emit`], or [`StdoutReport`] for a
//! binary whose work goes on after its reader leaves).

use std::io::{self, ErrorKind, StdoutLock, Write};

/// One of the flags the figure/table binaries share. Each binary names the ones it
/// reads, and any other flag on its command line is an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--nodes N` — number of grid points (power of two recommended).
    Nodes,
    /// `--links L` — long-distance links per node, at least 1.
    Links,
    /// `--trials T` — independent networks per data point.
    Trials,
    /// `--messages M` — messages routed per network.
    Messages,
    /// `--seed S` — master seed.
    Seed,
    /// `--paper-scale` — use the paper's full-size configuration (overrides the
    /// defaults baked into each binary, not explicit flags).
    PaperScale,
    /// `--quick` — a smaller smoke configuration that finishes in seconds in release
    /// builds (`route_kernel`).
    Quick,
}

impl Flag {
    /// Every shared flag, in usage order.
    const ALL: [Flag; 7] = [
        Flag::Nodes,
        Flag::Links,
        Flag::Trials,
        Flag::Messages,
        Flag::Seed,
        Flag::PaperScale,
        Flag::Quick,
    ];

    /// The flag as it is typed.
    fn name(self) -> &'static str {
        match self {
            Flag::Nodes => "--nodes",
            Flag::Links => "--links",
            Flag::Trials => "--trials",
            Flag::Messages => "--messages",
            Flag::Seed => "--seed",
            Flag::PaperScale => "--paper-scale",
            Flag::Quick => "--quick",
        }
    }

    /// The flag's entry in a usage line.
    fn usage(self) -> &'static str {
        match self {
            Flag::Nodes => "[--nodes N]",
            Flag::Links => "[--links L]",
            Flag::Trials => "[--trials T]",
            Flag::Messages => "[--messages M]",
            Flag::Seed => "[--seed S]",
            Flag::PaperScale => "[--paper-scale]",
            Flag::Quick => "[--quick]",
        }
    }
}

/// The usage line of a binary that reads `reads`.
fn usage(reads: &[Flag]) -> String {
    let flags: Vec<&str> = reads.iter().map(|flag| flag.usage()).collect();
    format!("usage: {}", flags.join(" "))
}

/// Common knobs of the figure/table binaries (see [`Flag`]). A binary parses only
/// the flags it reads: [`BenchArgs::from_env`] takes their list.
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
    /// Parses the real process arguments (excluding the program name) of a binary
    /// that reads the flags `reads`. A bad value, or a flag outside `reads`, ends
    /// the process with status 2 and the binary's usage line.
    #[must_use]
    pub fn from_env(reads: &[Flag]) -> Self {
        match Self::try_parse(std::env::args().skip(1), reads) {
            Ok(parsed) => parsed,
            Err(message) => {
                eprintln!("{message}");
                eprintln!("{}", usage(reads));
                std::process::exit(2);
            }
        }
    }

    /// Parses `args` for a binary that reads the flags `reads`: an error names a
    /// bad value or a flag outside `reads`.
    pub fn try_parse<I: IntoIterator<Item = String>>(
        args: I,
        reads: &[Flag],
    ) -> Result<Self, String> {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(text) = iter.next() {
            let flag = Flag::ALL
                .into_iter()
                .find(|flag| flag.name() == text)
                .ok_or_else(|| format!("unknown flag: {text}"))?;
            if !reads.contains(&flag) {
                return Err(format!("{text} is not read by this binary"));
            }
            let mut value = || -> Result<u64, String> {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("missing value for {text}"))?;
                parse_number(&value)
            };
            match flag {
                Flag::Nodes => out.nodes = Some(value()?),
                Flag::Links => out.links = Some(value()? as usize),
                Flag::Trials => out.trials = Some(value()?),
                Flag::Messages => out.messages = Some(value()?),
                Flag::Seed => out.seed = value()?,
                Flag::PaperScale => out.paper_scale = true,
                Flag::Quick => out.quick = true,
            }
        }
        // An overlay needs two grid points, `NetworkConfig` would clamp no links to
        // one, and no trials or no messages average nothing.
        if out.nodes.is_some_and(|n| n < 2) {
            return Err("--nodes must be at least 2".to_owned());
        }
        if out.links == Some(0) {
            return Err("--links must be at least 1".to_owned());
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
    let mut out = StdoutReport::lock();
    out.write(report);
    if out.reader_gone {
        std::process::exit(0);
    }
}

/// The stdout of a binary whose work goes on after its reader leaves: one that
/// still writes a file, or whose exit status says whether its gates passed.
/// Each [`write`](StdoutReport::write) goes through one locked handle. Once a
/// write finds the reader gone (`| head`), it and every later write are skipped
/// quietly; any other write error is reported on stderr and ends the process
/// with status 1, as [`emit`] does.
#[derive(Debug)]
pub struct StdoutReport {
    out: StdoutLock<'static>,
    reader_gone: bool,
}

impl StdoutReport {
    /// Locks stdout for the rest of the run.
    #[must_use]
    pub fn lock() -> Self {
        Self {
            out: io::stdout().lock(),
            reader_gone: false,
        }
    }

    /// Writes one part of the report and flushes it, unless the reader has
    /// gone.
    pub fn write(&mut self, part: impl FnOnce(&mut StdoutLock<'static>) -> io::Result<()>) {
        if self.reader_gone {
            return;
        }
        match part(&mut self.out).and_then(|()| self.out.flush()) {
            Ok(()) => {}
            Err(error) if error.kind() == ErrorKind::BrokenPipe => self.reader_gone = true,
            Err(error) => {
                eprintln!("error: writing the report to stdout: {error}");
                std::process::exit(1);
            }
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

    fn try_parse(args: &[&str], reads: &[Flag]) -> Result<BenchArgs, String> {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()), reads)
    }

    fn parse(args: &[&str]) -> BenchArgs {
        try_parse(args, &Flag::ALL).unwrap()
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
        assert!(try_parse(&["--nodes"], &Flag::ALL).is_err());
        assert!(try_parse(&["--bogus"], &Flag::ALL).is_err());
        for value in ["x", "2^64", "2^63", "0", "1"] {
            assert!(try_parse(&["--nodes", value], &Flag::ALL).is_err());
        }
        for flag in ["--links", "--trials", "--messages"] {
            assert!(try_parse(&[flag, "0"], &Flag::ALL).is_err());
            assert!(try_parse(&[flag, "1"], &Flag::ALL).is_ok());
        }
    }

    /// A flag the binary does not read is an error naming it, even when its value
    /// is good; the flags it reads still parse.
    #[test]
    fn a_flag_outside_the_binary_s_set_is_refused() {
        let reads = [Flag::Nodes, Flag::Trials, Flag::Seed, Flag::PaperScale];
        let refused = try_parse(&["--links", "3"], &reads).unwrap_err();
        assert!(refused.contains("--links"), "{refused}");
        assert!(try_parse(&["--quick"], &reads).is_err());
        assert!(try_parse(&["--messages", "5"], &reads).is_err());
        let args = try_parse(
            &["--nodes", "2^9", "--trials", "2", "--paper-scale"],
            &reads,
        )
        .unwrap();
        assert_eq!(
            (args.nodes, args.trials, args.paper_scale),
            (Some(512), Some(2), true)
        );
        assert!(try_parse(&[], &[]).is_ok());
        assert!(try_parse(&["--seed", "1"], &[]).is_err());
    }

    #[test]
    fn the_usage_line_lists_only_the_flags_read() {
        assert_eq!(
            usage(&[Flag::Nodes, Flag::Seed, Flag::Quick]),
            "usage: [--nodes N] [--seed S] [--quick]"
        );
    }
}
