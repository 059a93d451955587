//! Command line of the benchmark.

use crate::run::Options;
use crate::workloads::{self, Scale, WORKLOADS};
use std::path::PathBuf;

pub const USAGE: &str = "\
usage: faultline-benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1]
                           [--smoke] [--out DIR]
       faultline-benchmark --compare DIR_A DIR_B

  --workload NAME  walk-uniform | hit-smallbatch | churn-steady | fail-heal
  --seed S         derives the network, traffic, churn and failure seeds (default 2002)
  --seconds T      measure for T seconds; without it the run does the workload's
                   fixed work, so two runs of one seed agree in every count
  --trace 1        the traced run: per-layer metrics, spans to DIR/trace-NAME.json
  --smoke          n = 2^10 and a few small segments: checks the plumbing, measures nothing
  --out DIR        also write the result to DIR/NAME.{end-to-end,traced}.json
                   (traces go to DIR, default benchmark/out)
  --compare A B    compare two --out directories metric by metric against the bounds";

#[derive(Debug)]
pub enum Command {
    Run(Options),
    Compare(PathBuf, PathBuf),
}

/// # Errors
///
/// A message naming the flag that was unknown, repeated, incomplete or
/// malformed.
pub fn parse(args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut args = args.peekable();
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut smoke = false;
    let mut compare = None;
    fn once<T>(slot: &mut Option<T>, flag: &str, value: T) -> Result<(), String> {
        match slot.replace(value) {
            None => Ok(()),
            Some(_) => Err(format!("{flag} given twice")),
        }
    }
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let found = workloads::find(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (one of: {})", names.join(", "))
                })?;
                once(&mut workload, "--workload", found)?;
            }
            "--seed" => {
                let text = value("--seed")?;
                let parsed = text
                    .parse::<u64>()
                    .map_err(|_| format!("--seed `{text}` is not a non-negative integer"))?;
                once(&mut seed, "--seed", parsed)?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                let parsed = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds `{text}` is not a positive number"))?;
                once(&mut seconds, "--seconds", parsed)?;
            }
            "--trace" => {
                let traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
                once(&mut trace, "--trace", traced)?;
            }
            "--smoke" => smoke = true,
            "--out" => once(&mut out, "--out", PathBuf::from(value("--out")?))?,
            "--compare" => {
                let a = PathBuf::from(value("--compare")?);
                let b = PathBuf::from(value("--compare")?);
                once(&mut compare, "--compare", (a, b))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some((a, b)) = compare {
        if workload.is_some() {
            return Err("--compare takes no --workload".to_owned());
        }
        return Ok(Command::Compare(a, b));
    }
    Ok(Command::Run(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2002),
        seconds,
        traced: trace.unwrap_or(false),
        scale: if smoke { Scale::Smoke } else { Scale::Full },
        out,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Command, String> {
        parse(words.iter().map(|w| (*w).to_owned()))
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let command = parse_words(&[
            "--workload",
            "fail-heal",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        let Command::Run(options) = command else {
            panic!("a run was asked for");
        };
        assert_eq!(options.workload.name, "fail-heal");
        assert_eq!(options.seed, 7);
        assert_eq!(options.seconds, Some(12.0));
        assert!(options.traced && options.out.is_none());
        assert_eq!(options.scale, Scale::Full);
    }

    #[test]
    fn bad_invocations_are_refused() {
        assert!(parse_words(&[]).is_err());
        assert!(parse_words(&["--workload", "nope"]).is_err());
        assert!(parse_words(&["--workload", "fail-heal", "--trace", "2"]).is_err());
        assert!(parse_words(&["--workload", "fail-heal", "--seconds", "0"]).is_err());
        assert!(parse_words(&["--workload", "fail-heal", "--seed"]).is_err());
        assert!(parse_words(&["--workload", "fail-heal", "--seed", "1", "--seed", "2"]).is_err());
        assert!(matches!(
            parse_words(&["--compare", "a", "b"]),
            Ok(Command::Compare(_, _))
        ));
    }
}
