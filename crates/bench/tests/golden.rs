//! The seven paper binaries, pinned: each one's stdout at its default
//! configuration must equal its file under `tests/golden/` byte for byte.
//!
//! No binary prints a clock reading, and every result is a function of the seed,
//! so a difference is a changed figure. The suite runs with the auto-detected
//! distance-scan kernel and again under `FAULTLINE_FORCE_SCALAR=1`, which the
//! binaries inherit, so the same files also pin the SIMD and scalar kernels to
//! each other. A change that moves a figure on purpose re-baselines its file
//! (`cargo run --release -p faultline-bench --bin NAME > tests/golden/NAME.txt`)
//! and says why.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs `exe` with no arguments and diffs its stdout against `golden/<bin>.txt`,
/// naming the first line that differs.
fn assert_prints_its_golden(bin: &str, exe: &str) {
    let output = Command::new(exe)
        .output()
        .unwrap_or_else(|error| panic!("{bin} did not start: {error}"));
    assert!(
        output.status.success(),
        "{bin} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{bin}.txt"));
    let golden =
        std::fs::read(&path).unwrap_or_else(|error| panic!("reading {}: {error}", path.display()));
    if output.stdout == golden {
        return;
    }
    let printed = String::from_utf8_lossy(&output.stdout);
    let expected = String::from_utf8_lossy(&golden);
    let (line, (got, want)) = printed
        .lines()
        .map(Some)
        .chain(std::iter::repeat(None))
        .zip(expected.lines().map(Some).chain(std::iter::repeat(None)))
        .enumerate()
        .find(|(_, (got, want))| got != want)
        .unwrap_or((0, (None, None)));
    panic!(
        "{bin} no longer prints {}: line {} reads {got:?}, the golden file {want:?}",
        path.display(),
        line + 1
    );
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            assert_prints_its_golden(
                stringify!($bin),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
            );
        }
    )*};
}

golden!(
    fig5_link_distribution,
    fig6_node_failures,
    fig7_constructed_vs_ideal,
    table1_bounds,
    ablation_exponent,
    ablation_replacement,
    baseline_comparison,
);

/// A reader that leaves after the first line (`| head -1`) ends a binary
/// quietly: no panic, no backtrace. `ablation_replacement` writes its first
/// table, then runs the region probe before it writes the second, so the second
/// write finds the pipe closed.
#[test]
fn a_reader_that_leaves_early_ends_the_binary_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ablation_replacement"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ablation_replacement starts");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("the first line arrives");
    // The reader, and with it the pipe's only read end, is gone.
    let output = child.wait_with_output().expect("the binary ends");
    assert!(first.starts_with("# Ablation"), "first line {first:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.status.success(), "{}: {stderr}", output.status);
}
