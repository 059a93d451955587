//! The seven paper binaries, pinned: each one's stdout at its default
//! configuration must equal its file under `tests/golden/` byte for byte. A
//! reader that leaves early (`| head -1`) ends none of the bench binaries with a
//! panic, and a flag a binary does not read ends it with status 2.
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
use std::process::{Command, ExitStatus, Stdio};

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

/// A flag a binary does not read ends it with status 2 and its usage line, before
/// it prints anything: `table1_bounds` sweeps ℓ itself, so `--links` would
/// otherwise print the default table as if it had been honoured.
#[test]
fn a_flag_the_binary_ignores_exits_2_with_its_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_table1_bounds"))
        .args(["--links", "3"])
        .output()
        .expect("table1_bounds starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        output.stdout.is_empty(),
        "it printed before refusing the flag"
    );
    assert!(stderr.contains("--links is not read"), "{stderr}");
    assert!(
        stderr
            .contains("usage: [--nodes N] [--trials T] [--messages M] [--seed S] [--paper-scale]"),
        "{stderr}"
    );
}

/// Starts `command` with both outputs piped, reads its first line, then drops
/// the pipe's only read end (`| head -1`) and waits for the binary to end.
/// Returns that line, the binary's stderr, and its exit status.
fn leave_after_the_first_line(mut command: Command) -> (String, String, ExitStatus) {
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("the first line arrives");
    let output = child.wait_with_output().expect("the binary ends");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{stderr}");
    (first, stderr, output.status)
}

/// A reader that leaves after the first line ends a paper binary quietly: no
/// panic, no backtrace. `ablation_replacement` writes its first table, then
/// runs the region probe before it writes the second, so the second write
/// finds the pipe closed.
#[test]
fn a_reader_that_leaves_early_ends_the_binary_quietly() {
    let (first, stderr, status) =
        leave_after_the_first_line(Command::new(env!("CARGO_BIN_EXE_ablation_replacement")));
    assert!(first.starts_with("# Ablation"), "first line {first:?}");
    assert!(status.success(), "{status}: {stderr}");
}

/// `engine_throughput` writes every scenario's block, then times the kernel
/// cell before its gate lines, so those find the pipe closed. The run goes on
/// without a panic, and its exit status still follows its gates: 1 exactly
/// when it reports a failed gate on stderr.
#[test]
fn engine_throughput_outlives_a_reader_that_leaves_early() {
    let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut command = Command::new(env!("CARGO_BIN_EXE_engine_throughput"));
    command.arg("--scenario").arg(scenarios);
    let (first, stderr, status) = leave_after_the_first_line(command);
    assert!(first.starts_with("scenario "), "first line {first:?}");
    let gates_failed = stderr.contains("gates failed");
    assert_eq!(status.code(), Some(i32::from(gates_failed)), "{stderr}");
}

/// `route_kernel` writes its header, then times a cell before it writes the
/// cell's row, which finds the pipe closed. The run goes on without a panic
/// and still writes `BENCH_route_kernel.json` to its working directory.
#[test]
fn route_kernel_outlives_a_reader_that_leaves_early() {
    let dir = std::env::temp_dir().join(format!("faultline-route-kernel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
    let mut command = Command::new(env!("CARGO_BIN_EXE_route_kernel"));
    command.arg("--quick").current_dir(&dir);
    let (first, stderr, status) = leave_after_the_first_line(command);
    let written = std::fs::read_to_string(dir.join("BENCH_route_kernel.json"));
    std::fs::remove_dir_all(&dir).expect("the temp dir is removable");
    assert!(first.starts_with("# route_kernel"), "first line {first:?}");
    assert!(status.success(), "{status}: {stderr}");
    let json = written.expect("BENCH_route_kernel.json is written");
    assert!(json.contains("\"cells\":["), "{json}");
}
