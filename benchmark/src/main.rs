use faultline_benchmark::cli::{self, Command};
use faultline_benchmark::{compare, run};
use std::process::ExitCode;

fn main() -> ExitCode {
    let command = match cli::parse(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Run(options) => match run::run(&options) {
            Ok(report) => {
                // The contract's result object, last on standard output.
                println!("{}", report.to_json(false));
                if report.correct {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("error: an output check failed (see the `check FAIL` lines)");
                    ExitCode::FAILURE
                }
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Command::Compare(a, b) => match compare::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("error: the two sets differ by more than a bound, or in a count");
                ExitCode::FAILURE
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
    }
}
