//! The timed run: end-to-end metrics of one workload.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s>` prints every
//! metric with its unit, then one JSON result line. Exits non-zero if a
//! correctness check failed.

use aqf_perfbench::{cli, timed};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let report = timed::run(w, args.seed, w.requests_per_client(), args.budget);
    print!("{}", report.render());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
