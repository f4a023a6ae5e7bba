//! `hostbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints progress and failures on standard error and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 1` the spans of the layer run
//! go to standard error as one JSON document.

use std::process::ExitCode;

use ksr_hostbench::workload::{jobs, WORKLOADS};
use ksr_hostbench::{layers, timing};

const USAGE: &str = "usage: hostbench --workload NAME --seed N --seconds S --trace 0|1";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(specs) = jobs(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload {}; one of {}\n{USAGE}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = if args.trace {
        let (outcome, spans) = layers::run(&specs);
        eprintln!("{}", spans.render());
        outcome
    } else {
        timing::run(&specs, args.seconds as f64)
    };
    for why in &outcome.failures {
        eprintln!("FAILED {why}");
    }
    println!("{}", outcome.to_json().render());
    ExitCode::SUCCESS
}
