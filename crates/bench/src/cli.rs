//! The `run_all` command line: the one front end that regenerates
//! artifacts.
//!
//! The flags are the only configuration; nothing is read from the
//! environment:
//!
//! * `--list` — print the registry (id, job count, title) and exit;
//! * `--only ID[,ID...]` — run a subset (ids are case-insensitive);
//! * `--quick` / `--full` — force reduced or full sweeps;
//! * `--seed N` — perturb every machine seed;
//! * `--results DIR` — where result files go;
//! * `--jobs N` / `-j N` — worker threads the executor schedules jobs
//!   over (default: host parallelism capped at [`MAX_DEFAULT_JOBS`];
//!   results are byte-identical at any value);
//! * `--check` — verification mode: every machine gets a
//!   `ksr-verify` coherence-checking sink, the race-detector and
//!   schedule-lint suites run afterwards, and `violations.json` lands
//!   next to the results (non-zero exit on any violation).
//!
//! Every run executes every job of its selection.
//!
//! An `--only` run writes `summary.json` and `timings.json` for its
//! selection alone, replacing any full-run index in that directory.
//!
//! Output discipline: rendered experiment results go to **stdout** (so
//! runs pipe cleanly into files and diffs); everything else — per-job
//! progress, `[written:]` / `[summary:]` / `[check:]` / `[timings:]`
//! status lines, errors — goes to **stderr**.

use std::process::ExitCode;
use std::time::Instant;

use ksr_core::{Json, Progress};

use crate::common::{write_summary, ExperimentOutput, RunOpts, MAX_DEFAULT_JOBS};
use crate::exec;
use crate::registry::{find, Experiment, REGISTRY};

/// Parsed command line: run options plus `run_all`'s selection flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Effective run options (defaults + flags).
    pub opts: RunOpts,
    /// `--list`: print the registry instead of running.
    pub list: bool,
    /// `--only`: ids to run (empty means all).
    pub only: Vec<String>,
}

/// Parse `args` (not including the program name) over
/// [`RunOpts::default`], with `--jobs` defaulting to the host
/// parallelism capped at [`MAX_DEFAULT_JOBS`]. Returns an error message
/// for unknown or malformed flags.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let jobs = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_DEFAULT_JOBS);
    let mut cli = Cli {
        opts: RunOpts {
            jobs,
            ..RunOpts::default()
        },
        list: false,
        only: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.opts.quick = true,
            "--full" => cli.opts.quick = false,
            "--check" => cli.opts.check = true,
            "--list" => cli.list = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                cli.opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--results" => {
                cli.opts.results_dir = args.next().ok_or("--results needs a directory")?.into();
            }
            "--jobs" | "-j" => {
                let v = args.next().ok_or("--jobs needs a worker count")?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs value: {v}"))?;
                cli.opts.jobs = n.max(1);
            }
            "--only" => {
                let v = args
                    .next()
                    .ok_or("--only needs a comma-separated id list")?;
                cli.only.extend(
                    v.split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_uppercase),
                );
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

fn usage() -> String {
    format!(
        "usage: run_all [--quick|--full] [--check] [--seed N] [--results DIR] [--jobs N] \
         [--list] [--only ID,ID...]\n\
         ids: {}",
        crate::registry::ids().join(", ")
    )
}

/// The run path: plan every selected experiment, execute all jobs over
/// the worker pool, then print/persist the outputs in selection order
/// and write `summary.json` and `timings.json`. Under `--check`, the
/// per-experiment coherence results are merged in job order and
/// [`crate::check::finalize`] runs the race/lint suites and writes
/// `violations.json`.
fn run_selection(selected: &[&Experiment], opts: &RunOpts) -> ExitCode {
    let plans: Vec<crate::exec::ExperimentPlan> = selected.iter().map(|e| e.plan(opts)).collect();
    let wall_start = Instant::now();
    let results = exec::execute(plans, opts, &Progress::stderr());
    let wall_seconds = wall_start.elapsed().as_secs_f64();

    let mut outputs: Vec<ExperimentOutput> = Vec::with_capacity(results.len());
    let mut checks = Vec::new();
    let mut timings = Vec::new();
    for (exp, result) in selected.iter().zip(results) {
        timings.push((exp.id(), result.seconds));
        let output = result.output;
        println!("{}", output.render());
        match output.write_to(&opts.results_dir) {
            Ok(path) => eprintln!("[written: {}]", path.display()),
            Err(e) => eprintln!("[warning: could not write results file: {e}]"),
        }
        if let Some(check) = result.check {
            eprintln!(
                "[check: {}: {} machine(s), {} coherence event(s), {} violation(s)]",
                exp.id(),
                check.machines,
                check.events,
                check.total_violations()
            );
            checks.push((exp.id(), check));
        }
        outputs.push(output);
    }

    match write_summary(&outputs, opts) {
        Ok(path) => eprintln!("[summary: {}]", path.display()),
        Err(e) => {
            eprintln!("error: could not write summary: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = write_timings(&timings, wall_seconds, opts) {
        eprintln!("[warning: could not write timings: {e}]");
    }

    if opts.check {
        match crate::check::finalize(&checks, opts) {
            Ok((_, true)) => ExitCode::SUCCESS,
            Ok((_, false)) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: could not write violations report: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        ExitCode::SUCCESS
    }
}

/// Write `timings.json`: per-experiment wall-clock seconds plus the
/// run's worker count and total wall time. Timings are the one
/// nondeterministic output, so they live in their own file that the
/// determinism gates exclude from byte comparison.
fn write_timings(
    timings: &[(&'static str, f64)],
    wall_seconds: f64,
    opts: &RunOpts,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.results_dir)?;
    let doc = Json::obj([
        ("jobs", Json::from(opts.jobs)),
        ("wall_seconds", Json::from(wall_seconds)),
        (
            "experiments",
            Json::Arr(
                timings
                    .iter()
                    .map(|&(id, seconds)| {
                        Json::obj([("id", Json::from(id)), ("seconds", Json::from(seconds))])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = opts.results_dir.join("timings.json");
    let mut body = doc.render_pretty();
    body.push('\n');
    std::fs::write(&path, body)?;
    eprintln!("[timings: {}]", path.display());
    Ok(())
}

/// Entry point for the `run_all` binary.
#[must_use]
pub fn run_all_main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.list {
        // Job counts come from plan() under the effective options, so
        // `--quick --list` shows the quick grid a `--quick` run executes.
        for e in REGISTRY {
            let jobs = e.plan(&cli.opts).jobs().len();
            println!("{:<8} {:>4} job(s)  {}", e.id(), jobs, e.title());
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&Experiment> = if cli.only.is_empty() {
        REGISTRY.iter().collect()
    } else {
        let mut sel = Vec::new();
        for id in &cli.only {
            match find(id) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("error: unknown experiment id {id}\nregistered experiments:");
                    for e in REGISTRY {
                        eprintln!("  {:<8} {}", e.id(), e.title());
                    }
                    return ExitCode::from(2);
                }
            }
        }
        sel
    };
    run_selection(&selected, &cli.opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_layer_over_defaults() {
        let cli = parse_args(
            [
                "--quick",
                "--seed",
                "9",
                "--results",
                "out",
                "--jobs",
                "4",
                "--only",
                "fig4,tab1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(cli.opts.quick);
        assert_eq!(cli.opts.seed, 9);
        assert_eq!(cli.opts.results_dir, std::path::PathBuf::from("out"));
        assert_eq!(cli.opts.jobs, 4);
        assert_eq!(cli.only, ["FIG4", "TAB1"]);
        assert!(!cli.opts.check);
    }

    #[test]
    fn no_flags_means_default_options_and_host_jobs() {
        let cli = parse_args(Vec::new()).unwrap();
        assert!((1..=MAX_DEFAULT_JOBS).contains(&cli.opts.jobs));
        let jobs = cli.opts.jobs;
        assert_eq!(
            cli.opts,
            RunOpts {
                jobs,
                ..RunOpts::default()
            }
        );
        assert!(!cli.list && cli.only.is_empty());
    }

    #[test]
    fn short_jobs_flag_and_floor() {
        let cli = parse_args(["-j", "8"].map(String::from)).unwrap();
        assert_eq!(cli.opts.jobs, 8);
        let cli = parse_args(["--jobs", "0"].map(String::from)).unwrap();
        assert_eq!(cli.opts.jobs, 1, "a zero worker count clamps to serial");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse_args(["--bogus".to_string()]).is_err());
        assert!(parse_args(["--seed".to_string(), "x".to_string()]).is_err());
        assert!(parse_args(["--jobs".to_string(), "x".to_string()]).is_err());
        assert!(parse_args(["--cache", "x"].map(String::from)).is_err());
        assert!(parse_args(["--shard", "1/2"].map(String::from)).is_err());
        assert!(parse_args(["--prune".to_string()]).is_err());
    }
}
