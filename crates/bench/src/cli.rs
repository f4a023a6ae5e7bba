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
//!   next to the results (non-zero exit on any violation);
//! * `--cache DIR` — content-addressed results cache: jobs whose
//!   fingerprint is present load instead of executing, everything else
//!   executes and populates the cache (bypassed under `--check`, whose
//!   point is observing execution);
//! * `--shard i/N` — run only shard `i` of `N` of the flattened job
//!   list into the cache (requires `--cache`; writes no artifacts). Once
//!   every shard is done, a plain `--cache DIR` run over the same cache
//!   assembles the artifacts, and its `[cache: ...]` line reports any
//!   job it still had to execute;
//! * `--prune` — delete cache entries from dead generations (stale
//!   schemas, removed experiments, corrupt files), then exit (requires
//!   `--cache`).
//!
//! An `--only` run writes `summary.json` and `timings.json` for its
//! selection alone, replacing any full-run index in that directory.
//!
//! Output discipline: rendered experiment results go to **stdout** (so
//! runs pipe cleanly into files and diffs); everything else — per-job
//! progress, `[written:]` / `[summary:]` / `[check:]` / `[cache:]`
//! status lines, errors — goes to **stderr**.

use std::process::ExitCode;
use std::time::Instant;

use ksr_core::{Json, Progress};

use crate::common::{write_summary, ExperimentOutput, RunOpts, Shard, MAX_DEFAULT_JOBS};
use crate::exec::{self, CacheStats};
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
    /// `--prune`: drop dead cache generations instead of running.
    pub prune: bool,
}

/// Parse `args` (not including the program name) over
/// [`RunOpts::default`], with `--jobs` defaulting to the host
/// parallelism capped at [`MAX_DEFAULT_JOBS`]. Returns an error message
/// for unknown or malformed flags and for inconsistent combinations
/// (sharding without a cache or with `--check`, pruning without a
/// cache).
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
        prune: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.opts.quick = true,
            "--full" => cli.opts.quick = false,
            "--check" => cli.opts.check = true,
            "--list" => cli.list = true,
            "--prune" => cli.prune = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                cli.opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--results" => {
                cli.opts.results_dir = args.next().ok_or("--results needs a directory")?.into();
            }
            "--cache" => {
                cli.opts.cache = Some(args.next().ok_or("--cache needs a directory")?.into());
            }
            "--shard" => {
                let v = args.next().ok_or("--shard needs i/N")?;
                cli.opts.shard = Some(Shard::parse(&v)?);
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
    if cli.opts.shard.is_some() {
        if cli.opts.cache.is_none() {
            return Err(
                "--shard requires --cache DIR: shards communicate through the cache".into(),
            );
        }
        if cli.opts.check {
            return Err(
                "--shard conflicts with --check: checked runs bypass the cache, \
                 so a checked shard would produce nothing"
                    .into(),
            );
        }
    }
    if cli.prune && cli.opts.cache.is_none() {
        return Err("--prune requires --cache DIR: it needs a cache to clean".into());
    }
    Ok(cli)
}

fn usage() -> String {
    format!(
        "usage: run_all [--quick|--full] [--check] [--seed N] [--results DIR] [--jobs N] \
         [--cache DIR] [--shard i/N] [--list] [--only ID,ID...] [--prune]\n\
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
///
/// With `opts.shard` set the executor runs only this process's slice of
/// the job list into the cache and reduces nothing, so the run writes
/// no artifacts except `timings.json` (which carries the
/// hit/miss/skip counters).
fn run_selection(selected: &[&Experiment], opts: &RunOpts) -> ExitCode {
    let plans: Vec<crate::exec::ExperimentPlan> = selected.iter().map(|e| e.plan(opts)).collect();
    let wall_start = Instant::now();
    let report = exec::execute(plans, opts, &Progress::stderr());
    let wall_seconds = wall_start.elapsed().as_secs_f64();

    if let Some(stats) = report.cache {
        let cache_dir = opts.cache.as_deref().expect("stats imply a cache");
        let skipped = opts.shard.map_or_else(String::new, |shard| {
            format!(", {} skipped (shard {shard})", stats.skipped)
        });
        eprintln!(
            "[cache: {} hit(s), {} miss(es){skipped} of {} job(s) → {}]",
            stats.hits,
            stats.misses,
            report.total_jobs,
            cache_dir.display(),
        );
    } else if opts.cache.is_some() && opts.check {
        eprintln!("[cache: bypassed under --check (violations are observed, not cached)]");
    }

    let mut outputs: Vec<ExperimentOutput> = Vec::with_capacity(report.results.len());
    let mut checks = Vec::new();
    let mut timings = Vec::new();
    for (exp, result) in selected.iter().zip(report.results) {
        timings.push((exp.id(), result.seconds));
        let Some(output) = result.output else {
            continue; // a shard run reduces nothing
        };
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

    if opts.shard.is_none() {
        match write_summary(&outputs, opts) {
            Ok(path) => eprintln!("[summary: {}]", path.display()),
            Err(e) => {
                eprintln!("error: could not write summary: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let cache = report.cache.map(|stats| (stats, report.total_jobs));
    if let Err(e) = write_timings(&timings, wall_seconds, opts, cache) {
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
/// run's worker count, total wall time, and (when a cache was active)
/// the hit/miss/skip counters. Timings are the one nondeterministic
/// output, so they live in their own file that the determinism gates
/// exclude from byte comparison — which is also why the cache counters
/// belong here and not in `summary.json`.
fn write_timings(
    timings: &[(&'static str, f64)],
    wall_seconds: f64,
    opts: &RunOpts,
    cache: Option<(CacheStats, usize)>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.results_dir)?;
    let mut doc = Json::obj([
        ("jobs", Json::from(opts.jobs)),
        ("wall_seconds", Json::from(wall_seconds)),
    ]);
    if let Some((stats, total_jobs)) = cache {
        doc.push_field(
            "cache",
            Json::obj([
                ("hits", Json::from(stats.hits)),
                ("misses", Json::from(stats.misses)),
                ("skipped", Json::from(stats.skipped)),
                ("total_jobs", Json::from(total_jobs)),
            ]),
        );
    }
    doc.push_field(
        "experiments",
        Json::Arr(
            timings
                .iter()
                .map(|&(id, seconds)| {
                    Json::obj([("id", Json::from(id)), ("seconds", Json::from(seconds))])
                })
                .collect(),
        ),
    );
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
        // `--quick --list` shows the quick grid — exactly what a user
        // sizing --shard N is about to run.
        for e in REGISTRY {
            let jobs = e.plan(&cli.opts).jobs().len();
            println!("{:<8} {:>4} job(s)  {}", e.id(), jobs, e.title());
        }
        return ExitCode::SUCCESS;
    }
    if cli.prune {
        return prune_cache(&cli.opts);
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

/// Delete cache entries no current experiment generation can ever hit:
/// every registered experiment's (id, schema) pairs are live, anything
/// else — stale schemas, removed experiments, corrupt files — goes.
/// The live set spans the whole registry regardless of `--only`, so a
/// prune never deletes entries a differently-scoped run still wants.
fn prune_cache(opts: &RunOpts) -> ExitCode {
    let dir = opts.cache.clone().expect("parse_args enforces --cache");
    let mut live: Vec<(&'static str, u32)> = Vec::new();
    for e in REGISTRY {
        for job in e.plan(opts).jobs() {
            let pair = (job.desc().experiment(), job.desc().schema());
            if !live.contains(&pair) {
                live.push(pair);
            }
        }
    }
    match crate::cache::ResultsCache::new(&dir).prune(&live) {
        Ok(stats) => {
            eprintln!(
                "[prune: {} entries removed, {} kept → {}]",
                stats.pruned,
                stats.kept,
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: could not prune {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
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
        assert!(cli.opts.cache.is_none());
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
        assert!(!cli.list && !cli.prune && cli.only.is_empty());
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
    }

    #[test]
    fn cache_and_shard_flags_parse() {
        let cli = parse_args(["--cache", "cdir", "--shard", "2/4"].map(String::from)).unwrap();
        assert_eq!(cli.opts.cache, Some(std::path::PathBuf::from("cdir")));
        assert_eq!(cli.opts.shard, Some(Shard { index: 2, count: 4 }));
        let cli = parse_args(["--cache", "cdir"].map(String::from)).unwrap();
        assert!(cli.opts.shard.is_none());
    }

    #[test]
    fn prune_flag_parses_and_requires_a_cache() {
        let cli = parse_args(["--cache", "cdir", "--prune"].map(String::from)).unwrap();
        assert!(cli.prune);
        assert!(
            parse_args(["--prune".to_string()]).is_err(),
            "--prune without --cache"
        );
    }

    #[test]
    fn inconsistent_shard_combinations_are_errors() {
        assert!(
            parse_args(["--shard", "1/2"].map(String::from)).is_err(),
            "--shard without --cache"
        );
        assert!(
            parse_args(["--cache", "c", "--shard", "1/2", "--check"].map(String::from)).is_err(),
            "--shard with --check"
        );
        assert!(parse_args(["--shard".to_string()]).is_err());
        assert!(parse_args(["--shard", "0/2"].map(String::from)).is_err());
        assert!(parse_args(["--shard", "3/2"].map(String::from)).is_err());
        assert!(parse_args(["--cache".to_string()]).is_err());
    }
}
