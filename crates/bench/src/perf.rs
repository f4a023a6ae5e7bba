//! Perf-regression harness: host wall-clock times for simulator
//! microworkloads.
//!
//! Everything else in this crate measures *simulated* time — cycle
//! counts that are byte-identical across hosts and worker counts. This
//! module is the one deliberate exception: it times how long the
//! *simulator itself* takes to run a fixed set of microworkloads, so a
//! change that slows the coordinator hot path down shows up as a number
//! instead of as a mysteriously longer CI run.
//!
//! The first four cases drive the same code the real experiments drive
//! (they call the experiment modules' own workload functions, not
//! copies):
//!
//! * `fig2_remote_read` — the Figure-2 latency probe: four processors
//!   stride-reading their ring neighbour's array. Maximal pressure on
//!   the coordinator request path and the directory.
//! * `lock_churn` — the Figure-3 hardware-lock workload: four
//!   processors contending on one `get_sub_page` lock.
//! * `barrier_episode` — one measured MCS-barrier episode across 16
//!   processors (plus the standard two warm-up episodes).
//! * `quick_is` — the quick-mode Integer Sort of Table 2 on four
//!   processors: the closest thing to a whole application.
//!
//! The fifth drives the memory system directly:
//!
//! * `fanout_512` — the invalidation and read-snarfing storm of a
//!   512-cell lock handoff, isolated: alternating writes and re-reads of
//!   one sub-page every cell holds. Each write invalidates the 511 other
//!   copies and each re-read snarf-refills all 511 place holders (the
//!   reader's own included), so the case costs O(holders) per
//!   transaction and slows by the list length if a per-holder directory
//!   re-scan ever comes back.
//!
//! Results go to `bench.json` in the results directory. Wall times are
//! nondeterministic by nature, so — like `timings.json` — that file is
//! excluded from every byte-comparison determinism gate. Longer-term
//! trajectory (before/after numbers for each optimization PR, with the
//! host recorded) lives in the repo-root `BENCH_<n>.json` files; see
//! `EXPERIMENTS.md`.
//!
//! Timing protocol: each case runs `reps` times and reports the minimum
//! and mean wall seconds. The minimum is the comparison number — on a
//! noisy host it is the best available estimate of the undisturbed
//! cost. The simulated seconds each case also reports must never change
//! under a pure performance PR; the smoke test and the determinism gate
//! both lean on that.
//!
//! Gate mode (`--gate BASELINE`): after measuring, compare each case's
//! fresh minimum against the same case in a committed `bench.json` and
//! fail if any regresses past the tolerance (see [`GATE_RELATIVE_SLACK`]
//! and [`GATE_ABSOLUTE_FLOOR_SECONDS`]). On failure no report is
//! written; on success the fresh report lands in the results directory
//! as usual. `scripts/check.sh` points `--results` at a scratch
//! directory, so the committed `results/bench.json` moves only when it
//! is re-recorded on purpose, in a commit that says why. (A gate whose
//! passing runs replaced the baseline would lower the limit after every
//! fast run and fail the next slow one.)

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ksr_core::time::cycles_to_seconds;
use ksr_core::Json;
use ksr_machine::MachineConfig;
use ksr_mem::{MemOp, MemorySystem};
use ksr_sync::{AnyBarrier, BarrierKind};

use crate::fig2_latency::{measure, Target};
use crate::fig3_locks::run_workload;
use crate::fig4_barriers::{episode_seconds, BarrierMachine};
use crate::table2_is::{is_time, paper_config};

/// One microworkload: a name, what it stresses, and a runner returning
/// the *simulated* seconds of the workload (the wall clock is the
/// harness's job).
#[derive(Debug)]
pub struct PerfCase {
    /// Stable case name (a JSON key in `bench.json`).
    pub name: &'static str,
    /// One-line description of what the case stresses.
    pub detail: &'static str,
    /// Run the workload once; returns simulated seconds.
    pub run: fn() -> f64,
}

/// Wall-clock result of one case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case name.
    pub name: &'static str,
    /// Minimum wall seconds over the repetitions (the comparison
    /// number).
    pub wall_seconds_min: f64,
    /// Mean wall seconds over the repetitions.
    pub wall_seconds_mean: f64,
    /// Simulated seconds the workload reported (identical every rep on
    /// a correct build — simulation results do not depend on the host).
    pub sim_seconds: f64,
}

/// The standard case set, in execution order.
#[must_use]
pub fn cases() -> Vec<PerfCase> {
    vec![
        PerfCase {
            name: "fig2_remote_read",
            detail: "4 procs stride-reading a ring neighbour's array (coordinator+directory)",
            run: || measure(Target::RemoteRead, 4, 128, 2048, 100),
        },
        PerfCase {
            name: "lock_churn",
            detail: "4 procs contending on the hardware get_sub_page lock (Figure 3 workload)",
            run: || run_workload(None, 4, 300),
        },
        PerfCase {
            name: "barrier_episode",
            detail: "one MCS barrier episode across 16 procs (plus standard warm-up)",
            run: || {
                episode_seconds(BarrierMachine::Ksr1.config(16, 400), 16, 1, |m| {
                    AnyBarrier::alloc(BarrierKind::Mcs, m, 16).expect("barrier alloc")
                })
            },
        },
        PerfCase {
            name: "quick_is",
            detail: "quick-mode Integer Sort on 4 procs (Table 2 workload)",
            run: || is_time(paper_config(true), 4, 500).0,
        },
        PerfCase {
            name: "fanout_512",
            detail: "write/re-read rounds on a sub-page all 512 cells hold (invalidation fan-out)",
            run: || fanout_rounds(26_000),
        },
    ]
}

/// The `fanout_512` workload: every cell of LCK's 512-cell ring tree
/// reads one sub-page, then `rounds` rounds of one write (invalidating
/// every other copy) and one re-read from another leaf (demoting the
/// writer and snarf-refilling every place holder). Returns simulated
/// seconds.
fn fanout_rounds(rounds: usize) -> f64 {
    let cfg = MachineConfig::ksr_ring(1, &[32, 8, 2]);
    let fabric = cfg.build_fabric().expect("the LCK ring tree is valid");
    let mut mem = MemorySystem::with_options(
        cfg.geometry,
        cfg.timing,
        fabric,
        cfg.cells,
        cfg.seed,
        cfg.protocol,
    )
    .expect("the KSR-1 geometry is valid");
    let mut now = 0;
    for cell in 0..cfg.cells {
        now = mem.access(cell, 0, MemOp::Read, now).done_at();
    }
    for round in 0..rounds {
        // A stride coprime to 512 walks writers and readers over every
        // leaf; the reader sits half the machine away from the writer.
        let writer = round * 97 % cfg.cells;
        let reader = (writer + cfg.cells / 2) % cfg.cells;
        now = mem.access(writer, 0, MemOp::Write, now).done_at();
        now = mem.access(reader, 0, MemOp::Read, now).done_at();
    }
    cycles_to_seconds(now, cfg.clock_hz)
}

/// Run `cases` `reps` times each (at least once) and collect wall-clock
/// results.
#[must_use]
pub fn run_cases(cases: &[PerfCase], reps: usize) -> Vec<CaseResult> {
    let reps = reps.max(1);
    cases
        .iter()
        .map(|case| {
            let mut walls = Vec::with_capacity(reps);
            let mut sim = 0.0;
            for _ in 0..reps {
                let t0 = Instant::now();
                sim = (case.run)();
                walls.push(t0.elapsed().as_secs_f64());
            }
            let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
            let mean = walls.iter().sum::<f64>() / walls.len() as f64;
            CaseResult {
                name: case.name,
                wall_seconds_min: min,
                wall_seconds_mean: mean,
                sim_seconds: sim,
            }
        })
        .collect()
}

/// JSON report for a set of case results: schema tag, host parallelism,
/// repetition count, per-case numbers, and the wall total.
#[must_use]
pub fn report(results: &[CaseResult], reps: usize) -> Json {
    let host = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let total: f64 = results.iter().map(|r| r.wall_seconds_min).sum();
    Json::obj([
        ("schema", Json::from("ksr-bench-perf-v1")),
        ("host_parallelism", Json::from(host)),
        ("reps", Json::from(reps)),
        (
            "cases",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::from(r.name)),
                            ("wall_seconds_min", Json::from(r.wall_seconds_min)),
                            ("wall_seconds_mean", Json::from(r.wall_seconds_mean)),
                            ("sim_seconds", Json::from(r.sim_seconds)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_wall_seconds_min", Json::from(total)),
    ])
}

/// Relative regression tolerance for gate mode: a case may be up to 10%
/// slower than the baseline before it fails. This is the real contract
/// (the trajectory gating of ROADMAP item 5); the absolute floor below
/// only exists to keep it honest on tiny cases.
pub const GATE_RELATIVE_SLACK: f64 = 0.10;

/// Absolute regression floor for gate mode: on top of the relative
/// slack, a case must be at least this many wall seconds over the
/// baseline to fail. Sub-50ms minima (`barrier_episode`, `lock_churn`)
/// are dominated by scheduler noise on a busy host; without the floor
/// they would flap the gate on milliseconds.
pub const GATE_ABSOLUTE_FLOOR_SECONDS: f64 = 0.05;

/// Extract `(name, wall_seconds_min)` per case from a `bench.json`
/// produced by [`write_report`].
///
/// Deliberately not a general JSON parser: the baseline is this
/// harness's own output, rendered one field per line with `"name"`
/// preceding `"wall_seconds_min"` inside every case object, and the
/// schema tag is checked up front so anything else is rejected.
pub fn parse_baseline(body: &str) -> Result<Vec<(String, f64)>, String> {
    if !body.contains("\"schema\": \"ksr-bench-perf-v1\"") {
        return Err("baseline is not a ksr-bench-perf-v1 bench.json".into());
    }
    let mut out = Vec::new();
    let mut pending: Option<String> = None;
    for line in body.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            pending = rest.split('"').next().map(str::to_owned);
        } else if let Some(rest) = line.strip_prefix("\"wall_seconds_min\": ") {
            let raw = rest.trim_end_matches(',');
            let min: f64 = raw
                .parse()
                .map_err(|_| format!("bad wall_seconds_min value: {raw}"))?;
            if let Some(name) = pending.take() {
                out.push((name, min));
            }
        }
    }
    if out.is_empty() {
        return Err("baseline has no cases".into());
    }
    Ok(out)
}

/// Compare fresh results against a parsed baseline; returns one message
/// per gate failure (empty means the gate passes). A case present in
/// the baseline but missing from this build fails too — silently
/// dropping a slow case is the easiest way to cheat a perf gate.
#[must_use]
pub fn gate_failures(fresh: &[CaseResult], baseline: &[(String, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base) in baseline {
        let Some(r) = fresh.iter().find(|r| r.name == name) else {
            failures.push(format!("{name}: in the baseline but not in this build"));
            continue;
        };
        let limit = (base * (1.0 + GATE_RELATIVE_SLACK)).max(base + GATE_ABSOLUTE_FLOOR_SECONDS);
        if r.wall_seconds_min > limit {
            failures.push(format!(
                "{name}: {:.3}s vs baseline {:.3}s (+{:.1}%, limit {:.3}s)",
                r.wall_seconds_min,
                base,
                (r.wall_seconds_min / base - 1.0) * 100.0,
                limit
            ));
        }
    }
    failures
}

/// Write `bench.json` under `dir`, creating the directory if needed.
pub fn write_report(doc: &Json, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("bench.json");
    let mut body = doc.render_pretty();
    body.push('\n');
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Entry point for the `perf` binary:
/// `perf [--reps N] [--results DIR] [--gate BASELINE]`.
///
/// Prints the per-case numbers to stderr and the report path on
/// success; `bench.json` lands in the results directory (default
/// `results`, as for `run_all`). With `--gate`, the fresh
/// minima are compared against the named baseline `bench.json` first
/// and a regression past the tolerance exits non-zero without touching
/// any file.
#[must_use]
pub fn perf_main() -> ExitCode {
    let mut reps = 3usize;
    let mut dir = PathBuf::from("results");
    let mut gate: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --reps needs a positive integer");
                    return ExitCode::from(2);
                };
                reps = v;
            }
            "--results" => {
                let Some(v) = args.next() else {
                    eprintln!("error: --results needs a directory");
                    return ExitCode::from(2);
                };
                dir = v.into();
            }
            "--gate" => {
                let Some(v) = args.next() else {
                    eprintln!("error: --gate needs a baseline bench.json path");
                    return ExitCode::from(2);
                };
                gate = Some(v.into());
            }
            other => {
                eprintln!(
                    "error: unknown argument: {other}\n\
                     usage: perf [--reps N] [--results DIR] [--gate BASELINE]"
                );
                return ExitCode::from(2);
            }
        }
    }
    // Parse the baseline before spending minutes measuring, so a bad
    // path or a stale schema fails immediately.
    let baseline = match &gate {
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(body) => match parse_baseline(&body) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("error: bad gate baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("error: cannot read gate baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let reps = reps.max(1);
    let set = cases();
    eprintln!("[perf: {} case(s), {} rep(s) each]", set.len(), reps);
    let results = run_cases(&set, reps);
    for r in &results {
        eprintln!(
            "[perf: {:<18} min {:>8.3}s  mean {:>8.3}s  (sim {:.6}s)]",
            r.name, r.wall_seconds_min, r.wall_seconds_mean, r.sim_seconds
        );
    }
    if let Some(baseline) = baseline {
        let failures = gate_failures(&results, &baseline);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perf gate FAIL: {f}");
            }
            eprintln!(
                "perf gate: {} case(s) regressed more than {:.0}% (and {:.0}ms) \
                 over the baseline; bench.json left untouched",
                failures.len(),
                GATE_RELATIVE_SLACK * 100.0,
                GATE_ABSOLUTE_FLOOR_SECONDS * 1000.0
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[perf gate: all {} case(s) within tolerance]",
            results.len()
        );
    }
    let doc = report(&results, reps);
    match write_report(&doc, &dir) {
        Ok(path) => {
            eprintln!("[bench: {}]", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: could not write bench.json: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cases() -> Vec<PerfCase> {
        vec![
            PerfCase {
                name: "tiny_a",
                detail: "test stub",
                run: || 1.25,
            },
            PerfCase {
                name: "tiny_b",
                detail: "test stub",
                run: || 2.5,
            },
        ]
    }

    #[test]
    fn case_names_are_unique_and_stable() {
        let set = cases();
        assert_eq!(set.len(), 5);
        let names: Vec<_> = set.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "fig2_remote_read",
                "lock_churn",
                "barrier_episode",
                "quick_is",
                "fanout_512"
            ]
        );
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn run_cases_clamps_reps_and_keeps_sim_seconds() {
        let results = run_cases(&tiny_cases(), 0);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].sim_seconds, 1.25);
        assert_eq!(results[1].sim_seconds, 2.5);
        assert!(results[0].wall_seconds_min <= results[0].wall_seconds_mean);
    }

    #[test]
    fn bench_json_has_the_documented_shape() {
        let dir = std::env::temp_dir().join(format!("ksr_perf_test_{}", std::process::id()));
        let results = run_cases(&tiny_cases(), 2);
        let doc = report(&results, 2);
        let path = write_report(&doc, &dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "bench.json");
        let body = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"schema\": \"ksr-bench-perf-v1\"",
            "\"host_parallelism\"",
            "\"reps\": 2",
            "\"name\": \"tiny_a\"",
            "\"name\": \"tiny_b\"",
            "\"wall_seconds_min\"",
            "\"wall_seconds_mean\"",
            "\"sim_seconds\"",
            "\"total_wall_seconds_min\"",
        ] {
            assert!(body.contains(key), "bench.json missing {key}:\n{body}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn baseline_round_trips_through_the_report() {
        let results = run_cases(&tiny_cases(), 1);
        let body = report(&results, 1).render_pretty();
        let baseline = parse_baseline(&body).unwrap();
        assert_eq!(baseline.len(), 2);
        assert_eq!(baseline[0].0, "tiny_a");
        assert_eq!(baseline[1].0, "tiny_b");
        assert_eq!(baseline[0].1, results[0].wall_seconds_min);
    }

    #[test]
    fn baseline_rejects_foreign_or_empty_documents() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\": \"something-else\"}").is_err());
        let tagged = "{\n  \"schema\": \"ksr-bench-perf-v1\",\n  \"cases\": []\n}";
        assert!(parse_baseline(tagged).is_err(), "no cases means no gate");
    }

    fn fresh(name: &'static str, min: f64) -> CaseResult {
        CaseResult {
            name,
            wall_seconds_min: min,
            wall_seconds_mean: min,
            sim_seconds: 1.0,
        }
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_past_it() {
        let baseline = vec![("big".to_string(), 1.0)];
        // +9% is inside the relative slack.
        assert!(gate_failures(&[fresh("big", 1.09)], &baseline).is_empty());
        // +11% is past both the slack and the 50ms floor.
        let failures = gate_failures(&[fresh("big", 1.11)], &baseline);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("big"), "{failures:?}");
        assert!(failures[0].contains("baseline 1.000s"), "{failures:?}");
    }

    #[test]
    fn gate_absolute_floor_shields_tiny_cases() {
        // A 1ms case tripling is still under the 50ms floor: noise, not
        // a regression the gate should act on.
        let baseline = vec![("tiny".to_string(), 0.001)];
        assert!(gate_failures(&[fresh("tiny", 0.003)], &baseline).is_empty());
        // Past the floor it fails like any other case.
        let failures = gate_failures(&[fresh("tiny", 0.100)], &baseline);
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn gate_fails_on_a_dropped_case() {
        let baseline = vec![("gone".to_string(), 1.0)];
        let failures = gate_failures(&[fresh("other", 0.5)], &baseline);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("not in this build"), "{failures:?}");
    }

    // The real smoke test: one full pass over the standard cases with a
    // single rep. This is the only place in the unit suite that times
    // host wall clock; it asserts structure, never speed.
    #[test]
    fn standard_cases_run_and_report() {
        let results = run_cases(&cases(), 1);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(
                r.sim_seconds > 0.0 && r.sim_seconds.is_finite(),
                "{}: bad sim_seconds {}",
                r.name,
                r.sim_seconds
            );
            assert!(
                r.wall_seconds_min > 0.0 && r.wall_seconds_min.is_finite(),
                "{}: bad wall time",
                r.name
            );
        }
    }
}
