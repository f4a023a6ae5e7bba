//! The timing runs (`--trace 0`): the end-to-end metrics, tracing off.
//!
//! A run repeats passes over the workload's jobs until the next pass
//! would end past the deadline (at least one pass). Before each pass it
//! sets every job up once more without running it, so set-up is
//! sampled twice per pass. Each job's times are medians over passes;
//! set-up time is the median over all set-up samples.
//!
//! Every time is rescaled to a reference host speed. A shared host's
//! speed drifts by tens of percent over a few seconds, which would
//! swamp the differences the benchmark exists to show. So the runner
//! times a fixed loop of its own ([`calibrate`]) before and after each
//! job and multiplies the job's host seconds by
//! [`REFERENCE_CALIBRATION_S`] ÷ the mean of those two loop times. The
//! loop calls no simulator code, so a change to the simulator cannot
//! move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::workload::{run_job, setup_only, JobRecord, JobSpec, Observe};
use crate::{median, ratio, Metric, Outcome};

/// [`calibrate`]'s host seconds at the reference speed (its typical
/// time on the 2-CPU x86-64 host at 2.1 GHz of `README.md`'s baseline).
pub const REFERENCE_CALIBRATION_S: f64 = 0.0025;

/// One job's times in one pass, in reference-speed seconds.
#[derive(Debug, Clone, Copy)]
struct Sample {
    job_s: f64,
    run_s: f64,
}

/// Run `jobs` for about `seconds` and report the end-to-end metrics.
#[must_use]
pub fn run(jobs: &[JobSpec], seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::default();
    // The first call pays the page faults of the loop's table.
    black_box(calibrate());
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); jobs.len()];
    let mut setups = Vec::new();
    let mut first: Option<Vec<JobRecord>> = None;
    for pass in 1.. {
        let pass_start = Instant::now();
        let mut cal = calibrate();
        let mut cals = vec![cal];
        let setup_round: f64 = jobs.iter().filter_map(setup_only).sum();
        setups.push(setup_round * REFERENCE_CALIBRATION_S / cal);
        let mut pass_setup = 0.0;
        let mut records = Vec::with_capacity(jobs.len());
        for (i, spec) in jobs.iter().enumerate() {
            let rec = run_job(spec, Observe::timing(spec), None);
            let after = calibrate();
            let scale = REFERENCE_CALIBRATION_S / ((cal + after) / 2.0);
            cal = after;
            cals.push(after);
            out.attempted += 1;
            pass_setup += rec.setup_s * scale;
            samples[i].push(Sample {
                job_s: rec.job_s * scale,
                run_s: rec.run_s * scale,
            });
            let repeat = first.as_ref().map(|f| &f[i]);
            if let Some(why) = &rec.failure {
                out.failures.push(format!("{}: {why}", rec.label));
            } else if repeat.is_some_and(|f| f.failure.is_none() && !f.same_simulation(&rec)) {
                out.failures.push(format!(
                    "{}: simulated results changed between passes",
                    rec.label
                ));
            }
            records.push(rec);
        }
        setups.push(pass_setup);
        first.get_or_insert(records);
        let pass_s = pass_start.elapsed().as_secs_f64();
        let scaled: f64 = samples
            .iter()
            .filter_map(|s| s.last())
            .map(|s| s.job_s)
            .sum();
        eprintln!(
            "pass {pass}: {pass_s:.3} host s, calibration {:.3} ms, \
             jobs {scaled:.4} s at reference speed",
            median(&cals) * 1e3
        );
        if started.elapsed().as_secs_f64() + pass_s > seconds {
            break;
        }
    }
    let per_job = |f: fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .map(|s| median(&s.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let job_s = per_job(|s| s.job_s);
    let run_s: f64 = per_job(|s| s.run_s).iter().sum();
    let accesses: u64 = first
        .iter()
        .flatten()
        .map(|r| r.perf.total_accesses())
        .sum();
    out.metrics = vec![
        Metric {
            name: "wall_s",
            value: job_s.iter().sum(),
            unit: "s",
        },
        Metric {
            name: "job_max_s",
            value: job_s.iter().copied().fold(0.0, f64::max),
            unit: "s",
        },
        Metric {
            name: "accesses_per_s",
            value: ratio(accesses as f64, run_s),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
        Metric {
            name: "passed_frac",
            value: ratio(
                (out.attempted - out.failures.len() as u64) as f64,
                out.attempted as f64,
            ),
            unit: "ratio",
        },
    ];
    out
}

/// Host seconds of a fixed loop shaped like the coordinator's host
/// work: probes of an open-addressed hash table and a bounded priority
/// queue.
#[must_use]
pub fn calibrate() -> f64 {
    const SLOTS: usize = 1 << 16;
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut table = vec![(0u64, 0u64); SLOTS];
    let mut queue = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = 1 + x % 40_000;
        let mut slot = (key.wrapping_mul(0x517c_c1b7_2722_0a95) >> 48) as usize;
        while table[slot].0 != key && table[slot].0 != 0 {
            slot = (slot + 1) & (SLOTS - 1);
        }
        table[slot].0 = key;
        table[slot].1 += 1;
        acc = acc.wrapping_add(table[slot].1);
        queue.push(Reverse(i + x % 64));
        if queue.len() > 256 {
            acc = acc.wrapping_add(queue.pop().map_or(0, |r| r.0));
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
