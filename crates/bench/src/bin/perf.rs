//! Times simulator microworkloads (host wall clock, not simulated
//! time) and writes `bench.json` into the results directory. Flags:
//! `--reps N` (default 3), `--results DIR` (default `results`),
//! `--gate BASELINE`. See `ksr_bench::perf` and the perf section of
//! `EXPERIMENTS.md`.
use std::process::ExitCode;

fn main() -> ExitCode {
    ksr_bench::perf::perf_main()
}
