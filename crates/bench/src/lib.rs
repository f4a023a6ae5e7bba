//! # ksr-bench
//!
//! The experiment harness: one module per table/figure of *"Scalability
//! Study of the KSR-1"*, each regenerating the same rows or curves the
//! paper reports (see the per-experiment index in `DESIGN.md`).
//!
//! Experiments are [`registry::Experiment`]s: look them up in
//! [`registry::REGISTRY`]; the registry entry carries the id and title.
//! Each experiment describes itself as an
//! `ExperimentPlan::new(jobs, reduce)` ([`exec::ExperimentPlan`]): a
//! list of pure [`exec::Job`]s plus an ordered reduce. A job is
//! `Job::new(desc, run)`, a closure returning typed [`MetricRow`]s, or
//! `Job::value(desc, metric, unit, f)` for the common one-number case;
//! `desc` is its canonical [`exec::JobDesc`], whose fingerprint names it
//! uniquely across the registry. [`exec::execute`] schedules the jobs of
//! many plans over a pool of worker threads (`--jobs N`). Because every
//! job is pure and the reduce runs in job order, `results/*.json` and
//! `summary.json` are byte-identical at any worker count.
//!
//! Jobs reach the simulator through one driver per workload shape:
//! [`fig4_barriers::episode_seconds`] times barrier episodes,
//! [`lad_latency::read_stream`] times remote-read streams,
//! [`lck_locks::run_workload`] runs the LCK lock loop, and
//! [`table1_cg::cg_time`] times CG.
//!
//! Each reduce returns an [`ExperimentOutput`] carrying rendered text,
//! figure series, and typed [`MetricRow`]s; `write_to` persists
//! `<id>.txt` / `<id>.csv` / `<id>.json`, and [`common::write_summary`]
//! indexes a whole run in `summary.json`. The `run_all` binary is the
//! one CLI front end (`--list`, `--only FIG4,TAB1`, `--quick`, `--jobs`),
//! and its flags are the only way to set [`RunOpts`].

#![warn(missing_docs)]

pub mod ablations;
pub mod check;
pub mod cli;
pub mod cmb_combining;
pub mod common;
pub mod ep_scaling;
pub mod exec;
pub mod explore_exp;
pub mod ext_wishlist;
pub mod fig2_latency;
pub mod fig3_locks;
pub mod fig4_barriers;
pub mod fig8_speedup;
#[cfg(test)]
mod golden;
pub mod lad_latency;
pub mod lck_locks;
pub mod perf;
pub mod registry;
pub mod scb_scaling;
pub mod table1_cg;
pub mod table2_is;
pub mod table3_sp;

pub use common::{ExperimentOutput, MetricRow, RunOpts};
pub use exec::{execute, ExperimentPlan, ExperimentResult, Job, JobDesc, JobResults};
pub use registry::{Experiment, REGISTRY};
