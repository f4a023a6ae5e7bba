//! Pure jobs, canonical job descriptors, and the parallel experiment
//! executor.
//!
//! One experiment = `ExperimentPlan::new(jobs, reduce)`: a list of pure
//! [`Job`]s plus an ordered reduce that turns the per-job rows back into
//! the experiment's [`ExperimentOutput`]. Construction, execution, and
//! reduction are strictly separated — no experiment prints or writes
//! mid-run.
//!
//! A job is `Job::new(desc, run)`, where `run` builds its own machines
//! and returns typed [`MetricRow`]s, or `Job::value(desc, metric, unit,
//! f)` when it measures one number. `desc` is a [`JobDesc`]: the
//! canonical statement of *what* the job computes (experiment id,
//! schema version, label, mode flags, seed, config parameters), with a
//! stable fingerprint that names the job uniquely across the registry.
//!
//! [`execute`] schedules every job of every plan over a pool of
//! `opts.jobs` scoped worker threads. Determinism is structural, not
//! accidental:
//!
//! * each job builds its own [`Machine`](ksr_machine::Machine)s from an
//!   explicit seed, and the simulator is deterministic per
//!   (config, seed) regardless of host scheduling;
//! * job results land in pre-assigned slots, so the reduce always sees
//!   them in job order no matter which worker finished first;
//! * reduces run on the caller's thread in plan order.
//!
//! Hence `results/*.json` and `summary.json` are byte-identical at any
//! `-j`. Wall-clock timings (the only nondeterministic signal) are kept
//! out of result files and reported separately via
//! [`ExperimentResult::seconds`].

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use ksr_core::{fingerprint, Fingerprint, Json, Progress};

use crate::check::{CheckScope, ExpCheck};
use crate::common::{ExperimentOutput, MetricRow, RunOpts};

/// The canonical descriptor of one pure job — the inputs its closure's
/// result depends on (no wall-clock, no worker count, no host details).
/// It names a job, not a version of the simulator: the same descriptor
/// built from different code may compute different rows.
///
/// Planners must route every input the closure captures through the
/// descriptor: the seed via [`JobDesc::seed`], each config knob (procs,
/// topology spec, sweep point, episode count, ...) via
/// [`JobDesc::param`]. The `quick`/`check` flags and the per-experiment
/// schema version come from construction, so the quick and full grids,
/// checked runs, and workload redefinitions each get distinct
/// descriptors.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDesc {
    experiment: &'static str,
    schema: u32,
    label: String,
    quick: bool,
    check: bool,
    seed: u64,
    params: Vec<(String, Json)>,
}

impl JobDesc {
    /// Start a descriptor for one job of `experiment`.
    ///
    /// `schema` is the experiment's schema version: bump it whenever the
    /// meaning of the job's output changes (new workload shape, fixed
    /// model, different row layout).
    #[must_use]
    pub fn new(
        experiment: &'static str,
        schema: u32,
        label: impl Into<String>,
        opts: &RunOpts,
    ) -> Self {
        Self {
            experiment,
            schema,
            label: label.into(),
            quick: opts.quick,
            check: opts.check,
            seed: 0,
            params: Vec::new(),
        }
    }

    /// Set the machine seed the job builds from (after
    /// [`RunOpts::machine_seed`] perturbation).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Append one config parameter (insertion order is part of the
    /// canonical form, so keep call sites stable).
    #[must_use]
    pub fn param(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.params.push((key.to_string(), value.into()));
        self
    }

    /// The experiment this job belongs to.
    #[must_use]
    pub fn experiment(&self) -> &'static str {
        self.experiment
    }

    /// Human-readable label (shown in progress lines).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The canonical serialized form: compact JSON with fields in fixed
    /// order. This exact string is hashed for the fingerprint, so any
    /// change to it renames every job (deliberately).
    #[must_use]
    pub fn canonical(&self) -> String {
        Json::obj([
            ("experiment", Json::from(self.experiment)),
            ("schema", Json::from(u64::from(self.schema))),
            ("label", Json::from(self.label.as_str())),
            ("quick", Json::from(self.quick)),
            ("check", Json::from(self.check)),
            ("seed", Json::from(self.seed)),
            ("params", Json::Obj(self.params.clone())),
        ])
        .render()
    }

    /// The job's stable name: the fingerprint of [`JobDesc::canonical`].
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint(self.canonical().as_bytes())
    }
}

/// One pure unit of work: a closure over config + seeds that builds its
/// own machines and returns typed rows, plus the [`JobDesc`] stating
/// exactly which (config, seed) point it is. No printing, no file I/O,
/// no shared state — which is what makes the grid schedulable in any
/// order on any number of workers.
pub struct Job {
    desc: JobDesc,
    run: Box<dyn FnOnce() -> Vec<MetricRow> + Send>,
}

impl Job {
    /// A job returning arbitrarily many rows.
    pub fn new(desc: JobDesc, run: impl FnOnce() -> Vec<MetricRow> + Send + 'static) -> Self {
        Self {
            desc,
            run: Box::new(run),
        }
    }

    /// The common single-measurement job: one `f64` becomes one row of
    /// `metric` (the reduce re-derives the fully parameterized rows).
    pub fn value(
        desc: JobDesc,
        metric: &str,
        unit: &str,
        f: impl FnOnce() -> f64 + Send + 'static,
    ) -> Self {
        let (metric, unit) = (metric.to_string(), unit.to_string());
        Self::new(desc, move || vec![MetricRow::new(&metric, &[], f(), &unit)])
    }

    /// The job's canonical descriptor.
    #[must_use]
    pub fn desc(&self) -> &JobDesc {
        &self.desc
    }

    /// Human-readable label (shown in progress lines).
    #[must_use]
    pub fn label(&self) -> &str {
        self.desc.label()
    }

    /// Run the job to completion on the current thread.
    #[must_use]
    pub fn execute(self) -> Vec<MetricRow> {
        (self.run)()
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("desc", &self.desc)
            .finish_non_exhaustive()
    }
}

/// Per-job row lists, in job order — what an [`ExperimentPlan`]'s
/// reduce receives.
#[derive(Debug)]
pub struct JobResults {
    rows: Vec<Vec<MetricRow>>,
}

impl JobResults {
    /// Results for `jobs.len()` jobs, in job order.
    #[must_use]
    pub fn new(rows: Vec<Vec<MetricRow>>) -> Self {
        Self { rows }
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the plan had no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows of job `i`.
    #[must_use]
    pub fn rows(&self, i: usize) -> &[MetricRow] {
        &self.rows[i]
    }

    /// The single value of job `i` (for [`Job::value`] jobs).
    #[must_use]
    pub fn value(&self, i: usize) -> f64 {
        self.rows[i][0].value
    }
}

/// The reduce: per-job rows (in job order) → the experiment's output.
pub type Reduce = Box<dyn FnOnce(JobResults) -> ExperimentOutput + Send>;

/// One experiment as pure data: its jobs and the ordered reduce.
pub struct ExperimentPlan {
    jobs: Vec<Job>,
    reduce: Reduce,
}

impl ExperimentPlan {
    /// Assemble a plan.
    pub fn new(
        jobs: Vec<Job>,
        reduce: impl FnOnce(JobResults) -> ExperimentOutput + Send + 'static,
    ) -> Self {
        Self {
            jobs,
            reduce: Box::new(reduce),
        }
    }

    /// The jobs, for inspection.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Run every job on the current thread, in order, then reduce —
    /// byte-identical to what the executor produces at any `-j`.
    #[must_use]
    pub fn run_serial(self) -> ExperimentOutput {
        let rows = self.jobs.into_iter().map(Job::execute).collect();
        (self.reduce)(JobResults::new(rows))
    }
}

impl std::fmt::Debug for ExperimentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentPlan")
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

/// One executed experiment: its output plus execution metadata that
/// deliberately stays out of the byte-compared result files.
#[derive(Debug)]
pub struct ExperimentResult {
    /// The reduced output (identical to `plan.run_serial()`).
    pub output: ExperimentOutput,
    /// Summed wall-clock seconds of the experiment's jobs (for
    /// `timings.json`; nondeterministic by nature).
    pub seconds: f64,
    /// Aggregated coherence-checking results, merged in job order —
    /// `Some` exactly when `opts.check` was set.
    pub check: Option<ExpCheck>,
}

struct QueueItem {
    plan: usize,
    job: usize,
    index: usize,
    item: Job,
}

struct JobSlot {
    rows: Vec<MetricRow>,
    check: Option<ExpCheck>,
    seconds: f64,
}

/// Run one job, wrapped in a check scope when requested. Returns the
/// filled slot.
fn run_job(item: Job, check: bool) -> JobSlot {
    let started = Instant::now();
    let (rows, job_check) = if check {
        let scope = CheckScope::install();
        let rows = item.execute();
        (rows, Some(scope.drain()))
    } else {
        (item.execute(), None)
    };
    JobSlot {
        rows,
        check: job_check,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// Execute every job of every plan over `opts.jobs` workers, then reduce
/// each plan in plan order. Returns one [`ExperimentResult`] per plan,
/// in plan order. Progress (start/finish per job) goes through
/// `progress`; nothing here touches stdout or the filesystem.
#[must_use]
pub fn execute(
    plans: Vec<ExperimentPlan>,
    opts: &RunOpts,
    progress: &Progress,
) -> Vec<ExperimentResult> {
    let total: usize = plans.iter().map(|p| p.jobs.len()).sum();

    // Split every plan into its queue items and its reduce.
    let mut reduces = Vec::with_capacity(plans.len());
    let mut queue = VecDeque::with_capacity(total);
    let mut slots: Vec<Vec<Option<JobSlot>>> = Vec::with_capacity(plans.len());
    for (pi, plan) in plans.into_iter().enumerate() {
        slots.push((0..plan.jobs.len()).map(|_| None).collect());
        for (ji, item) in plan.jobs.into_iter().enumerate() {
            queue.push_back(QueueItem {
                plan: pi,
                job: ji,
                index: queue.len() + 1,
                item,
            });
        }
        reduces.push(plan.reduce);
    }
    let workers = opts.jobs.max(1).min(total.max(1));

    let queue = Mutex::new(queue);
    let slots = Mutex::new(slots);
    let check = opts.check;
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some(next) = queue.lock().expect("job queue poisoned").pop_front() else {
                    break;
                };
                let label = next.item.label().to_string();
                progress.started(&label, next.index, total);
                let slot = run_job(next.item, check);
                progress.finished(&label, next.index, total, (slot.seconds * 1000.0) as u64);
                slots.lock().expect("result slots poisoned")[next.plan][next.job] = Some(slot);
            });
        }
    });

    let slots = slots.into_inner().expect("result slots poisoned");
    reduces
        .into_iter()
        .zip(slots)
        .map(|(reduce, plan_slots)| {
            let mut rows = Vec::with_capacity(plan_slots.len());
            let mut seconds = 0.0;
            let mut merged: Option<ExpCheck> = if check {
                Some(ExpCheck::default())
            } else {
                None
            };
            for slot in plan_slots {
                let slot = slot.expect("executor finished with an unfilled job slot");
                rows.push(slot.rows);
                seconds += slot.seconds;
                if let (Some(acc), Some(jc)) = (merged.as_mut(), slot.check) {
                    acc.merge(jc);
                }
            }
            ExperimentResult {
                output: reduce(JobResults::new(rows)),
                seconds,
                check: merged,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_desc(id: &'static str, label: String, v: f64) -> JobDesc {
        JobDesc::new(id, 1, label, &RunOpts::default())
            .seed(7)
            .param("v", v)
    }

    fn toy_plan(id: &'static str, values: &[f64]) -> ExperimentPlan {
        let jobs = values
            .iter()
            .map(|&v| Job::value(toy_desc(id, format!("{id} v={v}"), v), "m", "s", move || v))
            .collect();
        let n = values.len();
        ExperimentPlan::new(jobs, move |res| {
            let mut out = ExperimentOutput::new(id, "toy");
            assert_eq!(res.len(), n);
            for i in 0..res.len() {
                out.line(format_args!("v[{i}] = {}", res.value(i)));
            }
            out
        })
    }

    #[test]
    fn serial_and_parallel_agree_in_job_order() {
        let serial = toy_plan("T", &[3.0, 1.0, 2.0]).run_serial();
        for jobs in [1, 2, 8] {
            let opts = RunOpts {
                jobs,
                ..RunOpts::default()
            };
            let results = execute(
                vec![toy_plan("T", &[3.0, 1.0, 2.0])],
                &opts,
                &Progress::disabled(),
            );
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].output.text, serial.text, "jobs={jobs}");
            assert!(results[0].check.is_none());
        }
    }

    #[test]
    fn many_plans_reduce_in_plan_order() {
        let opts = RunOpts {
            jobs: 4,
            ..RunOpts::default()
        };
        let plans = vec![toy_plan("A", &[1.0]), toy_plan("B", &[2.0, 4.0])];
        let results = execute(plans, &opts, &Progress::disabled());
        assert_eq!(results[0].output.id, "A");
        assert_eq!(results[1].output.id, "B");
        assert!(results[1].output.text.contains("v[1] = 4"));
        assert!(results.iter().all(|r| r.seconds >= 0.0));
    }

    #[test]
    fn empty_plan_still_reduces() {
        let results = execute(
            vec![toy_plan("E", &[])],
            &RunOpts::default(),
            &Progress::disabled(),
        );
        assert_eq!(results[0].output.id, "E");
    }

    #[test]
    fn progress_reports_every_job() {
        let (progress, rx) = Progress::channel();
        let opts = RunOpts {
            jobs: 2,
            ..RunOpts::default()
        };
        let _ = execute(vec![toy_plan("P", &[1.0, 2.0, 3.0])], &opts, &progress);
        drop(progress);
        let events: Vec<_> = rx.into_iter().collect();
        // One Started and one Finished per job.
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn descriptor_fingerprints_separate_every_axis() {
        let base = || toy_desc("T", "x".to_string(), 1.0);
        let fp = base().fingerprint();
        assert_eq!(fp, base().fingerprint(), "fingerprints are deterministic");
        assert_ne!(fp, base().seed(8).fingerprint(), "seed must key");
        assert_ne!(
            fp,
            base().param("extra", 1u64).fingerprint(),
            "params must key"
        );
        assert_ne!(
            fp,
            JobDesc::new("T", 2, "x", &RunOpts::default())
                .seed(7)
                .param("v", 1.0)
                .fingerprint(),
            "schema_version must key"
        );
        assert_ne!(
            fp,
            JobDesc::new("T", 1, "x", &RunOpts::quick())
                .seed(7)
                .param("v", 1.0)
                .fingerprint(),
            "quick must key"
        );
        assert_ne!(
            fp,
            toy_desc("U", "x".to_string(), 1.0).fingerprint(),
            "experiment id must key"
        );
        assert_ne!(
            fp,
            toy_desc("T", "y".to_string(), 1.0).fingerprint(),
            "label must key"
        );
    }

    #[test]
    fn canonical_form_is_stable() {
        // The canonical rendering is hashed into every job's
        // fingerprint; changes must be deliberate.
        let desc = JobDesc::new("FIG4", 3, "fig4 p=8", &RunOpts::quick())
            .seed(1000)
            .param("procs", 8usize)
            .param("kind", "tree");
        assert_eq!(
            desc.canonical(),
            r#"{"experiment":"FIG4","schema":3,"label":"fig4 p=8","quick":true,"check":false,"seed":1000,"params":{"procs":8,"kind":"tree"}}"#
        );
    }

    #[test]
    fn check_mode_merges_a_check_per_plan() {
        let opts = RunOpts {
            check: true,
            ..RunOpts::default()
        };
        let results = execute(vec![toy_plan("K", &[1.0])], &opts, &Progress::disabled());
        assert!(results[0].check.is_some());
    }
}
