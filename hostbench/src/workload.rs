//! The benchmark's jobs: what each workload runs, how one job's machine
//! is built, run and checked, and what a job run records.
//!
//! Every job builds a fresh [`Machine`] through the public API, so the
//! modelled caches start empty except where the job itself calls
//! `warm`. The runner times set-up (from `Machine::new` to the call of
//! `Machine::run`) apart from the run and the output check, and reads
//! `PerfMon` and `FabricStats` afterwards.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ksr_bench::check::CheckScope;
use ksr_bench::table1_cg;
use ksr_bench::table2_is;
use ksr_core::time::cycles_to_seconds;
use ksr_core::trace::{CountingSink, TraceKind, Tracer};
use ksr_core::XorShift64;
use ksr_machine::{
    program, Cpu, Machine, MachineConfig, MachineObserver, ObserverScope, Program, RunReport,
    SharedU64,
};
use ksr_mem::PerfMon;
use ksr_nas::{cg_sequential, ranks_are_valid, CgResult, CgSetup, IsSetup};
use ksr_net::{Fabric, FabricStats};
use ksr_sync::{CohortLock, HwLock, LockMode, SwRwLock};

use crate::reference;
use crate::spans::Spans;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["lock_storm", "nas_kernels", "ring_stream", "checked"];

/// The 1024-cell three-level ring tree of the scaling experiments.
const RING_1024: &[usize] = &[32, 8, 4];
/// LCK's 512-cell three-level tree. `lock_storm` runs here rather than
/// at 1024 cells: one 1024-cell pass takes ~20 s on a 2-CPU host, too
/// long to take a median of passes within one run.
const RING_512: &[usize] = &[32, 8, 2];
/// LCK's 256-cell two-level tree.
const RING_256: &[usize] = &[32, 8];

/// LCK's cycles held per critical section.
const HOLD: u64 = 1_000;
/// LCK's inter-request delay at its `high` contention level.
const DELAY_HIGH: u64 = 500;
/// LCK's cohort local-handoff budget.
const BUDGET: u64 = 8;

/// LCK, TAB1, TAB2 and LAD base machine seeds (`RunOpts::machine_seed`).
const LCK_SEED: u64 = 5600;
const TAB1_SEED: u64 = 500;
const TAB2_SEED: u64 = 600;
const LAD_SEED: u64 = 4100;

/// Processor counts of the `nas_kernels` workload (CG and IS each).
const NAS_PROCS: &[usize] = &[4, 16, 32];
/// Processor counts of one `ring_stream` sweep over the 1024-cell tree.
const STREAM_PROCS: &[usize] = &[64, 256, 1024];
/// `ring_stream` repeats its sweep over this many seeds derived from the
/// workload seed; the first is LAD's own machine seed for that argument.
const STREAM_SEEDS: u64 = 3;

/// The contenders of the lock jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lock {
    /// `get_sub_page` spinning.
    Hw,
    /// The flat FCFS ticket lock, writers only.
    Ticket,
    /// The topology-aware cohort MCS lock.
    Cohort,
}

impl Lock {
    /// LCK's label for the lock.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Lock::Hw => "hw_lock",
            Lock::Ticket => "ticket_lock",
            Lock::Cohort => "cohort_mcs",
        }
    }
}

/// What one job simulates.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// LCK's acquire/increment/release/delay loop on every cell of `spec`.
    Locks {
        /// The lock under test.
        lock: Lock,
        /// Ring-tree shape.
        spec: &'static [usize],
        /// Acquisitions per processor.
        ops: usize,
    },
    /// TAB1's full-size CG on the cache-scaled 32-cell KSR-1.
    Cg {
        /// Processors.
        procs: usize,
    },
    /// TAB2's full-size IS on the cache-scaled 32-cell KSR-1.
    Is {
        /// Processors.
        procs: usize,
    },
    /// LAD's antipodal read streams on the 1024-cell tree.
    Stream {
        /// Processors streaming.
        procs: usize,
    },
}

/// One job of a workload.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label; also the key of the reference table.
    pub label: String,
    /// What to simulate.
    pub kernel: Kernel,
    /// Machine seed.
    pub seed: u64,
    /// Run under `ksr_bench::check::CheckScope` (the `run_all --check` path).
    pub checked: bool,
}

/// The jobs of `workload` at workload seed `seed`, or `None` for an
/// unknown workload. Machine seeds follow `RunOpts::machine_seed`
/// (`base ^ seed`), so seed 0 reproduces the committed `results/*`.
#[must_use]
pub fn jobs(workload: &str, seed: u64) -> Option<Vec<JobSpec>> {
    let lock_job = |lock: Lock, spec: &'static [usize], checked: bool| {
        let cells: usize = spec.iter().product();
        JobSpec {
            label: format!("LCK {} high p={cells}", lock.label()),
            kernel: Kernel::Locks {
                lock,
                spec,
                ops: (2_048 / cells).max(2),
            },
            seed: (LCK_SEED ^ seed) + cells as u64,
            checked,
        }
    };
    let is_job = |procs: usize, checked: bool| JobSpec {
        label: format!("TAB2 is p={procs}"),
        kernel: Kernel::Is { procs },
        seed: TAB2_SEED ^ seed,
        checked,
    };
    let jobs = match workload {
        "lock_storm" => [Lock::Ticket, Lock::Hw, Lock::Cohort]
            .into_iter()
            .map(|lock| lock_job(lock, RING_512, false))
            .collect(),
        "nas_kernels" => NAS_PROCS
            .iter()
            .map(|&procs| JobSpec {
                label: format!("TAB1 cg p={procs}"),
                kernel: Kernel::Cg { procs },
                seed: TAB1_SEED ^ seed,
                checked: false,
            })
            .chain(NAS_PROCS.iter().map(|&procs| is_job(procs, false)))
            .collect(),
        "ring_stream" => (0..STREAM_SEEDS)
            .flat_map(|k| {
                let machine_seed = (LAD_SEED ^ seed).wrapping_add(k * 0x9E37_79B9);
                STREAM_PROCS.iter().map(move |&procs| JobSpec {
                    label: format!("LAD saturation p={procs}"),
                    kernel: Kernel::Stream { procs },
                    seed: machine_seed,
                    checked: false,
                })
            })
            .collect(),
        "checked" => vec![is_job(16, true), lock_job(Lock::Ticket, RING_256, true)],
        _ => return None,
    };
    Some(jobs)
}

/// Simulated outputs of one job, by the metric names of `results/*`.
pub type Outputs = Vec<(&'static str, f64)>;

type Finish = Box<dyn FnOnce(&mut Machine, &RunReport) -> Result<Outputs, String>>;

/// A built job: its machine, its programs, and the check of its outputs.
struct Prepared {
    machine: Machine,
    programs: Vec<Box<dyn Program>>,
    finish: Finish,
}

/// Build `spec`'s machine and programs (everything between
/// `Machine::new` and `Machine::run`).
fn prepare(spec: &JobSpec) -> Prepared {
    match spec.kernel {
        Kernel::Locks {
            lock,
            spec: shape,
            ops,
        } => prepare_locks(lock, shape, ops, spec.seed),
        Kernel::Cg { procs } => {
            let cfg = table1_cg::paper_config(false);
            let mut m = Machine::ksr1_scaled(spec.seed, table1_cg::SCALE).expect("machine");
            let setup = CgSetup::new(&mut m, cfg, procs).expect("CG setup");
            let programs = setup.programs();
            let finish: Finish = Box::new(move |m, r| {
                let got = setup.result(m);
                let want = cg_reference();
                if got.x_checksum.to_bits() != want.x_checksum.to_bits()
                    || got.residual_sq.to_bits() != want.residual_sq.to_bits()
                {
                    return Err(format!(
                        "CG result {got:?} differs from cg_sequential {want:?}"
                    ));
                }
                Ok(vec![(
                    "cg_run_seconds",
                    cycles_to_seconds(r.duration_cycles(), m.config().clock_hz),
                )])
            });
            Prepared {
                machine: m,
                programs,
                finish,
            }
        }
        Kernel::Is { procs } => {
            let cfg = table2_is::paper_config(false);
            let mut m = Machine::ksr1_scaled(spec.seed, table1_cg::SCALE).expect("machine");
            let setup = IsSetup::new(&mut m, cfg, procs).expect("IS setup");
            let programs = setup.programs();
            let finish: Finish = Box::new(move |m, r| {
                let keys = ksr_nas::is::generate_keys(&cfg);
                if !ranks_are_valid(&keys, &setup.ranks(m)) {
                    return Err("IS ranks are not a valid bucket-sort ranking".into());
                }
                Ok(vec![
                    (
                        "is_run_seconds",
                        cycles_to_seconds(r.duration_cycles(), m.config().clock_hz),
                    ),
                    (
                        "mean_ring_latency_cycles",
                        m.perfmon_total().mean_ring_latency(),
                    ),
                ])
            });
            Prepared {
                machine: m,
                programs,
                finish,
            }
        }
        Kernel::Stream { procs } => prepare_stream(procs, spec.seed),
    }
}

/// `cg_sequential` of the TAB1 configuration, computed once.
fn cg_reference() -> CgResult {
    static REF: OnceLock<CgResult> = OnceLock::new();
    *REF.get_or_init(|| cg_sequential(&table1_cg::paper_config(false)))
}

/// One of the contenders, allocated on a machine.
#[derive(Clone, Copy)]
enum Allocated {
    Hw(HwLock),
    Ticket(SwRwLock),
    Cohort(CohortLock),
}

impl Allocated {
    /// LCK's critical section: acquire, read the shared word, hold,
    /// write it back incremented, release.
    async fn critical_section(self, cpu: &mut Cpu, shared: u64) {
        async fn increment(cpu: &mut Cpu, shared: u64) {
            let v = cpu.read_u64(shared).await;
            cpu.compute(HOLD);
            cpu.write_u64(shared, v + 1).await;
        }
        match self {
            Allocated::Hw(l) => {
                l.acquire(cpu).await;
                increment(cpu, shared).await;
                l.release(cpu).await;
            }
            Allocated::Ticket(l) => {
                let t = l.acquire(cpu, LockMode::Write).await;
                increment(cpu, shared).await;
                l.release(cpu, t).await;
            }
            Allocated::Cohort(l) => {
                l.acquire(cpu).await;
                increment(cpu, shared).await;
                l.release(cpu).await;
            }
        }
    }
}

/// LCK's `run_workload`, split into set-up, run and check.
fn prepare_locks(lock: Lock, shape: &'static [usize], ops: usize, seed: u64) -> Prepared {
    let mut m = Machine::new(MachineConfig::ksr_ring(seed, shape)).expect("machine");
    let procs = m.config().cells;
    let shared = m.alloc_subpage(8).expect("alloc");
    let lock = match lock {
        Lock::Hw => Allocated::Hw(HwLock::alloc(&mut m).expect("alloc")),
        Lock::Ticket => Allocated::Ticket(SwRwLock::alloc(&mut m).expect("alloc")),
        Lock::Cohort => Allocated::Cohort(CohortLock::with_budget(&mut m, BUDGET).expect("alloc")),
    };
    let programs: Vec<Box<dyn Program>> = (0..procs)
        .map(|_| {
            program(move |mut cpu| async move {
                for _ in 0..ops {
                    lock.critical_section(&mut cpu, shared).await;
                    cpu.compute(DELAY_HIGH);
                }
            })
        })
        .collect();
    let finish: Finish = Box::new(move |m, r| {
        let total = (procs * ops) as u64;
        let counter = m.peek_u64(shared).map_err(|e| e.to_string())?;
        if counter != total {
            return Err(format!(
                "lock counter {counter}, want procs x ops = {total}"
            ));
        }
        let secs = cycles_to_seconds(r.duration_cycles(), m.config().clock_hz);
        Ok(vec![
            ("time_per_acquire_us", secs * 1e6 / total as f64),
            (
                "rmr_per_acquire",
                m.perfmon_total().remote_references as f64 / total as f64,
            ),
        ])
    });
    Prepared {
        machine: m,
        programs,
        finish,
    }
}

/// LAD's `saturation_point`, with the streamed arrays filled with
/// seed-derived values the programs sum on the host side (the sum costs
/// no simulated time), so the data plane's answers can be checked.
fn prepare_stream(procs: usize, seed: u64) -> Prepared {
    const LEN: u64 = 16 * 1024;
    const SAMPLES: u64 = 96;
    let mut m = Machine::new(MachineConfig::ksr_ring(seed, RING_1024)).expect("machine");
    let cells = m.config().cells;
    let arrays: Vec<u64> = (0..procs)
        .map(|_| m.alloc(LEN, 16384).expect("alloc"))
        .collect();
    let mut rng = XorShift64::new(seed);
    let mut want = 0u64;
    for (p, &a) in arrays.iter().enumerate() {
        m.warm((p + cells / 2) % cells, a, LEN);
        for i in 0..SAMPLES {
            let v = rng.next_below(1 << 32);
            m.poke_u64(a + (i * 128) % LEN, v).expect("poke");
            want = want.wrapping_add(v);
        }
    }
    let out = SharedU64::alloc(&mut m, procs).expect("alloc");
    let sum = Rc::new(Cell::new(0u64));
    let programs: Vec<Box<dyn Program>> = arrays
        .iter()
        .enumerate()
        .map(|(p, &a)| {
            let sum = Rc::clone(&sum);
            program(move |mut cpu| async move {
                let t0 = cpu.now();
                for i in 0..SAMPLES {
                    let v = cpu.read_u64(a + (i * 128) % LEN).await;
                    sum.set(sum.get().wrapping_add(v));
                }
                let mean = (cpu.now() - t0) / SAMPLES;
                out.set(&mut cpu, p, mean).await;
            })
        })
        .collect();
    let finish: Finish = Box::new(move |m, _| {
        if sum.get() != want {
            return Err(format!("streams read sum {}, want {want}", sum.get()));
        }
        let lat = (0..procs).map(|p| out.peek(m, p) as f64).sum::<f64>() / procs as f64;
        let s = m.fabric_stats();
        let wait = if s.packets == 0 {
            0.0
        } else {
            s.wait_cycles as f64 / s.packets as f64
        };
        Ok(vec![
            ("saturated_read_cycles", lat),
            ("slot_wait_per_packet", wait),
        ])
    });
    Prepared {
        machine: m,
        programs,
        finish,
    }
}

/// How a job run is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// No tracer attached.
    Bare,
    /// `ksr_bench::check::CheckScope` attached, as `run_all --check` does.
    Check,
    /// `Tracer::counting()` attached through an `ObserverScope`.
    Counting,
}

impl Observe {
    /// How the timing runs observe `spec`: checked jobs under their
    /// `CheckScope`, every other job bare.
    #[must_use]
    pub fn timing(spec: &JobSpec) -> Self {
        if spec.checked {
            Observe::Check
        } else {
            Observe::Bare
        }
    }
}

/// What one job run recorded.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// The job's label.
    pub label: String,
    /// Why the job failed (panic, failed check, reference mismatch,
    /// verification violations); `None` when it passed.
    pub failure: Option<String>,
    /// Host seconds from `Machine::new` to `Machine::run`.
    pub setup_s: f64,
    /// Host seconds inside `Machine::run`.
    pub run_s: f64,
    /// Host seconds draining the `CheckScope` (checked jobs only).
    pub drain_s: f64,
    /// Host seconds of the whole job.
    pub job_s: f64,
    /// Simulated makespan.
    pub cycles: u64,
    /// Machine-wide performance-monitor totals after the run.
    pub perf: PerfMon,
    /// Interconnect totals after the run.
    pub fabric: FabricStats,
    /// Packets per ring level, leaf level first.
    pub level_packets: Vec<u64>,
    /// Events the counting tracer saw, by kind (counting runs only).
    pub trace: Option<CountingSink>,
    /// Events the coherence checker saw (checked jobs only).
    pub check_events: u64,
    /// Simulated outputs, compared with the reference table at the
    /// reference seeds.
    pub outputs: Outputs,
}

impl JobRecord {
    /// Events of one kind the counting tracer saw (0 when untraced).
    #[must_use]
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.trace.map_or(0, |t| t.count(kind))
    }

    /// Whether the simulated results of two runs of the same job are
    /// identical: cycles, `PerfMon` totals, `FabricStats`, and outputs.
    #[must_use]
    pub fn same_simulation(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.perf == other.perf
            && self.fabric == other.fabric
            && self.level_packets == other.level_packets
            && self.outputs.len() == other.outputs.len()
            && self
                .outputs
                .iter()
                .zip(&other.outputs)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

/// The installed per-job observer.
enum Scope {
    Bare,
    Check(CheckScope),
    Counting(ObserverScope, Arc<Mutex<Option<Arc<Mutex<CountingSink>>>>>),
}

impl Scope {
    fn install(observe: Observe) -> Self {
        match observe {
            Observe::Bare => Scope::Bare,
            Observe::Check => Scope::Check(CheckScope::install()),
            Observe::Counting => {
                let slot: Arc<Mutex<Option<Arc<Mutex<CountingSink>>>>> = Arc::default();
                let store = Arc::clone(&slot);
                let observer: Arc<MachineObserver> = Arc::new(move |m: &mut Machine| {
                    let (tracer, sink) = Tracer::counting();
                    m.set_tracer(tracer);
                    *store.lock().expect("counting slot poisoned") = Some(sink);
                });
                Scope::Counting(ObserverScope::install(observer), slot)
            }
        }
    }
}

/// Run one job: set up, run, drain any checker, check the outputs.
/// A panic or a failed check marks the job failed; it never aborts the
/// caller. `spans`, when given, receives the job's spans.
pub fn run_job(spec: &JobSpec, observe: Observe, mut spans: Option<&mut Spans>) -> JobRecord {
    let mut rec = JobRecord {
        label: spec.label.clone(),
        ..JobRecord::default()
    };
    let job_span = spans
        .as_deref_mut()
        .map(|s| s.open("job", &spec.label, None));
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_phases(spec, observe, &mut rec, spans.as_deref_mut(), job_span)
    }));
    rec.job_s = started.elapsed().as_secs_f64();
    if let (Some(s), Some(id)) = (spans, job_span) {
        s.close(id);
    }
    rec.failure = match result {
        Ok(Ok(())) => None,
        Ok(Err(why)) => Some(why),
        Err(panic) => Some(format!("panicked: {}", panic_message(&*panic))),
    };
    rec
}

fn run_phases(
    spec: &JobSpec,
    observe: Observe,
    rec: &mut JobRecord,
    mut spans: Option<&mut Spans>,
    parent: Option<usize>,
) -> Result<(), String> {
    let scope = Scope::install(observe);

    let id = open(&mut spans, "setup", &spec.label, parent);
    let t = Instant::now();
    let Prepared {
        mut machine,
        programs,
        finish,
    } = prepare(spec);
    rec.setup_s = t.elapsed().as_secs_f64();
    close(&mut spans, id);

    let id = open(&mut spans, "run", &spec.label, parent);
    let t = Instant::now();
    let report = machine.run(programs).map_err(|e| e.to_string())?;
    rec.run_s = t.elapsed().as_secs_f64();
    close(&mut spans, id);

    let mut violations = 0;
    match scope {
        Scope::Check(check) => {
            let id = open(&mut spans, "drain", &spec.label, parent);
            let t = Instant::now();
            let found = check.drain();
            rec.drain_s = t.elapsed().as_secs_f64();
            close(&mut spans, id);
            rec.check_events = found.events;
            violations = found.total_violations();
        }
        Scope::Counting(_scope, slot) => {
            let sink = slot.lock().expect("counting slot poisoned").take();
            rec.trace = sink.map(|s| *s.lock().expect("counting sink poisoned"));
        }
        Scope::Bare => {}
    }

    let id = open(&mut spans, "check", &spec.label, parent);
    rec.cycles = report.duration_cycles();
    rec.perf = machine.perfmon_total();
    rec.fabric = machine.fabric_stats();
    rec.level_packets = match machine.mem().fabric() {
        Fabric::Ring(h) => (0..=h.config().levels.len())
            .map(|l| h.level_stats(l).packets)
            .collect(),
        _ => Vec::new(),
    };
    let checked = finish(&mut machine, &report).and_then(|outputs| {
        rec.outputs = outputs;
        reference::check(&spec.label, spec.seed, &rec.outputs)
    });
    close(&mut spans, id);
    checked?;
    if violations > 0 {
        return Err(format!("{violations} verification violation(s)"));
    }
    Ok(())
}

fn open(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    job: &str,
    parent: Option<usize>,
) -> Option<usize> {
    spans.as_deref_mut().map(|s| s.open(name, job, parent))
}

fn close(spans: &mut Option<&mut Spans>, id: Option<usize>) {
    if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
        s.close(id);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Set up `spec`'s machine and programs without running them; returns
/// the host seconds it took, or `None` if set-up panicked (the job's
/// own run then records the failure). Used to measure set-up several
/// times per run.
#[must_use]
pub fn setup_only(spec: &JobSpec) -> Option<f64> {
    catch_unwind(AssertUnwindSafe(|| {
        let _scope = Scope::install(Observe::timing(spec));
        let t = Instant::now();
        let prepared = prepare(spec);
        let secs = t.elapsed().as_secs_f64();
        drop(prepared);
        secs
    }))
    .ok()
}
