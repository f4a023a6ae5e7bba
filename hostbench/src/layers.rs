//! The layer run (`--trace 1`): per-layer metrics, separate from the
//! timing runs.
//!
//! Every job runs bare, then again with `Tracer::counting()` attached
//! through an `ObserverScope`; checked jobs run a third time under
//! their `CheckScope`. The observed runs must reproduce the bare run's
//! cycles, `PerfMon` totals and `FabricStats` exactly (observation
//! neutrality); any difference is a failure. Spans around each layer
//! call stay in memory and go to standard error at the end. Layer
//! microbenchmarks then time single public entry points of `net`,
//! `mem` and `verify`.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ksr_core::trace::{TraceEvent, TraceKind, TraceSink, Tracer};
use ksr_core::Json;
use ksr_machine::{MachineConfig, MachineObserver, ObserverScope};
use ksr_mem::{MemOp, MemorySystem};
use ksr_net::{PacketKind, RingHierarchy, RingHierarchyConfig, Transit};
use ksr_verify::{CollectingSink, PredictiveSink};

use crate::spans::Spans;
use crate::workload::{run_job, JobRecord, JobSpec, Observe};
use crate::{median, ratio, Metric, Outcome};

/// The 1024-cell tree the microbenchmarks use.
const RING_1024: &[usize] = &[32, 8, 4];
/// Timed repetitions of each microbenchmark; the median is reported.
const REPS: usize = 5;

/// Run the layer pass over `jobs`. Returns the outcome and the spans
/// document.
#[must_use]
pub fn run(jobs: &[JobSpec]) -> (Outcome, Json) {
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    // Each job's observed runs follow its bare run directly, so host
    // speed drifts as little as possible between the runs compared.
    let (mut bare, mut counted, mut checked) = (Vec::new(), Vec::new(), Vec::new());
    for spec in jobs {
        bare.push(record(spec, Observe::Bare, &mut spans, &mut out));
        counted.push(record(spec, Observe::Counting, &mut spans, &mut out));
        if spec.checked {
            checked.push(record(spec, Observe::Check, &mut spans, &mut out));
        }
    }
    for observed in counted.iter().chain(&checked) {
        let Some(base) = bare.iter().find(|b| b.label == observed.label) else {
            continue;
        };
        if base.failure.is_none() && observed.failure.is_none() && !base.same_simulation(observed) {
            out.failures.push(format!(
                "{}: observation changed the simulation",
                observed.label
            ));
        }
    }

    let sum = |recs: &[JobRecord], f: &dyn Fn(&JobRecord) -> f64| {
        recs.iter().map(f).fold(0.0, |a, b| a + b)
    };
    let perf = |f: fn(&ksr_mem::PerfMon) -> u64| sum(&bare, &|r| f(&r.perf) as f64);
    let count = |k: TraceKind| sum(&counted, &|r| r.count(k) as f64);
    let level = |l: usize| {
        sum(&bare, &|r| {
            r.level_packets.get(l).copied().unwrap_or(0) as f64
        })
    };

    let run_s = sum(&bare, &|r| r.run_s);
    let accesses = perf(|p| p.total_accesses());
    let acquires = count(TraceKind::SyncAcquire);
    let wakes = count(TraceKind::LockHandoff);
    let rmr = perf(|p| p.remote_references);
    let packets = sum(&bare, &|r| r.fabric.packets as f64);
    let check_events = sum(&checked, &|r| r.check_events as f64);

    let mut micro = Micro {
        out: &mut out,
        spans: &mut spans,
    };
    let hit = micro.time("mem.access_ns.hit", access_hit);
    let ring_read = micro.time("mem.access_ns.ring_read", access_ring_read);
    let invalidate = micro.time("mem.access_ns.invalidate_1024", access_invalidate);
    let leaf = micro.time("net.transact_ns.leaf", || transact(false));
    let top = micro.time("net.transact_ns.top", || transact(true));
    let replay = match jobs.iter().find(|s| s.checked) {
        Some(spec) => {
            let events = collect_events(spec);
            micro.time("verify.ns_per_event", || {
                replay_events(events.as_deref().map_err(Clone::clone)?)
            })
        }
        None => 0.0,
    };

    let m = |name, value, unit| Metric { name, value, unit };
    out.metrics = vec![
        m("machine.run_s", run_s, "s"),
        m("machine.ns_per_access", ratio(run_s * 1e9, accesses), "ns"),
        m("machine.wakes", wakes, "count"),
        m("machine.spin_reads", count(TraceKind::SpinRead), "count"),
        m("mem.accesses", accesses, "count"),
        m(
            "mem.subcache_miss_ratio",
            ratio(perf(|p| p.subcache_misses), accesses),
            "ratio",
        ),
        m(
            "mem.localcache_misses",
            perf(|p| p.localcache_misses),
            "count",
        ),
        m(
            "mem.invalidations",
            perf(|p| p.invalidations_received),
            "count",
        ),
        m(
            "mem.coherence_transitions",
            count(TraceKind::Coherence),
            "count",
        ),
        m("mem.snarfs", perf(|p| p.snarfs), "count"),
        m(
            "mem.atomic_rejections",
            perf(|p| p.atomic_rejections),
            "count",
        ),
        m(
            "mem.page_allocations",
            perf(|p| p.page_allocations),
            "count",
        ),
        m("mem.access_ns.hit", hit, "ns"),
        m("mem.access_ns.ring_read", ring_read, "ns"),
        m("mem.access_ns.invalidate_1024", invalidate, "ns"),
        m("net.packets", packets, "count"),
        m(
            "net.wait_cycles_per_packet",
            ratio(sum(&bare, &|r| r.fabric.wait_cycles as f64), packets),
            "cycles",
        ),
        m("net.remote_references", rmr, "count"),
        m("net.level0.packets", level(0), "count"),
        m("net.level1.packets", level(1), "count"),
        m("net.level2.packets", level(2), "count"),
        m("net.transact_ns.leaf", leaf, "ns"),
        m("net.transact_ns.top", top, "ns"),
        m("sync.acquires", acquires, "count"),
        m("sync.rmr_per_acquire", ratio(rmr, acquires), "ratio"),
        m("sync.wakes_per_acquire", ratio(wakes, acquires), "ratio"),
        m(
            "trace.events",
            sum(&counted, &|r| r.trace.map_or(0, |t| t.total()) as f64),
            "count",
        ),
        m(
            "trace.overhead_ratio",
            ratio(sum(&counted, &|r| r.run_s), run_s),
            "ratio",
        ),
        m("verify.events", check_events, "count"),
        m("verify.drain_s", sum(&checked, &|r| r.drain_s), "s"),
        m("verify.ns_per_event", replay, "ns"),
    ];
    let self_s = Json::obj(
        ["job", "setup", "run", "drain", "check"].map(|n| (n, Json::from(spans.self_seconds(n)))),
    );
    let doc = Json::obj([("self_s", self_s), ("spans", spans.to_json())]);
    (out, doc)
}

/// Run one job observed as `observe`, counting it in `out`.
fn record(spec: &JobSpec, observe: Observe, spans: &mut Spans, out: &mut Outcome) -> JobRecord {
    let rec = run_job(spec, observe, Some(spans));
    out.attempted += 1;
    if let Some(why) = &rec.failure {
        out.failures
            .push(format!("{} ({observe:?}): {why}", rec.label));
    }
    rec
}

/// Runs microbenchmarks: each returns nanoseconds per operation or a
/// failed check; a failure counts and reports 0.
struct Micro<'a> {
    out: &'a mut Outcome,
    spans: &'a mut Spans,
}

impl Micro<'_> {
    fn time(&mut self, name: &'static str, bench: impl Fn() -> Result<f64, String>) -> f64 {
        let id = self.spans.open(name, name, None);
        let mut samples = Vec::with_capacity(REPS);
        self.out.attempted += 1;
        for _ in 0..REPS {
            match bench() {
                Ok(ns) => samples.push(ns),
                Err(why) => {
                    self.out.failures.push(format!("{name}: {why}"));
                    break;
                }
            }
        }
        self.spans.close(id);
        if samples.len() == REPS {
            median(&samples)
        } else {
            0.0
        }
    }
}

/// A bare 1024-cell memory system, built the way `Machine::new` builds
/// one.
fn memory_1024() -> Result<MemorySystem, String> {
    let cfg = MachineConfig::ksr_ring(1, RING_1024);
    let fabric = cfg.build_fabric().map_err(|e| e.to_string())?;
    MemorySystem::with_options(
        cfg.geometry,
        cfg.timing,
        fabric,
        cfg.cells,
        cfg.seed,
        cfg.protocol,
    )
    .map_err(|e| e.to_string())
}

/// Serialised access at the issuing cell's current time; returns the
/// completion time.
fn access(
    mem: &mut MemorySystem,
    cell: usize,
    addr: u64,
    op: MemOp,
    now: u64,
) -> Result<u64, String> {
    mem.access(cell, addr, op, now)
        .try_done_at()
        .map_err(|e| e.to_string())
}

/// `MemorySystem::access`: sub-cache hits by one cell.
fn access_hit() -> Result<f64, String> {
    const N: u64 = 200_000;
    let mut mem = memory_1024()?;
    let mut now = 0;
    for i in 0..16 {
        now = access(&mut mem, 0, i * 8, MemOp::Read, now)?;
    }
    let before = mem.perfmon(0).subcache_hits;
    let t = Instant::now();
    for i in 0..N {
        now = access(&mut mem, 0, black_box(i % 16) * 8, MemOp::Read, now)?;
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    let hits = mem.perfmon(0).subcache_hits - before;
    if hits != N {
        return Err(format!("{hits} sub-cache hits of {N} repeated reads"));
    }
    Ok(ns)
}

/// `MemorySystem::access`: reads of sub-pages owned by a cell on the
/// far side of the top ring.
fn access_ring_read() -> Result<f64, String> {
    const N: u64 = 4_096;
    let mut mem = memory_1024()?;
    mem.warm(1023, 0, N * 128);
    let mut now = 0;
    let t = Instant::now();
    for i in 0..N {
        now = access(&mut mem, 0, black_box(i) * 128, MemOp::Read, now)?;
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    let remote = mem.perfmon(0).remote_references;
    if remote != N {
        return Err(format!("{remote} remote references for {N} far reads"));
    }
    Ok(ns)
}

/// `MemorySystem::access`: a write to a sub-page every other cell of
/// the 1024-cell machine reads, invalidating 1023 copies.
fn access_invalidate() -> Result<f64, String> {
    const SUBPAGES: u64 = 32;
    let mut mem = memory_1024()?;
    let cells = mem.n_cells();
    let mut now = 0;
    let mut timed = 0u128;
    for sp in 0..SUBPAGES {
        let addr = sp * 128;
        for cell in 0..cells {
            now = access(&mut mem, cell, addr, MemOp::Read, now)?;
        }
        let before = mem.perfmon_total().invalidations_received;
        let t = Instant::now();
        now = access(&mut mem, 0, black_box(addr), MemOp::Write, now)?;
        timed += t.elapsed().as_nanos();
        let invalidated = mem.perfmon_total().invalidations_received - before;
        if invalidated != cells as u64 - 1 {
            return Err(format!(
                "write invalidated {invalidated} copies, want {}",
                cells - 1
            ));
        }
    }
    Ok(timed as f64 / SUBPAGES as f64)
}

/// `RingHierarchy::transact` on the 1024-cell tree: leaf-local, or
/// crossing the top ring. Requests are spaced so no ring saturates.
fn transact(top: bool) -> Result<f64, String> {
    const N: u64 = 200_000;
    let mut h = RingHierarchy::new(RingHierarchyConfig::ring_levels(RING_1024))
        .map_err(|e| e.to_string())?;
    let transit = if top {
        Transit::CrossRing { dst_leaf: 31 }
    } else {
        Transit::Local
    };
    let mut now = 0;
    let mut latency = 0;
    let t = Instant::now();
    for i in 0..N {
        let timing = h.transact(
            now,
            (i % 32) as usize,
            transit,
            black_box(i),
            PacketKind::ReadData,
        );
        latency += timing.response_at - now;
        now += 400;
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    let per = latency / N;
    // Leaf-local: one rotation; top: two ring traversals and two ARD
    // hops per level crossed on top of it.
    if (top && per < 500) || (!top && !(1..500).contains(&per)) {
        return Err(format!(
            "mean transaction latency {per} cycles is implausible"
        ));
    }
    Ok(ns)
}

/// Replay `events` into a fresh `PredictiveSink`: nanoseconds per event.
fn replay_events(events: &[TraceEvent]) -> Result<f64, String> {
    let mut sink = PredictiveSink::default();
    let t = Instant::now();
    for e in events {
        sink.record(black_box(e));
    }
    let ns = t.elapsed().as_nanos() as f64 / events.len().max(1) as f64;
    if !sink.is_clean() {
        return Err("replayed events show verification violations".into());
    }
    Ok(ns)
}

/// The complete event stream of one untraced-otherwise run of `spec`.
fn collect_events(spec: &JobSpec) -> Result<Vec<TraceEvent>, String> {
    let slot: Arc<Mutex<Option<Arc<Mutex<CollectingSink>>>>> = Arc::default();
    let store = Arc::clone(&slot);
    let observer: Arc<MachineObserver> = Arc::new(move |m| {
        let (tracer, sink) = Tracer::attach(CollectingSink::new());
        m.set_tracer(tracer);
        *store.lock().expect("collecting slot poisoned") = Some(sink);
    });
    let scope = ObserverScope::install(observer);
    let rec = run_job(spec, Observe::Bare, None);
    drop(scope);
    if let Some(why) = rec.failure {
        return Err(why);
    }
    let sink = slot
        .lock()
        .expect("collecting slot poisoned")
        .take()
        .ok_or("no machine built")?;
    let events = sink.lock().expect("collecting sink poisoned").take();
    Ok(events)
}
