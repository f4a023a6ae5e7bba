//! Topology-aware hierarchical (cohort) locks.
//!
//! The flat locks of §3.2.1 ignore the ring hierarchy: under contention
//! a ticket lock's handoff hops to whichever cell queued next, and on
//! the 256/512/1024-cell machines that cell usually sits on another
//! leaf ring, so every handoff drags the lock word (and the protected
//! data) through one or more ARDs. "High-Performance Distributed RMA
//! Locks" (Schmid, Besta, Hoefler; see PAPERS.md) solves this with
//! *cohort* queues: one FCFS queue per locality domain plus one global
//! FCFS queue of domains, and a bounded budget of consecutive
//! local handoffs before the domain must surrender the global lock.
//!
//! ## Protocol
//!
//! [`CohortLock`] derives its cohorts from the machine's
//! [`Topology`]: on a ring hierarchy each leaf ring is one cohort
//! (`cell / cells_per_leaf`); bus and Butterfly machines have no
//! locality to exploit and collapse to a single cohort. Each cohort
//! owns one sub-page holding a ticket pair (`lnext`/`lserving`) plus
//! `lowns` ("this cohort currently holds the global lock") and
//! `lhandoffs` (consecutive local handoffs so far); a final sub-page
//! holds the global ticket pair (`gnext`/`gserving`).
//!
//! * **acquire** — take a local ticket under `get_sub_page`, spin on
//!   `lserving` (all same-leaf traffic). The cohort's head checks
//!   `lowns`: if the cohort does not hold the global lock it takes a
//!   global ticket and spins on `gserving` — the only cross-ring spin,
//!   and only one cell per cohort ever does it.
//! * **release** — if local waiters are queued and fewer than `budget`
//!   consecutive local handoffs have happened, advance `lserving` only:
//!   the lock stays inside the leaf ring and the handoff is a purely
//!   local reference. Otherwise clear `lowns`, advance `lserving`, and
//!   release the global ticket.
//!
//! ## Fairness
//!
//! Both queues are strict FCFS and the handoff budget bounds how long a
//! cohort may retain the global lock: once a remote cohort enqueues
//! globally, at most `budget + 1` critical sections (the current holder
//! plus `budget` local handoffs) run before the global ticket advances,
//! and global tickets are FCFS, so every waiter gets the lock after a
//! bounded number of critical sections — starvation-freedom is
//! preserved, merely relaxed from strict global FCFS by the budget.
//!
//! ## Verification silence
//!
//! Every bookkeeping word lives on a sub-page that is either a
//! `get_sub_page` target or a spin target, so the race detector's
//! sync-exemption covers all lock metadata, and the lock never holds
//! two `get_sub_page` sub-pages at once (the global ticket is taken
//! and released outside the local sub-page hold), so the lock-order
//! predictor sees no edges. The `LCK --check` gate in `scripts/check.sh`
//! holds both properties.

use ksr_core::Result;
use ksr_machine::{Cpu, Machine};
use ksr_net::Topology;

use crate::rwlock::{LockMode, SwRwLock, Ticket};

/// Local-queue word offsets (one 128-byte sub-page per cohort).
const LNEXT: u64 = 0;
const LSERVING: u64 = 8;
const LOWNS: u64 = 16;
const LHANDOFFS: u64 = 24;
/// Global write-ticket number inherited on local handoff
/// ([`CohortRwLock`] only).
const LGTICK: u64 = 32;

/// Global-queue word offsets.
const GNEXT: u64 = 0;
const GSERVING: u64 = 8;

/// Sub-page stride between cohort queues.
const COHORT_STRIDE: u64 = 128;

/// Default bound on consecutive local handoffs before the global
/// ticket must be released.
pub const DEFAULT_HANDOFF_BUDGET: u64 = 8;

/// Cohort geometry shared by both lock flavors.
#[derive(Debug, Clone, Copy)]
struct Cohorts {
    /// Base address of `count` consecutive local-queue sub-pages.
    locals: u64,
    /// Cells per cohort (= cells per leaf ring on a ring hierarchy).
    cells_per_cohort: u64,
    /// Number of cohorts.
    count: u64,
}

impl Cohorts {
    fn alloc(m: &mut Machine) -> Result<Self> {
        let cells = m.config().cells.max(1);
        let cells_per_cohort = match &m.config().topology {
            // One cohort per leaf ring, matching `RingHierarchy::leaf_of`.
            Topology::Ring(cfg) => cfg.cells_per_leaf.min(cells),
            // No locality to exploit: a single cohort (the lock then
            // behaves as a flat FCFS ticket lock with a pass-through
            // global stage).
            Topology::Bus(_) | Topology::Butterfly(_) => cells,
        };
        let count = cells.div_ceil(cells_per_cohort);
        let locals = m.alloc_subpage(count as u64 * COHORT_STRIDE)?;
        Ok(Self {
            locals,
            cells_per_cohort: cells_per_cohort as u64,
            count: count as u64,
        })
    }

    /// The local-queue sub-page of `cell`'s cohort.
    fn queue_of(&self, cell: usize) -> u64 {
        let cohort = (cell as u64 / self.cells_per_cohort).min(self.count - 1);
        self.locals + cohort * COHORT_STRIDE
    }

    /// Take a local ticket and wait until this processor heads its
    /// cohort's queue. Returns the cohort queue address.
    async fn await_local_head(&self, cpu: &mut Cpu) -> u64 {
        let q = self.queue_of(cpu.id());
        cpu.acquire_sub_page(q).await;
        let t = cpu.read_u64(q + LNEXT).await;
        cpu.write_u64(q + LNEXT, t + 1).await;
        let serving = cpu.read_u64(q + LSERVING).await;
        cpu.release_sub_page(q).await;
        if serving != t {
            cpu.spin_until_eq(q + LSERVING, t).await;
        }
        q
    }

    /// Release decision at `q`: on a local handoff, advance `lserving`
    /// and return `true`; otherwise clear `lowns`, advance `lserving`,
    /// and return `false` — the caller must then release the global
    /// stage it still holds.
    async fn handoff_or_surrender(&self, cpu: &mut Cpu, q: u64, budget: u64) -> bool {
        cpu.acquire_sub_page(q).await;
        let t = cpu.read_u64(q + LSERVING).await;
        let next = cpu.read_u64(q + LNEXT).await;
        let handoffs = cpu.read_u64(q + LHANDOFFS).await;
        let local = next > t + 1 && handoffs < budget;
        if local {
            cpu.write_u64(q + LHANDOFFS, handoffs + 1).await;
        } else {
            cpu.write_u64(q + LHANDOFFS, 0).await;
            cpu.write_u64(q + LOWNS, 0).await;
        }
        cpu.write_u64(q + LSERVING, t + 1).await;
        cpu.release_sub_page(q).await;
        local
    }
}

/// The hierarchical MCS/cohort mutex: per-leaf FCFS local queues under
/// a FCFS global queue, with a bounded local-handoff budget (see the
/// module docs for the protocol and fairness argument).
#[derive(Debug, Clone, Copy)]
pub struct CohortLock {
    global: u64,
    cohorts: Cohorts,
    budget: u64,
}

impl CohortLock {
    /// Allocate with the default handoff budget, deriving cohorts from
    /// the machine's topology.
    pub fn alloc(m: &mut Machine) -> Result<Self> {
        Self::with_budget(m, DEFAULT_HANDOFF_BUDGET)
    }

    /// Allocate with an explicit handoff budget. A budget of 0 releases
    /// the global ticket after every critical section (strict global
    /// FCFS, no locality benefit).
    pub fn with_budget(m: &mut Machine, budget: u64) -> Result<Self> {
        let global = m.alloc_subpage(16)?;
        let cohorts = Cohorts::alloc(m)?;
        Ok(Self {
            global,
            cohorts,
            budget,
        })
    }

    /// Number of cohorts (leaf rings, or 1 without ring locality).
    #[must_use]
    pub fn cohorts(&self) -> u64 {
        self.cohorts.count
    }

    /// The configured local-handoff budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Acquire the lock; blocks until granted.
    pub async fn acquire(&self, cpu: &mut Cpu) {
        let q = self.cohorts.await_local_head(cpu).await;
        // Head of the cohort. `lowns` is only ever touched by the
        // cohort head (ordered by the `lserving` spin on this same
        // sub-page), so no `get_sub_page` is needed here.
        if cpu.read_u64(q + LOWNS).await == 0 {
            let g = self.global;
            cpu.acquire_sub_page(g).await;
            let t = cpu.read_u64(g + GNEXT).await;
            cpu.write_u64(g + GNEXT, t + 1).await;
            let serving = cpu.read_u64(g + GSERVING).await;
            cpu.release_sub_page(g).await;
            if serving != t {
                cpu.spin_until_eq(g + GSERVING, t).await;
            }
            cpu.write_u64(q + LOWNS, 1).await;
        }
    }

    /// Release the lock, preferring a local handoff within the cohort
    /// while the budget lasts.
    pub async fn release(&self, cpu: &mut Cpu) {
        let q = self.cohorts.queue_of(cpu.id());
        if !self.cohorts.handoff_or_surrender(cpu, q, self.budget).await {
            let g = self.global;
            cpu.acquire_sub_page(g).await;
            let serving = cpu.read_u64(g + GSERVING).await;
            cpu.write_u64(g + GSERVING, serving + 1).await;
            cpu.release_sub_page(g).await;
        }
    }
}

/// Proof of [`CohortRwLock`] acquisition, needed to release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortTicket {
    global: Ticket,
}

impl CohortTicket {
    /// The mode the lock was granted in.
    #[must_use]
    pub fn mode(&self) -> LockMode {
        self.global.mode()
    }
}

/// Reader-writer cohort lock layered on the [`SwRwLock`] ticket
/// machinery of §3.2.1: readers combine globally exactly as in the
/// paper's lock (read-sharing already scales, and readers never take a
/// handoff), while writers queue through their cohort and hand the
/// *global write ticket* to same-leaf writers within the handoff
/// budget. Because the global stage is the paper's FCFS queue, readers
/// and writer-cohorts interleave in strict global FCFS order.
///
/// The global [`SwRwLock`]'s 64-slot ticket table bounds in-flight
/// global tickets; with per-cohort writer combining there is at most
/// one global write ticket per cohort (≤ 32 on any valid ring tree),
/// so the constraint only binds the reader count, as for the flat lock.
#[derive(Debug, Clone, Copy)]
pub struct CohortRwLock {
    global: SwRwLock,
    cohorts: Cohorts,
    budget: u64,
}

impl CohortRwLock {
    /// Allocate with the default handoff budget.
    pub fn alloc(m: &mut Machine) -> Result<Self> {
        Self::with_budget(m, DEFAULT_HANDOFF_BUDGET)
    }

    /// Allocate with an explicit writer handoff budget.
    pub fn with_budget(m: &mut Machine, budget: u64) -> Result<Self> {
        let global = SwRwLock::alloc(m)?;
        let cohorts = Cohorts::alloc(m)?;
        Ok(Self {
            global,
            cohorts,
            budget,
        })
    }

    /// Number of cohorts.
    #[must_use]
    pub fn cohorts(&self) -> u64 {
        self.cohorts.count
    }

    /// Acquire in the given mode; blocks (FCFS) until granted.
    pub async fn acquire(&self, cpu: &mut Cpu, mode: LockMode) -> CohortTicket {
        match mode {
            LockMode::Read => CohortTicket {
                global: self.global.acquire(cpu, LockMode::Read).await,
            },
            LockMode::Write => {
                let q = self.cohorts.await_local_head(cpu).await;
                let number = if cpu.read_u64(q + LOWNS).await == 0 {
                    let t = self.global.acquire(cpu, LockMode::Write).await;
                    cpu.write_u64(q + LGTICK, t.number()).await;
                    cpu.write_u64(q + LOWNS, 1).await;
                    t.number()
                } else {
                    // Inherit the cohort's open global write ticket.
                    cpu.read_u64(q + LGTICK).await
                };
                CohortTicket {
                    global: Ticket::internal(number, LockMode::Write),
                }
            }
        }
    }

    /// Release a previously acquired ticket.
    pub async fn release(&self, cpu: &mut Cpu, ticket: CohortTicket) {
        match ticket.global.mode() {
            LockMode::Read => self.global.release(cpu, ticket.global).await,
            LockMode::Write => {
                let q = self.cohorts.queue_of(cpu.id());
                if !self.cohorts.handoff_or_surrender(cpu, q, self.budget).await {
                    self.global.release(cpu, ticket.global).await;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use ksr_machine::{program, MachineConfig};

    use super::*;

    /// Two-word critical-section invariant under `procs` programs on
    /// the given machine, `iters` acquisitions each.
    fn exclusion_stress(mut m: Machine, lock: CohortLock, procs: usize, iters: u64) {
        let shared = m.alloc_subpage(16).unwrap();
        m.run(
            (0..procs)
                .map(|_| {
                    program(move |mut cpu| async move {
                        for _ in 0..iters {
                            lock.acquire(&mut cpu).await;
                            let a = cpu.read_u64(shared).await;
                            cpu.compute(31); // widen the race window
                            cpu.write_u64(shared, a + 1).await;
                            let b = cpu.read_u64(shared + 8).await;
                            assert_eq!(a, b, "critical-section invariant violated");
                            cpu.write_u64(shared + 8, b + 1).await;
                            lock.release(&mut cpu).await;
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        assert_eq!(m.peek_u64(shared).unwrap(), procs as u64 * iters);
        assert_eq!(m.peek_u64(shared + 8).unwrap(), procs as u64 * iters);
    }

    #[test]
    fn single_leaf_machine_collapses_to_one_cohort() {
        let mut m = Machine::ksr1(31).unwrap();
        let lock = CohortLock::alloc(&mut m).unwrap();
        assert_eq!(lock.cohorts(), 1);
        assert_eq!(lock.budget(), DEFAULT_HANDOFF_BUDGET);
        exclusion_stress(m, lock, 8, 6);
    }

    /// The asymmetric three-level 1024-cell tree: programs span three
    /// leaf rings, so handoffs exercise local, Ring:1, and the budget
    /// logic across cohorts.
    #[test]
    fn mutual_exclusion_on_asymmetric_deep_ring() {
        let mut m = Machine::new(MachineConfig::ksr_ring(33, &[32, 8, 4])).unwrap();
        let lock = CohortLock::with_budget(&mut m, 3).unwrap();
        assert_eq!(lock.cohorts(), 32);
        exclusion_stress(m, lock, 80, 2);
    }

    /// Degenerate two-cell leaves (`&[2, 2]` = four cells in cohorts of
    /// two): the smallest leaf the topology validator admits.
    #[test]
    fn mutual_exclusion_on_degenerate_two_cell_leaves() {
        let mut m = Machine::new(MachineConfig::ksr_ring(34, &[2, 2])).unwrap();
        let lock = CohortLock::with_budget(&mut m, 2).unwrap();
        assert_eq!(lock.cohorts(), 2);
        exclusion_stress(m, lock, 4, 8);
    }

    /// Starvation-freedom across cohorts: a lone writer on another leaf
    /// enqueues globally while the first leaf floods the lock; the
    /// budget forces a global release after at most `budget` local
    /// handoffs, so the remote cell enters long before the flood ends.
    #[test]
    fn remote_cohort_is_not_starved_by_local_handoffs() {
        let mut m = Machine::new(MachineConfig::ksr_ring(35, &[32, 8, 4])).unwrap();
        let budget = 4;
        let lock = CohortLock::with_budget(&mut m, budget).unwrap();
        let counter = m.alloc_subpage(8).unwrap();
        let seen = m.alloc_subpage(8).unwrap();
        let locals = 16usize;
        let iters = 8u64;
        let mut progs: Vec<_> = (0..locals)
            .map(|_| {
                program(move |mut cpu| async move {
                    for _ in 0..iters {
                        lock.acquire(&mut cpu).await;
                        let v = cpu.read_u64(counter).await;
                        cpu.compute(200);
                        cpu.write_u64(counter, v + 1).await;
                        lock.release(&mut cpu).await;
                    }
                })
            })
            .collect();
        // Pad so the observer lands on cell 32 = the second leaf ring.
        progs.extend((locals..32).map(|_| program(move |mut cpu| async move { cpu.compute(1) })));
        progs.push(program(move |mut cpu| async move {
            cpu.compute(2_000); // arrive while the flood is in full swing
            lock.acquire(&mut cpu).await;
            let v = cpu.read_u64(counter).await;
            cpu.write_u64(seen, v + 1).await; // +1 distinguishes "ran" from 0
            lock.release(&mut cpu).await;
        }));
        m.run(progs).expect("run");
        let total = locals as u64 * iters;
        assert_eq!(m.peek_u64(counter).unwrap(), total);
        let seen = m.peek_u64(seen).unwrap();
        assert!(seen > 0, "the remote cell never got the lock");
        assert!(
            seen - 1 < total,
            "remote cohort was starved until the flood finished: saw {} of {total}",
            seen - 1
        );
    }

    /// FCFS within a cohort: with a huge budget and one cohort, grant
    /// order must equal local ticket order (strict arrival FCFS).
    #[test]
    fn grants_are_fcfs_within_a_cohort() {
        let mut m = Machine::ksr1(36).unwrap();
        let lock = CohortLock::with_budget(&mut m, u64::MAX).unwrap();
        let log = m.alloc_subpage(64).unwrap();
        let idx = m.alloc_subpage(8).unwrap();
        // Staggered arrivals: proc p arrives at ~p*3000 cycles while
        // proc 0 still holds the lock, so they queue in arrival order.
        m.run(
            (0..4u64)
                .map(|p| {
                    program(move |mut cpu| async move {
                        cpu.compute(1 + p * 3_000);
                        lock.acquire(&mut cpu).await;
                        if p == 0 {
                            cpu.compute(15_000); // hold across all arrivals
                        }
                        let i = cpu.read_u64(idx).await;
                        cpu.write_u64(log + i * 8, p + 1).await;
                        cpu.write_u64(idx, i + 1).await;
                        lock.release(&mut cpu).await;
                    })
                })
                .collect(),
        )
        .expect("run");
        for p in 0..4u64 {
            assert_eq!(
                m.peek_u64(log + p * 8).unwrap(),
                p + 1,
                "grant order must match arrival order"
            );
        }
    }

    #[test]
    fn rw_writers_exclude_and_readers_share() {
        let mut m = Machine::new(
            MachineConfig::ksr2(37).with_interrupts(ksr_machine::InterruptConfig::ksr_os()),
        )
        .unwrap();
        let lock = CohortRwLock::with_budget(&mut m, 2).unwrap();
        assert_eq!(lock.cohorts(), 2);
        let counter = m.alloc_subpage(8).unwrap();
        let procs = 12usize;
        let iters = 4u64;
        m.run(
            (0..procs)
                .map(|p| {
                    program(move |mut cpu| async move {
                        for i in 0..iters {
                            if (p as u64 + i).is_multiple_of(3) {
                                let t = lock.acquire(&mut cpu, LockMode::Write).await;
                                let v = cpu.read_u64(counter).await;
                                cpu.compute(17);
                                cpu.write_u64(counter, v + 1).await;
                                lock.release(&mut cpu, t).await;
                            } else {
                                let t = lock.acquire(&mut cpu, LockMode::Read).await;
                                let _ = cpu.read_u64(counter).await;
                                cpu.compute(17);
                                lock.release(&mut cpu, t).await;
                            }
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        let expected: u64 = (0..procs as u64)
            .map(|p| (0..iters).filter(|i| (p + i) % 3 == 0).count() as u64)
            .sum();
        assert_eq!(m.peek_u64(counter).unwrap(), expected, "no write was lost");
    }

    #[test]
    fn rw_readers_overlap_across_leaves() {
        let mut m = Machine::new(MachineConfig::ksr_ring(38, &[32, 2])).unwrap();
        let lock = CohortRwLock::alloc(&mut m).unwrap();
        let hold = 20_000u64;
        let readers = 40usize; // spans both leaf rings
        let r = m
            .run(
                (0..readers)
                    .map(|_| {
                        program(move |mut cpu| async move {
                            let t = lock.acquire(&mut cpu, LockMode::Read).await;
                            assert_eq!(t.mode(), LockMode::Read);
                            cpu.compute(hold);
                            lock.release(&mut cpu, t).await;
                        })
                    })
                    .collect(),
            )
            .expect("run");
        assert!(
            r.duration_cycles() < hold * readers as u64 / 2,
            "readers must overlap: {}",
            r.duration_cycles()
        );
    }

    /// Writer handoff inherits the open global write ticket: same-leaf
    /// writers chain without touching the global queue, and the final
    /// surrender releases it exactly once (a double release would
    /// corrupt `serving` and hang later acquirers).
    #[test]
    fn rw_writer_handoff_inherits_global_ticket() {
        let mut m = Machine::new(MachineConfig::ksr_ring(39, &[32, 2])).unwrap();
        let lock = CohortRwLock::with_budget(&mut m, 8).unwrap();
        let counter = m.alloc_subpage(8).unwrap();
        m.run(
            (0..6)
                .map(|_| {
                    program(move |mut cpu| async move {
                        for _ in 0..4 {
                            let t = lock.acquire(&mut cpu, LockMode::Write).await;
                            let v = cpu.read_u64(counter).await;
                            cpu.compute(23);
                            cpu.write_u64(counter, v + 1).await;
                            lock.release(&mut cpu, t).await;
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        assert_eq!(m.peek_u64(counter).unwrap(), 24);
        // The lock must still be serviceable after the storm.
        m.run(vec![program(move |mut cpu| async move {
            let t = lock.acquire(&mut cpu, LockMode::Write).await;
            let v = cpu.read_u64(counter).await;
            cpu.write_u64(counter, v + 1).await;
            lock.release(&mut cpu, t).await;
        })])
        .expect("run");
        assert_eq!(m.peek_u64(counter).unwrap(), 25);
    }
}
