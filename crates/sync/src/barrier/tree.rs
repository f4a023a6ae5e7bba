//! Algorithm 2: the dynamic combining-tree barrier (and its global-flag
//! variant, `tree(M)`).
//!
//! "A tree combining barrier that reduces the hot spot contention in the
//! previous algorithm by allocating a barrier variable (a counter) for
//! every pair of processors participating in the barrier. The processors
//! are the leaves of the binary tree, and the higher levels of the tree
//! get constructed dynamically as the processors reach the barrier thus
//! propagating the arrival information. The last processor to arrive at
//! the barrier will reach the root of the arrival tree and becomes
//! responsible for starting the notification of barrier completion down
//! this same binary tree." (§3.2.2)
//!
//! The `tree(M)` modification (suggested in Mellor-Crummey & Scott)
//! replaces the wake-up tree with a single global flag: "one, the wakeup
//! tree is collapsed thus reducing the number of distinct rounds of
//! communication, and two, read-snarfing helps this global wakeup flag
//! notification method tremendously."

use ksr_core::Result;
use ksr_machine::{Cpu, Machine};

use super::{BarrierAlg, Episode, FlagArray};

/// Dynamic combining-tree barrier.
#[derive(Debug, Clone, Copy)]
pub struct TreeBarrier {
    /// Pairwise arrival counters, one sub-page per internal node
    /// (flattened `(level, index)` grid; at most `n-1` live nodes).
    counters: FlagArray,
    /// Per-node wake-up flags (tree wake-up) — same flattened indexing.
    wakeups: FlagArray,
    /// Global wake-up flag (flag variant).
    global_flag: u64,
    n: usize,
    levels: usize,
    use_global_flag: bool,
}

/// Number of positions at `level` when `n` processors enter at level 0.
fn width_at(n: usize, level: usize) -> usize {
    let mut w = n;
    for _ in 0..level {
        w = w.div_ceil(2);
    }
    w
}

impl TreeBarrier {
    /// Allocate for `n` processors; `use_global_flag` selects `tree(M)`.
    pub fn alloc(m: &mut Machine, n: usize, use_global_flag: bool) -> Result<Self> {
        let levels = if n <= 1 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        };
        // Flattened node grid: level l gets width_at(n, l + 1) nodes; we
        // over-allocate a rectangular grid for simplicity of addressing.
        let per_level = width_at(n, 1).max(1);
        let cells = levels * per_level;
        Ok(Self {
            counters: FlagArray::alloc(m, cells)?,
            wakeups: FlagArray::alloc(m, cells)?,
            global_flag: m.alloc_subpage(8)?,
            n,
            levels,
            use_global_flag,
        })
    }

    fn node(&self, level: usize, idx: usize) -> usize {
        level * width_at(self.n, 1).max(1) + idx
    }
}

impl BarrierAlg for TreeBarrier {
    fn nprocs(&self) -> usize {
        self.n
    }

    async fn sync(&self, cpu: &mut Cpu, ep: &mut Episode) {
        let my_ep = ep.ep;
        ep.ep += 1;
        if self.n == 1 {
            return;
        }
        // Arrival: climb while second-to-arrive; remember the nodes we
        // climbed through (their first arrivers wait for us).
        let mut path: Vec<usize> = Vec::with_capacity(self.levels);
        let mut level = 0usize;
        let mut pos = cpu.id();
        let champion = loop {
            let w = width_at(self.n, level);
            if w == 1 {
                break true;
            }
            let partner = pos ^ 1;
            if partner >= w {
                // Bye: advance unopposed.
                pos /= 2;
                level += 1;
                continue;
            }
            let node = self.node(level, pos / 2);
            let caddr = self.counters.addr(node);
            // Accumulating pairwise counter: even parity = first arrival.
            // fetch_add is the get_sub_page synthesis on the KSR and a
            // native instruction on the comparison machines.
            let first = cpu.fetch_add(caddr, 1).await.is_multiple_of(2);
            if first {
                // Wait here for completion.
                if self.use_global_flag {
                    cpu.spin_until_gt(self.global_flag, my_ep).await;
                } else {
                    let waddr = self.wakeups.addr(node);
                    cpu.spin_until_gt(waddr, my_ep).await;
                }
                break false;
            }
            path.push(node);
            pos /= 2;
            level += 1;
        };

        if champion {
            if self.use_global_flag {
                cpu.write_u64(self.global_flag, my_ep + 1).await;
                cpu.poststore(self.global_flag).await;
                return;
            }
        } else if self.use_global_flag {
            return;
        }
        // Tree wake-up: rouse the first arriver at every node we won.
        for &node in path.iter().rev() {
            let waddr = self.wakeups.addr(node);
            cpu.write_u64(waddr, my_ep + 1).await;
            cpu.poststore(waddr).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use ksr_machine::{program, Machine};

    use super::*;

    #[test]
    fn width_shrinks_by_halving() {
        assert_eq!(width_at(8, 0), 8);
        assert_eq!(width_at(8, 1), 4);
        assert_eq!(width_at(8, 3), 1);
        assert_eq!(width_at(5, 1), 3);
        assert_eq!(width_at(5, 2), 2);
        assert_eq!(width_at(5, 3), 1);
    }

    #[test]
    fn single_proc_is_a_noop() {
        let mut m = Machine::ksr1(1).unwrap();
        let b = TreeBarrier::alloc(&mut m, 1, false).unwrap();
        let r = m
            .run(vec![program(move |mut cpu| async move {
                let mut ep = Episode::default();
                b.wait(&mut cpu, &mut ep).await;
                b.wait(&mut cpu, &mut ep).await;
            })])
            .expect("run");
        assert!(r.duration_cycles() < 10);
    }

    #[test]
    fn stragglers_hold_everyone_both_variants() {
        for flag in [false, true] {
            let mut m = Machine::ksr1(3).unwrap();
            let b = TreeBarrier::alloc(&mut m, 6, flag).unwrap();
            let r = m
                .run(
                    (0..6)
                        .map(|p| {
                            program(move |mut cpu| async move {
                                let mut ep = Episode::default();
                                cpu.compute(if p == 3 { 50_000 } else { 100 });
                                b.wait(&mut cpu, &mut ep).await;
                            })
                        })
                        .collect(),
                )
                .expect("run");
            for p in 0..6 {
                assert!(
                    r.proc_end[p] >= 50_000,
                    "flag={flag} proc {p} escaped early"
                );
            }
        }
    }

    #[test]
    fn repeated_episodes_do_not_wedge() {
        for flag in [false, true] {
            let mut m = Machine::ksr1(5).unwrap();
            let b = TreeBarrier::alloc(&mut m, 7, flag).unwrap();
            m.run(
                (0..7)
                    .map(|p| {
                        program(move |mut cpu| async move {
                            let mut ep = Episode::default();
                            for e in 0..4 {
                                cpu.compute(((p * 31 + e * 17) % 300) as u64);
                                b.wait(&mut cpu, &mut ep).await;
                            }
                        })
                    })
                    .collect(),
            )
            .expect("run");
        }
    }
}
