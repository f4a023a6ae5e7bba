//! Algorithm 5: the Mellor-Crummey & Scott tree barrier (and `MCS(M)`).
//!
//! "A 4-ary tree is used in the former for arrival; and 'parent'
//! processors arrive at intermediate nodes of the arrival tree... The
//! parents at each level wait for their respective 4 children to arrive
//! at the barrier by spinning on a 32-bit word, while each of the
//! children indicate arrival by setting a designated byte of that word."
//! (§3.2.2)
//!
//! The packed arrival word is deliberately reproduced here: each parent's
//! four child-arrival slots share **one sub-page**, so the four children's
//! stores false-share and serialize — "every such false sharing access
//! results in one ring latency... the cost of the communication is at
//! least quadrupled for each level of the tree compared to the binary
//! tree". Wake-up uses a binary tree ("each node wakes up two children
//! this is faster than the corresponding wake up tree used in
//! tournament"), or the global flag in `MCS(M)`.

use ksr_core::Result;
use ksr_machine::{Cpu, Machine};

use super::{BarrierAlg, Episode, FlagArray};

/// MCS tree barrier: k-ary arrival (4-ary in the paper), binary wake-up.
#[derive(Debug, Clone, Copy)]
pub struct McsBarrier {
    /// Per-processor packed arrival words: `arity` slots of 8 bytes on a
    /// *single* sub-page per parent (intentional false sharing).
    arrival_base: u64,
    /// Per-processor wake-up flags, one sub-page each.
    wakeups: FlagArray,
    /// Global flag for the `(M)` variant.
    global_flag: u64,
    n: usize,
    arity: usize,
    use_global_flag: bool,
}

impl McsBarrier {
    /// Allocate for `n` processors; `use_global_flag` selects `MCS(M)`.
    pub fn alloc(m: &mut Machine, n: usize, use_global_flag: bool) -> Result<Self> {
        Self::alloc_with_arity(m, n, use_global_flag, 4)
    }

    /// Like [`Self::alloc`] with an explicit arrival-tree arity (the
    /// paper's analysis contrasts the 4-ary MCS arrival with the binary
    /// tournament; the arity sweep is an ablation bench). All `arity`
    /// child slots share one sub-page, as in the original algorithm.
    pub fn alloc_with_arity(
        m: &mut Machine,
        n: usize,
        use_global_flag: bool,
        arity: usize,
    ) -> Result<Self> {
        assert!(
            (2..=16).contains(&arity),
            "arity must fit one sub-page of 8-byte slots"
        );
        // One 128 B sub-page per parent holding its child slots.
        let arrival_base = m.alloc(128 * n as u64, 128)?;
        Ok(Self {
            arrival_base,
            wakeups: FlagArray::alloc(m, n)?,
            global_flag: m.alloc_subpage(8)?,
            n,
            arity,
            use_global_flag,
        })
    }

    /// Address of child-slot `c` in parent `p`'s packed arrival word.
    fn child_slot(&self, parent: usize, c: usize) -> u64 {
        self.arrival_base + 128 * parent as u64 + 8 * c as u64
    }
}

impl BarrierAlg for McsBarrier {
    fn nprocs(&self) -> usize {
        self.n
    }

    async fn sync(&self, cpu: &mut Cpu, ep: &mut Episode) {
        let my_ep = ep.ep;
        ep.ep += 1;
        if self.n <= 1 {
            return;
        }
        let p = cpu.id();
        // Wait for my arrival-tree children (processors k*p+1 .. k*p+k).
        for c in 0..self.arity {
            let child = self.arity * p + 1 + c;
            if child < self.n {
                cpu.spin_until_gt(self.child_slot(p, c), my_ep).await;
            }
        }
        if p != 0 {
            // Report to my parent's packed word, then wait for wake-up.
            let parent = (p - 1) / self.arity;
            let slot = (p - 1) % self.arity;
            let out = self.child_slot(parent, slot);
            cpu.write_u64(out, my_ep + 1).await;
            cpu.poststore(out).await;
            if self.use_global_flag {
                cpu.spin_until_gt(self.global_flag, my_ep).await;
                return;
            }
            cpu.spin_until_gt(self.wakeups.addr(p), my_ep).await;
        } else if self.use_global_flag {
            cpu.write_u64(self.global_flag, my_ep + 1).await;
            cpu.poststore(self.global_flag).await;
            return;
        }
        // Binary wake-up tree: wake processors 2p+1 and 2p+2.
        for child in [2 * p + 1, 2 * p + 2] {
            if child < self.n {
                let w = self.wakeups.addr(child);
                cpu.write_u64(w, my_ep + 1).await;
                cpu.poststore(w).await;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use ksr_machine::{program, Machine};

    use super::*;

    #[test]
    fn child_slots_share_a_subpage() {
        let mut m = Machine::ksr1(1).unwrap();
        let b = McsBarrier::alloc(&mut m, 8, false).unwrap();
        let s0 = b.child_slot(0, 0) / 128;
        let s3 = b.child_slot(0, 3) / 128;
        assert_eq!(s0, s3, "the four child slots must false-share one sub-page");
        let other = b.child_slot(1, 0) / 128;
        assert_ne!(s0, other, "different parents use different sub-pages");
    }

    #[test]
    fn straggler_holds_everyone_both_variants() {
        for flag in [false, true] {
            let mut m = Machine::ksr1(12).unwrap();
            let b = McsBarrier::alloc(&mut m, 9, flag).unwrap();
            let r = m
                .run(
                    (0..9)
                        .map(|p| {
                            program(move |mut cpu| async move {
                                let mut ep = Episode::default();
                                cpu.compute(if p == 7 { 70_000 } else { 200 });
                                b.wait(&mut cpu, &mut ep).await;
                            })
                        })
                        .collect(),
                )
                .expect("run");
            for p in 0..9 {
                assert!(
                    r.proc_end[p] >= 70_000,
                    "flag={flag} proc {p} escaped early"
                );
            }
        }
    }

    #[test]
    fn repeated_episodes() {
        for flag in [false, true] {
            let mut m = Machine::ksr1(13).unwrap();
            let b = McsBarrier::alloc(&mut m, 11, flag).unwrap();
            m.run(
                (0..11)
                    .map(|p| {
                        program(move |mut cpu| async move {
                            let mut ep = Episode::default();
                            for e in 0..4 {
                                cpu.compute(((p * 53 + e * 29) % 350) as u64);
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
