//! Algorithm 1: the naive central-counter barrier.
//!
//! "A global counter is decremented by each processor upon arrival. The
//! counter becoming zero is the indication of barrier completion, and
//! this is observed independently by each processor by testing the
//! counter." (§3.2.2)
//!
//! Every arrival costs at least two ring accesses on the same sub-page —
//! one to fetch the counter atomically and one implicit in re-arming the
//! spinners — and since they all target the *same* location they
//! serialize on the ring: the pipelining that saves the tree-style
//! barriers is of no help here. This is the slowest curve in Figure 4.

use ksr_core::Result;
use ksr_machine::{Cpu, Machine};

use super::{BarrierAlg, Episode};

/// Central-counter barrier. The counter and the generation word share a
/// sub-page — the hot spot is the algorithm.
#[derive(Debug, Clone, Copy)]
pub struct CounterBarrier {
    /// Sub-page: word 0 = remaining count, word 1 = completed generation.
    base: u64,
    n: usize,
}

impl CounterBarrier {
    /// Allocate and initialise for `n` processors.
    pub fn alloc(m: &mut Machine, n: usize) -> Result<Self> {
        let base = m.alloc_subpage(16)?;
        m.poke_u64(base, n as u64)?;
        m.poke_u64(base + 8, 0)?;
        Ok(Self { base, n })
    }
}

impl BarrierAlg for CounterBarrier {
    fn nprocs(&self) -> usize {
        self.n
    }

    async fn sync(&self, cpu: &mut Cpu, ep: &mut Episode) {
        let my_gen = ep.ep;
        ep.ep += 1;
        // Atomic decrement: native fetch-and-add where the machine has
        // one (Symmetry/Butterfly), otherwise the KSR get_sub_page
        // synthesis. No new arrival can race the re-arm below, because
        // nobody re-enters until the generation flag is published.
        let old = cpu.fetch_add(self.base, u64::MAX).await;
        if old == 1 {
            // Last arrival: re-arm and publish completion.
            cpu.write_u64(self.base, self.n as u64).await;
            cpu.write_u64(self.base + 8, my_gen + 1).await;
            cpu.poststore(self.base + 8).await;
        } else {
            cpu.spin_until_gt(self.base + 8, my_gen).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use ksr_machine::{program, Machine};

    use super::*;

    #[test]
    fn two_procs_meet() {
        let mut m = Machine::ksr1(1).unwrap();
        let b = CounterBarrier::alloc(&mut m, 2).unwrap();
        let r = m
            .run(
                (0..2)
                    .map(|p| {
                        program(move |mut cpu| async move {
                            let mut ep = Episode::default();
                            cpu.compute(if p == 0 { 10_000 } else { 10 });
                            b.wait(&mut cpu, &mut ep).await;
                        })
                    })
                    .collect(),
            )
            .expect("run");
        // The fast processor waited for the slow one.
        assert!(r.proc_end[1] > 10_000);
    }

    #[test]
    fn counter_rearms_across_episodes() {
        let mut m = Machine::ksr1(2).unwrap();
        let b = CounterBarrier::alloc(&mut m, 4).unwrap();
        m.run(
            (0..4)
                .map(|_| {
                    program(move |mut cpu| async move {
                        let mut ep = Episode::default();
                        for _ in 0..5 {
                            b.wait(&mut cpu, &mut ep).await;
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        assert_eq!(m.peek_u64(b.base).unwrap(), 4, "counter re-armed");
        assert_eq!(
            m.peek_u64(b.base + 8).unwrap(),
            5,
            "five generations completed"
        );
    }
}
