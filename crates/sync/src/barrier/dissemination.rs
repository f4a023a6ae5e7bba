//! Algorithm 3: the dissemination barrier (Hensgen, Finkel & Manber).
//!
//! "A dissemination barrier, which involves exchanging messages for
//! ⌈log₂P⌉ rounds as processors arrive at the barrier. In each round a
//! total of P messages are exchanged... after the log₂P rounds are over
//! all the processors are aware of barrier completion." (§3.2.2)
//!
//! On the KSR-1 it "does not perform as well... because it involves
//! O(P log P) distinct communication steps. Yet, owing to the pipelined
//! ring this algorithm does better than the counter algorithm." On the
//! cache-less Butterfly it is the *best* algorithm — it needs no
//! broadcast, only point-to-point flags (§3.2.3).

use ksr_core::Result;
use ksr_machine::{Cpu, Machine};

use super::{BarrierAlg, Episode, FlagArray};

/// Dissemination barrier: `rounds x n` flags, one sub-page each.
#[derive(Debug, Clone, Copy)]
pub struct DisseminationBarrier {
    flags: FlagArray,
    n: usize,
    rounds: usize,
}

impl DisseminationBarrier {
    /// Allocate for `n` processors.
    pub fn alloc(m: &mut Machine, n: usize) -> Result<Self> {
        let rounds = if n <= 1 {
            0
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        };
        let flags = FlagArray::alloc(m, rounds.max(1) * n)?;
        Ok(Self { flags, n, rounds })
    }

    fn flag(&self, round: usize, proc: usize) -> u64 {
        self.flags.addr(round * self.n + proc)
    }
}

impl BarrierAlg for DisseminationBarrier {
    fn nprocs(&self) -> usize {
        self.n
    }

    async fn sync(&self, cpu: &mut Cpu, ep: &mut Episode) {
        let my_ep = ep.ep;
        ep.ep += 1;
        let p = cpu.id();
        for k in 0..self.rounds {
            let partner = (p + (1 << k)) % self.n;
            let out = self.flag(k, partner);
            // Plain invalidating write: the paper applied poststore to the
            // *global wakeup flag* methods; pushing every one of the
            // O(P log P) point-to-point flags would be the "indiscriminate
            // use of this primitive" its §4 warns against.
            cpu.write_u64(out, my_ep + 1).await;
            // A partner may already be an episode ahead of us in later
            // rounds, hence >= rather than ==.
            cpu.spin_until_gt(self.flag(k, p), my_ep).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use ksr_machine::{program, Machine};

    use super::*;

    #[test]
    fn rounds_are_ceil_log2() {
        let mut m = Machine::ksr1(1).unwrap();
        assert_eq!(DisseminationBarrier::alloc(&mut m, 1).unwrap().rounds, 0);
        assert_eq!(DisseminationBarrier::alloc(&mut m, 2).unwrap().rounds, 1);
        assert_eq!(DisseminationBarrier::alloc(&mut m, 5).unwrap().rounds, 3);
        assert_eq!(DisseminationBarrier::alloc(&mut m, 32).unwrap().rounds, 5);
    }

    #[test]
    fn straggler_holds_everyone() {
        let mut m = Machine::ksr1(4).unwrap();
        let b = DisseminationBarrier::alloc(&mut m, 5).unwrap();
        let r = m
            .run(
                (0..5)
                    .map(|p| {
                        program(move |mut cpu| async move {
                            let mut ep = Episode::default();
                            cpu.compute(if p == 2 { 40_000 } else { 50 });
                            b.wait(&mut cpu, &mut ep).await;
                        })
                    })
                    .collect(),
            )
            .expect("run");
        for p in 0..5 {
            assert!(r.proc_end[p] >= 40_000, "proc {p} escaped early");
        }
    }

    #[test]
    fn episodes_may_skew_by_design() {
        // Dissemination tolerates a processor racing ahead into the next
        // episode's early rounds; this must not wedge or corrupt.
        let mut m = Machine::ksr1(6).unwrap();
        let b = DisseminationBarrier::alloc(&mut m, 4).unwrap();
        m.run(
            (0..4)
                .map(|p| {
                    program(move |mut cpu| async move {
                        let mut ep = Episode::default();
                        for e in 0..6 {
                            cpu.compute(((p * 211 + e * 97) % 700) as u64);
                            b.wait(&mut cpu, &mut ep).await;
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
    }
}
