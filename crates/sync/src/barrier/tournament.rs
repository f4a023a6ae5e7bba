//! Algorithm 4: the tournament barrier (and `tournament(M)`).
//!
//! "A tournament barrier (another tree-style algorithm similar to
//! Algorithm 2) in which the winner in each round is determined
//! statically." (§3.2.2) The loser of each round reports its arrival to
//! the statically-known winner and waits; winners advance. The champion
//! (processor 0) observes completion after ⌈log₂P⌉ rounds and starts the
//! wake-up — a binary tree in the plain variant, a single global flag in
//! `tournament(M)`.
//!
//! "The tournament algorithm incurs only 1 communication step for a pair
//! of nodes in the binary tree in the best case... In a machine such as
//! the KSR-1 which has multiple communication paths all the communication
//! at each level of the binary tree can proceed in parallel." — this is
//! why `tournament(M)` is the best barrier in Figure 4.

use ksr_core::Result;
use ksr_machine::{Cpu, Machine};

use super::{BarrierAlg, Episode, FlagArray};

/// Static tournament barrier.
#[derive(Debug, Clone, Copy)]
pub struct TournamentBarrier {
    /// Arrival flags: `rounds x n`, one sub-page each (indexed by the
    /// *winner's* id for its round).
    arrivals: FlagArray,
    /// Wake-up flags: one per processor, own sub-page.
    wakeups: FlagArray,
    /// Global flag for the `(M)` variant.
    global_flag: u64,
    n: usize,
    rounds: usize,
    use_global_flag: bool,
}

impl TournamentBarrier {
    /// Allocate for `n` processors; `use_global_flag` selects
    /// `tournament(M)`.
    pub fn alloc(m: &mut Machine, n: usize, use_global_flag: bool) -> Result<Self> {
        let rounds = if n <= 1 {
            0
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        };
        Ok(Self {
            arrivals: FlagArray::alloc(m, rounds.max(1) * n)?,
            wakeups: FlagArray::alloc(m, n)?,
            global_flag: m.alloc_subpage(8)?,
            n,
            rounds,
            use_global_flag,
        })
    }

    fn arrival(&self, round: usize, winner: usize) -> u64 {
        self.arrivals.addr(round * self.n + winner)
    }
}

impl BarrierAlg for TournamentBarrier {
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
        // Rounds where p is a (potential) winner: its k low bits are 0.
        // It loses at the round of its lowest set bit.
        let mut lost_at = self.rounds;
        for k in 0..self.rounds {
            let bit = 1usize << k;
            if p & (bit - 1) != 0 {
                unreachable!("would have lost in an earlier round");
            }
            if p & bit != 0 {
                // Loser: report to the statically-known winner, then wait.
                let winner = p & !bit;
                let out = self.arrival(k, winner);
                cpu.write_u64(out, my_ep + 1).await;
                cpu.poststore(out).await;
                if self.use_global_flag {
                    cpu.spin_until_gt(self.global_flag, my_ep).await;
                } else {
                    cpu.spin_until_gt(self.wakeups.addr(p), my_ep).await;
                }
                lost_at = k;
                break;
            }
            // Winner: wait for the loser's report (if that peer exists).
            let peer = p | bit;
            if peer < self.n {
                cpu.spin_until_gt(self.arrival(k, p), my_ep).await;
            }
        }
        if self.use_global_flag {
            if lost_at == self.rounds {
                // Champion: one write wakes everyone (read-snarfing turns
                // the re-reads into a single ring transaction).
                cpu.write_u64(self.global_flag, my_ep + 1).await;
                cpu.poststore(self.global_flag).await;
            }
            return;
        }
        // Tree wake-up: wake the peers I defeated, top-down.
        for j in (0..lost_at).rev() {
            let peer = p | (1usize << j);
            if peer < self.n {
                let w = self.wakeups.addr(peer);
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
    fn straggler_holds_everyone_both_variants() {
        for flag in [false, true] {
            let mut m = Machine::ksr1(7).unwrap();
            let b = TournamentBarrier::alloc(&mut m, 8, flag).unwrap();
            let r = m
                .run(
                    (0..8)
                        .map(|p| {
                            program(move |mut cpu| async move {
                                let mut ep = Episode::default();
                                cpu.compute(if p == 5 { 60_000 } else { 100 });
                                b.wait(&mut cpu, &mut ep).await;
                            })
                        })
                        .collect(),
                )
                .expect("run");
            for p in 0..8 {
                assert!(
                    r.proc_end[p] >= 60_000,
                    "flag={flag} proc {p} escaped early"
                );
            }
        }
    }

    #[test]
    fn repeated_episodes() {
        for flag in [false, true] {
            let mut m = Machine::ksr1(8).unwrap();
            let b = TournamentBarrier::alloc(&mut m, 6, flag).unwrap();
            m.run(
                (0..6)
                    .map(|p| {
                        program(move |mut cpu| async move {
                            let mut ep = Episode::default();
                            for e in 0..5 {
                                cpu.compute(((p * 73 + e * 41) % 400) as u64);
                                b.wait(&mut cpu, &mut ep).await;
                            }
                        })
                    })
                    .collect(),
            )
            .expect("run");
        }
    }

    #[test]
    fn single_proc_noop() {
        let mut m = Machine::ksr1(9).unwrap();
        let b = TournamentBarrier::alloc(&mut m, 1, false).unwrap();
        let r = m
            .run(vec![program(move |mut cpu| async move {
                let mut ep = Episode::default();
                b.wait(&mut cpu, &mut ep).await;
            })])
            .expect("run");
        assert!(r.duration_cycles() < 10);
    }
}
