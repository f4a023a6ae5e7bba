//! Deterministic pseudo-random number generation.
//!
//! The KSR-1's caches use a *random replacement policy* (§2 of the paper),
//! and the paper's measurement methodology leans on that fact (e.g. the
//! sub-cache flush trick in §3.1 re-reads a filler array "to improve the
//! chance of the sub-cache being filled"). The simulator reproduces random
//! replacement with this small xorshift generator so that a machine seed
//! fully determines every simulation — a requirement for reproducible
//! experiments and for resimulating a failure.

/// A 64-bit xorshift* PRNG (Marsaglia 2003, Vigna's `xorshift64*` variant).
///
/// Not cryptographic; chosen for determinism, tiny state, and speed in the
/// cache-replacement hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant because xorshift has an all-zero fixed point.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Derive an independent stream for a subcomponent (e.g. one cache out
    /// of many) from this seed and the component's index.
    #[must_use]
    pub fn derive(&self, stream: u64) -> Self {
        // SplitMix64 step over (state, stream) gives well-separated streams.
        let mut z = self
            .state
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self::new(z ^ (z >> 31))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// If `bound` is zero: the range is empty.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Multiply-shift range reduction (Lemire); slight modulo bias is
        // irrelevant for replacement-way selection.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn empty_range_panics_in_every_build() {
        let _ = XorShift64::new(1).next_below(0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn derived_streams_differ_from_parent_and_each_other() {
        let parent = XorShift64::new(7);
        let mut s0 = parent.derive(0);
        let mut s1 = parent.derive(1);
        let mut p = parent.clone();
        assert_ne!(s0.next_u64(), s1.next_u64());
        assert_ne!(parent.derive(0).next_u64(), p.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = XorShift64::new(3);
        for _ in 0..10_000 {
            assert!(r.next_below(16) < 16);
            assert_eq!(r.next_below(1), 0);
        }
    }

    #[test]
    fn next_below_hits_all_residues() {
        let mut r = XorShift64::new(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.next_index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 residues should appear");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = XorShift64::new(11);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_f64_roughly_uniform() {
        let mut r = XorShift64::new(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_bool_extremes() {
        let mut r = XorShift64::new(17);
        assert!(!(0..100).any(|_| r.next_bool(0.0)));
        assert!((0..100).all(|_| r.next_bool(1.0)));
    }
}
