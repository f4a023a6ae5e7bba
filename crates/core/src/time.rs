//! Virtual time.
//!
//! Everything in the simulator is accounted in **processor clock cycles**.
//! The KSR-1 cell is clocked at 20 MHz (50 ns cycle); the KSR-2 is the same
//! machine clocked at 40 MHz. The paper reports some results in seconds and
//! some in cycles; [`cycles_to_seconds`] takes the clock explicitly so
//! conversions cannot be mixed up between the two machines.

/// A duration or instant measured in processor clock cycles.
pub type Cycles = u64;

/// A clock rate in Hertz.
pub type Hz = u64;

/// KSR-1 cell clock: 20 MHz (50 ns per cycle).
pub const KSR1_CLOCK_HZ: Hz = 20_000_000;

/// KSR-2 cell clock: 40 MHz. The paper (§3.2.4) states the processor clock
/// is the *only* architectural difference from the KSR-1; the ring and the
/// memory hierarchy are identical.
pub const KSR2_CLOCK_HZ: Hz = 40_000_000;

/// Convert a cycle count to seconds at a given clock rate.
#[must_use]
pub fn cycles_to_seconds(cycles: Cycles, clock_hz: Hz) -> f64 {
    cycles as f64 / clock_hz as f64
}

/// Convert seconds to a cycle count at a given clock rate (rounded to the
/// nearest cycle).
#[must_use]
pub fn seconds_to_cycles(seconds: f64, clock_hz: Hz) -> Cycles {
    (seconds * clock_hz as f64).round() as Cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ksr1_cycle_is_50ns() {
        assert!((cycles_to_seconds(1, KSR1_CLOCK_HZ) - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn ksr2_cycle_is_half_a_ksr1_cycle() {
        let one = cycles_to_seconds(1, KSR1_CLOCK_HZ);
        let two = cycles_to_seconds(1, KSR2_CLOCK_HZ);
        assert!((one - 2.0 * two).abs() < 1e-15);
    }

    #[test]
    fn seconds_cycles_roundtrip() {
        for &c in &[0u64, 1, 17, 20_000_000, 123_456_789] {
            let s = cycles_to_seconds(c, KSR1_CLOCK_HZ);
            assert_eq!(seconds_to_cycles(s, KSR1_CLOCK_HZ), c);
        }
    }
}
