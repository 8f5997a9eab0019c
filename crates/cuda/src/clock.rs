//! Deterministic virtual time.
//!
//! All simulated durations (I/O, kernel execution, callback overhead)
//! accumulate on [`VirtualClock`]s counted in nanoseconds. Using virtual
//! instead of wall time makes every experiment bit-reproducible and
//! decouples the modelled system's speed from the host machine running
//! the simulation.
//!
//! One run keeps two clocks: the workload's own time, and the overhead
//! attached profilers add on top of it (see [`crate::cupti`]). Their sum
//! is the profiled run's time; the first alone is the same run without
//! the profilers, so one run measures both.

/// A monotonically advancing nanosecond counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VirtualClock {
    ns: u64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock { ns: 0 }
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns
    }

    /// Advance the clock by `ns` nanoseconds (saturating).
    pub fn advance(&mut self, ns: u64) {
        self.ns = self.ns.saturating_add(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_reports() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(1_500_000_000);
        assert_eq!(c.now_ns(), 1_500_000_000);
    }

    #[test]
    fn advance_saturates_at_max() {
        let mut c = VirtualClock::new();
        c.advance(u64::MAX);
        c.advance(10);
        assert_eq!(c.now_ns(), u64::MAX);
    }
}
