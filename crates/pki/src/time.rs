//! Virtual time.
//!
//! The study runs entirely on a virtual clock (DESIGN.md §6): dynamic
//! analysis "waits 30 seconds" by advancing a counter, and certificate
//! expiry is evaluated against the same counter. [`SimTime`] is seconds
//! since the simulation epoch; the world generator places "now" a few
//! simulated years after the epoch so that certificates can have history.

use core::fmt;
use core::ops::{Add, Sub};

/// One hour in seconds.
pub const HOUR: u64 = 3_600;
/// One day in seconds.
pub const DAY: u64 = 86_400;
/// One (365-day) year in seconds.
pub const YEAR: u64 = 365 * DAY;

/// A point in virtual time (seconds since the simulation epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const EPOCH: SimTime = SimTime(0);

    /// Builds a time `years`/`days`/`secs` after the epoch.
    pub fn at(years: u64, days: u64, secs: u64) -> Self {
        SimTime(years * YEAR + days * DAY + secs)
    }

    /// Seconds since the epoch.
    pub fn secs(self) -> u64 {
        self.0
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, secs: u64) -> SimTime {
        SimTime(self.0.saturating_add(secs))
    }
}

impl Sub<u64> for SimTime {
    type Output = SimTime;
    fn sub(self, secs: u64) -> SimTime {
        SimTime(self.0.saturating_sub(secs))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let years = self.0 / YEAR;
        let days = (self.0 % YEAR) / DAY;
        let secs = self.0 % DAY;
        write!(f, "Y{years}+{days}d{secs}s")
    }
}

/// A certificate validity window `[not_before, not_after]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Validity {
    /// First instant at which the certificate is valid.
    pub not_before: SimTime,
    /// Last instant at which the certificate is valid.
    pub not_after: SimTime,
}

impl Validity {
    /// A window starting at `from` and lasting `duration_secs`.
    pub fn starting(from: SimTime, duration_secs: u64) -> Self {
        Validity {
            not_before: from,
            not_after: from + duration_secs,
        }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        self.not_before <= now && now <= self.not_after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_composes_units() {
        assert_eq!(SimTime::at(1, 1, 1).secs(), YEAR + DAY + 1);
    }

    #[test]
    fn add_sub_roundtrip() {
        let t = SimTime(1000);
        assert_eq!((t + 50) - 50, t);
    }

    #[test]
    fn sub_saturates() {
        assert_eq!(SimTime(10) - 100, SimTime(0));
    }

    #[test]
    fn validity_contains_bounds() {
        let v = Validity::starting(SimTime(100), 50);
        assert!(v.contains(SimTime(100)));
        assert!(v.contains(SimTime(150)));
        assert!(!v.contains(SimTime(99)));
        assert!(!v.contains(SimTime(151)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::at(2, 3, 4).to_string(), "Y2+3d4s");
    }
}
