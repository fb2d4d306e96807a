//! Simulated time.
//!
//! The discrete-event simulator and all RVaaS components measure time in
//! [`SimTime`], a monotone count of nanoseconds since the start of the
//! simulation. Using a dedicated type (rather than `std::time::Duration` or a
//! raw integer) keeps wall-clock time and simulated time from being mixed up.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` is also used to express durations (the difference of two points);
/// the arithmetic operators below make both usages convenient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Returns the value in nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the value in microseconds (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the value in milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the value in seconds as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - other`, or zero if `other > self`.
    #[must_use]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition, `None` on overflow.
    #[must_use]
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(a + b, SimTime::from_micros(14));
        assert_eq!(a - b, SimTime::from_micros(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_micros(14));
        assert_eq!(SimTime::MAX.checked_add(SimTime(1)), None);
        assert_eq!(a.checked_add(b), Some(SimTime::from_micros(14)));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_millis(1) < SimTime::from_secs(1));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
    }
}
