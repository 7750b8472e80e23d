//! Simulated time.
//!
//! Every hardware model in the workspace accounts for latency in
//! [`SimTime`], a picosecond-resolution duration. Picoseconds keep the
//! arithmetic exact for every clock frequency used by the co-processor
//! (33 MHz PCI is a non-integer number of nanoseconds per cycle).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A simulated duration (or instant, measured from simulation start) with
/// picosecond resolution.
///
/// `SimTime` is an additive quantity: component models return the time an
/// operation took and callers sum them. The u64 representation covers
/// roughly 213 days of simulated time, far beyond any experiment here.
///
/// # Examples
///
/// ```
/// use aaod_sim::SimTime;
///
/// let a = SimTime::from_ns(1500);
/// let b = SimTime::from_us(1);
/// assert_eq!((a + b).as_ns(), 2500.0);
/// assert!(a > b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant: a deadline that never
    /// passes.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a duration from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration in nanoseconds (fractional).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration in microseconds (fractional).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration in milliseconds (fractional).
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This duration in seconds (fractional).
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; clamps at [`SimTime::ZERO`].
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition; clamps at [`SimTime::MAX`].
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Returns `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
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

    /// # Panics
    ///
    /// Panics on underflow; use [`SimTime::saturating_sub`] when the
    /// ordering is not statically known.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;

    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.2}ns", self.as_ns())
        } else if ps < 1_000_000_000 {
            write!(f, "{:.2}us", self.as_us())
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.2}ms", self.as_ms())
        } else {
            write!(f, "{:.3}s", self.as_secs())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_ps(), 1_000_000_000_000);
    }

    #[test]
    fn arithmetic_is_additive() {
        let mut t = SimTime::from_ns(10);
        t += SimTime::from_ns(5);
        assert_eq!(t, SimTime::from_ns(15));
        assert_eq!(t - SimTime::from_ns(5), SimTime::from_ns(10));
        assert_eq!(t * 2, SimTime::from_ns(30));
        assert_eq!(t / 3, SimTime::from_ns(5));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_ns(1));
    }

    #[test]
    fn saturating_add_clamps_at_max() {
        let a = SimTime::from_ns(1);
        assert_eq!(a.saturating_add(a), SimTime::from_ns(2));
        assert_eq!(a.saturating_add(SimTime::MAX), SimTime::MAX);
        assert!(SimTime::MAX > a);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::ZERO.to_string(), "0s");
        assert_eq!(SimTime::from_ps(500).to_string(), "500ps");
        assert_eq!(SimTime::from_ns(1).to_string(), "1.00ns");
        assert_eq!(SimTime::from_us(2).to_string(), "2.00us");
        assert_eq!(SimTime::from_ms(3).to_string(), "3.00ms");
        assert_eq!(SimTime::from_secs(4).to_string(), "4.000s");
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_ns(3);
        let b = SimTime::from_ns(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn is_zero() {
        assert!(SimTime::ZERO.is_zero());
        assert!(!SimTime::from_ps(1).is_zero());
    }
}
