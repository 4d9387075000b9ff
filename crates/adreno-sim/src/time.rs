//! Simulated time.
//!
//! The whole reproduction runs on a discrete simulated clock with nanosecond
//! resolution. Newtypes keep instants and durations from being confused with
//! each other or with raw counter values.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point on the simulated timeline, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use adreno_sim::time::{SimDuration, SimInstant};
///
/// let t = SimInstant::ZERO + SimDuration::from_millis(8);
/// assert_eq!(t.as_nanos(), 8_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use adreno_sim::time::SimDuration;
///
/// let frame = SimDuration::from_millis(16) + SimDuration::from_micros(667);
/// assert_eq!(frame.as_micros(), 16_667);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimInstant {
    /// The origin of the simulated timeline.
    pub const ZERO: SimInstant = SimInstant(0);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimInstant(ns)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimInstant(ms * 1_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later than `self`.
    pub fn saturating_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of two instants.
    ///
    /// Returns `None` when `earlier > self`.
    pub fn checked_since(self, earlier: SimInstant) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "duration must be finite and non-negative");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Length in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Checked duration subtraction; `None` on underflow.
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a float factor, rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be finite and non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}us", self.as_micros())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_round_trips() {
        let t = SimInstant::from_millis(100);
        let d = SimDuration::from_millis(8);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimInstant::from_nanos(5);
        let late = SimInstant::from_nanos(10);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_nanos(5));
    }

    #[test]
    fn checked_since_detects_order() {
        let early = SimInstant::from_nanos(5);
        let late = SimInstant::from_nanos(10);
        assert_eq!(early.checked_since(late), None);
        assert_eq!(late.checked_since(early), Some(SimDuration::from_nanos(5)));
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert!((SimDuration::from_secs_f64(0.5).as_millis()) == 500);
    }

    #[test]
    fn duration_mul_f64_rounds() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(0.25), SimDuration::from_nanos(3)); // 2.5 rounds to 3
        assert_eq!(d.mul_f64(2.0), SimDuration::from_nanos(20));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_millis(8).to_string(), "8.000ms");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
    }
}
