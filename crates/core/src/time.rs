//! Discrete time for the homonymous system model.
//!
//! The paper assumes "time advances at discrete steps" measured by a global
//! clock whose values are the natural numbers, and that **processes cannot
//! access this clock**. [`Time`] and [`Span`] are the formalization tool:
//! they are used by the simulator, the failure schedule, the oracles and the
//! property checkers, but algorithm code only ever observes time through
//! timers it sets itself.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point on the discrete global clock (a natural number of ticks).
///
/// # Examples
///
/// ```
/// use homonym_core::time::{Time, Span};
///
/// let t = Time::ZERO + Span::from_ticks(5);
/// assert_eq!(t.ticks(), 5);
/// assert!(t > Time::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A length of (discrete) time: the difference between two [`Time`] values.
///
/// # Examples
///
/// ```
/// use homonym_core::time::{Time, Span};
///
/// let a = Time::from_ticks(3);
/// let b = Time::from_ticks(10);
/// assert_eq!(b - a, Span::from_ticks(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span(u64);

impl Time {
    /// The origin of the global clock.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as "never" by failure schedules.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        Time(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating difference: `self - earlier`, clamped at zero.
    #[must_use]
    pub const fn saturating_since(self, earlier: Time) -> Span {
        Span(self.0.saturating_sub(earlier.0))
    }

    /// The immediately following instant (saturating at [`Time::MAX`]).
    #[must_use]
    pub const fn next(self) -> Time {
        Time(self.0.saturating_add(1))
    }
}

impl Span {
    /// The empty span.
    pub const ZERO: Span = Span(0);
    /// A single tick.
    pub const TICK: Span = Span(1);

    /// Creates a span from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        Span(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Multiplies the span by a scalar, saturating on overflow.
    #[must_use]
    pub const fn saturating_mul(self, k: u64) -> Span {
        Span(self.0.saturating_mul(k))
    }
}

impl Add<Span> for Time {
    type Output = Time;
    fn add(self, rhs: Span) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Span> for Time {
    fn add_assign(&mut self, rhs: Span) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Span;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Time::saturating_since`] when the ordering is not guaranteed.
    fn sub(self, rhs: Time) -> Span {
        debug_assert!(self >= rhs, "time subtraction underflow");
        Span(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Span> for Span {
    type Output = Span;
    fn add(self, rhs: Span) -> Span {
        Span(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Span> for Span {
    fn add_assign(&mut self, rhs: Span) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl From<u64> for Time {
    fn from(ticks: u64) -> Self {
        Time(ticks)
    }
}

impl From<u64> for Span {
    fn from(ticks: u64) -> Self {
        Span(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_span_advances_time() {
        assert_eq!(
            Time::from_ticks(2) + Span::from_ticks(3),
            Time::from_ticks(5)
        );
    }

    #[test]
    fn sub_yields_span() {
        assert_eq!(
            Time::from_ticks(9) - Time::from_ticks(4),
            Span::from_ticks(5)
        );
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            Time::from_ticks(1).saturating_since(Time::from_ticks(9)),
            Span::ZERO
        );
    }

    #[test]
    fn next_is_strictly_later() {
        let t = Time::from_ticks(7);
        assert!(t.next() > t);
        assert_eq!(Time::MAX.next(), Time::MAX);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_ticks(1) < Time::from_ticks(2));
        assert!(Span::from_ticks(1) < Span::from_ticks(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_ticks(12).to_string(), "t12");
        assert_eq!(Span::from_ticks(3).to_string(), "3t");
    }

    #[test]
    fn overflow_saturates() {
        assert_eq!(Time::MAX + Span::TICK, Time::MAX);
        assert_eq!(
            Span::from_ticks(u64::MAX).saturating_mul(2),
            Span::from_ticks(u64::MAX)
        );
    }
}
