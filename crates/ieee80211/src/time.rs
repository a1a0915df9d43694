//! Nanosecond time quantities shared across the wifiprint suite.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A non-negative time quantity with nanosecond resolution.
///
/// All MAC/PHY timing in this suite (slot times, SIFS, air times, simulation
/// clocks) is expressed in `Nanos`. The newtype prevents accidentally mixing
/// nanoseconds with the microsecond values used in capture headers; convert
/// explicitly with [`Nanos::as_micros`] / [`Nanos::from_micros`].
///
/// # Example
///
/// ```
/// use wifiprint_ieee80211::Nanos;
///
/// let sifs = Nanos::from_micros(10);
/// let slot = Nanos::from_micros(20);
/// assert_eq!(sifs + slot * 2, Nanos::from_micros(50));
/// assert_eq!((sifs + slot).as_micros(), 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero duration / simulation epoch.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant; used as an "infinite" timeout.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a quantity from raw nanoseconds.
    #[inline]
    #[must_use] 
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a quantity from whole microseconds, saturating at
    /// [`Nanos::MAX`] (a hostile capture header can carry a TSFT near
    /// `u64::MAX` µs).
    #[inline]
    #[must_use] 
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us.saturating_mul(1_000))
    }

    /// Creates a quantity from whole milliseconds, saturating at
    /// [`Nanos::MAX`].
    #[inline]
    #[must_use] 
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms.saturating_mul(1_000_000))
    }

    /// Creates a quantity from whole seconds, saturating at
    /// [`Nanos::MAX`].
    #[inline]
    #[must_use] 
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s.saturating_mul(1_000_000_000))
    }

    /// Creates a quantity from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs saturate to zero.
    #[inline]
    #[must_use] 
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            Nanos::ZERO
        } else {
            Nanos((s * 1e9).round() as u64)
        }
    }

    /// Raw nanosecond count.
    #[inline]
    #[must_use] 
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    #[must_use] 
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional microseconds.
    #[inline]
    #[must_use] 
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Whole milliseconds (truncating).
    #[inline]
    #[must_use] 
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    #[inline]
    #[must_use] 
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    #[inline]
    #[must_use] 
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    #[must_use] 
    pub const fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// Saturating addition: returns [`Nanos::MAX`] instead of wrapping.
    #[inline]
    #[must_use] 
    pub const fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// `true` if this quantity is zero.
    #[inline]
    #[must_use] 
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two quantities.
    #[inline]
    #[must_use] 
    pub fn min(self, other: Nanos) -> Nanos {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two quantities.
    #[inline]
    #[must_use] 
    pub fn max(self, other: Nanos) -> Nanos {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; use
    /// [`Nanos::saturating_sub`] when underflow is expected.
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Rem<Nanos> for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
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

impl From<u64> for Nanos {
    /// Interprets the raw integer as nanoseconds.
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

impl From<Nanos> for u64 {
    fn from(n: Nanos) -> Self {
        n.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Nanos::from_micros(123).as_micros(), 123);
        assert_eq!(Nanos::from_millis(7).as_millis(), 7);
        assert_eq!(Nanos::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(Nanos::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(Nanos::from_secs_f64(-2.0), Nanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!(a + b, Nanos::from_micros(14));
        assert_eq!(a - b, Nanos::from_micros(6));
        assert_eq!(a * 3, Nanos::from_micros(30));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.checked_sub(b), Some(Nanos::from_micros(6)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(Nanos::MAX.saturating_add(a), Nanos::MAX);
    }

    #[test]
    fn ordering_helpers() {
        let a = Nanos::from_nanos(5);
        let b = Nanos::from_nanos(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(Nanos::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Nanos::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_iter() {
        let total: Nanos = (1..=4).map(Nanos::from_micros).sum();
        assert_eq!(total, Nanos::from_micros(10));
    }
}
