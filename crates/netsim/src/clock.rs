//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A duration / instant in simulated time, microsecond resolution.
///
/// The paper's requirements speak in human units ("hundreds of
/// milliseconds" for call delivery, "a few seconds" for reach-me
/// decisions), so [`SimTime`] displays in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From microseconds.
    pub const fn micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// From milliseconds.
    pub const fn millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000)
    }

    /// From seconds.
    pub const fn secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    /// As fractional milliseconds.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
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

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2}s", self.0 as f64 / 1_000_000.0)
        } else {
            write!(f, "{:.2}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(SimTime::millis(2) + SimTime::micros(500), SimTime::micros(2_500));
        assert_eq!(SimTime::secs(1) - SimTime::millis(1), SimTime::micros(999_000));
        assert_eq!(SimTime::millis(3) * 4, SimTime::millis(12));
        let total: SimTime = [SimTime::millis(1), SimTime::millis(2)].into_iter().sum();
        assert_eq!(total, SimTime::millis(3));
        assert_eq!(SimTime::millis(1).saturating_sub(SimTime::secs(1)), SimTime::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::millis(1) < SimTime::millis(2));
        assert!(SimTime::secs(1) > SimTime::millis(999));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::millis(250).to_string(), "250.00ms");
        assert_eq!(SimTime::secs(3).to_string(), "3.00s");
        assert_eq!(SimTime::micros(1500).to_string(), "1.50ms");
    }
}
