//! Virtual time.
//!
//! The simulation clock counts *ticks*; one tick is nominally one
//! microsecond of 1983-era machine time, but nothing depends on the
//! absolute calibration — only on ordering and on ratios between the cost
//! constants in the kernel's cost model.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the virtual clock, in ticks since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(pub u64);

/// A span of virtual time, in ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl VTime {
    /// The zero point of the virtual clock.
    pub const ZERO: VTime = VTime(0);

    /// A time later than any time a simulation will reach.
    pub const MAX: VTime = VTime(u64::MAX);

    /// Returns the raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: VTime) -> Dur {
        debug_assert!(earlier <= self, "VTime::since: earlier > self");
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Dur) -> VTime {
        VTime(self.0.saturating_add(d.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);

    /// Builds a duration from a tick count.
    pub fn ticks(n: u64) -> Dur {
        Dur(n)
    }

    /// Returns the raw tick count.
    pub fn as_ticks(self) -> u64 {
        self.0
    }

    /// Scales the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }
}

impl Add<Dur> for VTime {
    type Output = VTime;

    fn add(self, rhs: Dur) -> VTime {
        VTime(self.0.checked_add(rhs.0).expect("virtual clock overflow"))
    }
}

impl AddAssign<Dur> for VTime {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Add for Dur {
    type Output = Dur;

    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for VTime {
    type Output = Dur;

    fn sub(self, rhs: VTime) -> Dur {
        self.since(rhs)
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_since_round_trip() {
        let t = VTime(100) + Dur(50);
        assert_eq!(t, VTime(150));
        assert_eq!(t.since(VTime(100)), Dur(50));
    }

    #[test]
    fn ordering_is_by_tick() {
        assert!(VTime(1) < VTime(2));
        assert!(Dur(3) > Dur(2));
    }

    #[test]
    fn saturating_ops_do_not_overflow() {
        assert_eq!(VTime::MAX.saturating_add(Dur(1)), VTime::MAX);
        assert_eq!(Dur(u64::MAX).saturating_mul(2), Dur(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "virtual clock overflow")]
    fn checked_add_panics_on_overflow() {
        let _ = VTime::MAX + Dur(1);
    }
}
