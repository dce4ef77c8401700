//! Virtual time for the simulation.
//!
//! The paper's simulations operate at second granularity over horizons of
//! weeks to months (e.g. a 56-day base-simulator run, a 186-day Boston
//! University measurement window). A `u64` count of seconds is exact over
//! any such horizon and keeps event ordering total and deterministic.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant of virtual time, measured in whole seconds since the start of
/// the simulation (or since the epoch of a trace being replayed).
///
/// Aligned to 4 bytes, not 8, so that a request stream's
/// `(SimTime, FileId)` is 12 bytes rather than 16 with padding, and so is
/// `Option<SimTime>`. The field may then sit at an address that is not a
/// multiple of 8: it is read by value and never borrowed (`&t.0` is error
/// E0793). The unaligned loads cost nothing measured (EXPERIMENTS.md,
/// "Virtual time is 4-byte aligned").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(Rust, packed(4))]
pub struct SimTime(u64);

const _: () = assert!(core::mem::align_of::<SimTime>() == 4);
const _: () = assert!(core::mem::size_of::<(SimTime, crate::FileId)>() == 12);
const _: () = assert!(core::mem::size_of::<Option<SimTime>>() == 12);

/// A span of virtual time in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for never-expiring entries.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct an instant from a count of seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// The instant as a count of seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future (trace timestamps are occasionally non-monotonic;
    /// saturation keeps age computations total).
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Advance by `d`, saturating at [`SimTime::MAX`].
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration ("never expires").
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Construct from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600)
    }

    /// Construct from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    /// The duration as a count of seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The duration in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// The duration in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// Scale by a non-negative factor, rounding to the nearest second and
    /// saturating. Used by the Alex protocol, whose validity horizon is
    /// `update_threshold × age`.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0, "duration scale factor must be non-negative");
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(scaled.round() as u64)
        }
    }

    /// Saturating addition.
    pub const fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: instant + duration"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: instant - duration"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: later - earlier"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration overflow in addition"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow in subtraction"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.0 / 86_400;
        let rem = self.0 % 86_400;
        let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
        write!(f, "{days}d{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "forever");
        }
        let days = self.0 / 86_400;
        let rem = self.0 % 86_400;
        let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
        if days > 0 {
            write!(f, "{days}d{h:02}h{m:02}m{s:02}s")
        } else if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}s")
        } else {
            write!(f, "{s}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(42).as_secs(), 42);
        assert_eq!(SimDuration::from_secs(42).as_secs(), 42);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_hours(2).as_secs(), 7200);
        assert_eq!(SimDuration::from_days(2).as_secs(), 172_800);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_secs(50);
        assert_eq!((t + d).as_secs(), 150);
        assert_eq!((t - d).as_secs(), 50);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn saturating_since_handles_reordered_timestamps() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(20);
        assert_eq!(late.saturating_since(early).as_secs(), 10);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_subtraction_panics_on_underflow() {
        let _ = SimTime::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    fn alex_scaling_rounds_and_saturates() {
        // 30 days of age at a 10 % update threshold => 3 days of validity,
        // the worked example from the paper's introduction.
        let age = SimDuration::from_days(30);
        assert_eq!(age.mul_f64(0.10), SimDuration::from_days(3));
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs(3).mul_f64(0.5),
            SimDuration::from_secs(2)
        ); // rounds
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(90_061).to_string(), "1d01:01:01");
        assert_eq!(format!("{:?}", SimTime::from_secs(5)), "SimTime(5)");
        assert_eq!(SimDuration::from_secs(59).to_string(), "59s");
        assert_eq!(SimDuration::from_secs(61).to_string(), "1m01s");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3h00m00s");
        assert_eq!(SimDuration::MAX.to_string(), "forever");
    }

    #[test]
    fn fractional_views() {
        assert!((SimDuration::from_hours(36).as_days_f64() - 1.5).abs() < 1e-12);
        assert!((SimDuration::from_mins(90).as_hours_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_chronological() {
        let mut v = vec![
            SimTime::from_secs(5),
            SimTime::from_secs(1),
            SimTime::from_secs(3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(3),
                SimTime::from_secs(5)
            ]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::FileId;
    use core::hash::{Hash, Hasher};
    use proptest::prelude::*;

    /// A hasher that keeps every byte it is fed.
    #[derive(Default)]
    struct Fed(Vec<u8>);

    impl Hasher for Fed {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    fn fed(value: impl Hash) -> Vec<u8> {
        let mut h = Fed::default();
        value.hash(&mut h);
        h.0
    }

    proptest! {
        /// The 4-byte alignment changes no comparison, hash or `Debug`
        /// output: each is `u64`'s, for far-apart and neighbouring pairs.
        #[test]
        fn packing_keeps_u64_semantics(a in any::<u64>(), b in any::<u64>(), near in 0u64..3) {
            for (x, y) in [(a, b), (a, a), (a, a.wrapping_add(near))] {
                let (tx, ty) = (SimTime::from_secs(x), SimTime::from_secs(y));
                prop_assert_eq!(tx.cmp(&ty), x.cmp(&y));
                prop_assert_eq!(tx.partial_cmp(&ty), Some(x.cmp(&y)));
                prop_assert_eq!(tx == ty, x == y);
                prop_assert_eq!(fed(tx), fed(x));
                prop_assert_eq!(fed((tx, FileId(7))), fed((x, FileId(7))));
                prop_assert_eq!(format!("{tx:?}"), format!("SimTime({x})"));
            }
            prop_assert_eq!(SimTime::from_secs(a).cmp(&SimTime::MAX), a.cmp(&u64::MAX));
        }
    }
}
