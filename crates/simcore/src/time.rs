//! Virtual time for the simulation.
//!
//! The paper's simulations operate at second granularity over horizons of
//! weeks to months (e.g. a 56-day base-simulator run, a 186-day Boston
//! University measurement window). An instant is a `u32` count of
//! seconds: its horizon, 2³² − 1 s, is 136 years, so it is exact over any
//! such window and keeps event ordering total and deterministic. A span
//! is a `u64` count of seconds, so "forever" is a duration, not an
//! instant.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant of virtual time, measured in whole seconds since the start of
/// the simulation (or since the epoch of a trace being replayed).
///
/// Four bytes: a request stream's `(SimTime, FileId)` is 8 bytes, and so
/// is `Option<SimTime>` (EXPERIMENTS.md, "A virtual instant is 4 bytes").
/// The horizon is [`SimTime::MAX`], 2³² − 1 s; it doubles as the "never"
/// sentinel of an entry that does not expire. [`SimTime::from_secs`]
/// panics past it, so input the program does not control — an HTTP date,
/// a log line — goes through [`SimTime::try_from_secs`].
///
/// Order, equality and `Debug` (`SimTime(<secs>)`) are those of the
/// count of seconds, and `Hash` feeds the hasher the count as the 8 bytes
/// of a `u64`, as it did when an instant was one: every hash pinned over
/// instants holds across the narrowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimTime(u32);

const _: () = assert!(core::mem::size_of::<(SimTime, crate::FileId)>() == 8);
const _: () = assert!(core::mem::size_of::<Option<SimTime>>() == 8);

/// A span of virtual time in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The last representable instant, 2³² − 1 s; also the "infinitely
    /// far" sentinel for never-expiring entries.
    pub const MAX: SimTime = SimTime(u32::MAX);

    /// Construct an instant from a count of seconds.
    ///
    /// # Panics
    /// Panics if `secs` is past [`SimTime::MAX`].
    #[inline]
    #[track_caller]
    pub const fn from_secs(secs: u64) -> Self {
        match SimTime::try_from_secs(secs) {
            Some(t) => t,
            None => past_the_horizon(secs),
        }
    }

    /// An instant from a count of seconds, or `None` past
    /// [`SimTime::MAX`]: for counts the program does not control.
    #[inline]
    pub const fn try_from_secs(secs: u64) -> Option<Self> {
        if secs <= u32::MAX as u64 {
            Some(SimTime(secs as u32))
        } else {
            None
        }
    }

    /// The instant as a count of seconds.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 as u64
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future (trace timestamps are occasionally non-monotonic;
    /// saturation keeps age computations total).
    #[inline]
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0) as u64)
    }

    /// Advance by `d`, saturating at [`SimTime::MAX`].
    #[inline]
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        match SimTime::try_from_secs(self.as_secs().saturating_add(d.0)) {
            Some(t) => t,
            None => SimTime::MAX,
        }
    }
}

/// The panic of [`SimTime::from_secs`], naming `secs`. In a `const fn`
/// `panic!` formats a `&str` only, so the digits are written out here.
#[cold]
#[track_caller]
const fn past_the_horizon(secs: u64) -> ! {
    const HEAD: &[u8] = b"SimTime instant ";
    const TAIL: &[u8] = b" s is past the u32 limit of 4294967295 s";
    let mut msg = [0u8; HEAD.len() + 20 + TAIL.len()];
    let mut len = 0;
    while len < HEAD.len() {
        msg[len] = HEAD[len];
        len += 1;
    }
    let (mut digits, mut rest) = (1, secs);
    while rest >= 10 {
        digits += 1;
        rest /= 10;
    }
    let (mut i, mut rest) = (digits, secs);
    while i > 0 {
        i -= 1;
        msg[len + i] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    len += digits;
    let mut j = 0;
    while j < TAIL.len() {
        msg[len + j] = TAIL[j];
        j += 1;
    }
    match core::str::from_utf8(msg.split_at(len + TAIL.len()).0) {
        Ok(text) => panic!("{}", text),
        Err(_) => unreachable!(),
    }
}

impl Hash for SimTime {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_secs().hash(state);
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
            SimDuration(round_to_u64(scaled))
        }
    }

    /// Saturating addition.
    pub const fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

/// `x.round() as u64` for `x < 2⁶⁴` without libm's `round`, which
/// baseline x86-64 calls out of line: the truncation, plus one when the
/// fraction it drops (exact in `f64`) is at least a half. A negative or
/// NaN `x` gives 0, as the cast does.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        self.as_secs()
            .checked_add(rhs.0)
            .and_then(SimTime::try_from_secs)
            .expect("SimTime overflow: instant + duration")
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        let secs = self
            .as_secs()
            .checked_sub(rhs.0)
            .expect("SimTime underflow: instant - duration");
        // At most `self`, so inside the horizon.
        SimTime(secs as u32)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        let secs = self
            .0
            .checked_sub(rhs.0)
            .expect("SimTime underflow: later - earlier");
        SimDuration(u64::from(secs))
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
    fn the_last_instant_is_u32_max_seconds() {
        let last = SimTime::from_secs(u64::from(u32::MAX));
        assert_eq!(last, SimTime::MAX);
        assert_eq!(SimTime::try_from_secs(1 << 32), None);
        assert_eq!(last.saturating_add(SimDuration::MAX), SimTime::MAX);
        assert_eq!(
            last - SimTime::ZERO,
            SimDuration::from_secs(u64::from(u32::MAX))
        );
    }

    #[test]
    #[should_panic(expected = "SimTime instant 4294967296 s is past the u32 limit of 4294967295 s")]
    fn construction_past_the_horizon_panics_naming_the_instant() {
        let _ = SimTime::from_secs(1 << 32);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn strict_addition_panics_past_the_horizon() {
        let _ = SimTime::MAX + SimDuration::from_secs(1);
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
        /// A `u32` count changes no comparison, hash or `Debug` output:
        /// each is the `u64` count's, for far-apart and neighbouring
        /// pairs, and for the horizon.
        #[test]
        fn packing_keeps_u64_semantics(a in any::<u32>(), b in any::<u32>(), near in 0u32..3) {
            for (x, y) in [(a, b), (a, a), (a, a.saturating_add(near)), (a, u32::MAX)] {
                let (x, y) = (u64::from(x), u64::from(y));
                let (tx, ty) = (SimTime::from_secs(x), SimTime::from_secs(y));
                prop_assert_eq!(tx.cmp(&ty), x.cmp(&y));
                prop_assert_eq!(tx.partial_cmp(&ty), Some(x.cmp(&y)));
                prop_assert_eq!(tx == ty, x == y);
                prop_assert_eq!(fed(tx), fed(x));
                prop_assert_eq!(fed((tx, FileId(7))), fed((x, FileId(7))));
                prop_assert_eq!(format!("{tx:?}"), format!("SimTime({x})"));
            }
            prop_assert_eq!(SimTime::from_secs(u64::from(a)).cmp(&SimTime::MAX), a.cmp(&u32::MAX));
        }

        /// The checked constructor is `from_secs` inside the horizon and
        /// `None` past it; saturating addition clamps to the horizon.
        #[test]
        fn the_horizon_is_u32_max(secs in any::<u64>(), d in any::<u64>()) {
            let limit = u64::from(u32::MAX);
            let checked = SimTime::try_from_secs(secs);
            prop_assert_eq!(checked.is_some(), secs <= limit);
            if let Some(t) = checked {
                prop_assert_eq!(t, SimTime::from_secs(secs));
                let sum = t.saturating_add(SimDuration::from_secs(d));
                prop_assert_eq!(sum.as_secs(), secs.saturating_add(d).min(limit));
            }
        }

        /// The libm-free rounding is `f64::round`'s on `[0, 2⁶⁴)`: at
        /// halves, either side of 2⁵² (the last binade with halves) and
        /// 2⁵³, at and above 2⁶³, and at any bit pattern in range.
        #[test]
        fn rounding_is_f64_rounds(
            whole in any::<u64>(),
            bits in 0u64..0x43F0_0000_0000_0000,
            shift in 0u32..64,
        ) {
            let edges = [
                0.0, 0.49999999999999994, 0.5, 1.5, 2.5,
                4_503_599_627_370_495.5, 4_503_599_627_370_496.0, 4_503_599_627_370_497.0,
                9_007_199_254_740_992.0, 9_223_372_036_854_775_808.0, 18_446_744_073_709_549_568.0,
            ];
            let drawn = [
                (whole >> shift) as f64,
                (whole >> shift) as f64 + 0.5,
                (whole >> shift) as f64 - 0.5,
                f64::from_bits(bits),
            ];
            let below_2_64 = |x: &f64| (0.0..18_446_744_073_709_551_616.0).contains(x);
            for x in edges.into_iter().chain(drawn).filter(below_2_64) {
                prop_assert_eq!(round_to_u64(x), x.round() as u64, "{}", x);
            }
        }
    }
}
