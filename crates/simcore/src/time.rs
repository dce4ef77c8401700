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

    /// Scale by a non-negative factor, rounding to the nearest second
    /// (halves up) and saturating: [`DurationScale::new`]`(factor)`
    /// applied once. A caller that scales by the same factor repeatedly
    /// builds the [`DurationScale`] once instead.
    ///
    /// # Panics
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        DurationScale::new(factor).apply(self)
    }

    /// Saturating addition.
    pub const fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

/// A non-negative factor to scale a [`SimDuration`] by, rounding to the
/// nearest second (halves up) and saturating — Alex's validity horizon,
/// `update_threshold × age`, is one. Built once from an `f64`; applying
/// it is one 64 × 64 → 128-bit multiply and no floating point, and gives
/// exactly what the `f64` expression gives,
/// `round(d as f64 * factor)` saturated at [`SimDuration::MAX`], for
/// every duration and factor.
///
/// **How.** When `t·2⁶⁴` is an integer `F` below 2⁶⁴ — true of every
/// `f64` factor `t` in [2⁻¹², 1), whose significand's last bit is worth
/// at least 2⁻⁶⁴, and of 0 — the scale holds `F`, and for a duration
/// `a < 2³²` the 128-bit product `a·F = a·t·2⁶⁴` is exact: its high word
/// is `⌊a·t⌋` and its low word `lo` is the fraction in units of 2⁻⁶⁴.
/// The result is the high word plus `lo ≥ 2⁶³`.
///
/// **Why that is the `f64` result.** `a as f64` is exact and `a·t < 2³²`,
/// so the `f64` product is within half an ulp of `a·t`: at most 2⁻²² s,
/// 2⁴² units of `lo`. Half-up
/// rounding is constant between consecutive halves, so when the exact
/// fraction is more than 2⁴² units from one half (`|lo − 2⁶³| > 2⁴²`),
/// the rounded `f64` product and the rounded exact one agree. Inside
/// that window (about 2⁻²¹ of durations), for `a ≥ 2³²`, and for factors
/// with no exact `F` (above 1, or below 2⁻¹² with bits past 2⁻⁶⁴), the
/// `f64` expression itself is evaluated, in the same call.
///
/// **A factor of 1** (Alex 100 %) is held as `F = 2⁶⁴ − 1`: for
/// `1 ≤ a < 2³²`, `a·F = (a − 1)·2⁶⁴ + (2⁶⁴ − a)`, whose low word is at
/// least 2⁶⁴ − 2³², far from the half, so the result is `a` (and 0 at
/// `a = 0`), as `a as f64 * 1.0` rounds to. A factor of 0 is `F = 0`:
/// every result is 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationScale {
    factor: f64,
    /// `factor · 2⁶⁴` (2⁶⁴ − 1 at a factor of 1); 0 when `guard` sends
    /// every duration to the `f64` expression.
    fixed: u64,
    /// How far from 2⁶³ a product's low word must be for the fixed-point
    /// rounding to stand: the `f64` product's error bound, 2⁴², or
    /// `u64::MAX` (never) when the factor has no exact `fixed`.
    guard: u64,
}

/// 2⁶⁴, exactly.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
/// A product's low word at a half second.
const HALF: u64 = 1 << 63;
/// The `f64` product's largest error, in units of 2⁻⁶⁴ s, for a product
/// below 2³² s (see [`DurationScale`]).
const F64_PRODUCT_ERROR: u64 = 1 << 42;

impl DurationScale {
    /// The scale by `factor`.
    ///
    /// # Panics
    /// Panics if `factor` is negative or NaN.
    pub fn new(factor: f64) -> Self {
        assert!(factor >= 0.0, "duration scale factor must be non-negative");
        let wide = factor * TWO_POW_64;
        let (fixed, guard) = if factor == 1.0 {
            (u64::MAX, F64_PRODUCT_ERROR)
        } else if wide < TWO_POW_64 && wide as u64 as f64 == wide {
            (wide as u64, F64_PRODUCT_ERROR)
        } else {
            (0, u64::MAX)
        };
        DurationScale {
            factor,
            fixed,
            guard,
        }
    }

    /// The factor this scale was built from.
    pub fn factor(self) -> f64 {
        self.factor
    }

    /// `d × factor`, rounded to the nearest second (halves up) and
    /// saturating at [`SimDuration::MAX`].
    #[inline]
    pub fn apply(self, d: SimDuration) -> SimDuration {
        if let Ok(a) = u32::try_from(d.0) {
            let product = u128::from(self.fixed) * u128::from(a);
            let (whole, frac) = ((product >> 64) as u64, product as u64);
            if frac.abs_diff(HALF) > self.guard {
                return SimDuration(whole + u64::from(frac >= HALF));
            }
        }
        scale_f64(d, self.factor)
    }
}

/// The `f64` expression [`DurationScale::apply`] is exact against, for
/// the durations and factors its fixed point does not decide.
#[cold]
fn scale_f64(d: SimDuration, factor: f64) -> SimDuration {
    let scaled = d.0 as f64 * factor;
    if scaled >= u64::MAX as f64 {
        SimDuration::MAX
    } else {
        SimDuration(round_to_u64(scaled))
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

    /// The expression `SimDuration::mul_f64` evaluated before
    /// [`DurationScale`]: the oracle its results are checked against.
    fn f64_scaled(secs: u64, factor: f64) -> u64 {
        let scaled = secs as f64 * factor;
        if scaled >= u64::MAX as f64 {
            u64::MAX
        } else {
            scaled.round() as u64
        }
    }

    #[test]
    fn a_scale_is_fixed_point_where_its_docs_say() {
        let below_2_pow_12 = f64::from_bits(2f64.powi(-12).to_bits() - 1);
        for (factor, fixed) in [
            (0.0, Some(0)),
            (1.0, Some(u64::MAX)),
            (0.5, Some(1 << 63)),
            (2f64.powi(-12), Some(1 << 52)),
            (2f64.powi(-20), Some(1 << 44)),
            (0.1, Some(0x1999_9999_9999_9A00)),
            (below_2_pow_12, None),
            (1.0 + f64::EPSILON, None),
            (10.0, None),
            (f64::INFINITY, None),
        ] {
            let scale = DurationScale::new(factor);
            assert_eq!(scale.factor().to_bits(), factor.to_bits());
            match fixed {
                Some(f) => assert_eq!(
                    (scale.fixed, scale.guard),
                    (f, F64_PRODUCT_ERROR),
                    "{factor}"
                ),
                None => assert_eq!(scale.guard, u64::MAX, "{factor}"),
            }
        }
    }

    #[test]
    fn a_scale_rounds_halves_up_and_saturates_as_f64_does() {
        let limit = u64::from(u32::MAX);
        for (secs, factor, want) in [
            (3, 0.5, 2),
            (5, 0.5, 3),
            (limit, 0.5, 1 << 31),
            (0, 1.0, 0),
            (1, 1.0, 1),
            (limit, 1.0, limit),
            (limit + 1, 1.0, limit + 1),
            (u64::MAX, 0.0, 0),
            (limit, 0.0, 0),
            (7, 10.0, 70),
            (u64::MAX, 2.0, u64::MAX),
            (1 << 40, 0.1, 109_951_162_778),
            // Inside the near-half window: the f64 product rounds to
            // n + ½ and so up, where the fixed point alone would
            // round the exact product, just under it, down.
            (2_706_549_150, 0.99, 2_679_483_659),
            (3_964_155_450, 0.99, 3_924_513_896),
        ] {
            let got = DurationScale::new(factor).apply(SimDuration::from_secs(secs));
            assert_eq!(got.as_secs(), want, "{secs} × {factor}");
            assert_eq!(want, f64_scaled(secs, factor), "{secs} × {factor}");
            assert_eq!(SimDuration::from_secs(secs).mul_f64(factor), got);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn a_negative_scale_panics() {
        let _ = DurationScale::new(-0.25);
    }

    /// Every age in [0, 2²⁷) and in the top 2²⁴ below 2³² — where the
    /// `f64` product's error is largest and the near-half window
    /// decides most — at every integer percent 0–100 (CERN's default LM
    /// fraction, 0.1, is bit for bit 10 / 100), against the `f64`
    /// expression: 1.5·10¹⁰ cases, run in release by CI
    /// (`cargo test --release -p simcore -- --ignored`, ~52 s on a
    /// 2-vCPU x86-64 VM). Every value here is below 2³², so the oracle's
    /// conversions go through `i64`, exact there and a third cheaper
    /// than `u64`'s; it rounds as `round_to_u64`, which
    /// `rounding_is_f64_rounds` holds to `f64::round`.
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn every_low_and_top_age_at_every_percent_is_f64_exact() {
        assert_eq!(0.1f64.to_bits(), (10.0f64 / 100.0).to_bits());
        let top = 1i64 << 32;
        for pct in 0..=100u32 {
            let factor = f64::from(pct) / 100.0;
            let scale = DurationScale::new(factor);
            let wrong = (0..1i64 << 27)
                .chain(top - (1 << 24)..top)
                .filter(|&a| {
                    let x = a as f64 * factor;
                    let t = x as i64;
                    let want = t + i64::from(x - t as f64 >= 0.5);
                    scale.apply(SimDuration(a as u64)).0 != want as u64
                })
                .count();
            assert_eq!(wrong, 0, "{pct} %: {wrong} ages differ");
        }
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
