//! The Alex-family horizons — `AdaptiveTtl`, `CernPolicy`'s second
//! tier, `SelfTuningPolicy` — against the expression they were computed
//! with before `simcore::DurationScale`: the `f64` product
//! `age × factor`, rounded to the nearest second (halves up), saturated
//! and added to the validation instant. Ages are random, and also
//! constructed so the exact product lands within 2⁴² units of 2⁻⁶⁴ s of
//! a half second — the window where the rounded `f64` product can
//! differ from the rounded exact one, and the scale evaluates the `f64`
//! expression itself.

use consistency::{AdaptiveTtl, CernPolicy, Policy, SelfTuningPolicy};
use proptest::prelude::*;
use proxycache::EntryMeta;
use simcore::{SimDuration, SimTime};

/// The horizon as the `f64` expression gave it: the oracle.
fn f64_horizon(entry: &EntryMeta, factor: f64) -> SimTime {
    let age = entry.last_validated.saturating_since(entry.last_modified);
    let scaled = age.as_secs() as f64 * factor;
    let secs = if scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled.round() as u64
    };
    entry
        .last_validated
        .saturating_add(SimDuration::from_secs(secs))
}

/// A copy of `age` seconds at its last validation, modified at a point
/// `at` picks in the room left below [`SimTime::MAX`] by the age and its
/// horizon at `factor` — a horizon that saturates would hide how it
/// rounds (with no room, at 0, and it saturates).
fn entry(age: u64, factor: f64, at: u64) -> EntryMeta {
    let horizon = (age as f64 * factor).min(u64::MAX as f64) as u64;
    let room = u64::from(u32::MAX).saturating_sub(age.saturating_add(horizon).saturating_add(1));
    let modified = SimTime::from_secs(at % (room + 1));
    let mut e = EntryMeta::fresh(4_096, modified, modified);
    e.revalidate(modified + SimDuration::from_secs(age));
    e
}

const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
const HALF: u128 = 1 << 63;
const WINDOW: u128 = 1 << 42;

/// The smallest `x ≥ 0` with `l ≤ (a·x) mod m ≤ r`, for `l ≤ r < m`, by
/// the Euclid-like descent on `(a, m)`; `None` when there is none or it
/// overflows.
fn first_in_window(a: u128, m: u128, l: u128, r: u128) -> Option<u128> {
    if l == 0 {
        return Some(0);
    }
    let a = a % m;
    if a == 0 {
        return None;
    }
    let x = l.div_ceil(a);
    if a.checked_mul(x)? <= r {
        return Some(x);
    }
    // a·x steps over [l, r]: find how many wraps of m it takes, y, as
    // the smallest y with m·y mod a in [−r mod a, −l mod a].
    let y = first_in_window(m % a, a, (a - r % a) % a, (a - l % a) % a)?;
    Some(m.checked_mul(y)?.checked_add(l)?.div_ceil(a))
}

/// The first age at or after `start`, below 2³², whose exact product by
/// `factor` has a fraction within 2⁴² units of 2⁻⁶⁴ of a half — `None`
/// when `factor · 2⁶⁴` is not an integer below 2⁶⁴ (the scale holds no
/// fixed point for it) or no such age follows.
fn near_half_age(factor: f64, start: u64) -> Option<u64> {
    let wide = factor * TWO_POW_64;
    if !(wide < TWO_POW_64 && wide as u64 as f64 == wide) {
        return None;
    }
    let (f, m) = (wide as u128, 1u128 << 64);
    let at_start = u128::from(start) * f % m;
    let (l, r) = (
        (HALF - WINDOW + m - at_start) % m,
        (HALF + WINDOW + m - at_start) % m,
    );
    // A window that wraps holds 0: `start` is in it.
    let x = if l > r {
        0
    } else {
        first_in_window(f, m, l, r)?
    };
    let age = u128::from(start) + x;
    debug_assert!((age * f % m).abs_diff(HALF) <= WINDOW);
    u64::try_from(age)
        .ok()
        .filter(|&a| a <= u64::from(u32::MAX))
}

/// The ages to try at `factor`: the drawn ones, and the first near-half
/// age after each.
fn ages(factor: f64, drawn: &[u64]) -> Vec<u64> {
    let mut ages: Vec<u64> = drawn.to_vec();
    ages.extend(drawn.iter().filter_map(|&a| near_half_age(factor, a)));
    ages
}

/// Draws spread over the whole `u32` range, over [2³⁰, 2³¹) — large
/// enough for the `f64` product's error to reach across a half, small
/// enough that a horizon at a factor up to 1 fits below the last instant
/// — and over the top 2²⁴.
fn drawn(seed: u64) -> [u64; 4] {
    let low = seed & 0xFFFF_FFFF;
    let high = seed >> 32;
    [low, high, (low >> 2) | 1 << 30, (high >> 8) | 0xFF00_0000]
}

#[test]
fn near_half_ages_are_found_where_the_f64_rounds_across() {
    // 0.99 lies just under 99/100, so its exact products at ages ≡ 50
    // (mod 100) fall just short of a half: the `f64` product, rounded
    // onto n + ½, rounds up, where the exact one rounds down. At this
    // age the horizon is still the `f64` one.
    let age = near_half_age(0.99, 2_000_000_001).expect("a near-half age follows");
    assert_eq!(age, 2_000_000_050);
    let e = entry(age, 0.99, 0);
    assert_eq!(e.last_modified, SimTime::ZERO);
    assert_eq!(
        AdaptiveTtl::percent(99).expiry(&e, 0),
        f64_horizon(&e, 0.99)
    );
    assert_eq!(
        AdaptiveTtl::percent(99).expiry(&e, 0),
        SimTime::from_secs(age + 1_980_000_050)
    );
    // 64/100 reduces to 16/25: no product's fraction is ever near ½.
    assert_eq!(near_half_age(0.64, 1 << 31), None);
    assert_eq!(near_half_age(1.0, 5), None);
    assert_eq!(near_half_age(2.5, 5), None);
}

proptest! {
    /// Alex at every integer percent 0–100, the paper's x-axis.
    #[test]
    fn alex_at_every_percent_is_the_f64_horizon(seed in any::<u64>(), at in any::<u64>()) {
        for pct in 0..=100 {
            let policy = AdaptiveTtl::percent(pct);
            let factor = policy.threshold();
            for age in ages(factor, &drawn(seed)) {
                let e = entry(age, factor, at);
                prop_assert_eq!(policy.expiry(&e, 0), f64_horizon(&e, factor), "{} % at age {}", pct, age);
            }
        }
    }

    /// Alex at random fractions, inside the fixed-point range [2⁻¹², 1]
    /// and outside it (below 2⁻¹², above 1).
    #[test]
    fn alex_at_random_fractions_is_the_f64_horizon(
        unit in 0.0f64..1.0,
        wide in 0.0f64..4.0,
        tiny in 0.0f64..0.0005,
        seed in any::<u64>(),
        at in any::<u64>(),
    ) {
        for factor in [unit, wide, tiny] {
            let policy = AdaptiveTtl::new(factor);
            for age in ages(factor, &drawn(seed)) {
                let e = entry(age, factor, at);
                prop_assert_eq!(policy.expiry(&e, 0), f64_horizon(&e, factor), "{} at age {}", factor, age);
            }
        }
    }

    /// CERN's second tier (no `Expires`, a positive age) at its deployed
    /// default and at a random LM fraction.
    #[test]
    fn cern_lm_tier_is_the_f64_horizon(fraction in 0.0f64..2.0, seed in any::<u64>(), at in any::<u64>()) {
        for policy in [CernPolicy::deployed_default(), CernPolicy::new(fraction, SimDuration::from_hours(24))] {
            let factor = policy.lm_fraction();
            for age in ages(factor, &drawn(seed)).into_iter().filter(|&a| a > 0) {
                let e = entry(age, factor, at);
                prop_assert_eq!(policy.expiry(&e, 0), f64_horizon(&e, factor), "{} at age {}", factor, age);
            }
        }
    }

    /// The self-tuning policy after random feedback: each class's horizon
    /// is the `f64` one at that class's current threshold.
    #[test]
    fn self_tuning_after_feedback_is_the_f64_horizon(
        feedback in proptest::collection::vec((0usize..4, any::<bool>()), 0..60),
        seed in any::<u64>(),
        at in any::<u64>(),
    ) {
        let mut policy = SelfTuningPolicy::recommended();
        for &(class, modified) in &feedback {
            policy.on_validation(class, modified);
        }
        for class in 0..4 {
            let factor = policy.threshold(class);
            for age in ages(factor, &drawn(seed)) {
                let e = entry(age, factor, at);
                prop_assert_eq!(policy.expiry(&e, class), f64_horizon(&e, factor), "{} at age {}", factor, age);
            }
        }
    }
}
