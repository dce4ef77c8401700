//! Update-risk-bounded freshness — after Mao, Zhang & Towsley-style
//! staleness-risk control for real-time workloads (arXiv 2412.20221).
//!
//! Time-based policies bound *when* a copy expires; an update-risk policy
//! bounds the *probability that the copy is already stale* when it is
//! served. Model origin updates to an object as a Poisson process with
//! rate `λ`; a copy validated at `v` and served at `now` (after a
//! transfer taking `delay`) has staleness risk
//!
//! ```text
//! risk = 1 − exp(−λ̂ · Δ),   Δ = (now − v) + delay
//! ```
//!
//! and the policy serves from cache exactly while `risk ≤ bound`. The
//! transfer delay *adds* to the exposure window (the copy is `Δ` old by
//! the time the client consumes it) — the conservative direction, and the
//! mirror image of [`crate::RenewableTtl`], where delay extends the
//! horizon instead. The two disagree on purpose; the figure sweeps show
//! the resulting bandwidth/staleness trade.
//!
//! The rate estimate `λ̂` combines the paper's own per-object signal with
//! per-class feedback:
//!
//! * per object, the Alex observation — time between origin modification
//!   and last validation is a proxy for the update interval, so the base
//!   rate is `1 / age`;
//! * per class, a multiplicative gain adapted by [`Policy::on_validation`]
//!   — a validation that finds the object modified doubles the class
//!   gain (we were underestimating the rate), a quiet validation decays
//!   it by 5 %; clamped to `[1/8, 32]`.
//!
//! `λ̂ = gain(class) / max(age, 1 s)`. A never-modified object (`age`
//! huge) has a tiny rate and serves for a long time; a hot object's risk
//! crosses the bound quickly.

use std::borrow::Cow;

use proxycache::EntryMeta;

use crate::policy::{Decision, Policy, RequestCtx};

const GAIN_MIN: f64 = 0.125;
const GAIN_MAX: f64 = 32.0;

/// Staleness-risk-bounded freshness: serve while the estimated
/// probability that the origin copy has changed stays within `bound`.
#[derive(Debug, Clone)]
pub struct UpdateRisk {
    bound: f64,
    /// Per-class multiplicative rate gain, MIMD-adapted from validation
    /// feedback. Indexed by class so report paths never iterate a map.
    gain: Vec<f64>,
}

impl UpdateRisk {
    /// A policy serving while staleness risk stays `<= bound`.
    ///
    /// # Panics
    /// Panics unless `bound` lies in `[0, 1)`.
    pub fn new(bound: f64) -> Self {
        assert!(
            bound.is_finite() && (0.0..1.0).contains(&bound),
            "risk bound must lie in [0, 1)"
        );
        UpdateRisk {
            bound,
            gain: Vec::new(),
        }
    }

    /// Convenience constructor: a risk bound in percent (`0..=99`).
    pub fn percent(p: u32) -> Self {
        UpdateRisk::new(f64::from(p) / 100.0)
    }

    /// The configured risk bound.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Current rate gain for `class` (1.0 until feedback arrives).
    pub fn gain(&self, class: usize) -> f64 {
        self.gain.get(class).copied().unwrap_or(1.0)
    }

    /// The estimated update rate for `entry` in `class`, per second:
    /// `gain(class) / max(age_at_validation, 1 s)`.
    pub fn rate(&self, entry: &EntryMeta, class: usize) -> f64 {
        let age = entry
            .last_validated
            .saturating_since(entry.last_modified)
            .as_secs()
            .max(1) as f64;
        self.gain(class) / age
    }

    /// The estimated probability that the origin copy has changed by the
    /// time a response delivered under `ctx` is consumed:
    /// `1 − exp(−λ̂ · Δ)` with `Δ = (now − last_validated) + delay`.
    pub fn risk(&self, entry: &EntryMeta, ctx: &RequestCtx) -> f64 {
        let exposure = ctx
            .now
            .saturating_since(entry.last_validated)
            .saturating_add(ctx.delay)
            .as_secs() as f64;
        1.0 - (-self.rate(entry, ctx.class) * exposure).exp()
    }
}

impl Policy for UpdateRisk {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("update-risk({:.0}%)", self.bound * 100.0))
    }

    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision {
        if entry.is_valid() && self.risk(entry, ctx) <= self.bound {
            Decision::Serve
        } else {
            Decision::Validate
        }
    }

    fn on_validation(&mut self, class: usize, was_modified: bool) {
        if class >= self.gain.len() {
            self.gain.resize(class + 1, 1.0);
        }
        let g = &mut self.gain[class];
        *g = if was_modified { *g * 2.0 } else { *g * 0.95 };
        *g = g.clamp(GAIN_MIN, GAIN_MAX);
    }

    fn reads_delay(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{SimDuration, SimTime};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn entry(last_modified: u64, last_validated: u64) -> EntryMeta {
        let mut e = EntryMeta::fresh(100, t(last_modified), t(last_modified));
        e.revalidate(t(last_validated));
        e
    }

    #[test]
    fn risk_is_zero_at_the_validation_instant() {
        let p = UpdateRisk::percent(5);
        let e = entry(0, 1000);
        let ctx = RequestCtx::new(t(1000), 0);
        assert_eq!(p.risk(&e, &ctx), 0.0);
        assert_eq!(p.decide(&e, &ctx), Decision::Serve);
    }

    #[test]
    fn risk_grows_with_exposure_and_crosses_the_bound() {
        let p = UpdateRisk::percent(5);
        // Age 1000s → λ̂ = 1/1000 per second. Risk hits 5 % at
        // Δ = −ln(0.95)·1000 ≈ 51.3 s.
        let e = entry(0, 1000);
        assert_eq!(p.decide(&e, &RequestCtx::new(t(1051), 0)), Decision::Serve);
        assert_eq!(
            p.decide(&e, &RequestCtx::new(t(1052), 0)),
            Decision::Validate
        );
    }

    #[test]
    fn transfer_delay_is_counted_against_the_budget() {
        let p = UpdateRisk::percent(5);
        let e = entry(0, 1000);
        // 40 s after validation is within budget on a fast link…
        let fast = RequestCtx::new(t(1040), 0);
        assert_eq!(p.decide(&e, &fast), Decision::Serve);
        // …but not when delivery itself takes another 20 s.
        let slow = RequestCtx::new(t(1040), 0).with_delay(SimDuration::from_secs(20));
        assert_eq!(p.decide(&e, &slow), Decision::Validate);
        assert!(p.risk(&e, &slow) > p.risk(&e, &fast));
    }

    #[test]
    fn stable_objects_serve_longer_than_churning_ones() {
        let p = UpdateRisk::percent(10);
        let stable = entry(0, 1_000_000); // age ~11.6 days
        let churning = entry(999_000, 1_000_000); // age 1000 s
        let ctx = RequestCtx::new(t(1_005_000), 0); // 5000 s later
        assert_eq!(p.decide(&stable, &ctx), Decision::Serve);
        assert_eq!(p.decide(&churning, &ctx), Decision::Validate);
    }

    #[test]
    fn modified_feedback_raises_the_rate_estimate() {
        let mut p = UpdateRisk::percent(5);
        let e = entry(0, 1000);
        let ctx = RequestCtx::new(t(1040), 0);
        assert_eq!(p.decide(&e, &ctx), Decision::Serve);
        // Two surprise modifications: gain ×4, the same exposure now
        // overshoots the bound.
        p.on_validation(0, true);
        p.on_validation(0, true);
        assert!((p.gain(0) - 4.0).abs() < 1e-12);
        assert_eq!(p.decide(&e, &ctx), Decision::Validate);
        // Quiet validations decay the gain back down (and clamp).
        for _ in 0..1000 {
            p.on_validation(0, false);
        }
        assert!((p.gain(0) - GAIN_MIN).abs() < 1e-12);
        // Other classes are untouched throughout.
        assert!((p.gain(7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalidated_entries_never_serve() {
        let p = UpdateRisk::percent(99);
        let mut e = entry(0, 1000);
        e.mark_invalid();
        assert_eq!(
            p.decide(&e, &RequestCtx::new(t(1000), 0)),
            Decision::Validate
        );
    }

    #[test]
    fn zero_bound_polls_every_time() {
        let p = UpdateRisk::percent(0);
        let e = entry(0, 1000);
        // risk = 0 exactly at the validation instant → serve…
        assert_eq!(p.decide(&e, &RequestCtx::new(t(1000), 0)), Decision::Serve);
        // …and any exposure at all exceeds the zero bound.
        assert_eq!(
            p.decide(&e, &RequestCtx::new(t(1001), 0)),
            Decision::Validate
        );
    }

    #[test]
    fn name_is_descriptive() {
        assert_eq!(UpdateRisk::percent(5).name(), "update-risk(5%)");
    }

    #[test]
    #[should_panic(expected = "risk bound")]
    fn bound_of_one_panics() {
        UpdateRisk::new(1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use simcore::{SimDuration, SimTime};

    proptest! {
        /// The satellite invariant: the policy never serves past its risk
        /// bound — whenever `decide` says `Serve`, the estimated staleness
        /// risk is within the configured bound, for any entry, instant,
        /// delay, and any history of validation feedback.
        #[test]
        fn never_serves_past_its_risk_bound(
            lm in 0u64..1_000_000,
            dv in 0u64..1_000_000,
            now_off in 0u64..10_000_000,
            delay in 0u64..100_000,
            bound_pct in 0u32..100,
            feedback in proptest::collection::vec(any::<bool>(), 0..32),
        ) {
            let mut p = UpdateRisk::percent(bound_pct);
            for modified in feedback {
                p.on_validation(0, modified);
            }
            let mut e = EntryMeta::fresh(1, SimTime::from_secs(lm), SimTime::from_secs(lm));
            e.revalidate(SimTime::from_secs(lm + dv));
            let ctx = RequestCtx::new(SimTime::from_secs(lm + dv + now_off), 0)
                .with_delay(SimDuration::from_secs(delay));
            if p.decide(&e, &ctx) == Decision::Serve {
                prop_assert!(p.risk(&e, &ctx) <= p.bound());
            }
        }

        /// Risk is monotone in exposure: serving at a later instant (or
        /// over a slower link) is never safer.
        #[test]
        fn risk_monotone_in_exposure(
            lm in 0u64..1_000_000,
            dv in 1u64..1_000_000,
            o1 in 0u64..1_000_000,
            o2 in 0u64..1_000_000,
        ) {
            let (lo, hi) = if o1 <= o2 { (o1, o2) } else { (o2, o1) };
            let p = UpdateRisk::percent(10);
            let mut e = EntryMeta::fresh(1, SimTime::from_secs(lm), SimTime::from_secs(lm));
            e.revalidate(SimTime::from_secs(lm + dv));
            let at = |off: u64| {
                p.risk(&e, &RequestCtx::new(SimTime::from_secs(lm + dv + off), 0))
            };
            prop_assert!(at(lo) <= at(hi));
        }
    }
}
