//! Renewable, delay-aware TTL — after Elsayed & Rizk, *"Caching with
//! Delayed Hits under Network Delay"* (arXiv 2201.11577).
//!
//! Classic TTL anchors the freshness horizon at the *validation instant*,
//! ignoring that the copy only becomes usable once its transfer completes.
//! Under non-negligible network delay that shaves the usable lifetime of
//! every cached object by one fetch time — and for delayed hits (requests
//! arriving while the fetch is still in flight) the classic rule can
//! expire an object before a single byte of it was ever served. The
//! renewable rule re-anchors the horizon at the *delivery* instant:
//!
//! ```text
//! expiry = last_validated + delay + ttl
//! ```
//!
//! where `delay` is the observed (or modeled) fetch/validation round-trip
//! for the object, threaded in through [`RequestCtx::delay`]. The horizon
//! is therefore monotone in the delay (property-tested below): a slower
//! link never *shortens* how long a copy may be served, which is exactly
//! the renewal property the paper derives for TTL caching under delay.
//!
//! [`Policy::on_fetch`] feedback records the last observed delay per
//! content class; it is used as a fallback when a caller cannot supply a
//! per-request delay (`ctx.delay == 0`), so the policy stays delay-aware
//! even behind delay-blind call sites like the hierarchy simulator.

use std::borrow::Cow;

use proxycache::EntryMeta;
use simcore::{SimDuration, SimTime};

use crate::policy::{decide_by_expiry, Decision, Policy, RequestCtx};

/// Delay-aware TTL: valid for `ttl` after each validation *completes
/// delivery*, i.e. `last_validated + delay + ttl`.
#[derive(Debug, Clone, Default)]
pub struct RenewableTtl {
    ttl: SimDuration,
    /// Last observed per-class delay from [`Policy::on_fetch`], used when
    /// the request context carries no delay of its own.
    observed: Vec<SimDuration>,
}

impl RenewableTtl {
    /// A policy with the given TTL.
    pub fn new(ttl: SimDuration) -> Self {
        RenewableTtl {
            ttl,
            observed: Vec::new(),
        }
    }

    /// Convenience constructor matching the TTL sweep axis (hours).
    pub fn hours(h: u64) -> Self {
        RenewableTtl::new(SimDuration::from_hours(h))
    }

    /// The configured TTL.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// The delay-anchored expiry instant: `last_validated + delay + ttl`.
    pub fn expiry_with_delay(&self, entry: &EntryMeta, delay: SimDuration) -> SimTime {
        entry
            .last_validated
            .saturating_add(delay)
            .saturating_add(self.ttl)
    }

    /// The delay that governs `entry` under `ctx`: the per-request
    /// observation if the caller supplied one, else the last `on_fetch`
    /// observation for the class, else zero (degenerating to classic TTL).
    pub fn effective_delay(&self, ctx: &RequestCtx) -> SimDuration {
        if ctx.delay > SimDuration::ZERO {
            ctx.delay
        } else {
            self.observed
                .get(ctx.class)
                .copied()
                .unwrap_or(SimDuration::ZERO)
        }
    }
}

impl Policy for RenewableTtl {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("renewable-ttl({})", self.ttl))
    }

    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision {
        let delay = self.effective_delay(ctx);
        decide_by_expiry(entry, self.expiry_with_delay(entry, delay), ctx.now)
    }

    fn on_fetch(&mut self, class: usize, delay: SimDuration) {
        if class >= self.observed.len() {
            self.observed.resize(class + 1, SimDuration::ZERO);
        }
        self.observed[class] = delay;
    }

    fn reads_delay(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn entry(last_validated: u64) -> EntryMeta {
        let mut e = EntryMeta::fresh(100, t(0), t(0));
        e.revalidate(t(last_validated));
        e
    }

    #[test]
    fn zero_delay_degenerates_to_classic_ttl() {
        let p = RenewableTtl::new(SimDuration::from_secs(100));
        let e = entry(1000);
        let ctx = RequestCtx::new(t(1099), 0);
        assert_eq!(p.decide(&e, &ctx), Decision::Serve);
        let ctx = RequestCtx::new(t(1100), 0);
        assert_eq!(p.decide(&e, &ctx), Decision::Validate);
    }

    #[test]
    fn delay_extends_the_horizon_by_exactly_the_delay() {
        let p = RenewableTtl::new(SimDuration::from_secs(100));
        let e = entry(1000);
        // With a 40s transfer the copy was only delivered at 1040; it
        // serves until 1140 where classic TTL would cut off at 1100.
        let ctx = RequestCtx::new(t(1139), 0).with_delay(SimDuration::from_secs(40));
        assert_eq!(p.decide(&e, &ctx), Decision::Serve);
        let ctx = RequestCtx::new(t(1140), 0).with_delay(SimDuration::from_secs(40));
        assert_eq!(p.decide(&e, &ctx), Decision::Validate);
        assert_eq!(p.expiry_with_delay(&e, SimDuration::from_secs(40)), t(1140));
    }

    #[test]
    fn on_fetch_observation_backfills_missing_ctx_delay() {
        let mut p = RenewableTtl::new(SimDuration::from_secs(100));
        p.on_fetch(2, SimDuration::from_secs(30));
        let e = entry(1000);
        // Class 2 has an observation: horizon anchored at 1030.
        let ctx = RequestCtx::new(t(1120), 2);
        assert_eq!(p.decide(&e, &ctx), Decision::Serve);
        // Class 0 has none: classic horizon, already expired at 1120.
        let ctx = RequestCtx::new(t(1120), 0);
        assert_eq!(p.decide(&e, &ctx), Decision::Validate);
        // An explicit per-request delay beats the recorded fallback.
        let ctx = RequestCtx::new(t(1120), 2).with_delay(SimDuration::from_secs(5));
        assert_eq!(p.decide(&e, &ctx), Decision::Validate);
    }

    #[test]
    fn invalidated_entries_never_serve() {
        let p = RenewableTtl::hours(24);
        let mut e = entry(1000);
        e.mark_invalid();
        let ctx = RequestCtx::new(t(1001), 0).with_delay(SimDuration::from_secs(60));
        assert_eq!(p.decide(&e, &ctx), Decision::Validate);
    }

    #[test]
    fn name_is_descriptive() {
        assert_eq!(RenewableTtl::hours(24).name(), "renewable-ttl(1d00h00m00s)");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The satellite invariant: the renewable expiry is monotone in
        /// the observed delay — a slower link never shortens the horizon.
        #[test]
        fn expiry_monotone_in_delay(
            v in 0u64..1_000_000,
            ttl_hours in 0u64..500,
            d1 in 0u64..100_000,
            d2 in 0u64..100_000,
        ) {
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            let mut e = EntryMeta::fresh(1, SimTime::ZERO, SimTime::ZERO);
            e.revalidate(SimTime::from_secs(v));
            let p = RenewableTtl::hours(ttl_hours);
            prop_assert!(
                p.expiry_with_delay(&e, SimDuration::from_secs(lo))
                    <= p.expiry_with_delay(&e, SimDuration::from_secs(hi))
            );
        }

        /// Serving decisions are monotone too: if the policy serves at
        /// some delay, it also serves at any larger delay (same entry,
        /// same instant).
        #[test]
        fn serve_decision_monotone_in_delay(
            v in 0u64..1_000_000,
            ttl_hours in 0u64..100,
            now_off in 0u64..2_000_000,
            d1 in 0u64..100_000,
            d2 in 0u64..100_000,
        ) {
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            let mut e = EntryMeta::fresh(1, SimTime::ZERO, SimTime::ZERO);
            e.revalidate(SimTime::from_secs(v));
            let p = RenewableTtl::hours(ttl_hours);
            let now = SimTime::from_secs(v + now_off);
            let at = |d: u64| {
                p.decide(
                    &e,
                    &RequestCtx::new(now, 0).with_delay(SimDuration::from_secs(d)),
                )
            };
            if at(lo) == Decision::Serve {
                prop_assert_eq!(at(hi), Decision::Serve);
            }
        }
    }
}
