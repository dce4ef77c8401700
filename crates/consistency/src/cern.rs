//! The CERN httpd expiry policy — the related-work baseline of §2.
//!
//! "The CERN server assigns cached objects times to live based on (in
//! order), the 'expires' header field, a configurable fraction of the
//! 'Last-Modified' header field, and a configurable default expiration
//! time." This is the most widely deployed rule of the paper's era, and it
//! sits *between* the contenders: with an `Expires` header it is TTL, with
//! only `Last-Modified` it is Alex, and with neither it is a fixed default.

use std::borrow::Cow;

use proxycache::EntryMeta;
use simcore::{DurationScale, SimDuration, SimTime};

use crate::policy::{decide_by_expiry, Decision, Policy, RequestCtx};

/// The CERN httpd three-tier expiry rule.
///
/// The LM fraction is held as a [`DurationScale`], built once, so the
/// second tier rounds exactly as Alex's horizon does: to the nearest
/// second of the `f64` product `age × lm_fraction`, halves up, in one
/// integer multiply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CernPolicy {
    /// Fraction of the object's `Last-Modified` age used when no `Expires`
    /// header was assigned (CERN's `CacheLastModifiedFactor`; commonly
    /// 0.1–0.2 in deployed configurations).
    lm_fraction: DurationScale,
    /// Expiry used when neither `Expires` nor a usable `Last-Modified` age
    /// is available (CERN's `CacheDefaultExpiry`).
    default_ttl: SimDuration,
}

impl CernPolicy {
    /// Build with an LM fraction and a default TTL.
    ///
    /// # Panics
    /// Panics if `lm_fraction` is negative or non-finite.
    pub fn new(lm_fraction: f64, default_ttl: SimDuration) -> Self {
        assert!(
            lm_fraction.is_finite() && lm_fraction >= 0.0,
            "LM fraction must be a non-negative fraction"
        );
        CernPolicy {
            lm_fraction: DurationScale::new(lm_fraction),
            default_ttl,
        }
    }

    /// The commonly deployed configuration: LM factor 0.1, default expiry
    /// 24 hours.
    pub fn deployed_default() -> Self {
        CernPolicy::new(0.1, SimDuration::from_hours(24))
    }

    /// The configured LM fraction.
    pub fn lm_fraction(&self) -> f64 {
        self.lm_fraction.factor()
    }
}

impl CernPolicy {
    /// The instant a currently-valid `entry` times out, by the three
    /// tiers in order.
    pub fn expiry(&self, entry: &EntryMeta, _class: usize) -> SimTime {
        // Tier 1: a server-assigned Expires header wins outright.
        if let Some(expires) = entry.expires {
            return expires;
        }
        // Tier 2: a fraction of the Last-Modified age, like Alex.
        let age = entry.last_validated.saturating_since(entry.last_modified);
        if age > SimDuration::ZERO {
            return entry
                .last_validated
                .saturating_add(self.lm_fraction.apply(age));
        }
        // Tier 3: the configurable default.
        entry.last_validated.saturating_add(self.default_ttl)
    }
}

impl Policy for CernPolicy {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("cern(lm={:.2})", self.lm_fraction()))
    }

    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision {
        decide_by_expiry(entry, self.expiry(entry, ctx.class), ctx.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AdaptiveTtl;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn entry(last_modified: u64, last_validated: u64) -> EntryMeta {
        let mut e = EntryMeta::fresh(100, t(last_modified), t(last_modified));
        e.revalidate(t(last_validated));
        e
    }

    #[test]
    fn expires_header_takes_precedence() {
        let p = CernPolicy::deployed_default();
        let mut e = entry(0, 1000);
        e.expires = Some(t(5000));
        assert_eq!(p.expiry(&e, 0), t(5000));
    }

    #[test]
    fn lm_fraction_tier_matches_alex() {
        let cern = CernPolicy::new(0.1, SimDuration::from_hours(24));
        let alex = AdaptiveTtl::new(0.1);
        let e = entry(0, 100_000);
        assert_eq!(cern.expiry(&e, 0), alex.expiry(&e, 0));
    }

    #[test]
    fn default_tier_when_age_is_zero() {
        let p = CernPolicy::new(0.1, SimDuration::from_hours(24));
        // Freshly created and fetched at the same instant: zero age.
        let e = EntryMeta::fresh(100, t(500), t(500));
        assert_eq!(p.expiry(&e, 0), t(500) + SimDuration::from_hours(24));
    }

    #[test]
    fn expires_beats_even_long_lm_age() {
        let p = CernPolicy::new(10.0, SimDuration::from_hours(1));
        let mut e = entry(0, 1_000_000);
        e.expires = Some(t(1_000_001));
        assert_eq!(p.expiry(&e, 0), t(1_000_001));
    }

    #[test]
    fn stale_expires_header_expires_entry_immediately() {
        // An Expires in the past means every access revalidates — correct
        // behaviour for pre-expired objects (e.g. CGI output).
        let p = CernPolicy::deployed_default();
        let mut e = entry(0, 1000);
        e.expires = Some(t(500));
        assert_eq!(
            p.decide(&e, &RequestCtx::new(t(1000), 0)),
            Decision::Validate
        );
    }

    #[test]
    fn deployed_default_values() {
        let p = CernPolicy::deployed_default();
        assert!((p.lm_fraction() - 0.1).abs() < 1e-12);
        assert!(p.name().contains("0.10"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_fraction_panics() {
        CernPolicy::new(-1.0, SimDuration::from_hours(1));
    }
}
