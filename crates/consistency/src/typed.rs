//! Per-content-class fixed TTLs — the static half of §5's observation
//! that "different types of files exhibit different update behavior".
//!
//! Table 2 justifies the idea: images live 85–100 days while cgi output
//! is effectively always stale. [`ClassTtl`] assigns each content class
//! its own TTL (with a default for unlisted classes); the self-tuning
//! policy in [`crate::SelfTuningPolicy`] is the adaptive counterpart.

use std::borrow::Cow;

use proxycache::EntryMeta;
use simcore::{SimDuration, SimTime};

use crate::policy::{decide_by_expiry, Decision, Policy, RequestCtx};

/// Fixed TTL per content class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassTtl {
    ttls: Vec<Option<SimDuration>>,
    default: SimDuration,
}

impl ClassTtl {
    /// A policy whose unlisted classes use `default`.
    pub fn new(default: SimDuration) -> Self {
        ClassTtl {
            ttls: Vec::new(),
            default,
        }
    }

    /// Set the TTL for one class (builder style).
    pub fn with_class(mut self, class: usize, ttl: SimDuration) -> Self {
        if self.ttls.len() <= class {
            self.ttls.resize(class + 1, None);
        }
        self.ttls[class] = Some(ttl);
        self
    }

    /// The TTL applied to `class`.
    pub fn ttl_for(&self, class: usize) -> SimDuration {
        self.ttls
            .get(class)
            .copied()
            .flatten()
            .unwrap_or(self.default)
    }

    /// A configuration informed by Table 2's lifetimes: long TTLs for
    /// images, a day for HTML, zero for cgi (always revalidate), a day
    /// for everything else. Class indices follow
    /// `webtrace::FileType::class_index` (gif=0, html=1, jpg=2, cgi=3,
    /// other=4).
    pub fn table2_informed() -> Self {
        ClassTtl::new(SimDuration::from_hours(24))
            .with_class(0, SimDuration::from_days(8)) // gif: ~10% of 85d age
            .with_class(1, SimDuration::from_hours(24)) // html
            .with_class(2, SimDuration::from_days(7)) // jpg
            .with_class(3, SimDuration::ZERO) // cgi: never trust
            .with_class(4, SimDuration::from_hours(24))
    }
}

impl ClassTtl {
    /// The instant a currently-valid `entry` of `class` times out.
    pub fn expiry(&self, entry: &EntryMeta, class: usize) -> SimTime {
        entry.last_validated.saturating_add(self.ttl_for(class))
    }
}

impl Policy for ClassTtl {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("class-ttl(default {})", self.default))
    }

    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision {
        decide_by_expiry(entry, self.expiry(entry, ctx.class), ctx.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn entry(validated: u64) -> EntryMeta {
        let mut e = EntryMeta::fresh(1, t(0), t(0));
        e.revalidate(t(validated));
        e
    }

    #[test]
    fn classes_get_their_own_ttls() {
        let p =
            ClassTtl::new(SimDuration::from_hours(1)).with_class(2, SimDuration::from_hours(10));
        let e = entry(1_000);
        assert_eq!(p.expiry(&e, 2), t(1_000 + 36_000));
        assert_eq!(p.expiry(&e, 0), t(1_000 + 3_600));
        // Unlisted high class falls back to the default.
        assert_eq!(p.expiry(&e, 99), t(1_000 + 3_600));
    }

    #[test]
    fn zero_ttl_class_always_revalidates() {
        let p = ClassTtl::table2_informed();
        let e = entry(5_000);
        assert_eq!(
            p.decide(&e, &RequestCtx::new(t(5_000), 3)),
            Decision::Validate,
            "cgi never trusted"
        );
        assert_eq!(
            p.decide(
                &e,
                &RequestCtx::new(t(5_000) + SimDuration::from_days(7), 0)
            ),
            Decision::Serve
        );
    }

    #[test]
    fn table2_config_orders_image_ttls_above_html() {
        let p = ClassTtl::table2_informed();
        assert!(p.ttl_for(0) > p.ttl_for(1));
        assert!(p.ttl_for(2) > p.ttl_for(1));
        assert_eq!(p.ttl_for(3), SimDuration::ZERO);
    }

    #[test]
    fn with_class_overwrites() {
        let p = ClassTtl::new(SimDuration::from_hours(1))
            .with_class(0, SimDuration::from_hours(2))
            .with_class(0, SimDuration::from_hours(5));
        assert_eq!(p.ttl_for(0), SimDuration::from_hours(5));
    }

    #[test]
    fn name_is_descriptive() {
        assert!(ClassTtl::new(SimDuration::from_hours(1))
            .name()
            .starts_with("class-ttl"));
    }
}
