//! The consistency policies: what should the cache do with a request?
//!
//! A policy answers per request with a [`Decision`]: serve the cached copy
//! as-is, or contact the origin first. The decision is computed from the
//! entry's validation metadata ([`proxycache::EntryMeta`]) plus a
//! [`RequestCtx`] carrying the request instant, the content class, and the
//! observed fetch/validation delay for the object — the input that
//! delay-aware policies (renewable TTL, update-risk freshness) need and
//! that the original expiry-instant API could not express.
//!
//! The paper's three contenders are all *expiry-based*: each reduces to
//! computing one expiry instant per validation and serving until that
//! instant. Each states it as an inherent `expiry(entry, class)` method and
//! answers [`Policy::decide`] through the exact comparison in
//! [`decide_by_expiry`]:
//!
//! * **TTL** ([`FixedTtl`]) — expiry is a fixed interval after the last
//!   validation;
//! * **Alex** ([`AdaptiveTtl`]) — expiry is `update_threshold × age` after
//!   the last validation, where age is the time between the copy's origin
//!   modification and its last validation ("young files are modified more
//!   frequently than old files", §1);
//! * **Invalidation** ([`NeverExpire`]) — entries never time out; the
//!   server's callback marks them invalid instead.
//!
//! [`Policy::on_validation`] and [`Policy::on_fetch`] are feedback hooks:
//! the self-tuning extension (`selftuning` module) adapts thresholds from
//! validation outcomes, and the delay-aware policies (`renewable`, `risk`
//! modules) observe round-trip delays. The paper's fixed policies ignore
//! both.

use std::borrow::Cow;

use proxycache::EntryMeta;
use simcore::{DurationScale, SimDuration, SimTime};

/// What the cache should do with a request for a resident entry.
///
/// The taxonomy is deliberately two-valued: whether a non-servable entry
/// is then *refetched eagerly* or *revalidated conditionally* is the
/// engine's [`crate::RetrievalMode`], not a freshness decision — the
/// invalidation protocol, for instance, answers `Validate` for a
/// callback-invalidated entry and its engine turns that into a refetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Serve the cached copy without contacting the origin.
    Serve,
    /// Contact the origin before serving (conditional GET or refetch,
    /// per the caller's retrieval mode).
    Validate,
}

impl Decision {
    /// Whether this decision serves the cached copy locally.
    pub fn serves_locally(self) -> bool {
        matches!(self, Decision::Serve)
    }
}

/// Per-request context handed to [`Policy::decide`].
///
/// `delay` is the modeled fetch/validation round-trip for the object —
/// [`crate::Engine`] prices it with its [`LinkModel`] for a policy that
/// [reads it](Policy::reads_delay), and passes [`SimDuration::ZERO`] to
/// the rest. Callers with no delay source pass zero too; expiry-based
/// policies ignore the field entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCtx {
    /// The request instant.
    pub now: SimTime,
    /// Opaque content-class index (file type) that adaptive policies may
    /// specialise on; fixed policies ignore it.
    pub class: usize,
    /// Observed fetch/validation delay for this object.
    pub delay: SimDuration,
}

impl RequestCtx {
    /// A context with no delay observation.
    pub fn new(now: SimTime, class: usize) -> Self {
        RequestCtx {
            now,
            class,
            delay: SimDuration::ZERO,
        }
    }

    /// Attach an observed delay.
    pub fn with_delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }
}

/// A cache-side consistency policy: the full decision API.
pub trait Policy {
    /// Short human-readable name for reports. Fixed-name policies return
    /// a borrowed literal; parameterised ones an owned rendering.
    fn name(&self) -> Cow<'static, str>;

    /// Decide what to do with a request for `entry` under `ctx`.
    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision;

    /// Feedback after a validation round-trip: `was_modified` reports
    /// whether the origin copy had actually changed. Fixed policies ignore
    /// this; self-tuning policies adapt.
    fn on_validation(&mut self, _class: usize, _was_modified: bool) {}

    /// Feedback after a `200` or `304` exchange completes: the modeled
    /// round-trip `delay` for the transfer. Delay-aware policies record
    /// it; an engine calls it only for a policy that
    /// [reads the delay](Policy::reads_delay).
    fn on_fetch(&mut self, _class: usize, _delay: SimDuration) {}

    /// Whether this policy acts on the origin's writes: the server then
    /// notifies the cache of each change to a file it holds, and a replay
    /// feeds it the workload's modifications.
    fn reads_writes(&self) -> bool {
        false
    }

    /// Whether [`Policy::decide`] reads [`RequestCtx::delay`] or
    /// [`Policy::on_fetch`] keeps its `delay`: an engine prices neither
    /// for a policy that ignores both.
    fn reads_delay(&self) -> bool {
        false
    }
}

/// The exact step from an expiry instant to a [`Decision`]: serve iff the
/// entry is valid (not callback-invalidated) and its expiry lies strictly
/// after `now`. Every expiry-based policy decides through it, so the
/// comparison the golden hashes in `tests/determinism.rs` pin is written
/// once.
pub fn decide_by_expiry(entry: &EntryMeta, expiry: SimTime, now: SimTime) -> Decision {
    if entry.is_valid() && expiry > now {
        Decision::Serve
    } else {
        Decision::Validate
    }
}

/// Fixed time-to-live: valid for `ttl` after each validation. The HTTP
/// `Expires`-header strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedTtl {
    ttl: SimDuration,
}

impl FixedTtl {
    /// A policy with the given TTL. The paper sweeps 0–500 hours.
    pub fn new(ttl: SimDuration) -> Self {
        FixedTtl { ttl }
    }

    /// Convenience constructor matching the paper's x-axis (hours).
    pub fn hours(h: u64) -> Self {
        FixedTtl::new(SimDuration::from_hours(h))
    }

    /// The configured TTL.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }
}

impl FixedTtl {
    /// The instant a currently-valid `entry` times out: `ttl` after its
    /// last validation.
    pub fn expiry(&self, entry: &EntryMeta, _class: usize) -> SimTime {
        entry.last_validated.saturating_add(self.ttl)
    }
}

impl Policy for FixedTtl {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("ttl({})", self.ttl))
    }

    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision {
        decide_by_expiry(entry, self.expiry(entry, ctx.class), ctx.now)
    }
}

/// The Alex protocol: adaptive TTL proportional to object age.
///
/// ```
/// use consistency::AdaptiveTtl;
/// use proxycache::EntryMeta;
/// use simcore::{SimDuration, SimTime};
///
/// // The paper's worked example: a 30-day-old object at a 10% update
/// // threshold stays valid for three days after a validation.
/// let policy = AdaptiveTtl::percent(10);
/// let mut entry = EntryMeta::fresh(8_192, SimTime::ZERO, SimTime::ZERO);
/// entry.revalidate(SimTime::ZERO + SimDuration::from_days(30));
/// assert_eq!(
///     policy.expiry(&entry, 0),
///     SimTime::ZERO + SimDuration::from_days(33),
/// );
/// ```
///
/// An entry validated at `v` whose origin stamp is `m` is valid until
/// `v + threshold × (v − m)`. Age is measured *at validation time* (the
/// rule Squid later adopted as its LM-factor): each successful validation
/// of an unchanged object lengthens the next validity horizon
/// geometrically, which is exactly the paper's intent — "while files are
/// changing rapidly, Alex checks frequently; once the files stabilize,
/// Alex checks infrequently" (§4.2).
///
/// The threshold is held as a [`DurationScale`], built once: a horizon
/// is one integer multiply, bit-identical to rounding the `f64` product
/// `age × threshold` to the nearest second (halves up), as the scale's
/// docs argue and the crate's `horizon` tests check against that
/// product. Alex 0 % is a factor of 0, so a copy expires at its
/// validation; Alex 100 % is held exactly too, so every point of the
/// paper's 0–100 % sweep is decided in fixed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveTtl {
    threshold: DurationScale,
}

impl AdaptiveTtl {
    /// A policy with the given update threshold (fraction of age; the
    /// paper sweeps 0–100 %).
    ///
    /// # Panics
    /// Panics if `threshold` is negative or non-finite.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "update threshold must be a non-negative fraction"
        );
        AdaptiveTtl {
            threshold: DurationScale::new(threshold),
        }
    }

    /// Convenience constructor matching the paper's x-axis (percent).
    pub fn percent(p: u32) -> Self {
        AdaptiveTtl::new(f64::from(p) / 100.0)
    }

    /// The configured threshold (fraction).
    pub fn threshold(&self) -> f64 {
        self.threshold.factor()
    }
}

impl AdaptiveTtl {
    /// The instant a currently-valid `entry` times out: `threshold × age`
    /// after its last validation.
    pub fn expiry(&self, entry: &EntryMeta, _class: usize) -> SimTime {
        let age = entry.last_validated.saturating_since(entry.last_modified);
        entry
            .last_validated
            .saturating_add(self.threshold.apply(age))
    }
}

impl Policy for AdaptiveTtl {
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("alex({:.0}%)", self.threshold() * 100.0))
    }

    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision {
        decide_by_expiry(entry, self.expiry(entry, ctx.class), ctx.now)
    }
}

/// Threshold-zero polling: validate on every request — the degenerate Alex
/// configuration the paper calls out as "excessively wasteful of server
/// resources" (§4.2), included as an explicit baseline because several
/// mid-90s proxies behaved exactly this way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollEveryTime;

impl PollEveryTime {
    /// The instant a currently-valid `entry` times out: at once.
    pub fn expiry(&self, entry: &EntryMeta, _class: usize) -> SimTime {
        // Expires the instant it is validated: every access revalidates.
        entry.last_validated
    }
}

impl Policy for PollEveryTime {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("poll-every-time")
    }

    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision {
        decide_by_expiry(entry, self.expiry(entry, ctx.class), ctx.now)
    }
}

/// The cache-side stance of the invalidation protocol: entries never time
/// out; only a server callback invalidates them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeverExpire;

impl NeverExpire {
    /// The instant a currently-valid `entry` times out: never.
    pub fn expiry(&self, _entry: &EntryMeta, _class: usize) -> SimTime {
        SimTime::MAX
    }
}

impl Policy for NeverExpire {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("never-expire")
    }

    fn decide(&self, entry: &EntryMeta, ctx: &RequestCtx) -> Decision {
        decide_by_expiry(entry, self.expiry(entry, ctx.class), ctx.now)
    }

    fn reads_writes(&self) -> bool {
        true
    }
}

/// A deterministic access-link model: the fetch/validation delay for an
/// exchange as a pure function of the bytes transferred.
///
/// This is how the simulator (and the live proxy's modeled-delay mode)
/// derives the `delay` it threads into [`RequestCtx`] and
/// [`Policy::on_fetch`]: a fixed round-trip latency plus a
/// size-proportional transfer time, in whole virtual seconds so the value
/// is identical however it is computed. A `304 Not Modified` exchange
/// transfers no body and costs the round trip alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkModel {
    rtt: SimDuration,
    bytes_per_sec: u64,
}

impl LinkModel {
    /// A link with the given round-trip latency and throughput.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(rtt: SimDuration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "link throughput must be positive");
        LinkModel { rtt, bytes_per_sec }
    }

    /// The paper-era default: a one-second round trip over a ~128 kbit/s
    /// access link (16 KiB/s) — the mid-90s ISDN/modem regime the paper's
    /// bandwidth concerns are about.
    pub fn paper_era() -> Self {
        LinkModel::new(SimDuration::from_secs(1), 16 * 1024)
    }

    /// The modeled delay for transferring `bytes` of body: round trip plus
    /// transfer time, rounded up to whole seconds.
    pub fn delay_for(&self, bytes: u64) -> SimDuration {
        self.rtt
            .saturating_add(SimDuration::from_secs(bytes.div_ceil(self.bytes_per_sec)))
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::paper_era()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn entry(last_modified: u64, last_validated: u64) -> EntryMeta {
        let mut e = EntryMeta::fresh(100, t(last_modified), t(last_modified));
        e.revalidate(t(last_validated));
        e
    }

    fn ctx(now: u64) -> RequestCtx {
        RequestCtx::new(t(now), 0)
    }

    #[test]
    fn fixed_ttl_expires_after_interval() {
        let p = FixedTtl::hours(2);
        let e = entry(0, 1000);
        assert_eq!(p.expiry(&e, 0), t(1000 + 7200));
        assert_eq!(p.decide(&e, &ctx(1000)), Decision::Serve);
        assert_eq!(p.decide(&e, &ctx(8199)), Decision::Serve);
        assert_eq!(p.decide(&e, &ctx(8200)), Decision::Validate);
    }

    #[test]
    fn fixed_ttl_restarts_on_revalidation() {
        let p = FixedTtl::new(SimDuration::from_secs(100));
        let mut e = entry(0, 0);
        assert_eq!(p.expiry(&e, 0), t(100));
        e.revalidate(t(500));
        assert_eq!(p.expiry(&e, 0), t(600));
    }

    #[test]
    fn zero_ttl_always_stale() {
        let p = FixedTtl::hours(0);
        let e = entry(0, 1000);
        assert_eq!(p.decide(&e, &ctx(1000)), Decision::Validate);
    }

    #[test]
    fn decide_mirrors_the_expiry_comparison() {
        let p = FixedTtl::hours(2);
        let e = entry(0, 1000);
        assert_eq!(p.decide(&e, &ctx(1000)), Decision::Serve);
        assert_eq!(p.decide(&e, &ctx(8199)), Decision::Serve);
        assert_eq!(p.decide(&e, &ctx(8200)), Decision::Validate);
        assert!(Decision::Serve.serves_locally());
        assert!(!Decision::Validate.serves_locally());
    }

    #[test]
    fn invalidated_entries_never_serve_whatever_the_expiry() {
        let mut e = entry(0, 1000);
        e.mark_invalid();
        assert_eq!(NeverExpire.decide(&e, &ctx(1001)), Decision::Validate);
        assert_eq!(
            FixedTtl::hours(9999).decide(&e, &ctx(1001)),
            Decision::Validate
        );
    }

    #[test]
    fn alex_paper_worked_example() {
        // A 30-day-old object validated now at 10 % threshold stays valid
        // for 3 days.
        let day = 86_400;
        let p = AdaptiveTtl::percent(10);
        let e = entry(0, 30 * day);
        assert_eq!(p.expiry(&e, 0), t(30 * day + 3 * day));
    }

    #[test]
    fn alex_horizon_grows_with_each_quiet_validation() {
        let p = AdaptiveTtl::percent(50);
        let mut e = entry(0, 100);
        let first = p.expiry(&e, 0); // 100 + 50 = 150
        assert_eq!(first, t(150));
        e.revalidate(t(150));
        let second = p.expiry(&e, 0); // 150 + 75 = 225
        assert_eq!(second, t(225));
        e.revalidate(t(225));
        let third = p.expiry(&e, 0); // 225 + 112.5 -> 225 + 113 (rounded)
        assert_eq!(third, t(338));
        assert!(third - t(225) > second - t(150));
    }

    #[test]
    fn alex_young_object_expires_quickly() {
        let p = AdaptiveTtl::percent(20);
        // Modified at 1000, validated at 1010: age 10s, horizon 2s.
        let e = entry(1000, 1010);
        assert_eq!(p.expiry(&e, 0), t(1012));
    }

    #[test]
    fn alex_zero_threshold_is_poll_every_time() {
        let alex0 = AdaptiveTtl::percent(0);
        let poll = PollEveryTime;
        let e = entry(0, 12345);
        assert_eq!(alex0.expiry(&e, 0), poll.expiry(&e, 0));
        assert_eq!(alex0.decide(&e, &ctx(12345)), Decision::Validate);
    }

    #[test]
    fn alex_handles_clock_skewed_stamp() {
        // Origin stamp *after* validation (skewed server clock): age
        // saturates to zero; entry simply revalidates on next use.
        let p = AdaptiveTtl::percent(50);
        let e = entry(2000, 1000);
        assert_eq!(p.expiry(&e, 0), t(1000));
    }

    #[test]
    fn never_expire_is_forever_fresh() {
        let p = NeverExpire;
        let e = entry(0, 0);
        assert_eq!(p.expiry(&e, 0), SimTime::MAX);
        assert_eq!(
            p.decide(&e, &ctx(SimTime::MAX.as_secs() - 1)),
            Decision::Serve
        );
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(AdaptiveTtl::percent(25).name(), "alex(25%)");
        assert!(FixedTtl::hours(100).name().starts_with("ttl("));
        assert_eq!(PollEveryTime.name(), "poll-every-time");
        // Fixed-name policies borrow; no allocation on the report path.
        assert!(matches!(PollEveryTime.name(), Cow::Borrowed(_)));
        assert!(matches!(NeverExpire.name(), Cow::Borrowed(_)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_panics() {
        AdaptiveTtl::new(-0.1);
    }

    #[test]
    fn policies_are_object_safe() {
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(FixedTtl::hours(1)),
            Box::new(AdaptiveTtl::percent(10)),
            Box::new(PollEveryTime),
            Box::new(NeverExpire),
        ];
        let e = entry(0, 100);
        let c = ctx(50);
        for p in &policies {
            let _ = p.decide(&e, &c);
            let _ = p.name();
        }
    }

    #[test]
    fn link_model_charges_rtt_plus_transfer() {
        let link = LinkModel::new(SimDuration::from_secs(2), 1000);
        assert_eq!(link.delay_for(0), SimDuration::from_secs(2));
        assert_eq!(link.delay_for(1), SimDuration::from_secs(3));
        assert_eq!(link.delay_for(1000), SimDuration::from_secs(3));
        assert_eq!(link.delay_for(1001), SimDuration::from_secs(4));
        // The paper-era default: one-second RTT, 16 KiB/s.
        assert_eq!(LinkModel::default(), LinkModel::paper_era());
        assert_eq!(
            LinkModel::paper_era().delay_for(32 * 1024),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_link_panics() {
        LinkModel::new(SimDuration::ZERO, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A higher update threshold never yields an earlier expiry —
        /// the monotonicity behind Figure 2a's downward-sloping bandwidth.
        #[test]
        fn alex_expiry_monotone_in_threshold(
            lm in 0u64..1_000_000,
            dv in 0u64..1_000_000,
            t1 in 0u32..100,
            t2 in 0u32..100,
        ) {
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let mut e = EntryMeta::fresh(1, SimTime::from_secs(lm), SimTime::from_secs(lm));
            e.revalidate(SimTime::from_secs(lm + dv));
            let p_lo = AdaptiveTtl::percent(lo);
            let p_hi = AdaptiveTtl::percent(hi);
            prop_assert!(p_lo.expiry(&e, 0) <= p_hi.expiry(&e, 0));
        }

        /// A longer TTL never yields an earlier expiry (Figure 2b).
        #[test]
        fn ttl_expiry_monotone(v in 0u64..1_000_000, h1 in 0u64..500, h2 in 0u64..500) {
            let (lo, hi) = if h1 <= h2 { (h1, h2) } else { (h2, h1) };
            let e = EntryMeta::fresh(1, SimTime::ZERO, SimTime::from_secs(v));
            prop_assert!(
                FixedTtl::hours(lo).expiry(&e, 0) <= FixedTtl::hours(hi).expiry(&e, 0)
            );
        }

        /// Expiry never precedes the validation instant for any policy.
        #[test]
        fn expiry_not_before_validation(
            lm in 0u64..1_000_000,
            dv in 0u64..1_000_000,
            pct in 0u32..200,
            hours in 0u64..1000,
        ) {
            let mut e = EntryMeta::fresh(1, SimTime::from_secs(lm), SimTime::from_secs(lm));
            e.revalidate(SimTime::from_secs(lm + dv));
            let v = e.last_validated;
            prop_assert!(AdaptiveTtl::percent(pct).expiry(&e, 0) >= v);
            prop_assert!(FixedTtl::hours(hours).expiry(&e, 0) >= v);
            prop_assert!(PollEveryTime.expiry(&e, 0) >= v);
            prop_assert!(NeverExpire.expiry(&e, 0) >= v);
        }

        /// The adapter equivalence the golden hashes rest on: for every
        /// expiry-based policy, random entry, and random instant, the
        /// [`Policy::decide`] answer equals the legacy comparison
        /// `entry.is_valid() && expiry(entry, class) > now` exactly.
        #[test]
        fn adapter_decision_equals_legacy_expiry_comparison(
            lm in 0u64..1_000_000,
            dv in 0u64..1_000_000,
            now in 0u64..4_000_000,
            delay in 0u64..10_000,
            pct in 0u32..150,
            hours in 0u64..600,
            invalidated in any::<bool>(),
        ) {
            let mut e = EntryMeta::fresh(1, SimTime::from_secs(lm), SimTime::from_secs(lm));
            e.revalidate(SimTime::from_secs(lm + dv));
            if invalidated {
                e.mark_invalid();
            }
            let ctx = RequestCtx::new(SimTime::from_secs(now), 0)
                .with_delay(SimDuration::from_secs(delay));

            let legacy = |expiry: SimTime| {
                if e.is_valid() && expiry > ctx.now {
                    Decision::Serve
                } else {
                    Decision::Validate
                }
            };

            let alex = AdaptiveTtl::percent(pct);
            let ttl = FixedTtl::hours(hours);
            prop_assert_eq!(alex.decide(&e, &ctx), legacy(alex.expiry(&e, 0)));
            prop_assert_eq!(ttl.decide(&e, &ctx), legacy(ttl.expiry(&e, 0)));
            prop_assert_eq!(
                PollEveryTime.decide(&e, &ctx),
                legacy(PollEveryTime.expiry(&e, 0))
            );
            prop_assert_eq!(
                NeverExpire.decide(&e, &ctx),
                legacy(NeverExpire.expiry(&e, 0))
            );
        }
    }
}
