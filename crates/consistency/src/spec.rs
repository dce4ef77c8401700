//! Protocol specifications: the x-axis of every figure.
//!
//! A [`ProtocolSpec`] is a cheap, copyable description of a consistency
//! protocol configuration; a driver — the simulator or a live proxy
//! shard — instantiates the actual policy object (and, for the
//! invalidation protocol, enables the server-side callback machinery)
//! from it.

use simcore::SimDuration;

use crate::{
    AdaptiveTtl, CernPolicy, ClassTtl, FixedTtl, NeverExpire, Policy, PollEveryTime, RenewableTtl,
    SelfTuningPolicy, UpdateRisk,
};

/// A consistency-protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Fixed TTL, in hours (Figure x-axis: 0–500 h).
    Ttl(u64),
    /// The Alex protocol with an update threshold in percent (0–100 %).
    Alex(u32),
    /// Server-driven invalidation callbacks (parameter-free).
    Invalidation,
    /// The CERN httpd rule (LM fraction in percent, default TTL hours).
    Cern {
        /// `CacheLastModifiedFactor` as a percentage.
        lm_percent: u32,
        /// `CacheDefaultExpiry` in hours.
        default_ttl_hours: u64,
    },
    /// Validate on every request (Alex at threshold zero, named).
    PollEveryTime,
    /// Per-class self-tuning adaptive thresholds (§5 future work).
    SelfTuning,
    /// Static per-content-class TTLs informed by Table 2's lifetimes.
    ClassTtlTable2,
    /// Delay-aware renewable TTL (arXiv 2201.11577): freshness horizon in
    /// hours, anchored past the observed fetch delay.
    RenewableTtl(u64),
    /// Update-risk freshness bound (arXiv 2412.20221): the tolerated
    /// probability (percent) that a served copy is already stale.
    UpdateRisk(u32),
}

impl ProtocolSpec {
    /// Instantiate the cache-side policy.
    pub fn build_policy(&self) -> Box<dyn Policy + Send> {
        match *self {
            ProtocolSpec::Ttl(hours) => Box::new(FixedTtl::new(SimDuration::from_hours(hours))),
            ProtocolSpec::Alex(pct) => Box::new(AdaptiveTtl::percent(pct)),
            ProtocolSpec::Invalidation => Box::new(NeverExpire),
            ProtocolSpec::Cern {
                lm_percent,
                default_ttl_hours,
            } => Box::new(CernPolicy::new(
                f64::from(lm_percent) / 100.0,
                SimDuration::from_hours(default_ttl_hours),
            )),
            ProtocolSpec::PollEveryTime => Box::new(PollEveryTime),
            ProtocolSpec::SelfTuning => Box::new(SelfTuningPolicy::recommended()),
            ProtocolSpec::ClassTtlTable2 => Box::new(ClassTtl::table2_informed()),
            ProtocolSpec::RenewableTtl(hours) => Box::new(RenewableTtl::hours(hours)),
            ProtocolSpec::UpdateRisk(pct) => Box::new(UpdateRisk::percent(pct)),
        }
    }

    /// Whether the server must run invalidation callbacks for this
    /// protocol: whether the policy it builds reads writes.
    pub fn uses_invalidation(&self) -> bool {
        self.build_policy().reads_writes()
    }

    /// Report label.
    pub fn label(&self) -> String {
        match *self {
            ProtocolSpec::Ttl(h) => format!("TTL {h}h"),
            ProtocolSpec::Alex(p) => format!("Alex {p}%"),
            ProtocolSpec::Invalidation => "Invalidation".to_string(),
            ProtocolSpec::Cern {
                lm_percent,
                default_ttl_hours,
            } => format!("CERN lm={lm_percent}% default={default_ttl_hours}h"),
            ProtocolSpec::PollEveryTime => "Poll-every-time".to_string(),
            ProtocolSpec::SelfTuning => "Self-tuning".to_string(),
            ProtocolSpec::ClassTtlTable2 => "Class-TTL (Table 2)".to_string(),
            ProtocolSpec::RenewableTtl(h) => format!("RenewableTTL {h}h"),
            ProtocolSpec::UpdateRisk(p) => format!("UpdateRisk {p}%"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decision, RequestCtx};
    use proxycache::EntryMeta;
    use simcore::SimTime;

    /// The decision a freshly built policy makes for `entry` at `now`.
    fn decide_at(spec: ProtocolSpec, entry: &EntryMeta, now: u64) -> Decision {
        spec.build_policy()
            .decide(entry, &RequestCtx::new(SimTime::from_secs(now), 0))
    }

    #[test]
    fn build_policy_matches_spec() {
        // Fetched and validated at t=1000, origin copy dated t=0. Each
        // spec's policy must flip from Serve to Validate exactly at its
        // documented horizon.
        let entry = EntryMeta::fresh(1, SimTime::ZERO, SimTime::from_secs(1000));
        // TTL 2h: expires at validation + 7200.
        assert_eq!(
            decide_at(ProtocolSpec::Ttl(2), &entry, 8199),
            Decision::Serve
        );
        assert_eq!(
            decide_at(ProtocolSpec::Ttl(2), &entry, 8200),
            Decision::Validate
        );
        // Alex 50%: expires at validation + 50% of the copy's age (500s).
        assert_eq!(
            decide_at(ProtocolSpec::Alex(50), &entry, 1499),
            Decision::Serve
        );
        assert_eq!(
            decide_at(ProtocolSpec::Alex(50), &entry, 1500),
            Decision::Validate
        );
        // Invalidation trusts a valid entry forever.
        assert_eq!(
            decide_at(
                ProtocolSpec::Invalidation,
                &entry,
                SimTime::MAX.as_secs() - 1
            ),
            Decision::Serve
        );
        // Poll-every-time never serves without validating.
        assert_eq!(
            decide_at(ProtocolSpec::PollEveryTime, &entry, 1000),
            Decision::Validate
        );
        // RenewableTTL 1h with no observed delay yet: validation + 3600.
        assert_eq!(
            decide_at(ProtocolSpec::RenewableTtl(1), &entry, 4599),
            Decision::Serve
        );
        assert_eq!(
            decide_at(ProtocolSpec::RenewableTtl(1), &entry, 4600),
            Decision::Validate
        );
        // UpdateRisk 0%: any exposure at all exceeds a zero risk budget.
        assert_eq!(
            decide_at(ProtocolSpec::UpdateRisk(0), &entry, 2000),
            Decision::Validate
        );
    }

    #[test]
    fn invalidated_entries_are_never_served() {
        // `decide` folds entry validity: a marked-invalid entry loses even
        // under the most permissive policy.
        let mut entry = EntryMeta::fresh(1, SimTime::ZERO, SimTime::from_secs(1000));
        entry.mark_invalid();
        for spec in [
            ProtocolSpec::Ttl(500),
            ProtocolSpec::Invalidation,
            ProtocolSpec::RenewableTtl(500),
            ProtocolSpec::UpdateRisk(99),
        ] {
            assert_eq!(
                decide_at(spec, &entry, 1001),
                Decision::Validate,
                "{}",
                spec.label()
            );
        }
    }

    #[test]
    fn only_invalidation_uses_callbacks() {
        assert!(ProtocolSpec::Invalidation.uses_invalidation());
        for spec in [
            ProtocolSpec::Ttl(10),
            ProtocolSpec::Alex(10),
            ProtocolSpec::PollEveryTime,
            ProtocolSpec::SelfTuning,
            ProtocolSpec::ClassTtlTable2,
            ProtocolSpec::RenewableTtl(24),
            ProtocolSpec::UpdateRisk(5),
            ProtocolSpec::Cern {
                lm_percent: 10,
                default_ttl_hours: 24,
            },
        ] {
            assert!(!spec.uses_invalidation(), "{}", spec.label());
        }
    }

    #[test]
    fn labels_are_distinct_and_descriptive() {
        let labels: Vec<String> = [
            ProtocolSpec::Ttl(100),
            ProtocolSpec::Alex(10),
            ProtocolSpec::Invalidation,
            ProtocolSpec::PollEveryTime,
            ProtocolSpec::SelfTuning,
            ProtocolSpec::RenewableTtl(24),
            ProtocolSpec::UpdateRisk(5),
        ]
        .iter()
        .map(ProtocolSpec::label)
        .collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert!(labels[0].contains("100h"));
        assert!(labels[5].contains("24h"));
        assert!(labels[6].contains("5%"));
    }

    /// One of every protocol, some at two settings.
    const SPECS: [ProtocolSpec; 11] = [
        ProtocolSpec::Ttl(0),
        ProtocolSpec::Ttl(24),
        ProtocolSpec::Alex(10),
        ProtocolSpec::Invalidation,
        ProtocolSpec::Cern {
            lm_percent: 10,
            default_ttl_hours: 24,
        },
        ProtocolSpec::PollEveryTime,
        ProtocolSpec::SelfTuning,
        ProtocolSpec::ClassTtlTable2,
        ProtocolSpec::RenewableTtl(1),
        ProtocolSpec::UpdateRisk(5),
        ProtocolSpec::UpdateRisk(50),
    ];

    #[test]
    fn only_the_delay_aware_policies_read_the_delay() {
        for spec in SPECS {
            let aware = matches!(
                spec,
                ProtocolSpec::RenewableTtl(_) | ProtocolSpec::UpdateRisk(_)
            );
            assert_eq!(spec.build_policy().reads_delay(), aware, "{}", spec.label());
        }
    }

    proptest::proptest! {
        /// A policy that says it does not read the delay decides the same
        /// with none and with a day of it, and the same whether or not an
        /// exchange's delay was fed to its `on_fetch`, so an engine may
        /// skip pricing either.
        #[test]
        fn a_policy_that_ignores_the_delay_decides_the_same_without_it(
            size in 0u64..1 << 24,
            modified in 0u64..1_000_000,
            fetched_after in 0u64..1_000_000,
            validated_after in 0u64..1_000_000,
            expires_after in proptest::option::of(0u64..2_000_000),
            asked_after in 0u64..2_000_000,
            invalid in proptest::prelude::any::<bool>(),
            class in 0usize..8,
            fetch_delay in 0u64..1 << 24,
        ) {
            let fetched = modified + fetched_after;
            let mut entry = EntryMeta::fresh(size, SimTime::from_secs(modified), SimTime::from_secs(fetched));
            entry.revalidate(SimTime::from_secs(fetched + validated_after));
            entry.expires = expires_after.map(|e| SimTime::from_secs(fetched + e));
            if invalid {
                entry.mark_invalid();
            }
            let ctx = RequestCtx::new(SimTime::from_secs(fetched + asked_after), class);
            for spec in SPECS {
                let policy = spec.build_policy();
                if policy.reads_delay() {
                    continue;
                }
                proptest::prop_assert_eq!(
                    policy.decide(&entry, &ctx),
                    policy.decide(&entry, &ctx.with_delay(SimDuration::from_days(1))),
                    "{}",
                    spec.label()
                );
                let mut told = spec.build_policy();
                told.on_fetch(class, SimDuration::from_secs(fetch_delay));
                proptest::prop_assert_eq!(
                    told.decide(&entry, &ctx),
                    policy.decide(&entry, &ctx),
                    "{} after on_fetch",
                    spec.label()
                );
            }
        }
    }
}
