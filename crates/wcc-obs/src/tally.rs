//! [`Tally`]: a cache's counts, folded from the events it records.

use simcore::{CacheStats, SimDuration, SimTime, TrafficMeter};

use crate::probe::{ExchangeKind, ObsEvent, Probe, RequestOutcome};

/// The paper's per-cache counts — the fresh / stale / miss split of
/// Figures 3, 5 and 7 and §3's bandwidth — plus staleness age,
/// evictions and invalidation notices, as a fold of one cache's event stream. A consistency
/// engine owns one and feeds it every event it records, so its counts
/// are this fold and nothing else; attached as a probe, a second
/// `Tally` recomputes them from the same stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `FreshHit` and `ValidatedFresh` requests are fresh hits,
    /// `StaleHit`s stale ones, `ValidatedStale` a modified validation;
    /// `Body` and `Gone` replies are misses, `NotModified` ones 304s.
    pub cache: CacheStats,
    /// Every exchange's control bytes, and every `Body`'s entity bytes.
    pub traffic: TrafficMeter,
    /// Summed age of the stale hits.
    pub stale_age_total: SimDuration,
    /// `Eviction` events.
    pub evictions: u64,
    /// `Notice` exchanges: invalidations the cache received for a file
    /// it held.
    pub notices: u64,
}

impl Tally {
    /// Add another tally's counts, as for the shards of one proxy.
    pub fn merge(&mut self, other: &Tally) {
        self.cache.merge(&other.cache);
        self.traffic.merge(&other.traffic);
        self.stale_age_total = self.stale_age_total.saturating_add(other.stale_age_total);
        self.evictions += other.evictions;
        self.notices += other.notices;
    }
}

impl Probe for Tally {
    #[inline]
    fn record(&mut self, _at: SimTime, event: ObsEvent) {
        match event {
            ObsEvent::Request { outcome, .. } => match outcome {
                RequestOutcome::FreshHit | RequestOutcome::ValidatedFresh => {
                    self.cache.fresh_hits += 1;
                }
                RequestOutcome::StaleHit { age } => {
                    self.cache.stale_hits += 1;
                    self.stale_age_total = self.stale_age_total.saturating_add(age);
                }
                RequestOutcome::ValidatedStale => self.cache.validations_modified += 1,
                RequestOutcome::Miss | RequestOutcome::Uncacheable => {}
            },
            ObsEvent::Exchange {
                kind,
                message_bytes,
                body_bytes,
                ..
            } => {
                self.traffic.add_message(message_bytes);
                match kind {
                    ExchangeKind::NotModified => self.cache.validations_not_modified += 1,
                    ExchangeKind::Body => {
                        self.cache.misses += 1;
                        self.traffic.add_file_transfer(body_bytes);
                    }
                    ExchangeKind::Gone => self.cache.misses += 1,
                    ExchangeKind::Notice => self.notices += 1,
                }
            }
            ObsEvent::Eviction { .. } => self.evictions += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::FileId;

    fn exchange(kind: ExchangeKind, body_bytes: u64) -> ObsEvent {
        ObsEvent::Exchange {
            file: FileId(0),
            kind,
            message_bytes: 43,
            body_bytes,
        }
    }

    fn request(outcome: RequestOutcome) -> ObsEvent {
        ObsEvent::Request {
            file: FileId(0),
            outcome,
        }
    }

    #[test]
    fn each_event_lands_in_its_count() {
        let mut tally = Tally::default();
        for event in [
            request(RequestOutcome::FreshHit),
            request(RequestOutcome::StaleHit {
                age: SimDuration::from_secs(30),
            }),
            request(RequestOutcome::ValidatedFresh),
            exchange(ExchangeKind::NotModified, 0),
            request(RequestOutcome::Miss),
            exchange(ExchangeKind::Body, 1_000),
            request(RequestOutcome::ValidatedStale),
            exchange(ExchangeKind::Gone, 0),
            exchange(ExchangeKind::Notice, 0),
            ObsEvent::Eviction { file: FileId(1) },
            ObsEvent::PolicyDecision {
                file: FileId(0),
                fresh: true,
            },
        ] {
            tally.record(SimTime::ZERO, event);
        }
        assert_eq!(
            tally.cache,
            CacheStats {
                fresh_hits: 2,
                stale_hits: 1,
                misses: 2,
                validations_not_modified: 1,
                validations_modified: 1,
            }
        );
        assert_eq!(
            tally.traffic,
            TrafficMeter {
                messages: 4,
                message_bytes: 4 * 43,
                file_transfers: 1,
                file_bytes: 1_000,
            }
        );
        assert_eq!(tally.stale_age_total, SimDuration::from_secs(30));
        assert_eq!(tally.evictions, 1);
        assert_eq!(tally.notices, 1);

        let mut twice = tally;
        twice.merge(&tally);
        assert_eq!(twice.cache.requests(), 2 * tally.cache.requests());
        assert_eq!(twice.traffic.total_bytes(), 2 * tally.traffic.total_bytes());
        assert_eq!(twice.stale_age_total, SimDuration::from_secs(60));
        assert_eq!(twice.evictions, 2);
        assert_eq!(twice.notices, 2);
    }
}
