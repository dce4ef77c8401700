//! Failure injection: the invalidation protocol under partitions, as a
//! measured experiment.
//!
//! §1 flags unavailable caches as the invalidation protocol's special
//! case ("the server must continue trying to reach it"), and §6 argues
//! weak consistency is "more fault resilient ... the right thing
//! automatically happens". This module measures both claims.
//!
//! **Partition model.** The cache stays up and keeps serving clients (and
//! can still reach the origin for fetches), but the server's notification
//! channel to the cache is down for given intervals — the asymmetric
//! failure in which invalidation silently serves stale data while its
//! server burns retries. Undelivered notices queue in an
//! [`originserver::RetryQueue`] with exponential backoff and are delivered
//! when the replay reaches the queue's next attempt.
//!
//! Time-based protocols run unchanged under the same outages: they never
//! depended on the notification channel in the first place, so their
//! results are identical to the unpartitioned run — which is precisely
//! the paper's point.

use originserver::RetryQueue;
use proxycache::UnboundedStore;
use simcore::{CacheId, SimDuration, SimTime};
use wcc_obs::NoopProbe;

use crate::sim::{run, RunResult, SimCache, SimConfig};
use crate::sweep::SweepRunner;
use crate::workload::{Fault, Workload, WorkloadEvent};
use crate::ProtocolSpec;

/// A server→cache notification outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// When the notification channel fails.
    pub from: SimTime,
    /// When it recovers.
    pub until: SimTime,
}

/// Result of a partitioned invalidation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedResult {
    /// The usual metrics (stale hits now possible!).
    pub result: RunResult,
    /// Failed delivery attempts (the retry traffic of §1's special case).
    pub failed_attempts: u64,
    /// Notices that were eventually delivered late.
    pub late_deliveries: u64,
}

const THE_CACHE: CacheId = CacheId(0);
const RETRY_BASE: SimDuration = SimDuration::from_mins(2);
const RETRY_CAP: SimDuration = SimDuration::from_mins(32);

/// The channel is down exactly on the union of `outages`, as a fault
/// stream: empty and inverted outages dropped, the rest sorted and every
/// overlapping or touching pair merged, so each fault changes the state.
fn channel_faults(outages: &[Outage]) -> Vec<(SimTime, Fault)> {
    let mut spans = outages.to_vec();
    spans.retain(|o| o.from < o.until);
    spans.sort_unstable_by_key(|o| o.from);
    let mut faults = Vec::with_capacity(2 * spans.len());
    for o in spans {
        match faults.last_mut() {
            Some((up, _)) if o.from <= *up => *up = o.until.max(*up),
            _ => faults.extend([(o.from, Fault::ChannelDown), (o.until, Fault::ChannelUp)]),
        }
    }
    faults
}

/// Run the invalidation protocol over `workload` with the notification
/// channel down during `outages`.
pub fn run_partitioned_invalidation(workload: &Workload, outages: &[Outage]) -> PartitionedResult {
    // The simulator's cache and origin with a lossy notification channel
    // between them: what the cache does with requests and delivered
    // notices is the ordinary invalidation-protocol run; only delivery
    // differs.
    let mut cache = SimCache::new(
        workload,
        ProtocolSpec::Invalidation,
        &SimConfig::optimized(),
        UnboundedStore::new(),
    );
    cache.preload(&mut NoopProbe);
    let mut retry = RetryQueue::new(RETRY_BASE, RETRY_CAP);
    let mut late_deliveries = 0;

    // The schedule, outages included, merged with the one timer there
    // is: the retry queue's next attempt runs when it is strictly earlier
    // than the next scheduled event (the schedule goes first at a shared
    // instant), and on after the trace until nothing is pending.
    let faults = channel_faults(outages);
    let mut schedule = workload.schedule(true, &faults).peekable();
    loop {
        let head = schedule.peek().map(|&(t, _)| t);
        match retry.next_attempt() {
            Some(at) if head.is_none_or(|t| at < t) => {
                for (_, file) in retry.sweep(at).delivered {
                    late_deliveries += 1;
                    cache.invalidate(file, at, &mut NoopProbe);
                }
            }
            _ => match schedule.next() {
                Some((_, WorkloadEvent::Fault(Fault::ChannelDown))) => retry.mark_down(THE_CACHE),
                Some((_, WorkloadEvent::Fault(Fault::ChannelUp))) => retry.mark_up(THE_CACHE),
                Some((now, WorkloadEvent::Modify(file))) => {
                    for target in cache.server.notify_modification(file) {
                        debug_assert_eq!(target, THE_CACHE);
                        if retry.send(THE_CACHE, file, now) {
                            cache.invalidate(file, now, &mut NoopProbe);
                        }
                    }
                }
                Some((now, WorkloadEvent::Request(file))) => {
                    cache.request(file, now, &mut NoopProbe)
                }
                None => break,
            },
        }
    }

    // The RetryQueue counts initial failed sends and failed sweeps alike;
    // each went onto the wire as one message before it was lost.
    let failed_attempts = retry.failed_attempts();
    let (mut result, _) = cache.finish("Invalidation (partitioned)".to_string());
    result.traffic.messages += failed_attempts;
    result.traffic.message_bytes += failed_attempts * httpsim::PAPER_MESSAGE_BYTES;
    PartitionedResult {
        result,
        failed_attempts,
        late_deliveries,
    }
}

/// Compare partitioned invalidation against an unpartitioned Alex run on
/// the same workload — §6's resilience argument as numbers. Returns
/// `(partitioned_invalidation, alex)`; the two runs execute as a
/// parallel pair.
pub fn resilience_comparison(
    workload: &Workload,
    outages: &[Outage],
    alex_threshold: u32,
    runner: &SweepRunner,
) -> (PartitionedResult, RunResult) {
    // Alex is oblivious to the notification channel; its run is identical
    // with or without the outage.
    runner.join(
        || run_partitioned_invalidation(workload, outages),
        || {
            run(
                workload,
                ProtocolSpec::Alex(alex_threshold),
                &SimConfig::optimized(),
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    fn hours(h: u64) -> SimDuration {
        SimDuration::from_hours(h)
    }

    /// A file that changes mid-outage and is read every hour.
    fn outage_scenario() -> (Workload, Vec<Outage>) {
        let mut b = ScenarioBuilder::new("outage", SimDuration::from_days(2));
        let f = b.file("/volatile.html", 5_000, SimDuration::from_days(5), 0);
        b.modify(f, hours(10), None);
        b.request_every(f, hours(1), hours(1));
        let wl = b.build();
        let outages = vec![Outage {
            from: wl.start + hours(8),
            until: wl.start + hours(20),
        }];
        (wl, outages)
    }

    #[test]
    fn partition_makes_invalidation_serve_stale() {
        let (wl, outages) = outage_scenario();
        let healthy = run_partitioned_invalidation(&wl, &[]);
        assert_eq!(healthy.result.cache.stale_hits, 0);
        assert_eq!(healthy.failed_attempts, 0);

        let partitioned = run_partitioned_invalidation(&wl, &outages);
        // Change at +10h, notice stuck until just past +20h (the next
        // backoff attempt after recovery): requests at 10..=20h — the one
        // tied with the change sees the new origin version too — are
        // stale: 11 of them.
        assert_eq!(partitioned.result.cache.stale_hits, 11);
        assert!(partitioned.failed_attempts > 0);
        assert_eq!(partitioned.late_deliveries, 1);
    }

    #[test]
    fn with_no_outage_it_is_the_ordinary_invalidation_run() {
        let wl = crate::generate_synthetic(&crate::WorrellConfig::scaled(80, 2_500), 3);
        let healthy = run_partitioned_invalidation(&wl, &[]);
        let plain = run(&wl, ProtocolSpec::Invalidation, &SimConfig::optimized());
        assert!(plain.server.invalidations_sent > 0 && plain.cache.misses > 0);
        assert_eq!(healthy.result.traffic, plain.traffic);
        assert_eq!(healthy.result.cache, plain.cache);
        assert_eq!(healthy.result.server, plain.server);
        assert_eq!(healthy.result.stale_age_total, plain.stale_age_total);
        assert_eq!((healthy.failed_attempts, healthy.late_deliveries), (0, 0));
    }

    #[test]
    fn notice_delivery_resumes_after_recovery() {
        let (wl, outages) = outage_scenario();
        let partitioned = run_partitioned_invalidation(&wl, &outages);
        // After delivery the next request misses (refetch) and everything
        // afterwards is fresh: exactly one post-change miss.
        assert_eq!(partitioned.result.cache.misses, 1);
        let requests = wl.request_count() as u64;
        assert_eq!(
            partitioned.result.cache.fresh_hits,
            requests - 11 - 1,
            "all non-stale, non-miss requests are fresh"
        );
    }

    #[test]
    fn retry_backoff_bounds_attempts() {
        let (wl, outages) = outage_scenario();
        let partitioned = run_partitioned_invalidation(&wl, &outages);
        // 12h outage with 2min..32min capped backoff: a couple dozen
        // attempts, not thousands (exponential backoff works) and not
        // one (it does keep trying).
        assert!(
            (3..200).contains(&partitioned.failed_attempts),
            "attempts = {}",
            partitioned.failed_attempts
        );
    }

    #[test]
    fn alex_is_oblivious_to_the_partition() {
        let (wl, outages) = outage_scenario();
        let (partitioned, alex) = resilience_comparison(&wl, &outages, 10, &SweepRunner::new(0));
        // Alex's staleness is bounded by its threshold (the object is 5
        // days old: horizon ~12h), independent of the outage.
        assert!(alex.cache.stale_hits <= partitioned.result.cache.stale_hits + 3);
        // And it pays no retry traffic at all.
        assert!(partitioned.failed_attempts > 0);
    }

    #[test]
    fn back_to_back_outages_accumulate() {
        let mut b = ScenarioBuilder::new("double", SimDuration::from_days(4));
        let f = b.file("/x", 1_000, SimDuration::from_days(3), 0);
        b.modify(f, hours(10), None);
        b.modify(f, hours(60), None);
        b.request_every(f, hours(2), hours(2));
        let wl = b.build();
        let outages = vec![
            Outage {
                from: wl.start + hours(9),
                until: wl.start + hours(15),
            },
            Outage {
                from: wl.start + hours(58),
                until: wl.start + hours(70),
            },
        ];
        let r = run_partitioned_invalidation(&wl, &outages);
        assert!(r.late_deliveries == 2, "both notices arrive late");
        assert!(r.result.cache.stale_hits >= 5);
    }

    #[test]
    fn outages_normalise_to_their_union() {
        let mut b = ScenarioBuilder::new("union", SimDuration::from_days(4));
        let f = b.file("/x", 1_000, SimDuration::from_days(3), 0);
        b.modify(f, hours(10), None);
        b.modify(f, hours(60), None);
        b.request_every(f, hours(2), hours(2));
        let wl = b.build();
        let outage = |from, until| Outage {
            from: wl.start + hours(from),
            until: wl.start + hours(until),
        };
        let partitioned = |outages: &[Outage]| run_partitioned_invalidation(&wl, outages);
        // Overlapping outages, out of order and one nested: their union.
        let union = partitioned(&[outage(9, 20)]);
        assert_eq!(
            (union.late_deliveries, union.result.cache.stale_hits),
            (1, 6)
        );
        assert_eq!(
            partitioned(&[outage(14, 20), outage(9, 16), outage(10, 12)]),
            union
        );
        // An inverted or empty outage is none. Read as a down and an up,
        // the inverted one would leave the channel down from 30 h on and
        // strand the change at 60 h.
        let healthy = partitioned(&[]);
        assert_eq!(partitioned(&[outage(30, 20), outage(40, 40)]), healthy);
        assert_eq!(partitioned(&[outage(30, 20), outage(9, 20)]), union);
    }

    #[test]
    fn a_retry_on_a_fed_requests_instant_fires_after_it() {
        // The change at +10h cannot be announced; the first retry, one
        // base interval later, finds the channel back up and shares its
        // instant with a request. The workload's event goes first, so
        // that request is still served the old copy.
        let mut b = ScenarioBuilder::new("tie", SimDuration::from_days(1));
        let f = b.file("/x", 1_000, SimDuration::from_days(5), 0);
        b.modify(f, hours(10), None);
        b.request(f, hours(10) + RETRY_BASE);
        b.request(f, hours(11));
        let wl = b.build();
        let outage = Outage {
            from: wl.start + hours(9),
            until: wl.start + hours(10) + SimDuration::from_mins(1),
        };
        let r = run_partitioned_invalidation(&wl, &[outage]);
        assert_eq!((r.failed_attempts, r.late_deliveries), (1, 1));
        assert_eq!((r.result.cache.stale_hits, r.result.cache.misses), (1, 1));
    }

    /// FNV-1a over the `Debug` renderings of a grid of outage scripts on
    /// a generated workload, where a 6 h outage covers a dozen or more
    /// modifications. Recorded at PR 18, when every failed send queued
    /// its own chain of retry events; whatever orders the retries now
    /// must reproduce it.
    #[test]
    fn the_outage_grid_matches_the_pinned_hash() {
        let wl = crate::generate_synthetic(&crate::WorrellConfig::scaled(600, 40_000), 11);
        // The first change after the (preloaded, fully subscribed) start:
        // an outage beginning on it makes it the first failed send.
        let m = wl
            .population
            .modifications()
            .iter()
            .find(|&&(t, _)| t > wl.start)
            .expect("changes")
            .0;
        // Its third retry, before the backoff reaches the 32 min cap.
        let retry = m + SimDuration::from_mins(2 * (8 - 1));
        let second = SimDuration::from_secs(1);
        let day20 = wl.start + SimDuration::from_days(20);
        let outage = |from, until| Outage { from, until };
        let scripts = [
            vec![],
            vec![outage(day20, day20 + hours(6))],
            vec![outage(m, m + hours(6))],
            vec![outage(m, retry - second)],
            vec![outage(m, retry)],
            vec![outage(m, retry + second)],
            vec![
                outage(day20, day20 + hours(6)),
                outage(day20 + hours(6), day20 + hours(9)),
            ],
            vec![outage(wl.end - hours(6), wl.end + hours(3))],
        ];
        let runs = scripts.map(|s| run_partitioned_invalidation(&wl, &s));

        assert!(runs[1].late_deliveries > 12, "many files change in 6 h");
        // `retry` really is a retry instant: up at it delivers, down
        // through it costs exactly one more attempt.
        assert_eq!(runs[4].failed_attempts + 1, runs[5].failed_attempts);
        assert_eq!(runs[4].late_deliveries, runs[5].late_deliveries);

        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in runs.iter().flat_map(|r| format!("{r:?}\n").into_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        const FAILURE_GRID_GOLDEN: u64 = 15_169_985_376_894_046_728;
        assert_eq!(hash, FAILURE_GRID_GOLDEN);
    }
}
