//! Invalidation delivery under cache unreachability.
//!
//! The paper's robustness argument against invalidation protocols (§1, §6):
//! "If a machine with data cached cannot be notified, the server must
//! continue trying to reach it, since the cache will not know to invalidate
//! the object unless it is notified by the server." This module models that
//! obligation: a reachability oracle plus a pending-notice queue with
//! exponential backoff. Failure-injection tests measure the retry traffic
//! and the stale window a partitioned cache suffers — the cost weak
//! consistency avoids ("the right thing automatically happens").

use std::collections::{BTreeMap, BTreeSet};

use simcore::{CacheId, FileId, SimDuration, SimTime};

/// Delivery state for invalidation notices to possibly-unreachable caches.
#[derive(Debug, Clone)]
pub struct RetryQueue {
    /// Caches currently unreachable.
    down: BTreeSet<CacheId>,
    /// Undelivered notices per cache, with the next attempt time and the
    /// current backoff.
    pending: BTreeMap<CacheId, PendingNotices>,
    /// Initial retry interval.
    base_interval: SimDuration,
    /// Backoff cap.
    max_interval: SimDuration,
    /// Total delivery attempts that failed (network cost of the protocol's
    /// special case).
    failed_attempts: u64,
}

#[derive(Debug, Clone)]
struct PendingNotices {
    files: BTreeSet<FileId>,
    next_attempt: SimTime,
    interval: SimDuration,
}

/// Result of a delivery attempt sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Notices delivered as `(cache, file)` pairs, in deterministic order.
    pub delivered: Vec<(CacheId, FileId)>,
    /// Attempts that failed because the cache was still down.
    pub failed_attempts: u64,
}

impl RetryQueue {
    /// A queue retrying every `base_interval`, doubling up to
    /// `max_interval`.
    ///
    /// # Panics
    /// Panics if `base_interval` is zero or exceeds `max_interval`.
    pub fn new(base_interval: SimDuration, max_interval: SimDuration) -> Self {
        assert!(
            base_interval > SimDuration::ZERO,
            "retry interval must be positive"
        );
        assert!(
            base_interval <= max_interval,
            "base interval must not exceed the cap"
        );
        RetryQueue {
            down: BTreeSet::new(),
            pending: BTreeMap::new(),
            base_interval,
            max_interval,
            failed_attempts: 0,
        }
    }

    /// Mark `cache` unreachable.
    pub fn mark_down(&mut self, cache: CacheId) {
        self.down.insert(cache);
    }

    /// Mark `cache` reachable again. Pending notices become deliverable at
    /// the next sweep.
    pub fn mark_up(&mut self, cache: CacheId) {
        self.down.remove(&cache);
    }

    /// Whether `cache` is currently unreachable.
    pub fn is_down(&self, cache: CacheId) -> bool {
        self.down.contains(&cache)
    }

    /// Attempt to send an invalidation of `file` to `cache` at `now`.
    /// Returns `true` if delivered immediately; otherwise the notice is
    /// queued for retry.
    pub fn send(&mut self, cache: CacheId, file: FileId, now: SimTime) -> bool {
        if !self.is_down(cache) {
            return true;
        }
        self.failed_attempts += 1;
        let base = self.base_interval;
        let entry = self.pending.entry(cache).or_insert_with(|| PendingNotices {
            files: BTreeSet::new(),
            next_attempt: now + base,
            interval: base,
        });
        entry.files.insert(file);
        false
    }

    /// Earliest scheduled retry across all caches, if any.
    pub fn next_attempt(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.next_attempt).min()
    }

    /// Run every retry due at or before `now`. Delivered notices are
    /// removed; still-down caches back off exponentially.
    pub fn sweep(&mut self, now: SimTime) -> DeliveryReport {
        let mut report = DeliveryReport::default();
        let due: Vec<CacheId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.next_attempt <= now)
            .map(|(&c, _)| c)
            .collect();
        for cache in due {
            if self.is_down(cache) {
                let p = self.pending.get_mut(&cache).expect("due cache present");
                // One failed attempt covers the batched notices for this
                // cache (a single connection attempt).
                self.failed_attempts += 1;
                report.failed_attempts += 1;
                let doubled = SimDuration::from_secs(
                    (p.interval.as_secs().saturating_mul(2)).min(self.max_interval.as_secs()),
                );
                p.interval = doubled;
                p.next_attempt = now + doubled;
            } else {
                let p = self.pending.remove(&cache).expect("due cache present");
                for file in p.files {
                    report.delivered.push((cache, file));
                }
            }
        }
        report
    }

    /// Total failed delivery attempts over the queue's lifetime.
    pub fn failed_attempts(&self) -> u64 {
        self.failed_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn queue() -> RetryQueue {
        RetryQueue::new(d(60), d(960))
    }

    /// Number of undelivered notices.
    fn pending_notices(q: &RetryQueue) -> usize {
        q.pending.values().map(|p| p.files.len()).sum()
    }

    #[test]
    fn reachable_cache_delivers_immediately() {
        let mut q = queue();
        assert!(q.send(CacheId(1), FileId(1), t(0)));
        assert_eq!(pending_notices(&q), 0);
        assert_eq!(q.failed_attempts(), 0);
    }

    #[test]
    fn down_cache_queues_notice() {
        let mut q = queue();
        q.mark_down(CacheId(1));
        assert!(!q.send(CacheId(1), FileId(7), t(0)));
        assert_eq!(pending_notices(&q), 1);
        assert_eq!(q.failed_attempts(), 1);
        assert_eq!(q.next_attempt(), Some(t(60)));
    }

    #[test]
    fn notices_batch_per_cache() {
        let mut q = queue();
        q.mark_down(CacheId(1));
        q.send(CacheId(1), FileId(1), t(0));
        q.send(CacheId(1), FileId(2), t(5));
        q.send(CacheId(1), FileId(1), t(6)); // duplicate collapses
        assert_eq!(pending_notices(&q), 2);
    }

    #[test]
    fn sweep_delivers_after_recovery() {
        let mut q = queue();
        q.mark_down(CacheId(1));
        q.send(CacheId(1), FileId(1), t(0));
        q.send(CacheId(1), FileId(2), t(0));
        q.mark_up(CacheId(1));
        let report = q.sweep(t(60));
        assert_eq!(
            report.delivered,
            vec![(CacheId(1), FileId(1)), (CacheId(1), FileId(2))]
        );
        assert_eq!(report.failed_attempts, 0);
        assert_eq!(pending_notices(&q), 0);
        assert_eq!(q.next_attempt(), None);
    }

    #[test]
    fn sweep_backs_off_exponentially_while_down() {
        let mut q = queue();
        q.mark_down(CacheId(1));
        q.send(CacheId(1), FileId(1), t(0));
        // Attempts at 60, then 60+120=180, then 180+240=420 ...
        let r1 = q.sweep(t(60));
        assert_eq!(r1.failed_attempts, 1);
        assert_eq!(q.next_attempt(), Some(t(180)));
        let r2 = q.sweep(t(180));
        assert_eq!(r2.failed_attempts, 1);
        assert_eq!(q.next_attempt(), Some(t(420)));
        // Not due yet: nothing happens.
        let r3 = q.sweep(t(200));
        assert_eq!(r3, DeliveryReport::default());
    }

    #[test]
    fn backoff_caps_at_max_interval() {
        let mut q = RetryQueue::new(d(100), d(200));
        q.mark_down(CacheId(1));
        q.send(CacheId(1), FileId(1), t(0));
        q.sweep(t(100)); // interval -> 200
        q.sweep(t(300)); // interval stays 200 (capped)
        assert_eq!(q.next_attempt(), Some(t(500)));
    }

    #[test]
    fn stale_window_spans_outage() {
        // The failure-injection scenario the paper describes: an
        // invalidation cannot reach a partitioned cache, so the cache's
        // copy stays (wrongly) valid until recovery.
        let mut q = queue();
        q.mark_down(CacheId(1));
        assert!(!q.send(CacheId(1), FileId(1), t(0)));
        // Three retries fail.
        q.sweep(t(60));
        q.sweep(t(180));
        q.sweep(t(420));
        assert_eq!(q.failed_attempts(), 4); // 1 initial + 3 sweeps
                                            // Recovery at t=800; delivery at the next due attempt (t=900).
        q.mark_up(CacheId(1));
        assert_eq!(q.sweep(t(899)), DeliveryReport::default());
        let r = q.sweep(t(900));
        assert_eq!(r.delivered, vec![(CacheId(1), FileId(1))]);
        // Stale window: t=0 (change) to t=900 (notice delivered).
    }

    #[test]
    fn multiple_down_caches_sweep_deterministically() {
        let mut q = queue();
        q.mark_down(CacheId(2));
        q.mark_down(CacheId(1));
        q.send(CacheId(2), FileId(9), t(0));
        q.send(CacheId(1), FileId(8), t(0));
        q.mark_up(CacheId(1));
        q.mark_up(CacheId(2));
        let r = q.sweep(t(60));
        assert_eq!(
            r.delivered,
            vec![(CacheId(1), FileId(8)), (CacheId(2), FileId(9))]
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_interval_panics() {
        RetryQueue::new(SimDuration::ZERO, d(10));
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_intervals_panic() {
        RetryQueue::new(d(100), d(10));
    }
}
