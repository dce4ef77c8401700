//! Metric accounting for consistency experiments.
//!
//! The paper's "goodness" metric is the number of bytes required to maintain
//! consistency — invalidation messages, stale-data checks, and file-data
//! movement (§3) — plus the cache statistics (hits, misses, stale hits) and
//! server operation counts of §4. [`TrafficMeter`], [`CacheStats`], and
//! [`ServerLoad`] account for exactly those.

use core::fmt;

/// Bytes moved over the network, split the way the paper discusses them:
/// small control messages (queries, 304s, invalidations — "each message
/// averages 43 bytes") versus bulk file-body transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficMeter {
    /// Number of control messages exchanged.
    pub messages: u64,
    /// Bytes of control messages (request and response headers,
    /// invalidation notices, 304 responses).
    pub message_bytes: u64,
    /// Number of file bodies transferred.
    pub file_transfers: u64,
    /// Bytes of file bodies transferred.
    pub file_bytes: u64,
}

impl TrafficMeter {
    /// Record one control message of `bytes` bytes.
    pub fn add_message(&mut self, bytes: u64) {
        self.messages += 1;
        self.message_bytes += bytes;
    }

    /// Record one file-body transfer of `bytes` bytes.
    pub fn add_file_transfer(&mut self, bytes: u64) {
        self.file_transfers += 1;
        self.file_bytes += bytes;
    }

    /// Total consistency-maintenance bytes, the paper's bandwidth metric.
    pub fn total_bytes(&self) -> u64 {
        self.message_bytes + self.file_bytes
    }

    /// Total bytes expressed in (binary) megabytes, as plotted in
    /// Figures 2, 4, and 6.
    pub fn total_megabytes(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Mean control-message size in bytes, `None` when no messages were
    /// sent. The paper reports this averaging 43 bytes.
    pub fn mean_message_bytes(&self) -> Option<f64> {
        (self.messages > 0).then(|| self.message_bytes as f64 / self.messages as f64)
    }

    /// Merge another meter into this one (used to sum per-trace runs).
    pub fn merge(&mut self, other: &TrafficMeter) {
        self.messages += other.messages;
        self.message_bytes += other.message_bytes;
        self.file_transfers += other.file_transfers;
        self.file_bytes += other.file_bytes;
    }
}

impl fmt::Display for TrafficMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} MB ({} msgs / {} B, {} files / {} B)",
            self.total_megabytes(),
            self.messages,
            self.message_bytes,
            self.file_transfers,
            self.file_bytes
        )
    }
}

/// Cache behaviour counters, matching Figures 3, 5, and 7.
///
/// The optimized simulator records a *cache miss* only when a file body
/// actually has to be transferred into the cache (§4.1); a validation that
/// answers `304 Not Modified` is a hit. A *stale hit* is a request satisfied
/// from the cache although the origin copy had already changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests satisfied from the cache with data identical to the origin.
    pub fresh_hits: u64,
    /// Requests satisfied from the cache with data that had changed at the
    /// origin (weak consistency returning stale data).
    pub stale_hits: u64,
    /// Requests that required transferring a file body from the origin.
    pub misses: u64,
    /// Validation round-trips that confirmed the cached copy (304s).
    pub validations_not_modified: u64,
    /// Validation round-trips that found the copy out of date (hence also
    /// counted under `misses` once the body moves).
    pub validations_modified: u64,
}

impl CacheStats {
    /// Total client requests observed.
    pub fn requests(&self) -> u64 {
        self.fresh_hits + self.stale_hits + self.misses
    }

    /// Fraction of requests that transferred a file body (the paper's
    /// "cache miss" series), in [0, 1]. Zero requests yields 0.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.misses, self.requests())
    }

    /// Fraction of requests answered with stale data, in [0, 1].
    pub fn stale_hit_rate(&self) -> f64 {
        ratio(self.stale_hits, self.requests())
    }

    /// Fraction of requests answered from the cache (fresh or stale).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.fresh_hits + self.stale_hits, self.requests())
    }

    /// Merge counters from another run.
    pub fn merge(&mut self, other: &CacheStats) {
        self.fresh_hits += other.fresh_hits;
        self.stale_hits += other.stale_hits;
        self.misses += other.misses;
        self.validations_not_modified += other.validations_not_modified;
        self.validations_modified += other.validations_modified;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reqs: {:.2}% miss, {:.2}% stale",
            self.requests(),
            100.0 * self.miss_rate(),
            100.0 * self.stale_hit_rate()
        )
    }
}

/// Server-side operation counters, matching Figure 8: "requests for
/// documents, queries to determine whether documents are stale, and
/// invalidation messages".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerLoad {
    /// Full document requests served (bodies transferred).
    pub document_requests: u64,
    /// Staleness queries answered (If-Modified-Since checks answered 304).
    pub validation_queries: u64,
    /// Invalidation notifications sent to caches.
    pub invalidations_sent: u64,
}

impl ServerLoad {
    /// Total server operations, the Figure 8 y-axis.
    pub fn total_operations(&self) -> u64 {
        self.document_requests + self.validation_queries + self.invalidations_sent
    }

    /// Merge counters from another run.
    pub fn merge(&mut self, other: &ServerLoad) {
        self.document_requests += other.document_requests;
        self.validation_queries += other.validation_queries;
        self.invalidations_sent += other.invalidations_sent;
    }
}

impl fmt::Display for ServerLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops ({} docs, {} queries, {} invals)",
            self.total_operations(),
            self.document_requests,
            self.validation_queries,
            self.invalidations_sent
        )
    }
}

/// Per-request service-latency samples with percentile reporting — the
/// live serving stack's counterpart to the simulator's analytic link
/// model. Workers record raw nanosecond samples locally and
/// [`merge`](LatencyStats::merge) them at aggregation time, like the
/// other meters here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    samples_ns: Vec<u64>,
    dropped: u64,
}

impl LatencyStats {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one request's service time in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.samples_ns.push(ns);
    }

    /// Count one request whose measured latency could not be recorded
    /// (overflowed the sample type, or the measurement was otherwise
    /// unusable). Percentiles silently computed over a censored sample
    /// set would under-report the tail; the drop count keeps them
    /// honest.
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Requests whose latency measurement was discarded (see
    /// [`record_drop`](LatencyStats::record_drop)).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.samples_ns.len() as u64
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, by the
    /// nearest-rank method on the sorted samples. `None` when empty.
    ///
    /// # Panics
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples_ns.is_empty() {
            return None;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Median service time in nanoseconds.
    pub fn p50_ns(&self) -> Option<u64> {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile service time in nanoseconds.
    pub fn p99_ns(&self) -> Option<u64> {
        self.quantile_ns(0.99)
    }

    /// 99.9th-percentile service time in nanoseconds — the tail the
    /// closed-loop bench reports.
    pub fn p999_ns(&self) -> Option<u64> {
        self.quantile_ns(0.999)
    }

    /// Mean service time in nanoseconds.
    pub fn mean_ns(&self) -> Option<f64> {
        (!self.samples_ns.is_empty())
            .then(|| self.samples_ns.iter().sum::<u64>() as f64 / self.samples_ns.len() as f64)
    }

    /// Absorb another worker's samples.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples_ns.extend_from_slice(&other.samples_ns);
        self.dropped += other.dropped;
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.p50_ns(), self.p99_ns()) {
            (Some(p50), Some(p99)) => write!(
                f,
                "{} samples: p50 {:.1}us, p99 {:.1}us",
                self.count(),
                p50 as f64 / 1000.0,
                p99 as f64 / 1000.0
            ),
            _ => write!(f, "no samples"),
        }
    }
}

fn ratio(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_meter_accumulates_and_splits() {
        let mut t = TrafficMeter::default();
        t.add_message(43);
        t.add_message(43);
        t.add_file_transfer(8_000);
        assert_eq!(t.messages, 2);
        assert_eq!(t.file_transfers, 1);
        assert_eq!(t.total_bytes(), 8_086);
        assert_eq!(t.mean_message_bytes(), Some(43.0));
    }

    #[test]
    fn traffic_meter_megabytes() {
        let mut t = TrafficMeter::default();
        t.add_file_transfer(3 * 1024 * 1024);
        assert!((t.total_megabytes() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_has_no_mean_message_size() {
        assert_eq!(TrafficMeter::default().mean_message_bytes(), None);
        assert_eq!(TrafficMeter::default().total_bytes(), 0);
    }

    #[test]
    fn cache_stats_rates() {
        let s = CacheStats {
            fresh_hits: 70,
            stale_hits: 10,
            misses: 20,
            validations_not_modified: 5,
            validations_modified: 20,
        };
        assert_eq!(s.requests(), 100);
        assert!((s.miss_rate() - 0.20).abs() < 1e-12);
        assert!((s.stale_hit_rate() - 0.10).abs() < 1e-12);
        assert!((s.hit_rate() - 0.80).abs() < 1e-12);
    }

    #[test]
    fn zero_requests_give_zero_rates() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.stale_hit_rate(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn server_load_totals() {
        let l = ServerLoad {
            document_requests: 10,
            validation_queries: 20,
            invalidations_sent: 30,
        };
        assert_eq!(l.total_operations(), 60);
    }

    #[test]
    fn merges_are_componentwise_sums() {
        let mut a = TrafficMeter::default();
        a.add_message(40);
        let mut b = TrafficMeter::default();
        b.add_message(46);
        b.add_file_transfer(100);
        a.merge(&b);
        assert_eq!(a.messages, 2);
        assert_eq!(a.message_bytes, 86);
        assert_eq!(a.file_bytes, 100);
        assert_eq!(a.mean_message_bytes(), Some(43.0));

        let mut c = CacheStats {
            fresh_hits: 1,
            ..Default::default()
        };
        let d = CacheStats {
            misses: 2,
            stale_hits: 3,
            ..Default::default()
        };
        c.merge(&d);
        assert_eq!(c.requests(), 6);

        let mut e = ServerLoad {
            document_requests: 1,
            ..Default::default()
        };
        let f = ServerLoad {
            invalidations_sent: 2,
            ..Default::default()
        };
        e.merge(&f);
        assert_eq!(e.total_operations(), 3);
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let mut l = LatencyStats::new();
        for ns in [50, 10, 40, 30, 20] {
            l.record_ns(ns);
        }
        assert_eq!(l.count(), 5);
        assert_eq!(l.quantile_ns(0.0), Some(10)); // rank clamps to 1
        assert_eq!(l.p50_ns(), Some(30));
        assert_eq!(l.p99_ns(), Some(50));
        assert_eq!(l.quantile_ns(1.0), Some(50));
        assert_eq!(l.mean_ns(), Some(30.0));
    }

    #[test]
    fn empty_latency_has_no_percentiles() {
        let l = LatencyStats::new();
        assert_eq!(l.p50_ns(), None);
        assert_eq!(l.p99_ns(), None);
        assert_eq!(l.mean_ns(), None);
        assert_eq!(l.to_string(), "no samples");
    }

    #[test]
    fn latency_merge_pools_samples() {
        let mut a = LatencyStats::new();
        a.record_ns(1);
        let mut b = LatencyStats::new();
        b.record_ns(3);
        b.record_ns(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.p50_ns(), Some(3));
        assert!(a.to_string().contains("p50"));
    }

    #[test]
    fn latency_p999_resolves_the_tail() {
        let mut l = LatencyStats::new();
        for ns in 1..=1000 {
            l.record_ns(ns);
        }
        assert_eq!(l.p99_ns(), Some(990));
        assert_eq!(l.p999_ns(), Some(999));
        // With few samples p999 degrades to the max, never to None.
        let mut s = LatencyStats::new();
        s.record_ns(7);
        assert_eq!(s.p999_ns(), Some(7));
    }

    #[test]
    fn latency_drops_are_counted_and_merged() {
        let mut a = LatencyStats::new();
        a.record_ns(10);
        a.record_drop();
        assert_eq!(a.count(), 1, "drops are not samples");
        assert_eq!(a.dropped(), 1);
        let mut b = LatencyStats::new();
        b.record_drop();
        b.record_drop();
        a.merge(&b);
        assert_eq!(a.dropped(), 3);
        assert_eq!(a.count(), 1);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn latency_rejects_bad_quantile() {
        let mut l = LatencyStats::new();
        l.record_ns(1);
        l.quantile_ns(1.5);
    }

    #[test]
    fn displays_are_humane() {
        let mut t = TrafficMeter::default();
        t.add_message(43);
        assert!(t.to_string().contains("msgs"));
        assert!(CacheStats::default().to_string().contains("0 reqs"));
        assert!(ServerLoad::default().to_string().contains("0 ops"));
    }
}
