//! Named counters, gauges, and log2-bucketed histograms, plus the
//! [`MetricsProbe`] that aggregates the event stream into them.
//!
//! Storage is deliberately `Vec`-backed (linear name lookup): metric
//! name sets are tiny, insertion order is deterministic, and rendering
//! sorts by name — so the registry never touches an unordered container
//! (analyzer rule r2) and two identical runs render identical tables.

use std::fmt::Write as _;

use simcore::{SimDuration, SimTime};

use crate::probe::{ConnCloseReason, ObsEvent, Probe, RequestOutcome, ServerOpKind, ShedReason};

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `k > 0` holds values in
/// `[2^(k-1), 2^k)`. 65 buckets cover the full `u64` range.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty `(bucket_low, bucket_high_exclusive, count)` rows,
    /// lowest bucket first.
    pub fn rows(&self) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        for (k, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, hi) = if k == 0 {
                (0, 1)
            } else {
                (1u64 << (k - 1), (1u128 << k).min(u64::MAX as u128) as u64)
            };
            out.push((lo, hi, n));
        }
        out
    }
}

/// Named counters, gauges, and histograms.
///
/// Counter and gauge reads on absent names return zero / `None`;
/// writes create the entry. All rendering is name-sorted.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<(String, Log2Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name.to_string(), delta)),
        }
    }

    /// Current value of the named counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Raise the named gauge to `value` if it is higher (created on
    /// first write) — a high-watermark gauge.
    pub fn gauge_max(&mut self, name: &str, value: i64) {
        match self.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = (*v).max(value),
            None => self.gauges.push((name.to_string(), value)),
        }
    }

    /// Current value of the named gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Record one sample into the named histogram (created empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.record(value),
            None => {
                let mut h = Log2Histogram::new();
                h.record(value);
                self.histograms.push((name.to_string(), h));
            }
        }
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Fold another registry into this one (counters add, gauges take
    /// the max, histograms merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.add(name, *v);
        }
        for (name, v) in &other.gauges {
            self.gauge_max(name, *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
    }

    /// Counters and gauges as an aligned, name-sorted table.
    pub fn render_counters(&self) -> String {
        let mut rows: Vec<(String, String)> = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.to_string()))
            .chain(
                self.gauges
                    .iter()
                    .map(|(n, v)| (format!("{n} (gauge)"), v.to_string())),
            )
            .collect();
        rows.sort();
        let w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in rows {
            writeln!(out, "  {name:<w$}  {value:>12}").expect("infallible");
        }
        out
    }

    /// Every histogram as name-sorted bucket tables with a `#`-bar per
    /// row (scaled to the largest bucket).
    pub fn render_histograms(&self) -> String {
        let mut names: Vec<&String> = self.histograms.iter().map(|(n, _)| n).collect();
        names.sort();
        let mut out = String::new();
        for name in names {
            let h = self.histogram(name).expect("name came from the registry");
            writeln!(
                out,
                "  {name}: {} sample(s), min {} max {} mean {:.1}",
                h.count(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.mean().unwrap_or(0.0)
            )
            .expect("infallible");
            let rows = h.rows();
            let peak = rows.iter().map(|&(_, _, n)| n).max().unwrap_or(1);
            for (lo, hi, n) in rows {
                let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
                writeln!(out, "    [{lo:>12}, {hi:>12})  {n:>10}  {bar}").expect("infallible");
            }
        }
        out
    }
}

/// A [`Probe`] that folds the event stream into a [`MetricsRegistry`]:
/// outcome/operation counters, a queue-depth high-watermark, and the
/// four headline histograms (`time_to_stale_s`, `validation_interval_s`,
/// `invalidation_fanout`, `live_latency_us`).
#[derive(Debug, Clone, Default)]
pub struct MetricsProbe {
    registry: MetricsRegistry,
    /// Per-file instant of the previous validation, dense by file index
    /// — feeds the validation-interval histogram.
    last_validation: Vec<Option<SimTime>>,
}

impl MetricsProbe {
    /// An empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregated registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consume the probe, keeping the registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }
}

impl Probe for MetricsProbe {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
        match event {
            ObsEvent::Request { outcome, .. } => {
                let name = match outcome {
                    RequestOutcome::FreshHit => "request.fresh_hit",
                    RequestOutcome::StaleHit { age } => {
                        self.registry.observe("time_to_stale_s", age.as_secs());
                        "request.stale_hit"
                    }
                    RequestOutcome::Miss => "request.miss",
                    RequestOutcome::ValidatedFresh => "request.validated_fresh",
                    RequestOutcome::ValidatedStale => "request.validated_stale",
                    RequestOutcome::Uncacheable => "request.uncacheable",
                };
                self.registry.add(name, 1);
            }
            ObsEvent::Validation { file, modified } => {
                self.registry.add(
                    if modified {
                        "validation.modified"
                    } else {
                        "validation.not_modified"
                    },
                    1,
                );
                let idx = file.index();
                if idx >= self.last_validation.len() {
                    self.last_validation.resize(idx + 1, None);
                }
                if let Some(prev) = self.last_validation[idx] {
                    let gap: SimDuration = at.saturating_since(prev);
                    self.registry
                        .observe("validation_interval_s", gap.as_secs());
                }
                self.last_validation[idx] = Some(at);
            }
            ObsEvent::Invalidation { fanout, .. } => {
                self.registry.add("invalidation.count", 1);
                self.registry
                    .observe("invalidation_fanout", u64::from(fanout));
            }
            ObsEvent::Eviction { .. } => self.registry.add("eviction.count", 1),
            ObsEvent::Modification { .. } => self.registry.add("modification.count", 1),
            ObsEvent::ServerOp { kind } => {
                let name = match kind {
                    ServerOpKind::DocumentRequest => "server.document_request",
                    ServerOpKind::ValidationQuery => "server.validation_query",
                    ServerOpKind::InvalidationSent => "server.invalidation_sent",
                    ServerOpKind::InvalidationRetracted => "server.invalidation_retracted",
                };
                self.registry.add(name, 1);
            }
            ObsEvent::PolicyDecision { fresh, .. } => {
                self.registry.add(
                    if fresh {
                        "policy.fresh"
                    } else {
                        "policy.stale"
                    },
                    1,
                );
            }
            ObsEvent::Dispatched { pending } => {
                self.registry.gauge_max("queue_depth", i64::from(pending));
            }
            ObsEvent::LiveLatency { micros } => {
                self.registry.observe("live_latency_us", micros);
            }
            ObsEvent::ShardQueue { depth, .. } => {
                self.registry
                    .gauge_max("shard_queue_depth", i64::from(depth));
            }
            ObsEvent::Upstream { reused } => {
                self.registry.add(
                    if reused {
                        "upstream.reused"
                    } else {
                        "upstream.dialed"
                    },
                    1,
                );
            }
            ObsEvent::ConnAccepted { open, .. } => {
                self.registry.add("conn.accepted", 1);
                self.registry.gauge_max("reactor_conns", i64::from(open));
            }
            ObsEvent::ConnClosed { reason, .. } => {
                let name = match reason {
                    ConnCloseReason::PeerClosed => "conn.closed.peer_closed",
                    ConnCloseReason::Error => "conn.closed.error",
                    ConnCloseReason::BudgetExhausted => "conn.closed.budget_exhausted",
                    ConnCloseReason::AtCapacity => "conn.closed.at_capacity",
                    ConnCloseReason::Shutdown => "conn.closed.shutdown",
                };
                self.registry.add(name, 1);
            }
            ObsEvent::AcceptBacklog { depth, .. } => {
                self.registry
                    .observe("accept_backlog_depth", u64::from(depth));
            }
            ObsEvent::OpenLoopArrival { depth } => {
                self.registry.add("openloop.arrival", 1);
                self.registry
                    .observe("openloop_queue_depth", u64::from(depth));
            }
            ObsEvent::OpenLoopShed { reason } => {
                let name = match reason {
                    ShedReason::QueueFull => "openloop.shed.queue_full",
                    ShedReason::Timeout => "openloop.shed.timeout",
                };
                self.registry.add(name, 1);
            }
            ObsEvent::OpenLoopQueueDelay { micros } => {
                self.registry.observe("openloop_queue_delay_us", micros);
            }
            ObsEvent::LockContended { rank } => {
                self.registry.add("lock.contended", 1);
                self.registry
                    .gauge_max("lock_contended_rank", i64::from(rank));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::FileId;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn log2_buckets_split_at_powers_of_two() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
        let rows = h.rows();
        assert_eq!(
            rows,
            vec![
                (0, 1, 1),
                (1, 2, 1),
                (2, 4, 2),
                (4, 8, 2),
                (8, 16, 1),
                (1024, 2048, 1),
            ]
        );
    }

    #[test]
    fn probe_classifies_events() {
        let mut p = MetricsProbe::new();
        p.record(
            t(10),
            ObsEvent::Request {
                file: FileId(0),
                outcome: RequestOutcome::StaleHit {
                    age: SimDuration::from_secs(7200),
                },
            },
        );
        p.record(
            t(20),
            ObsEvent::Validation {
                file: FileId(0),
                modified: false,
            },
        );
        p.record(
            t(50),
            ObsEvent::Validation {
                file: FileId(0),
                modified: true,
            },
        );
        p.record(t(60), ObsEvent::Dispatched { pending: 9 });
        let r = p.registry();
        assert_eq!(r.counter("request.stale_hit"), 1);
        assert_eq!(r.counter("validation.not_modified"), 1);
        assert_eq!(r.counter("validation.modified"), 1);
        assert_eq!(r.gauge("queue_depth"), Some(9));
        assert_eq!(r.histogram("time_to_stale_s").unwrap().sum(), 7200);
        // One interval between the two validations: 30 s.
        assert_eq!(r.histogram("validation_interval_s").unwrap().sum(), 30);
    }

    #[test]
    fn probe_classifies_open_loop_events() {
        let mut p = MetricsProbe::new();
        p.record(t(1), ObsEvent::OpenLoopArrival { depth: 3 });
        p.record(t(1), ObsEvent::OpenLoopArrival { depth: 7 });
        p.record(
            t(2),
            ObsEvent::OpenLoopShed {
                reason: ShedReason::QueueFull,
            },
        );
        p.record(
            t(2),
            ObsEvent::OpenLoopShed {
                reason: ShedReason::Timeout,
            },
        );
        p.record(t(3), ObsEvent::OpenLoopQueueDelay { micros: 250 });
        let r = p.registry();
        assert_eq!(r.counter("openloop.arrival"), 2);
        assert_eq!(r.counter("openloop.shed.queue_full"), 1);
        assert_eq!(r.counter("openloop.shed.timeout"), 1);
        assert_eq!(r.histogram("openloop_queue_depth").unwrap().max(), Some(7));
        assert_eq!(r.histogram("openloop_queue_delay_us").unwrap().sum(), 250);
    }

    #[test]
    fn rendering_is_deterministic_and_sorted() {
        let mut r = MetricsRegistry::new();
        r.add("zeta", 3);
        r.add("alpha", 5);
        r.gauge_max("depth", 4);
        r.observe("lat", 100);
        r.observe("lat", 3);
        let c1 = r.render_counters();
        let h1 = r.render_histograms();
        assert_eq!(c1, r.render_counters());
        assert_eq!(h1, r.render_histograms());
        let alpha = c1.find("alpha").unwrap();
        let zeta = c1.find("zeta").unwrap();
        assert!(alpha < zeta, "counters sorted by name");
        assert!(h1.contains("lat: 2 sample(s)"));
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("x", 1);
        b.add("x", 2);
        b.add("y", 7);
        a.observe("h", 5);
        b.observe("h", 6);
        b.gauge_max("g", 3);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.gauge("g"), Some(3));
    }
}
