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

/// Declares [`Metric`] from one `Variant => "registry.name"` list.
macro_rules! metrics {
    ($($metric:ident => $name:literal,)*) => {
        /// A counter, gauge or histogram [`MetricsProbe::record`] writes.
        /// Its discriminant indexes the probe's remembered positions.
        #[derive(Debug, Clone, Copy)]
        enum Metric {
            $($metric,)*
        }

        impl Metric {
            const NAMES: &'static [&'static str] = &[$($name),*];
            const COUNT: usize = Self::NAMES.len();

            fn name(self) -> &'static str {
                Self::NAMES[self as usize]
            }
        }
    };
}

metrics! {
    FreshHit => "request.fresh_hit",
    StaleHit => "request.stale_hit",
    Miss => "request.miss",
    ValidatedFresh => "request.validated_fresh",
    ValidatedStale => "request.validated_stale",
    Uncacheable => "request.uncacheable",
    ValidationModified => "validation.modified",
    ValidationNotModified => "validation.not_modified",
    Invalidations => "invalidation.count",
    Evictions => "eviction.count",
    Modifications => "modification.count",
    DocumentRequest => "server.document_request",
    ValidationQuery => "server.validation_query",
    InvalidationSent => "server.invalidation_sent",
    InvalidationRetracted => "server.invalidation_retracted",
    PolicyFresh => "policy.fresh",
    PolicyStale => "policy.stale",
    UpstreamReused => "upstream.reused",
    UpstreamDialed => "upstream.dialed",
    ConnAccepted => "conn.accepted",
    ClosedPeer => "conn.closed.peer_closed",
    ClosedError => "conn.closed.error",
    ClosedBudget => "conn.closed.budget_exhausted",
    ClosedAtCapacity => "conn.closed.at_capacity",
    ClosedShutdown => "conn.closed.shutdown",
    OpenLoopArrival => "openloop.arrival",
    ShedQueueFull => "openloop.shed.queue_full",
    ShedTimeout => "openloop.shed.timeout",
    LockContended => "lock.contended",
    QueueDepth => "queue_depth",
    ShardQueueDepth => "shard_queue_depth",
    ReactorConns => "reactor_conns",
    LockContendedRank => "lock_contended_rank",
    TimeToStale => "time_to_stale_s",
    ValidationInterval => "validation_interval_s",
    InvalidationFanout => "invalidation_fanout",
    LiveLatency => "live_latency_us",
    AcceptBacklogDepth => "accept_backlog_depth",
    OpenLoopQueueDepth => "openloop_queue_depth",
    OpenLoopQueueDelay => "openloop_queue_delay_us",
}

/// A position no table reaches: the metric has not been written yet.
const UNSEEN: usize = usize::MAX;

/// Where `name` sits in `table`.
fn position<T>(table: &[(String, T)], name: &str) -> usize {
    table
        .iter()
        .position(|(n, _)| n == name)
        .expect("the metric was just written")
}

/// A [`Probe`] that folds the event stream into a [`MetricsRegistry`]:
/// outcome/operation counters, a queue-depth high-watermark, and the
/// four headline histograms (`time_to_stale_s`, `validation_interval_s`,
/// `invalidation_fanout`, `live_latency_us`).
///
/// A metric's first write goes through the registry's by-name API
/// ([`MetricsRegistry::add`], [`MetricsRegistry::gauge_max`],
/// [`MetricsRegistry::observe`]), which fixes its place in insertion
/// order; the probe remembers that place and writes there directly
/// afterwards, so recording an event compares no names.
#[derive(Debug, Clone)]
pub struct MetricsProbe {
    registry: MetricsRegistry,
    /// Per-file instant of the previous validation, dense by file index
    /// — feeds the validation-interval histogram.
    last_validation: Vec<Option<SimTime>>,
    /// Each [`Metric`]'s position in its registry table, or [`UNSEEN`].
    at: [usize; Metric::COUNT],
}

impl Default for MetricsProbe {
    fn default() -> Self {
        MetricsProbe {
            registry: MetricsRegistry::default(),
            last_validation: Vec::new(),
            at: [UNSEEN; Metric::COUNT],
        }
    }
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

    /// Add one to the counter `metric`.
    fn count(&mut self, metric: Metric) {
        let at = &mut self.at[metric as usize];
        match self.registry.counters.get_mut(*at) {
            Some((name, v)) => {
                debug_assert_eq!(name, metric.name());
                *v += 1;
            }
            None => {
                self.registry.add(metric.name(), 1);
                *at = position(&self.registry.counters, metric.name());
            }
        }
    }

    /// Raise the high-watermark gauge `metric` to `value`.
    fn gauge_max(&mut self, metric: Metric, value: i64) {
        let at = &mut self.at[metric as usize];
        match self.registry.gauges.get_mut(*at) {
            Some((name, v)) => {
                debug_assert_eq!(name, metric.name());
                *v = (*v).max(value);
            }
            None => {
                self.registry.gauge_max(metric.name(), value);
                *at = position(&self.registry.gauges, metric.name());
            }
        }
    }

    /// Record one sample into the histogram `metric`.
    fn observe(&mut self, metric: Metric, value: u64) {
        let at = &mut self.at[metric as usize];
        match self.registry.histograms.get_mut(*at) {
            Some((name, h)) => {
                debug_assert_eq!(name, metric.name());
                h.record(value);
            }
            None => {
                self.registry.observe(metric.name(), value);
                *at = position(&self.registry.histograms, metric.name());
            }
        }
    }
}

impl Probe for MetricsProbe {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
        match event {
            ObsEvent::Request { outcome, .. } => {
                let metric = match outcome {
                    RequestOutcome::FreshHit => Metric::FreshHit,
                    RequestOutcome::StaleHit { age } => {
                        self.observe(Metric::TimeToStale, age.as_secs());
                        Metric::StaleHit
                    }
                    RequestOutcome::Miss => Metric::Miss,
                    RequestOutcome::ValidatedFresh => Metric::ValidatedFresh,
                    RequestOutcome::ValidatedStale => Metric::ValidatedStale,
                    RequestOutcome::Uncacheable => Metric::Uncacheable,
                };
                self.count(metric);
            }
            ObsEvent::Validation { file, modified } => {
                self.count(if modified {
                    Metric::ValidationModified
                } else {
                    Metric::ValidationNotModified
                });
                let idx = file.index();
                if idx >= self.last_validation.len() {
                    self.last_validation.resize(idx + 1, None);
                }
                if let Some(prev) = self.last_validation[idx] {
                    let gap: SimDuration = at.saturating_since(prev);
                    self.observe(Metric::ValidationInterval, gap.as_secs());
                }
                self.last_validation[idx] = Some(at);
            }
            ObsEvent::Invalidation { fanout, .. } => {
                self.count(Metric::Invalidations);
                self.observe(Metric::InvalidationFanout, u64::from(fanout));
            }
            ObsEvent::Eviction { .. } => self.count(Metric::Evictions),
            ObsEvent::Modification { .. } => self.count(Metric::Modifications),
            ObsEvent::ServerOp { kind } => self.count(match kind {
                ServerOpKind::DocumentRequest => Metric::DocumentRequest,
                ServerOpKind::ValidationQuery => Metric::ValidationQuery,
                ServerOpKind::InvalidationSent => Metric::InvalidationSent,
                ServerOpKind::InvalidationRetracted => Metric::InvalidationRetracted,
            }),
            ObsEvent::PolicyDecision { fresh, .. } => self.count(if fresh {
                Metric::PolicyFresh
            } else {
                Metric::PolicyStale
            }),
            ObsEvent::Dispatched { pending } => {
                self.gauge_max(Metric::QueueDepth, i64::from(pending));
            }
            ObsEvent::LiveLatency { micros } => self.observe(Metric::LiveLatency, micros),
            ObsEvent::ShardQueue { depth, .. } => {
                self.gauge_max(Metric::ShardQueueDepth, i64::from(depth));
            }
            ObsEvent::Upstream { reused } => self.count(if reused {
                Metric::UpstreamReused
            } else {
                Metric::UpstreamDialed
            }),
            ObsEvent::ConnAccepted { open, .. } => {
                self.count(Metric::ConnAccepted);
                self.gauge_max(Metric::ReactorConns, i64::from(open));
            }
            ObsEvent::ConnClosed { reason, .. } => self.count(match reason {
                ConnCloseReason::PeerClosed => Metric::ClosedPeer,
                ConnCloseReason::Error => Metric::ClosedError,
                ConnCloseReason::BudgetExhausted => Metric::ClosedBudget,
                ConnCloseReason::AtCapacity => Metric::ClosedAtCapacity,
                ConnCloseReason::Shutdown => Metric::ClosedShutdown,
            }),
            ObsEvent::AcceptBacklog { depth, .. } => {
                self.observe(Metric::AcceptBacklogDepth, u64::from(depth));
            }
            ObsEvent::OpenLoopArrival { depth } => {
                self.count(Metric::OpenLoopArrival);
                self.observe(Metric::OpenLoopQueueDepth, u64::from(depth));
            }
            ObsEvent::OpenLoopShed { reason } => self.count(match reason {
                ShedReason::QueueFull => Metric::ShedQueueFull,
                ShedReason::Timeout => Metric::ShedTimeout,
            }),
            ObsEvent::OpenLoopQueueDelay { micros } => {
                self.observe(Metric::OpenLoopQueueDelay, micros);
            }
            ObsEvent::LockContended { rank } => {
                self.count(Metric::LockContended);
                self.gauge_max(Metric::LockContendedRank, i64::from(rank));
            }
            // Its counts are the engine's `Tally`; the registry would only
            // name them twice.
            ObsEvent::Exchange { .. } => {}
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
    fn remembered_positions_write_what_names_would() {
        // Each event, and what the probe writes for it by name.
        let stale = RequestOutcome::StaleHit {
            age: SimDuration::from_secs(60),
        };
        let events: [(ObsEvent, &[&str]); 8] = [
            (ObsEvent::Dispatched { pending: 4 }, &["queue_depth"]),
            (
                ObsEvent::Request {
                    file: FileId(1),
                    outcome: stale,
                },
                &["time_to_stale_s", "request.stale_hit"],
            ),
            (
                ObsEvent::Invalidation {
                    file: FileId(1),
                    fanout: 3,
                },
                &["invalidation.count", "invalidation_fanout"],
            ),
            (
                ObsEvent::PolicyDecision {
                    file: FileId(2),
                    fresh: true,
                },
                &["policy.fresh"],
            ),
            (
                ObsEvent::ConnAccepted {
                    reactor: 0,
                    open: 7,
                },
                &["conn.accepted", "reactor_conns"],
            ),
            (
                ObsEvent::ConnClosed {
                    reactor: 0,
                    reason: ConnCloseReason::BudgetExhausted,
                },
                &["conn.closed.budget_exhausted"],
            ),
            (ObsEvent::LiveLatency { micros: 90 }, &["live_latency_us"]),
            (ObsEvent::Eviction { file: FileId(3) }, &["eviction.count"]),
        ];
        let mut probe = MetricsProbe::new();
        let mut by_name = MetricsRegistry::new();
        for round in 0..3 {
            for (event, names) in &events {
                probe.record(t(round), *event);
                for &name in *names {
                    match name {
                        "queue_depth" => by_name.gauge_max(name, 4),
                        "reactor_conns" => by_name.gauge_max(name, 7),
                        "time_to_stale_s" => by_name.observe(name, 60),
                        "invalidation_fanout" => by_name.observe(name, 3),
                        "live_latency_us" => by_name.observe(name, 90),
                        _ => by_name.add(name, 1),
                    }
                }
            }
        }
        // Same entries, same insertion order, same values.
        assert_eq!(format!("{:?}", probe.registry()), format!("{by_name:?}"));
        assert_eq!(probe.registry().counter("request.stale_hit"), 3);
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
