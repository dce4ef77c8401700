//! The consistency simulator: one cache, one origin, one workload, one
//! protocol.
//!
//! This is the paper's instrument (§3): Worrell's simulator with the
//! hierarchy flattened to a single cache, the Alex protocol added, and —
//! in the *optimized* configuration — conditional (`If-Modified-Since`)
//! retrieval replacing eager refetch. The same function runs the base
//! simulator, the optimized simulator, and the modified-workload (trace)
//! simulator; only the [`SimConfig`] and the [`Workload`] differ.
//!
//! What the cache does with a request is [`consistency::Engine`]'s
//! business. This module is the engine's simulated transport
//! (`SimCache`: each effect becomes a call on an in-process
//! [`OriginServer`], priced by the paper's costing) and the loop that
//! walks the workload's schedule through it.
//!
//! Accounting follows the paper exactly:
//!
//! * **bandwidth** — "the number of bytes required to maintain
//!   consistency, including invalidation messages, stale data checks, and
//!   file data movement";
//! * **cache miss** — a request that required transferring a file body;
//! * **stale hit** — a request served from cache although the origin copy
//!   had changed;
//! * **server operations** — document requests + staleness queries +
//!   invalidation messages (Figure 8).

use std::sync::Arc;

use consistency::{Effect, Engine, LinkModel, Reply};
use httpsim::{HttpDate, MessageCosting, EPOCH_1996};
use originserver::{CondResult, OriginServer, Version};
use proxycache::{EntryMeta, Store};
use simcore::{CacheId, CacheStats, FileId, ServerLoad, SimTime, TrafficMeter};
use wcc_obs::{ObsEvent, Probe, ServerOpKind};

use crate::workload::{Workload, WorkloadEvent};
use crate::ProtocolSpec;

pub use consistency::RetrievalMode;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Expired-entry retrieval behaviour.
    pub retrieval: RetrievalMode,
    /// Control-message bandwidth accounting.
    pub costing: MessageCosting,
    /// Pre-load the cache with valid copies of every file (the paper's
    /// Figures 2–7 setup; pre-loading itself is not charged).
    pub preload: bool,
    /// Bitmask of content classes treated as dynamically generated and
    /// therefore uncacheable (bit `c` covers class index `c`). §5 reports
    /// 10 % of Microsoft requests were dynamic pages; mid-90s proxies
    /// forwarded them uncached.
    pub uncacheable_mask: u32,
    /// The access-link model that prices fetch/validation delay, threaded
    /// into every [`consistency::RequestCtx`] and
    /// [`consistency::Policy::on_fetch`] call. The
    /// paper's protocols ignore it (their decisions are delay-blind), so
    /// changing it cannot perturb their results; the delay-aware policies
    /// (RenewableTTL, UpdateRisk) read it.
    pub link: LinkModel,
}

impl SimConfig {
    /// The base simulator of §3.
    pub fn base() -> Self {
        SimConfig {
            retrieval: RetrievalMode::Eager,
            costing: MessageCosting::PaperConstant,
            preload: true,
            uncacheable_mask: 0,
            link: LinkModel::default(),
        }
    }

    /// The optimized simulator of §3/§4.1.
    pub fn optimized() -> Self {
        SimConfig {
            retrieval: RetrievalMode::Conditional,
            costing: MessageCosting::PaperConstant,
            preload: true,
            uncacheable_mask: 0,
            link: LinkModel::default(),
        }
    }

    // Chainable setters, so call sites read as a sentence
    // (`SimConfig::optimized().preload(false)`) instead of struct-update
    // spelling. Each shares its field's name; Rust resolves field access
    // and method call syntactically, so both coexist.

    /// Chainable: set the expired-entry retrieval behaviour.
    #[must_use]
    pub fn retrieval(mut self, mode: RetrievalMode) -> Self {
        self.retrieval = mode;
        self
    }

    /// Chainable: set the control-message bandwidth accounting.
    #[must_use]
    pub fn costing(mut self, costing: MessageCosting) -> Self {
        self.costing = costing;
        self
    }

    /// Chainable: enable or disable cache pre-loading.
    #[must_use]
    pub fn preload(mut self, preload: bool) -> Self {
        self.preload = preload;
        self
    }

    /// Chainable: set the uncacheable content-class bitmask.
    #[must_use]
    pub fn uncacheable(mut self, mask: u32) -> Self {
        self.uncacheable_mask = mask;
        self
    }

    /// Chainable: set the access-link model that prices policy delays.
    #[must_use]
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Protocol label.
    pub protocol: String,
    /// Bandwidth accounting.
    pub traffic: TrafficMeter,
    /// Cache behaviour.
    pub cache: CacheStats,
    /// Server operations.
    pub server: ServerLoad,
    /// Summed *staleness age* over all stale hits: for each request served
    /// stale, how long the served copy had already been out of date. An
    /// extension metric — the paper counts stale hits but not their
    /// severity.
    pub stale_age_total: simcore::SimDuration,
}

impl RunResult {
    /// Total MB exchanged — the Figure 2/4/6 y-axis.
    pub fn total_mb(&self) -> f64 {
        self.traffic.total_megabytes()
    }

    /// Stale-hit percentage of all requests — Figures 3/5/7.
    pub fn stale_pct(&self) -> f64 {
        100.0 * self.cache.stale_hit_rate()
    }

    /// Cache-miss percentage of all requests — Figures 3/5/7.
    pub fn miss_pct(&self) -> f64 {
        100.0 * self.cache.miss_rate()
    }

    /// Server operations — Figure 8.
    pub fn server_ops(&self) -> u64 {
        self.server.total_operations()
    }

    /// Requests served without contacting the origin at all (zero network
    /// latency). Fresh hits that came from a `304` revalidation did touch
    /// the network, so they are excluded.
    pub fn local_serves(&self) -> u64 {
        (self.cache.fresh_hits + self.cache.stale_hits)
            .saturating_sub(self.cache.validations_not_modified)
    }

    /// Mean per-request service latency in milliseconds under a simple
    /// link model: `rtt_ms` per origin round trip plus transfer time for
    /// file bodies at `bytes_per_sec`. This quantifies the latency the
    /// paper trades for bandwidth (§3): validations cost a round trip,
    /// transfers cost a round trip plus body time, local serves are free.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is zero.
    pub fn mean_latency_ms(&self, rtt_ms: f64, bytes_per_sec: f64) -> f64 {
        assert!(bytes_per_sec > 0.0, "link bandwidth must be positive");
        let requests = self.cache.requests();
        if requests == 0 {
            return 0.0;
        }
        let round_trips = self.cache.validations_not_modified + self.cache.misses;
        let transfer_ms = self.traffic.file_bytes as f64 / bytes_per_sec * 1000.0;
        (round_trips as f64 * rtt_ms + transfer_ms) / requests as f64
    }

    /// Mean staleness age of the stale hits, in hours (`None` when no
    /// stale data was served).
    pub fn mean_stale_age_hours(&self) -> Option<f64> {
        (self.cache.stale_hits > 0)
            .then(|| self.stale_age_total.as_hours_f64() / self.cache.stale_hits as f64)
    }

    /// Merge several runs (used to average the FAS/HCS/DAS traces, as the
    /// paper's Figure 6 caption describes). Counters are summed, so the
    /// derived rates are request-weighted averages.
    pub fn merged(label: impl Into<String>, runs: &[RunResult]) -> RunResult {
        let mut traffic = TrafficMeter::default();
        let mut cache = CacheStats::default();
        let mut server = ServerLoad::default();
        let mut stale_age_total = simcore::SimDuration::ZERO;
        for r in runs {
            traffic.merge(&r.traffic);
            cache.merge(&r.cache);
            server.merge(&r.server);
            stale_age_total = stale_age_total.saturating_add(r.stale_age_total);
        }
        RunResult {
            protocol: label.into(),
            traffic,
            cache,
            server,
            stale_age_total,
        }
    }
}

const THE_CACHE: CacheId = CacheId(0);

fn wall(t: SimTime) -> HttpDate {
    HttpDate(EPOCH_1996.0 + t.as_secs())
}

/// One engine wired to an in-process [`OriginServer`] — the simulated
/// transport. Each [`Effect`] becomes a server call whose answer is
/// priced by the configured costing and link model, and the server's
/// invalidation subscriptions are kept in step with the store.
pub(crate) struct SimCache<'w, S: Store> {
    pub(crate) engine: Engine<S>,
    pub(crate) server: OriginServer,
    workload: &'w Workload,
    costing: MessageCosting,
    link: LinkModel,
    uses_invalidation: bool,
}

impl<'w, S: Store> SimCache<'w, S> {
    pub(crate) fn new(
        workload: &'w Workload,
        spec: ProtocolSpec,
        config: &SimConfig,
        store: S,
    ) -> Self {
        debug_assert_eq!(workload.validate(), Ok(()));
        let uses_invalidation = spec.uses_invalidation();
        SimCache {
            engine: Engine::new(
                store,
                spec.build_policy(),
                config.retrieval.under_invalidation(uses_invalidation),
                config.uncacheable_mask,
                config.link,
            ),
            server: OriginServer::new(Arc::clone(&workload.population)),
            workload,
            costing: config.costing,
            link: config.link,
            uses_invalidation,
        }
    }

    fn origin_expiry(&self, class: usize, now: SimTime) -> Option<SimTime> {
        self.workload
            .class_expires
            .get(class)
            .copied()
            .flatten()
            .map(|d| now.saturating_add(d))
    }

    /// Evicted objects lose their invalidation subscription: the server
    /// must not notify caches that no longer hold the object.
    fn unsubscribe(&mut self, victims: &[(FileId, EntryMeta)]) {
        if self.uses_invalidation {
            for &(victim, _) in victims {
                self.server.unsubscribe(THE_CACHE, victim);
            }
        }
    }

    /// Warm the cache with the version of every file live at the start
    /// of the workload (the paper's Figures 2–7 setup; not charged).
    pub(crate) fn preload<P: Probe + ?Sized>(&mut self, probe: &mut P) {
        let (workload, start) = (self.workload, self.workload.start);
        for (id, rec) in workload.population.iter() {
            let Some(v) = rec.version_at(start) else {
                continue;
            };
            let class = workload.classes[id.index()];
            let mut meta = EntryMeta::fresh(v.size, v.modified_at, start);
            meta.expires = self.origin_expiry(class, start);
            let victims = self.engine.preload(id, class, meta, probe);
            self.unsubscribe(&victims);
            if self.uses_invalidation && self.engine.peek(id).is_some() {
                self.server.subscribe(THE_CACHE, id);
            }
        }
    }

    fn body(
        &self,
        file: FileId,
        class: usize,
        now: SimTime,
        v: Version,
        since: Option<SimTime>,
    ) -> Reply {
        Reply::Body {
            size: v.size,
            last_modified: v.modified_at,
            expires: self.origin_expiry(class, now),
            conditional: since.is_some(),
            message_bytes: self.costing.fetch_overhead(
                &self.server.files().get(file).path,
                since.map(wall),
                wall(now),
                wall(v.modified_at),
                v.size,
            ),
            delay: self.link.delay_for(v.size),
        }
    }

    /// A client asks the cache for `file` at `now`.
    pub(crate) fn request<P: Probe + ?Sized>(&mut self, file: FileId, now: SimTime, probe: &mut P) {
        let class = self.workload.classes[file.index()];
        let oracle = Some(self.server.files());
        let effect = self.engine.request(file, class, now, oracle, probe);
        let reply = match effect {
            Effect::Serve(_) => return,
            // Combined query-and-fetch via If-Modified-Since.
            Effect::Validate(entry) => {
                probe.record(
                    now,
                    ObsEvent::ServerOp {
                        kind: ServerOpKind::ValidationQuery,
                    },
                );
                let since = entry.last_modified;
                match self.server.handle_conditional_get(file, since, now) {
                    CondResult::NotModified => Reply::NotModified {
                        expires: self.origin_expiry(class, now),
                        message_bytes: self.costing.validation_exchange(
                            &self.server.files().get(file).path,
                            wall(since),
                            wall(now),
                        ),
                        delay: self.link.delay_for(0),
                    },
                    CondResult::Modified(v) => self.body(file, class, now, v, Some(since)),
                }
            }
            Effect::Fetch | Effect::Forward => {
                let v = self.server.handle_get(file, now);
                probe.record(
                    now,
                    ObsEvent::ServerOp {
                        kind: ServerOpKind::DocumentRequest,
                    },
                );
                self.body(file, class, now, v, None)
            }
        };
        // New entries subscribe before they are inserted. A rejected
        // oversized insert leaves no resident copy and must not stay
        // subscribed: it comes back among the victims.
        if self.uses_invalidation && effect == Effect::Fetch && self.engine.peek(file).is_none() {
            self.server.subscribe(THE_CACHE, file);
        }
        let applied = self.engine.apply(file, class, now, reply, probe);
        self.unsubscribe(&applied.victims);
    }

    /// An invalidation notice for `file` reaches the cache at `now`.
    pub(crate) fn invalidate(&mut self, file: FileId, now: SimTime) {
        let notice = self
            .costing
            .invalidation_message(&self.server.files().get(file).path);
        self.engine.invalidate(file, now, notice);
    }

    /// The origin's copy of `file` changes at `now`; under the
    /// invalidation protocol every subscribed cache is told at once.
    fn on_modification<P: Probe + ?Sized>(&mut self, file: FileId, now: SimTime, probe: &mut P) {
        probe.record(now, ObsEvent::Modification { file });
        if !self.uses_invalidation {
            return;
        }
        let targets = self.server.notify_modification(file);
        probe.record(
            now,
            ObsEvent::Invalidation {
                file,
                fanout: targets.len() as u32,
            },
        );
        for cache in targets {
            debug_assert_eq!(cache, THE_CACHE);
            probe.record(
                now,
                ObsEvent::ServerOp {
                    kind: ServerOpKind::InvalidationSent,
                },
            );
            self.invalidate(file, now);
        }
    }

    /// The run's metrics under `label`, plus the eviction count.
    pub(crate) fn finish(self, label: String) -> (RunResult, u64) {
        debug_assert_eq!(
            self.engine.stats().requests() as usize,
            self.workload.request_count(),
            "every request classifies as exactly one of hit/stale/miss"
        );
        (
            RunResult {
                protocol: label,
                traffic: *self.engine.traffic(),
                cache: *self.engine.stats(),
                server: *self.server.load(),
                stale_age_total: self.engine.stale_age_total(),
            },
            self.engine.evictions(),
        )
    }
}

/// Run `workload` under `spec` with `config`, returning the paper's
/// metrics. Fully deterministic: same inputs, same result.
///
/// The one free-function entry point kept beside [`crate::Experiment`]:
/// its body is one builder chain, and rewriting its ~100 test call sites
/// to spell that chain out would be churn, not simplification. Use the
/// builder directly to attach a [`Probe`] or select a bounded store.
pub fn run(workload: &Workload, spec: ProtocolSpec, config: &SimConfig) -> RunResult {
    crate::Experiment::new(workload)
        .protocol(spec)
        .config(*config)
        .run()
        .result
}

/// The replay loop behind [`crate::Experiment::run`]: the workload's
/// schedule, walked in order. `probe` receives the structured event
/// stream. The loop is compiled once per store and per probe type: with
/// [`wcc_obs::NoopProbe`] every record is an empty inlined call and
/// compiles away, and an attached probe arrives as `dyn Probe`, one
/// instantiation whatever its concrete type. The work is the same either
/// way, so golden hashes are bit-identical with or without a probe.
pub(crate) fn run_with_store_probe<S: Store, P: Probe + ?Sized>(
    workload: &Workload,
    spec: ProtocolSpec,
    config: &SimConfig,
    store: S,
    probe: &mut P,
) -> (RunResult, u64) {
    let mut cache = SimCache::new(workload, spec, config, store);
    if config.preload {
        cache.preload(probe);
    }

    let mut schedule = workload.schedule();
    while let Some((now, event)) = schedule.next() {
        match event {
            WorkloadEvent::Modify(f) => cache.on_modification(f, now, probe),
            WorkloadEvent::Request(f) => cache.request(f, now, probe),
        }
        let pending = schedule.len() as u32;
        probe.record(now, ObsEvent::Dispatched { pending });
    }
    cache.finish(spec.label())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, RunOutcome, Store as StoreKind};
    use crate::workload::{generate_synthetic, WorrellConfig};

    fn small_workload(seed: u64) -> Workload {
        generate_synthetic(&WorrellConfig::scaled(120, 4_000), seed)
    }

    fn run_in(wl: &Workload, spec: ProtocolSpec, cfg: &SimConfig, store: StoreKind) -> RunOutcome {
        Experiment::new(wl)
            .protocol(spec)
            .config(*cfg)
            .store(store)
            .run()
    }

    #[test]
    fn every_request_is_classified() {
        let wl = small_workload(1);
        for spec in [
            ProtocolSpec::Ttl(50),
            ProtocolSpec::Alex(20),
            ProtocolSpec::Invalidation,
        ] {
            for cfg in [SimConfig::base(), SimConfig::optimized()] {
                let r = run(&wl, spec, &cfg);
                assert_eq!(r.cache.requests() as usize, wl.request_count());
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let wl = small_workload(2);
        let a = run(&wl, ProtocolSpec::Alex(10), &SimConfig::optimized());
        let b = run(&wl, ProtocolSpec::Alex(10), &SimConfig::optimized());
        assert_eq!(a, b);
    }

    #[test]
    fn invalidation_never_serves_stale() {
        let wl = small_workload(3);
        for cfg in [SimConfig::base(), SimConfig::optimized()] {
            let r = run(&wl, ProtocolSpec::Invalidation, &cfg);
            assert_eq!(r.cache.stale_hits, 0, "invalidation must be perfect");
            assert!(r.server.invalidations_sent > 0);
        }
    }

    #[test]
    fn invalidation_is_retrieval_mode_insensitive() {
        // The invalidation protocol was already "optimized" in the base
        // simulator; eager vs conditional must not change it.
        let wl = small_workload(4);
        let a = run(&wl, ProtocolSpec::Invalidation, &SimConfig::base());
        let b = run(&wl, ProtocolSpec::Invalidation, &SimConfig::optimized());
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.server, b.server);
    }

    #[test]
    fn alex_zero_equals_poll_every_time() {
        let wl = small_workload(5);
        let a = run(&wl, ProtocolSpec::Alex(0), &SimConfig::optimized());
        let p = run(&wl, ProtocolSpec::PollEveryTime, &SimConfig::optimized());
        assert_eq!(a.traffic, p.traffic);
        assert_eq!(a.cache, p.cache);
        assert_eq!(a.server, p.server);
    }

    #[test]
    fn conditional_retrieval_saves_bandwidth() {
        // §4.1: the optimization trades query latency for bandwidth.
        let wl = small_workload(6);
        for spec in [ProtocolSpec::Ttl(50), ProtocolSpec::Alex(20)] {
            let eager = run(&wl, spec, &SimConfig::base());
            let cond = run(&wl, spec, &SimConfig::optimized());
            assert!(
                cond.traffic.total_bytes() <= eager.traffic.total_bytes(),
                "{}: {} vs {}",
                spec.label(),
                cond.traffic.total_bytes(),
                eager.traffic.total_bytes()
            );
            // And misses improve dramatically (Figure 5 vs Figure 3).
            assert!(cond.cache.misses <= eager.cache.misses);
        }
    }

    #[test]
    fn stale_hits_grow_with_parameter() {
        let wl = small_workload(7);
        let cfg = SimConfig::optimized();
        let stale = |spec| run(&wl, spec, &cfg).cache.stale_hits;
        assert!(stale(ProtocolSpec::Ttl(10)) <= stale(ProtocolSpec::Ttl(200)));
        assert!(stale(ProtocolSpec::Alex(5)) <= stale(ProtocolSpec::Alex(80)));
        assert_eq!(stale(ProtocolSpec::Ttl(0)), 0);
        assert_eq!(stale(ProtocolSpec::Alex(0)), 0);
    }

    #[test]
    fn bandwidth_shrinks_with_parameter() {
        let wl = small_workload(8);
        let cfg = SimConfig::optimized();
        let mb = |spec| run(&wl, spec, &cfg).traffic.total_bytes();
        assert!(mb(ProtocolSpec::Ttl(200)) <= mb(ProtocolSpec::Ttl(10)));
        assert!(mb(ProtocolSpec::Alex(80)) <= mb(ProtocolSpec::Alex(5)));
    }

    #[test]
    fn preload_eliminates_compulsory_misses() {
        let wl = small_workload(9);
        let cold = SimConfig::optimized().preload(false);
        let warm = SimConfig::optimized();
        let r_cold = run(&wl, ProtocolSpec::Invalidation, &cold);
        let r_warm = run(&wl, ProtocolSpec::Invalidation, &warm);
        assert!(r_cold.cache.misses > r_warm.cache.misses);
    }

    #[test]
    fn poll_every_time_hammers_the_server() {
        // §4.2: threshold 0 creates ~two orders of magnitude more server
        // queries than necessary.
        let wl = small_workload(10);
        let cfg = SimConfig::optimized();
        let poll = run(&wl, ProtocolSpec::PollEveryTime, &cfg);
        // Every request touches the server.
        assert_eq!(
            poll.server_ops() as usize,
            wl.request_count(),
            "threshold 0 => one server op per request"
        );
    }

    #[test]
    fn serialized_costing_changes_bytes_not_behaviour() {
        let wl = small_workload(11);
        let paper = run(&wl, ProtocolSpec::Alex(20), &SimConfig::optimized());
        let wire_cfg = SimConfig::optimized().costing(MessageCosting::SerializedHttp);
        let wire = run(&wl, ProtocolSpec::Alex(20), &wire_cfg);
        assert_eq!(paper.cache, wire.cache);
        assert_eq!(paper.server, wire.server);
        assert_eq!(paper.traffic.messages, wire.traffic.messages);
        assert_eq!(paper.traffic.file_bytes, wire.traffic.file_bytes);
        assert_ne!(paper.traffic.message_bytes, wire.traffic.message_bytes);
    }

    #[test]
    fn paper_constant_mean_message_size_is_43() {
        let wl = small_workload(12);
        let r = run(&wl, ProtocolSpec::Alex(20), &SimConfig::optimized());
        assert_eq!(r.traffic.mean_message_bytes(), Some(43.0));
    }

    #[test]
    fn merged_results_sum_counters() {
        let wl = small_workload(13);
        let a = run(&wl, ProtocolSpec::Ttl(50), &SimConfig::optimized());
        let b = run(&wl, ProtocolSpec::Ttl(50), &SimConfig::optimized());
        let m = RunResult::merged("avg", &[a.clone(), b.clone()]);
        assert_eq!(m.cache.requests(), 2 * a.cache.requests());
        assert_eq!(
            m.traffic.total_bytes(),
            a.traffic.total_bytes() + b.traffic.total_bytes()
        );
        assert_eq!(m.server_ops(), a.server_ops() + b.server_ops());
        assert!((m.stale_pct() - a.stale_pct()).abs() < 1e-9);
    }

    #[test]
    fn self_tuning_adapts_and_still_classifies_everything() {
        let wl = small_workload(14);
        let r = run(&wl, ProtocolSpec::SelfTuning, &SimConfig::optimized());
        assert_eq!(r.cache.requests() as usize, wl.request_count());
        // Feedback must have fired: with a churning workload there are
        // both kinds of validations.
        assert!(r.cache.validations_not_modified > 0);
        assert!(r.cache.validations_modified > 0);
    }

    #[test]
    fn latency_accounting_partitions_requests() {
        let wl = small_workload(15);
        let r = run(&wl, ProtocolSpec::Alex(25), &SimConfig::optimized());
        // local + validated + transferred == all requests.
        assert_eq!(
            r.local_serves() + r.cache.validations_not_modified + r.cache.misses,
            r.cache.requests()
        );
        // A zero-RTT, infinite-bandwidth link means zero latency.
        assert!(r.mean_latency_ms(0.0, f64::MAX) < 1e-9);
        // Latency grows with RTT.
        assert!(r.mean_latency_ms(200.0, 1e6) > r.mean_latency_ms(50.0, 1e6));
    }

    #[test]
    fn poll_every_time_maximises_latency() {
        // §4.2's degenerate configuration pays a round trip per request;
        // a tuned Alex threshold mostly serves locally.
        let wl = small_workload(16);
        let cfg = SimConfig::optimized();
        let poll = run(&wl, ProtocolSpec::PollEveryTime, &cfg);
        let tuned = run(&wl, ProtocolSpec::Alex(50), &cfg);
        assert_eq!(poll.local_serves(), 0);
        assert!(poll.mean_latency_ms(100.0, 1e6) > tuned.mean_latency_ms(100.0, 1e6));
    }

    #[test]
    fn invalidation_has_lowest_latency_of_all() {
        // Perfect consistency with entries valid until truly changed:
        // almost every request is a local serve.
        let wl = small_workload(17);
        let cfg = SimConfig::optimized();
        let inval = run(&wl, ProtocolSpec::Invalidation, &cfg);
        let alex = run(&wl, ProtocolSpec::Alex(10), &cfg);
        assert!(inval.mean_latency_ms(100.0, 1e6) <= alex.mean_latency_ms(100.0, 1e6));
    }

    #[test]
    fn uncacheable_classes_always_fetch_and_never_store() {
        let mut wl = small_workload(18);
        // Make every file class 1 and mark class 1 dynamic.
        wl.classes = vec![1; wl.population.len()];
        let cfg = SimConfig::optimized().uncacheable(1 << 1);
        let r = run(&wl, ProtocolSpec::Alex(50), &cfg);
        // Every request is a full fetch.
        assert_eq!(r.cache.misses as usize, wl.request_count());
        assert_eq!(r.cache.fresh_hits, 0);
        assert_eq!(r.cache.stale_hits, 0);
        assert_eq!(r.server.document_requests as usize, wl.request_count());
    }

    #[test]
    fn uncacheable_mask_only_affects_marked_classes() {
        let wl = small_workload(19); // all files class 0
                                     // Class 3 is unused by this workload.
        let with_mask = SimConfig::optimized().uncacheable(1 << 3);
        let a = run(&wl, ProtocolSpec::Alex(20), &with_mask);
        let b = run(&wl, ProtocolSpec::Alex(20), &SimConfig::optimized());
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn origin_expires_hint_drives_the_cern_policy() {
        use originserver::{FilePopulation, FileRecord};
        use simcore::SimDuration;
        // A "daily newspaper": changes every 24h at known instants; the
        // origin assigns Expires = 24h. CERN's tier-1 serves each edition
        // all day and revalidates exactly at the boundary: zero staleness,
        // one validation-or-fetch per day.
        let day = SimDuration::from_days(1);
        let start = SimTime::from_secs(0) + SimDuration::from_days(10);
        let end = start + SimDuration::from_days(10);
        let mut pop = FilePopulation::new();
        let mut rec = FileRecord::new("/news/front.html", SimTime::ZERO, 10_000);
        let mut t = start;
        while t < end {
            t += day;
            rec.push_modification(t, 10_000);
        }
        let f = pop.add(rec);
        // 4 requests per day.
        let requests: Vec<(SimTime, simcore::FileId)> = (0..40)
            .map(|i| (start + SimDuration::from_hours(6 * i + 3), f))
            .collect();
        let wl = Workload {
            name: "daily-news".to_string(),
            start,
            end,
            population: pop.into(),
            requests,
            classes: vec![0],
            class_expires: vec![Some(day)],
        };
        wl.validate().unwrap();
        let cern = run(
            &wl,
            ProtocolSpec::Cern {
                lm_percent: 10,
                default_ttl_hours: 24,
            },
            &SimConfig::optimized(),
        );
        assert_eq!(cern.cache.stale_hits, 0, "a priori TTL is exact");
        // One server contact per edition (the expiry boundary), the other
        // three requests per day are local serves.
        assert!(
            cern.server_ops() <= 11,
            "CERN ops {} should be ~1/day",
            cern.server_ops()
        );
    }

    #[test]
    fn lru_beats_fifo_under_skewed_demand() {
        // Popular objects are touched constantly; LRU keeps them, FIFO
        // cycles them out. Under the synthetic Zipf-less workload the two
        // are close, so use a Zipf-skewed one.
        use crate::workload::{PopularityModel, WorrellConfig};
        let mut cfg = WorrellConfig::scaled(200, 8_000);
        cfg.knobs.popularity = PopularityModel::Zipf {
            exponent: 1.0,
            correlate_stability: false,
        };
        let wl = crate::workload::generate_synthetic(&cfg, 26);
        let capacity: u64 = wl
            .population
            .iter()
            .filter_map(|(_, r)| r.version_at(wl.start).map(|v| v.size))
            .sum::<u64>()
            / 5;
        let sim_cfg = SimConfig::optimized().preload(false);
        let spec = ProtocolSpec::Alex(30);
        let lru = run_in(&wl, spec, &sim_cfg, StoreKind::Lru(capacity)).result;
        let fifo = run_in(&wl, spec, &sim_cfg, StoreKind::Fifo(capacity)).result;
        assert!(
            lru.cache.misses <= fifo.cache.misses,
            "LRU {} misses vs FIFO {}",
            lru.cache.misses,
            fifo.cache.misses
        );
        assert_eq!(lru.cache.requests(), fifo.cache.requests());
    }

    #[test]
    fn fifo_with_ample_capacity_matches_unbounded() {
        let wl = small_workload(27);
        let cfg = SimConfig::optimized();
        let unbounded = run(&wl, ProtocolSpec::Ttl(100), &cfg);
        let fifo = run_in(
            &wl,
            ProtocolSpec::Ttl(100),
            &cfg,
            StoreKind::Fifo(u64::MAX / 2),
        );
        assert_eq!(fifo.evictions, 0);
        assert_eq!(unbounded.cache, fifo.result.cache);
        assert_eq!(unbounded.traffic, fifo.result.traffic);
    }

    #[test]
    fn bounded_cache_with_ample_capacity_matches_unbounded() {
        let wl = small_workload(20);
        let cfg = SimConfig::optimized();
        for spec in [ProtocolSpec::Alex(30), ProtocolSpec::Invalidation] {
            let unbounded = run(&wl, spec, &cfg);
            let bounded = run_in(&wl, spec, &cfg, StoreKind::Lru(u64::MAX / 2));
            assert_eq!(unbounded.cache, bounded.result.cache, "{}", spec.label());
            assert_eq!(unbounded.traffic, bounded.result.traffic);
            assert_eq!(bounded.evictions, 0);
        }
    }

    #[test]
    fn tight_cache_evicts_and_costs_misses() {
        let wl = small_workload(21);
        let cfg = SimConfig::optimized();
        let spec = ProtocolSpec::Alex(30);
        let roomy = run(&wl, spec, &cfg);
        // Capacity for roughly a tenth of the working set.
        let total_bytes: u64 = wl
            .population
            .iter()
            .filter_map(|(_, r)| r.version_at(wl.start).map(|v| v.size))
            .sum();
        let tight = run_in(&wl, spec, &cfg, StoreKind::Lru(total_bytes / 10));
        assert!(tight.evictions > 0, "a tight cache must evict");
        let tight = tight.result;
        assert!(
            tight.cache.misses > roomy.cache.misses,
            "evictions force refetches: {} vs {}",
            tight.cache.misses,
            roomy.cache.misses
        );
        assert_eq!(tight.cache.requests(), roomy.cache.requests());
    }

    /// FNV-1a over the `Debug` of `(RunResult, evictions)` for the four
    /// bounded stores under three protocols, on a Zipf(1.0) workload of
    /// 2 000 files (256 B – 1 MB) and 40 000 requests at footprint / 8:
    /// every leg evicts thousands of times, LFU turns newcomers away,
    /// modified files come back larger than they left and the
    /// invalidation legs unsubscribe what they evict. Recorded at PR 20
    /// on the `BTreeSet`-ordered GDS/LFU and the per-leg modification
    /// sort; whatever orders residents and modifications now must
    /// reproduce it. Every leg runs twice, unobserved and with a
    /// `MetricsProbe` attached (the replay loop's two instantiations per
    /// store), and both must reproduce it.
    #[test]
    fn bounded_store_runs_match_the_pinned_hash() {
        use crate::workload::PopularityModel;
        let mut cfg = WorrellConfig::scaled(2_000, 40_000);
        cfg.knobs.popularity = PopularityModel::Zipf {
            exponent: 1.0,
            correlate_stability: false,
        };
        let wl = generate_synthetic(&cfg, 20);
        let footprint: u64 = wl
            .population
            .iter()
            .filter_map(|(_, r)| r.version_at(wl.start).map(|v| v.size))
            .sum();
        let capacity = footprint / 8;
        let legs = [
            (ProtocolSpec::Alex(20), SimConfig::optimized()),
            (ProtocolSpec::Invalidation, SimConfig::optimized()),
            (ProtocolSpec::Ttl(0), SimConfig::base()),
        ];
        let fnv = |hash: &mut u64, out: &RunOutcome| {
            for byte in format!("{:?}\n", (&out.result, out.evictions)).bytes() {
                *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        };
        let (mut hash, mut probed_hash) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        for store in [
            StoreKind::Lru(capacity),
            StoreKind::Fifo(capacity),
            StoreKind::Gds(capacity),
            StoreKind::Lfu(capacity),
        ] {
            for (spec, config) in legs {
                let out = run_in(&wl, spec, &config, store);
                assert!(
                    out.evictions > 2_000,
                    "{store:?} {}: {} evictions",
                    spec.label(),
                    out.evictions
                );
                fnv(&mut hash, &out);

                let mut probe = wcc_obs::MetricsProbe::new();
                let probed = Experiment::new(&wl)
                    .protocol(spec)
                    .config(config)
                    .store(store)
                    .probe(&mut probe)
                    .run();
                // The probe also hears what a preload displaces.
                let recorded = probe.registry().counter("eviction.count");
                assert!(
                    recorded >= probed.evictions && recorded > 0,
                    "{store:?} {}: {recorded} eviction events for {} evictions",
                    spec.label(),
                    probed.evictions
                );
                fnv(&mut probed_hash, &probed);
            }
        }
        const EVICT_GOLDEN: u64 = 2_064_591_970_126_617_279;
        assert_eq!(hash, EVICT_GOLDEN);
        assert_eq!(probed_hash, EVICT_GOLDEN, "with a probe attached");
    }

    #[test]
    fn eviction_unsubscribes_from_invalidation() {
        // With a bounded cache the server's subscription ledger must stay
        // bounded by what is resident, not grow with the file universe.
        let wl = small_workload(22);
        let cfg = SimConfig::optimized().preload(false);
        let total_bytes: u64 = wl
            .population
            .iter()
            .filter_map(|(_, r)| r.version_at(wl.start).map(|v| v.size))
            .sum();
        let spec = ProtocolSpec::Invalidation;
        let r = run_in(&wl, spec, &cfg, StoreKind::Lru(total_bytes / 20));
        assert!(r.evictions > 0);
        // Evicted objects that change are not notified (they cannot be
        // stale in a cache that doesn't hold them): still zero stale.
        assert_eq!(r.result.cache.stale_hits, 0);
    }

    #[test]
    fn stale_age_is_zero_without_stale_hits() {
        let wl = small_workload(23);
        let inval = run(&wl, ProtocolSpec::Invalidation, &SimConfig::optimized());
        assert_eq!(inval.stale_age_total, simcore::SimDuration::ZERO);
        assert_eq!(inval.mean_stale_age_hours(), None);
        let poll = run(&wl, ProtocolSpec::PollEveryTime, &SimConfig::optimized());
        assert_eq!(poll.mean_stale_age_hours(), None);
    }

    #[test]
    fn stale_age_grows_with_ttl() {
        let wl = small_workload(24);
        let cfg = SimConfig::optimized();
        let short = run(&wl, ProtocolSpec::Ttl(50), &cfg);
        let long = run(&wl, ProtocolSpec::Ttl(400), &cfg);
        assert!(long.stale_age_total > short.stale_age_total);
        // And mean severity is bounded by the TTL itself: a copy can be
        // served at most one validity horizon past the change.
        if let Some(mean) = long.mean_stale_age_hours() {
            assert!(mean <= 400.0, "mean stale age {mean}h exceeds the TTL");
        }
    }

    #[test]
    fn stale_age_exact_on_a_scripted_case() {
        use crate::scenario::ScenarioBuilder;
        use simcore::SimDuration;
        let mut b = ScenarioBuilder::new("sev", SimDuration::from_days(1));
        let f = b.file("/x", 1_000, SimDuration::from_days(400), 0);
        b.modify(f, SimDuration::from_hours(1), None);
        // Requests at +2h and +5h: TTL 100h keeps the preloaded copy
        // valid, so both are stale by 1h and 4h respectively.
        b.request(f, SimDuration::from_hours(2));
        b.request(f, SimDuration::from_hours(5));
        let wl = b.build();
        let r = run(&wl, ProtocolSpec::Ttl(100), &SimConfig::optimized());
        assert_eq!(r.cache.stale_hits, 2);
        assert_eq!(
            r.stale_age_total,
            SimDuration::from_hours(1) + SimDuration::from_hours(4)
        );
        assert!((r.mean_stale_age_hours().unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn merged_sums_stale_age() {
        let wl = small_workload(25);
        let a = run(&wl, ProtocolSpec::Ttl(300), &SimConfig::optimized());
        let m = RunResult::merged("m", &[a.clone(), a.clone()]);
        assert_eq!(m.stale_age_total, a.stale_age_total + a.stale_age_total);
    }

    #[test]
    fn modification_at_request_instant_is_visible() {
        // A request tied with a modification sees the new version (and the
        // invalidation protocol refetches rather than serving stale).
        use originserver::{FilePopulation, FileRecord};
        let start = SimTime::from_secs(1000);
        let mut pop = FilePopulation::new();
        let mut rec = FileRecord::new("/x", SimTime::from_secs(0), 100);
        rec.push_modification(SimTime::from_secs(2000), 200);
        let f = pop.add(rec);
        let wl = Workload {
            name: "tie".to_string(),
            start,
            end: SimTime::from_secs(3000),
            population: pop.into(),
            requests: vec![(SimTime::from_secs(2000), f)],
            classes: vec![0],
            class_expires: Vec::new(),
        };
        let r = run(&wl, ProtocolSpec::Invalidation, &SimConfig::optimized());
        assert_eq!(r.cache.stale_hits, 0);
        assert_eq!(r.cache.misses, 1);
        assert_eq!(r.traffic.file_bytes, 200);
    }

    #[test]
    fn dispatched_pending_counts_the_schedule_down_to_zero() {
        use crate::scenario::ScenarioBuilder;
        use simcore::SimDuration;
        let mut b = ScenarioBuilder::new("pending", SimDuration::from_days(1));
        let f = b.file("/f", 1_000, SimDuration::from_days(9), 0);
        let g = b.file("/g", 2_000, SimDuration::from_days(9), 0);
        b.modify(f, SimDuration::from_hours(4), None);
        b.modify(g, SimDuration::from_hours(6), None);
        b.request_every(f, SimDuration::from_hours(2), SimDuration::from_hours(2));
        b.request_every(g, SimDuration::from_hours(3), SimDuration::from_hours(3));
        let wl = b.build();
        let events = (wl.request_count() + 2) as u32;

        let mut probe = wcc_obs::TraceProbe::new(1 << 10);
        Experiment::new(&wl)
            .protocol(ProtocolSpec::Invalidation)
            .probe(&mut probe)
            .run();
        let pending: Vec<u32> = probe
            .events()
            .filter_map(|(_, _, event)| match event {
                ObsEvent::Dispatched { pending } => Some(*pending),
                _ => None,
            })
            .collect();
        assert_eq!(pending, (0..events).rev().collect::<Vec<_>>());
    }
}
