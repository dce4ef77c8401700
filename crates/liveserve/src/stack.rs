//! The stack a load driver drives: what it is built from
//! ([`StackSpec`], [`LiveRunConfig`]), the running pair ([`LiveStack`])
//! and what it counted ([`StackCounters`]).
//!
//! A [`LiveStack`] is a [`LiveOrigin`] and a [`LiveProxy`] on loopback
//! sharing one **virtual clock**. A driver calls
//! [`LiveStack::advance_to`]`(t)` before it sends the request scheduled
//! at instant `t`, which advances the clock and publishes (and waits
//! out) every scripted modification due by `t` — modification before
//! request at equal instants, as in the simulator's event order. The
//! drivers themselves, closed-loop and open-loop, live in `wcc-load`.

use std::io;
use std::ops::Deref;
use std::sync::Arc;

use originserver::FilePopulation;
use simcore::{FileId, ServerLoad, SimDuration, SimTime};
use wcc_obs::{JsonObj, ProbeHandle};

use crate::clock::LiveClock;
use crate::origin::{LiveOrigin, OriginConfig};
use crate::proxy::{DelaySource, LivePolicy, LiveProxy, ProxyConfig, ProxySnapshot, StoreKind};

/// A scripted workload for the live stack — the same fields
/// `webcache::Workload` carries, decoupled so `liveserve` does not
/// depend on the simulator crate.
#[derive(Debug, Clone)]
pub struct LiveWorkload {
    /// Label for reports.
    pub name: String,
    /// Simulation window start; the clock begins here.
    pub start: SimTime,
    /// Simulation window end; modifications after this are not
    /// published (matching the simulator's event filter).
    pub end: SimTime,
    /// The origin's file set with its scripted modification history.
    pub population: Arc<FilePopulation>,
    /// `(instant, file)` request schedule, sorted by instant.
    pub requests: Vec<(SimTime, FileId)>,
    /// Per-file document class (empty ⇒ class 0).
    pub classes: Vec<usize>,
    /// Per-class origin `Expires` lifetimes.
    pub class_expires: Vec<Option<SimDuration>>,
}

impl LiveWorkload {
    /// The stack ingredients of this workload — everything except the
    /// materialized request list, which a driver takes separately.
    pub fn stack_spec(&self) -> StackSpec {
        StackSpec {
            population: Arc::clone(&self.population),
            classes: self.classes.clone(),
            class_expires: self.class_expires.clone(),
            start: self.start,
            end: self.end,
        }
    }
}

/// What a live origin + proxy pair needs to exist, independent of how
/// requests will be driven through it: the file set with its scripted
/// modification history, document classes, and the simulation window.
///
/// [`LiveWorkload`] is this plus a materialized request schedule; the
/// drivers in `wcc-load` pair a `StackSpec` with any request source,
/// streamed or materialized.
#[derive(Debug, Clone)]
pub struct StackSpec {
    /// The origin's file set with its scripted modification history.
    pub population: Arc<FilePopulation>,
    /// Per-file document class (empty ⇒ class 0).
    pub classes: Vec<usize>,
    /// Per-class origin `Expires` lifetimes.
    pub class_expires: Vec<Option<SimDuration>>,
    /// Simulation window start; the clock begins here.
    pub start: SimTime,
    /// Simulation window end; modifications after this are not
    /// published.
    pub end: SimTime,
}

/// A freshly spawned loopback origin + caching proxy sharing one
/// virtual clock — the stack every load driver sends requests through.
#[derive(Debug)]
pub struct LiveStack {
    origin: LiveOrigin,
    proxy: LiveProxy,
}

impl LiveStack {
    /// Spawn the origin and proxy described by `spec` under `config`,
    /// on loopback ephemeral ports, with a shared virtual clock
    /// starting at `spec.start`.
    pub fn spawn(
        spec: &StackSpec,
        config: &LiveRunConfig,
        probe: &ProbeHandle,
    ) -> io::Result<Self> {
        let shards = config.shards.max(1);
        let reactor_threads = config.reactor_threads.max(1);
        let clock = LiveClock::virtual_at(spec.start);

        let mut origin_config = OriginConfig::new(Arc::clone(&spec.population), clock.clone());
        origin_config.classes = spec.classes.clone();
        origin_config.class_expires = spec.class_expires.clone();
        origin_config.window_start = spec.start;
        origin_config.window_end = spec.end;
        origin_config.probe = probe.clone();
        origin_config.reactor_threads = reactor_threads;
        let origin = LiveOrigin::spawn(origin_config)?;

        let mut proxy_config = ProxyConfig::new(
            origin.data_addr(),
            origin.control_addr(),
            config.policy,
            clock,
        );
        proxy_config.store = config.store;
        proxy_config.shards = shards;
        proxy_config.ground_truth = Some(Arc::clone(&spec.population));
        proxy_config.classes = spec.classes.clone();
        proxy_config.uncacheable_mask = config.uncacheable_mask;
        proxy_config.delay = config.delay;
        proxy_config.probe = probe.clone();
        proxy_config.reactor_threads = reactor_threads;
        let proxy = LiveProxy::spawn(proxy_config)?;
        Ok(LiveStack { origin, proxy })
    }

    /// The origin half (drivers call [`LiveOrigin::advance_to`] before
    /// each scheduled instant).
    pub fn origin(&self) -> &LiveOrigin {
        &self.origin
    }

    /// The proxy half (the soak reads its connection gauges).
    pub fn proxy(&self) -> &LiveProxy {
        &self.proxy
    }

    /// Where clients connect to the proxy's data port.
    pub fn proxy_addr(&self) -> std::net::SocketAddr {
        self.proxy.addr()
    }

    /// Advance the shared virtual clock, publishing (and waiting out)
    /// every scripted modification due by `t`.
    pub fn advance_to(&self, t: SimTime) {
        self.origin.advance_to(t);
    }

    /// Stop both halves and return their frozen counters (proxy first,
    /// then origin, matching the shutdown order the counters assume).
    pub fn shutdown(self) -> StackCounters {
        let proxy = self.proxy.shutdown();
        let server = self.origin.shutdown();
        StackCounters { proxy, server }
    }
}

/// The shape of the stack under test, and how many clients a
/// closed-loop driver sends through it.
#[derive(Debug, Clone, Copy)]
pub struct LiveRunConfig {
    /// Client threads (0 is treated as 1).
    pub threads: usize,
    /// Proxy cache shards (0 is treated as 1).
    pub shards: usize,
    /// Epoll reactor threads on each of the origin and proxy data paths
    /// (0 is treated as 1).
    pub reactor_threads: usize,
    /// Consistency mechanism under test.
    pub policy: LivePolicy,
    /// Proxy store.
    pub store: StoreKind,
    /// Uncacheable-class bitmask, as in `SimConfig`.
    pub uncacheable_mask: u32,
    /// How the proxy prices retrieval delay for delay-aware policies.
    pub delay: DelaySource,
}

impl LiveRunConfig {
    /// One client thread, one shard, unbounded store, everything
    /// cacheable.
    pub fn new(policy: LivePolicy) -> Self {
        LiveRunConfig {
            threads: 1,
            shards: 1,
            reactor_threads: 1,
            policy,
            store: StoreKind::Unbounded,
            uncacheable_mask: 0,
            delay: DelaySource::default(),
        }
    }
}

/// What a stack counted, frozen at shutdown: the proxy's merged shard
/// counters (reachable through `Deref`, so `counters.cache` reads as it
/// does on a [`ProxySnapshot`]) plus the origin's load. Every load
/// report embeds one and renders it with [`StackCounters::write_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackCounters {
    /// The proxy side.
    pub proxy: ProxySnapshot,
    /// Origin-side load counters.
    pub server: ServerLoad,
}

impl Deref for StackCounters {
    type Target = ProxySnapshot;

    fn deref(&self) -> &ProxySnapshot {
        &self.proxy
    }
}

impl StackCounters {
    /// Append the stack-side members every load report carries: the hit
    /// rates, the `cache` / `traffic` / `server` / `upstream` objects and
    /// the scalar totals between them.
    pub fn write_json(&self, obj: &mut JsonObj) {
        let cache = JsonObj::new()
            .u64("fresh_hits", self.cache.fresh_hits)
            .u64("stale_hits", self.cache.stale_hits)
            .u64("misses", self.cache.misses)
            .u64(
                "validations_not_modified",
                self.cache.validations_not_modified,
            )
            .u64("validations_modified", self.cache.validations_modified)
            .finish();
        let traffic = JsonObj::new()
            .u64("messages", self.traffic.messages)
            .u64("message_bytes", self.traffic.message_bytes)
            .u64("file_transfers", self.traffic.file_transfers)
            .u64("file_bytes", self.traffic.file_bytes)
            .finish();
        let server = JsonObj::new()
            .u64("document_requests", self.server.document_requests)
            .u64("validation_queries", self.server.validation_queries)
            .u64("invalidations_sent", self.server.invalidations_sent)
            .finish();
        let upstream = JsonObj::new()
            .u64("dials", self.upstream_dials)
            .u64("reuses", self.upstream_reuses)
            .u64("saturations", self.upstream_saturations)
            .finish();
        obj.f64("hit_rate", self.cache.hit_rate())
            .f64("stale_hit_rate", self.cache.stale_hit_rate())
            .raw("cache", &cache)
            .raw("traffic", &traffic)
            .raw("server", &server)
            .u64("stale_age_total_secs", self.stale_age_total.as_secs())
            .u64("invalidations_delivered", self.invalidations_delivered)
            .u64("evictions", self.evictions)
            .raw("upstream", &upstream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use originserver::FileRecord;

    #[test]
    fn live_stack_spawns_and_shuts_down_cleanly() {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/a.html", SimTime::ZERO, 400));
        let mut b = FileRecord::new("/b.html", SimTime::ZERO, 900);
        b.push_modification(SimTime::from_secs(500), 950);
        pop.add(b);
        let spec = StackSpec {
            population: Arc::new(pop),
            classes: vec![0, 0],
            class_expires: Vec::new(),
            start: SimTime::ZERO,
            end: SimTime::from_secs(1000),
        };
        let config = LiveRunConfig::new(LivePolicy::Ttl(100));
        let stack = LiveStack::spawn(&spec, &config, &ProbeHandle::none()).unwrap();
        assert_ne!(stack.proxy_addr().port(), 0);
        stack.advance_to(spec.end);
        let counters = stack.shutdown();
        // No requests were driven, but the scripted /b modification was
        // published by the advance.
        assert_eq!(counters.cache.requests(), 0);
        assert_eq!(counters.server.document_requests, 0);
    }
}
