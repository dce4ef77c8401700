//! The unified experiment entry point: one composable builder over
//! every way this crate can execute a workload — simulated or live, any
//! store, observed or not.
//!
//! ```
//! use webcache::{Experiment, ProtocolSpec, SimConfig};
//! use webcache::experiment::Store;
//! use webcache::workload::{generate_synthetic, WorrellConfig};
//!
//! let wl = generate_synthetic(&WorrellConfig::scaled(60, 1_000), 1);
//! let outcome = Experiment::new(&wl)
//!     .protocol(ProtocolSpec::Alex(20))
//!     .config(SimConfig::optimized())
//!     .store(Store::Lru(1 << 20))
//!     .run();
//! assert_eq!(outcome.result.cache.requests() as usize, wl.request_count());
//! ```
//!
//! A [`wcc_obs::Probe`] attached with [`Experiment::probe`] receives the
//! structured event stream (request decisions, validations,
//! invalidations, evictions, modifications, server operations, queue
//! depth). Observation is strictly passive: with or without a probe the
//! simulation performs bit-identical work, which the golden-hash tests
//! in `tests/determinism.rs` pin down.

use std::io;

use proxycache::UnboundedStore;
use wcc_obs::{NoopProbe, Probe, ProbeHandle};

use crate::live::to_live_workload;
use crate::sim::{run_with_store_probe, RunResult, SimConfig};
use crate::workload::Workload;
use crate::{ProtocolSpec, RetrievalMode};
use httpsim::MessageCosting;
use liveserve::LiveRunConfig;
use wcc_load::{LoadReport, OpenLoopConfig, OpenLoopReport, ScheduleConfig};

/// Cache store selection for an [`Experiment`].
pub use proxycache::StoreKind as Store;

/// What an [`Experiment::run`] produced: the paper's metrics plus the
/// eviction count (zero for [`Store::Unbounded`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The run's metrics.
    pub result: RunResult,
    /// Objects evicted by a bounded store during the measured window.
    pub evictions: u64,
}

/// Composable builder over every way this crate can execute a workload.
///
/// Defaults: [`ProtocolSpec::Invalidation`], [`SimConfig::optimized`],
/// [`Store::Unbounded`], no probe, one live client thread.
pub struct Experiment<'a> {
    workload: &'a Workload,
    spec: ProtocolSpec,
    config: SimConfig,
    store: Store,
    probe: Option<&'a mut dyn Probe>,
    threads: usize,
    shards: usize,
    reactor_threads: usize,
}

impl std::fmt::Debug for Experiment<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("workload", &self.workload.name)
            .field("spec", &self.spec)
            .field("config", &self.config)
            .field("store", &self.store)
            .field("probe", &self.probe.is_some())
            .field("threads", &self.threads)
            .field("shards", &self.shards)
            .field("reactor_threads", &self.reactor_threads)
            .finish()
    }
}

impl<'a> Experiment<'a> {
    /// An experiment over `workload` with the defaults above.
    pub fn new(workload: &'a Workload) -> Self {
        Experiment {
            workload,
            spec: ProtocolSpec::Invalidation,
            config: SimConfig::optimized(),
            store: Store::Unbounded,
            probe: None,
            threads: 1,
            shards: 1,
            reactor_threads: 1,
        }
    }

    /// Set the consistency protocol under test.
    #[must_use]
    pub fn protocol(mut self, spec: ProtocolSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Replace the whole simulator configuration.
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the expired-entry retrieval behaviour.
    #[must_use]
    pub fn retrieval(mut self, mode: RetrievalMode) -> Self {
        self.config = self.config.retrieval(mode);
        self
    }

    /// Set the control-message bandwidth accounting.
    #[must_use]
    pub fn costing(mut self, costing: MessageCosting) -> Self {
        self.config = self.config.costing(costing);
        self
    }

    /// Enable or disable cache pre-loading.
    #[must_use]
    pub fn preload(mut self, preload: bool) -> Self {
        self.config = self.config.preload(preload);
        self
    }

    /// Set the uncacheable content-class bitmask.
    #[must_use]
    pub fn uncacheable(mut self, mask: u32) -> Self {
        self.config = self.config.uncacheable(mask);
        self
    }

    /// Select the cache store.
    #[must_use]
    pub fn store(mut self, store: Store) -> Self {
        self.store = store;
        self
    }

    /// Attach an observer for the structured event stream. Strictly
    /// passive: the run's metrics are bit-identical with or without it.
    #[must_use]
    pub fn probe(mut self, probe: &'a mut dyn Probe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Client threads for [`Experiment::run_live`] (ignored by the
    /// simulators; 0 is treated as 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Proxy cache shards for [`Experiment::run_live`] (ignored by the
    /// simulators; 0 is treated as 1). Each shard gets its own lock,
    /// store, and pooled upstream connections.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Epoll reactor threads on each live data path for
    /// [`Experiment::run_live`] (ignored by the simulators; 0 is
    /// treated as 1).
    #[must_use]
    pub fn reactor_threads(mut self, reactor_threads: usize) -> Self {
        self.reactor_threads = reactor_threads;
        self
    }

    /// Execute: replay the workload's schedule through the cache.
    pub fn run(self) -> RunOutcome {
        self.run_sized().0
    }

    /// [`Experiment::run`], plus the heap bytes of the store as the run
    /// left it ([`proxycache::Store::heap_bytes`]).
    pub(crate) fn run_sized(mut self) -> (RunOutcome, usize) {
        // Unobserved, the probe's type is `NoopProbe`, so its records
        // compile away, and only invalidation's replay walks the writes;
        // an attached probe is one `dyn Probe` instantiation.
        match self.probe.take() {
            Some(probe) => self.replay(probe, true),
            None => self.replay(&mut NoopProbe, false),
        }
    }

    /// One monomorphised replay loop per concrete store and probe type.
    fn replay<P: Probe + ?Sized>(&self, probe: &mut P, observed: bool) -> (RunOutcome, usize) {
        let (workload, spec, config) = (self.workload, self.spec, &self.config);
        macro_rules! run_in {
            ($store:expr) => {
                run_with_store_probe(workload, spec, config, $store, probe, observed)
            };
        }
        match self.store {
            Store::Unbounded => run_in!(UnboundedStore::new()),
            Store::Lru(capacity) => run_in!(proxycache::LruStore::new(capacity)),
            Store::Fifo(capacity) => run_in!(proxycache::FifoStore::new(capacity)),
            Store::Gds(capacity) => run_in!(proxycache::GdsStore::new(capacity)),
            Store::Lfu(capacity) => run_in!(proxycache::LfuStore::new(capacity)),
        }
    }

    /// The live stack's run configuration for this experiment.
    fn live_config(&self) -> LiveRunConfig {
        let mut config = LiveRunConfig::new(self.spec);
        config.threads = self.threads;
        config.shards = self.shards;
        config.reactor_threads = self.reactor_threads;
        config.uncacheable_mask = self.config.uncacheable_mask;
        // Price delays with the simulator's link model so a live run and
        // a sim run hand the policies identical numbers (the differential
        // test's counter-exactness depends on this).
        config.delay = liveserve::DelaySource::Modeled(self.config.link);
        config.store = self.store;
        config
    }

    /// Live events are captured into a bounded in-process buffer while
    /// the proxy/origin threads run (a probe need not be `Send`), then
    /// replayed into the attached probe after the sockets close.
    fn observed_live<R>(
        self,
        run: impl FnOnce(&Workload, &ProbeHandle) -> io::Result<R>,
    ) -> io::Result<R> {
        let handle = match self.probe {
            Some(_) => ProbeHandle::buffered(LIVE_TRACE_CAPACITY),
            None => ProbeHandle::none(),
        };
        let report = run(self.workload, &handle)?;
        if let Some(probe) = self.probe {
            handle.drain_into(probe);
        }
        Ok(report)
    }

    /// Execute over the live loopback TCP stack ([`crate::live`]).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn run_live(self) -> io::Result<LoadReport> {
        let config = self.live_config();
        self.observed_live(|workload, handle| {
            let live = to_live_workload(workload);
            wcc_load::run_closed_loop(
                &live.stack_spec(),
                live.requests.iter().copied(),
                &config,
                handle,
            )
        })
    }

    /// Execute *open-loop* over the live loopback TCP stack: arrivals
    /// keep `schedule`'s virtual-time plan no matter how fast the stack
    /// answers (the `wcc-load` driver), with the workload's request mix
    /// cycled across arrivals and `compression` virtual seconds of the
    /// workload window passing per wall second.
    ///
    /// `workers` sizes the drain-side worker pool; it never affects the
    /// offered schedule. The builder's `threads` knob is a closed-loop
    /// concept and is ignored here.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn run_open_loop(
        self,
        schedule: &ScheduleConfig,
        workers: usize,
        compression: f64,
    ) -> io::Result<OpenLoopReport> {
        let mut open = OpenLoopConfig::new(self.live_config(), schedule.rate_rps);
        open.workers = workers;
        self.observed_live(|workload, handle| {
            let live = to_live_workload(workload);
            let spec = live.stack_spec();
            let files: Vec<simcore::FileId> = live.requests.iter().map(|&(_, f)| f).collect();
            wcc_load::run_open_loop(
                &spec,
                wcc_load::plan_shots(schedule, &files, spec.start, compression),
                &open,
                handle,
            )
        })
    }
}

/// Ring capacity for live-run capture; newest events win once full.
const LIVE_TRACE_CAPACITY: usize = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_synthetic, WorrellConfig};
    use wcc_obs::{ObsEvent, TraceProbe};

    fn wl(seed: u64) -> Workload {
        generate_synthetic(&WorrellConfig::scaled(80, 2_000), seed)
    }

    #[test]
    fn run_is_the_builder_with_its_defaults() {
        let wl = wl(31);
        let spec = ProtocolSpec::Alex(25);
        let cfg = SimConfig::optimized().preload(false);
        let via_builder = Experiment::new(&wl).protocol(spec).config(cfg).run();
        assert_eq!(via_builder.result, crate::run(&wl, spec, &cfg));
        assert_eq!(via_builder.evictions, 0);
    }

    #[test]
    fn probe_sees_every_request_exactly_once() {
        let wl = wl(32);
        let mut trace = TraceProbe::new(1 << 20);
        let outcome = Experiment::new(&wl)
            .protocol(ProtocolSpec::Alex(20))
            .probe(&mut trace)
            .run();
        let requests = trace
            .events()
            .filter(|(_, _, e)| matches!(e, ObsEvent::Request { .. }))
            .count();
        assert_eq!(requests as u64, outcome.result.cache.requests());
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn probe_does_not_perturb_the_run() {
        let wl = wl(33);
        let bare = Experiment::new(&wl).protocol(ProtocolSpec::Ttl(60)).run();
        let mut trace = TraceProbe::new(64); // deliberately tiny ring
        let observed = Experiment::new(&wl)
            .protocol(ProtocolSpec::Ttl(60))
            .probe(&mut trace)
            .run();
        assert_eq!(bare, observed);
        assert!(trace.recorded() > 0);
    }

    #[test]
    fn open_loop_leg_conserves_and_reports() {
        let wl = wl(9);
        let schedule = ScheduleConfig::poisson(800.0, 1_000, 5);
        let report = Experiment::new(&wl)
            .protocol(ProtocolSpec::Ttl(24))
            .run_open_loop(&schedule, 2, 2_000.0)
            .unwrap();
        assert_eq!(report.offered, 1_000);
        assert!(report.conserves());
        assert!(report.completed > 0);
        assert!(report.to_json().contains("\"rates\":{\"offered_rps\":"));
    }

    #[test]
    fn config_shorthands_compose() {
        let wl = wl(34);
        let a = Experiment::new(&wl)
            .protocol(ProtocolSpec::Alex(20))
            .preload(false)
            .uncacheable(1 << 2)
            .run();
        let b = Experiment::new(&wl)
            .protocol(ProtocolSpec::Alex(20))
            .config(SimConfig::optimized().preload(false).uncacheable(1 << 2))
            .run();
        assert_eq!(a, b);
    }
}
