//! The observability layer's load-bearing guarantees: trace exports are
//! byte-deterministic at any worker count, metrics render identically
//! run-to-run, and the live stack's probe sees the whole request stream.

use wwwcache::wcc_obs::{MetricsProbe, ObsEvent, Tally, TraceProbe};
use wwwcache::webcache::experiments::trace::{capture, collect_metrics, TraceTarget};
use wwwcache::webcache::experiments::Scale;
use wwwcache::webcache::{
    generate_synthetic, Experiment, ExperimentStore, ProtocolSpec, SimConfig, SweepRunner,
    WorrellConfig,
};

/// A scale small enough to replay several times in one test.
fn tiny_scale() -> Scale {
    let mut s = Scale::quick();
    s.worrell = WorrellConfig::scaled(60, 1_500);
    s.alex_thresholds = vec![0, 20];
    s.ttl_hours = vec![0, 100];
    s.trace_subsample = 24;
    s
}

#[test]
fn trace_capture_is_byte_identical_at_every_worker_count() {
    let scale = tiny_scale();
    let reference = capture(TraceTarget::fig4(), &scale, &SweepRunner::new(1), 256);
    for jobs in [2, 8] {
        let doc = capture(TraceTarget::fig4(), &scale, &SweepRunner::new(jobs), 256);
        assert_eq!(reference, doc, "jobs={jobs}: capture bytes diverged");
    }
    // And across two identical runs of the same configuration.
    let again = capture(TraceTarget::fig4(), &scale, &SweepRunner::new(1), 256);
    assert_eq!(reference, again, "re-run diverged");
}

#[test]
fn trace_capture_covers_the_campus_figures_too() {
    let scale = tiny_scale();
    let fig8 = TraceTarget::parse("fig8").expect("figure 8 sweeps");
    let a = capture(fig8, &scale, &SweepRunner::new(1), 64);
    let b = capture(fig8, &scale, &SweepRunner::new(4), 64);
    assert_eq!(a, b);
    assert!(a.starts_with("{\"trace\":\"fig8\",\"workloads\":3,"));
}

#[test]
fn identical_runs_export_identical_probe_buffers() {
    let wl = generate_synthetic(&WorrellConfig::scaled(70, 2_000), 9);
    let export = |wl: &wwwcache::webcache::Workload| {
        let mut probe = TraceProbe::new(1 << 14);
        Experiment::new(wl)
            .protocol(ProtocolSpec::Alex(20))
            .probe(&mut probe)
            .run();
        probe.to_jsonl_string()
    };
    assert_eq!(export(&wl), export(&wl));
}

#[test]
fn metrics_render_deterministically() {
    let scale = tiny_scale();
    let a = collect_metrics(TraceTarget::fig4(), &scale, &SweepRunner::new(1));
    let b = collect_metrics(TraceTarget::fig4(), &scale, &SweepRunner::new(4));
    assert_eq!(a.render_counters(), b.render_counters());
    assert_eq!(a.render_histograms(), b.render_histograms());
    assert!(a.counter("request.fresh_hit") > 0);
}

#[test]
fn live_probe_observes_every_scheduled_request() {
    let wl = generate_synthetic(&WorrellConfig::scaled(60, 800), 1996);
    let mut probe = TraceProbe::new(1 << 16);
    let report = Experiment::new(&wl)
        .protocol(ProtocolSpec::Invalidation)
        .threads(2)
        .probe(&mut probe)
        .run_live()
        .expect("live loopback run");

    let latencies = probe
        .events()
        .filter(|(_, _, e)| matches!(e, ObsEvent::LiveLatency { .. }))
        .count();
    assert_eq!(
        latencies,
        wl.requests.len(),
        "one latency event per request"
    );

    let requests = probe
        .events()
        .filter(|(_, _, e)| matches!(e, ObsEvent::Request { .. }))
        .count();
    assert_eq!(
        requests as u64,
        report.cache.requests(),
        "one request event per proxy decision"
    );
    assert_eq!(probe.dropped(), 0, "ring must be large enough for the run");
}

#[test]
fn live_probe_feeds_the_latency_histogram() {
    let wl = generate_synthetic(&WorrellConfig::scaled(50, 600), 7);
    let mut probe = MetricsProbe::new();
    Experiment::new(&wl)
        .protocol(ProtocolSpec::Alex(20))
        .probe(&mut probe)
        .run_live()
        .expect("live loopback run");
    let h = probe
        .registry()
        .histogram("live_latency_us")
        .expect("live run records latencies");
    assert_eq!(h.count(), wl.requests.len() as u64);
}

/// The counts are a fold of the stream the caller sees: a `Tally`
/// attached as the probe recomputes `RunResult` on the legs the GOLDEN
/// and NEW_GOLDEN hashes pin — their workloads and stores, in both
/// simulators — and on each bounded store at an eighth of the footprint,
/// where the GOLDEN capacity would evict nothing. A preload's evictions
/// reach the probe but are setup, not workload, so the eviction count is
/// compared on runs without one.
#[test]
fn a_tally_of_the_probe_stream_is_the_run_result() {
    let capacity: u64 = 200 * 1_024;
    let pinned = [
        (ProtocolSpec::Alex(0), ExperimentStore::Unbounded),
        (ProtocolSpec::Alex(25), ExperimentStore::Unbounded),
        (ProtocolSpec::Alex(100), ExperimentStore::Unbounded),
        (ProtocolSpec::Ttl(0), ExperimentStore::Unbounded),
        (ProtocolSpec::Ttl(100), ExperimentStore::Unbounded),
        (ProtocolSpec::Ttl(500), ExperimentStore::Unbounded),
        (ProtocolSpec::Invalidation, ExperimentStore::Unbounded),
        (ProtocolSpec::Alex(30), ExperimentStore::Lru(capacity)),
        (ProtocolSpec::Ttl(100), ExperimentStore::Fifo(capacity)),
        (ProtocolSpec::RenewableTtl(24), ExperimentStore::Unbounded),
        (ProtocolSpec::RenewableTtl(168), ExperimentStore::Unbounded),
        (ProtocolSpec::UpdateRisk(1), ExperimentStore::Unbounded),
        (ProtocolSpec::UpdateRisk(10), ExperimentStore::Unbounded),
        (
            ProtocolSpec::RenewableTtl(24),
            ExperimentStore::Gds(capacity),
        ),
        (ProtocolSpec::UpdateRisk(5), ExperimentStore::Lfu(capacity)),
    ];
    let mut evicted = 0;
    for seed in [Scale::quick().seed, 5] {
        let wl = generate_synthetic(&WorrellConfig::scaled(60, 2_000), seed);
        let eighth: u64 = wl
            .population
            .iter()
            .filter_map(|(_, rec)| rec.version_at(wl.start).map(|v| v.size))
            .sum::<u64>()
            / 8;
        let pressed = [
            (ProtocolSpec::Alex(20), ExperimentStore::Lru(eighth)),
            (ProtocolSpec::Invalidation, ExperimentStore::Lru(eighth)),
            (ProtocolSpec::Ttl(48), ExperimentStore::Fifo(eighth)),
            (ProtocolSpec::RenewableTtl(24), ExperimentStore::Gds(eighth)),
            (ProtocolSpec::UpdateRisk(5), ExperimentStore::Lfu(eighth)),
        ];
        for (spec, store) in pinned.into_iter().chain(pressed) {
            for config in [SimConfig::base(), SimConfig::optimized()] {
                for preload in [true, false] {
                    let mut tally = Tally::default();
                    let outcome = Experiment::new(&wl)
                        .protocol(spec)
                        .config(config.preload(preload))
                        .store(store)
                        .probe(&mut tally)
                        .run();
                    let (leg, result) = (format!("{spec:?} {store:?} {config:?}"), outcome.result);
                    assert!(tally.cache.requests() > 0, "{leg}");
                    assert_eq!(tally.cache, result.cache, "{leg}");
                    assert_eq!(tally.traffic, result.traffic, "{leg}");
                    assert_eq!(tally.stale_age_total, result.stale_age_total, "{leg}");
                    if !preload {
                        assert_eq!(tally.evictions, outcome.evictions, "{leg}");
                        evicted += outcome.evictions;
                    }
                }
            }
        }
    }
    assert!(evicted > 0, "the bounded stores must evict");
}
