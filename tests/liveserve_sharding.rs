//! Shard-count invariance of the live proxy.
//!
//! Sharding the proxy cache is a *performance* topology change: which
//! lock guards a file, which upstream socket fetches it, which control
//! connection carries its invalidations. None of that may change what
//! the cache does. Two properties pin this:
//!
//! 1. **Routing is pure.** `shard_for` is a function of the `FileId`
//!    and the shard count alone — the same file maps to the same shard
//!    on every call, every thread, every process.
//! 2. **Aggregates are shard-count-invariant.** On an unbounded store
//!    (the paper's infinite cache — bounded stores split their byte
//!    budget and evict locally), a single-threaded replay produces
//!    identical `CacheStats`, `TrafficMeter`, `ServerLoad`, and
//!    staleness totals at any shard count, for all three mechanisms.
//!    At one client thread even `message_bytes` (real wire bytes) is
//!    deterministic, so the assertion covers whole meters, not just
//!    counts.
//! 3. **A concurrent run accounts for everything.** At 4 shards × 2
//!    reactor threads × 4 client threads, the probe log holds one
//!    decision per request sent, file by file, and one upstream reply
//!    per origin operation — properties that hold however the threads
//!    interleave.

use proptest::prelude::*;
use wwwcache::liveserve::shard_for;
use wwwcache::simcore::FileId;
use wwwcache::wcc_obs::{ExchangeKind, ObsEvent, TraceProbe};
use wwwcache::webcache::{
    generate_synthetic, Experiment, LoadReport, ProtocolSpec, Workload, WorrellConfig,
};

fn run_live_sharded(
    wl: &Workload,
    spec: ProtocolSpec,
    threads: usize,
    shards: usize,
) -> std::io::Result<LoadReport> {
    Experiment::new(wl)
        .protocol(spec)
        .threads(threads)
        .shards(shards)
        .run_live()
}

proptest! {
    /// Same file + same shard count ⇒ same shard, always in range, and
    /// one shard degenerates to shard 0 (the unsharded topology).
    #[test]
    fn routing_is_a_pure_total_function(idx in 0usize..100_000, shards in 1usize..64) {
        let file = FileId::from_index(idx);
        let s = shard_for(file, shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, shard_for(file, shards));
        prop_assert_eq!(shard_for(file, 1), 0);
    }

    /// Shard counts partition the id space consistently: two ids agree
    /// on their shard iff they are congruent modulo the shard count.
    #[test]
    fn routing_partitions_by_residue(a in 0usize..100_000, b in 0usize..100_000, shards in 1usize..64) {
        let same_shard = shard_for(FileId::from_index(a), shards)
            == shard_for(FileId::from_index(b), shards);
        prop_assert_eq!(same_shard, a % shards == b % shards);
    }
}

#[test]
fn aggregates_are_shard_count_invariant_for_all_three_mechanisms() {
    let wl = generate_synthetic(&WorrellConfig::scaled(40, 800), 11);
    for spec in [
        ProtocolSpec::Ttl(24),
        ProtocolSpec::Alex(20),
        ProtocolSpec::Invalidation,
    ] {
        let baseline = run_live_sharded(&wl, spec, 1, 1).expect("1-shard live run");
        for shards in [2usize, 4] {
            let sharded = run_live_sharded(&wl, spec, 1, shards).expect("sharded live run");
            assert_eq!(
                sharded.cache, baseline.cache,
                "{spec:?} @ {shards} shards: CacheStats diverged"
            );
            assert_eq!(
                sharded.traffic, baseline.traffic,
                "{spec:?} @ {shards} shards: TrafficMeter diverged"
            );
            assert_eq!(
                sharded.server, baseline.server,
                "{spec:?} @ {shards} shards: ServerLoad diverged"
            );
            assert_eq!(
                sharded.stale_age_total, baseline.stale_age_total,
                "{spec:?} @ {shards} shards: staleness total diverged"
            );
            assert_eq!(
                sharded.invalidations_delivered, baseline.invalidations_delivered,
                "{spec:?} @ {shards} shards: delivered invalidations diverged"
            );
            assert_eq!(sharded.evictions, baseline.evictions);
        }
    }
}

/// More shards than files still serves every request correctly (empty
/// shards are just idle), and a multi-threaded sharded run preserves
/// the request total — the throughput topology never loses requests.
#[test]
fn oversharding_and_threading_preserve_request_totals() {
    let wl = generate_synthetic(&WorrellConfig::scaled(10, 300), 5);
    let oversharded = run_live_sharded(&wl, ProtocolSpec::Alex(20), 1, 64).expect("64-shard run");
    assert_eq!(oversharded.cache.requests(), 300);

    let threaded = run_live_sharded(&wl, ProtocolSpec::Ttl(24), 4, 4).expect("4x4 run");
    assert_eq!(threaded.cache.requests(), 300);
    assert_eq!(threaded.latency.count() + threaded.latency.dropped(), 300);
}

/// The first two checks of a concurrent history checker, on the buffered
/// probe log of a 4-shard, 2-reactor-thread proxy under 4 client threads,
/// for all three mechanisms: per file, the proxy decided each request
/// sent for it exactly once (fresh, stale or miss), and the upstream
/// replies (`200`, `304`, `404`) number the origin's document requests
/// plus its validation queries.
#[test]
fn a_concurrent_run_decides_every_request_once_and_matches_every_origin_operation() {
    let wl = generate_synthetic(&WorrellConfig::scaled(40, 800), 11);
    let mut sent = vec![0u64; wl.population.len()];
    for &(_, file) in &wl.requests {
        sent[file.index()] += 1;
    }
    for spec in [
        ProtocolSpec::Ttl(24),
        ProtocolSpec::Alex(20),
        ProtocolSpec::Invalidation,
    ] {
        let mut probe = TraceProbe::new(1 << 17);
        let report = Experiment::new(&wl)
            .protocol(spec)
            .threads(4)
            .shards(4)
            .reactor_threads(2)
            .probe(&mut probe)
            .run_live()
            .expect("4 x 2 x 4 live run");
        // A live run buffers 65 536 events before it hands them over.
        assert!(probe.recorded() < 1 << 16, "{spec:?}: the log overflowed");

        let mut decided = vec![0u64; wl.population.len()];
        let mut replies = 0u64;
        for &(_, _, event) in probe.events() {
            match event {
                ObsEvent::Request { file, .. } => decided[file.index()] += 1,
                ObsEvent::Exchange {
                    kind: ExchangeKind::Body | ExchangeKind::NotModified | ExchangeKind::Gone,
                    ..
                } => replies += 1,
                _ => {}
            }
        }
        assert_eq!(decided, sent, "{spec:?}: decisions per file");
        assert_eq!(
            replies,
            report.server.document_requests + report.server.validation_queries,
            "{spec:?}: upstream replies against origin operations"
        );
    }
}
