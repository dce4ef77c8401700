//! Property-based tests of the simulator: invariants that must hold on
//! *arbitrary* scripted workloads, not just the calibrated ones.

use proptest::prelude::*;
use simcore::SimDuration;
use webcache::{
    run, Experiment, ExperimentStore, ProtocolSpec, ScenarioBuilder, SimConfig, Workload,
};

/// A compact, always-valid random workload description.
#[derive(Debug, Clone)]
struct Script {
    files: Vec<(u64, u64)>,      // (size, age_hours)
    mods: Vec<(usize, u64)>,     // (file index, offset_minutes)
    requests: Vec<(usize, u64)>, // (file index, offset_minutes)
    duration_hours: u64,
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (
        proptest::collection::vec((1u64..20_000, 1u64..2_000), 1..6),
        proptest::collection::vec((0usize..6, 0u64..10_000), 0..25),
        proptest::collection::vec((0usize..6, 0u64..10_000), 0..60),
        24u64..400,
    )
        .prop_map(|(files, mods, requests, duration_hours)| Script {
            files,
            mods,
            requests,
            duration_hours,
        })
}

fn build(script: &Script) -> Workload {
    let duration = SimDuration::from_hours(script.duration_hours);
    let mut b = ScenarioBuilder::new("fuzz", duration);
    let ids: Vec<_> = script
        .files
        .iter()
        .enumerate()
        .map(|(i, &(size, age_hours))| {
            b.file(
                format!("/f{i}"),
                size,
                SimDuration::from_hours(age_hours),
                i % 3,
            )
        })
        .collect();
    // Modifications must be strictly increasing per file: bucket by file,
    // sort, de-duplicate, clamp into the window.
    let horizon_min = script.duration_hours * 60;
    let mut per_file: Vec<Vec<u64>> = vec![Vec::new(); ids.len()];
    for &(fi, off) in &script.mods {
        per_file[fi % ids.len()].push(off % horizon_min.max(1));
    }
    for (fi, offsets) in per_file.iter_mut().enumerate() {
        offsets.sort_unstable();
        offsets.dedup();
        for &m in offsets.iter() {
            b.modify(ids[fi], SimDuration::from_mins(m), None);
        }
    }
    for &(fi, off) in &script.requests {
        b.request(
            ids[fi % ids.len()],
            SimDuration::from_mins(off % horizon_min.max(1)),
        );
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request is classified exactly once, for every protocol and
    /// simulator configuration.
    #[test]
    fn request_conservation(script in script_strategy(), pct in 0u32..=100, hours in 0u64..500) {
        let wl = build(&script);
        for spec in [
            ProtocolSpec::Alex(pct),
            ProtocolSpec::Ttl(hours),
            ProtocolSpec::Invalidation,
            ProtocolSpec::SelfTuning,
        ] {
            for config in [SimConfig::base(), SimConfig::optimized()] {
                let r = run(&wl, spec, &config);
                prop_assert_eq!(r.cache.requests() as usize, wl.request_count());
            }
        }
    }

    /// The invalidation protocol never serves stale data, on any schedule.
    #[test]
    fn invalidation_perfect_consistency(script in script_strategy()) {
        let wl = build(&script);
        for config in [SimConfig::base(), SimConfig::optimized()] {
            let r = run(&wl, ProtocolSpec::Invalidation, &config);
            prop_assert_eq!(r.cache.stale_hits, 0);
        }
    }

    /// Conditional retrieval never uses more bandwidth than eager
    /// refetch — §4.1's optimization is a pure win on bytes.
    #[test]
    fn conditional_never_costs_more(script in script_strategy(), pct in 0u32..=100) {
        let wl = build(&script);
        let spec = ProtocolSpec::Alex(pct);
        let eager = run(&wl, spec, &SimConfig::base());
        let cond = run(&wl, spec, &SimConfig::optimized());
        prop_assert!(cond.traffic.total_bytes() <= eager.traffic.total_bytes());
        prop_assert!(cond.cache.misses <= eager.cache.misses);
    }

    /// Under conditional retrieval, weak protocols never move more file
    /// bytes than the invalidation protocol (§4.1: "neither Alex nor TTL
    /// will ever transmit more file information").
    #[test]
    fn weak_file_bytes_bounded_by_invalidation(script in script_strategy(), pct in 0u32..=100) {
        let wl = build(&script);
        let config = SimConfig::optimized();
        let inval = run(&wl, ProtocolSpec::Invalidation, &config);
        let weak = run(&wl, ProtocolSpec::Alex(pct), &config);
        prop_assert!(weak.traffic.file_bytes <= inval.traffic.file_bytes);
    }

    /// An over-provisioned bounded cache behaves exactly like the
    /// unbounded one.
    #[test]
    fn ample_bounded_equals_unbounded(script in script_strategy(), pct in 0u32..=100) {
        let wl = build(&script);
        let config = SimConfig::optimized();
        let spec = ProtocolSpec::Alex(pct);
        let unbounded = run(&wl, spec, &config);
        let bounded = Experiment::new(&wl)
            .protocol(spec)
            .store(ExperimentStore::Lru(u64::MAX / 4))
            .run();
        prop_assert_eq!(bounded.evictions, 0);
        prop_assert_eq!(unbounded, bounded.result);
    }

    /// Tight caches may cost extra misses but never consistency: a stale
    /// serve requires a resident copy, and stale copies only get *less*
    /// resident under eviction.
    #[test]
    fn eviction_never_increases_staleness(script in script_strategy()) {
        let wl = build(&script);
        let config = SimConfig::optimized();
        let spec = ProtocolSpec::Ttl(100);
        let roomy = run(&wl, spec, &config);
        let tight = Experiment::new(&wl)
            .protocol(spec)
            .store(ExperimentStore::Lru(4_096))
            .run()
            .result;
        prop_assert!(tight.cache.stale_hits <= roomy.cache.stale_hits);
    }

    /// Runs are bit-deterministic.
    #[test]
    fn deterministic(script in script_strategy(), pct in 0u32..=100) {
        let wl = build(&script);
        let spec = ProtocolSpec::Alex(pct);
        let a = run(&wl, spec, &SimConfig::optimized());
        let b = run(&wl, spec, &SimConfig::optimized());
        prop_assert_eq!(a, b);
    }
}
