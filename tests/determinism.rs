//! Determinism guarantees: every generator, simulator, and experiment in
//! the workspace is a pure function of its seed and configuration.

use wwwcache::proxycache::HierarchyTopology;
use wwwcache::simcore::SimDuration;
use wwwcache::wcc_obs::{ObsEvent, Probe, TraceProbe};
use wwwcache::webcache::experiments::{
    base::run_base_with,
    failure::{run_partitioned_invalidation, Outage},
    traced::run_traced_with,
    Scale,
};
use wwwcache::webcache::hierarchy::{figure1_scenarios, replay_workload, LeafAssignment};
use wwwcache::webcache::{
    generate_synthetic, run, Experiment, ExperimentStore, LifetimeModel, PopularityModel,
    ProtocolSpec, RunOutcome, RunResult, ScenarioBuilder, SimConfig, SweepRunner, WorkloadKnobs,
    WorrellConfig,
};
use wwwcache::webtrace::bu::{generate_bu_study, BuProfile};
use wwwcache::webtrace::campus::{generate_campus_trace, CampusProfile};
use wwwcache::webtrace::microsoft::{generate_microsoft_log, MicrosoftProfile};
use wwwcache::webtrace::stream::{synthetic_stream, SyntheticStreamConfig};
use wwwcache::webtrace::TraceRequest;

/// The `(result, evictions)` rendering the golden hashes were pinned on.
fn pair(outcome: RunOutcome) -> (RunResult, u64) {
    (outcome.result, outcome.evictions)
}

/// FNV-1a, the hash every pinned golden below is taken with.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn generators_are_seed_deterministic() {
    let a = generate_campus_trace(&CampusProfile::das(), 77);
    let b = generate_campus_trace(&CampusProfile::das(), 77);
    assert_eq!(a.trace.to_log(), b.trace.to_log());

    assert_eq!(
        generate_microsoft_log(&MicrosoftProfile::scaled(2_000), 77),
        generate_microsoft_log(&MicrosoftProfile::scaled(2_000), 77)
    );
    assert_eq!(
        generate_bu_study(&BuProfile::scaled(400), 77),
        generate_bu_study(&BuProfile::scaled(400), 77)
    );
    let wa = generate_synthetic(&WorrellConfig::scaled(60, 2_000), 77);
    let wb = generate_synthetic(&WorrellConfig::scaled(60, 2_000), 77);
    assert_eq!(wa.requests, wb.requests);
}

#[test]
fn seeds_actually_matter() {
    let a = generate_campus_trace(&CampusProfile::fas(), 1);
    let b = generate_campus_trace(&CampusProfile::fas(), 2);
    assert_ne!(a.trace.to_log(), b.trace.to_log());
}

/// The request streams themselves, pinned: the simulation goldens below
/// cover what a stream does to a cache, these cover which file each
/// draw names. The synthetic configurations are the `sim-evict` and
/// `live-hit` benchmark workloads' (Zipf(1.0) over 20 000 and 2 000
/// files of 1–16 KiB) at a reduced request count, each with the
/// Bestavros popularity↔stability coupling on and off.
#[test]
fn request_streams_match_pinned_hashes() {
    fn synthetic(files: usize, volatile_fraction: f64, correlate_stability: bool) -> u64 {
        let config = WorrellConfig {
            files,
            requests: 60_000,
            size_min: 1_024.0,
            size_max: 16_384.0,
            knobs: WorkloadKnobs {
                lifetimes: LifetimeModel::Bimodal {
                    volatile_fraction,
                    min_hours: 2.0,
                    max_hours: 48.0,
                },
                popularity: PopularityModel::Zipf {
                    exponent: 1.0,
                    correlate_stability,
                },
            },
            ..WorrellConfig::paper_run()
        };
        let wl = generate_synthetic(&config, 44);
        let mut bytes = Vec::with_capacity(12 * wl.requests.len());
        for &(at, file) in &wl.requests {
            bytes.extend_from_slice(&at.as_secs().to_le_bytes());
            bytes.extend_from_slice(&(file.index() as u32).to_le_bytes());
        }
        fnv1a(&bytes)
    }
    fn traced(requests: &[TraceRequest]) -> u64 {
        let mut bytes = Vec::new();
        for r in requests {
            bytes.extend_from_slice(&r.time.as_secs().to_le_bytes());
            bytes.extend_from_slice(&r.client.0.to_le_bytes());
            bytes.push(u8::from(r.remote));
            bytes.extend_from_slice(&(r.file.index() as u32).to_le_bytes());
        }
        fnv1a(&bytes)
    }

    let cases = [
        ("sim-evict", 20_000, 0.25, false),
        ("sim-evict", 20_000, 0.25, true),
        ("live-hit", 2_000, 0.05, true),
        ("live-hit", 2_000, 0.05, false),
    ];
    let pinned: [u64; 4] = [
        3_564_980_523_703_221_704,
        9_626_509_937_164_732_927,
        17_468_858_581_639_525_115,
        13_913_003_588_415_164_417,
    ];
    for ((name, files, volatile, correlate), want) in cases.into_iter().zip(pinned) {
        assert_eq!(
            synthetic(files, volatile, correlate),
            want,
            "{name}, correlate_stability = {correlate}: the request stream changed"
        );
    }

    let campus = generate_campus_trace(&CampusProfile::hcs(), 44);
    assert_eq!(
        traced(&campus.trace.requests),
        12_781_574_172_116_742_804,
        "campus HCS"
    );

    let config = SyntheticStreamConfig::campus(&CampusProfile::das(), 100_000, 44);
    let records: Vec<TraceRequest> = synthetic_stream(&config).1.collect();
    assert_eq!(records.len(), 100_000);
    assert_eq!(
        traced(&records),
        4_816_928_838_834_464_734,
        "webtrace::stream"
    );
}

#[test]
fn simulator_runs_are_bit_identical() {
    let wl = generate_synthetic(&WorrellConfig::scaled(80, 3_000), 5);
    for spec in [
        ProtocolSpec::Alex(15),
        ProtocolSpec::Ttl(120),
        ProtocolSpec::Invalidation,
        ProtocolSpec::SelfTuning,
    ] {
        let a = run(&wl, spec, &SimConfig::optimized());
        let b = run(&wl, spec, &SimConfig::optimized());
        assert_eq!(a, b, "{}", spec.label());
    }
}

#[test]
fn whole_experiments_are_reproducible() {
    let scale = {
        let mut s = Scale::quick();
        // Shrink further: this test re-runs entire experiments twice.
        s.worrell = WorrellConfig::scaled(60, 2_000);
        s.alex_thresholds = vec![0, 50, 100];
        s.ttl_hours = vec![0, 250, 500];
        s.trace_subsample = 24;
        s
    };
    let hw = SweepRunner::new(0);
    assert_eq!(run_base_with(&scale, &hw), run_base_with(&scale, &hw));
    assert_eq!(run_traced_with(&scale, &hw), run_traced_with(&scale, &hw));
}

/// FNV-1a over the debug rendering of a full sweep's results. The golden
/// value below was pinned on the pre-PR-2 substrate (tombstone binary heap,
/// HashMap stores, BTreeMap recency); the indexed event queue, dense slot
/// tables, and intrusive LRU list must reproduce it bit-for-bit — the data
/// structures are pure index changes, never behaviour changes.
#[test]
fn sweep_output_matches_pinned_golden_hash() {
    let scale = {
        let mut s = Scale::quick();
        s.worrell = WorrellConfig::scaled(60, 2_000);
        s.alex_thresholds = vec![0, 25, 50, 100];
        s.ttl_hours = vec![0, 100, 500];
        s.trace_subsample = 24;
        s
    };
    let hw = SweepRunner::new(0);
    let mut rendered = format!("{:?}", run_base_with(&scale, &hw));

    // Exercise every store implementation and the subscriber registry:
    // bounded LRU + FIFO runs and an invalidation run over one workload.
    let wl = generate_synthetic(&scale.worrell, scale.seed);
    let capacity: u64 = 200 * 1_024;
    let cfg = SimConfig::optimized();
    let bounded = |spec, store| pair(Experiment::new(&wl).protocol(spec).store(store).run());
    rendered.push_str(&format!(
        "{:?}",
        bounded(ProtocolSpec::Alex(30), ExperimentStore::Lru(capacity))
    ));
    rendered.push_str(&format!(
        "{:?}",
        bounded(ProtocolSpec::Ttl(100), ExperimentStore::Fifo(capacity))
    ));
    rendered.push_str(&format!("{:?}", run(&wl, ProtocolSpec::Invalidation, &cfg)));

    const GOLDEN: u64 = 4_146_675_487_570_323_321;
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        GOLDEN,
        "sweep output diverged from the pre-overhaul substrate"
    );

    // Observation must be passive: re-run the non-sweep legs through the
    // Experiment builder with a live probe attached and re-render. The
    // hash covering those legs has to come out identical, event stream or
    // not. The sweep itself runs unobserved, so one of its legs — the base
    // simulator's eager Alex at 25 % — is replaced by the same leg probed.
    let mut probe = TraceProbe::new(1 << 14);
    let mut base = run_base_with(&scale, &hw);
    assert_eq!(base.alex.points[1].0, 25.0);
    base.alex.points[1].1 = Experiment::new(&wl)
        .protocol(ProtocolSpec::Alex(25))
        .config(SimConfig::base())
        .probe(&mut probe)
        .run()
        .result;
    let mut observed = format!("{base:?}");
    observed.push_str(&format!(
        "{:?}",
        pair(
            Experiment::new(&wl)
                .protocol(ProtocolSpec::Alex(30))
                .store(ExperimentStore::Lru(capacity))
                .probe(&mut probe)
                .run()
        )
    ));
    observed.push_str(&format!(
        "{:?}",
        pair(
            Experiment::new(&wl)
                .protocol(ProtocolSpec::Ttl(100))
                .store(ExperimentStore::Fifo(capacity))
                .probe(&mut probe)
                .run()
        )
    ));
    observed.push_str(&format!(
        "{:?}",
        Experiment::new(&wl)
            .protocol(ProtocolSpec::Invalidation)
            .probe(&mut probe)
            .run()
            .result
    ));
    assert!(probe.recorded() > 0, "the probe must actually observe");
    assert_eq!(
        fnv1a(observed.as_bytes()),
        GOLDEN,
        "attaching a probe perturbed the simulation"
    );
}

/// Companion golden for the decision-API era: the literature policies
/// (RenewableTTL, UpdateRisk) and the score-based stores (GreedyDual-Size,
/// score-gated LFU) pinned the same way the legacy sweep is. Unlike
/// `GOLDEN` above this value was born on the `decide()` substrate, so it
/// guards the new code paths — delay pricing, fetch feedback, eviction
/// scoring — against silent drift.
#[test]
fn new_policy_runs_match_pinned_golden_hash() {
    let wl = generate_synthetic(&WorrellConfig::scaled(60, 2_000), 5);
    let capacity: u64 = 200 * 1_024;
    let mut rendered = String::new();
    for spec in [
        ProtocolSpec::RenewableTtl(24),
        ProtocolSpec::RenewableTtl(168),
        ProtocolSpec::UpdateRisk(1),
        ProtocolSpec::UpdateRisk(10),
    ] {
        rendered.push_str(&format!("{:?}", run(&wl, spec, &SimConfig::optimized())));
    }
    rendered.push_str(&format!(
        "{:?}",
        pair(
            Experiment::new(&wl)
                .protocol(ProtocolSpec::RenewableTtl(24))
                .store(ExperimentStore::Gds(capacity))
                .run()
        )
    ));
    rendered.push_str(&format!(
        "{:?}",
        pair(
            Experiment::new(&wl)
                .protocol(ProtocolSpec::UpdateRisk(5))
                .store(ExperimentStore::Lfu(capacity))
                .run()
        )
    ));

    const NEW_GOLDEN: u64 = 15_389_618_275_637_391_324;
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        NEW_GOLDEN,
        "new-policy output diverged from its pinned substrate"
    );

    // The same six legs with a probe attached, which makes every replay
    // merge the writes in: an unobserved polling replay skips them, and
    // that must not show in a single count.
    let mut probe = TraceProbe::new(1 << 14);
    let mut observe = |spec, store| {
        Experiment::new(&wl)
            .protocol(spec)
            .store(store)
            .probe(&mut probe)
            .run()
    };
    let mut observed = String::new();
    for spec in [
        ProtocolSpec::RenewableTtl(24),
        ProtocolSpec::RenewableTtl(168),
        ProtocolSpec::UpdateRisk(1),
        ProtocolSpec::UpdateRisk(10),
    ] {
        let outcome = observe(spec, ExperimentStore::Unbounded);
        observed.push_str(&format!("{:?}", outcome.result));
    }
    for (spec, store) in [
        (
            ProtocolSpec::RenewableTtl(24),
            ExperimentStore::Gds(capacity),
        ),
        (ProtocolSpec::UpdateRisk(5), ExperimentStore::Lfu(capacity)),
    ] {
        observed.push_str(&format!("{:?}", pair(observe(spec, store))));
    }
    assert!(probe.recorded() > 0, "the probe must actually observe");
    assert_eq!(
        fnv1a(observed.as_bytes()),
        NEW_GOLDEN,
        "attaching a probe perturbed a new-policy run"
    );
}

#[test]
fn parallel_sweep_matches_sequential_loop() {
    // The sweep executor must be a pure wall-clock optimisation: fanning a
    // sweep over worker threads yields bit-for-bit the results of a plain
    // sequential loop over the same points.
    let scale = {
        let mut s = Scale::quick();
        s.worrell = WorrellConfig::scaled(60, 2_000);
        s.alex_thresholds = vec![0, 20, 50, 100];
        s.ttl_hours = vec![0, 100, 250, 500];
        s
    };
    let wl = generate_synthetic(&scale.worrell, scale.seed);
    let config = SimConfig::base();

    // Hand-rolled sequential reference: no SweepRunner involved at all.
    let seq_alex: Vec<_> = scale
        .alex_thresholds
        .iter()
        .map(|&pct| run(&wl, ProtocolSpec::Alex(pct), &config))
        .collect();
    let seq_ttl: Vec<_> = scale
        .ttl_hours
        .iter()
        .map(|&h| run(&wl, ProtocolSpec::Ttl(h), &config))
        .collect();
    let seq_inval = run(&wl, ProtocolSpec::Invalidation, &config);

    for jobs in [1, 2, 8] {
        let report = run_base_with(&scale, &SweepRunner::new(jobs));
        assert_eq!(
            report.alex.points.len(),
            seq_alex.len(),
            "jobs={jobs}: sweep point count"
        );
        for (i, (point, expected)) in report.alex.points.iter().zip(&seq_alex).enumerate() {
            assert_eq!(
                point.0,
                f64::from(scale.alex_thresholds[i]),
                "jobs={jobs}: alex points out of order"
            );
            assert_eq!(&point.1, expected, "jobs={jobs}: alex@{}", point.0);
        }
        for (i, (point, expected)) in report.ttl.points.iter().zip(&seq_ttl).enumerate() {
            assert_eq!(
                point.0, scale.ttl_hours[i] as f64,
                "jobs={jobs}: ttl points out of order"
            );
            assert_eq!(&point.1, expected, "jobs={jobs}: ttl@{}", point.0);
        }
        assert_eq!(report.invalidation, seq_inval, "jobs={jobs}: invalidation");
    }
}

/// The *order* of probe events (what `wcc trace` prints), pinned per
/// mechanism: the golden hashes above cover counters only. LRU at an
/// eighth of the footprint puts `Eviction` events — preload-time ones
/// included — in every stream.
#[test]
fn probe_event_streams_match_pinned_hashes() {
    let wl = generate_synthetic(&WorrellConfig::scaled(60, 1_500), 11);
    let footprint: u64 = wl
        .population
        .iter()
        .filter_map(|(_, rec)| rec.version_at(wl.start).map(|v| v.size))
        .sum();
    // `(spec, full stream, stream without its exchange events)`. The
    // second hash was pinned before replies carried their bytes: every
    // other event is where it was. Both Invalidation hashes were pinned
    // again when a notice began to make its copy the next LRU victim.
    let pinned: [(ProtocolSpec, u64, u64); 5] = [
        (
            ProtocolSpec::Ttl(48),
            18_216_779_714_523_949_012,
            3_396_245_693_127_715_562,
        ),
        (
            ProtocolSpec::Alex(20),
            4_044_380_262_315_333_427,
            10_619_631_799_275_100_362,
        ),
        (
            ProtocolSpec::Invalidation,
            14_799_391_157_534_961_674,
            17_535_634_872_783_188_596,
        ),
        (
            ProtocolSpec::RenewableTtl(24),
            6_663_344_711_493_566_302,
            18_082_429_234_969_043_656,
        ),
        (
            ProtocolSpec::UpdateRisk(5),
            1_626_089_919_296_659_483,
            10_567_333_375_222_849_003,
        ),
    ];
    for (spec, full, without_exchanges) in pinned {
        let mut trace = TraceProbe::new(1 << 20);
        Experiment::new(&wl)
            .protocol(spec)
            .store(ExperimentStore::Lru(footprint / 8))
            .probe(&mut trace)
            .run();
        assert_eq!(trace.dropped(), 0);
        let mut others = TraceProbe::new(1 << 20);
        for &(_, at, event) in trace.events() {
            if !matches!(event, ObsEvent::Exchange { .. }) {
                others.record(at, event);
            }
        }
        let stream = trace.to_jsonl_string();
        assert!(stream.contains("\"eviction\""), "{}", spec.label());
        assert!(stream.contains("\"exchange\""), "{}", spec.label());
        assert_eq!(
            fnv1a(others.to_jsonl_string().as_bytes()),
            without_exchanges,
            "{}: an existing probe event moved or changed",
            spec.label()
        );
        assert_eq!(
            fnv1a(stream.as_bytes()),
            full,
            "{}: probe event stream diverged",
            spec.label()
        );
    }
}

/// The hierarchical simulator, pinned: Figure 1's four scenario rows and
/// a full-workload replay under both demand regimes.
#[test]
fn hierarchy_runs_match_pinned_hash() {
    let mut rendered = format!("{:?}", figure1_scenarios());
    let wl = generate_synthetic(&WorrellConfig::scaled(60, 2_000), 5);
    for spec in [ProtocolSpec::Ttl(100), ProtocolSpec::Invalidation] {
        for assignment in [LeafAssignment::Symmetric, LeafAssignment::Skewed(0.9)] {
            let (topo, _, _) = HierarchyTopology::figure1();
            rendered.push_str(&format!(
                "{:?}",
                replay_workload(topo, &wl, spec, assignment)
            ));
        }
    }
    const HIERARCHY_GOLDEN: u64 = 6_529_317_439_583_048_730;
    assert_eq!(fnv1a(rendered.as_bytes()), HIERARCHY_GOLDEN);
}

/// The failure experiment, pinned on a two-outage script: one file
/// changes inside each outage, another between them.
#[test]
fn partitioned_invalidation_matches_pinned_hash() {
    let hours = SimDuration::from_hours;
    let mut b = ScenarioBuilder::new("two-outages", SimDuration::from_days(4));
    let x = b.file("/x.html", 4_000, SimDuration::from_days(3), 0);
    let y = b.file("/y.html", 9_000, SimDuration::from_days(9), 0);
    b.modify(x, hours(10), None);
    b.modify(y, hours(30), Some(9_500));
    b.modify(x, hours(60), Some(4_200));
    b.request_every(x, hours(2), hours(2));
    b.request_every(y, hours(3), hours(5));
    let wl = b.build();
    let outages = [
        Outage {
            from: wl.start + hours(9),
            until: wl.start + hours(15),
        },
        Outage {
            from: wl.start + hours(58),
            until: wl.start + hours(70),
        },
    ];
    let r = run_partitioned_invalidation(&wl, &outages);
    assert!(r.result.cache.stale_hits > 0 && r.late_deliveries == 2);
    let rendered = format!("{:?}", (&r.result, r.failed_attempts, r.late_deliveries));
    const FAILURE_GOLDEN: u64 = 6_367_020_953_325_722_699;
    assert_eq!(fnv1a(rendered.as_bytes()), FAILURE_GOLDEN);
}
