//! Differential test: the live TCP stack against the optimized simulator.
//!
//! The same synthetic workload is replayed twice — once through
//! `webcache::run` (conditional retrieval, no preload) and once through
//! `liveserve`'s loopback origin + proxy with a single client thread —
//! and the behavioural counters must match *exactly*: every hit, miss,
//! stale hit, validation, server operation, and staleness second.
//!
//! The one deliberate divergence is `TrafficMeter::message_bytes`: the
//! simulator charges the paper's 43-byte constant per control message
//! while the live stack counts real wire bytes. Message and
//! file-transfer *counts* (and body bytes) still have to agree, so the
//! assertion covers those fields individually instead of the whole
//! meter.

use std::collections::BTreeSet;
use std::net::TcpStream;

use wwwcache::liveserve::{DelaySource, HttpConn, LiveRunConfig, LiveStack, ProbeHandle};
use wwwcache::simcore::SimTime;
use wwwcache::wcc_obs::{ExchangeKind, ObsEvent, RequestOutcome, TraceProbe};
use wwwcache::webcache::live::to_live_workload;
use wwwcache::webcache::{
    generate_synthetic, run, Experiment, ExperimentStore, LoadReport, ProtocolSpec, RunResult,
    SimConfig, Workload, WorrellConfig,
};

/// One client thread, one shard: the configuration the simulator mirrors.
fn run_live(workload: &Workload, spec: ProtocolSpec) -> LoadReport {
    Experiment::new(workload)
        .protocol(spec)
        .run_live()
        .expect("live loopback run")
}

/// The simulator configuration the live stack mirrors: conditional
/// (If-Modified-Since) retrieval, no cache pre-load.
fn live_equivalent_config() -> SimConfig {
    SimConfig::optimized().preload(false)
}

fn assert_live_matches_sim(workload: &Workload, spec: ProtocolSpec) {
    let sim: RunResult = run(workload, spec, &live_equivalent_config());
    let live = run_live(workload, spec);

    assert_eq!(live.policy, sim.protocol, "policy label");
    assert_eq!(live.cache, sim.cache, "{spec:?}: CacheStats diverged");
    assert_eq!(
        live.server, sim.server,
        "{spec:?}: ServerLoad diverged (origin-side operation counts)"
    );
    assert_eq!(
        live.stale_age_total, sim.stale_age_total,
        "{spec:?}: summed staleness age diverged"
    );
    assert_eq!(
        live.traffic.messages, sim.traffic.messages,
        "{spec:?}: control-message count diverged"
    );
    assert_eq!(
        live.traffic.file_transfers, sim.traffic.file_transfers,
        "{spec:?}: file-transfer count diverged"
    );
    assert_eq!(
        live.traffic.file_bytes, sim.traffic.file_bytes,
        "{spec:?}: file-body bytes diverged"
    );
    // Real wire bytes are never cheaper than zero-length messages, and a
    // run with traffic must have counted some.
    if live.traffic.messages > 0 {
        assert!(live.traffic.message_bytes > 0, "{spec:?}: no wire bytes");
    }
}

fn differential_workload() -> Workload {
    generate_synthetic(&WorrellConfig::scaled(80, 2_500), 1996)
}

#[test]
fn ttl_live_run_matches_optimized_simulator() {
    assert_live_matches_sim(&differential_workload(), ProtocolSpec::Ttl(24));
}

#[test]
fn alex_live_run_matches_optimized_simulator() {
    assert_live_matches_sim(&differential_workload(), ProtocolSpec::Alex(20));
}

#[test]
fn invalidation_live_run_matches_optimized_simulator() {
    let workload = differential_workload();
    assert_live_matches_sim(&workload, ProtocolSpec::Invalidation);

    // Invalidation is the interesting protocol for the live stack: the
    // agreement above only means something if callbacks actually flowed.
    let live = run_live(&workload, ProtocolSpec::Invalidation);
    assert!(
        live.invalidations_delivered > 0,
        "no invalidations crossed the control channel"
    );
    assert_eq!(
        live.invalidations_delivered, live.server.invalidations_sent,
        "every INVALIDATE the origin sent must be delivered and ACKed"
    );
    assert_eq!(
        live.cache.stale_hits, 0,
        "invalidation must never serve stale"
    );
}

#[test]
fn a_second_seed_also_agrees() {
    let workload = generate_synthetic(&WorrellConfig::scaled(50, 1_200), 7);
    assert_live_matches_sim(&workload, ProtocolSpec::Alex(10));
    assert_live_matches_sim(&workload, ProtocolSpec::Invalidation);
}

#[test]
fn renewable_ttl_live_run_matches_optimized_simulator() {
    // The delay-aware policy is the hard case: every decision depends on
    // the retrieval delay, so agreement here proves the live stack's
    // `DelaySource::Modeled` pricing is byte-identical to the simulator's
    // link model — on decisions, fetch-delay feedback, and staleness.
    assert_live_matches_sim(&differential_workload(), ProtocolSpec::RenewableTtl(24));
}

#[test]
fn update_risk_live_run_matches_optimized_simulator() {
    // UpdateRisk layers MIMD rate-learning on top of the delay pricing:
    // its per-class gain is driven by the validation outcomes, so the
    // exact-match assertion also covers the live `on_validation` /
    // `on_fetch` callback ordering.
    assert_live_matches_sim(&differential_workload(), ProtocolSpec::UpdateRisk(5));
}

#[test]
fn specs_beyond_the_papers_three_also_run_live_and_match() {
    // The proxy is configured with the simulator's own `ProtocolSpec`,
    // so every spec runs live — including the ones the live stack used
    // to refuse: the always-validate baseline and the CERN httpd rule.
    let workload = differential_workload();
    assert_live_matches_sim(&workload, ProtocolSpec::PollEveryTime);
    assert_live_matches_sim(
        &workload,
        ProtocolSpec::Cern {
            lm_percent: 10,
            default_ttl_hours: 24,
        },
    );
}

/// The events the consistency engine emits, in the order they arrived,
/// and how many invalidation notices it took. The notices are counted,
/// not placed: the live proxy reads them off its control channel at no
/// fixed point among the requests. A reply keeps its kind, instant and
/// body bytes, but its control bytes are zeroed — the one deliberate
/// divergence (see the module docs).
fn engine_events(trace: &TraceProbe) -> (Vec<(SimTime, ObsEvent)>, u64) {
    assert_eq!(trace.dropped(), 0, "the capture must be complete");
    let mut notices = 0;
    let events = trace
        .events()
        .filter_map(|&(_, at, event)| {
            match event {
                ObsEvent::Exchange {
                    kind: ExchangeKind::Notice,
                    ..
                } => {
                    notices += 1;
                    None
                }
                ObsEvent::Exchange {
                    file,
                    kind,
                    body_bytes,
                    ..
                } => Some(ObsEvent::Exchange {
                    file,
                    kind,
                    message_bytes: 0,
                    body_bytes,
                }),
                ObsEvent::Request { .. }
                | ObsEvent::PolicyDecision { .. }
                | ObsEvent::Validation { .. }
                | ObsEvent::Eviction { .. } => Some(event),
                _ => None,
            }
            .map(|event| (at, event))
        })
        .collect();
    (events, notices)
}

/// A one-connection invalidation run driven by hand, so that the
/// origin's ledger can be read while the stack still stands: the
/// origin's subscription count once the window has closed, and the
/// files then resident in the proxy. The residents are the engine's own
/// account of them: a miss leaves its file resident unless the live
/// body is larger than the whole store, an eviction takes one away.
fn ledger_and_residents(workload: &Workload, capacity: u64) -> (usize, usize) {
    let live = to_live_workload(workload);
    let mut config = LiveRunConfig::new(ProtocolSpec::Invalidation);
    config.store = ExperimentStore::Lru(capacity);
    config.delay = DelaySource::Modeled(live_equivalent_config().link);
    let handle = ProbeHandle::buffered(1 << 16);
    let stack = LiveStack::spawn(&live.stack_spec(), &config, &handle).expect("live stack");
    let mut conn = HttpConn::new(TcpStream::connect(stack.proxy_addr()).unwrap()).unwrap();
    for &(at, file) in &live.requests {
        stack.advance_to(at);
        conn.get_ok(live.population.get(file).path).unwrap();
    }
    stack.advance_to(live.end);
    // The proxy's last `UNSUBSCRIBE`s leave at its next idle tick: wait,
    // at most a second, until the count holds still for four ticks.
    let mut subscriptions = stack.origin().subscription_count();
    for _ in 0..10 {
        std::thread::sleep(std::time::Duration::from_millis(100));
        let before = std::mem::replace(&mut subscriptions, stack.origin().subscription_count());
        if before == subscriptions {
            break;
        }
    }
    drop(conn);
    stack.shutdown();

    let mut trace = TraceProbe::new(1 << 16);
    handle.drain_into(&mut trace);
    let mut resident = BTreeSet::new();
    let mut rejected = 0;
    for (at, event) in engine_events(&trace).0 {
        match event {
            ObsEvent::Request {
                file,
                outcome: RequestOutcome::Miss,
            } => {
                let body = live
                    .population
                    .get(file)
                    .version_at(at)
                    .expect("a live version");
                if body.size <= capacity {
                    resident.insert(file);
                } else {
                    resident.remove(&file);
                    rejected += 1;
                }
            }
            ObsEvent::Eviction { file } => {
                resident.remove(&file);
            }
            _ => {}
        }
    }
    assert!(rejected > 0, "the oversized insert must be in play too");
    (subscriptions, resident.len())
}

/// Whether `trace` shows the rule every bounded policy here but FIFO
/// states: a copy whose latest event is its invalidation notice is a
/// next victim. So while any such copy is resident, each eviction takes
/// one of them; and at least one eviction does.
fn noticed_copies_go_first(trace: &TraceProbe) -> bool {
    let mut noticed = BTreeSet::new();
    let mut taken = 0;
    for &(_, _, event) in trace.events() {
        match event {
            ObsEvent::Exchange {
                file,
                kind: ExchangeKind::Notice,
                ..
            } => {
                noticed.insert(file);
            }
            ObsEvent::Eviction { file } => {
                if noticed.remove(&file) {
                    taken += 1;
                } else if !noticed.is_empty() {
                    return false;
                }
            }
            ObsEvent::Request { file, .. }
            | ObsEvent::PolicyDecision { file, .. }
            | ObsEvent::Validation { file, .. }
            | ObsEvent::Exchange { file, .. } => {
                noticed.remove(&file);
            }
            _ => {}
        }
    }
    taken > 0
}

#[test]
fn engine_events_arrive_in_the_same_order_live_and_simulated() {
    // One engine decides both runs, so this is a test of the transports:
    // sockets, the reactor and the shard lock must hand it the same
    // requests and replies, at the same virtual instants, in the same
    // order as the event queue does. A store at a sixth of the footprint
    // puts evictions (and, under invalidation, unsubscriptions) in play;
    // invalidation runs under each policy that demotes a noticed copy.
    let workload = differential_workload();
    let footprint: u64 = workload
        .population
        .iter()
        .filter_map(|(_, rec)| rec.version_at(workload.start).map(|v| v.size))
        .sum();
    let store = footprint / 6;
    for (spec, store) in [
        (ProtocolSpec::Alex(20), ExperimentStore::Lru(store)),
        (ProtocolSpec::Invalidation, ExperimentStore::Lru(store)),
        (ProtocolSpec::Invalidation, ExperimentStore::Gds(store)),
        (ProtocolSpec::Invalidation, ExperimentStore::Lfu(store)),
        (ProtocolSpec::UpdateRisk(5), ExperimentStore::Lru(store)),
    ] {
        let experiment = |probe| {
            Experiment::new(&workload)
                .protocol(spec)
                .config(live_equivalent_config())
                .store(store)
                .probe(probe)
        };
        let mut sim = TraceProbe::new(1 << 16);
        let simulated = experiment(&mut sim).run();
        let mut live = TraceProbe::new(1 << 16);
        let served = experiment(&mut live).run_live().expect("live run");

        assert!(simulated.evictions > 0, "{spec:?}: the store must evict");
        assert_eq!(served.evictions, simulated.evictions, "{spec:?}");
        assert_eq!(served.cache, simulated.result.cache, "{spec:?}");
        if spec.uses_invalidation() {
            assert!(
                noticed_copies_go_first(&sim),
                "{store:?}: an invalidated copy was not the next victim"
            );
        }
        let ((sim, sim_notices), (live, live_notices)) =
            (engine_events(&sim), engine_events(&live));
        assert!(
            sim.iter()
                .any(|(_, e)| matches!(e, ObsEvent::Exchange { .. })),
            "{spec:?}: the replies must be in the stream"
        );
        if let Some(i) = (0..sim.len().max(live.len())).find(|&i| sim.get(i) != live.get(i)) {
            panic!(
                "{spec:?} {store:?}: event {i} diverged — simulated {:?}, live {:?}",
                sim.get(i),
                live.get(i)
            );
        }
        if spec.uses_invalidation() {
            // The origin's side of the same story: had an `UNSUBSCRIBE`
            // landed after the victim's next modification, or a
            // `SUBSCRIBE` after the file's, the notice count would differ;
            // and when it is all over the origin tracks exactly what the
            // proxy holds.
            assert_eq!(served.server, simulated.result.server, "{store:?}");
            let delivered = served.proxy.invalidations_delivered;
            assert!(delivered > 0, "{store:?}: notices must be in play");
            assert_eq!(live_notices, delivered, "{store:?}: live notices");
            assert_eq!(sim_notices, delivered, "{store:?}: simulated notices");
            if let ExperimentStore::Lru(capacity) = store {
                let (subscriptions, residents) = ledger_and_residents(&workload, capacity);
                assert!(residents > 0, "{spec:?}: something must be resident");
                assert_eq!(subscriptions, residents, "{spec:?}: the origin's ledger");
            }
        } else {
            assert_eq!((sim_notices, live_notices), (0, 0), "{spec:?}");
        }
    }
}
