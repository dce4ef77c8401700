//! Open-loop driver behaviour against a real loopback stack:
//! conservation of every offered shot, shedding under deliberate
//! overload, an offered sequence that ignores the worker count, and the
//! report schema shared with the closed-loop driver.

use std::sync::Arc;

use liveserve::{LivePolicy, LiveRunConfig, StackSpec};
use originserver::{FilePopulation, FileRecord};
use simcore::{FileId, LatencyStats, SimTime};
use wcc_load::{
    plan_shots, run_open_loop, ArrivalMode, LoadReport, OpenLoopConfig, ScheduleConfig,
};
use wcc_obs::{ObsEvent, ProbeHandle, ShedReason, TraceProbe};

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Three files, /c modified mid-window.
fn tiny_spec() -> StackSpec {
    let mut pop = FilePopulation::new();
    pop.add(FileRecord::new("/a.html", t(0), 500));
    pop.add(FileRecord::new("/b.gif", t(0), 2_000));
    let mut c = FileRecord::new("/c.html", t(0), 800);
    c.push_modification(t(600), 850);
    pop.add(c);
    StackSpec {
        population: Arc::new(pop),
        classes: vec![0, 0, 0],
        class_expires: Vec::new(),
        start: SimTime::ZERO,
        end: t(1_200),
    }
}

fn files() -> Vec<FileId> {
    (0..3).map(FileId::from_index).collect()
}

#[test]
fn open_loop_run_conserves_every_offered_shot() {
    let spec = tiny_spec();
    let schedule = ScheduleConfig::poisson(400.0, 600, 11);
    let config = OpenLoopConfig::new(LiveRunConfig::new(LivePolicy::Ttl(24)), 400.0);
    let report = run_open_loop(
        &spec,
        plan_shots(&schedule, &files(), spec.start, 800.0),
        &config,
        &ProbeHandle::none(),
    )
    .unwrap();
    assert_eq!(report.offered, 600);
    assert!(report.conserves(), "offered {} != parts", report.offered);
    assert!(report.completed > 0);
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.completed,
        report.cache.requests(),
        "every completed shot must be classified by the proxy"
    );
    assert_eq!(report.sojourn.count(), report.completed);
}

#[test]
fn overload_sheds_at_the_bounded_queue_instead_of_blocking() {
    let spec = tiny_spec();
    // Everything due immediately, one worker, a tiny queue: the pacer
    // must shed most of the burst rather than stall the schedule.
    let schedule = ScheduleConfig {
        clients: 4,
        rate_rps: 2_000_000.0,
        mode: ArrivalMode::FixedRate,
        seed: 5,
        total: 3_000,
    };
    let mut config = OpenLoopConfig::new(LiveRunConfig::new(LivePolicy::Ttl(24)), 2_000_000.0);
    config.workers = 1;
    config.queue_cap = 8;
    let report = run_open_loop(
        &spec,
        plan_shots(&schedule, &files(), spec.start, 1.0),
        &config,
        &ProbeHandle::none(),
    )
    .unwrap();
    assert!(report.conserves());
    assert!(
        report.dropped_queue_full > 0,
        "a 3000-shot instantaneous burst into an 8-deep queue must shed"
    );
    assert!(report.offered_rps() > report.achieved_rps());
}

#[test]
fn report_json_shares_the_rates_and_latency_schema() {
    let spec = tiny_spec();
    let schedule = ScheduleConfig::poisson(300.0, 200, 2);
    let config = OpenLoopConfig::new(LiveRunConfig::new(LivePolicy::Alex(20)), 300.0);
    let report = run_open_loop(
        &spec,
        plan_shots(&schedule, &files(), spec.start, 1_000.0),
        &config,
        &ProbeHandle::none(),
    )
    .unwrap();
    let json = report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"policy\":\"Alex 20%\""));
    assert!(json.contains("\"rates\":{\"offered_rps\":"));
    assert!(json.contains("\"achieved_rps\":"));
    assert!(json.contains("\"drops\":{\"queue_full\":"));
    assert!(json.contains("\"latency\":{\"samples\":"));
    assert!(json.contains("\"queue_delay\":{\"samples\":"));
    assert!(json.contains("\"target_rps\":"));
    assert!(json.contains("\"upstream\":{\"dials\":"));

    // One renderer: a closed-loop report built from equal counters
    // spells the stack-side objects byte for byte the same.
    let closed = LoadReport {
        policy: report.policy.clone(),
        threads: 1,
        shards: report.shards,
        reactor_threads: report.reactor_threads,
        requests: report.completed,
        wall_seconds: report.wall_seconds,
        stack: report.stack.clone(),
        latency: LatencyStats::new(),
        bytes_to_clients: report.bytes_to_clients,
    }
    .to_json();
    for key in ["cache", "traffic", "server", "upstream"] {
        assert_eq!(object(&json, key), object(&closed, key), "{key}");
    }
    for key in ["shards", "reactor_threads", "hit_rate", "stale_hit_rate"] {
        let member = format!("\"{key}\":");
        assert!(json.contains(&member), "open-loop JSON lacks {key}");
        assert!(closed.contains(&member), "closed-loop JSON lacks {key}");
    }
}

/// The flat object member `"key":{...}` of a rendered report.
fn object<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\":{{"))
        .unwrap_or_else(|| panic!("no {key} object in {json}"));
    let end = start + json[start..].find('}').expect("object closes");
    &json[start..=end]
}

/// The virtual instants the pacer offered, in order: it records exactly
/// one event per scheduled shot, `OpenLoopArrival` or a queue-full shed.
fn offered_sequence(workers: usize) -> Vec<SimTime> {
    let spec = tiny_spec();
    let schedule = ScheduleConfig::poisson(1_000.0, 500, 3);
    let mut config = OpenLoopConfig::new(LiveRunConfig::new(LivePolicy::Ttl(24)), 1_000.0);
    config.workers = workers;
    let probe = ProbeHandle::buffered(1 << 14);
    run_open_loop(
        &spec,
        plan_shots(&schedule, &files(), spec.start, 2_400.0),
        &config,
        &probe,
    )
    .unwrap();
    let mut trace = TraceProbe::new(1 << 14);
    probe.drain_into(&mut trace);
    assert_eq!(trace.dropped(), 0, "the capture must be complete");
    trace
        .events()
        .filter_map(|&(_, at, event)| match event {
            ObsEvent::OpenLoopArrival { .. }
            | ObsEvent::OpenLoopShed {
                reason: ShedReason::QueueFull,
            } => Some(at),
            _ => None,
        })
        .collect()
}

#[test]
fn offered_sequence_is_identical_at_one_and_seven_workers() {
    // Two real runs differing only in the drain side must offer the
    // same arrivals at the same virtual instants.
    let narrow = offered_sequence(1);
    assert_eq!(narrow.len(), 500);
    assert_eq!(narrow, offered_sequence(7));
}

#[test]
fn scripted_modifications_publish_during_the_run() {
    let spec = tiny_spec();
    let schedule = ScheduleConfig::poisson(500.0, 800, 9);
    let config = OpenLoopConfig::new(LiveRunConfig::new(LivePolicy::Invalidation), 500.0);
    let report = run_open_loop(
        &spec,
        // 1200 virtual seconds compressed into ~1.6 wall seconds.
        plan_shots(&schedule, &files(), spec.start, 800.0),
        &config,
        &ProbeHandle::none(),
    )
    .unwrap();
    assert!(report.conserves());
    // The /c modification at t=600 falls inside the compressed window,
    // so the invalidation protocol must have fired.
    assert_eq!(report.server.invalidations_sent, 1);
    assert_eq!(report.invalidations_delivered, 1);
}
