//! End-to-end reproduction checks: the paper's §7 conclusion bullets,
//! verified across the whole stack (trace generation → workload →
//! simulator → metrics).

use wwwcache::webcache::{run, ProtocolSpec, SimConfig, Workload};
use wwwcache::webtrace::campus::{generate_campus_trace, CampusProfile};

fn hcs_workload() -> Workload {
    let campus = generate_campus_trace(&CampusProfile::hcs(), 1996);
    Workload::from_server_trace(campus.trace)
}

/// §7 bullet: Alex "can be tuned to ... produce a stale rate of less than
/// 5%" while reducing bandwidth below the invalidation protocol.
#[test]
fn alex_tunes_below_invalidation_bandwidth_with_low_staleness() {
    let wl = hcs_workload();
    let config = SimConfig::optimized();
    let invalidation = run(&wl, ProtocolSpec::Invalidation, &config);
    let alex = run(&wl, ProtocolSpec::Alex(40), &config);
    assert!(
        alex.traffic.total_bytes() < invalidation.traffic.total_bytes(),
        "Alex@40%: {} B vs invalidation {} B",
        alex.traffic.total_bytes(),
        invalidation.traffic.total_bytes()
    );
    assert!(alex.stale_pct() < 5.0, "stale {:.2}%", alex.stale_pct());
}

/// §7 bullet: Alex can "produce server load comparable to, or less than,
/// that of an invalidation protocol" — the paper locates the crossover
/// near threshold 64%.
#[test]
fn alex_server_load_crosses_invalidation_near_the_papers_threshold() {
    let wl = hcs_workload();
    let config = SimConfig::optimized();
    let inval_ops = run(&wl, ProtocolSpec::Invalidation, &config).server_ops();

    // Find the first threshold (in 5% steps) where Alex's load drops to or
    // below the invalidation protocol's.
    let crossover = (0..=100u32)
        .step_by(5)
        .find(|&pct| run(&wl, ProtocolSpec::Alex(pct), &config).server_ops() <= inval_ops);
    let crossover = crossover.expect("Alex must cross below invalidation load by 100%");
    assert!(
        (20..=90).contains(&crossover),
        "crossover at {crossover}% (paper: ~64%)"
    );
    // And the stale rate at the crossover is small (paper: 4%).
    let at_crossover = run(&wl, ProtocolSpec::Alex(crossover), &config);
    assert!(
        at_crossover.stale_pct() < 5.0,
        "stale at crossover {:.2}%",
        at_crossover.stale_pct()
    );
}

/// §4.2: "an update threshold as low as 5% returns stale data less than
/// 1% of the time" on the trace workloads.
#[test]
fn five_percent_threshold_keeps_staleness_under_one_percent() {
    for profile in CampusProfile::all() {
        let campus = generate_campus_trace(&profile, 1996);
        let wl = Workload::from_server_trace(campus.trace);
        let r = run(&wl, ProtocolSpec::Alex(5), &SimConfig::optimized());
        assert!(
            r.stale_pct() < 1.0,
            "{}: stale {:.3}%",
            profile.name,
            r.stale_pct()
        );
    }
}

/// Figure 8's degenerate point: threshold 0 "creates nearly two orders of
/// magnitude more server queries" than necessary.
#[test]
fn threshold_zero_is_excessively_wasteful() {
    let wl = hcs_workload();
    let config = SimConfig::optimized();
    let poll = run(&wl, ProtocolSpec::Alex(0), &config);
    let tuned = run(&wl, ProtocolSpec::Alex(64), &config);
    assert!(
        poll.server_ops() >= 30 * tuned.server_ops(),
        "poll {} ops vs tuned {} ops",
        poll.server_ops(),
        tuned.server_ops()
    );
}

/// TTL "does present a significantly higher load to the server, which
/// makes it unattractive" (§7) — at matched staleness budgets TTL loads
/// the server more than Alex.
#[test]
fn ttl_loads_server_more_than_alex_at_matched_staleness() {
    let wl = hcs_workload();
    let config = SimConfig::optimized();
    let inval_ops = run(&wl, ProtocolSpec::Invalidation, &config).server_ops();
    // Every TTL setting in the paper's sweep exceeds invalidation load.
    for hours in [50u64, 100, 200, 300, 500] {
        let r = run(&wl, ProtocolSpec::Ttl(hours), &config);
        assert!(
            r.server_ops() > inval_ops,
            "TTL@{hours}h: {} vs invalidation {}",
            r.server_ops(),
            inval_ops
        );
    }
    // While Alex at a high threshold does not.
    let alex = run(&wl, ProtocolSpec::Alex(80), &config);
    assert!(alex.server_ops() <= inval_ops);
}

/// The invalidation protocol's defining property holds on every workload
/// family this workspace can produce.
#[test]
fn invalidation_is_always_perfectly_consistent() {
    use wwwcache::webcache::{generate_synthetic, WorrellConfig};
    let config = SimConfig::optimized();
    let synthetic = generate_synthetic(&WorrellConfig::scaled(100, 4_000), 7);
    assert_eq!(
        run(&synthetic, ProtocolSpec::Invalidation, &config)
            .cache
            .stale_hits,
        0
    );
    let trace = hcs_workload().subsample(4);
    assert_eq!(
        run(&trace, ProtocolSpec::Invalidation, &config)
            .cache
            .stale_hits,
        0
    );
}
