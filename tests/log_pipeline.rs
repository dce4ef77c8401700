//! The full log pipeline: generate → export to the extended log format →
//! re-parse → simulate, confirming the text format is a faithful carrier
//! for the consistency experiments.

use wwwcache::webcache::{run, ProtocolSpec, SimConfig, Workload};
use wwwcache::webtrace::campus::{generate_campus_trace, CampusProfile};
use wwwcache::webtrace::{LogLine, ServerTrace};

#[test]
fn log_text_round_trips_exactly() {
    let campus = generate_campus_trace(&CampusProfile::fas(), 11);
    let text = campus.trace.to_log();
    let lines = LogLine::parse_log(&text).expect("own output parses");
    assert_eq!(lines.len(), campus.trace.request_count());
    // Re-serialising reproduces the identical text.
    assert_eq!(wwwcache::webtrace::write_log(&lines), text);
}

#[test]
fn rebuilt_trace_simulates_close_to_ground_truth() {
    let campus = generate_campus_trace(&CampusProfile::hcs(), 11);
    let truth_wl = Workload::from_server_trace(&campus.trace);
    let rebuilt = ServerTrace::from_log("HCS", &campus.trace.to_log()).expect("parses");
    let log_wl = Workload::from_server_trace(&rebuilt);

    let config = SimConfig::optimized();
    let spec = ProtocolSpec::Alex(20);
    let truth = run(&truth_wl, spec, &config);
    let observed = run(&log_wl, spec, &config);

    // Same request stream.
    assert_eq!(truth.cache.requests(), observed.cache.requests());
    // The log view misses unserved modifications, so it can only see
    // *fewer* misses and stale hits — never more.
    assert!(observed.cache.misses <= truth.cache.misses);
    assert!(observed.cache.stale_hits <= truth.cache.stale_hits);
    // But the two agree to within the unobserved-change margin: stale
    // rates within one percentage point.
    assert!(
        (truth.stale_pct() - observed.stale_pct()).abs() < 1.0,
        "truth {:.3}% vs log view {:.3}%",
        truth.stale_pct(),
        observed.stale_pct()
    );
}

#[test]
fn log_parsing_rejects_corruption_loudly() {
    let campus = generate_campus_trace(&CampusProfile::fas(), 3);
    let mut text = campus.trace.to_log();
    text.push_str("corrupted trailing line\n");
    let err = LogLine::parse_log(&text).expect_err("corruption must fail");
    assert!(err.to_string().contains("corrupted"));
}

#[test]
fn log_view_file_set_is_the_requested_subset() {
    // Files that are never requested never appear in a log — the rebuilt
    // population must be exactly the requested file set.
    let campus = generate_campus_trace(&CampusProfile::das(), 5);
    let requested: std::collections::HashSet<&str> = campus
        .trace
        .requests
        .iter()
        .map(|r| campus.trace.population.get(r.file).path)
        .collect();
    let rebuilt = ServerTrace::from_log("DAS", &campus.trace.to_log()).expect("parses");
    assert_eq!(rebuilt.population.len(), requested.len());
    for (_, rec) in rebuilt.population.iter() {
        assert!(requested.contains(rec.path), "{}", rec.path);
    }
}
