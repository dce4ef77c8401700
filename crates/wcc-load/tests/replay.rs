//! Streaming replay correctness: the closed-loop driver must send every
//! record of a *streamed* source exactly once at any thread count, and
//! the open-loop path must conserve every streamed record.

use liveserve::{LivePolicy, LiveRunConfig, ProbeHandle};
use wcc_load::{replay_open_loop, run_closed_loop, stack_spec, OpenLoopConfig};
use webtrace::campus::CampusProfile;
use webtrace::stream::{synthetic_stream, SyntheticStreamConfig};

fn small_config() -> SyntheticStreamConfig {
    SyntheticStreamConfig::campus(&CampusProfile::das(), 2_000, 77)
}

#[test]
fn three_clients_send_every_streamed_record_exactly_once() {
    let (meta, stream) = synthetic_stream(&small_config());
    let mut run = LiveRunConfig::new(LivePolicy::Alex(20));
    run.threads = 3;
    // The stream is handed over as it is: nothing is collected first.
    let report = run_closed_loop(
        &stack_spec(&meta),
        stream.map(|r| (r.time, r.file)),
        &run,
        &ProbeHandle::none(),
    )
    .unwrap();
    assert_eq!(report.threads, 3);
    assert_eq!(report.requests, 2_000);
    assert_eq!(report.cache.requests(), report.requests);
    assert_eq!(
        report.latency.count() + report.latency.dropped(),
        report.requests
    );
}

#[test]
fn open_loop_replay_conserves_every_streamed_record() {
    let (meta, stream) = synthetic_stream(&small_config());
    let spec = stack_spec(&meta);
    let config = OpenLoopConfig::new(LiveRunConfig::new(LivePolicy::Ttl(24)), 0.0);
    // The campus window is ~a week of virtual time; compress hard so
    // the test replays in about a second.
    let window = (meta.end - meta.start).as_secs() as f64;
    let report = replay_open_loop(&spec, stream, window, &config, &ProbeHandle::none()).unwrap();
    assert_eq!(report.offered, 2_000);
    assert!(report.conserves());
    assert!(report.completed > 0);
}
