//! Streaming trace replay: drive any `Iterator<Item = TraceRequest>`
//! through the live stack without ever materializing the trace.
//!
//! [`replay_open_loop`] compresses the trace's virtual arrival instants
//! onto the wall clock (`compression` virtual seconds per wall second)
//! and fires them through the open-loop [`driver`](crate::driver):
//! arrivals keep the trace's schedule, overload sheds instead of
//! stalling, and the report separates offered from achieved load. The
//! counter-exact sequential replay is the closed-loop driver at one
//! thread: [`run_closed_loop`](crate::run_closed_loop) over
//! `stream.map(|r| (r.time, r.file))`.

use std::io;

use liveserve::StackSpec;
use simcore::SimTime;
use wcc_obs::ProbeHandle;
use webtrace::stream::StreamMeta;
use webtrace::TraceRequest;

use crate::driver::{run_open_loop, OpenLoopConfig, OpenLoopReport, Shot};

/// The stack a streamed trace replays against: the stream's file set,
/// classes and window, with no origin-assigned `Expires` lifetimes.
pub fn stack_spec(meta: &StreamMeta) -> StackSpec {
    StackSpec {
        population: std::sync::Arc::clone(&meta.population),
        classes: meta.classes.clone(),
        class_expires: Vec::new(),
        start: meta.start,
        end: meta.end,
    }
}

/// Map a virtual-time request stream onto wall-clock shots:
/// `compression` virtual seconds replay per wall second. Arrival order
/// (and thus `due_us` monotonicity) follows the stream, which must be
/// time-sorted — every trace source in this workspace is.
pub fn shots_from_trace(
    stream: impl Iterator<Item = TraceRequest>,
    start: SimTime,
    compression: f64,
) -> impl Iterator<Item = Shot> {
    let compression = if compression.is_finite() && compression > 0.0 {
        compression
    } else {
        1.0
    };
    stream.map(move |r| Shot {
        due_us: ((r.time.as_secs().saturating_sub(start.as_secs())) as f64 * 1e6 / compression)
            as u64,
        at: r.time,
        file: r.file,
    })
}

/// Replay `stream` open-loop at `compression` virtual seconds per wall
/// second under `config`.
pub fn replay_open_loop(
    spec: &StackSpec,
    stream: impl Iterator<Item = TraceRequest>,
    compression: f64,
    config: &OpenLoopConfig,
    probe: &ProbeHandle,
) -> io::Result<OpenLoopReport> {
    run_open_loop(
        spec,
        shots_from_trace(stream, spec.start, compression),
        config,
        probe,
    )
}
