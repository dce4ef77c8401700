//! `wcc-obs` — the deterministic observability substrate.
//!
//! Every layer of the workspace (the three simulators in `webcache`,
//! the live TCP stack in `liveserve`) emits structured, sim-time-stamped
//! events through one tiny seam: the [`Probe`] trait. Everything else in
//! this crate is a consumer of that stream:
//!
//! * [`TraceProbe`] — a bounded ring buffer of events with a
//!   deterministic JSONL export (stable field order, sequence-numbered,
//!   drop-counted). Two identical runs export byte-identical traces.
//! * [`Tally`] — the paper's per-cache counts (request split,
//!   bandwidth, staleness age, evictions) as a fold of the stream.
//! * [`MetricsProbe`] / [`MetricsRegistry`] — named counters and gauges
//!   plus log2-bucketed histograms (time-to-stale, validation
//!   intervals, invalidation fan-out, live-path latency).
//! * [`JsonObj`] — the workspace's one JSON writer: trace lines, capture
//!   headers, load reports, `--smoke` verdicts and the invariant linter's
//!   report are all built with it, so escaping and number formatting are
//!   written once.
//! * [`profile`] — wall-clock phase timers for the sweep executor. This
//!   is the **only** module in the workspace's simulation path that may
//!   read real time, and only behind an explicit enable switch; each
//!   read site carries a `wcc-allow: r1` justification for the
//!   invariant linter.
//!
//! Determinism is load-bearing: probes observe already-computed values
//! and never feed anything back into the simulation, so attaching (or
//! detaching) any probe cannot change a single counter. The golden-hash
//! tests in the workspace root pin this.
//!
//! The crate depends only on `simcore` (for [`simcore::SimTime`] and
//! friends), `wcc-sync` (the ranked mutex behind [`ProbeHandle`]) and the
//! standard library — no registry crates, no vendored stubs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod probe;
pub mod profile;
mod tally;
mod trace;

pub use json::JsonObj;
pub use metrics::{Log2Histogram, MetricsProbe, MetricsRegistry};
pub use probe::{
    ConnCloseReason, ExchangeKind, NoopProbe, ObsEvent, Probe, ProbeHandle, RequestOutcome,
    ServerOpKind, ShedReason,
};
pub use tally::Tally;
pub use trace::TraceProbe;
