//! `wcc-load` — the load drivers of the live serving stack: closed-loop,
//! open-loop, streaming trace replay, and the connection soak.
//!
//! A closed-loop run answers "how fast can the stack go?" — each client
//! waits for a response before sending the next request, so offered
//! load always equals achieved load and queueing delay is invisible. An
//! open-loop run answers the question the paper's consistency-vs-load
//! trade-off actually needs: **what happens to each policy when load is
//! imposed rather than negotiated?** Both drive a `liveserve::LiveStack`
//! through the same client exchange (`HttpConn::get_ok`) and report the
//! same `StackCounters` through the same JSON renderer.
//!
//! * [`closed`] — [`run_closed_loop`]: N clients pulling from one
//!   request source, streamed or materialized. At one thread it is the
//!   counter-exact sequential replay the differential tests rely on.
//!   [`drive`] is its client half, for a stack the caller keeps.
//! * [`soak`] — [`run_soak`]: two `drive`s (warm-up, active mix) through
//!   one stack whose proxy meanwhile holds thousands of idle
//!   connections; gates on the reactor's thread and connection counts.
//! * [`schedule`] — deterministic virtual-time arrival schedules
//!   (Poisson or fixed-rate, per-client RNG streams, lazily merged).
//!   The schedule is a pure function of its config: bit-identical
//!   across worker counts and re-runs.
//! * [`driver`] — the open-loop pacer/worker harness: fire each arrival
//!   at its wall deadline, advance the shared virtual clock, shed (and
//!   count) what a bounded pending queue cannot hold, and report
//!   offered vs. achieved rate, queue delay, and coordinated-
//!   omission-free sojourn percentiles.
//! * [`replay`] — stream any `Iterator<Item = TraceRequest>` (the lazy
//!   generators and CLF streams in [`webtrace::stream`]) through the
//!   stack open-loop at a configurable time-compression factor.
//!
//! Open-loop runs are conservation-checked: `offered = completed + shed
//! + errors`, enforced by [`OpenLoopReport::conserves`] and the smoke
//! tests behind `wcc openloop --smoke` / `wcc replay --smoke`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed;
pub mod driver;
pub mod replay;
pub mod schedule;
pub mod soak;

pub use closed::{drive, run_closed_loop, ClientTally, LoadReport};
pub use driver::{
    plan_shots, run_open_loop, shots_from_arrivals, OpenLoopConfig, OpenLoopReport, Shot,
};
pub use replay::{replay_open_loop, shots_from_trace, stack_spec};
pub use schedule::{Arrival, ArrivalMode, ArrivalSchedule, ScheduleConfig};
pub use soak::{run_soak, soak_worker, SoakConfig, SoakReport};
