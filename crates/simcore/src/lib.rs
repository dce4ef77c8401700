//! `simcore` — the vocabulary the simulators share, for the
//! *World Wide Web Cache Consistency* reproduction:
//!
//! * [`SimTime`] / [`SimDuration`] — second-granularity virtual time, and
//!   [`DurationScale`], the exact fixed-point `factor × duration` of Alex's
//!   horizon;
//! * [`FileId`], [`CacheId`], [`ClientId`] — typed entity identifiers;
//! * [`TrafficMeter`], [`CacheStats`], [`ServerLoad`], [`LatencyStats`] —
//!   the paper's bandwidth, cache-behaviour, server-load and latency
//!   counters.
//!
//! There is no event engine here: the simulators are trace-driven, so a
//! run is a loop over the workload's schedule (`webcache::sim`), and the
//! one timer any of them needs is the retry queue's own next attempt
//! (`webcache::experiments::failure`).
//!
//! [`EventQueue`] / [`EventHandle`] (a cancellable, FIFO-stable pending
//! event heap) have no caller in the workspace. They stay exported only
//! because the repo benchmark times them as `simcore.queue.*_ns` and
//! `bench/` is closed to ordinary PRs; ROADMAP item 5(b) lists them among
//! the pins to drop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ids;
mod metrics;
mod queue;
mod time;

pub use ids::{CacheId, ClientId, FileId};
pub use metrics::{CacheStats, LatencyStats, ServerLoad, TrafficMeter};
pub use queue::{EventHandle, EventQueue};
pub use time::{DurationScale, SimDuration, SimTime};
