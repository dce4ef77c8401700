//! `simcore` — the discrete-event simulation substrate for the
//! *World Wide Web Cache Consistency* reproduction.
//!
//! This crate provides the pieces every simulator in the workspace builds
//! on:
//!
//! * [`SimTime`] / [`SimDuration`] — a second-granularity virtual clock;
//! * [`EventQueue`] — a deterministic, FIFO-stable pending-event queue
//!   (indexed 4-ary heap: O(log n) schedule/cancel/pop, O(1) peek and
//!   handle-liveness);
//! * [`Simulation`] / [`Scheduler`] — the event-execution driver: one run
//!   loop over a pre-sorted feed (the trace) and the queue (what events
//!   schedule during the run);
//! * [`TrafficMeter`], [`CacheStats`], [`ServerLoad`] — the paper's
//!   bandwidth, cache-behaviour, and server-load metrics;
//! * [`FileId`], [`CacheId`], [`ClientId`] — typed entity identifiers.
//!
//! Determinism is a design requirement: identical inputs produce identical
//! event orders and therefore bit-identical experiment results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod ids;
mod metrics;
mod queue;
mod time;

pub use engine::{Dispatch, Event, Scheduler, Simulation};
pub use ids::{CacheId, ClientId, FileId};
pub use metrics::{CacheStats, LatencyStats, ServerLoad, TrafficMeter};
pub use queue::{EventHandle, EventQueue};
pub use time::{SimDuration, SimTime};
