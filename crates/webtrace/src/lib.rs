//! `webtrace` — trace formats, calibrated synthetic workload generators,
//! and analyzers for the *World Wide Web Cache Consistency* reproduction.
//!
//! The paper's decisive move (§4.2) was replacing Worrell's synthetic
//! workload with trace-driven one. The original Harvard, Microsoft, and
//! Boston University logs are long gone, so this crate generates synthetic
//! equivalents pinned to every statistic the paper publishes about them:
//!
//! * [`campus`]: DAS / FAS / HCS server traces matching Table 1 exactly
//!   (file counts, request counts, % remote, changes, mutability classes),
//!   with bimodal lifetimes and the Bestavros popularity↔mutability
//!   anticorrelation;
//! * [`microsoft`]: one weekday of proxy accesses with Table 2's type mix
//!   and sizes;
//! * [`bu`]: the 186-day Bestavros modification study behind Table 2's
//!   lifetime columns;
//! * [`analyze`]: the analyzers that recompute Tables 1 and 2 from any
//!   trace in these shapes;
//! * [`LogLine`]: the extended Common Log Format (request lines carrying
//!   `Last-Modified`) the paper's modified servers emitted, with full
//!   parse/serialise round-tripping, and [`ServerTrace`] reconstruction
//!   from log text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod bu;
pub mod campus;
pub mod microsoft;
mod record;
pub mod stream;
mod trace;
mod types;

pub use record::{write_log, LogLine, LogParseError};
pub use trace::{ServerTrace, TraceRequest};
pub use types::FileType;
