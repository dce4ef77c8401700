//! `wwwcache` — facade crate for the *World Wide Web Cache Consistency*
//! reproduction (Gwertzman & Seltzer, USENIX 1996).
//!
//! Re-exports the whole workspace so downstream users (and the examples
//! under `examples/`) can depend on one crate:
//!
//! * [`webcache`] — simulators and experiments (the paper's contribution);
//! * [`consistency`] — the TTL / Alex / invalidation / CERN / self-tuning
//!   policies;
//! * [`webtrace`] — trace formats, calibrated generators, analyzers;
//! * [`proxycache`], [`originserver`] — the cache and server substrates;
//! * [`liveserve`] — the real-TCP origin and proxy (driven by `wcc-load`);
//! * [`httpsim`] — the HTTP/1.0 message model;
//! * [`simcore`], [`simstats`] — the simulation and statistics substrates;
//! * [`wcc_obs`] — probes, metrics, trace capture, and the profiler.
//!
//! # Quickstart
//!
//! ```
//! use wwwcache::webcache::{generate_synthetic, Experiment, ProtocolSpec, WorrellConfig};
//! use wwwcache::wcc_obs::TraceProbe;
//!
//! let workload = generate_synthetic(&WorrellConfig::scaled(50, 2_000), 42);
//! let mut trace = TraceProbe::new(1 << 12);
//! let result = Experiment::new(&workload)
//!     .protocol(ProtocolSpec::Alex(10))
//!     .probe(&mut trace)
//!     .run()
//!     .result;
//! assert!(result.stale_pct() < 100.0);
//! assert!(trace.recorded() > 0);
//! println!("Alex@10%: {:.2} MB, {:.2}% stale", result.total_mb(), result.stale_pct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use consistency;
pub use httpsim;
pub use liveserve;
pub use originserver;
pub use proxycache;
pub use simcore;
pub use simstats;
pub use wcc_obs;
pub use webcache;
pub use webtrace;
