//! `liveserve` — the consistency protocols on real sockets.
//!
//! The simulators in `webcache` evaluate the paper's three consistency
//! mechanisms analytically; this crate runs them over actual TCP on
//! loopback or a LAN, with real HTTP/1.0 wire bytes, real concurrency,
//! and real connection management:
//!
//! * [`LiveOrigin`] — a multi-threaded origin server backed by an
//!   `originserver::FilePopulation`. Serves bodies, answers
//!   `If-Modified-Since` with `304 Not Modified`, stamps
//!   `Last-Modified`/`Expires`, and pushes invalidation notices to
//!   subscribed proxies over persistent control connections.
//! * [`LiveProxy`] — a caching proxy fronting the origin. Each request
//!   is decided by the `consistency::Engine` the simulators drive, so a
//!   single-threaded run is counter-for-counter equivalent to
//!   `webcache::run` (the differential test in the workspace root pins
//!   this). Cache state is sharded by [`shard_for`]: each shard owns its
//!   own mutex, engine, bounded keep-alive [`UpstreamPool`], and invalidation
//!   control connection, and concurrent misses for one file coalesce
//!   into a single upstream fetch. One shard degenerates to the classic
//!   single-lock topology, so the differential guarantee is untouched.
//! * [`LiveStack`] — the two on loopback sharing one virtual clock,
//!   described by a [`StackSpec`] and a [`LiveRunConfig`]; `shutdown`
//!   returns the [`StackCounters`] every load report embeds. The load
//!   drivers themselves (closed-loop, open-loop, trace replay) live in
//!   `wcc-load`; [`HttpConn::get_ok`] is the one client exchange they
//!   and the connection soak ([`run_soak`]) share.
//!
//! The origin and proxy **data paths** run on a hand-rolled nonblocking
//! epoll reactor (`--reactor-threads` event loops, each owning an epoll
//! instance and a slab of per-connection state machines), so one process
//! sustains 10k+ concurrently open connections; control channels and
//! client connections stay blocking `std::net` threads (the build
//! environment has no async runtime, and none is needed). See
//! `DESIGN.md` §8 for the thread model and §12 for the reactor.

// `deny`, not `forbid`: the single `sys` module scopes an `allow` for
// the raw epoll/eventfd syscall declarations (the vendored-only policy
// rules out a `libc` dependency). Every other module stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod conn;
mod control;
mod loadgen;
mod netio;
mod origin;
mod pool;
mod proxy;
mod reactor;
pub mod report;
mod soak;
mod sys;

pub use clock::LiveClock;
pub use loadgen::{LiveRunConfig, LiveStack, LiveWorkload, StackCounters, StackSpec};
pub use netio::HttpConn;
pub use origin::{LiveOrigin, OriginConfig};
pub use pool::{is_pool_saturated, PoolSaturated, UpstreamPool};
pub use proxy::{
    shard_for, DelaySource, LivePolicy, LiveProxy, ProxyConfig, ProxySnapshot, StoreKind,
};
pub use soak::{run_soak, soak_worker, SoakConfig, SoakReport};
// Re-exported so callers can hand a probe to the configs above without
// naming `wcc-obs` themselves.
pub use wcc_obs::ProbeHandle;
