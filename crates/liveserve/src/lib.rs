//! `liveserve` — the consistency protocols on real sockets.
//!
//! The simulators in `webcache` evaluate the paper's three consistency
//! mechanisms analytically; this crate runs them over actual TCP on
//! loopback or a LAN, with real HTTP/1.0 wire bytes, real concurrency,
//! and real connection management:
//!
//! * [`LiveOrigin`] — an origin server backed by an
//!   `originserver::FilePopulation`. Serves bodies, answers
//!   `If-Modified-Since` with `304 Not Modified`, stamps
//!   `Last-Modified`/`Expires`, and pushes invalidation notices to
//!   subscribed proxies over persistent control connections.
//! * [`LiveProxy`] — a caching proxy fronting the origin. Each request
//!   is decided by the `consistency::Engine` the simulators drive, so a
//!   single-threaded run is counter-for-counter equivalent to
//!   `webcache::run` (the differential test in the workspace root pins
//!   this). Cache state is sharded by [`shard_for`]: each shard owns its
//!   own mutex and engine, and has its own bounded set of keep-alive
//!   origin connections and its own invalidation control connection,
//!   and concurrent misses for one file coalesce into a single upstream
//!   fetch. One shard degenerates to the classic single-lock topology,
//!   so the differential guarantee is untouched.
//! * [`LiveStack`] — the two on loopback sharing one virtual clock,
//!   described by a [`StackSpec`] and a [`LiveRunConfig`]; `shutdown`
//!   returns the [`StackCounters`] every load report embeds. The load
//!   drivers themselves (closed-loop, open-loop, trace replay) live in
//!   `wcc-load`, the connection soak among them;
//!   [`HttpConn::get_ok`] is the one client exchange they share.
//!
//! The whole of the origin and of the proxy — client sockets, origin
//! connections, both ends of the control channels — runs on a
//! hand-rolled nonblocking epoll reactor (`--reactor-threads` event
//! loops, each owning an epoll instance, a slab of per-connection state
//! machines and the upstream sockets of the shards assigned to it; the
//! origin's first also its control port), and no reactor thread ever
//! blocks: one process sustains 10k+ concurrently open connections, and
//! a request waiting on the origin is a continuation parked on a socket,
//! not a thread. Only the client side ([`HttpConn`]: load drivers, tests,
//! the benchmark) is blocking `std::net` (the build environment has no
//! async runtime, and none is needed). See `DESIGN.md` §8.

// `deny`, not `forbid`: the single `sys` module scopes an `allow` for
// the raw epoll/eventfd syscall declarations (the vendored-only policy
// rules out a `libc` dependency). Every other module stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod conn;
mod control;
mod netio;
mod origin;
mod proxy;
mod reactor;
pub mod report;
mod stack;
mod sys;
mod upstream;

pub use clock::LiveClock;
pub use netio::HttpConn;
pub use origin::{LiveOrigin, OriginConfig, DEFAULT_MAX_CONNS};
pub use proxy::{
    shard_for, DelaySource, LivePolicy, LiveProxy, ProxyConfig, ProxySnapshot, StoreKind,
};
pub use stack::{LiveRunConfig, LiveStack, LiveWorkload, StackCounters, StackSpec};
// Re-exported so callers can hand a probe to the configs above without
// naming `wcc-obs` themselves.
pub use wcc_obs::ProbeHandle;
