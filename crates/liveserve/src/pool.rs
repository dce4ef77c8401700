//! Bounded per-shard pools of persistent upstream connections.
//!
//! Every proxy shard owns one [`UpstreamPool`] to the origin's data
//! port. A request checks a connection out, runs its exchange, and
//! checks it back in; the next request on the shard reuses the warm
//! socket instead of dialling. The pool is bounded twice over — at most
//! `max_conns` live sockets, and at most `max_waiters` requests queued
//! for one — so a stalled origin surfaces as backpressure and then a
//! clean error, never unbounded growth (wcc-analyze r5).
//!
//! Locking: the pool mutex guards only the idle list and two counts.
//! Dialling happens strictly after the guard is dropped (r3), and a
//! failed dial releases the reserved slot so waiters are never stranded.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use simcore::SimTime;
use wcc_obs::{ObsEvent, ProbeHandle};
use wcc_sync::{RankedCondvar, RankedMutex};

use crate::netio::{HttpConn, POLL_TICK};

/// Rank of the pool mutex in the global lock order: above the proxy
/// shard state (which may call [`UpstreamPool::checkout`] helpers) and
/// below only the obs leaf locks, since checkout records probe events
/// while holding it.
// wcc-lock-rank: pool.inner 75
const POOL_RANK: u32 = 75;

/// The error payload behind a waiter-cap overflow, distinct from every
/// other pool failure so overload is attributable: a saturated pool
/// means the *proxy→origin path* is the bottleneck (all connections
/// busy, waiter queue full), not a slow origin or a dead socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSaturated {
    /// The shard whose pool refused the checkout.
    pub shard: u32,
    /// The waiter cap that was hit.
    pub max_waiters: usize,
}

impl std::fmt::Display for PoolSaturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "upstream pool saturated on shard {}: all connections busy and {} waiters queued",
            self.shard, self.max_waiters
        )
    }
}

impl std::error::Error for PoolSaturated {}

/// Whether `err` is a pool-saturation refusal (see [`PoolSaturated`]).
/// Callers use this to attribute open-loop overload: saturation drops
/// are counted separately from origin/socket errors.
pub fn is_pool_saturated(err: &io::Error) -> bool {
    err.get_ref().is_some_and(|e| e.is::<PoolSaturated>())
}

/// Pool state behind the mutex. `live` counts sockets that exist or are
/// being dialled (a reserved slot), so `idle.len() <= live <= max_conns`
/// always holds.
struct PoolInner {
    idle: Vec<HttpConn>,
    live: usize,
    waiters: usize,
}

/// A bounded pool of keep-alive [`HttpConn`]s to one upstream address.
pub struct UpstreamPool {
    addr: SocketAddr,
    shard: u32,
    max_conns: usize,
    max_waiters: usize,
    inner: RankedMutex<PoolInner>,
    available: RankedCondvar,
    dials: AtomicU64,
    reuses: AtomicU64,
    saturations: AtomicU64,
}

impl std::fmt::Debug for UpstreamPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpstreamPool")
            .field("addr", &self.addr)
            .field("shard", &self.shard)
            .field("max_conns", &self.max_conns)
            .finish()
    }
}

impl UpstreamPool {
    /// Requests queued beyond this per pool are refused outright rather
    /// than buffered without bound.
    pub const MAX_WAITERS: usize = 256;

    /// A pool of at most `max_conns` connections to `addr`, labelled
    /// with its shard index for observability.
    pub fn new(addr: SocketAddr, shard: u32, max_conns: usize) -> Self {
        UpstreamPool {
            addr,
            shard,
            max_conns: max_conns.max(1),
            max_waiters: Self::MAX_WAITERS,
            inner: RankedMutex::new(
                POOL_RANK,
                "pool.inner",
                PoolInner {
                    idle: Vec::new(),
                    live: 0,
                    waiters: 0,
                },
            ),
            available: RankedCondvar::new(),
            dials: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            saturations: AtomicU64::new(0),
        }
    }

    /// Check a connection out: reuse an idle one, dial if under the
    /// connection cap, otherwise wait (bounded) for a checkin.
    ///
    /// `now` stamps the observability events; `shutdown` bounds the wait.
    pub fn checkout(
        &self,
        now: SimTime,
        probe: &ProbeHandle,
        shutdown: &AtomicBool,
    ) -> io::Result<HttpConn> {
        let mut inner = self.inner.lock();
        if inner.was_contended() {
            probe.record(now, ObsEvent::LockContended { rank: POOL_RANK });
        }
        probe.record(
            now,
            ObsEvent::ShardQueue {
                shard: self.shard,
                depth: inner.waiters as u32,
            },
        );
        loop {
            if let Some(conn) = inner.idle.pop() {
                // Health-check outside the lock (r3): the origin may
                // have closed this keep-alive while it sat idle. A
                // stale connection is discarded here, transparently,
                // instead of surfacing as a request error mid-exchange.
                drop(inner);
                if conn.peer_gone() {
                    drop(conn);
                    self.release_slot();
                    inner = self.inner.lock();
                    continue;
                }
                self.reuses.fetch_add(1, Ordering::Relaxed);
                probe.record(now, ObsEvent::Upstream { reused: true });
                return Ok(conn);
            }
            if inner.live < self.max_conns {
                // Reserve the slot before dialling (lock released) so two
                // checkouts never race past the cap.
                inner.live += 1;
                break;
            }
            if inner.waiters >= self.max_waiters {
                self.saturations.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    PoolSaturated {
                        shard: self.shard,
                        max_waiters: self.max_waiters,
                    },
                ));
            }
            inner.waiters += 1;
            let (guard, _timed_out) = self.available.wait_timeout(inner, POLL_TICK);
            inner = guard;
            inner.waiters -= 1;
            if shutdown.load(Ordering::SeqCst) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "shutdown while waiting for an upstream connection",
                ));
            }
        }
        drop(inner);
        match TcpStream::connect(self.addr).and_then(HttpConn::new) {
            Ok(conn) => {
                self.dials.fetch_add(1, Ordering::Relaxed);
                probe.record(now, ObsEvent::Upstream { reused: false });
                Ok(conn)
            }
            Err(e) => {
                self.release_slot();
                Err(e)
            }
        }
    }

    /// Return a healthy connection for reuse.
    pub fn checkin(&self, conn: HttpConn) {
        let mut inner = self.inner.lock();
        // Bounded by `max_conns`: only checked-out connections come back.
        inner.idle.push(conn);
        // Notify while the guard is live (r7): a waiter between its
        // predicate check and its park can never miss this wakeup.
        self.available.notify_one(&inner);
    }

    /// Drop a connection that errored mid-exchange, freeing its slot for
    /// a fresh dial.
    pub fn discard(&self) {
        self.release_slot();
    }

    fn release_slot(&self) {
        let mut inner = self.inner.lock();
        inner.live = inner.live.saturating_sub(1);
        self.available.notify_one(&inner);
    }

    /// Connections dialled over the pool's lifetime.
    pub fn dials(&self) -> u64 {
        self.dials.load(Ordering::Relaxed)
    }

    /// Checkouts served by an idle pooled connection.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Checkouts refused because the waiter cap was already reached.
    pub fn saturations(&self) -> u64 {
        self.saturations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread;

    fn listener() -> (TcpListener, SocketAddr) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        (l, addr)
    }

    fn now() -> SimTime {
        SimTime::from_secs(0)
    }

    #[test]
    fn checkin_then_checkout_reuses_the_socket() {
        let (l, addr) = listener();
        let accepter = thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            s // keep the server end alive
        });
        let pool = UpstreamPool::new(addr, 0, 2);
        let probe = ProbeHandle::none();
        let shutdown = AtomicBool::new(false);
        let conn = pool.checkout(now(), &probe, &shutdown).unwrap();
        assert_eq!((pool.dials(), pool.reuses()), (1, 0));
        pool.checkin(conn);
        let _conn = pool.checkout(now(), &probe, &shutdown).unwrap();
        assert_eq!((pool.dials(), pool.reuses()), (1, 1));
        drop(accepter.join().unwrap());
    }

    #[test]
    fn cap_blocks_until_checkin_and_shutdown_unblocks() {
        let (l, addr) = listener();
        let accepter = thread::spawn(move || {
            let (a, _) = l.accept().unwrap();
            (a, l)
        });
        let pool = Arc::new(UpstreamPool::new(addr, 0, 1));
        let probe = ProbeHandle::none();
        let shutdown = Arc::new(AtomicBool::new(false));
        let held = pool.checkout(now(), &probe, &shutdown).unwrap();
        let keep_alive = accepter.join().unwrap();

        // A second checkout must wait; returning the held connection
        // hands it over.
        let waiter = {
            let (pool, shutdown) = (Arc::clone(&pool), Arc::clone(&shutdown));
            thread::spawn(move || pool.checkout(now(), &ProbeHandle::none(), &shutdown))
        };
        thread::sleep(POLL_TICK * 2);
        pool.checkin(held);
        let got = waiter.join().unwrap().unwrap();
        assert_eq!(pool.reuses(), 1);

        // With the connection checked out again, shutdown unblocks a
        // fresh waiter with a clean error.
        let waiter = {
            let (pool, shutdown) = (Arc::clone(&pool), Arc::clone(&shutdown));
            thread::spawn(move || pool.checkout(now(), &ProbeHandle::none(), &shutdown))
        };
        thread::sleep(POLL_TICK * 2);
        shutdown.store(true, Ordering::SeqCst);
        let err = waiter.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        drop(got);
        drop(keep_alive);
    }

    #[test]
    fn stale_idle_connection_is_discarded_not_an_error() {
        let (l, addr) = listener();
        let pool = UpstreamPool::new(addr, 0, 2);
        let probe = ProbeHandle::none();
        let shutdown = AtomicBool::new(false);
        // The origin accepts our dial, then closes its end while the
        // connection sits idle in the pool (keep-alive timeout, restart,
        // ...); it keeps listening for the redial.
        let server = thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            drop(s); // origin-side EOF
            l
        });
        let conn = pool.checkout(now(), &probe, &shutdown).unwrap();
        let l = server.join().unwrap();
        pool.checkin(conn);
        // Let the FIN land before the health check probes.
        thread::sleep(POLL_TICK);
        let accepter = thread::spawn(move || l.accept().map(|(s, _)| s));
        let fresh = pool
            .checkout(now(), &probe, &shutdown)
            .expect("stale idle conn must be discarded, not surfaced");
        // The checkout transparently redialled: no reuse of the corpse.
        assert_eq!((pool.dials(), pool.reuses()), (2, 0));
        drop(fresh);
        let _ = accepter.join().unwrap();
    }

    #[test]
    fn waiter_cap_overflow_is_a_distinct_counted_error() {
        let (l, addr) = listener();
        let accepter = thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            (s, l)
        });
        let mut pool = UpstreamPool::new(addr, 7, 1);
        pool.max_waiters = 0; // every queued checkout overflows immediately
        let probe = ProbeHandle::none();
        let shutdown = AtomicBool::new(false);
        let held = pool.checkout(now(), &probe, &shutdown).unwrap();
        let keep_alive = accepter.join().unwrap();
        let err = pool.checkout(now(), &probe, &shutdown).unwrap_err();
        assert!(is_pool_saturated(&err), "{err}");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(err.to_string().contains("shard 7"));
        assert_eq!(pool.saturations(), 1);
        // Other failures are not classified as saturation.
        let plain = io::Error::new(io::ErrorKind::WouldBlock, "queue full");
        assert!(!is_pool_saturated(&plain));
        drop(held);
        drop(keep_alive);
    }

    /// The intended global order (DESIGN.md §14): proxy shard state
    /// (60) → pool.inner (75) → obs.probe (95). Acquiring the pool
    /// mutex while an obs-rank lock is held is an inversion, and the
    /// debug rank checker must turn that latent deadlock into a panic
    /// at the first inverted acquisition.
    #[cfg(debug_assertions)]
    #[test]
    fn checkout_under_higher_rank_lock_panics_in_debug() {
        let (_l, addr) = listener();
        let result = thread::spawn(move || {
            let pool = UpstreamPool::new(addr, 0, 1);
            let obs_leaf = wcc_sync::RankedMutex::new(95, "obs.probe", ());
            let _held = obs_leaf.lock();
            // checkout's first action is taking pool.inner (rank 75):
            // 75 while holding 95 violates the strict ascent.
            let _ = pool.checkout(now(), &ProbeHandle::none(), &AtomicBool::new(false));
        })
        .join();
        let err = result.expect_err("inverted acquisition must panic in debug builds");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock rank inversion"), "got: {msg}");
        assert!(msg.contains("pool.inner") && msg.contains("obs.probe"));
    }

    #[test]
    fn failed_dial_releases_the_reserved_slot() {
        let (l, addr) = listener();
        drop(l); // nobody listening: dials fail
        let pool = UpstreamPool::new(addr, 0, 1);
        let probe = ProbeHandle::none();
        let shutdown = AtomicBool::new(false);
        for _ in 0..3 {
            // Each failure must free the slot, or the third attempt
            // would block on the cap instead of erroring.
            assert!(pool.checkout(now(), &probe, &shutdown).is_err());
        }
        assert_eq!(pool.dials(), 0);
    }
}
