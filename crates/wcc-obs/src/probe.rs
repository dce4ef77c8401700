//! The [`Probe`] trait, its event taxonomy, and the thread-safe
//! [`ProbeHandle`] the live stack records through.

use std::sync::Arc;

use simcore::{FileId, SimDuration, SimTime};
use wcc_sync::RankedMutex;

use crate::trace::TraceProbe;

/// How one client request was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served locally; the copy matched the origin's live version.
    FreshHit,
    /// Served locally but out of date; `age` is how far behind the
    /// served copy was (time since the first missed modification).
    StaleHit {
        /// Staleness severity of the served copy.
        age: SimDuration,
    },
    /// Fetched in full from the origin (compulsory miss, known-stale
    /// refetch, or eviction casualty).
    Miss,
    /// Revalidated with the origin (`304 Not Modified`) and served
    /// locally.
    ValidatedFresh,
    /// Revalidated with the origin, which returned a newer version
    /// (`200` on a conditional request).
    ValidatedStale,
    /// Forwarded without caching (uncacheable document class).
    Uncacheable,
}

/// Which origin-side operation a [`ObsEvent::ServerOp`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerOpKind {
    /// A full document request (unconditional `GET`).
    DocumentRequest,
    /// A validation query (conditional `GET`).
    ValidationQuery,
    /// An invalidation notice pushed to a subscribed cache.
    InvalidationSent,
    /// One `InvalidationSent` taken back: the cache answered that it no
    /// longer held the file. The origin's count is sent minus retracted.
    InvalidationRetracted,
}

/// One structured observability event. Every variant carries only
/// values the instrumented code had already computed — emitting an
/// event can never perturb the run that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A client request was decided (see [`RequestOutcome`]).
    Request {
        /// The requested file.
        file: FileId,
        /// How it was served.
        outcome: RequestOutcome,
    },
    /// A cache↔origin validation exchange completed.
    Validation {
        /// The validated file.
        file: FileId,
        /// Whether the origin copy had changed.
        modified: bool,
    },
    /// The origin published an invalidation for a modified file.
    Invalidation {
        /// The modified file.
        file: FileId,
        /// How many subscribed caches were notified.
        fanout: u32,
    },
    /// A bounded store evicted a resident entry.
    Eviction {
        /// The evicted file.
        file: FileId,
    },
    /// A scripted modification took effect at the origin.
    Modification {
        /// The modified file.
        file: FileId,
    },
    /// The origin server performed one accountable operation.
    ServerOp {
        /// Which operation.
        kind: ServerOpKind,
    },
    /// A consistency policy answered a freshness question.
    PolicyDecision {
        /// The file the decision was about.
        file: FileId,
        /// The policy's verdict.
        fresh: bool,
    },
    /// The simulator's replay loop handled one event of the workload's
    /// schedule; `pending` is the events of the schedule still to replay.
    Dispatched {
        /// Events still to replay.
        pending: u32,
    },
    /// One live-path request completed, as observed by a load-generator
    /// client.
    LiveLatency {
        /// Client-observed service time in microseconds.
        micros: u64,
    },
    /// A proxy shard's upstream pool was asked for a connection;
    /// `depth` is how many requests were queued waiting for one.
    ShardQueue {
        /// Which proxy shard.
        shard: u32,
        /// Waiters queued on the shard's upstream pool at checkout.
        depth: u32,
    },
    /// One upstream connection checkout completed.
    Upstream {
        /// Whether an idle pooled connection was reused (`false` means
        /// a fresh dial).
        reused: bool,
    },
    /// A reactor accepted one client connection.
    ConnAccepted {
        /// Which reactor thread now owns the connection.
        reactor: u32,
        /// Connections open across the whole reactor (all threads)
        /// after this accept.
        open: u32,
    },
    /// A reactor closed one of its connections.
    ConnClosed {
        /// The reactor thread that owned the connection.
        reactor: u32,
        /// Why it was closed.
        reason: ConnCloseReason,
    },
    /// A reactor drained a burst of pending accepts; `depth` is how
    /// many connections were waiting in that burst (a proxy for the
    /// kernel accept-backlog depth).
    AcceptBacklog {
        /// The reactor thread that drained the burst.
        reactor: u32,
        /// Accepts drained in one readiness notification.
        depth: u32,
    },
    /// The open-loop generator fired one scheduled arrival into the
    /// pending queue; `depth` is the queue depth after the enqueue (how
    /// far the system is behind the arrival schedule).
    OpenLoopArrival {
        /// Pending requests queued after this arrival.
        depth: u32,
    },
    /// The open-loop generator shed one scheduled request instead of
    /// serving it.
    OpenLoopShed {
        /// Why the request was dropped.
        reason: ShedReason,
    },
    /// One open-loop request left the pending queue; `micros` is how
    /// long it waited between its scheduled arrival and a worker
    /// picking it up (the queueing-delay component of sojourn time).
    OpenLoopQueueDelay {
        /// Queue delay in microseconds.
        micros: u64,
    },
    /// A ranked lock acquisition found the lock already held and had to
    /// wait (see `wcc-sync`); `rank` identifies the lock in the global
    /// rank table (DESIGN.md §12).
    LockContended {
        /// Rank of the contended lock.
        rank: u32,
    },
}

/// Why the open-loop generator dropped a scheduled request (see
/// [`ObsEvent::OpenLoopShed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded pending queue was full at arrival time — the system
    /// has fallen behind the offered load.
    QueueFull,
    /// The request waited in the queue longer than the queue-delay
    /// budget and was abandoned at dequeue.
    Timeout,
}

impl ShedReason {
    /// Stable lowercase label used in metric names and trace output.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Timeout => "timeout",
        }
    }
}

/// Why a reactor closed a connection (see [`ObsEvent::ConnClosed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnCloseReason {
    /// The peer shut its end down cleanly.
    PeerClosed,
    /// An IO error or a malformed frame.
    Error,
    /// The per-connection read budget (slow-loris bound) expired
    /// mid-frame or mid-response.
    BudgetExhausted,
    /// The reactor was at its connection cap; the accept was shed.
    AtCapacity,
    /// The server is shutting down.
    Shutdown,
}

impl ConnCloseReason {
    /// Stable lowercase label used in metric names and trace output.
    pub fn label(self) -> &'static str {
        match self {
            ConnCloseReason::PeerClosed => "peer_closed",
            ConnCloseReason::Error => "error",
            ConnCloseReason::BudgetExhausted => "budget_exhausted",
            ConnCloseReason::AtCapacity => "at_capacity",
            ConnCloseReason::Shutdown => "shutdown",
        }
    }
}

/// The observability seam. Implementations receive sim-time-stamped
/// events; they must not (and structurally cannot) feed anything back
/// into the emitting simulation.
pub trait Probe {
    /// Record one event observed at virtual instant `at`.
    fn record(&mut self, at: SimTime, event: ObsEvent);
}

/// The do-nothing probe — the default everywhere, and the one the
/// golden-hash determinism tests attach to prove instrumentation is
/// free.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    #[inline]
    fn record(&mut self, _at: SimTime, _event: ObsEvent) {}
}

/// Rank of the probe mutex: the leaf of the whole lock order, so
/// `record` stays callable from under any other lock.
// wcc-lock-rank: obs.probe 95
const PROBE_RANK: u32 = 95;

#[derive(Clone)]
enum Inner {
    /// A caller-supplied probe shared across threads.
    Custom(Arc<RankedMutex<Box<dyn Probe + Send>>>),
    /// A crate-owned bounded trace buffer that can be drained after the
    /// run (lets non-`Send` probes observe live runs via replay).
    Buffer(Arc<RankedMutex<TraceProbe>>),
}

/// A cloneable, thread-safe handle the live stack's origin, proxy, and
/// load-generator threads record through. An inactive handle
/// ([`ProbeHandle::none`]) costs one branch per event.
///
/// The internal mutex is a leaf lock: [`ProbeHandle::record`] does no
/// IO and takes no other lock, so it is safe to call while holding a
/// state lock (the proxy does exactly that).
#[derive(Clone, Default)]
pub struct ProbeHandle {
    inner: Option<Inner>,
}

impl std::fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeHandle")
            .field("active", &self.is_active())
            .finish()
    }
}

impl ProbeHandle {
    /// An inactive handle; every [`ProbeHandle::record`] is a no-op.
    pub fn none() -> Self {
        ProbeHandle { inner: None }
    }

    /// Wrap a caller-supplied thread-safe probe.
    pub fn new(probe: Box<dyn Probe + Send>) -> Self {
        ProbeHandle {
            inner: Some(Inner::Custom(Arc::new(RankedMutex::new(
                PROBE_RANK,
                "obs.probe",
                probe,
            )))),
        }
    }

    /// A handle backed by a bounded [`TraceProbe`] ring; drain the
    /// captured events afterwards with [`ProbeHandle::drain_into`].
    pub fn buffered(capacity: usize) -> Self {
        ProbeHandle {
            inner: Some(Inner::Buffer(Arc::new(RankedMutex::new(
                PROBE_RANK,
                "obs.probe",
                TraceProbe::new(capacity),
            )))),
        }
    }

    /// Whether records go anywhere.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event (no-op when inactive). Poisoning is recovered
    /// inside [`RankedMutex::lock`]: a panicked recorder thread never
    /// takes observability down.
    pub fn record(&self, at: SimTime, event: ObsEvent) {
        match &self.inner {
            None => {}
            Some(Inner::Custom(probe)) => probe.lock().record(at, event),
            Some(Inner::Buffer(probe)) => probe.lock().record(at, event),
        }
    }

    /// Run `f` against the underlying trace buffer, if this handle is a
    /// buffered one. Returns `None` for inactive or custom handles.
    pub fn with_buffer<R>(&self, f: impl FnOnce(&mut TraceProbe) -> R) -> Option<R> {
        match &self.inner {
            Some(Inner::Buffer(probe)) => Some(f(&mut probe.lock())),
            _ => None,
        }
    }

    /// Replay every buffered event into `sink` (timestamps preserved,
    /// buffer cleared). Only buffered handles hold events; for inactive
    /// or custom handles this is a no-op.
    pub fn drain_into(&self, sink: &mut dyn Probe) {
        if let Some(Inner::Buffer(probe)) = &self.inner {
            let mut buf = probe.lock();
            buf.replay(sink);
            buf.clear();
        }
    }
}

/// Lets code written against `&mut dyn Probe` record through a shared
/// handle (`&mut &handle`) without cloning it.
impl Probe for &ProbeHandle {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
        ProbeHandle::record(self, at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[derive(Default)]
    struct CountingProbe(u64);
    impl Probe for CountingProbe {
        fn record(&mut self, _at: SimTime, _event: ObsEvent) {
            self.0 += 1;
        }
    }

    #[test]
    fn inactive_handle_drops_events() {
        let h = ProbeHandle::none();
        assert!(!h.is_active());
        h.record(t(1), ObsEvent::Eviction { file: FileId(0) });
        let mut sink = CountingProbe::default();
        h.drain_into(&mut sink);
        assert_eq!(sink.0, 0);
    }

    #[test]
    fn buffered_handle_replays_with_timestamps() {
        let h = ProbeHandle::buffered(16);
        h.record(t(5), ObsEvent::Modification { file: FileId(2) });
        h.record(
            t(9),
            ObsEvent::Request {
                file: FileId(2),
                outcome: RequestOutcome::Miss,
            },
        );
        let mut sink = TraceProbe::new(16);
        h.drain_into(&mut sink);
        let events: Vec<_> = sink.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].1, t(5));
        assert_eq!(events[1].1, t(9));
        // Drained: a second drain delivers nothing.
        let mut again = CountingProbe::default();
        h.drain_into(&mut again);
        assert_eq!(again.0, 0);
    }

    #[test]
    fn custom_handle_forwards_across_clones() {
        let h = ProbeHandle::new(Box::new(CountingProbe::default()));
        let h2 = h.clone();
        h.record(t(1), ObsEvent::Dispatched { pending: 3 });
        h2.record(t(2), ObsEvent::Dispatched { pending: 2 });
        assert!(h.is_active());
        assert!(h.with_buffer(|_| ()).is_none());
    }
}
