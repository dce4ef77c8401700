//! The live caching proxy.
//!
//! [`LiveProxy`] fronts a [`LiveOrigin`](crate::LiveOrigin) (or any
//! server speaking the same HTTP/1.0 subset): clients connect to its
//! data port, and each request is served from the in-memory cache or
//! fetched/revalidated upstream over a pooled persistent origin
//! connection. What the cache does with a request is decided by the
//! same [`consistency::Engine`] the simulator drives (over an
//! [`AnyStore`], conditional retrieval), so a single-threaded replay
//! produces identical counters; this module is the engine's live
//! transport, and what only a live cache has: bodies, single-flight,
//! the names table, the control channel, the upstream pool.
//!
//! **Sharding.** Cache state is split into `shards` independent
//! [`Shard`]s, routed by [`shard_for`] (`FileId` index modulo the shard
//! count). Each shard owns its own mutex, its own store and policy
//! instance, its own bounded [`UpstreamPool`] of keep-alive origin
//! connections, and — under the invalidation mechanism — its own
//! persistent control connection, so the proxy scales with cores
//! instead of serializing on one global lock and one origin socket.
//! Requests for different files on different shards never contend; the
//! run's totals are the merge of the per-shard counters. With one shard
//! the topology degenerates to exactly the pre-sharding proxy, which is
//! what keeps the single-threaded differential test counter-exact.
//!
//! **Single-flight.** Concurrent misses for the same file coalesce: the
//! first request registers the file as in flight and fetches; followers
//! wait on the shard's condvar and are decided once the fetch concludes,
//! finding the freshly inserted copy. One cold file under a thundering
//! herd costs one
//! upstream fetch, and the delayed-hit window is first-class instead of
//! N duplicate transfers.
//!
//! Under the invalidation policy each shard keeps one persistent
//! control connection to the origin: it subscribes before inserting an
//! entry (exactly where the simulator calls `subscribe`), unsubscribes
//! evicted victims, and a dedicated reader thread applies `INVALIDATE`
//! notices (marking resident entries invalid) before acknowledging.
//! A file's subscriptions always travel over its owning shard's
//! channel, so subscribe-before-insert and victim-unsubscribe ordering
//! are preserved per shard.
//!
//! **Two phases, decided once.** Every request is decided in
//! [`ProxyShared::begin`], on the reactor thread that framed it, under
//! the shard lock: resolve, hand the request to the engine (the one
//! store touch, the one policy decision, the classification), and
//! register a single-flight fetch if this request is to lead one. A
//! fresh hit is answered right there. What
//! needs the origin — a miss, a validation, an uncacheable forward, a
//! wait on another request's fetch — travels to a dispatch worker as a
//! [`Deferred`] carrying the decision and the `now`/`file`/`class` it
//! was taken with, and [`ProxyShared::finish`] carries it out without
//! deciding again, so probe events and counters happen exactly once.
//!
//! Locking: a shard's mutex guards that shard's state (engine + bodies)
//! and is only ever held for in-memory work — which is what lets the
//! reactor thread take it. Workers take the decided entry, talk to the
//! origin with the lock released, then re-lock to apply the reply.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

use consistency::{Effect, Engine, LinkModel, Reply, RetrievalMode};
use httpsim::{Request, Response, Status};
use originserver::FilePopulation;
use proxycache::{AnyStore, EntryMeta};
use simcore::{CacheStats, FileId, SimDuration, SimTime, TrafficMeter};
use wcc_obs::{ObsEvent, ProbeHandle};
use wcc_sync::{RankedCondvar, RankedGuard, RankedMutex};

use crate::clock::{sim_instant, wall_date, LiveClock};
use crate::control::{write_msg, ControlMsg, LineConn};
use crate::netio::{log_conn_error, HttpConn, DEFAULT_READ_BUDGET_TICKS, POLL_TICK};
use crate::pool::UpstreamPool;
use crate::reactor::{Dispatch, Reactor, ReactorConfig, Step};

/// Keep-alive origin connections per shard. Misses and validations are
/// a minority of requests once the cache warms, so a few pooled sockets
/// per shard absorb them without the one-conn-per-client sprawl.
const UPSTREAM_CONNS_PER_SHARD: usize = 4;

/// Rank of the dynamic path⇄id table: taken before any shard state lock
/// (`resolve` runs at request entry — on the reactor thread — with
/// nothing else held).
// wcc-lock-rank: proxy.dynamic_names 55
const DYNAMIC_NAMES_RANK: u32 = 55;

/// Rank of a shard's cache-state mutex. Below the upstream pool (75) —
/// never hold state across a checkout — and below the probe leaf (95).
/// Reactor threads take it in `begin` with nothing else held.
// wcc-lock-rank: proxy.state 60
const STATE_RANK: u32 = 60;

/// Rank of a shard's control-channel writer. Above state: the control
/// reader applies an invalidation under the state lock, drops it, then
/// takes the writer to ACK.
// wcc-lock-rank: proxy.control.writer 65
const CONTROL_WRITER_RANK: u32 = 65;

/// Rank of a shard's `OK` receiver; taken after the writer in
/// `control_roundtrip`, never with state held.
// wcc-lock-rank: proxy.control.ok_rx 70
const CONTROL_OK_RANK: u32 = 70;

/// The shard owning `file`: a pure function of the id and the shard
/// count, so every thread (request workers, control readers) routes a
/// file to the same state without coordination.
pub fn shard_for(file: FileId, shards: usize) -> usize {
    file.index() % shards.max(1)
}

/// The consistency mechanism a proxy runs: the simulator's own
/// [`ProtocolSpec`](consistency::ProtocolSpec). Each shard builds its
/// own policy instance from it: the stateless mechanisms cannot tell,
/// and the learning ones (self-tuning, delay-aware) learn from their own
/// shard's exchanges — exact at one shard, the differential
/// configuration, and shard-local beyond that.
pub use consistency::ProtocolSpec as LivePolicy;

/// How the proxy prices the `delay` of an upstream exchange, which the
/// engine hands on to delay-aware policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelaySource {
    /// Price every exchange with a deterministic [`LinkModel`], exactly
    /// as the simulator does — the differential-test configuration, and
    /// the default.
    Modeled(LinkModel),
}

impl Default for DelaySource {
    fn default() -> Self {
        DelaySource::Modeled(LinkModel::default())
    }
}

pub use proxycache::StoreKind;

/// Configuration for [`LiveProxy::spawn`].
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// The origin's HTTP data address.
    pub origin_data: SocketAddr,
    /// The origin's invalidation control address (dialled only when the
    /// policy uses invalidation).
    pub origin_control: SocketAddr,
    /// Consistency mechanism.
    pub policy: LivePolicy,
    /// Cache store.
    pub store: StoreKind,
    /// Cache shards (0 is treated as 1). Each shard gets its own lock,
    /// store, upstream pool, and control connection.
    pub shards: usize,
    /// The clock freshness decisions are made against.
    pub clock: LiveClock,
    /// When present, the origin's scripted population: ids/paths are
    /// prefilled from it and local hits are classified fresh-vs-stale
    /// against it (the simulator's omniscient-observer measurement).
    /// Without it every local hit counts as fresh.
    pub ground_truth: Option<Arc<FilePopulation>>,
    /// Per-file document class, indexed by [`FileId`] (empty ⇒ class 0).
    pub classes: Vec<usize>,
    /// Uncacheable-class bitmask, as in `SimConfig`.
    pub uncacheable_mask: u32,
    /// How fetch/validation delay is priced for delay-aware policies.
    pub delay: DelaySource,
    /// Bind address for the client-facing listener.
    pub bind: String,
    /// Observation hook for request decisions, validations, and
    /// evictions. Inactive by default; recording happens in memory only
    /// (never across socket IO).
    pub probe: ProbeHandle,
    /// Reactor (event-loop) threads serving the client listener.
    pub reactor_threads: usize,
    /// Concurrent client-connection cap; accepts beyond it are shed.
    pub max_conns: usize,
}

impl ProxyConfig {
    /// A loopback proxy in front of the given origin addresses.
    pub fn new(
        origin_data: SocketAddr,
        origin_control: SocketAddr,
        policy: LivePolicy,
        clock: LiveClock,
    ) -> Self {
        ProxyConfig {
            origin_data,
            origin_control,
            policy,
            store: StoreKind::Unbounded,
            shards: 1,
            clock,
            ground_truth: None,
            classes: Vec::new(),
            uncacheable_mask: 0,
            delay: DelaySource::default(),
            bind: "127.0.0.1:0".to_string(),
            probe: ProbeHandle::none(),
            reactor_threads: 1,
            max_conns: crate::origin::DEFAULT_MAX_CONNS,
        }
    }
}

/// Dispatch worker count. The workers carry out what a request's
/// decision deferred — upstream IO, single-flight waits; the decision
/// itself, and the whole of a fresh hit, runs on the reactor thread. A
/// handful of them keeps the reactor threads free to move bytes and
/// answer hits.
pub(crate) const DEFAULT_DISPATCH_THREADS: usize = 4;

/// The counters a run accumulates, frozen at shutdown. For a sharded
/// proxy this is the merge of every shard's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProxySnapshot {
    /// Hit/miss/validation classification (same type the simulator
    /// reports).
    pub cache: CacheStats,
    /// Proxy↔origin traffic. `message_bytes` counts real wire bytes
    /// (the simulator's `PaperConstant` costing charges 43 per message
    /// instead); message and file-transfer *counts* match the simulator.
    pub traffic: TrafficMeter,
    /// Total staleness-severity across stale hits.
    pub stale_age_total: SimDuration,
    /// `INVALIDATE` notices received and acknowledged.
    pub invalidations_delivered: u64,
    /// Entries evicted by a bounded store.
    pub evictions: u64,
    /// Upstream connections dialled across all shard pools.
    pub upstream_dials: u64,
    /// Upstream checkouts served by a pooled keep-alive connection.
    pub upstream_reuses: u64,
    /// Upstream checkouts refused because a shard pool's waiter cap was
    /// reached (a `PoolSaturated` error) — the signature of
    /// proxy→origin saturation under open-loop overload.
    pub upstream_saturations: u64,
}

/// Everything one shard's mutex guards.
struct CacheState {
    engine: Engine<AnyStore>,
    /// The entity bytes of exactly the entries resident in the engine's
    /// store: the two change together, under this lock.
    bodies: HashMap<FileId, Arc<Vec<u8>>>,
    /// Files with a single-flight upstream fetch in progress; requests
    /// for these wait on the shard condvar and are decided afterwards.
    in_flight: HashSet<FileId>,
    invalidations_delivered: u64,
}

/// One cache shard: its state lock, the condvar miss-coalescing waits
/// on, its upstream pool, and (under invalidation) its control channel.
struct Shard {
    state: RankedMutex<CacheState>,
    /// Signalled whenever `in_flight` shrinks.
    flights: RankedCondvar,
    pool: UpstreamPool,
    control: Option<ControlHandle>,
}

/// Path ⇄ id mapping. Ground-truth paths are prefilled into an
/// immutable table read without any lock (the hot path); paths first
/// seen on the wire get ids past the prefilled range, behind a mutex.
#[derive(Default)]
struct Names {
    by_path: HashMap<String, FileId>,
    paths: Vec<String>,
}

/// A shard's half of its control channel: commands go out through the
/// shared writer; the reader thread forwards `OK`s to whichever
/// subscriber is waiting.
struct ControlHandle {
    writer: RankedMutex<TcpStream>,
    ok_rx: RankedMutex<mpsc::Receiver<()>>,
}

struct ProxyShared {
    shards: Vec<Shard>,
    static_names: Names,
    dynamic_names: RankedMutex<Names>,
    classes: Vec<usize>,
    /// Prices every upstream exchange, exactly as the simulator does.
    link: LinkModel,
    uses_invalidation: bool,
    ground_truth: Option<Arc<FilePopulation>>,
    clock: LiveClock,
    probe: ProbeHandle,
    shutdown: AtomicBool,
}

/// What a client asked for, and the instant its decision is taken at.
#[derive(Clone, Copy)]
struct Asked {
    file: FileId,
    class: usize,
    now: SimTime,
}

/// A request `begin` could not answer, with its decision taken and
/// everything that decision was taken with.
struct Deferred {
    asked: Asked,
    path: String,
    work: Work,
}

/// What a deferred request still has to do: the engine's effects that
/// reach the origin, plus the single-flight wait.
enum Work {
    /// Uncacheable class: forward, never cache — and never coalesce:
    /// every uncacheable request is its own upstream exchange, exactly
    /// as the simulator counts them.
    Forward,
    /// No usable copy (compulsory miss, or known stale under
    /// invalidation/eager): unconditional GET. This request leads the
    /// file's flight, registered when it was decided.
    FetchFull(FlightGuard),
    /// Possibly stale timed-out copy: conditional GET against its
    /// `Last-Modified`.
    Validate(EntryMeta),
    /// Another request's fetch of this file is in flight: wait for it
    /// to conclude, then decide.
    AwaitFlight,
}

/// One evaluation of a request under the shard lock.
enum Evaluated<'a> {
    /// Fresh (and valid) local copy, classified and counted: serve it.
    Serve(Response, Arc<Vec<u8>>),
    /// Decided, probe events recorded; the origin is needed.
    Defer(Work),
    /// Nothing decided — a flight for the file is in progress. The
    /// guard comes back for the condvar wait.
    InFlight(RankedGuard<'a, CacheState>),
}

/// Clears a registered single-flight entry when the fetch concludes —
/// on *every* exit path, including errors and a deferred request that
/// is dropped unrun at shutdown, so followers are never stranded
/// waiting on a dead flight.
struct FlightGuard {
    shared: Arc<ProxyShared>,
    file: FileId,
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        let shard = self.shared.shard(self.file);
        let mut st = shard.state.lock();
        st.in_flight.remove(&self.file);
        // Notify while the guard is live so a follower's predicate check
        // can never race the removal (wcc-analyze r7).
        shard.flights.notify_all(&st);
    }
}

impl ProxyShared {
    fn class_of(&self, file: FileId) -> usize {
        self.classes.get(file.index()).copied().unwrap_or(0)
    }

    fn shard(&self, file: FileId) -> &Shard {
        &self.shards[shard_for(file, self.shards.len())]
    }

    /// Path → id. Ground-truth paths resolve without taking any lock;
    /// only never-before-seen paths touch the dynamic table.
    fn resolve(&self, path: &str) -> FileId {
        if let Some(&id) = self.static_names.by_path.get(path) {
            return id;
        }
        let base = self.static_names.paths.len();
        let mut names = self.dynamic_names.lock();
        if let Some(&id) = names.by_path.get(path) {
            return id;
        }
        let id = FileId::from_index(base + names.paths.len());
        names.by_path.insert(path.to_string(), id);
        names.paths.push(path.to_string());
        id
    }

    fn path_of(&self, file: FileId) -> String {
        let idx = file.index();
        if let Some(path) = self.static_names.paths.get(idx) {
            return path.clone();
        }
        self.dynamic_names
            .lock()
            .paths
            .get(idx - self.static_names.paths.len())
            .cloned()
            .unwrap_or_default()
    }

    /// The client-facing response for the resident copy `entry` of
    /// `file`. `None` would mean a resident entry without a body, which
    /// the shard lock rules out (store and bodies only change together
    /// under it); callers refetch rather than panic in the server path.
    fn local_response(
        st: &CacheState,
        file: FileId,
        entry: &EntryMeta,
        now: SimTime,
    ) -> Option<(Response, Arc<Vec<u8>>)> {
        let body = st.bodies.get(&file)?;
        let mut resp = Response::ok(
            wall_date(now),
            wall_date(entry.last_modified),
            body.len() as u64,
        );
        if let Some(exp) = entry.expires {
            resp = resp.with_expires(wall_date(exp));
        }
        Some((resp, Arc::clone(body)))
    }

    // --- control channel -------------------------------------------------

    /// Send one subscription command over `shard`'s control channel and
    /// wait for its `OK`. Never called with any state lock held (the
    /// reader thread needs the writer to `ACK` invalidations, and the
    /// shard lock to apply them).
    fn control_roundtrip(&self, shard: &Shard, msg: &ControlMsg) {
        let Some(control) = shard.control.as_ref() else {
            return;
        };
        if write_msg(&mut control.writer.lock(), msg).is_err() {
            return;
        }
        let ok_rx = control.ok_rx.lock();
        loop {
            match ok_rx.recv_timeout(POLL_TICK) {
                Ok(()) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Subscribe `file` over its owning shard's control channel.
    fn subscribe_sync(&self, file: FileId) {
        self.control_roundtrip(self.shard(file), &ControlMsg::Subscribe(self.path_of(file)));
    }

    fn unsubscribe_victims(&self, victims: &[FileId]) {
        if !self.uses_invalidation {
            return;
        }
        for &victim in victims {
            self.control_roundtrip(
                self.shard(victim),
                &ControlMsg::Unsubscribe(self.path_of(victim)),
            );
        }
    }

    /// Shard `shard_idx`'s control reader thread: applies `INVALIDATE`
    /// notices to the owning shard's state, then acknowledges; forwards
    /// `OK`s to waiting subscribers.
    fn control_reader(&self, shard_idx: usize, mut conn: LineConn, ok_tx: mpsc::Sender<()>) {
        let result: io::Result<()> = (|| {
            while let Some(msg) = conn.read_msg(&self.shutdown)? {
                match msg {
                    ControlMsg::Invalidate(path) => {
                        let file = self.resolve(&path);
                        let inv_bytes = msg_len(&ControlMsg::Invalidate(path));
                        let ack_bytes = msg_len(&ControlMsg::Ack);
                        {
                            // The origin routes INVALIDATE over the
                            // subscribing shard's channel, so this is the
                            // reader's own shard; route by file anyway so
                            // a misdirected notice can never corrupt a
                            // foreign shard's accounting.
                            let mut st = self.shard(file).state.lock();
                            st.invalidations_delivered += 1;
                            // One invalidation = one control message
                            // (notice + ack), as in the simulator's
                            // `invalidation_message` costing.
                            st.engine
                                .invalidate(file, self.clock.now(), inv_bytes + ack_bytes);
                        }
                        // Ack only after the entry is marked: once the
                        // origin sees the ACK, no client can be served
                        // the stale copy. The ACK goes back on the
                        // connection the notice arrived on.
                        if let Some(control) = self
                            .shards
                            .get(shard_idx)
                            .and_then(|shard| shard.control.as_ref())
                        {
                            write_msg(&mut control.writer.lock(), &ControlMsg::Ack)?;
                        }
                    }
                    ControlMsg::Ok => {
                        let _ = ok_tx.send(());
                    }
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected control message at proxy: {other:?}"),
                        ));
                    }
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            // Channel death is handled by the run winding down; still
            // worth a log line so protocol violations are visible.
            log_conn_error("proxy-control", &e);
        }
    }

    // --- request path ----------------------------------------------------

    /// Wait, for at most one poll tick, for a flight on this shard to
    /// conclude (or for shutdown). Consumes the shard guard; the caller
    /// goes back to the dispatch queue and re-evaluates on its next turn.
    fn wait_for_flight<'a>(
        &self,
        shard: &'a Shard,
        st: RankedGuard<'a, CacheState>,
    ) -> io::Result<()> {
        // wcc-allow: r7 one bounded tick per call; the caller requeues and re-checks in_flight under a fresh guard on its next turn
        let (guard, _timed_out) = shard.flights.wait_timeout(st, POLL_TICK);
        drop(guard);
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "shutdown while waiting on an in-flight fetch",
            ));
        }
        Ok(())
    }

    /// One request's upstream exchange on a connection from `file`'s
    /// shard pool — checkout, `exchange`, checkin (a connection that
    /// errored is discarded, freeing its slot). The connection is held
    /// across a validation's fallback refetch, so one request never
    /// checks out two sockets.
    fn with_upstream<T>(
        &self,
        asked: Asked,
        exchange: impl FnOnce(&mut HttpConn) -> io::Result<T>,
    ) -> io::Result<T> {
        let shard = self.shard(asked.file);
        let mut upstream = shard
            .pool
            .checkout(asked.now, &self.probe, &self.shutdown)?;
        let result = exchange(&mut upstream);
        match &result {
            Ok(_) => shard.pool.checkin(upstream),
            Err(_) => shard.pool.discard(),
        }
        result
    }

    /// Unconditional GET, applied to the engine. `stored` is false for a
    /// [`Work::Forward`], whose answer is counted but never kept.
    fn fetch_on(
        &self,
        upstream: &mut HttpConn,
        asked: Asked,
        path: &str,
        stored: bool,
    ) -> io::Result<(Response, Arc<Vec<u8>>)> {
        let sent = upstream.write_request(&Request::get(path))?;
        let (resp, body) = upstream.read_response()?;
        let body = Arc::new(body);
        self.apply_response(asked, stored, false, sent, &resp, &body)?;
        Ok((resp, body))
    }

    /// Hand a `200` or `404` to the engine: price it, subscribe first
    /// when it will insert a new entry (exactly where the simulator
    /// does), keep the bodies map in step with the store, and
    /// unsubscribe whatever the insert displaced.
    fn apply_response(
        &self,
        asked: Asked,
        stored: bool,
        conditional: bool,
        sent: u64,
        resp: &Response,
        body: &Arc<Vec<u8>>,
    ) -> io::Result<()> {
        let Asked { file, class, now } = asked;
        let shard = self.shard(file);
        let message_bytes = sent + resp.header_size();
        let reply = if resp.status == Status::Ok {
            let size = body.len() as u64;
            Reply::Body {
                size,
                last_modified: sim_instant(require_last_modified(resp)?),
                expires: resp.expires.map(sim_instant),
                conditional,
                message_bytes,
                delay: self.link.delay_for(size),
            }
        } else {
            // The simulator never requests nonexistent files; pass the
            // origin's answer through, charging the exchange as one
            // message and dropping any cached copy.
            Reply::Gone {
                conditional,
                message_bytes,
            }
        };
        // Single-flight registration makes the peek stable: no other
        // worker inserts this file while the flight is held.
        let inserts = stored && resp.status == Status::Ok;
        if inserts && self.uses_invalidation && shard.state.lock().engine.peek(file).is_none() {
            self.subscribe_sync(file);
        }
        let victims: Vec<FileId> = {
            let mut st = shard.state.lock();
            let applied = st.engine.apply(file, class, now, reply, &mut &self.probe);
            for (victim, _) in applied.victims.iter() {
                st.bodies.remove(victim);
            }
            if st.engine.peek(file).is_some() {
                st.bodies.insert(file, Arc::clone(body));
            } else {
                st.bodies.remove(&file);
            }
            applied.victims.iter().map(|&(victim, _)| victim).collect()
        };
        self.unsubscribe_victims(&victims);
        Ok(())
    }

    /// Phase one of a client request, on the reactor thread: the
    /// decision, taken once. In-memory work only — the dynamic-names and
    /// shard locks, never a socket, a pool checkout or a condvar wait.
    fn begin(self: &Arc<Self>, req: Request) -> Step<Deferred> {
        let file = self.resolve(&req.path);
        let asked = Asked {
            file,
            class: self.class_of(file),
            now: self.clock.now(),
        };
        let work = match self.evaluate(asked) {
            Evaluated::Serve(resp, body) => return Step::Done(resp, body),
            Evaluated::Defer(work) => work,
            Evaluated::InFlight(_) => Work::AwaitFlight,
        };
        Step::Defer(Deferred {
            asked,
            path: req.path,
            work,
        })
    }

    /// Decide what the request does, under its file's shard lock. Unless
    /// a flight is in progress — then nothing is decided until it lands —
    /// this is the request's one [`Engine::request`]: one store touch,
    /// one policy decision, one set of probe events.
    fn evaluate(self: &Arc<Self>, asked: Asked) -> Evaluated<'_> {
        let Asked { file, class, now } = asked;
        let mut st = self.shard(file).state.lock();
        if st.was_contended() {
            self.probe
                .record(now, ObsEvent::LockContended { rank: STATE_RANK });
        }
        if st.in_flight.contains(&file) {
            return Evaluated::InFlight(st);
        }
        let oracle = self.ground_truth.as_deref();
        match st
            .engine
            .request(file, class, now, oracle, &mut &self.probe)
        {
            Effect::Serve(entry) => {
                if let Some((resp, body)) = Self::local_response(&st, file, &entry, now) {
                    return Evaluated::Serve(resp, body);
                }
            }
            Effect::Validate(entry) => return Evaluated::Defer(Work::Validate(entry)),
            Effect::Forward => return Evaluated::Defer(Work::Forward),
            Effect::Fetch => {}
        }
        // This request leads the file's flight.
        st.in_flight.insert(file);
        drop(st);
        Evaluated::Defer(Work::FetchFull(FlightGuard {
            shared: Arc::clone(self),
            file,
        }))
    }

    /// Phase two, on a dispatch worker: carry out what `begin` decided,
    /// with the `now`/`file`/`class` it decided with. Only a request
    /// that found another's fetch in flight still has its decision to
    /// take, once that fetch concludes.
    fn finish(self: &Arc<Self>, deferred: Deferred) -> io::Result<Step<Deferred>> {
        let Deferred { asked, path, work } = deferred;
        let work = match work {
            Work::AwaitFlight => match self.evaluate(asked) {
                Evaluated::Serve(resp, body) => return Ok(Step::Done(resp, body)),
                Evaluated::Defer(work) => work,
                Evaluated::InFlight(st) => {
                    // One bounded tick on the condvar, then the back of
                    // the queue: a follower never pins a worker its
                    // leader (queued by another reactor thread, perhaps
                    // behind it) is waiting for.
                    self.wait_for_flight(self.shard(asked.file), st)?;
                    Work::AwaitFlight
                }
            },
            decided => decided,
        };
        let (resp, body) = match work {
            Work::AwaitFlight => return Ok(Step::Defer(Deferred { asked, path, work })),
            Work::Forward => self.with_upstream(asked, |upstream| {
                self.fetch_on(upstream, asked, &path, false)
            })?,
            Work::FetchFull(_flight) => self.with_upstream(asked, |upstream| {
                self.fetch_on(upstream, asked, &path, true)
            })?,
            // Combined query-and-fetch via If-Modified-Since.
            Work::Validate(entry) => self.with_upstream(asked, |upstream| {
                self.validate_on(upstream, asked, entry, &path)
            })?,
        };
        Ok(Step::Done(resp, body))
    }

    /// The conditional-GET exchange for `entry`, applied to the engine.
    fn validate_on(
        &self,
        upstream: &mut HttpConn,
        asked: Asked,
        entry: EntryMeta,
        path: &str,
    ) -> io::Result<(Response, Arc<Vec<u8>>)> {
        let Asked { file, class, now } = asked;
        let ims = wall_date(entry.last_modified);
        let sent = upstream.write_request(&Request::get_if_modified_since(path, ims))?;
        let (resp, body) = upstream.read_response()?;
        if resp.status != Status::NotModified {
            let body = Arc::new(body);
            self.apply_response(asked, true, true, sent, &resp, &body)?;
            return Ok((resp, body));
        }
        let not_modified = Reply::NotModified {
            expires: resp.expires.map(sim_instant),
            message_bytes: sent + resp.header_size(),
            delay: self.link.delay_for(0),
        };
        let served = {
            let mut st = self.shard(file).state.lock();
            let applied = st
                .engine
                .apply(file, class, now, not_modified, &mut &self.probe);
            match st.engine.peek(file) {
                Some(entry) if !applied.lost => Self::local_response(&st, file, entry, now),
                _ => None,
            }
        };
        match served {
            Some(served) => Ok(served),
            // The validated entry vanished under a concurrent eviction
            // between lock drops: refetch on the connection in hand.
            None => self.fetch_on(upstream, asked, path, true),
        }
    }
}

/// The proxy's reactor dispatcher: [`ProxyShared::begin`] on the
/// reactor thread, [`ProxyShared::finish`] on a dispatch worker.
///
/// A flight's leader registers in `begin` and is then *queued* for a
/// worker, so a follower can reach a worker first (with several reactor
/// threads it can even be queued first). That never starves the leader:
/// a waiting follower gives its worker back after one poll tick and
/// rejoins the queue behind it.
struct ProxyDispatch {
    shared: Arc<ProxyShared>,
}

impl Dispatch for ProxyDispatch {
    type Deferred = Deferred;

    fn begin(&self, req: Request) -> Step<Deferred> {
        self.shared.begin(req)
    }

    fn finish(&self, deferred: Deferred) -> io::Result<Step<Deferred>> {
        self.shared.finish(deferred)
    }
}

fn msg_len(msg: &ControlMsg) -> u64 {
    msg.encode().len() as u64
}

/// Every well-formed `200` in this protocol carries `Last-Modified`; an
/// origin that omits it is speaking something else, and the connection
/// is closed rather than caching a copy with no version.
fn require_last_modified(resp: &Response) -> io::Result<httpsim::HttpDate> {
    resp.last_modified.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "200 response without Last-Modified",
        )
    })
}

/// A running proxy; stop it with [`LiveProxy::shutdown`] (or drop it).
pub struct LiveProxy {
    shared: Arc<ProxyShared>,
    addr: SocketAddr,
    reactor: Option<Reactor<ProxyDispatch>>,
    control_threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for LiveProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveProxy")
            .field("addr", &self.addr)
            .field("shards", &self.shared.shards.len())
            .finish()
    }
}

impl LiveProxy {
    /// Dial one control connection per shard (when the policy needs
    /// them), bind the client listener, and start serving.
    pub fn spawn(config: ProxyConfig) -> io::Result<LiveProxy> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let shard_count = config.shards.max(1);

        let mut static_names = Names::default();
        if let Some(gt) = config.ground_truth.as_ref() {
            for (id, rec) in gt.iter() {
                debug_assert_eq!(id.index(), static_names.paths.len());
                static_names.by_path.insert(rec.path.clone(), id);
                static_names.paths.push(rec.path.clone());
            }
        }

        let uses_invalidation = config.policy.uses_invalidation();
        let retrieval = RetrievalMode::Conditional.under_invalidation(uses_invalidation);
        let DelaySource::Modeled(link) = config.delay;
        let mut shards = Vec::with_capacity(shard_count);
        let mut control_streams: Vec<Option<(LineConn, mpsc::Sender<()>)>> =
            Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let control = if uses_invalidation {
                let stream = TcpStream::connect(config.origin_control)?;
                let writer = stream.try_clone()?;
                // wcc-allow: r5 OK channel — bounded by in-flight control commands, one per worker
                let (ok_tx, ok_rx) = mpsc::channel();
                control_streams.push(Some((LineConn::new(stream)?, ok_tx)));
                Some(ControlHandle {
                    writer: RankedMutex::new(CONTROL_WRITER_RANK, "proxy.control.writer", writer),
                    ok_rx: RankedMutex::new(CONTROL_OK_RANK, "proxy.control.ok_rx", ok_rx),
                })
            } else {
                control_streams.push(None);
                None
            };
            shards.push(Shard {
                state: RankedMutex::new(
                    STATE_RANK,
                    "proxy.state",
                    CacheState {
                        engine: Engine::new(
                            config.store.build(i, shard_count),
                            config.policy.build_policy(),
                            retrieval,
                            config.uncacheable_mask,
                            link,
                        ),
                        bodies: HashMap::new(),
                        in_flight: HashSet::new(),
                        invalidations_delivered: 0,
                    },
                ),
                flights: RankedCondvar::new(),
                pool: UpstreamPool::new(config.origin_data, i as u32, UPSTREAM_CONNS_PER_SHARD),
                control,
            });
        }

        let shared = Arc::new(ProxyShared {
            shards,
            static_names,
            dynamic_names: RankedMutex::new(
                DYNAMIC_NAMES_RANK,
                "proxy.dynamic_names",
                Names::default(),
            ),
            classes: config.classes,
            link,
            uses_invalidation,
            ground_truth: config.ground_truth,
            clock: config.clock,
            probe: config.probe,
            shutdown: AtomicBool::new(false),
        });

        let mut control_threads = Vec::with_capacity(shard_count);
        for (i, slot) in control_streams.into_iter().enumerate() {
            let Some((conn, ok_tx)) = slot else { continue };
            let shared = Arc::clone(&shared);
            control_threads.push(thread::spawn(move || {
                shared.control_reader(i, conn, ok_tx);
            }));
        }

        // The client data path runs on the epoll reactor, request
        // decisions included; the dispatch workers do the upstream IO.
        let reactor = Reactor::spawn(
            listener,
            ProxyDispatch {
                shared: Arc::clone(&shared),
            },
            ReactorConfig {
                reactor_threads: config.reactor_threads,
                dispatch_threads: DEFAULT_DISPATCH_THREADS,
                max_conns: config.max_conns,
                budget_ticks: DEFAULT_READ_BUDGET_TICKS,
                role: "proxy-data",
                probe: shared.probe.clone(),
                clock: shared.clock.clone(),
            },
        )?;

        Ok(LiveProxy {
            shared,
            addr,
            reactor: Some(reactor),
            control_threads,
        })
    }

    /// Address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open on the client reactor (for the soak
    /// driver and tests).
    pub fn open_conns(&self) -> usize {
        self.reactor.as_ref().map_or(0, Reactor::open_conns)
    }

    /// Client accepts shed at the connection cap.
    pub fn dropped_accepts(&self) -> u64 {
        self.reactor.as_ref().map_or(0, Reactor::dropped_accepts)
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(mut r) = self.reactor.take() {
            r.stop();
        }
        for h in self.control_threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Stop serving and return the merged per-shard counters.
    pub fn shutdown(mut self) -> ProxySnapshot {
        self.stop();
        let mut snap = ProxySnapshot::default();
        for shard in &self.shared.shards {
            let st = shard.state.lock();
            snap.cache.merge(st.engine.stats());
            snap.traffic.merge(st.engine.traffic());
            snap.stale_age_total = snap
                .stale_age_total
                .saturating_add(st.engine.stale_age_total());
            snap.invalidations_delivered += st.invalidations_delivered;
            snap.evictions += st.engine.evictions();
            drop(st);
            snap.upstream_dials += shard.pool.dials();
            snap.upstream_reuses += shard.pool.reuses();
            snap.upstream_saturations += shard.pool.saturations();
        }
        snap
    }
}

impl Drop for LiveProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{LiveOrigin, OriginConfig};
    use originserver::FileRecord;
    use std::io::{Read as _, Write as _};
    use std::sync::Barrier;

    #[test]
    fn malformed_client_request_kills_only_that_connection() {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/a.html", SimTime::from_secs(0), 100));
        let pop = Arc::new(pop);
        let clock = LiveClock::virtual_at(SimTime::from_secs(10));
        let origin = LiveOrigin::spawn(OriginConfig::new(Arc::clone(&pop), clock.clone())).unwrap();
        let mut cfg = ProxyConfig::new(
            origin.data_addr(),
            origin.control_addr(),
            LivePolicy::Ttl(24),
            clock,
        );
        cfg.ground_truth = Some(Arc::clone(&pop));
        let proxy = LiveProxy::spawn(cfg).unwrap();

        // Garbage in: the proxy logs, closes that connection (EOF on our
        // side, no response bytes), and keeps serving everyone else.
        let mut bad = TcpStream::connect(proxy.addr()).unwrap();
        bad.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);
        assert!(sink.is_empty(), "no response to an unparseable request");

        // A well-formed client is still served (miss → fetch → hit).
        let mut conn = HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
        conn.write_request(&Request::get("/a.html")).unwrap();
        let (resp, body) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(body.len(), 100);
        conn.write_request(&Request::get("/a.html")).unwrap();
        assert_eq!(conn.read_response().unwrap().0.status, Status::Ok);

        let snap = proxy.shutdown();
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(snap.cache.fresh_hits, 1);
        assert_eq!(
            snap.upstream_dials, 1,
            "both exchanges share one pooled conn"
        );
        drop(origin);
    }

    /// An origin that answers `/warm.html` and goes silent on every
    /// other request — it reports the path on `parked` and never
    /// replies — until `stop` is set, when it hangs up on everyone.
    fn half_silent_origin(
        listener: TcpListener,
        stop: Arc<AtomicBool>,
        parked: mpsc::Sender<String>,
    ) -> JoinHandle<()> {
        listener.set_nonblocking(true).unwrap();
        thread::spawn(move || {
            let mut conns = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let Ok((stream, _)) = listener.accept() else {
                    thread::sleep(std::time::Duration::from_millis(1));
                    continue;
                };
                stream.set_nonblocking(false).unwrap();
                let (stop, parked) = (Arc::clone(&stop), parked.clone());
                conns.push(thread::spawn(move || {
                    let mut conn = HttpConn::new(stream).unwrap();
                    while let Ok(Some(req)) = conn.read_request(&stop) {
                        if req.path == "/warm.html" {
                            let now = wall_date(SimTime::from_secs(10));
                            let resp = Response::ok(now, wall_date(SimTime::ZERO), 64);
                            conn.write_response(&resp, &[7u8; 64]).unwrap();
                        } else {
                            parked.send(req.path).unwrap();
                        }
                    }
                }));
            }
            for conn in conns {
                conn.join().unwrap();
            }
        })
    }

    /// Hits do not queue behind misses: with every dispatch worker
    /// parked on an origin that never answers, a fresh hit is still
    /// served — `begin` finished it on the reactor thread.
    #[test]
    fn fresh_hits_are_served_while_every_worker_is_parked_on_a_silent_origin() {
        const HITS: u64 = 25;
        let stop = Arc::new(AtomicBool::new(false));
        let (parked_tx, parked_rx) = mpsc::channel();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let origin_addr = listener.local_addr().unwrap();
        let origin = half_silent_origin(listener, Arc::clone(&stop), parked_tx);
        let clock = LiveClock::virtual_at(SimTime::from_secs(10));
        let cfg = ProxyConfig::new(origin_addr, origin_addr, LivePolicy::Ttl(24), clock);
        let proxy = LiveProxy::spawn(cfg).unwrap();
        let connect = || HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();

        let mut warm = connect();
        warm.write_request(&Request::get("/warm.html")).unwrap();
        assert_eq!(warm.read_response().unwrap().0.status, Status::Ok);

        // One cold file per worker, each on its own connection: each
        // leads its own flight and parks a worker in `read_response`.
        let mut cold: Vec<HttpConn> = (0..DEFAULT_DISPATCH_THREADS)
            .map(|i| {
                let mut conn = connect();
                conn.write_request(&Request::get(format!("/cold{i}.html")))
                    .unwrap();
                conn
            })
            .collect();
        for _ in 0..DEFAULT_DISPATCH_THREADS {
            parked_rx.recv().unwrap();
        }

        let mut fifth = connect();
        fifth.set_read_budget_ticks(40); // 1 s, against the workers' 30
        for _ in 0..HITS {
            fifth.write_request(&Request::get("/warm.html")).unwrap();
            let (resp, body) = fifth.read_response().unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(body, [7u8; 64]);
        }

        // The origin hangs up; each parked fetch fails and takes only
        // its own client connection with it.
        stop.store(true, Ordering::SeqCst);
        origin.join().unwrap();
        for conn in &mut cold {
            assert!(conn.read_response().is_err());
        }
        let snap = proxy.shutdown();
        assert_eq!(snap.cache.fresh_hits, HITS);
        assert_eq!(snap.cache.misses, 1, "only the warm-up fetch completed");
    }

    /// Decide-once, seen from the store: a validated request touches its
    /// entry once in `begin` (the lookup) and once in `finish` (the
    /// revalidation stamp) — the simulator's two touches, which LFU
    /// counts. A `finish` that looked the entry up again would add a
    /// third per request.
    #[test]
    fn a_validated_request_touches_the_store_once_per_phase() {
        const N: u32 = 6;
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/a.html", SimTime::from_secs(0), 100));
        let pop = Arc::new(pop);
        let clock = LiveClock::virtual_at(SimTime::from_secs(10));
        let origin = LiveOrigin::spawn(OriginConfig::new(Arc::clone(&pop), clock.clone())).unwrap();
        let mut cfg = ProxyConfig::new(
            origin.data_addr(),
            origin.control_addr(),
            LivePolicy::Ttl(0),
            clock,
        );
        cfg.ground_truth = Some(Arc::clone(&pop));
        cfg.store = StoreKind::Lfu(1 << 20);
        let proxy = LiveProxy::spawn(cfg).unwrap();

        let mut conn = HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
        for _ in 0..=N {
            conn.write_request(&Request::get("/a.html")).unwrap();
            assert_eq!(conn.read_response().unwrap().0.status, Status::Ok);
        }

        let file = proxy.shared.resolve("/a.html");
        let touches = match proxy.shared.shard(file).state.lock().engine.store() {
            AnyStore::Lfu(store) => store.policy().frequency(file),
            other => panic!("configured LFU, got {}", other.kind()),
        };
        assert_eq!(touches, 1 + 2 * N, "one insert, then two per validation");
        let snap = proxy.shutdown();
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(u64::from(N), snap.cache.validations_not_modified);
        assert_eq!(u64::from(N), snap.cache.fresh_hits);
        drop(origin);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for idx in 0..64usize {
                let file = FileId::from_index(idx);
                let s = shard_for(file, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(file, shards), "routing must be pure");
            }
        }
        assert_eq!(shard_for(FileId::from_index(7), 0), 0, "0 shards ⇒ shard 0");
    }

    /// The ISSUE's miss-coalescing contract: N concurrent requests for
    /// one cold file produce exactly one upstream fetch and N responses.
    #[test]
    fn concurrent_cold_misses_coalesce_into_one_fetch() {
        const N: usize = 8;
        const BODY: u64 = 512 * 1024;
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/cold.html", SimTime::from_secs(0), BODY));
        let pop = Arc::new(pop);
        let clock = LiveClock::virtual_at(SimTime::from_secs(10));
        let origin = LiveOrigin::spawn(OriginConfig::new(Arc::clone(&pop), clock.clone())).unwrap();
        let mut cfg = ProxyConfig::new(
            origin.data_addr(),
            origin.control_addr(),
            LivePolicy::Ttl(24),
            clock,
        );
        cfg.ground_truth = Some(Arc::clone(&pop));
        cfg.shards = 4;
        let proxy = LiveProxy::spawn(cfg).unwrap();

        let barrier = Barrier::new(N);
        thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    let mut conn =
                        HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();
                    barrier.wait();
                    conn.write_request(&Request::get("/cold.html")).unwrap();
                    let (resp, body) = conn.read_response().unwrap();
                    assert_eq!(resp.status, Status::Ok);
                    assert_eq!(body.len() as u64, BODY);
                });
            }
        });

        let snap = proxy.shutdown();
        let load = origin.shutdown();
        assert_eq!(
            snap.cache.misses, 1,
            "followers must not duplicate the fetch"
        );
        assert_eq!(snap.cache.fresh_hits as usize, N - 1);
        assert_eq!(snap.traffic.file_transfers, 1);
        assert_eq!(load.document_requests, 1, "origin saw exactly one GET");
    }
}
