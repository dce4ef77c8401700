//! The live caching proxy.
//!
//! [`LiveProxy`] fronts a [`LiveOrigin`](crate::LiveOrigin) (or any
//! server speaking the same HTTP/1.0 subset): clients connect to its
//! data port, and each request is served from the in-memory cache or
//! fetched/revalidated upstream over its shard's one persistent origin
//! connection. What the cache does with a request is decided by the
//! same [`consistency::Engine`] the simulator drives (over an
//! [`AnyStore`], conditional retrieval), so a single-threaded replay
//! produces identical counters; this module is the engine's live
//! transport, and what only a live cache has: bodies, single-flight,
//! the names table, and the sequence of exchanges a request goes
//! through. It touches no socket: it is a [`Dispatch`]er, every method
//! of which runs on a reactor thread, in memory, and *returns* what it
//! wants from the origin as a [`Step`] the reactor carries out.
//!
//! **Sharding.** Cache state is split into `shards` independent
//! [`CacheState`]s, routed by [`shard_for`] (`FileId` index modulo the
//! shard count), each behind its own mutex with its own store and
//! policy instance, and one upstream socket owned by one reactor thread
//! (`upstream::ShardIo`) on which its every exchange is pipelined: a
//! keep-alive connection to the origin's data port or — under the
//! invalidation mechanism — its persistent control connection.
//! Requests for different files on different shards never contend; the
//! run's totals are the merge of the per-shard counters. With one shard
//! and one reactor thread the topology degenerates to a single lock, a
//! single thread and no hand-off at all, which is what keeps the
//! single-threaded differential test counter-exact.
//!
//! **A request's path.** [`Dispatch::begin`] decides, once, under the
//! shard lock: resolve, hand the request to the engine (the one store
//! touch, the one policy decision, the classification), and register a
//! single-flight fetch if this request is to lead one. A fresh hit is
//! answered right there. Anything else parks a [`Parked`] continuation
//! on an upstream exchange, and [`Dispatch::resume`] moves it one stage
//! along each time an answer arrives:
//!
//! | stage | sent | on the answer |
//! |-------|------|---------------|
//! | `Validating` | `GET` + `If-Modified-Since` | `304`: apply, serve the cached body (entry lost meanwhile: refetch). Otherwise as `Fetching`. |
//! | `Fetching` | `GET` — under invalidation the origin's `200` subscribes a leader's; an uncacheable forward's is marked not to | Apply the reply and respond; under invalidation, `UNSUBSCRIBE` what that left the origin tracking and the shard not holding — evicted victims not being refetched, and a leader's file if its reply left it non-resident. |
//!
//! Under invalidation the fetch is the subscription: the origin
//! registers it as it answers, so no entry is ever resident before it is
//! subscribed, the reply is applied in line order with the `INVALIDATE`s
//! around it, and a miss talks to the origin once: its `UNSUBSCRIBE`s
//! ride the channel's next write, and nobody waits for them. Until they
//! are in, the origin's ledger names files the shard no longer holds; a
//! notice for one is answered `NACK` and not counted, so single-connection
//! runs stay counter-exact by the channel's order, not by a wait.
//!
//! **Single-flight.** Concurrent misses for the same file coalesce: the
//! first request registers the file as in flight and fetches; requests
//! that find it registered join the flight's wait-list undecided. When
//! the leader concludes — answered or failed, on any path — the
//! wait-list is decided in arrival order: normally all hits on the
//! copy just inserted; after a failure the first becomes the next
//! leader and the rest wait on that. One cold file under a thundering
//! herd costs one upstream fetch, and the delayed-hit window is
//! first-class instead of N duplicate transfers.
//!
//! Locking: a shard's mutex guards that shard's state (engine, bodies,
//! flights) and is only ever held for in-memory work, which is what
//! lets any reactor thread take it.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use consistency::{Effect, Engine, LinkModel, Reply, RetrievalMode};
use httpsim::{Request, Response, Status};
use originserver::FilePopulation;
use proxycache::{AnyStore, EntryMeta};
use simcore::{CacheStats, FileId, SimDuration, SimTime, TrafficMeter};
use wcc_obs::{ObsEvent, ProbeHandle, Tally};
use wcc_sync::RankedMutex;

use crate::clock::{sim_instant, wall_date, LiveClock};
use crate::control::ControlMsg;
use crate::netio::{invalid, DEFAULT_READ_BUDGET_TICKS};
use crate::reactor::{Answer, Arrived, Dispatch, Reactor, ReactorConfig, Step, Ticket, Work};
use crate::upstream::Upstream;

/// Rank of the dynamic path⇄id table: taken before any shard state lock
/// (`resolve` runs at request entry with nothing else held).
const DYNAMIC_NAMES_RANK: u32 = 55;

/// Rank of a shard's cache-state mutex, below only the probe leaf (95).
/// Reactor threads take it with nothing else held.
const STATE_RANK: u32 = 60;

/// The shard owning `file`: a pure function of the id and the shard
/// count, so every reactor thread routes a file to the same state (and
/// to the thread that owns its shard's sockets) without coordination.
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

/// How each shard's engine prices the delay of an upstream exchange for
/// the delay-aware policies.
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
    /// store, and upstream connection: to the data port, or under
    /// invalidation its control connection.
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
    /// Data-port connects that completed, over every shard.
    pub upstream_dials: u64,
    /// Exchanges sent on a shard's upstream connection already open.
    pub upstream_reuses: u64,
    /// Exchanges refused at a shard's cap on those outstanding — the
    /// signature of proxy→origin saturation under open-loop overload.
    pub upstream_saturations: u64,
}

/// Everything one shard's mutex guards.
struct CacheState {
    engine: Engine<AnyStore>,
    /// The entity bytes of exactly the entries resident in the engine's
    /// store: the two change together, under this lock.
    bodies: HashMap<FileId, Arc<Vec<u8>>>,
    /// Files with a single-flight upstream fetch in progress, each with
    /// the requests that arrived meanwhile; they are decided when the
    /// flight lands. Bounded by the client-connection cap.
    in_flight: HashMap<FileId, Vec<Waiter>>,
    /// Flights whose fetch is still out: its reply, not an eviction
    /// meanwhile, settles whether the origin keeps the file subscribed.
    fetching: HashSet<FileId>,
}

/// A request waiting, undecided, on another's fetch of its file.
struct Waiter {
    ticket: Ticket,
    asked: Asked,
    path: String,
}

/// Path ⇄ id mapping. Ground-truth paths are prefilled into an
/// immutable table read without any lock (the hot path); paths first
/// seen on the wire get ids past the prefilled range, behind a mutex.
#[derive(Default)]
struct Names {
    by_path: HashMap<String, FileId>,
    paths: Vec<String>,
}

struct ProxyShared {
    shards: Vec<RankedMutex<CacheState>>,
    static_names: Names,
    dynamic_names: RankedMutex<Names>,
    classes: Vec<usize>,
    uses_invalidation: bool,
    ground_truth: Option<Arc<FilePopulation>>,
    clock: LiveClock,
    probe: ProbeHandle,
}

/// What a client asked for, and the instant its decision is taken at.
#[derive(Clone, Copy)]
struct Asked {
    file: FileId,
    class: usize,
    now: SimTime,
}

/// A decided request between two answers from the origin.
struct Parked {
    req: Decided,
    stage: Stage,
}

/// What a parked request carries through every stage.
struct Decided {
    asked: Asked,
    path: String,
    /// This request leads its file's flight: whoever waits on it is
    /// decided when it concludes.
    leads: bool,
    /// Wire size of the HTTP request last sent for it.
    sent: u64,
}

/// What a parked request is waiting for (the module doc has the table).
enum Stage {
    /// The reply to a conditional GET.
    Validating,
    /// The reply to an unconditional GET.
    Fetching,
}

impl ProxyShared {
    fn class_of(&self, file: FileId) -> usize {
        self.classes.get(file.index()).copied().unwrap_or(0)
    }

    fn shard(&self, file: FileId) -> &RankedMutex<CacheState> {
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

    /// Decide what the request does, under its file's shard lock. Unless
    /// a flight is in progress — then it joins the wait-list and nothing
    /// is decided until the flight lands — this is the request's one
    /// [`Engine::request`]: one store touch, one policy decision, one
    /// set of probe events.
    fn evaluate(&self, ticket: Ticket, asked: Asked, path: String) -> Step<Parked> {
        let Asked { file, class, now } = asked;
        let mut st = self.shard(file).lock();
        if st.was_contended() {
            self.probe
                .record(now, ObsEvent::LockContended { rank: STATE_RANK });
        }
        if let Some(waiters) = st.in_flight.get_mut(&file) {
            waiters.push(Waiter {
                ticket,
                asked,
                path,
            });
            return Step::Parked;
        }
        let oracle = self.ground_truth.as_deref();
        let effect = st
            .engine
            .request(file, class, now, oracle, &mut &self.probe);
        // Whoever has no usable copy to show the origin leads the file's
        // flight.
        let fetch = || (Request::get(path.as_str()), Stage::Fetching);
        let ((request, stage), leads) = match effect {
            Effect::Serve(entry) => match Self::local_response(&st, file, &entry, now) {
                Some((resp, body)) => return Step::Done(resp, body),
                None => (fetch(), true),
            },
            Effect::Validate(entry) => {
                let since = wall_date(entry.last_modified);
                let request = Request::get_if_modified_since(path.as_str(), since);
                ((request, Stage::Validating), false)
            }
            // Never coalesced: every uncacheable request is its own
            // upstream exchange, exactly as the simulator counts them.
            Effect::Forward => (fetch(), false),
            Effect::Fetch => (fetch(), true),
        };
        if leads {
            st.in_flight.insert(file, Vec::new());
            st.fetching.insert(file);
        }
        drop(st);
        let req = Decided {
            asked,
            path,
            leads,
            sent: 0,
        };
        self.exchange(req, &request, stage)
    }

    /// Park `req` on one HTTP exchange with its shard's origin.
    fn exchange(&self, mut req: Decided, request: &Request, stage: Stage) -> Step<Parked> {
        let request = request.to_bytes();
        req.sent = request.len() as u64;
        Step::Exchange {
            shard: shard_for(req.asked.file, self.shards.len()),
            request,
            subscribe: self.uses_invalidation && req.leads,
            then: Parked { req, stage },
        }
    }

    /// One stage along: the reply `parked` waited for is here.
    fn advance(&self, parked: Parked, arrived: Arrived) -> io::Result<Step<Parked>> {
        let (Parked { req, stage }, Arrived(resp, body, head)) = (parked, arrived);
        match stage {
            Stage::Validating if resp.status == Status::NotModified => {
                Ok(self.revalidated(req, &resp, head))
            }
            // Combined query-and-fetch: a conditional GET that finds the
            // file changed is answered with the new version.
            Stage::Validating => self.received(req, true, resp, body, head),
            Stage::Fetching => self.received(req, false, resp, body, head),
        }
    }

    /// A `304` (of `head` wire bytes): stamp the entry and serve it.
    fn revalidated(&self, req: Decided, resp: &Response, head: u64) -> Step<Parked> {
        let Asked { file, class, now } = req.asked;
        let not_modified = Reply::NotModified {
            expires: resp.expires.map(sim_instant),
            message_bytes: req.sent + head,
        };
        let served = {
            let mut st = self.shard(file).lock();
            let applied = st
                .engine
                .apply(file, class, now, not_modified, &mut &self.probe);
            match st.engine.peek(file) {
                Some(entry) if !applied.lost => Self::local_response(&st, file, entry, now),
                _ => None,
            }
        };
        match served {
            Some((resp, body)) => Step::Done(resp, body),
            // The validated entry vanished under a concurrent eviction
            // between lock drops: refetch.
            None => {
                let request = Request::get(req.path.as_str());
                self.exchange(req, &request, Stage::Fetching)
            }
        }
    }

    /// A `200` or `404` (its head `head` wire bytes) is in: price it for
    /// the engine, apply it, keep the bodies map in step with the store,
    /// and respond, telling the origin what to forget. Under
    /// invalidation a leader's fetch subscribed the file (the origin
    /// registers a `200` on the control channel as it answers it), so
    /// that is every victim whose own fetch is not out, and the file if
    /// the reply left it non-resident — an oversized body, a `404`.
    fn received(
        &self,
        req: Decided,
        conditional: bool,
        resp: Response,
        body: Vec<u8>,
        head: u64,
    ) -> io::Result<Step<Parked>> {
        let message_bytes = req.sent + head;
        let reply = if resp.status == Status::Ok {
            let size = body.len() as u64;
            Reply::Body {
                size,
                last_modified: sim_instant(require_last_modified(&resp)?),
                expires: resp.expires.map(sim_instant),
                conditional,
                message_bytes,
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
        let (Asked { file, class, now }, body) = (req.asked, Arc::new(body));
        let mut st = self.shard(file).lock();
        if req.leads {
            st.fetching.remove(&file);
        }
        let applied = st.engine.apply(file, class, now, reply, &mut &self.probe);
        for (victim, _) in applied.victims.iter() {
            st.bodies.remove(victim);
        }
        let resident = st.engine.peek(file).is_some();
        if resident {
            st.bodies.insert(file, Arc::clone(&body));
        } else {
            st.bodies.remove(&file);
        }
        // A shard evicts only its own files, so these travel over the
        // channel the victims were subscribed on: at most a line per
        // victim of one insert, and the file. A victim being refetched is
        // left to that fetch's reply: its `GET` is ahead of these.
        let settled = |&v: &FileId| v != file && !st.fetching.contains(&v);
        let victims = applied.victims.iter().map(|&(v, _)| v);
        let mut forget: Vec<FileId> = victims.filter(settled).collect();
        forget.extend((req.leads && !resident).then_some(file));
        drop(st);
        Ok(self.forgetting(file, &forget, Ok((resp, body))))
    }

    /// `answer`, and under invalidation an `UNSUBSCRIBE` of each of
    /// `forget`, files of `file`'s shard.
    fn forgetting(&self, file: FileId, forget: &[FileId], answer: Answer) -> Step<Parked> {
        if !self.uses_invalidation || forget.is_empty() {
            return answer.map_or_else(Step::Fail, |(resp, body)| Step::Done(resp, body));
        }
        let line = |&f: &FileId| {
            ControlMsg::Unsubscribe(&self.path_of(f))
                .encode()
                .into_bytes()
        };
        Step::Control {
            shard: shard_for(file, self.shards.len()),
            lines: forget.iter().flat_map(line).collect(),
            answer,
        }
    }

    /// `file`'s flight is over, however it ended: decide, in arrival
    /// order, everyone who waited on it. If the first still needs the
    /// origin it leads the next flight, and the rest wait on that. True
    /// if its fetch failed (settling nothing) and the file is not held.
    fn land(&self, file: FileId, woken: &mut Work<Parked>) -> bool {
        let mut st = self.shard(file).lock();
        let unsettled = st.fetching.remove(&file) && st.engine.peek(file).is_none();
        let waiters = st.in_flight.remove(&file);
        drop(st);
        for w in waiters.unwrap_or_default() {
            let step = self.evaluate(w.ticket, w.asked, w.path);
            woken.push_back((w.ticket, step));
        }
        unsettled
    }
}

impl Dispatch for Arc<ProxyShared> {
    type Parked = Parked;

    /// The decision, taken once: in-memory work only — the
    /// dynamic-names and shard locks.
    fn begin(&self, ticket: Ticket, req: Request) -> Step<Parked> {
        let file = self.resolve(&req.path);
        let asked = Asked {
            file,
            class: self.class_of(file),
            now: self.clock.now(),
        };
        self.evaluate(ticket, asked, req.path)
    }

    /// Carry on with what `begin` decided, with the `now`/`file`/`class`
    /// it decided with.
    fn resume(
        &self,
        parked: Parked,
        arrived: io::Result<Arrived>,
        woken: &mut Work<Parked>,
    ) -> Step<Parked> {
        let (file, leads) = (parked.req.asked.file, parked.req.leads);
        let step = arrived
            .and_then(|arrived| self.advance(parked, arrived))
            .unwrap_or_else(Step::Fail);
        let over = matches!(step, Step::Done(..) | Step::Fail(_) | Step::Control { .. });
        match (leads && over && self.land(file, woken), step) {
            (true, Step::Fail(e)) => self.forgetting(file, &[file], Err(e)),
            (_, step) => step,
        }
    }

    /// Held (resident, or its fetch out): marked and counted. Else the
    /// notice crossed the file's `UNSUBSCRIBE`, and the origin retracts it.
    fn invalidate(&self, path: &str) -> bool {
        let file = self.resolve(path);
        // One invalidation = one control message (notice + ack), as in
        // the simulator's `invalidation_message` costing.
        let notice = ControlMsg::Invalidate(path).encode() + &ControlMsg::Ack.encode();
        let bytes = notice.len() as u64;
        // The origin routes INVALIDATE over the subscribing shard's
        // channel; route by file anyway so a misdirected notice can
        // never corrupt a foreign shard's accounting.
        let mut st = self.shard(file).lock();
        let held = st.engine.peek(file).is_some() || st.fetching.contains(&file);
        if held {
            st.engine
                .invalidate(file, self.clock.now(), bytes, &mut &self.probe);
        }
        held
    }
}

/// Every well-formed `200` in this protocol carries `Last-Modified`; an
/// origin that omits it is speaking something else, and the connection
/// is closed rather than caching a copy with no version.
fn require_last_modified(resp: &Response) -> io::Result<httpsim::HttpDate> {
    resp.last_modified
        .ok_or_else(|| invalid("200 response without Last-Modified"))
}

/// A running proxy; stop it with [`LiveProxy::shutdown`] (or drop it).
pub struct LiveProxy {
    shared: Arc<ProxyShared>,
    addr: SocketAddr,
    reactor: Reactor<Arc<ProxyShared>>,
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
        Self::spawn_with_budget(config, DEFAULT_READ_BUDGET_TICKS)
    }

    /// [`spawn`](Self::spawn), with the stall budget tests shorten.
    fn spawn_with_budget(config: ProxyConfig, budget_ticks: u32) -> io::Result<LiveProxy> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let shard_count = config.shards.max(1);

        let mut static_names = Names::default();
        if let Some(gt) = config.ground_truth.as_ref() {
            for (id, rec) in gt.iter() {
                debug_assert_eq!(id.index(), static_names.paths.len());
                static_names.by_path.insert(rec.path.to_owned(), id);
                static_names.paths.push(rec.path.to_owned());
            }
        }

        let uses_invalidation = config.policy.uses_invalidation();
        let DelaySource::Modeled(link) = config.delay;
        let mut shards = Vec::with_capacity(shard_count);
        let mut upstreams = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            upstreams.push(match uses_invalidation {
                // wcc-allow: r8 start-up dial, before any reactor thread exists: an unreachable control port fails the spawn
                true => Upstream::Control(TcpStream::connect(config.origin_control)?),
                false => Upstream::Data(config.origin_data),
            });
            shards.push(RankedMutex::new(
                STATE_RANK,
                "proxy.state",
                CacheState {
                    engine: Engine::new(
                        config.store.build(i, shard_count),
                        config.policy.build_policy(),
                        RetrievalMode::Conditional,
                        config.uncacheable_mask,
                        link,
                    ),
                    bodies: HashMap::new(),
                    in_flight: HashMap::new(),
                    fetching: HashSet::new(),
                },
            ));
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
            uses_invalidation,
            ground_truth: config.ground_truth,
            clock: config.clock,
            probe: config.probe,
        });

        let reactor = Reactor::spawn(
            listener,
            None,
            Arc::clone(&shared),
            upstreams,
            ReactorConfig {
                reactor_threads: config.reactor_threads,
                max_conns: config.max_conns,
                budget_ticks,
                role: "proxy-data",
                probe: shared.probe.clone(),
                clock: shared.clock.clone(),
            },
        )?;

        Ok(LiveProxy {
            shared,
            addr,
            reactor,
        })
    }

    /// Address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open on the client reactor (for the soak
    /// driver and tests).
    pub fn open_conns(&self) -> usize {
        self.reactor.open_conns()
    }

    /// Client accepts shed at the connection cap.
    pub fn dropped_accepts(&self) -> u64 {
        self.reactor.dropped_accepts()
    }

    /// Stop serving and return the merged per-shard counters.
    pub fn shutdown(mut self) -> ProxySnapshot {
        self.reactor.stop();
        let upstream = self.reactor.upstream();
        let mut tally = Tally::default();
        for shard in &self.shared.shards {
            tally.merge(shard.lock().engine.tally());
        }
        ProxySnapshot {
            cache: tally.cache,
            traffic: tally.traffic,
            stale_age_total: tally.stale_age_total,
            invalidations_delivered: tally.notices,
            evictions: tally.evictions,
            upstream_dials: upstream.dials.load(Ordering::Relaxed),
            upstream_reuses: upstream.reuses.load(Ordering::Relaxed),
            upstream_saturations: upstream.saturations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netio::{HttpConn, POLL_TICK};
    use crate::origin::{LiveOrigin, OriginConfig};
    use crate::reactor::testing::{conn_on_each_reactor, Accepts};
    use originserver::FileRecord;
    use std::io::{Read as _, Write as _};
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier};
    use std::thread::{self, JoinHandle};
    use std::time::{Duration, Instant};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn connect(proxy: &LiveProxy) -> HttpConn {
        HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap()
    }

    /// GET `path` and demand a `200` carrying `len` bytes.
    fn get(conn: &mut HttpConn, path: &str, len: usize) {
        conn.write_request(&Request::get(path)).unwrap();
        expect(conn, len);
    }

    fn expect(conn: &mut HttpConn, len: usize) {
        let (resp, body) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(body.len(), len);
    }

    fn await_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// What a [`Scripted`] origin does with one request.
    enum Answer {
        /// `200`, `Last-Modified` zero, a body of this many bytes.
        Ok(usize),
        /// The same, and then hang up.
        OkThenClose(usize),
        /// `304`.
        NotModified,
        /// The head of a `200` promising this many bytes, half of them,
        /// and then silence for as long as the test keeps the sender.
        Torn(usize),
    }

    /// A request a [`Scripted`] origin has read and will answer when —
    /// and as — the test says. Dropping it hangs up on the proxy.
    struct Arrival {
        path: String,
        conditional: bool,
        answer: mpsc::Sender<Answer>,
    }

    /// An origin whose every move is the test's: one thread per accepted
    /// connection, each reporting the requests it reads on `arrivals`
    /// and every hangup of its own on `closed`.
    struct Scripted {
        addr: SocketAddr,
        arrivals: mpsc::Receiver<Arrival>,
        closed: mpsc::Receiver<()>,
        /// While set, connections with no request outstanding hang up.
        hang_up_idle: Arc<AtomicBool>,
        stop: Arc<AtomicBool>,
        accepting: Option<JoinHandle<()>>,
    }

    impl Scripted {
        fn spawn() -> Scripted {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            let (arrivals_tx, arrivals) = mpsc::channel();
            let (closed_tx, closed) = mpsc::channel();
            let stop = Arc::new(AtomicBool::new(false));
            let hang_up_idle = Arc::new(AtomicBool::new(false));
            let accepting = {
                let (stop, hang_up_idle) = (Arc::clone(&stop), Arc::clone(&hang_up_idle));
                thread::spawn(move || {
                    let mut conns = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        let Ok((stream, _)) = listener.accept() else {
                            thread::sleep(Duration::from_millis(1));
                            continue;
                        };
                        stream.set_nonblocking(false).unwrap();
                        let (hang_up_idle, arrivals, closed) = (
                            Arc::clone(&hang_up_idle),
                            arrivals_tx.clone(),
                            closed_tx.clone(),
                        );
                        conns.push(thread::spawn(move || {
                            Self::serve(stream, &hang_up_idle, &arrivals);
                            let _ = closed.send(());
                        }));
                    }
                    for conn in conns {
                        conn.join().unwrap();
                    }
                })
            };
            Scripted {
                addr,
                arrivals,
                closed,
                hang_up_idle,
                stop,
                accepting: Some(accepting),
            }
        }

        /// One connection, until the test (or the proxy) is done with it;
        /// returning closes it.
        fn serve(stream: TcpStream, hang_up: &AtomicBool, arrivals: &mpsc::Sender<Arrival>) {
            let mut conn = HttpConn::new(stream).unwrap();
            let now = wall_date(t(10));
            let ok = |len| Response::ok(now, wall_date(t(0)), len as u64);
            while let Ok(Some(req)) = conn.read_request(hang_up) {
                let (answer, told) = mpsc::channel();
                let arrival = Arrival {
                    path: req.path,
                    conditional: req.if_modified_since.is_some(),
                    answer,
                };
                if arrivals.send(arrival).is_err() {
                    return;
                }
                let written = match told.recv() {
                    Ok(Answer::Ok(len)) => conn.write_response(&ok(len), &vec![7u8; len]),
                    Ok(Answer::OkThenClose(len)) => {
                        let _ = conn.write_response(&ok(len), &vec![7u8; len]);
                        return;
                    }
                    Ok(Answer::NotModified) => {
                        conn.write_response(&Response::not_modified(now), &[])
                    }
                    Ok(Answer::Torn(len)) => {
                        let mut wire = ok(len).serialize_headers().into_bytes();
                        wire.resize(wire.len() + len / 2, 7u8);
                        let _ = conn.stream().write_all(&wire);
                        let _ = told.recv();
                        return;
                    }
                    Err(_) => return,
                };
                if written.is_err() {
                    return;
                }
            }
        }

        /// The next request to reach the origin.
        fn arrival(&self) -> Arrival {
            self.arrivals
                .recv_timeout(Duration::from_secs(10))
                .expect("a request at the origin")
        }

        /// The next request, which must be a plain GET of `path`:
        /// answered `200` with `len` bytes.
        fn serve_next(&self, path: &str, len: usize) {
            let arrival = self.arrival();
            assert_eq!((arrival.path.as_str(), arrival.conditional), (path, false));
            arrival.answer.send(Answer::Ok(len)).unwrap();
        }

        fn proxy(&self, policy: LivePolicy) -> ProxyConfig {
            ProxyConfig::new(self.addr, self.addr, policy, LiveClock::virtual_at(t(10)))
        }
    }

    impl Drop for Scripted {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            self.hang_up_idle.store(true, Ordering::SeqCst);
            // Unanswered arrivals still queued hold their connections'
            // threads; dropping them hangs those up.
            while self.arrivals.try_recv().is_ok() {}
            if let Some(accepting) = self.accepting.take() {
                accepting.join().unwrap();
            }
        }
    }

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
        let mut conn = connect(&proxy);
        get(&mut conn, "/a.html", 100);
        get(&mut conn, "/a.html", 100);

        let snap = proxy.shutdown();
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(snap.cache.fresh_hits, 1);
        assert_eq!(snap.upstream_dials, 1);
        drop(origin);
    }

    /// Decide-once, seen from the store: a validated request touches its
    /// entry once, in `begin` (the lookup) — the simulator's one touch,
    /// which LFU counts. The revalidation stamp in `resume` is not a use;
    /// a `resume` that counted one would add a second per request.
    #[test]
    fn a_validated_request_touches_the_store_once() {
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

        let mut conn = connect(&proxy);
        for _ in 0..=N {
            conn.write_request(&Request::get("/a.html")).unwrap();
            assert_eq!(conn.read_response().unwrap().0.status, Status::Ok);
        }

        let file = proxy.shared.resolve("/a.html");
        let touches = match proxy.shared.shard(file).lock().engine.store() {
            AnyStore::Lfu(store) => store.policy().frequency(file),
            other => panic!("configured LFU, got {}", other.kind()),
        };
        assert_eq!(touches, 1 + N, "one insert, then one per validation");
        let snap = proxy.shutdown();
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(u64::from(N), snap.cache.validations_not_modified);
        assert_eq!(u64::from(N), snap.cache.fresh_hits);
        assert_eq!(
            (snap.upstream_dials, snap.upstream_reuses),
            (1, u64::from(N))
        );
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

    /// The keep-alive discipline, seen from the origin: when it hangs up
    /// on the shard's connection — while it idles, or right behind a
    /// reply — the next exchange dials a fresh one and no client notices.
    #[test]
    fn a_connection_the_origin_closed_is_redialled_not_an_error() {
        let origin = Scripted::spawn();
        let proxy = LiveProxy::spawn(origin.proxy(LivePolicy::Ttl(24))).unwrap();
        let mut conn = connect(&proxy);

        conn.write_request(&Request::get("/a")).unwrap();
        origin.serve_next("/a", 64);
        expect(&mut conn, 64);
        // The FIN is on the proxy's idle socket before the next request
        // reaches the proxy.
        origin.hang_up_idle.store(true, Ordering::SeqCst);
        origin.closed.recv().unwrap();
        origin.hang_up_idle.store(false, Ordering::SeqCst);

        conn.write_request(&Request::get("/b")).unwrap();
        origin
            .arrival()
            .answer
            .send(Answer::OkThenClose(32))
            .unwrap();
        expect(&mut conn, 32);
        origin.closed.recv().unwrap();

        conn.write_request(&Request::get("/c")).unwrap();
        origin.serve_next("/c", 16);
        expect(&mut conn, 16);
        // A healthy idle connection, by contrast, is reused.
        conn.write_request(&Request::get("/d")).unwrap();
        origin.serve_next("/d", 8);
        expect(&mut conn, 8);

        let snap = proxy.shutdown();
        assert_eq!((snap.upstream_dials, snap.upstream_reuses), (3, 1));
        assert_eq!(snap.cache.misses, 4);
    }

    /// A refused dial surfaces on the reactor (`EPOLLOUT` + `SO_ERROR`,
    /// or at once), costs its request's client the connection and clears
    /// the flight, and the next exchange dials again: every failure a
    /// prompt hangup.
    #[test]
    fn a_refused_dial_fails_its_request_and_the_next_dials_again() {
        let nobody = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = nobody.local_addr().unwrap();
        drop(nobody);
        let clock = LiveClock::virtual_at(t(10));
        let proxy =
            LiveProxy::spawn(ProxyConfig::new(addr, addr, LivePolicy::Ttl(24), clock)).unwrap();
        for _ in 0..6 {
            let mut conn = connect(&proxy);
            conn.write_request(&Request::get("/f")).unwrap();
            let hung_up = conn.read_response().unwrap_err();
            assert_eq!(hung_up.kind(), io::ErrorKind::UnexpectedEof);
            let file = proxy.shared.resolve("/f");
            assert!(proxy.shared.shard(file).lock().in_flight.is_empty());
        }
        let snap = proxy.shutdown();
        assert_eq!((snap.upstream_dials, snap.upstream_saturations), (0, 0));
        assert_eq!(snap.cache.requests(), 0, "nothing was concluded");
    }

    /// The origin stalls mid-body: the tick budget fails the leader's
    /// exchange, which costs the leader its connection, clears the
    /// flight, closes the stalled socket, and promotes the first follower
    /// to lead a refetch that the second follower then rides.
    #[test]
    fn a_stalled_origin_fails_the_leader_and_a_follower_refetches() {
        let origin = Scripted::spawn();
        let mut cfg = origin.proxy(LivePolicy::Ttl(24));
        cfg.shards = 2;
        let proxy = LiveProxy::spawn_with_budget(cfg, 2).unwrap();
        let file = proxy.shared.resolve("/big");
        let waiting = || {
            let st = proxy.shared.shard(file).lock();
            st.in_flight.get(&file).map(Vec::len)
        };

        let mut leader = connect(&proxy);
        leader.write_request(&Request::get("/big")).unwrap();
        let torn = origin.arrival();
        let mut followers = [connect(&proxy), connect(&proxy)];
        for (i, follower) in followers.iter_mut().enumerate() {
            follower.write_request(&Request::get("/big")).unwrap();
            await_until("the follower to join the flight", || {
                waiting() == Some(i + 1)
            });
        }
        // Half a body, then nothing: two silent ticks later the exchange
        // is over.
        torn.answer.send(Answer::Torn(4096)).unwrap();
        origin.serve_next("/big", 4096);
        let hung_up = leader.read_response().unwrap_err();
        assert_eq!(hung_up.kind(), io::ErrorKind::UnexpectedEof);
        for follower in &mut followers {
            expect(follower, 4096);
        }
        assert_eq!(waiting(), None, "no flight outlives its leader");

        drop(torn);
        let snap = proxy.shutdown();
        assert_eq!(snap.upstream_dials, 2, "the stalled socket was not reused");
        assert_eq!((snap.cache.misses, snap.cache.fresh_hits), (1, 1));
    }

    /// A leader whose client hangs up mid-fetch still leads: the
    /// exchange completes, is applied, and serves the followers; only
    /// the answer to the vanished connection is dropped — also when
    /// another connection has taken over its slot.
    #[test]
    fn a_leader_whose_client_hung_up_still_lands_its_flight() {
        let origin = Scripted::spawn();
        let proxy = LiveProxy::spawn(origin.proxy(LivePolicy::Ttl(24))).unwrap();
        let file = proxy.shared.resolve("/cold");

        // A plain hangup is honoured only after the outstanding response
        // is written; a reset closes at once. Dropping a socket with
        // unread bytes (the answer to `/unread`) sends one.
        let mut leader = connect(&proxy);
        leader.write_request(&Request::get("/unread")).unwrap();
        origin.serve_next("/unread", 8);
        leader.write_request(&Request::get("/cold")).unwrap();
        let fetch = origin.arrival();
        let mut follower = connect(&proxy);
        follower.write_request(&Request::get("/cold")).unwrap();
        await_until("the follower to join the flight", || {
            let st = proxy.shared.shard(file).lock();
            st.in_flight.get(&file).map(Vec::len) == Some(1)
        });
        drop(leader);
        await_until("the leader's connection to close", || {
            proxy.open_conns() == 1
        });
        // The successor takes the leader's slot (an answered exchange
        // proves it is in it) and must never see the leader's answer.
        let mut successor = connect(&proxy);
        get(&mut successor, "/unread", 8);

        fetch.answer.send(Answer::Ok(256)).unwrap();
        expect(&mut follower, 256);
        get(&mut successor, "/cold", 256);
        // The upstream socket is still in working order.
        successor.write_request(&Request::get("/next")).unwrap();
        origin.serve_next("/next", 4);
        expect(&mut successor, 4);

        let snap = proxy.shutdown();
        assert_eq!(snap.cache.requests(), 6, "every request was concluded");
        assert_eq!((snap.cache.misses, snap.cache.fresh_hits), (3, 3));
        assert_eq!((snap.upstream_dials, snap.upstream_reuses), (1, 2));
    }

    /// Pipelined requests on one connection answer in request order even
    /// though hits are answered inline and validations go by the origin:
    /// nothing behind a parked request is so much as parsed until it is
    /// answered.
    #[test]
    fn a_pipelined_hit_behind_a_parked_validation_answers_in_order() {
        let origin = Scripted::spawn();
        let cfg = origin.proxy(LivePolicy::Ttl(24));
        let clock = cfg.clock.clone();
        let proxy = LiveProxy::spawn(cfg).unwrap();
        let mut conn = connect(&proxy);
        // `/old` outlives its TTL; `/new` is fetched after that.
        conn.write_request(&Request::get("/old")).unwrap();
        origin.serve_next("/old", 10);
        expect(&mut conn, 10);
        clock.advance_to(t(10 + 25 * 3600));
        conn.write_request(&Request::get("/new")).unwrap();
        origin.serve_next("/new", 20);
        expect(&mut conn, 20);

        let mut wire = Vec::new();
        for path in ["/new", "/old", "/new", "/old", "/new"] {
            wire.extend_from_slice(&Request::get(path).to_bytes());
        }
        conn.stream().write_all(&wire).unwrap();
        // The hit in front of the validation is out before the origin
        // has said anything; the three behind it are not.
        expect(&mut conn, 20);
        let validation = origin.arrival();
        assert_eq!(
            (validation.path.as_str(), validation.conditional),
            ("/old", true)
        );
        validation.answer.send(Answer::NotModified).unwrap();
        for len in [10, 20, 10, 20] {
            expect(&mut conn, len);
        }

        let snap = proxy.shutdown();
        assert_eq!(snap.cache.validations_not_modified, 1);
        // The second `/old` is a hit on the copy just revalidated.
        assert_eq!((snap.cache.misses, snap.cache.fresh_hits), (2, 5));
    }

    /// Two reactors, one shard: reactor 0 owns the shard's socket. A
    /// leader reactor 1 accepted crosses to reactor 0 for its exchange
    /// and back for its answer; a follower on the other reactor than
    /// the one its flight lands on is woken through the mailbox.
    #[test]
    fn leaders_and_followers_on_different_reactors_meet_through_the_mailbox() {
        let origin = Scripted::spawn();
        let (probe, accepted) = Accepts::probe();
        let mut cfg = origin.proxy(LivePolicy::Ttl(24));
        cfg.reactor_threads = 2;
        cfg.probe = probe;
        let proxy = LiveProxy::spawn(cfg).unwrap();
        let [mut on0, mut on1] = conn_on_each_reactor(&accepted, || connect(&proxy));

        let waiting = |path: &str| {
            let file = proxy.shared.resolve(path);
            let st = proxy.shared.shard(file).lock();
            st.in_flight.get(&file).map(Vec::len)
        };
        for (path, lead) in [("/x", 0), ("/y", 1)] {
            let (leader, follower) = match lead {
                0 => (&mut on0, &mut on1),
                _ => (&mut on1, &mut on0),
            };
            leader.write_request(&Request::get(path)).unwrap();
            let fetch = origin.arrival();
            follower.write_request(&Request::get(path)).unwrap();
            await_until("the follower to join the flight", || {
                waiting(path) == Some(1)
            });
            fetch.answer.send(Answer::Ok(100)).unwrap();
            expect(leader, 100);
            expect(follower, 100);
        }
        let snap = proxy.shutdown();
        assert_eq!((snap.cache.misses, snap.cache.fresh_hits), (2, 2));
        assert_eq!((snap.upstream_dials, snap.upstream_reuses), (1, 1));
    }

    /// A control peer playing the origin of an invalidation proxy's
    /// channel: it writes what the test tells it to, when it does — an empty
    /// message hangs up — and reports every line the proxy writes, a
    /// fetch by its request line.
    fn withholding_control_peer() -> (
        SocketAddr,
        mpsc::Receiver<String>,
        mpsc::Sender<Vec<u8>>,
        JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (seen_tx, seen) = mpsc::channel();
        let (say, said) = mpsc::channel::<Vec<u8>>();
        let peer = thread::spawn(move || {
            use std::io::{BufRead, BufReader};
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            // Both ends when the test's do, or the proxy hangs up.
            let reporter = thread::spawn(move || {
                let mut lines = BufReader::new(stream).lines().map_while(Result::ok);
                while let Some(line) = lines.next() {
                    if line.starts_with("GET ") {
                        // The rest of the head, up to its blank line.
                        while lines.next().is_some_and(|l| !l.is_empty()) {}
                    }
                    if seen_tx.send(line).is_err() {
                        return;
                    }
                }
            });
            while let Ok(bytes) = said.recv() {
                if bytes.is_empty() {
                    break;
                }
                writer.write_all(&bytes).unwrap();
            }
            let _ = writer.shutdown(std::net::Shutdown::Both);
            reporter.join().unwrap();
        });
        (addr, seen, say, peer)
    }

    /// A proxy under invalidation whose control peer is played by the
    /// test. Its data origin is a [`Scripted`] one that must hear
    /// nothing: every fetch it stores travels on the channel.
    struct Withheld {
        origin: Scripted,
        proxy: LiveProxy,
        commands: mpsc::Receiver<String>,
        say: mpsc::Sender<Vec<u8>>,
        peer: JoinHandle<()>,
    }

    impl Withheld {
        fn spawn(store: StoreKind) -> Withheld {
            Self::spawn_with_budget(store, DEFAULT_READ_BUDGET_TICKS)
        }

        fn spawn_with_budget(store: StoreKind, budget_ticks: u32) -> Withheld {
            let origin = Scripted::spawn();
            let (control, commands, say, peer) = withholding_control_peer();
            let mut cfg = origin.proxy(LivePolicy::Invalidation);
            cfg.origin_control = control;
            cfg.store = store;
            let proxy = LiveProxy::spawn_with_budget(cfg, budget_ticks).unwrap();
            Withheld {
                origin,
                proxy,
                commands,
                say,
                peer,
            }
        }

        fn next_command(&self) -> String {
            self.commands
                .recv_timeout(Duration::from_secs(10))
                .expect("a line on the control channel")
        }

        /// The next thing on the channel is a plain GET of `path`.
        fn expect_fetch(&self, path: &str) {
            assert_eq!(self.next_command(), format!("GET {path} HTTP/1.0"));
        }

        /// Write `text` to the proxy.
        fn say(&self, text: &str) {
            self.say.send(text.as_bytes().to_vec()).unwrap();
        }

        /// Answer the fetch at the head of the proxy's FIFO: `200`,
        /// `Last-Modified` zero, `len` bytes.
        fn reply(&self, len: usize) {
            self.say.send(ok_reply(len)).unwrap();
        }

        /// The proxy has closed the channel: the peer heard its hang-up.
        fn expect_hung_up(&self) {
            let heard = self.commands.recv_timeout(Duration::from_secs(10));
            assert_eq!(heard, Err(mpsc::RecvTimeoutError::Disconnected));
        }

        /// Requests parked on `path`'s flight (`None`: no flight).
        fn waiting(&self, path: &str) -> Option<usize> {
            let file = self.proxy.shared.resolve(path);
            let st = self.proxy.shared.shard(file).lock();
            st.in_flight.get(&file).map(Vec::len)
        }

        /// `INVALIDATE`s counted as delivered so far.
        fn delivered(&self) -> u64 {
            let shards = self.proxy.shared.shards.iter();
            shards.map(|s| s.lock().engine.tally().notices).sum()
        }

        /// Open a connection and send a GET for `path` on it, which the
        /// proxy fetches on the channel.
        fn ask(&self, path: &str) -> HttpConn {
            let mut conn = connect(&self.proxy);
            conn.write_request(&Request::get(path)).unwrap();
            self.expect_fetch(path);
            conn
        }

        /// [`ask`](Self::ask), and answer the fetch with `len` bytes.
        fn fetch(&self, path: &str, len: usize) -> HttpConn {
            let conn = self.ask(path);
            self.reply(len);
            conn
        }

        /// Open a connection and park a GET for `path` on the flight
        /// already in progress.
        fn follow(&self, path: &str) -> HttpConn {
            let before = self.waiting(path).expect("a flight to follow");
            let mut conn = connect(&self.proxy);
            conn.write_request(&Request::get(path)).unwrap();
            await_until("the follower to join the flight", || {
                self.waiting(path) == Some(before + 1)
            });
            conn
        }

        fn finish(self) -> ProxySnapshot {
            let snap = self.proxy.shutdown();
            drop(self.say);
            self.peer.join().unwrap();
            assert_eq!(snap.upstream_dials, 0, "an exchange left the channel");
            assert!(self.origin.arrivals.try_recv().is_err());
            snap
        }
    }

    fn ok_reply(len: usize) -> Vec<u8> {
        Response::ok(wall_date(t(10)), wall_date(t(0)), len as u64).to_bytes(&vec![7u8; len])
    }

    /// The proxy hung up on `conn` without answering.
    fn expect_failed(conn: &mut HttpConn) {
        let hung_up = conn.read_response().unwrap_err();
        assert_eq!(hung_up.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A cold miss into a full store is answered with its reply: nothing
    /// it displaced is waited for. Its `UNSUBSCRIBE`s follow on the
    /// channel unsent, in eviction order, and with nothing else to write
    /// the reactor's next idle tick takes them.
    #[test]
    fn a_cold_miss_that_evicts_is_answered_at_once_and_its_unsubscribes_follow() {
        let w = Withheld::spawn(StoreKind::Lru(100));
        for path in ["/v1", "/v2"] {
            let mut conn = w.fetch(path, 40);
            expect(&mut conn, 40);
        }
        let mut new = w.fetch("/new", 90);
        expect(&mut new, 90);
        let answered = Instant::now();
        assert_eq!(w.next_command(), "UNSUBSCRIBE /v1");
        assert_eq!(w.next_command(), "UNSUBSCRIBE /v2");
        let waited = answered.elapsed();
        assert!(waited < POLL_TICK * 2, "unsent for {waited:?}");

        assert!(w.commands.try_recv().is_err(), "two lines, no more");
        let snap = w.finish();
        assert_eq!((snap.cache.misses, snap.evictions), (3, 2));
    }

    /// The origin picks a notice's targets from its ledger, which a
    /// shard's unsent `UNSUBSCRIBE` has not reached. A notice that crosses
    /// one finds the file gone: the shard writes the line, then `NACK`,
    /// and counts nothing (the origin retracts the notice). A notice for
    /// the entry the same miss inserted is `ACK`ed and marks it, so the
    /// next request for it refetches.
    #[test]
    fn a_notice_that_crosses_an_unsent_unsubscribe_is_nacked_and_not_counted() {
        let w = Withheld::spawn(StoreKind::Lru(100));
        let mut old = w.fetch("/old", 60);
        expect(&mut old, 60);
        let mut new = w.fetch("/new", 50);
        expect(&mut new, 50);

        w.say("INVALIDATE /old\n");
        assert_eq!(w.next_command(), "UNSUBSCRIBE /old");
        assert_eq!(w.next_command(), "NACK");
        assert_eq!(w.delivered(), 0);

        w.say("INVALIDATE /new\n");
        assert_eq!(w.next_command(), "ACK");
        assert_eq!(w.delivered(), 1);
        new.write_request(&Request::get("/new")).unwrap();
        w.expect_fetch("/new");
        w.reply(51);
        expect(&mut new, 51);

        assert!(w.commands.try_recv().is_err());
        let snap = w.finish();
        assert_eq!(snap.invalidations_delivered, 1);
        assert_eq!((snap.cache.misses, snap.evictions), (3, 1));
    }

    /// An eviction's `UNSUBSCRIBE /v` and a later miss's `GET /v` reach
    /// the origin in that order — the lines are appended on the shard's
    /// thread in the order its work is done — so the origin unsubscribes,
    /// then resubscribes: `/v` ends held and subscribed, and its next
    /// notice is `ACK`ed.
    #[test]
    fn an_unsubscribe_reaches_the_origin_ahead_of_a_later_fetch_of_its_file() {
        let w = Withheld::spawn(StoreKind::Lru(100));
        let mut v = w.fetch("/v", 50);
        expect(&mut v, 50);
        let mut new = w.fetch("/new", 90);
        expect(&mut new, 90);

        v.write_request(&Request::get("/v")).unwrap();
        assert_eq!(w.next_command(), "UNSUBSCRIBE /v");
        w.expect_fetch("/v");
        w.reply(50);
        expect(&mut v, 50);
        w.say("INVALIDATE /v\n");
        assert_eq!(w.next_command(), "UNSUBSCRIBE /new");
        assert_eq!(w.next_command(), "ACK");

        let snap = w.finish();
        assert_eq!(snap.invalidations_delivered, 1);
        assert_eq!((snap.cache.misses, snap.evictions), (3, 2));
    }

    /// A leader whose fetch fails with the channel up — here refused at a
    /// saturated shard, its `GET` never sent — may leave the origin
    /// tracking a file the shard does not hold: subscribed by an earlier
    /// fetch, and evicted while this one was out (`fetching` kept that
    /// eviction quiet). The failure settles the ledger as a reply would:
    /// the leader's answer carries the file's `UNSUBSCRIBE`, for the
    /// shard's unsent lines, and the file is out of `fetching`.
    #[test]
    fn a_leader_whose_fetch_fails_unsubscribes_the_file_it_does_not_hold() {
        let w = Withheld::spawn(StoreKind::Unbounded);
        let shared = &w.proxy.shared;
        let file = shared.resolve("/f");
        {
            // What `evaluate` registers for a leader.
            let mut st = shared.shard(file).lock();
            st.in_flight.insert(file, Vec::new());
            st.fetching.insert(file);
        }
        let req = Decided {
            asked: Asked {
                file,
                class: 0,
                now: t(10),
            },
            path: "/f".to_string(),
            leads: true,
            sent: 0,
        };
        let parked = Parked {
            req,
            stage: Stage::Fetching,
        };
        let refused = io::Error::new(io::ErrorKind::WouldBlock, "upstream saturated");
        let mut woken = Work::new();
        let Step::Control {
            lines,
            answer: Err(failed),
            ..
        } = shared.resume(parked, Err(refused), &mut woken)
        else {
            panic!("the failure asked for no UNSUBSCRIBE");
        };
        assert_eq!(lines, b"UNSUBSCRIBE /f\n");
        assert_eq!(failed.kind(), io::ErrorKind::WouldBlock);
        let st = shared.shard(file).lock();
        assert!(!st.fetching.contains(&file), "/f is still being fetched");
        assert!(!st.in_flight.contains_key(&file) && woken.is_empty());
        drop(st);
        w.finish();
    }

    /// Nothing falls between a fetch and its subscription: a reply and
    /// the `INVALIDATE` of a modification made right after it arrive in
    /// one write and are applied in line order — the copy is inserted,
    /// then marked invalid — so the next request refetches the new
    /// version instead of serving the old one as fresh.
    #[test]
    fn a_reply_with_its_invalidation_behind_it_leaves_the_copy_invalid() {
        let w = Withheld::spawn(StoreKind::Unbounded);
        let mut conn = connect(&w.proxy);
        conn.write_request(&Request::get("/f")).unwrap();
        w.expect_fetch("/f");
        let mut both = ok_reply(10);
        both.extend_from_slice(b"INVALIDATE /f\n");
        w.say.send(both).unwrap();
        expect(&mut conn, 10);
        assert_eq!(w.next_command(), "ACK");

        conn.write_request(&Request::get("/f")).unwrap();
        w.expect_fetch("/f");
        w.reply(11);
        expect(&mut conn, 11);
        let snap = w.finish();
        assert_eq!(snap.invalidations_delivered, 1);
        assert_eq!((snap.cache.misses, snap.cache.fresh_hits), (2, 0));
    }

    /// A body the store rejects as oversized was subscribed by its fetch
    /// but never resident: the engine names it among the victims, and
    /// its own `UNSUBSCRIBE` goes out ahead of the shard's next fetch —
    /// even when that is the refetch of a request that waited on the
    /// flight, decided as the leader's answer is: the leader's step is
    /// carried out before the steps it woke.
    #[test]
    fn an_oversized_body_unsubscribes_what_its_fetch_subscribed() {
        let w = Withheld::spawn(StoreKind::Lru(100));
        let mut leader = w.ask("/huge");
        let mut follower = w.follow("/huge");
        w.reply(500);
        expect(&mut leader, 500);
        assert_eq!(w.next_command(), "UNSUBSCRIBE /huge");
        w.expect_fetch("/huge");
        w.reply(500);
        expect(&mut follower, 500);
        follower.write_request(&Request::get("/small")).unwrap();
        assert_eq!(w.next_command(), "UNSUBSCRIBE /huge");
        w.expect_fetch("/small");
        w.reply(50);
        expect(&mut follower, 50);
        let snap = w.finish();
        assert_eq!((snap.cache.misses, snap.evictions), (3, 0));
    }

    /// A refetch pipelined behind a reply that evicts its file settles
    /// the file's subscription itself. Its `GET` is ahead of anything the
    /// eviction could say, so an `UNSUBSCRIBE` then would leave the copy
    /// the refetch brings in never announced again. The refetch's reply
    /// decides: a copy kept stays subscribed, a `404` is unsubscribed.
    #[test]
    fn a_victim_whose_refetch_is_out_is_settled_by_that_refetch() {
        let w = Withheld::spawn(StoreKind::Fifo(100));
        let mut f = w.fetch("/f", 40);
        expect(&mut f, 40);
        // `/f` is invalidated, and refetched on `f` behind a fetch of
        // `first`. The `ACK` is the next line: no `UNSUBSCRIBE /f` was
        // left unsent ahead of it.
        fn refetch_behind(w: &Withheld, f: &mut HttpConn, first: &str) -> HttpConn {
            w.say("INVALIDATE /f\n");
            assert_eq!(w.next_command(), "ACK");
            let conn = w.ask(first);
            f.write_request(&Request::get("/f")).unwrap();
            w.expect_fetch("/f");
            conn
        }

        // `/g` evicts `/f`, the oldest; the refetch keeps its copy.
        let mut g = refetch_behind(&w, &mut f, "/g");
        w.reply(70);
        expect(&mut g, 70);
        w.reply(20);
        expect(&mut f, 20);
        f.write_request(&Request::get("/f")).unwrap();
        expect(&mut f, 20);

        // `/h` evicts `/g` and `/f`; the refetch finds `/f` gone.
        let mut h = refetch_behind(&w, &mut f, "/h");
        w.reply(90);
        expect(&mut h, 90);
        let gone = Response::not_found(wall_date(t(10))).to_bytes(&[]);
        w.say.send(gone).unwrap();
        assert_eq!(f.read_response().unwrap().0.status, Status::NotFound);
        assert_eq!(w.next_command(), "UNSUBSCRIBE /g");
        assert_eq!(w.next_command(), "UNSUBSCRIBE /f");

        assert!(w.commands.try_recv().is_err());
        let snap = w.finish();
        assert_eq!((snap.cache.misses, snap.cache.fresh_hits), (5, 1));
        assert_eq!(snap.evictions, 3);
    }

    /// An uncacheable forward is never stored, so the origin has nothing
    /// to track: it rides the channel marked `FORWARD`, the origin's
    /// `200` subscribes nothing, and no `UNSUBSCRIBE` follows it.
    #[test]
    fn a_forward_rides_the_channel_and_subscribes_nothing() {
        // The first path seen gets id 0: class 1, uncacheable.
        let uncacheable =
            |cfg: &mut ProxyConfig| (cfg.classes, cfg.uncacheable_mask) = (vec![1], 1 << 1);
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/cgi", t(0), 30));
        let clock = LiveClock::virtual_at(t(10));
        let origin = LiveOrigin::spawn(OriginConfig::new(Arc::new(pop), clock.clone())).unwrap();
        let (data, control) = (origin.data_addr(), origin.control_addr());
        let mut cfg = ProxyConfig::new(data, control, LivePolicy::Invalidation, clock);
        uncacheable(&mut cfg);
        let proxy = LiveProxy::spawn(cfg).unwrap();
        let mut conn = connect(&proxy);
        get(&mut conn, "/cgi", 30);
        get(&mut conn, "/cgi", 30);
        assert_eq!(origin.subscription_count(), 0);
        let snap = proxy.shutdown();
        assert_eq!((snap.upstream_dials, snap.upstream_reuses), (0, 2));
        assert_eq!((snap.cache.misses, snap.cache.fresh_hits), (2, 0));
        assert_eq!(origin.shutdown().document_requests, 2);

        // On the wire: the marker ahead of each `GET`, and nothing after.
        let scripted = Scripted::spawn();
        let (control, commands, say, peer) = withholding_control_peer();
        let mut cfg = scripted.proxy(LivePolicy::Invalidation);
        cfg.origin_control = control;
        uncacheable(&mut cfg);
        let proxy = LiveProxy::spawn(cfg).unwrap();
        let mut conn = connect(&proxy);
        for len in [30, 31] {
            conn.write_request(&Request::get("/cgi")).unwrap();
            for line in ["FORWARD", "GET /cgi HTTP/1.0"] {
                assert_eq!(
                    commands.recv_timeout(Duration::from_secs(10)).unwrap(),
                    line
                );
            }
            say.send(ok_reply(len)).unwrap();
            expect(&mut conn, len);
        }
        proxy.shutdown();
        drop(say);
        peer.join().unwrap();
        assert!(commands.try_recv().is_err(), "a line after the replies");
        assert!(
            scripted.arrivals.try_recv().is_err(),
            "the data port heard of it"
        );
    }

    /// A control channel that hangs up with a fetch outstanding fails
    /// that fetch — it is never resumed as if answered — which costs its
    /// client the connection and lands the flight: the follower parked on
    /// it leads the next fetch, which fails too, the shard having no
    /// channel left to fetch on.
    #[test]
    fn a_control_channel_that_hangs_up_mid_fetch_fails_the_request_and_its_flight() {
        let w = Withheld::spawn(StoreKind::Unbounded);
        let mut leader = connect(&w.proxy);
        leader.write_request(&Request::get("/f")).unwrap();
        w.expect_fetch("/f");
        let mut follower = w.follow("/f");

        w.say("");
        expect_failed(&mut leader);
        expect_failed(&mut follower);
        assert_eq!(w.waiting("/f"), None, "no flight outlives its leader");
        let snap = w.finish();
        assert_eq!(snap.cache.requests(), 0, "nothing was concluded");
    }

    /// A fetch the origin never answers is failed by the stall budget a
    /// data exchange gets: its client loses the connection, and the
    /// channel goes with it — the replies behind could no longer be
    /// matched to their fetches.
    #[test]
    fn a_fetch_the_origin_never_answers_is_failed_by_the_tick_budget() {
        let w = Withheld::spawn_with_budget(StoreKind::Unbounded, 3);
        let mut conn = connect(&w.proxy);
        conn.write_request(&Request::get("/f")).unwrap();
        w.expect_fetch("/f");
        expect_failed(&mut conn);
        w.expect_hung_up();
        assert_eq!(w.waiting("/f"), None);
        let snap = w.finish();
        assert_eq!(snap.cache.requests(), 0, "nothing was concluded");
    }

    /// Once the channel is gone — here, closed on a protocol error — the
    /// shard's every miss fails at once, and no data connection is
    /// dialled in its place: a shard that has lost its channel never
    /// fetches unsubscribed (`upstream::tests` reads the error, which
    /// names the lost channel).
    #[test]
    fn after_the_control_channel_is_lost_a_miss_fails_and_dials_nothing() {
        let w = Withheld::spawn(StoreKind::Unbounded);
        let mut conn = w.fetch("/a", 10);
        expect(&mut conn, 10);
        w.say("NONSENSE\n");
        w.expect_hung_up();
        for path in ["/b", "/c"] {
            let mut conn = connect(&w.proxy);
            conn.write_request(&Request::get(path)).unwrap();
            expect_failed(&mut conn);
        }
        let snap = w.finish();
        assert_eq!(snap.cache.misses, 1);
    }
}
