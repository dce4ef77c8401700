//! The live origin server.
//!
//! [`LiveOrigin`] serves an `originserver::FilePopulation` over real TCP:
//! a **data port** speaking framed HTTP/1.0 (bodies, `If-Modified-Since`
//! → `304`, `Last-Modified`/`Expires` stamps) and a **control port**
//! carrying the invalidation protocol of `control`. All request
//! accounting flows through the existing [`OriginServer`], so
//! [`LiveOrigin::shutdown`] returns the same
//! [`ServerLoad`](simcore::ServerLoad) counters the simulator reports.
//!
//! Modifications are scripted: the population's version history *is* the
//! modification schedule, and a driver (the load generator, or the wall
//! clock loop in `wcc serve`) publishes them by calling
//! [`LiveOrigin::advance_to`]. Each due modification runs
//! `notify_modification` and has `INVALIDATE` pushed to every subscribed
//! proxy, waiting for all of their answers before the next event — the
//! live equivalent of the simulator's instantaneous callbacks; a notice a
//! shard answers `NACK` (its `UNSUBSCRIBE` was on the way) is retracted.
//!
//! Both ports are served on every thread of the origin's own reactor
//! (`reactor`), a control peer by the thread that accepted it
//! (`control::PeerIo`), and the origin has no other thread. A proxy
//! shard's requests arrive on its control channel, where `respond`
//! subscribes it to what it answers `200`, bar a forward. Everything
//! here that runs on a reactor thread is in-memory bookkeeping under the
//! [`OriginServer`] mutex, never held across socket IO. The one wait is
//! the publisher's, on the thread that called `advance_to`: targets are
//! collected under the lock, the notice is handed to the reactor threads
//! that hold them after it is released, and the caller sleeps until
//! every target has answered or gone.

use std::collections::HashMap;
use std::convert::Infallible;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use httpsim::{Request, Response};
use originserver::{CondResult, FilePopulation, OriginServer, Version};
use simcore::{CacheId, FileId, ServerLoad, SimDuration, SimTime};
use wcc_obs::{ObsEvent, ProbeHandle, ServerOpKind};
use wcc_sync::RankedMutex;

use crate::clock::{sim_instant, wall_date, LiveClock};
use crate::control::{ControlMsg, PeerEvent};
use crate::netio::DEFAULT_READ_BUDGET_TICKS;
use crate::reactor::{Arrived, Dispatch, Reactor, ReactorConfig, Step, Ticket, Work};

/// Configuration for [`LiveOrigin::spawn`].
#[derive(Debug, Clone)]
pub struct OriginConfig {
    /// The file set to serve, with its scripted modification history.
    pub population: Arc<FilePopulation>,
    /// Per-file document class (empty ⇒ every file is class 0).
    pub classes: Vec<usize>,
    /// Per-class origin-assigned `Expires` lifetime, indexed by class.
    pub class_expires: Vec<Option<SimDuration>>,
    /// The clock requests are stamped against.
    pub clock: LiveClock,
    /// Only modifications in `[window_start, window_end]` are published —
    /// the same window the simulator schedules (`run` drops modification
    /// events outside the workload's span).
    pub window_start: SimTime,
    /// See `window_start`.
    pub window_end: SimTime,
    /// Bind address for the data (HTTP) listener; port 0 picks an
    /// ephemeral port.
    pub data_bind: String,
    /// Bind address for the control (invalidation) listener.
    pub control_bind: String,
    /// Observation hook for server operations, modifications, and
    /// invalidation fan-out. Inactive by default; recording happens in
    /// memory only (never across socket IO).
    pub probe: ProbeHandle,
    /// Reactor (event-loop) threads serving the data port.
    pub reactor_threads: usize,
    /// Concurrent data-connection cap; accepts beyond it are shed.
    pub max_conns: usize,
}

impl OriginConfig {
    /// Serve `population` on loopback ephemeral ports with no document
    /// classes and the whole timeline as the modification window.
    pub fn new(population: Arc<FilePopulation>, clock: LiveClock) -> Self {
        OriginConfig {
            population,
            classes: Vec::new(),
            class_expires: Vec::new(),
            clock,
            window_start: SimTime::ZERO,
            window_end: SimTime::MAX,
            data_bind: "127.0.0.1:0".to_string(),
            control_bind: "127.0.0.1:0".to_string(),
            probe: ProbeHandle::none(),
            reactor_threads: 1,
            max_conns: DEFAULT_MAX_CONNS,
        }
    }
}

/// Default cap on concurrently open data connections (per server); a
/// [`crate::LiveStack`]'s proxy admits this many clients.
pub const DEFAULT_MAX_CONNS: usize = 16 * 1024;

/// Rank of the scripted-modification schedule: the root of the origin's
/// lock order, held across a full invalidation round-trip so events are
/// published strictly in schedule order (audited r8 allowance in
/// [`LiveOrigin::advance_to`]); the reactor's mailbox is taken under it.
const MODS_RANK: u32 = 30;

/// Rank of the accounting [`OriginServer`]; only ever held for
/// in-memory bookkeeping.
const SERVER_RANK: u32 = 35;

#[derive(Debug)]
struct OriginShared {
    server: RankedMutex<OriginServer>,
    population: Arc<FilePopulation>,
    path_ids: HashMap<String, FileId>,
    classes: Vec<usize>,
    class_expires: Vec<Option<SimDuration>>,
    clock: LiveClock,
    probe: ProbeHandle,
}

impl OriginShared {
    fn class_of(&self, file: FileId) -> usize {
        self.classes.get(file.index()).copied().unwrap_or(0)
    }

    fn attach_expires(&self, file: FileId, now: SimTime, resp: Response) -> Response {
        match self
            .class_expires
            .get(self.class_of(file))
            .copied()
            .flatten()
        {
            Some(d) => resp.with_expires(wall_date(now.saturating_add(d))),
            None => resp,
        }
    }

    fn full_response(&self, file: FileId, v: Version, now: SimTime) -> (Response, Vec<u8>) {
        let resp = Response::ok(wall_date(now), wall_date(v.modified_at), v.size);
        (self.attach_expires(file, now, resp), synth_body(file, v))
    }

    /// Answer one request — with `subscriber`, a control peer's fetch: a
    /// `200` subscribes it under the lock acquisition (and clock read)
    /// that picks the version, which no publication can come between.
    fn respond(&self, req: &Request, subscriber: Option<CacheId>) -> (Response, Vec<u8>) {
        let Some(&file) = self.path_ids.get(&req.path) else {
            return (Response::not_found(wall_date(self.clock.now())), Vec::new());
        };
        let mut server = self.server.lock();
        let now = self.clock.now();
        // Pre-creation requests 404 (the accounting server panics on
        // them; a real origin just doesn't have the file yet).
        if self.population.get(file).version_at(now).is_none() {
            return (Response::not_found(wall_date(now)), Vec::new());
        }
        let (kind, result) = match req.if_modified_since {
            None => {
                let v = server.handle_get(file, now);
                (ServerOpKind::DocumentRequest, CondResult::Modified(v))
            }
            Some(ims) => {
                let result = server.handle_conditional_get(file, sim_instant(ims), now);
                (ServerOpKind::ValidationQuery, result)
            }
        };
        if let (Some(cache), CondResult::Modified(_)) = (subscriber, result) {
            server.subscribe(cache, file);
        }
        drop(server);
        self.server_op(now, kind);
        match result {
            CondResult::NotModified => {
                let resp = self.attach_expires(file, now, Response::not_modified(wall_date(now)));
                (resp, Vec::new())
            }
            CondResult::Modified(v) => self.full_response(file, v, now),
        }
    }

    /// Account for one modification under the server lock; the
    /// subscribers to tell once it is released.
    fn notify(&self, file: FileId) -> Vec<CacheId> {
        let targets = self.server.lock().notify_modification(file);
        let now = self.clock.now();
        self.probe.record(now, ObsEvent::Modification { file });
        self.probe.record(
            now,
            ObsEvent::Invalidation {
                file,
                fanout: targets.len() as u32,
            },
        );
        for _ in &targets {
            self.server_op(now, ServerOpKind::InvalidationSent);
        }
        targets
    }

    /// One origin operation, as the probe counts them.
    fn server_op(&self, now: SimTime, kind: ServerOpKind) {
        self.probe.record(now, ObsEvent::ServerOp { kind });
    }
}

/// The origin's reactor dispatcher: `respond` and the control commands
/// are pure in-memory accounting (no IO, no blocking waits), so `begin`
/// finishes every request on the reactor thread and there is nothing to
/// park.
impl Dispatch for Arc<OriginShared> {
    type Parked = Infallible;

    fn begin(&self, _ticket: Ticket, req: Request) -> Step<Infallible> {
        let (resp, body) = self.respond(&req, None);
        Step::Done(resp, Arc::new(body))
    }

    fn resume(
        &self,
        parked: Infallible,
        _arrived: io::Result<Arrived>,
        _woken: &mut Work<Infallible>,
    ) -> Step<Infallible> {
        match parked {}
    }

    fn fetch(&self, req: &Request, subscriber: Option<CacheId>) -> (Response, Vec<u8>) {
        self.respond(req, subscriber)
    }

    fn peer(&self, cache: CacheId, event: PeerEvent<'_>) {
        match event {
            PeerEvent::Unsubscribe(path) => {
                if let Some(&file) = self.path_ids.get(path) {
                    self.server.lock().unsubscribe(cache, file);
                }
            }
            PeerEvent::Nack => {
                self.server.lock().retract_invalidation();
                self.server_op(self.clock.now(), ServerOpKind::InvalidationRetracted);
            }
            PeerEvent::Gone => {
                self.server.lock().unsubscribe_all(cache);
            }
        }
    }
}

/// A running origin server; dropping it (or calling
/// [`LiveOrigin::shutdown`]) stops its reactor threads.
#[derive(Debug)]
pub struct LiveOrigin {
    shared: Arc<OriginShared>,
    /// Scripted modifications still to publish, as an index range into
    /// the population's [`FilePopulation::modifications`].
    /// The mutex serialises concurrent `advance_to` callers so events
    /// are always published in schedule order.
    mods: RankedMutex<Range<usize>>,
    /// The next scripted modification instant in seconds (`u64::MAX`
    /// once the schedule is exhausted). Written only under the `mods`
    /// lock; read lock-free by `advance_to` so the per-request clock
    /// advance — by far the common case, with nothing due — never
    /// serialises client threads on the schedule mutex.
    next_due: AtomicU64,
    data_addr: SocketAddr,
    control_addr: SocketAddr,
    reactor: Reactor<Arc<OriginShared>>,
}

impl LiveOrigin {
    /// Bind both listeners and start serving.
    pub fn spawn(config: OriginConfig) -> io::Result<LiveOrigin> {
        let data_listener = TcpListener::bind(&config.data_bind)?;
        let control_listener = TcpListener::bind(&config.control_bind)?;
        let data_addr = data_listener.local_addr()?;
        let control_addr = control_listener.local_addr()?;

        let mods = config
            .population
            .modifications_window(config.window_start, config.window_end);
        let next_due = config.population.modifications()[mods.clone()]
            .first()
            .map_or(u64::MAX, |&(t, _)| t.as_secs());

        let shared = Arc::new(OriginShared {
            server: RankedMutex::new(
                SERVER_RANK,
                "origin.server",
                OriginServer::new(Arc::clone(&config.population)),
            ),
            path_ids: config.population.path_index(),
            population: config.population,
            classes: config.classes,
            class_expires: config.class_expires,
            clock: config.clock,
            probe: config.probe,
        });

        // Both ports run on the epoll reactor; `OriginDispatch` never
        // parks, so it has no upstreams.
        let reactor = Reactor::spawn(
            data_listener,
            Some(control_listener),
            Arc::clone(&shared),
            Vec::new(),
            ReactorConfig {
                reactor_threads: config.reactor_threads,
                max_conns: config.max_conns,
                budget_ticks: DEFAULT_READ_BUDGET_TICKS,
                role: "origin-data",
                probe: shared.probe.clone(),
                clock: shared.clock.clone(),
            },
        )?;

        Ok(LiveOrigin {
            shared,
            mods: RankedMutex::new(MODS_RANK, "origin.mods", mods),
            next_due: AtomicU64::new(next_due),
            data_addr,
            control_addr,
            reactor,
        })
    }

    /// Address of the HTTP data listener.
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// Address of the invalidation control listener.
    pub fn control_addr(&self) -> SocketAddr {
        self.control_addr
    }

    /// Advance the shared clock to `t` and publish every scripted
    /// modification due at or before `t` (in `(instant, file)` order,
    /// each acknowledged by every peer it went to before the next).
    pub fn advance_to(&self, t: SimTime) {
        self.shared.clock.advance_to(t);
        // Fast path: nothing due yet. `next_due` only moves forward, so
        // a stale read can at worst send us to the mutex needlessly —
        // never skip a due event.
        if self.next_due.load(Ordering::SeqCst) > t.as_secs() {
            return;
        }
        let mut left = self.mods.lock();
        let schedule = &self.shared.population.modifications()[..left.end];
        while let Some(&(_, file)) = schedule.get(left.start).filter(|&&(at, _)| at <= t) {
            left.start += 1;
            let targets = self.shared.notify(file);
            if targets.is_empty() {
                continue;
            }
            let path = self.shared.population.get(file).path;
            let line = ControlMsg::Invalidate(path).encode();
            let acked = self.reactor.publish(line, targets);
            // Holding `mods` (the root rank) across the invalidation
            // round-trip is the point: it is what serialises publication
            // in schedule order. Nothing is ever sent: the wait ends when
            // every target has `ACK`ed or gone.
            // wcc-allow: r8 schedule-order publication requires the mods guard across the ACK round-trip
            let _ = acked.recv();
        }
        let due = schedule
            .get(left.start)
            .map_or(u64::MAX, |&(t, _)| t.as_secs());
        self.next_due.store(due, Ordering::SeqCst);
    }

    /// Current subscription count (for tests and the serve status line).
    pub fn subscription_count(&self) -> usize {
        self.shared.server.lock().subscription_count()
    }

    /// Connections currently open on the data reactor (for the soak
    /// driver and tests).
    pub fn open_conns(&self) -> usize {
        self.reactor.open_conns()
    }

    /// Data-port accepts shed at the connection cap.
    pub fn dropped_accepts(&self) -> u64 {
        self.reactor.dropped_accepts()
    }

    /// Stop serving and return the accumulated [`ServerLoad`].
    pub fn shutdown(mut self) -> ServerLoad {
        self.reactor.stop();
        *self.shared.server.lock().load()
    }
}

/// Deterministic body for a file version: an LCG keyed on the file id
/// and the version's modification instant (eight bytes a step), so every
/// server process synthesises identical bytes for the same version.
pub(crate) fn synth_body(file: FileId, v: Version) -> Vec<u8> {
    let mut state = 0xcbf2_9ce4_8422_2325u64
        ^ (file.index() as u64).wrapping_mul(0x0000_0100_0000_01b3)
        ^ v.modified_at.as_secs().wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut out = vec![0u8; (v.size as usize).next_multiple_of(8)];
    for word in out.chunks_exact_mut(8) {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        word.copy_from_slice(&state.to_be_bytes());
    }
    out.truncate(v.size as usize);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::TestPeer;
    use crate::netio::HttpConn;
    use crate::reactor::testing::{conn_on_each_reactor, Accepts};
    use httpsim::Status;
    use originserver::FileRecord;
    use std::net::TcpStream;
    use std::thread;
    use std::time::Duration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn small_origin() -> (LiveOrigin, LiveClock) {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/a.html", t(0), 100));
        let mut b = FileRecord::new("/b.html", t(0), 50);
        b.push_modification(t(1000), 60);
        pop.add(b);
        let clock = LiveClock::virtual_at(t(10));
        let origin = LiveOrigin::spawn(OriginConfig::new(Arc::new(pop), clock.clone())).unwrap();
        (origin, clock)
    }

    fn connect(origin: &LiveOrigin) -> HttpConn {
        HttpConn::new(TcpStream::connect(origin.data_addr()).unwrap()).unwrap()
    }

    fn control(origin: &LiveOrigin) -> TestPeer {
        TestPeer::connect(origin.control_addr())
    }

    /// Publish `/b.html`'s modification with `peer` answering the notice.
    fn publish_acked(origin: &LiveOrigin, peer: &mut TestPeer) {
        // From a helper thread: advance_to blocks on our ACK.
        thread::scope(|s| {
            let h = s.spawn(|| origin.advance_to(t(1500)));
            assert_eq!(peer.hear(), "INVALIDATE /b.html\n");
            peer.say("ACK\n");
            h.join().unwrap();
        });
    }

    /// Long enough for a publisher that was going to return to have.
    const SETTLE: Duration = Duration::from_millis(150);

    #[test]
    fn serves_bodies_with_stamps_and_404s_unknown_paths() {
        let (origin, _clock) = small_origin();
        let mut conn = connect(&origin);

        conn.write_request(&Request::get("/a.html")).unwrap();
        let (resp, body) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content_length, Some(100));
        assert_eq!(body.len(), 100);
        assert_eq!(resp.last_modified, Some(wall_date(t(0))));
        assert_eq!(resp.date, wall_date(t(10)));

        conn.write_request(&Request::get("/missing.html")).unwrap();
        let (resp, body) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::NotFound);
        assert!(body.is_empty());

        let load = origin.shutdown();
        assert_eq!(load.document_requests, 1);
    }

    #[test]
    fn conditional_get_returns_304_until_modified() {
        let (origin, clock) = small_origin();
        let mut conn = connect(&origin);

        let req = Request::get_if_modified_since("/b.html", wall_date(t(0)));
        conn.write_request(&req).unwrap();
        let (resp, _) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::NotModified);

        // After the scripted modification at t=1000 the same conditional
        // request yields the new version.
        clock.advance_to(t(2000));
        conn.write_request(&req).unwrap();
        let (resp, body) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.last_modified, Some(wall_date(t(1000))));
        assert_eq!(body.len(), 60);

        let load = origin.shutdown();
        assert_eq!(load.validation_queries, 1);
        assert_eq!(load.document_requests, 1);
    }

    #[test]
    fn subscribed_proxy_receives_invalidation_on_advance() {
        let (origin, _clock) = small_origin();
        let mut peer = control(&origin);
        peer.fetch("/b.html");
        assert_eq!(origin.subscription_count(), 1);

        publish_acked(&origin, &mut peer);

        let load = origin.shutdown();
        assert_eq!(load.invalidations_sent, 1);
    }

    /// What arrives together is taken in order — a command is not
    /// answered, and each fetch's reply says that what came before it is
    /// in. A file unsubscribed and then fetched ends subscribed, which is
    /// what a shard's eviction followed by its refetch looks like on the
    /// wire, and the channel carries an invalidation as before.
    #[test]
    fn a_batch_of_fetches_and_commands_is_taken_in_order() {
        let (origin, _clock) = small_origin();
        let mut peer = control(&origin);
        let get = |path: &str| Request::get(path).serialize();
        let unsubscribe = |path: &str| format!("UNSUBSCRIBE {path}\n");
        peer.say(
            &[
                get("/a.html"),
                unsubscribe("/a.html"),
                get("/b.html"),
                unsubscribe("/b.html"),
                get("/b.html"),
            ]
            .concat(),
        );
        for len in [100, 50, 50] {
            assert_eq!(peer.hear_response().1.len(), len);
        }
        assert_eq!(origin.subscription_count(), 1, "/b.html, again");

        // The next thing on the wire is the notice, not another answer.
        publish_acked(&origin, &mut peer);
        assert_eq!(origin.shutdown().invalidations_sent, 1);
    }

    /// A shard that dropped the file before the notice reached it answers
    /// `NACK`: that releases the publisher like an `ACK`, and the notice
    /// is taken back out of the count — and out of the probe's, by a
    /// retraction event, so a fold of the probe equals [`ServerLoad`].
    #[test]
    fn a_nack_releases_the_publisher_and_retracts_its_notice() {
        let mut pop = FilePopulation::new();
        let mut b = FileRecord::new("/b.html", t(0), 50);
        b.push_modification(t(1000), 60);
        pop.add(b);
        let mut config = OriginConfig::new(Arc::new(pop), LiveClock::virtual_at(t(10)));
        let probe = ProbeHandle::buffered(64);
        config.probe = probe.clone();
        let origin = LiveOrigin::spawn(config).unwrap();
        let mut peer = control(&origin);
        peer.fetch("/b.html");

        thread::scope(|s| {
            let h = s.spawn(|| origin.advance_to(t(1500)));
            assert_eq!(peer.hear(), "INVALIDATE /b.html\n");
            thread::sleep(SETTLE);
            assert!(!h.is_finished(), "released before the notice was answered");
            peer.say("UNSUBSCRIBE /b.html\nNACK\n");
            h.join().unwrap();
        });
        assert_eq!(origin.subscription_count(), 0);
        let load = origin.shutdown();
        assert_eq!((load.document_requests, load.invalidations_sent), (1, 0));

        let mut folded = wcc_obs::MetricsProbe::new();
        probe.drain_into(&mut folded);
        let counter = |name| folded.registry().counter(name);
        assert_eq!(counter("server.document_request"), load.document_requests);
        assert_eq!(
            counter("server.invalidation_sent") - counter("server.invalidation_retracted"),
            load.invalidations_sent
        );
        assert_eq!(counter("server.invalidation_retracted"), 1);
    }

    /// The fetch is the subscription. A `GET` on the control port is
    /// answered `200`, counted as one document request, and subscribes
    /// the peer under the lock that picked the version: a modification
    /// published once it is in — the peer has read nothing yet — is
    /// heard after the reply's last byte, and `advance_to` returns only
    /// once that notice is `ACK`ed.
    #[test]
    fn a_fetch_on_the_control_port_subscribes_ahead_of_the_next_notice() {
        let (origin, _clock) = small_origin();
        let mut peer = control(&origin);
        peer.say(&Request::get("/b.html").serialize());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while origin.subscription_count() != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "the fetch never subscribed"
            );
            thread::sleep(Duration::from_millis(2));
        }
        thread::scope(|s| {
            let h = s.spawn(|| origin.advance_to(t(1500)));
            let (resp, body) = peer.hear_response();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(
                (resp.last_modified, body.len()),
                (Some(wall_date(t(0))), 50)
            );
            assert_eq!(peer.hear(), "INVALIDATE /b.html\n");
            thread::sleep(SETTLE);
            assert!(!h.is_finished(), "released before the notice was answered");
            peer.say("ACK\n");
            h.join().unwrap();
        });
        let load = origin.shutdown();
        assert_eq!((load.document_requests, load.invalidations_sent), (1, 1));
    }

    /// An `ACK` or `NACK` with no notice outstanding must not sit in wait
    /// for the next notice and release its publisher early (or retract
    /// its count): it is a protocol error that costs the peer its
    /// channel, and nobody else anything.
    #[test]
    fn an_answer_nobody_is_owed_closes_the_peer_and_releases_no_publisher() {
        let (origin, _clock) = small_origin();
        for answer in ["ACK\n", "NACK\n"] {
            let mut stray = control(&origin);
            stray.say(answer);
            stray.say(&Request::get("/b.html").serialize());
            assert_eq!(stray.hear(), "", "the stray peer is hung up on");
        }
        assert_eq!(origin.subscription_count(), 0);

        let mut good = control(&origin);
        good.fetch("/b.html");
        thread::scope(|s| {
            let h = s.spawn(|| origin.advance_to(t(1500)));
            assert_eq!(good.hear(), "INVALIDATE /b.html\n");
            thread::sleep(SETTLE);
            assert!(!h.is_finished(), "released before the notice was answered");
            good.say("ACK\n");
            h.join().unwrap();
        });
        assert_eq!(origin.shutdown().invalidations_sent, 1);
    }

    /// A notice goes to all of its targets at once, and the publisher
    /// waits for the last of them.
    #[test]
    fn two_peers_both_hold_the_notice_and_the_publisher_waits_for_both() {
        let (origin, _clock) = small_origin();
        let mut first = control(&origin);
        first.fetch("/b.html");
        let mut second = control(&origin);
        second.fetch("/b.html");

        thread::scope(|s| {
            let h = s.spawn(|| origin.advance_to(t(1500)));
            // Neither has answered, and both have it.
            assert_eq!(first.hear(), "INVALIDATE /b.html\n");
            assert_eq!(second.hear(), "INVALIDATE /b.html\n");
            first.say("ACK\n");
            // `first`'s ACK is in: the reply behind it says so.
            first.fetch("/a.html");
            thread::sleep(SETTLE);
            assert!(!h.is_finished(), "released with one ACK of two");
            second.say("ACK\n");
            h.join().unwrap();
        });
        assert_eq!(origin.shutdown().invalidations_sent, 2);
    }

    #[test]
    fn a_peer_that_hangs_up_owing_an_ack_releases_the_publisher() {
        let (origin, _clock) = small_origin();
        let mut peer = control(&origin);
        peer.fetch("/a.html");
        peer.fetch("/b.html");
        assert_eq!(origin.subscription_count(), 2);

        thread::scope(|s| {
            let h = s.spawn(|| origin.advance_to(t(1500)));
            assert_eq!(peer.hear(), "INVALIDATE /b.html\n");
            drop(peer);
            h.join().unwrap();
        });
        assert_eq!(origin.subscription_count(), 0);
        assert_eq!(origin.shutdown().invalidations_sent, 1);
    }

    /// Control peers land on whichever origin reactor accepts them, as
    /// data clients do, each named by a `CacheId` whose residue is its
    /// thread. A notice for peers on both threads is held by every one of
    /// them, and the publisher waits for the answers from both.
    #[test]
    fn control_peers_on_two_reactors_all_hold_the_notice_and_the_publisher_waits_for_both() {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/a.html", t(0), 100));
        let mut b_rec = FileRecord::new("/b.html", t(0), 50);
        b_rec.push_modification(t(1000), 60);
        let b = pop.add(b_rec);
        let (probe, accepted) = Accepts::probe();
        let mut config = OriginConfig::new(Arc::new(pop), LiveClock::virtual_at(t(10)));
        config.reactor_threads = 2;
        config.probe = probe;
        let origin = LiveOrigin::spawn(config).unwrap();
        let mut data = conn_on_each_reactor(&accepted, || connect(&origin));

        // Connect until a peer has subscribed from each reactor.
        let subscribers = || origin.shared.server.lock().subscribers(b);
        let mut peers: Vec<(usize, TestPeer)> = Vec::new();
        while !(0..2).all(|r| peers.iter().any(|&(on, _)| on == r)) {
            assert!(peers.len() < 256, "one reactor accepted every peer");
            let before = subscribers();
            let mut peer = control(&origin);
            peer.fetch("/b.html");
            let cache = subscribers().into_iter().find(|c| !before.contains(c));
            peers.push((cache.unwrap().index() % 2, peer));
        }
        thread::scope(|s| {
            let h = s.spawn(|| origin.advance_to(t(1500)));
            for (_, peer) in &mut peers {
                assert_eq!(peer.hear(), "INVALIDATE /b.html\n");
            }
            // Reactor 0's peers answer; the reply behind each says so.
            for (_, peer) in peers.iter_mut().filter(|(on, _)| *on == 0) {
                peer.say("ACK\n");
                peer.fetch("/a.html");
            }
            thread::sleep(SETTLE);
            assert!(!h.is_finished(), "released with reactor 1's answers owed");
            for (_, peer) in peers.iter_mut().filter(|(on, _)| *on == 1) {
                peer.say("ACK\n");
            }
            h.join().unwrap();
        });
        for conn in &mut data {
            conn.write_request(&Request::get("/b.html")).unwrap();
            let (resp, body) = conn.read_response().unwrap();
            assert_eq!((resp.status, body.len()), (Status::Ok, 60));
        }
        let load = origin.shutdown();
        assert_eq!(load.invalidations_sent, peers.len() as u64);
    }

    /// A fetch marked `FORWARD` is answered like any other — a document
    /// request — and subscribes nothing; a marker followed by anything but
    /// a `GET` costs the peer its channel.
    #[test]
    fn a_marked_fetch_on_the_control_port_subscribes_nothing() {
        let (origin, _clock) = small_origin();
        let mut peer = control(&origin);
        peer.say(&format!("FORWARD\n{}", Request::get("/b.html").serialize()));
        let (resp, body) = peer.hear_response();
        assert_eq!((resp.status, body.len()), (Status::Ok, 50));
        assert_eq!(origin.subscription_count(), 0);
        peer.fetch("/a.html");
        assert_eq!(origin.subscription_count(), 1, "the next fetch subscribes");

        peer.say("FORWARD\nUNSUBSCRIBE /a.html\n");
        assert_eq!(peer.hear(), "", "hung up on");
        assert_eq!(origin.subscription_count(), 0);
        assert_eq!(origin.shutdown().document_requests, 2);
    }

    /// The proxy prices an upstream reply by the bytes its head took on
    /// the wire. For every head this origin writes that is the size the
    /// simulator's costing computes from the parsed response
    /// (`header_size`), which keeps wire-byte totals comparable.
    #[test]
    fn every_head_the_origin_writes_parses_back_to_its_header_size() {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/expiring", t(0), 300));
        pop.add(FileRecord::new("/plain", t(0), 70));
        let mut config = OriginConfig::new(Arc::new(pop), LiveClock::virtual_at(t(100)));
        config.classes = vec![0, 1];
        config.class_expires = vec![Some(SimDuration::from_secs(500)), None];
        let origin = LiveOrigin::spawn(config).unwrap();

        let since = wall_date(t(0));
        for req in [
            Request::get("/expiring"),
            Request::get("/plain"),
            Request::get_if_modified_since("/expiring", since),
            Request::get_if_modified_since("/plain", since),
            Request::get("/missing"),
        ] {
            let (resp, body) = origin.shared.respond(&req, None);
            let wire = resp.to_bytes(&body);
            let (parsed, parsed_body, used) = Response::from_bytes(&wire).unwrap().unwrap();
            let head = (used - parsed_body.len()) as u64;
            assert_eq!(head, resp.header_size(), "{req:?}");
            assert_eq!(head, parsed.header_size(), "{req:?}");
        }
        drop(origin);
    }

    #[test]
    fn expires_header_follows_class_lifetime() {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/x", t(0), 10));
        let clock = LiveClock::virtual_at(t(100));
        let mut config = OriginConfig::new(Arc::new(pop), clock);
        config.classes = vec![0];
        config.class_expires = vec![Some(SimDuration::from_secs(500))];
        let origin = LiveOrigin::spawn(config).unwrap();

        let mut conn = connect(&origin);
        conn.write_request(&Request::get("/x")).unwrap();
        let (resp, _) = conn.read_response().unwrap();
        assert_eq!(resp.expires, Some(wall_date(t(600))));

        conn.write_request(&Request::get_if_modified_since("/x", wall_date(t(0))))
            .unwrap();
        let (resp, _) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::NotModified);
        assert_eq!(resp.expires, Some(wall_date(t(600))));
        drop(origin);
    }

    #[test]
    fn malformed_request_kills_only_its_connection() {
        use std::io::{Read as _, Write as _};
        let (origin, _clock) = small_origin();

        // A healthy persistent connection, established first.
        let mut good = connect(&origin);
        good.write_request(&Request::get("/a.html")).unwrap();
        assert_eq!(good.read_response().unwrap().0.status, Status::Ok);

        // A second connection speaks garbage: the worker must log, close
        // that connection (EOF on our side), and nothing else may die.
        let mut bad = TcpStream::connect(origin.data_addr()).unwrap();
        bad.write_all(b"GARBAGE THAT IS NOT HTTP\r\n\r\n").unwrap();
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);
        assert!(sink.is_empty(), "no response to an unparseable request");

        // The earlier connection still works...
        good.write_request(&Request::get("/a.html")).unwrap();
        assert_eq!(good.read_response().unwrap().0.status, Status::Ok);

        // ...and so do fresh ones.
        let mut fresh = connect(&origin);
        fresh.write_request(&Request::get("/b.html")).unwrap();
        assert_eq!(fresh.read_response().unwrap().0.status, Status::Ok);

        let load = origin.shutdown();
        assert_eq!(load.document_requests, 3);
    }

    #[test]
    fn malformed_control_message_does_not_kill_the_origin() {
        use std::io::{Read as _, Write as _};
        let (origin, _clock) = small_origin();

        // An unknown verb on the control port: channel closed, logged.
        let mut bad = TcpStream::connect(origin.control_addr()).unwrap();
        bad.write_all(b"PURGE /a.html\n").unwrap();
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);

        // The data path is unaffected...
        let mut conn = connect(&origin);
        conn.write_request(&Request::get("/a.html")).unwrap();
        assert_eq!(conn.read_response().unwrap().0.status, Status::Ok);

        // ...and a well-behaved control channel still subscribes.
        let mut peer = control(&origin);
        peer.fetch("/a.html");
        assert_eq!(origin.subscription_count(), 1);
        drop(origin);
    }

    #[test]
    fn synth_body_is_deterministic_and_version_dependent() {
        let v1 = Version {
            modified_at: t(0),
            size: 64,
        };
        let v2 = Version {
            modified_at: t(9),
            size: 64,
        };
        let f = FileId(3);
        assert_eq!(synth_body(f, v1), synth_body(f, v1));
        assert_ne!(synth_body(f, v1), synth_body(f, v2));
        assert_ne!(synth_body(f, v1), synth_body(FileId(4), v1));
        assert_eq!(synth_body(f, v1).len(), 64);
        // A size that is not a whole number of generator steps is a
        // prefix of the next one up.
        let odd = Version {
            modified_at: t(0),
            size: 61,
        };
        assert_eq!(synth_body(f, odd), synth_body(f, v1)[..61]);
    }
}
