//! The nonblocking epoll reactor behind both live servers.
//!
//! `reactor_threads` event-loop threads each own one epoll instance, a
//! slab of client [`Conn`] state machines, the upstream socket of each
//! proxy shard assigned to them, and a mailbox (a queue plus an eventfd);
//! each thread of an origin also owns the control peers it accepted
//! (`control::PeerIo`). All reactors register (a clone of) each shared
//! nonblocking listener level-triggered: whichever thread wakes drains a
//! bounded accept burst and **owns** the connections it accepted —
//! partitioning happens at accept time and a connection never migrates.
//! Every other socket is registered edge-triggered (`EPOLLIN | EPOLLOUT |
//! EPOLLET | EPOLLRDHUP`) with a generation-tagged token — two tag bits
//! tell an upstream socket and a control peer from a client — and every
//! readiness notification drives its state machine until the socket has
//! no more for it, as edge-triggering requires: writes to `WouldBlock`,
//! reads to a short count (a `read` that returns less than it asked for
//! has emptied a stream socket, and what arrives after it raises a new
//! edge) — or, when the notification says the peer hung up or the socket
//! failed, through to the EOF or the error. Every `read` a thread makes
//! lands in the one scratch buffer its event loop owns and lends to
//! whatever it is driving; a connection buffers only what a frame still
//! needs.
//!
//! **No reactor thread ever blocks.** Request handling is pluggable via
//! [`Dispatch`], and everything a dispatcher does runs on a reactor
//! thread, in memory: it may take locks, never a socket or a wait. What
//! it wants from the network it *returns* as a [`Step`], and the
//! reactor carries the step out:
//!
//! * [`Dispatch::begin`] runs the moment a request is framed, and either
//!   answers it ([`Step::Done`] — serialised and written by the same
//!   thread, with no queue, wakeup or context switch in between) or asks
//!   for an upstream exchange, parking a continuation with it.
//! * [`Dispatch::resume`] runs when what a parked continuation was
//!   waiting for has arrived (or failed), and returns the next step.
//!
//! **A shard's IO has one owner.** Proxy shard `s`'s upstream socket
//! (`upstream::ShardIo`) lives on reactor `s % reactor_threads`; a step
//! for a shard another thread owns crosses once through that thread's
//! mailbox, and its answer comes back through the acceptor's. With one
//! reactor thread nothing ever crosses. The **origin** answers every
//! request from memory: its `begin` never parks and it has no shards.
//! Each control peer's socket — fetches and commands in, replies out,
//! notices out, their answers in — has the thread that accepted it as
//! its one owner; a thread that publishes a modification posts the
//! notice to each thread that holds a target and does its waiting
//! itself.
//!
//! The stall budget is tick-counted, never clock-read (§r1): each
//! `epoll_wait` that times out — a signal that interrupts one does not
//! count — is one idle tick swept over every mid-frame or mid-write
//! client connection, every upstream exchange in progress and every
//! control peer that owes an answer, and it flushes control lines still
//! unsent. The wait is timed only while there is such a party: a thread
//! none of whose sockets owes it progress sleeps in an untimed
//! `epoll_wait` until one turns ready or the eventfd brings mail or
//! shutdown. A saturated reactor defers reaping —
//! the memory cost is bounded by `max_conns × MAX_FRAME` either way —
//! and an idle keep-alive connection is never reaped.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

use httpsim::{HttpDate, Request, Response};
use simcore::CacheId;
use wcc_obs::{ConnCloseReason, ObsEvent, ProbeHandle};
use wcc_sync::RankedMutex;

use crate::clock::LiveClock;
use crate::conn::{Conn, ConnEvent};
use crate::control::{Notice, PeerEvent, PeerIo};
use crate::netio::{log_conn_error, POLL_TICK};
use crate::sys::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::upstream::{Heard, ShardIo, Upstream, UpstreamCounters, UpstreamEnv};
use crate::wire::Wire;

/// Epoll token of the shared listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token of the per-reactor eventfd.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Epoll token of the origin's control listener.
pub(crate) const CONTROL_TOKEN: u64 = u64::MAX - 2;
/// Set in the token of an upstream socket, clear in a client's.
const UPSTREAM_TAG: u64 = 1 << 31;
/// Set in the token of a control peer's socket.
const PEER_TAG: u64 = 1 << 30;
/// Readiness entries fetched per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// Accepts drained per listener readiness notification, so one thread
/// can't monopolise its loop on a connect flood.
const ACCEPT_BATCH: usize = 64;
/// What one `read` can take: a reactor thread's one scratch buffer, lent
/// to whichever socket it is driving. Larger than any message but a big
/// body, so a readiness notification is usually one `read`.
const SCRATCH: usize = 64 * 1024;

/// Rank of a reactor's mailbox, a leaf: nothing is acquired under it.
/// Reactor threads push with no lock held, the origin's publisher while
/// holding its schedule (`origin.mods`), and the owner drains it with a
/// `mem::take` under the guard.
const MAILBOX_RANK: u32 = 40;

/// What one readiness notification said of a socket. An error or a
/// hang-up is reported in both directions, so whichever the state
/// machine tries next runs into it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ready {
    pub readable: bool,
    pub writable: bool,
    /// Readable with a hang-up or an error behind the bytes: read
    /// through to it, not just to a short count.
    pub hup: bool,
}

impl Ready {
    pub(crate) fn from_mask(mask: u32) -> Ready {
        let hup = mask & (EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0;
        Ready {
            readable: hup || mask & EPOLLIN != 0,
            writable: mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            hup,
        }
    }

    /// Bytes may be waiting, and nothing else is known.
    const READABLE: Ready = Ready {
        readable: true,
        writable: false,
        hup: false,
    };
}

/// The client connection a request arrived on. It travels with every
/// step of the request; the generation makes an answer for a connection
/// that has since closed (and whose slot was reused) recognisably stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ticket {
    reactor: u32,
    slot: u32,
    gen: u32,
}

/// What a parked continuation was waiting for: the origin's reply to a
/// [`Step::Exchange`] — head, body, and the wire bytes the head took.
pub(crate) struct Arrived(pub Response, pub Vec<u8>, pub u64);

/// What a client is sent: a response, or a hang-up.
pub(crate) type Answer = io::Result<(Response, Arc<Vec<u8>>)>;

/// What a request needs next.
pub(crate) enum Step<P> {
    /// Answered: write this to the client.
    Done(Response, Arc<Vec<u8>>),
    /// Failed: log, and close the client connection.
    Fail(io::Error),
    /// Send `request` on `shard`'s upstream socket and resume `then`
    /// with the reply; under invalidation the origin is to `subscribe`
    /// the shard to what it answers, or not.
    Exchange {
        shard: usize,
        request: Vec<u8>,
        subscribe: bool,
        then: P,
    },
    /// Append `lines` (whole ones) to `shard`'s control channel unsent —
    /// they leave with its next write — and carry out `answer` at once.
    Control {
        shard: usize,
        lines: Vec<u8>,
        answer: Answer,
    },
    /// Nothing yet: the dispatcher keeps the ticket, and a later
    /// `resume` hands back a step for it.
    Parked,
}

/// Steps produced and not yet carried out, each with its request's
/// ticket.
pub(crate) type Work<P> = VecDeque<(Ticket, Step<P>)>;

/// Handles parsed requests (see the module doc). Every method runs on a
/// reactor thread — any of them, concurrently — and must not block: no
/// socket IO, no condvar or channel wait.
pub(crate) trait Dispatch: Send + Sync + 'static {
    /// The continuation parked with an exchange: what the request had
    /// decided, and what it will do with the answer.
    type Parked: Send + 'static;

    /// Decide a framed request, and answer it if that takes no IO.
    fn begin(&self, ticket: Ticket, req: Request) -> Step<Self::Parked>;

    /// What `parked` asked for has arrived, or failed. Steps for *other*
    /// requests this unblocks go on `woken`.
    fn resume(
        &self,
        parked: Self::Parked,
        arrived: io::Result<Arrived>,
        woken: &mut Work<Self::Parked>,
    ) -> Step<Self::Parked>;

    /// The origin announced, on a shard's control channel, that `path`
    /// changed; `true` (`ACK`) if the shard held it, else `NACK`.
    fn invalidate(&self, _path: &str) -> bool {
        false
    }

    /// A control peer fetched `req`: the response to write back, the peer
    /// subscribed to it if it is the `subscriber`. A dispatcher without a
    /// control port is never asked.
    fn fetch(&self, _req: &Request, _subscriber: Option<CacheId>) -> (Response, Vec<u8>) {
        (Response::not_found(HttpDate(0)), Vec::new())
    }

    /// Control peer `cache` sent a command or a `NACK`, or went.
    fn peer(&self, _cache: CacheId, _event: PeerEvent<'_>) {}
}

/// Reactor sizing and instrumentation.
pub(crate) struct ReactorConfig {
    /// Event-loop threads (each owns an epoll instance).
    pub reactor_threads: usize,
    /// Connection cap across all reactor threads; accepts beyond it
    /// are shed (accepted, counted, closed).
    pub max_conns: usize,
    /// Stall budget in poll ticks, for client frames and upstream
    /// exchanges alike.
    pub budget_ticks: u32,
    /// Label for connection-error logging ("origin-data" / "proxy-data").
    pub role: &'static str,
    /// Observability sink.
    pub probe: ProbeHandle,
    /// Clock used only to stamp probe events.
    pub clock: LiveClock,
}

/// What a reactor thread is handed by another thread.
enum Mail<P> {
    /// A step the addressee must carry out.
    Step(Ticket, Step<P>),
    /// An invalidation to write to the addressee's control peers.
    Notice(Arc<Notice>),
}

struct Mailbox<P> {
    queue: RankedMutex<Vec<Mail<P>>>,
    wake: WakeFd,
}

struct Shared<D: Dispatch> {
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
    dropped_accepts: AtomicU64,
    mail: Vec<Mailbox<D::Parked>>,
    upstream: Arc<UpstreamCounters>,
    dispatch: D,
    cfg: ReactorConfig,
}

impl<D: Dispatch> Shared<D> {
    fn record(&self, event: ObsEvent) {
        self.cfg.probe.record(self.cfg.clock.now(), event);
    }

    /// Hand `mail` to the reactor thread that must carry it out.
    fn post(&self, to: usize, mail: Mail<D::Parked>) {
        self.mail[to].queue.lock().push(mail);
        self.mail[to].wake.wake();
    }
}

/// A generation-tagged slab slot. The generation is baked into the
/// epoll token and into tickets, so readiness or answers for a
/// connection that has since been closed (and its slot reused) are
/// recognised as stale and dropped.
struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn token_of(slot: usize, gen: u32) -> u64 {
    (slot as u64) | (u64::from(gen) << 32)
}

/// The epoll token of a reactor's `index`-th upstream socket.
pub(crate) fn upstream_token(index: usize, gen: u32) -> u64 {
    token_of(index, gen) | UPSTREAM_TAG
}

/// The epoll token of control peer `index`'s socket. Peer slots are
/// never reused, so there is no generation to tell apart.
pub(crate) fn peer_token(index: usize) -> u64 {
    token_of(index, 0) | PEER_TAG
}

/// The running reactor: `reactor_threads` event loops, joined on
/// [`Reactor::stop`].
pub(crate) struct Reactor<D: Dispatch> {
    shared: Arc<Shared<D>>,
    threads: Vec<JoinHandle<()>>,
}

impl<D: Dispatch> std::fmt::Debug for Reactor<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("open_conns", &self.open_conns())
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl<D: Dispatch> Reactor<D> {
    /// Take ownership of `listener`'s accept stream, and of `control`'s
    /// (the origin's control port), and serve them on the reactor.
    /// `upstreams[s]` is where shard `s`'s steps go (none for a
    /// dispatcher that never asks for any).
    pub(crate) fn spawn(
        listener: TcpListener,
        control: Option<TcpListener>,
        dispatch: D,
        upstreams: Vec<Upstream>,
        cfg: ReactorConfig,
    ) -> io::Result<Reactor<D>> {
        let reactors = cfg.reactor_threads.max(1);
        listener.set_nonblocking(true)?;
        let mut mail = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            mail.push(Mailbox {
                queue: RankedMutex::new(MAILBOX_RANK, "reactor.mailbox.queue", Vec::new()),
                wake: WakeFd::new()?,
            });
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            dropped_accepts: AtomicU64::new(0),
            mail,
            upstream: Arc::default(),
            dispatch,
            cfg,
        });
        // Shard `s` is owned by reactor `s % reactors`, at `s / reactors`.
        let mut owned: Vec<Vec<Upstream>> = (0..reactors).map(|_| Vec::new()).collect();
        for (s, upstream) in upstreams.into_iter().enumerate() {
            owned[s % reactors].push(upstream);
        }
        let mut threads = Vec::with_capacity(reactors);
        for (idx, upstreams) in owned.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            // Every reactor registers its own dup of each listener fd in
            // its epoll; the originals are dropped when spawn returns.
            let listener = listener.try_clone()?;
            let control = control.as_ref().map(TcpListener::try_clone).transpose()?;
            threads.push(std::thread::spawn(move || {
                let role = shared.cfg.role;
                if let Err(e) = EventLoop::run(shared, idx, &listener, control, upstreams) {
                    log_conn_error(role, &e);
                }
            }));
        }
        Ok(Reactor { shared, threads })
    }

    /// Connections currently open across all reactor threads.
    pub(crate) fn open_conns(&self) -> usize {
        self.shared.open_conns.load(Ordering::SeqCst)
    }

    /// Accepts shed at the connection cap.
    pub(crate) fn dropped_accepts(&self) -> u64 {
        self.shared.dropped_accepts.load(Ordering::SeqCst)
    }

    /// Upstream accounting, over every shard.
    pub(crate) fn upstream(&self) -> &UpstreamCounters {
        &self.shared.upstream
    }

    /// Have each reactor thread that owns control peers in `targets`
    /// write `line` to them (peer `CacheId(i)` is thread `i % reactors`'s).
    /// Nothing is ever sent to the end returned: it disconnects once
    /// every one of them has answered or gone.
    pub(crate) fn publish(&self, line: String, targets: Vec<CacheId>) -> Receiver<Infallible> {
        let (owed, acked) = sync_channel(0);
        let notice = Arc::new(Notice {
            line,
            targets,
            owed,
        });
        let reactors = self.shared.mail.len();
        for to in 0..reactors {
            if notice.targets.iter().any(|c| c.index() % reactors == to) {
                self.shared.post(to, Mail::Notice(Arc::clone(&notice)));
            }
        }
        acked
    }

    /// Signal shutdown, wake every thread, and join them. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for mailbox in &self.shared.mail {
            mailbox.wake.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl<D: Dispatch> Drop for Reactor<D> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One reactor thread's state; nothing in it is shared.
struct EventLoop<D: Dispatch> {
    shared: Arc<Shared<D>>,
    idx: usize,
    ep: Epoll,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// The shards whose upstream sockets this thread owns, by `s /
    /// reactors`.
    shards: Vec<ShardIo<(Ticket, D::Parked)>>,
    /// The origin's control port and the peers this thread accepted.
    peers: Option<PeerIo>,
    work: Work<D::Parked>,
    /// Client connections the stall budget is counting on (mid-frame or
    /// mid-write), kept in step by [`Self::on_conn`] and `close_conn`.
    budgeted_conns: usize,
    /// Where every `read` this thread makes lands first.
    scratch: Box<[u8]>,
}

impl<D: Dispatch> EventLoop<D> {
    fn run(
        shared: Arc<Shared<D>>,
        idx: usize,
        listener: &TcpListener,
        control: Option<TcpListener>,
        upstreams: Vec<Upstream>,
    ) -> io::Result<()> {
        let ep = Epoll::new()?;
        // The listener is level-triggered: if one thread's accept burst
        // doesn't drain the backlog, every reactor keeps getting told.
        ep.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        ep.add(shared.mail[idx].wake.fd(), EPOLLIN, WAKE_TOKEN)?;
        let env = UpstreamEnv {
            budget_ticks: shared.cfg.budget_ticks,
            counters: Arc::clone(&shared.upstream),
            probe: shared.cfg.probe.clone(),
            clock: shared.cfg.clock.clone(),
        };
        let reactors = shared.mail.len();
        let mut shards = Vec::with_capacity(upstreams.len());
        for (local, upstream) in upstreams.into_iter().enumerate() {
            let shard = local * reactors + idx;
            shards.push(ShardIo::new(shard, upstream, &ep, env.clone())?);
        }
        let budget_ticks = shared.cfg.budget_ticks;
        let peers = control.map(|control| PeerIo::new(control, &ep, (idx, reactors), budget_ticks));
        let peers = peers.transpose()?;
        let mut this = EventLoop {
            shared,
            idx,
            ep,
            slots: Vec::new(),
            free: Vec::new(),
            shards,
            peers,
            work: VecDeque::new(),
            budgeted_conns: 0,
            scratch: vec![0; SCRATCH].into(),
        };
        let mut events = vec![EpollEvent::zeroed(); EVENT_BATCH];
        loop {
            // Tick only while someone is held to the stall budget; mail
            // and shutdown arrive through the eventfd either way.
            let timeout_ms = if this.owed_progress() {
                POLL_TICK.as_millis() as i32
            } else {
                -1
            };
            let Some(n) = this.ep.epoll_wait(&mut events, timeout_ms)? else {
                continue; // a signal: not readiness, and not a tick
            };
            if this.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Upstream sockets first: an idle origin connection that was
            // hung up on is retired before any request framed in the same
            // batch can be sent on it.
            for upstream_pass in [true, false] {
                for event in events.iter().take(n) {
                    let (mask, token) = (event.events(), event.token());
                    let upstream = token < CONTROL_TOKEN && token & UPSTREAM_TAG != 0;
                    if upstream == upstream_pass {
                        this.on_event(listener, mask, token, upstream);
                    }
                }
            }
            if n == 0 {
                this.tick_sweep();
            }
        }
        // Shutdown: close every remaining connection.
        for slot in 0..this.slots.len() {
            this.close_conn(slot, ConnCloseReason::Shutdown);
        }
        Ok(())
    }

    fn on_event(&mut self, listener: &TcpListener, mask: u32, token: u64, upstream: bool) {
        match token {
            WAKE_TOKEN => {
                // Reset before reading: a post that lands after the take
                // finds the eventfd clear and raises it again.
                self.shared.mail[self.idx].wake.drain();
                let mail = std::mem::take(&mut *self.shared.mail[self.idx].queue.lock());
                for mail in mail {
                    match mail {
                        Mail::Step(ticket, step) => self.work.push_back((ticket, step)),
                        Mail::Notice(notice) => {
                            if let Some(io) = &mut self.peers {
                                io.deliver(&self.ep, &notice, &self.shared.dispatch);
                            }
                        }
                    }
                }
                self.drain();
            }
            LISTENER_TOKEN => self.accept_burst(listener),
            CONTROL_TOKEN => {
                if let Some(io) = &mut self.peers {
                    io.accept(&self.ep);
                }
            }
            _ => {
                let index = (token & (PEER_TAG - 1)) as usize;
                let gen = (token >> 32) as u32;
                let ready = Ready::from_mask(mask);
                if upstream {
                    self.upstream_ready(index, gen, ready);
                } else if token & PEER_TAG != 0 {
                    if let Some(io) = &mut self.peers {
                        let to = &self.shared.dispatch;
                        io.ready(&self.ep, index, ready, &mut self.scratch, to);
                    }
                } else if self.slots.get(index).map(|s| s.gen) == Some(gen) {
                    // (else: stale readiness for a reused slot)
                    self.drive(index, ready);
                }
            }
        }
    }

    fn accept_burst(&mut self, listener: &TcpListener) {
        let mut depth = 0u32;
        for _ in 0..ACCEPT_BATCH {
            match listener.accept() {
                Ok((stream, _)) => {
                    depth += 1;
                    if self.shared.open_conns.load(Ordering::SeqCst) >= self.shared.cfg.max_conns {
                        // Shed: accept-then-close so the backlog drains and
                        // the peer sees a deterministic reset, not a hang.
                        self.shared.dropped_accepts.fetch_add(1, Ordering::SeqCst);
                        self.shared.record(ObsEvent::ConnClosed {
                            reactor: self.idx as u32,
                            reason: ConnCloseReason::AtCapacity,
                        });
                        continue;
                    }
                    if let Err(e) = self.register_conn(stream) {
                        self.shared.dropped_accepts.fetch_add(1, Ordering::SeqCst);
                        log_conn_error(self.shared.cfg.role, &e);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    log_conn_error(self.shared.cfg.role, &e);
                    break;
                }
            }
        }
        if depth > 0 {
            self.shared.record(ObsEvent::AcceptBacklog {
                reactor: self.idx as u32,
                depth,
            });
        }
    }

    fn register_conn(&mut self, stream: TcpStream) -> io::Result<()> {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                // Slot-table growth is bounded by max_conns: a conn only
                // occupies a slot while counted against the cap.
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let wire = match Wire::register(stream, &self.ep, token_of(slot, self.slots[slot].gen)) {
            Ok(wire) => wire,
            Err(e) => {
                self.free.push(slot);
                return Err(e);
            }
        };
        self.slots[slot].conn = Some(Conn::new(wire, self.shared.cfg.budget_ticks));
        let open = self.shared.open_conns.fetch_add(1, Ordering::SeqCst) + 1;
        self.shared.record(ObsEvent::ConnAccepted {
            reactor: self.idx as u32,
            open: open as u32,
        });
        // Bytes may have arrived before registration; with edge-triggered
        // delivery the add itself reports initial readiness, but driving
        // once here keeps latency off the first request either way.
        self.drive(slot, Ready::READABLE);
        Ok(())
    }

    /// Whether anything this thread owns is held to the stall budget (a
    /// client mid-frame or mid-write, an upstream exchange, a control
    /// peer that owes an answer) or has control lines to flush.
    fn owed_progress(&self) -> bool {
        self.budgeted_conns > 0
            || self.shards.iter().any(ShardIo::budgeted)
            || self.peers.as_ref().is_some_and(PeerIo::budgeted)
    }

    /// Drive `slot`'s connection (if it still has one) with `f`, keeping
    /// `budgeted_conns` in step with what that did to it.
    fn on_conn(
        &mut self,
        slot: usize,
        f: impl FnOnce(&mut Conn, &mut [u8]) -> ConnEvent,
    ) -> ConnEvent {
        let Some(conn) = self.slots[slot].conn.as_mut() else {
            return ConnEvent::Idle;
        };
        let was = conn.budgeted();
        let ev = f(conn, &mut self.scratch);
        self.budgeted_conns = self.budgeted_conns + usize::from(conn.budgeted()) - usize::from(was);
        ev
    }

    fn drive(&mut self, slot: usize, ready: Ready) {
        let role = self.shared.cfg.role;
        if ready.writable {
            let ev = self.on_conn(slot, |conn, _| conn.on_writable(role));
            self.handle_event(slot, ev);
        }
        if ready.readable {
            let ev = self.on_conn(slot, |conn, scratch| {
                conn.on_readable(role, ready.hup, scratch)
            });
            self.handle_event(slot, ev);
        }
        self.drain();
    }

    /// Run one state-machine outcome to quiescence. A request `begin`
    /// answers can chain (response written → pipelined request parsed →
    /// begun again), hence the loop; any other step goes on the work
    /// list and leaves the connection in `Dispatched` until its answer
    /// comes back.
    fn handle_event(&mut self, slot: usize, mut ev: ConnEvent) {
        loop {
            match ev {
                ConnEvent::Idle => return,
                ConnEvent::Close(reason) => return self.close_conn(slot, reason),
                ConnEvent::Dispatch(req) => {
                    let ticket = Ticket {
                        reactor: self.idx as u32,
                        slot: slot as u32,
                        gen: self.slots[slot].gen,
                    };
                    let role = self.shared.cfg.role;
                    match self.shared.dispatch.begin(ticket, req) {
                        Step::Done(resp, body) => {
                            ev = self.on_conn(slot, |c, _| c.on_response(&resp, &body, role));
                        }
                        step => return self.work.push_back((ticket, step)),
                    }
                }
            }
        }
    }

    /// Carry out every step on the work list, and whatever those produce.
    fn drain(&mut self) {
        let reactors = self.shared.mail.len();
        while let Some((ticket, step)) = self.work.pop_front() {
            // An answer belongs to the thread that owns the client; an
            // upstream step to the thread that owns the shard.
            let home = match &step {
                Step::Parked => continue,
                Step::Done(..) | Step::Fail(_) => ticket.reactor as usize,
                Step::Exchange { shard, .. } | Step::Control { shard, .. } => shard % reactors,
            };
            if home != self.idx {
                self.shared.post(home, Mail::Step(ticket, step));
                continue;
            }
            match step {
                Step::Parked => {}
                Step::Done(resp, body) => self.answer(ticket, Ok((resp, body))),
                Step::Fail(e) => self.answer(ticket, Err(e)),
                Step::Exchange {
                    shard,
                    request,
                    subscribe,
                    then,
                } => {
                    let local = shard / reactors;
                    self.shards[local].exchange(&self.ep, &request, subscribe, (ticket, then));
                    self.resume_ended(local);
                }
                Step::Control {
                    shard,
                    lines,
                    answer,
                } => {
                    self.shards[shard / reactors].control(&lines);
                    let step =
                        answer.map_or_else(Step::Fail, |(resp, body)| Step::Done(resp, body));
                    self.work.push_front((ticket, step));
                }
            }
        }
    }

    /// Resume `parked`, its next step ahead of the steps it woke (DESIGN §8).
    fn resume(&mut self, ticket: Ticket, parked: D::Parked, arrived: io::Result<Arrived>) {
        let at = self.work.len();
        let step = self.shared.dispatch.resume(parked, arrived, &mut self.work);
        self.work.insert(at, (ticket, step));
    }

    /// Resume everything shard `local` ended outside a reply.
    fn resume_ended(&mut self, local: usize) {
        while let Some(((ticket, parked), arrived)) = self.shards[local].ended.pop() {
            self.resume(ticket, parked, arrived);
        }
    }

    /// Write a request's answer to its client — if that connection is
    /// still the one that asked.
    fn answer(&mut self, ticket: Ticket, result: Answer) {
        let slot = ticket.slot as usize;
        if self.slots.get(slot).map(|s| s.gen) != Some(ticket.gen) {
            return; // the connection closed while its request was parked
        }
        match result {
            Ok((resp, body)) => {
                let role = self.shared.cfg.role;
                let ev = self.on_conn(slot, |conn, _| conn.on_response(&resp, &body, role));
                self.handle_event(slot, ev);
            }
            Err(e) => {
                log_conn_error(self.shared.cfg.role, &e);
                self.close_conn(slot, ConnCloseReason::Error);
            }
        }
    }

    /// Readiness on `shard`'s upstream socket: each reply resumes its
    /// continuation, in line order with the notices around it.
    fn upstream_ready(&mut self, shard: usize, gen: u32, ready: Ready) {
        let local = shard / self.shared.mail.len();
        let Some(io) = self.shards.get_mut(local) else {
            return;
        };
        let (dispatch, work) = (&self.shared.dispatch, &mut self.work);
        let on = |heard: Heard<'_, _>| match heard {
            Heard::Reply((ticket, parked), arrived) => {
                let at = work.len();
                let step = dispatch.resume(parked, Ok(arrived), work);
                work.insert(at, (ticket, step));
                true
            }
            Heard::Invalidate(path) => dispatch.invalidate(path),
        };
        io.ready(&self.ep, gen, ready, &mut self.scratch, on);
        self.resume_ended(local);
        self.drain();
    }

    fn tick_sweep(&mut self) {
        let budgeted = |s: &&Slot| s.conn.as_ref().is_some_and(Conn::budgeted);
        debug_assert_eq!(
            self.slots.iter().filter(budgeted).count(),
            self.budgeted_conns
        );
        for slot in 0..self.slots.len() {
            let ev = match self.slots[slot].conn.as_mut() {
                Some(c) => c.on_tick(),
                None => continue,
            };
            if let ConnEvent::Close(reason) = ev {
                self.close_conn(slot, reason);
            }
        }
        for local in 0..self.shards.len() {
            self.shards[local].tick(&self.ep);
            self.resume_ended(local);
        }
        if let Some(io) = &mut self.peers {
            io.tick(&self.ep, &self.shared.dispatch);
        }
        self.drain();
    }

    fn close_conn(&mut self, slot: usize, reason: ConnCloseReason) {
        let Some(entry) = self.slots.get_mut(slot) else {
            return;
        };
        if let Some(conn) = entry.conn.take() {
            let _ = self.ep.del(conn.wire.stream.as_raw_fd());
            self.budgeted_conns -= usize::from(conn.budgeted());
            drop(conn);
            entry.gen = entry.gen.wrapping_add(1);
            self.free.push(slot);
            self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            self.shared.record(ObsEvent::ConnClosed {
                reactor: self.idx as u32,
                reason,
            });
        }
    }
}

#[cfg(test)]
/// What the tests of a two-reactor server share: which thread accepted.
pub(crate) mod testing {
    use crate::netio::HttpConn;
    use simcore::SimTime;
    use std::sync::mpsc;
    use std::time::Duration;
    use wcc_obs::{ObsEvent, ProbeHandle};

    /// Forwards reactor `ConnAccepted` events to the test.
    pub(crate) struct Accepts(mpsc::Sender<u32>);

    impl Accepts {
        pub(crate) fn probe() -> (ProbeHandle, mpsc::Receiver<u32>) {
            let (accepts, accepted) = mpsc::channel();
            (ProbeHandle::new(Box::new(Accepts(accepts))), accepted)
        }
    }

    impl wcc_obs::Probe for Accepts {
        fn record(&mut self, _at: SimTime, event: ObsEvent) {
            if let ObsEvent::ConnAccepted { reactor, .. } = event {
                let _ = self.0.send(reactor);
            }
        }
    }

    /// Whichever reactor wakes first accepts; keep connecting until
    /// each of the two owns a connection (the one that just worked has
    /// the larger vruntime, so they take turns even on one CPU).
    pub(crate) fn conn_on_each_reactor(
        accepted: &mpsc::Receiver<u32>,
        mut connect: impl FnMut() -> HttpConn,
    ) -> [HttpConn; 2] {
        let mut on: [Option<HttpConn>; 2] = [None, None];
        for _ in 0..256 {
            let conn = connect();
            let reactor = accepted.recv_timeout(Duration::from_secs(10)).unwrap();
            on[reactor as usize].get_or_insert(conn);
            if let [Some(_), Some(_)] = on {
                break;
            }
        }
        on.map(|conn| conn.expect("256 connections and one reactor accepted them all"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::TestPeer;
    use crate::netio::HttpConn;
    use httpsim::{HttpDate, Status};
    use simcore::SimTime;
    use std::io::{Read, Write};
    use std::net::SocketAddr;
    use std::time::{Duration, Instant};

    /// Echoes the path back as the body, from memory. (What a reactor
    /// does with a dispatcher that parks is `proxy::tests`' subject.)
    struct Echo;

    impl Dispatch for Echo {
        type Parked = Infallible;

        fn begin(&self, _ticket: Ticket, req: Request) -> Step<Infallible> {
            let body = format!("canned:{}", req.path).into_bytes();
            let resp = Response::ok(HttpDate(2), HttpDate(1), body.len() as u64);
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
    }

    fn spawn_reactor(max_conns: usize, budget_ticks: u32) -> (Reactor<Echo>, SocketAddr) {
        let (reactor, addr, _control) = spawn_with_control(max_conns, budget_ticks);
        (reactor, addr)
    }

    /// The reactor, its data address and its control address.
    fn spawn_with_control(
        max_conns: usize,
        budget_ticks: u32,
    ) -> (Reactor<Echo>, SocketAddr, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let control = TcpListener::bind("127.0.0.1:0").unwrap();
        let control_addr = control.local_addr().unwrap();
        let reactor = Reactor::spawn(
            listener,
            Some(control),
            Echo,
            Vec::new(),
            ReactorConfig {
                reactor_threads: 1,
                max_conns,
                budget_ticks,
                role: "test-data",
                probe: ProbeHandle::none(),
                clock: LiveClock::virtual_at(SimTime::ZERO),
            },
        )
        .unwrap();
        (reactor, addr, control_addr)
    }

    fn await_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn connect(addr: SocketAddr) -> HttpConn {
        HttpConn::new(TcpStream::connect(addr).unwrap()).unwrap()
    }

    fn expect_canned(conn: &mut HttpConn, path: &str) {
        let (resp, body) = conn.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(body, format!("canned:{path}").into_bytes());
    }

    fn exchange(conn: &mut HttpConn, path: &str) {
        conn.write_request(&Request::get(path)).unwrap();
        expect_canned(conn, path);
    }

    #[test]
    fn requests_round_trip_and_a_hangup_closes_the_connection() {
        let (reactor, addr) = spawn_reactor(64, 1200);
        let mut conn = connect(addr);
        for i in 0..3 {
            exchange(&mut conn, &format!("/f{i}"));
        }
        drop(conn);
        await_until("conn close after client hangup", || {
            reactor.open_conns() == 0
        });
        // A request with the hang-up right behind it is still answered.
        let mut conn = connect(addr);
        conn.write_request(&Request::get("/last")).unwrap();
        conn.stream().shutdown(std::net::Shutdown::Write).unwrap();
        expect_canned(&mut conn, "/last");
        await_until("conn close after the last answer", || {
            reactor.open_conns() == 0
        });
    }

    /// Requests that arrive in one segment are answered one at a time,
    /// in order.
    #[test]
    fn pipelined_requests_answer_in_order() {
        let (_reactor, addr) = spawn_reactor(16, 1200);
        let paths: Vec<String> = (0..50).map(|i| format!("/f{i}")).collect();
        let mut wire = Vec::new();
        for path in &paths {
            wire.extend_from_slice(&Request::get(path.as_str()).to_bytes());
        }
        let mut conn = connect(addr);
        conn.stream().write_all(&wire).unwrap();
        for path in &paths {
            expect_canned(&mut conn, path);
        }
    }

    #[test]
    fn slow_loris_is_reaped_by_the_tick_budget() {
        let (reactor, addr) = spawn_reactor(16, 2);
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"GET /half").unwrap(); // partial request, then silence
        await_until("loris registration", || reactor.open_conns() == 1);
        // The budget is ticked only on idle epoll timeouts; with nothing
        // else running, two 25 ms ticks reap the wedged connection.
        await_until("budget reap", || reactor.open_conns() == 0);
        // The reactor keeps serving healthy clients afterwards.
        let mut conn = connect(addr);
        exchange(&mut conn, "/after");
    }

    #[test]
    fn idle_keepalive_outlives_the_budget() {
        let (reactor, addr) = spawn_reactor(16, 1);
        let mut conn = connect(addr);
        exchange(&mut conn, "/first");
        // Sit idle well past the 1-tick budget: an idle keep-alive
        // connection (no partial frame) is exempt from reaping.
        std::thread::sleep(POLL_TICK * 6);
        assert_eq!(reactor.open_conns(), 1);
        exchange(&mut conn, "/second");
    }

    #[test]
    fn accepts_beyond_the_cap_are_shed_not_queued() {
        let (reactor, addr) = spawn_reactor(2, 1200);
        let mut a = connect(addr);
        let mut b = connect(addr);
        exchange(&mut a, "/a");
        exchange(&mut b, "/b");
        assert_eq!(reactor.open_conns(), 2);
        // A third connection is accepted and immediately closed, so the
        // peer sees deterministic EOF instead of a hang.
        let mut shed = TcpStream::connect(addr).unwrap();
        await_until("shed accounting", || reactor.dropped_accepts() >= 1);
        let mut byte = [0u8; 1];
        assert_eq!(shed.read(&mut byte).unwrap(), 0, "shed conn must see EOF");
        // Capacity frees up once an established connection leaves.
        drop(a);
        await_until("slot release", || reactor.open_conns() == 1);
        let mut c = connect(addr);
        exchange(&mut c, "/c");
    }

    /// A control peer that keeps its socket open and goes quiet owing an
    /// `ACK` is held to the tick budget, as a stalled data client is:
    /// closed, which releases the publisher — after the budget, not
    /// before the other peer's `ACK`, and at nobody else's cost.
    #[test]
    fn a_peer_that_withholds_its_ack_is_reaped_by_the_tick_budget() {
        use std::sync::mpsc::TryRecvError;

        const BUDGET: u32 = 8;
        let (reactor, _addr, control) = spawn_with_control(16, BUDGET);
        // `Echo` answers a fetch on the control port `404`: the reply to
        // what a peer says last says the reactor has taken all of it.
        let fetch = Request::get("/x").serialize();
        let answered = |peer: &mut TestPeer| {
            assert_eq!(peer.hear_response().0.status, Status::NotFound);
        };
        // The reactor has the peers in slot 0, then slot 1.
        let connect = || {
            let mut peer = TestPeer::connect(control);
            peer.say(&fetch);
            answered(&mut peer);
            peer
        };
        let (mut good, mut quiet) = (connect(), connect());
        let publish = || reactor.publish("INVALIDATE /x\n".into(), vec![CacheId(0), CacheId(1)]);

        let (acked, published) = (publish(), Instant::now());
        assert_eq!(good.hear(), "INVALIDATE /x\n");
        assert_eq!(quiet.hear(), "INVALIDATE /x\n");
        // `good`'s ACK is in once the reply behind it is back, and the
        // publisher is still waiting: `quiet` owes one.
        good.say(&format!("ACK\n{fetch}"));
        answered(&mut good);
        assert_eq!(acked.try_recv(), Err(TryRecvError::Empty));
        // The budget runs out on `quiet`: hung up on, publisher released.
        assert_eq!(acked.recv().ok(), None);
        assert!(published.elapsed() >= POLL_TICK * BUDGET);
        assert_eq!(quiet.hear(), "");

        // `good`, which owed nothing, outlives any number of ticks, and
        // its next notice is delivered and waited for.
        std::thread::sleep(POLL_TICK * (BUDGET + 2));
        let acked = publish();
        assert_eq!(good.hear(), "INVALIDATE /x\n");
        assert_eq!(acked.try_recv(), Err(TryRecvError::Empty));
        good.say("ACK\n");
        assert_eq!(acked.recv().ok(), None);
    }
}
