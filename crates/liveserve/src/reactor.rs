//! The nonblocking epoll reactor behind both live data paths.
//!
//! `reactor_threads` event-loop threads each own one epoll instance, a
//! slab of [`Conn`] state machines, and an eventfd wakeup. All reactors
//! register (a clone of) the shared nonblocking listener level-triggered:
//! whichever thread wakes drains a bounded accept burst and **owns** the
//! connections it accepted — partitioning happens at accept time and a
//! connection never migrates. Client sockets are registered
//! edge-triggered (`EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP`) with a
//! generation-tagged token, and every readiness notification drives the
//! state machine to `WouldBlock` in both directions, as edge-triggering
//! requires.
//!
//! Request dispatch is pluggable via [`Dispatch`], in two phases, and
//! what runs where is fixed by the phase, not by a knob:
//!
//! * [`Dispatch::begin`] runs **on the reactor thread** the moment a
//!   request is framed. It may take in-memory locks but never blocks —
//!   no socket IO, no condvar wait — and either finishes the request
//!   (the response is serialised and written by the same thread, with
//!   no queue, wakeup or context switch in between) or returns a
//!   [`Dispatch::Deferred`] value describing the blocking rest.
//! * [`Dispatch::finish`] runs **on a dispatch worker**
//!   (`dispatch_threads` of them) fed by a queue bounded by the
//!   connection cap (at most one outstanding request per connection,
//!   enforced by the state machine). It may do upstream IO, and wait —
//!   boundedly, handing the value back to the queue — on a condvar; the
//!   worker pushes the result onto the owning reactor's completion
//!   queue and nudges its eventfd, and the reactor writes it.
//!
//! The **origin** answers every request from memory, so its `begin`
//! always finishes and it runs no workers. The **proxy** decides every
//! request once, in `begin`, under the shard lock: a fresh hit is
//! answered there and then; a miss, a validation, an uncacheable
//! forward or a wait on another request's fetch is deferred with the
//! decision already made. A hit therefore never queues behind slow
//! misses occupying the workers.
//!
//! The slow-loris read budget is tick-counted, never clock-read (§r1):
//! each `epoll_wait` timeout is one idle tick swept over every mid-frame
//! or mid-write connection. A saturated reactor therefore defers
//! reaping — the memory cost is bounded by `max_conns × MAX_FRAME`
//! either way — and an idle keep-alive connection is never reaped.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use httpsim::{Request, Response};
use wcc_obs::{ConnCloseReason, ObsEvent, ProbeHandle};
use wcc_sync::{RankedCondvar, RankedMutex};

use crate::clock::LiveClock;
use crate::conn::{Conn, ConnEvent};
use crate::netio::{log_conn_error, POLL_TICK};
use crate::sys::{
    Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Epoll token of the shared listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token of the per-reactor eventfd.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Readiness entries fetched per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// Accepts drained per listener readiness notification, so one thread
/// can't monopolise its loop on a connect flood.
const ACCEPT_BATCH: usize = 64;

/// Rank of the dispatch job queue: below every proxy/origin lock a
/// dispatched handler may take, and never held across dispatch itself.
// wcc-lock-rank: reactor.jobs.inner 20
const JOBS_RANK: u32 = 20;

/// Rank of a reactor's completion queue; workers push with no other
/// lock held, the reactor drains it with a `mem::take` under the guard.
// wcc-lock-rank: reactor.completions.queue 25
const COMPLETIONS_RANK: u32 = 25;

/// Where one dispatch phase left a request.
pub(crate) enum Step<D> {
    /// Answered: write this.
    Done(Response, Arc<Vec<u8>>),
    /// The rest needs a (or another turn on a) dispatch worker.
    Defer(D),
}

/// Produces the response for one parsed request, in two phases (see the
/// module doc). Implementations must be callable from many threads at
/// once.
pub(crate) trait Dispatch: Send + Sync + 'static {
    /// What `begin` hands to `finish`: the decision it took, plus
    /// whatever it captured to carry that decision out.
    type Deferred: Send + 'static;

    /// Runs on the reactor thread: decide, and answer if that takes no
    /// blocking. May take in-memory locks; must not do socket IO or
    /// wait on a condvar.
    fn begin(&self, req: Request) -> Step<Self::Deferred>;

    /// Runs on a dispatch worker: carry out a deferred decision. May
    /// block on IO. A wait for something that itself needs a worker
    /// must be bounded, and end by handing the value back — it rejoins
    /// the queue at the back. An error closes the client connection.
    fn finish(&self, deferred: Self::Deferred) -> io::Result<Step<Self::Deferred>>;
}

/// Reactor sizing and instrumentation.
pub(crate) struct ReactorConfig {
    /// Event-loop threads (each owns an epoll instance).
    pub reactor_threads: usize,
    /// Dispatch worker threads running [`Dispatch::finish`]; a
    /// dispatcher whose `begin` never defers needs none.
    pub dispatch_threads: usize,
    /// Connection cap across all reactor threads; accepts beyond it
    /// are shed (accepted, counted, closed).
    pub max_conns: usize,
    /// Slow-loris budget in poll ticks.
    pub budget_ticks: u32,
    /// Label for connection-error logging ("origin-data" / "proxy-data").
    pub role: &'static str,
    /// Observability sink.
    pub probe: ProbeHandle,
    /// Clock used only to stamp probe events.
    pub clock: LiveClock,
}

struct Job<W> {
    reactor: usize,
    slot: usize,
    gen: u32,
    work: W,
}

struct Completion {
    slot: usize,
    gen: u32,
    result: io::Result<(Response, Arc<Vec<u8>>)>,
}

/// Hand-rolled bounded-by-construction job queue: the state machine
/// allows at most one outstanding request per connection, so the queue
/// never holds more than `max_conns` jobs.
struct JobQueue<W> {
    inner: RankedMutex<VecDeque<Job<W>>>,
    cond: RankedCondvar,
}

impl<W> JobQueue<W> {
    fn push(&self, job: Job<W>) {
        let mut q = self.inner.lock();
        q.push_back(job);
        // Notify while the guard is live so a worker's empty-queue check
        // can never race the push (wcc-analyze r7).
        self.cond.notify_one(&q);
    }

    fn pop(&self, shutdown: &AtomicBool) -> Option<Job<W>> {
        let mut q = self.inner.lock();
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _timed_out) = self.cond.wait_timeout(q, POLL_TICK);
            q = guard;
        }
    }
}

struct CompletionQueue {
    queue: RankedMutex<Vec<Completion>>,
    wake: WakeFd,
}

struct Shared<D: Dispatch> {
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
    dropped_accepts: AtomicU64,
    jobs: JobQueue<D::Deferred>,
    completions: Vec<CompletionQueue>,
    dispatch: D,
    probe: ProbeHandle,
    clock: LiveClock,
    role: &'static str,
    max_conns: usize,
    budget_ticks: u32,
}

impl<D: Dispatch> Shared<D> {
    fn record(&self, event: ObsEvent) {
        self.probe.record(self.clock.now(), event);
    }
}

/// A generation-tagged slab slot. The generation is baked into the
/// epoll token and into queued jobs, so readiness or completions for a
/// connection that has since been closed (and its slot reused) are
/// recognised as stale and dropped.
struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn token_of(slot: usize, gen: u32) -> u64 {
    (slot as u64) | (u64::from(gen) << 32)
}

/// The running reactor: `reactor_threads` event loops plus
/// `dispatch_threads` workers, all joined on [`Reactor::stop`].
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
    /// Take ownership of `listener`'s accept stream and serve it on
    /// the reactor.
    pub(crate) fn spawn(
        listener: TcpListener,
        dispatch: D,
        cfg: ReactorConfig,
    ) -> io::Result<Reactor<D>> {
        let reactors = cfg.reactor_threads.max(1);
        listener.set_nonblocking(true)?;
        let mut completions = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            completions.push(CompletionQueue {
                queue: RankedMutex::new(COMPLETIONS_RANK, "reactor.completions.queue", Vec::new()),
                wake: WakeFd::new()?,
            });
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            dropped_accepts: AtomicU64::new(0),
            jobs: JobQueue {
                inner: RankedMutex::new(JOBS_RANK, "reactor.jobs.inner", VecDeque::new()),
                cond: RankedCondvar::new(),
            },
            completions,
            dispatch,
            probe: cfg.probe,
            clock: cfg.clock,
            role: cfg.role,
            max_conns: cfg.max_conns,
            budget_ticks: cfg.budget_ticks,
        });
        let mut threads = Vec::with_capacity(reactors + cfg.dispatch_threads);
        for idx in 0..reactors {
            let shared = Arc::clone(&shared);
            // Every reactor registers its own dup of the listener fd in
            // its epoll; the original is dropped when spawn returns.
            let listener = listener.try_clone()?;
            threads.push(std::thread::spawn(move || {
                reactor_loop(shared, idx, listener)
            }));
        }
        for _ in 0..cfg.dispatch_threads {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(shared)));
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

    /// Signal shutdown, wake every thread, and join them. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // Take the queue lock to notify: a worker between its
            // shutdown check and its wait would otherwise sleep through
            // the wakeup for a full tick. Dropped before the joins.
            let q = self.shared.jobs.inner.lock();
            self.shared.jobs.cond.notify_all(&q);
        }
        for cq in &self.shared.completions {
            cq.wake.wake();
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

fn worker_loop<D: Dispatch>(shared: Arc<Shared<D>>) {
    while let Some(job) = shared.jobs.pop(&shared.shutdown) {
        let result = match shared.dispatch.finish(job.work) {
            Ok(Step::Done(resp, body)) => Ok((resp, body)),
            Ok(Step::Defer(work)) => {
                shared.jobs.push(Job { work, ..job });
                continue;
            }
            Err(e) => Err(e),
        };
        let cq = &shared.completions[job.reactor];
        {
            let mut q = cq.queue.lock();
            q.push(Completion {
                slot: job.slot,
                gen: job.gen,
                result,
            });
        }
        cq.wake.wake();
    }
}

fn reactor_loop<D: Dispatch>(shared: Arc<Shared<D>>, idx: usize, listener: TcpListener) {
    if let Err(e) = run_reactor(&shared, idx, &listener) {
        log_conn_error(shared.role, &e);
    }
}

fn run_reactor<D: Dispatch>(
    shared: &Arc<Shared<D>>,
    idx: usize,
    listener: &TcpListener,
) -> io::Result<()> {
    let ep = Epoll::new()?;
    // The listener is level-triggered: if one thread's accept burst
    // doesn't drain the backlog, every reactor keeps getting told.
    ep.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
    ep.add(shared.completions[idx].wake.fd(), EPOLLIN, WAKE_TOKEN)?;
    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent::zeroed(); EVENT_BATCH];
    let timeout_ms = POLL_TICK.as_millis() as i32;
    loop {
        let n = ep.epoll_wait(&mut events, timeout_ms)?;
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        apply_completions(shared, idx, &ep, &mut slots, &mut free);
        for event in events.iter().take(n) {
            let (mask, token) = (event.events(), event.token());
            match token {
                WAKE_TOKEN => shared.completions[idx].wake.drain(),
                LISTENER_TOKEN => accept_burst(shared, idx, listener, &ep, &mut slots, &mut free),
                _ => {
                    let slot = (token & u64::from(u32::MAX)) as usize;
                    let gen = (token >> 32) as u32;
                    if slots.get(slot).map(|s| s.gen) != Some(gen) {
                        continue; // stale readiness for a reused slot
                    }
                    let readable = mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0;
                    let writable = mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0;
                    drive(
                        shared, idx, &ep, &mut slots, &mut free, slot, readable, writable,
                    );
                }
            }
        }
        if n == 0 {
            tick_sweep(shared, idx, &ep, &mut slots, &mut free);
        }
    }
    // Shutdown: close every remaining connection.
    for slot in 0..slots.len() {
        close_conn(
            shared,
            idx,
            &ep,
            &mut slots,
            &mut free,
            slot,
            ConnCloseReason::Shutdown,
        );
    }
    Ok(())
}

fn accept_burst<D: Dispatch>(
    shared: &Arc<Shared<D>>,
    idx: usize,
    listener: &TcpListener,
    ep: &Epoll,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
) {
    let mut depth = 0u32;
    for _ in 0..ACCEPT_BATCH {
        match listener.accept() {
            Ok((stream, _)) => {
                depth += 1;
                if shared.open_conns.load(Ordering::SeqCst) >= shared.max_conns {
                    // Shed: accept-then-close so the backlog drains and
                    // the peer sees a deterministic reset, not a hang.
                    shared.dropped_accepts.fetch_add(1, Ordering::SeqCst);
                    shared.record(ObsEvent::ConnClosed {
                        reactor: idx as u32,
                        reason: ConnCloseReason::AtCapacity,
                    });
                    continue;
                }
                if let Err(e) = register_conn(shared, idx, ep, slots, free, stream) {
                    shared.dropped_accepts.fetch_add(1, Ordering::SeqCst);
                    log_conn_error(shared.role, &e);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                log_conn_error(shared.role, &e);
                break;
            }
        }
    }
    if depth > 0 {
        shared.record(ObsEvent::AcceptBacklog {
            reactor: idx as u32,
            depth,
        });
    }
}

fn register_conn<D: Dispatch>(
    shared: &Arc<Shared<D>>,
    idx: usize,
    ep: &Epoll,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
    stream: TcpStream,
) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    let slot = match free.pop() {
        Some(s) => s,
        None => {
            // Slot-table growth is bounded by max_conns: a conn only
            // occupies a slot while counted against the cap.
            slots.push(Slot { gen: 0, conn: None });
            slots.len() - 1
        }
    };
    let gen = slots[slot].gen;
    let fd = stream.as_raw_fd();
    if let Err(e) = ep.add(
        fd,
        EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP,
        token_of(slot, gen),
    ) {
        free.push(slot);
        return Err(e);
    }
    slots[slot].conn = Some(Conn::new(stream, shared.budget_ticks));
    let open = shared.open_conns.fetch_add(1, Ordering::SeqCst) + 1;
    shared.record(ObsEvent::ConnAccepted {
        reactor: idx as u32,
        open: open as u32,
    });
    // Bytes may have arrived before registration; with edge-triggered
    // delivery the add itself reports initial readiness, but driving
    // once here keeps latency off the first request either way.
    drive(shared, idx, ep, slots, free, slot, true, false);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn drive<D: Dispatch>(
    shared: &Arc<Shared<D>>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    slot: usize,
    readable: bool,
    writable: bool,
) {
    if writable {
        let ev = match slots[slot].conn.as_mut() {
            Some(c) => c.on_writable(shared.role),
            None => return,
        };
        handle_event(shared, idx, ep, slots, free, slot, ev);
    }
    if readable {
        let ev = match slots[slot].conn.as_mut() {
            Some(c) => c.on_readable(shared.role),
            None => return,
        };
        handle_event(shared, idx, ep, slots, free, slot, ev);
    }
}

/// Run one state-machine outcome to quiescence. A request `begin`
/// finishes can chain (response written → pipelined request parsed →
/// begun again), hence the loop; a deferred one leaves the connection
/// in `Dispatched` until its completion comes back.
fn handle_event<D: Dispatch>(
    shared: &Arc<Shared<D>>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    slot: usize,
    mut ev: ConnEvent,
) {
    loop {
        match ev {
            ConnEvent::Idle => return,
            ConnEvent::Close(reason) => {
                close_conn(shared, idx, ep, slots, free, slot, reason);
                return;
            }
            ConnEvent::Dispatch(req) => match shared.dispatch.begin(req) {
                Step::Done(resp, body) => {
                    ev = match slots[slot].conn.as_mut() {
                        Some(c) => c.on_response(&resp, &body, shared.role),
                        None => return,
                    };
                }
                Step::Defer(work) => {
                    shared.jobs.push(Job {
                        reactor: idx,
                        slot,
                        gen: slots[slot].gen,
                        work,
                    });
                    return;
                }
            },
        }
    }
}

fn apply_completions<D: Dispatch>(
    shared: &Arc<Shared<D>>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
) {
    let done = {
        let mut q = shared.completions[idx].queue.lock();
        std::mem::take(&mut *q)
    };
    for c in done {
        if slots.get(c.slot).map(|s| s.gen) != Some(c.gen) {
            continue; // the connection closed while its request was in flight
        }
        match c.result {
            Ok((resp, body)) => {
                let ev = match slots[c.slot].conn.as_mut() {
                    Some(conn) => conn.on_response(&resp, &body, shared.role),
                    None => continue,
                };
                handle_event(shared, idx, ep, slots, free, c.slot, ev);
            }
            Err(e) => {
                log_conn_error(shared.role, &e);
                close_conn(shared, idx, ep, slots, free, c.slot, ConnCloseReason::Error);
            }
        }
    }
}

fn tick_sweep<D: Dispatch>(
    shared: &Arc<Shared<D>>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
) {
    for slot in 0..slots.len() {
        let ev = match slots[slot].conn.as_mut() {
            Some(c) => c.on_tick(),
            None => continue,
        };
        if let ConnEvent::Close(reason) = ev {
            close_conn(shared, idx, ep, slots, free, slot, reason);
        }
    }
}

fn close_conn<D: Dispatch>(
    shared: &Arc<Shared<D>>,
    idx: usize,
    ep: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    slot: usize,
    reason: ConnCloseReason,
) {
    let Some(entry) = slots.get_mut(slot) else {
        return;
    };
    if let Some(conn) = entry.conn.take() {
        let _ = ep.del(conn.stream().as_raw_fd());
        drop(conn);
        entry.gen = entry.gen.wrapping_add(1);
        free.push(slot);
        shared.open_conns.fetch_sub(1, Ordering::SeqCst);
        shared.record(ObsEvent::ConnClosed {
            reactor: idx as u32,
            reason,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netio::HttpConn;
    use httpsim::{HttpDate, Status};
    use simcore::SimTime;
    use std::io::{Read, Write};
    use std::net::SocketAddr;
    use std::sync::{mpsc, Mutex};
    use std::time::{Duration, Instant};

    /// Echoes the path back as the body. Paths under `/slow/` are
    /// deferred, and their `finish` announces itself on `parked` and
    /// then waits for one `release` token; `/again/x` is deferred too,
    /// and handed back by `finish` once, as `/slow/x`; everything else
    /// is answered by `begin`.
    struct Gated {
        parked: mpsc::Sender<String>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    /// The test's end of a [`Gated`] dispatcher.
    struct Gate {
        parked: mpsc::Receiver<String>,
        release: mpsc::Sender<()>,
    }

    fn canned(path: &str) -> Step<String> {
        let body = format!("canned:{path}").into_bytes();
        let resp = Response::ok(HttpDate(2), HttpDate(1), body.len() as u64);
        Step::Done(resp, Arc::new(body))
    }

    impl Dispatch for Gated {
        type Deferred = String;

        fn begin(&self, req: Request) -> Step<String> {
            if req.path.starts_with("/slow/") || req.path.starts_with("/again/") {
                Step::Defer(req.path)
            } else {
                canned(&req.path)
            }
        }

        fn finish(&self, path: String) -> io::Result<Step<String>> {
            if let Some(rest) = path.strip_prefix("/again/") {
                return Ok(Step::Defer(format!("/slow/{rest}")));
            }
            let _ = self.parked.send(path.clone());
            // A dropped gate releases everything (reactor shutdown).
            let _ = self.release.lock().unwrap().recv();
            Ok(canned(&path))
        }
    }

    fn spawn_reactor(
        max_conns: usize,
        budget_ticks: u32,
        dispatch_threads: usize,
    ) -> (Reactor<Gated>, SocketAddr, Gate) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let reactor = Reactor::spawn(
            listener,
            Gated {
                parked: parked_tx,
                release: Mutex::new(release_rx),
            },
            ReactorConfig {
                reactor_threads: 1,
                dispatch_threads,
                max_conns,
                budget_ticks,
                role: "test-data",
                probe: ProbeHandle::none(),
                clock: LiveClock::virtual_at(SimTime::ZERO),
            },
        )
        .unwrap();
        let gate = Gate {
            parked: parked_rx,
            release: release_tx,
        };
        (reactor, addr, gate)
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
    fn requests_round_trip_inline_and_via_workers() {
        let (reactor, addr, gate) = spawn_reactor(64, 1200, 2);
        let mut conn = connect(addr);
        for i in 0..3 {
            exchange(&mut conn, &format!("/f{i}"));
            gate.release.send(()).unwrap();
            exchange(&mut conn, &format!("/slow/f{i}"));
        }
        drop(conn);
        await_until("conn close after client hangup", || {
            reactor.open_conns() == 0
        });
    }

    /// What `finish` hands back goes round the queue again and is
    /// answered on the same connection.
    #[test]
    fn a_handed_back_request_rejoins_the_queue() {
        let (_reactor, addr, gate) = spawn_reactor(16, 1200, 1);
        let mut conn = connect(addr);
        conn.write_request(&Request::get("/again/x")).unwrap();
        assert_eq!(gate.parked.recv().unwrap(), "/slow/x");
        gate.release.send(()).unwrap();
        expect_canned(&mut conn, "/slow/x");
    }

    /// With the only worker parked on connection A's deferred request,
    /// connection B's request is still answered: `begin` finished it on
    /// the reactor thread.
    #[test]
    fn inline_answer_overtakes_an_outstanding_deferred_request() {
        let (_reactor, addr, gate) = spawn_reactor(16, 1200, 1);
        let mut a = connect(addr);
        a.write_request(&Request::get("/slow/a")).unwrap();
        assert_eq!(gate.parked.recv().unwrap(), "/slow/a");
        let mut b = connect(addr);
        exchange(&mut b, "/b");
        exchange(&mut b, "/b2");
        // A is still owed its answer, and gets it once released.
        gate.release.send(()).unwrap();
        expect_canned(&mut a, "/slow/a");
    }

    /// A deferred request whose connection closed meanwhile completes
    /// into the void: the slot's generation moved on, so the connection
    /// that reused the slot never sees the stale response.
    #[test]
    fn completion_for_a_closed_connection_is_dropped() {
        let (reactor, addr, gate) = spawn_reactor(16, 1200, 1);
        // A plain hangup is honoured only after the outstanding response
        // is written; a reset closes at once. Dropping a socket with
        // unread bytes (the answer to `/unread`) sends one.
        let mut a = connect(addr);
        a.write_request(&Request::get("/unread")).unwrap();
        a.write_request(&Request::get("/slow/a")).unwrap();
        assert_eq!(gate.parked.recv().unwrap(), "/slow/a");
        drop(a);
        await_until("close of the deferred conn", || reactor.open_conns() == 0);
        // C takes over A's slot (an answered exchange proves it is in
        // it); its own deferred request queues behind A's, which is
        // still parked on the only worker.
        let mut c = connect(addr);
        exchange(&mut c, "/settled");
        c.write_request(&Request::get("/slow/c")).unwrap();
        gate.release.send(()).unwrap(); // A's completion: dropped
        assert_eq!(gate.parked.recv().unwrap(), "/slow/c");
        gate.release.send(()).unwrap();
        expect_canned(&mut c, "/slow/c");
        // Nothing else was written to C: the next exchange lines up.
        exchange(&mut c, "/after");
    }

    /// Pipelined requests on one connection answer in request order
    /// even though inline and deferred ones take different routes.
    #[test]
    fn pipelined_inline_and_deferred_requests_answer_in_order() {
        let (_reactor, addr, gate) = spawn_reactor(16, 1200, 2);
        let paths = ["/a", "/slow/b", "/c", "/d", "/slow/e", "/slow/f", "/g"];
        let mut wire = Vec::new();
        for path in paths {
            wire.extend_from_slice(&Request::get(path).to_bytes());
            gate.release.send(()).unwrap(); // more tokens than needed
        }
        let mut conn = connect(addr);
        conn.stream().write_all(&wire).unwrap();
        for path in paths {
            expect_canned(&mut conn, path);
        }
    }

    #[test]
    fn slow_loris_is_reaped_by_the_tick_budget() {
        let (reactor, addr, _gate) = spawn_reactor(16, 2, 0);
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
        let (reactor, addr, _gate) = spawn_reactor(16, 1, 0);
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
        let (reactor, addr, _gate) = spawn_reactor(2, 1200, 0);
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
}
