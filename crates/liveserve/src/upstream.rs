//! One proxy shard's sockets to the origin, as its owner reactor thread
//! drives them.
//!
//! A [`ShardIo`] holds up to [`CONNS_PER_SHARD`] keep-alive data
//! connections with a wait-list of at most [`MAX_WAITERS`] exchanges
//! behind them, and — under invalidation — the shard's control
//! connection. All of it is nonblocking and registered edge-triggered on
//! the owner's epoll set; nothing here takes a lock, reads a clock for
//! anything but a probe stamp, or waits. An exchange is a continuation
//! `K` parked on a socket: the reactor hands it in with the bytes to
//! send and gets it back with what arrived.
//!
//! **Data connections.** An exchange takes an idle connection, else
//! dials (`connect_nonblocking`, completed on writability), else joins
//! the wait-list; a full wait-list refuses it and counts a saturation.
//! A connection whose exchange fails — refused dial, reset, EOF or
//! garbage mid-reply, the tick budget — is closed and its slot freed for
//! the next waiter's dial. An idle connection that turns readable was
//! hung up on (or written to out of turn) by the origin and is closed
//! the same way, so no exchange is ever started on a dead socket the
//! reactor has been told about.
//!
//! **Control connection.** It carries every exchange the origin is to
//! subscribe the shard to (the origin does so as it answers a `200`),
//! answered first-in first-out on this one thread, and its unanswered
//! `UNSUBSCRIBE`s, left unsent until the channel's next write — a fetch,
//! an `ACK` or `NACK` — or the reactor's next idle tick. Replies and
//! `INVALIDATE` lines reach the caller in line order; a notice is
//! answered once it returns. A fetch there gets the data connections'
//! stall budget and cap; a channel that dies or stalls fails every fetch
//! on it and every later one — a shard never fetches unsubscribed.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use httpsim::Response;
use wcc_obs::{ObsEvent, ProbeHandle};

use crate::clock::LiveClock;
use crate::conn::{read_available, read_once, write_pending, ReadEnd};
use crate::control::{ControlMsg, MAX_LINE};
use crate::netio::{invalid, log_conn_error, MAX_FRAME};
use crate::reactor::{upstream_token, Arrived, Ready};
use crate::sys::{connect_nonblocking, Epoll, EPOLLET, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Keep-alive origin connections per shard. Misses and validations are
/// a minority of requests once the cache warms, so a few pooled sockets
/// per shard absorb them without the one-conn-per-client sprawl.
pub(crate) const CONNS_PER_SHARD: usize = 4;

/// Exchanges queued beyond this per shard are refused outright rather
/// than buffered without bound.
pub(crate) const MAX_WAITERS: usize = 256;

/// Epoll registrations per shard: the data connections, then the
/// control connection.
pub(crate) const SLOTS_PER_SHARD: usize = CONNS_PER_SHARD + 1;

/// Where one shard's upstream traffic goes.
pub(crate) struct Upstream {
    /// The origin's HTTP data address, dialled on demand.
    pub origin: SocketAddr,
    /// The shard's connected control channel, when the policy uses one.
    pub control: Option<TcpStream>,
}

/// Upstream connection accounting, summed over every shard.
#[derive(Default)]
pub(crate) struct PoolCounters {
    /// Connections dialled.
    pub dials: AtomicU64,
    /// Exchanges carried by a pooled keep-alive connection.
    pub reuses: AtomicU64,
    /// Exchanges refused at a full wait-list.
    pub saturations: AtomicU64,
}

/// What every shard of one proxy shares.
#[derive(Clone)]
pub(crate) struct PoolEnv {
    /// Poll ticks an exchange may sit without progress.
    pub budget_ticks: u32,
    pub counters: Arc<PoolCounters>,
    pub probe: ProbeHandle,
    /// Read only to stamp probe events.
    pub clock: LiveClock,
}

/// A nonblocking socket with its two buffers: either end of a control
/// channel, or a data connection to the origin.
pub(crate) struct Wire {
    pub stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    /// Where the next control frame starts in `rbuf`.
    rpos: usize,
}

/// One frame of a control channel: a line (without its `\n`), or an
/// HTTP message.
pub(crate) enum Frame<'a, M> {
    Line(&'a str),
    Http(M),
}

/// The HTTP message at the front of a buffer once its head and
/// `Content-Length` say it is whole, and the bytes it took.
type Framer<M> = fn(&[u8]) -> io::Result<Option<(M, usize)>>;

/// The proxy's end's [`Framer`]: a reply.
fn reply_frame(buf: &[u8]) -> io::Result<Option<(Arrived, usize)>> {
    let reply = Response::from_bytes(buf).map_err(invalid)?;
    Ok(reply.map(|(resp, body, used)| {
        let head = (used - body.len()) as u64;
        (Arrived(resp, body, head), used)
    }))
}

impl Wire {
    pub(crate) fn register(stream: TcpStream, ep: &Epoll, token: u64) -> io::Result<Wire> {
        let _ = stream.set_nodelay(true);
        ep.add(
            stream.as_raw_fd(),
            EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP,
            token,
        )?;
        Ok(Wire {
            stream,
            wbuf: Vec::new(),
            wpos: 0,
            rbuf: Vec::new(),
            rpos: 0,
        })
    }

    /// The write buffer, to append to behind whatever is still unwritten.
    pub(crate) fn out(&mut self) -> &mut Vec<u8> {
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        &mut self.wbuf
    }

    /// Queue `bytes` behind whatever is still unwritten.
    pub(crate) fn queue(&mut self, bytes: &[u8]) {
        self.out().extend_from_slice(bytes);
    }

    /// Write what the socket takes; the rest goes on the next writable
    /// edge.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        write_pending(&self.stream, &self.wbuf, &mut self.wpos).map(drop)
    }

    /// Read what has arrived, through `scratch`, keeping at most `cap`
    /// unparsed bytes. `Ok(true)` means the peer hung up.
    pub(crate) fn fill(&mut self, cap: usize, hup: bool, scratch: &mut [u8]) -> io::Result<bool> {
        read_available(&self.stream, &mut self.rbuf, cap, hup, scratch)
    }

    /// One `read` of a control channel, behind the frame still arriving;
    /// [`next_frame`](Self::next_frame) takes the whole ones.
    pub(crate) fn read_frames(&mut self, hup: bool, scratch: &mut [u8]) -> io::Result<ReadEnd> {
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
        // (The tail is within its cap on entry: this one cannot trip.)
        let cap = MAX_FRAME + scratch.len();
        read_once(&self.stream, &mut self.rbuf, cap, hup, scratch)
    }

    /// The next whole frame read, if any: one that starts with `http` is
    /// an HTTP message, whole once `framer` says so, anything else a line.
    /// Only a frame still arriving stays buffered, and only that is held
    /// to its cap — [`MAX_FRAME`] for a message, [`MAX_LINE`] for a line —
    /// however many whole ones came with it.
    pub(crate) fn next_frame<M>(
        &mut self,
        http: &[u8],
        framer: Framer<M>,
    ) -> io::Result<Option<Frame<'_, M>>> {
        let rest = &self.rbuf[self.rpos..];
        let (frame, used) = if rest.starts_with(http) {
            match framer(rest)? {
                Some((msg, used)) => (Frame::Http(msg), used),
                None if rest.len() > MAX_FRAME => return Err(invalid("frame exceeds MAX_FRAME")),
                None => return Ok(None),
            }
        } else {
            match rest.iter().position(|&b| b == b'\n') {
                Some(end) => {
                    let line = std::str::from_utf8(&rest[..end]).map_err(invalid)?;
                    (Frame::Line(line), end + 1)
                }
                None if rest.len() > MAX_LINE => return Err(invalid("line exceeds MAX_LINE")),
                None => return Ok(None),
            }
        };
        self.rpos += used;
        Ok(Some(frame))
    }
}

/// One data connection: dialling, carrying `busy`'s exchange, or idle.
struct DataConn<K> {
    wire: Wire,
    dialing: bool,
    busy: Option<K>,
    /// The origin hung up behind the reply in hand: not for the pool.
    hung_up: bool,
    stall_ticks: u32,
}

/// A data-connection slot; the generation tells readiness for a
/// connection that has since been closed from its successor's.
struct Slot<K> {
    gen: u32,
    conn: Option<DataConn<K>>,
}

struct Control<K> {
    wire: Wire,
    /// The fetches the origin owes a reply, oldest first, and whom each
    /// resumes; capped as the data connections' exchanges are.
    pending: VecDeque<K>,
    /// Idle ticks while a fetch is outstanding.
    stall_ticks: u32,
}

/// What the control channel produced, in line order.
pub(crate) enum ControlEvent<'a, K> {
    /// `K`'s fetch is answered.
    Answered(K, Arrived),
    /// The origin's copy of this path changed. The callback returns
    /// whether the shard held it: `ACK` goes out if so, else `NACK`.
    Invalidate(&'a str),
}

/// One shard's upstream sockets (see the module doc).
pub(crate) struct ShardIo<K> {
    pub shard: usize,
    origin: SocketAddr,
    /// This shard's first upstream index on its reactor: connection `i`
    /// registers as `first + i`, the control channel last.
    first: usize,
    conns: Vec<Slot<K>>,
    waiters: VecDeque<(Vec<u8>, K)>,
    /// The shard's control channel, if the policy has one, until it dies.
    control: Option<Control<K>>,
    /// Exchanges that failed since the reactor last looked; it resumes
    /// them after every call in here.
    pub ended: Vec<(K, io::Result<Arrived>)>,
    env: PoolEnv,
}

impl<K> ShardIo<K> {
    pub(crate) fn new(
        shard: usize,
        first: usize,
        upstream: Upstream,
        ep: &Epoll,
        env: PoolEnv,
    ) -> io::Result<Self> {
        let control = upstream.control.map(|stream| {
            stream.set_nonblocking(true)?;
            let token = upstream_token(first + CONNS_PER_SHARD, 0);
            io::Result::Ok(Control {
                wire: Wire::register(stream, ep, token)?,
                pending: VecDeque::new(),
                stall_ticks: 0,
            })
        });
        Ok(ShardIo {
            shard,
            origin: upstream.origin,
            first,
            conns: (0..CONNS_PER_SHARD)
                .map(|_| Slot { gen: 0, conn: None })
                .collect(),
            waiters: VecDeque::new(),
            control: control.transpose()?,
            ended: Vec::new(),
            env,
        })
    }

    fn record(&self, event: ObsEvent) {
        self.env.probe.record(self.env.clock.now(), event);
    }

    // --- data connections ------------------------------------------------

    /// Start the exchange that sends `request` and resumes `k` with the
    /// reply: on the control channel if the origin is to `subscribe` the
    /// shard to it, else on an idle or new connection, else from the
    /// wait-list — each up to its cap.
    pub(crate) fn exchange(&mut self, ep: &Epoll, request: Vec<u8>, subscribe: bool, k: K) {
        match (&mut self.control, subscribe) {
            (_, false) => {
                self.record(ObsEvent::ShardQueue {
                    shard: self.shard as u32,
                    depth: self.waiters.len() as u32,
                });
                if self.waiters.len() < MAX_WAITERS {
                    self.waiters.push_back((request, k));
                    return self.pump(ep);
                }
            }
            (Some(c), true) if c.pending.len() < CONNS_PER_SHARD + MAX_WAITERS => {
                return c.send(&request, k);
            }
            (Some(_), true) => {}
            (None, true) => {
                let lost = "the shard's control channel is lost: it fetches nothing unsubscribed";
                let e = io::Error::new(io::ErrorKind::NotConnected, lost);
                return self.ended.push((k, Err(e)));
            }
        }
        self.env
            .counters
            .saturations
            .fetch_add(1, Ordering::Relaxed);
        let refusal = format!(
            "upstream saturated on shard {}: {} exchanges outstanding",
            self.shard,
            CONNS_PER_SHARD + MAX_WAITERS
        );
        let e = io::Error::new(io::ErrorKind::WouldBlock, refusal);
        self.ended.push((k, Err(e)));
    }

    /// Start waiters, oldest first, while a connection is idle or a
    /// slot is free to dial into.
    fn pump(&mut self, ep: &Epoll) {
        while !self.waiters.is_empty() {
            let idle = |s: &Slot<K>| s.conn.as_ref().is_some_and(|c| c.busy.is_none());
            let Some(i) = (self.conns.iter().position(idle))
                .or_else(|| self.conns.iter().position(|s| s.conn.is_none()))
            else {
                return;
            };
            let Some((request, k)) = self.waiters.pop_front() else {
                return;
            };
            if self.conns[i].conn.is_some() {
                self.env.counters.reuses.fetch_add(1, Ordering::Relaxed);
                self.record(ObsEvent::Upstream { reused: true });
                self.resend(ep, i, &request, k);
                continue;
            }
            let token = upstream_token(self.first + i, self.conns[i].gen);
            match connect_nonblocking(self.origin).and_then(|s| Wire::register(s, ep, token)) {
                Ok(mut wire) => {
                    wire.queue(&request);
                    self.conns[i].conn = Some(DataConn {
                        wire,
                        dialing: true,
                        busy: Some(k),
                        hung_up: false,
                        stall_ticks: 0,
                    });
                }
                Err(e) => self.ended.push((k, Err(e))),
            }
        }
    }

    /// Send `request` on connection `i`, which the caller holds — fresh
    /// from the pool, or still in hand from `k`'s previous reply.
    pub(crate) fn resend(&mut self, ep: &Epoll, i: usize, request: &[u8], k: K) {
        let Some(conn) = self.conns[i].conn.as_mut() else {
            return;
        };
        conn.stall_ticks = 0;
        conn.wire.queue(request);
        conn.busy = Some(k);
        if let Err(e) = conn.wire.flush() {
            self.close(ep, i, e);
        }
    }

    /// Connection `i`'s exchange is over and its continuation wants
    /// nothing more of it: back to the pool, or on to the next waiter.
    pub(crate) fn release(&mut self, ep: &Epoll, i: usize) {
        // Bytes beyond the reply are a protocol desync.
        let spent = |c: &DataConn<K>| c.hung_up || !c.wire.rbuf.is_empty();
        if self.conns[i].conn.as_ref().is_some_and(spent) {
            self.close(ep, i, io::ErrorKind::ConnectionAborted.into());
        }
        self.pump(ep);
    }

    /// Close connection `i`, failing the exchange on it (an idle
    /// connection just goes); the slot is free for the next dial.
    fn close(&mut self, ep: &Epoll, i: usize, e: io::Error) {
        let slot = &mut self.conns[i];
        if let Some(conn) = slot.conn.take() {
            let _ = ep.del(conn.wire.stream.as_raw_fd());
            slot.gen = slot.gen.wrapping_add(1);
            if let Some(k) = conn.busy {
                self.ended.push((k, Err(e)));
            }
        }
    }

    /// Readiness on data connection `i`. A completed reply comes back
    /// with its continuation and the connection stays in the caller's
    /// hand, to [`resend`](Self::resend) on or [`release`](Self::release).
    pub(crate) fn conn_ready(
        &mut self,
        ep: &Epoll,
        i: usize,
        gen: u32,
        ready: Ready,
        scratch: &mut [u8],
    ) -> Option<(K, Arrived)> {
        let slot = &mut self.conns[i];
        if slot.gen != gen {
            return None; // readiness for a connection since closed
        }
        let conn = slot.conn.as_mut()?;
        let was_dialing = conn.dialing;
        let outcome = conn.drive(ready, scratch);
        if was_dialing && !conn.dialing {
            self.env.counters.dials.fetch_add(1, Ordering::Relaxed);
            self.record(ObsEvent::Upstream { reused: false });
        }
        match outcome {
            Ok(reply) => {
                let reply = reply?;
                Some((self.conns[i].conn.as_mut()?.busy.take()?, reply))
            }
            Err(e) => {
                self.close(ep, i, e);
                self.pump(ep);
                None
            }
        }
    }

    /// Whether a tick would count against anything (an exchange is
    /// dialling or in progress) or flush control lines still unsent.
    pub(crate) fn budgeted(&self) -> bool {
        let busy = |s: &Slot<K>| s.conn.as_ref().is_some_and(|c| c.busy.is_some());
        let waiting = |c: &Control<K>| !c.pending.is_empty() || c.wire.wpos < c.wire.wbuf.len();
        self.control.as_ref().is_some_and(waiting) || self.conns.iter().any(busy)
    }

    /// One poll tick: control lines still unsent are written, and a
    /// connection (or control channel) whose exchange made no progress
    /// for the whole budget is closed, failing it.
    pub(crate) fn tick(&mut self, ep: &Epoll) {
        let what = "read budget exhausted waiting for the origin";
        let stalled = || io::Error::new(io::ErrorKind::TimedOut, what);
        for i in 0..self.conns.len() {
            let Some(conn) = self.conns[i].conn.as_mut() else {
                continue;
            };
            if conn.busy.is_none() {
                continue;
            }
            conn.stall_ticks += 1;
            if conn.stall_ticks >= self.env.budget_ticks {
                self.close(ep, i, stalled());
            }
        }
        if let Some(c) = &mut self.control {
            let _ = c.wire.flush(); // an error raises its own edge, as in `send`
            c.stall_ticks += u32::from(!c.pending.is_empty());
            if !c.pending.is_empty() && c.stall_ticks >= self.env.budget_ticks {
                self.lose_control(ep, stalled());
            }
        }
        self.pump(ep);
    }

    // --- control channel -------------------------------------------------

    /// Append `lines` (whole ones: a fetch's victims, and its file) to the
    /// control channel unsent, for its next write or tick. With no channel
    /// they go, as the origin's ledger of the shard did.
    pub(crate) fn control(&mut self, lines: &[u8]) {
        if let Some(c) = &mut self.control {
            c.wire.queue(lines);
        }
    }

    /// Readiness on the control connection: every complete frame, in
    /// order, through `on` (what it returns answers an `Invalidate`).
    pub(crate) fn control_ready(
        &mut self,
        ep: &Epoll,
        ready: Ready,
        scratch: &mut [u8],
        mut on: impl FnMut(ControlEvent<'_, K>) -> bool,
    ) {
        let Some(control) = &mut self.control else {
            return;
        };
        if let Err(e) = control.drive(ready, scratch, &mut on) {
            self.lose_control(ep, e);
        }
    }

    /// The control channel is dead, `e` says why: every fetch on it fails.
    fn lose_control(&mut self, ep: &Epoll, e: io::Error) {
        log_conn_error("proxy-control", &e);
        if let Some(dead) = self.control.take() {
            let _ = ep.del(dead.wire.stream.as_raw_fd());
            for k in dead.pending {
                let failed = io::Error::new(e.kind(), format!("control channel: {e}"));
                self.ended.push((k, Err(failed)));
            }
        }
    }
}

impl<K> DataConn<K> {
    /// Move bytes both ways; `Ok(Some(..))` once the reply to the
    /// exchange in progress is complete.
    fn drive(&mut self, ready: Ready, scratch: &mut [u8]) -> io::Result<Option<Arrived>> {
        if ready.writable {
            if self.dialing {
                if let Some(e) = self.wire.stream.take_error()? {
                    return Err(e);
                }
                self.dialing = false;
            }
            self.wire.flush()?;
        }
        if !ready.readable || self.dialing {
            return Ok(None);
        }
        let had = self.wire.rbuf.len();
        let eof = self.wire.fill(MAX_FRAME, ready.hup, scratch)?;
        if self.busy.is_none() {
            // Idle: anything at all, a hangup included, retires it.
            return Err(io::ErrorKind::ConnectionAborted.into());
        }
        let rbuf = &mut self.wire.rbuf;
        if rbuf.len() > had {
            self.stall_ticks = 0;
        }
        match reply_frame(rbuf)? {
            Some((reply, used)) => {
                rbuf.drain(..used);
                self.hung_up = eof;
                Ok(Some(reply))
            }
            None if eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF mid-response",
            )),
            None => Ok(None),
        }
    }
}

impl<K> Control<K> {
    /// Send `request`, behind any lines unsent, and park `k` on its reply.
    fn send(&mut self, request: &[u8], k: K) {
        self.wire.queue(request);
        self.pending.push_back(k);
        // A failed write also raises the socket's error edge, and
        // `control_ready` winds the channel down from there.
        let _ = self.wire.flush();
    }

    /// Read what arrived, in line order through `on`, and write only its
    /// answers: a readable edge also says writable, and is no write.
    fn drive(
        &mut self,
        ready: Ready,
        scratch: &mut [u8],
        on: &mut impl FnMut(ControlEvent<'_, K>) -> bool,
    ) -> io::Result<()> {
        if !ready.readable {
            return self.wire.flush();
        }
        self.stall_ticks = 0;
        let mut answered = false;
        let eof = loop {
            let end = self.wire.read_frames(ready.hup, scratch)?;
            while let Some(frame) = self.wire.next_frame(b"HTTP/", reply_frame)? {
                match frame {
                    Frame::Http(reply) => {
                        let Some(k) = self.pending.pop_front() else {
                            return Err(invalid("a reply nobody fetched"));
                        };
                        on(ControlEvent::Answered(k, reply));
                    }
                    // Answer only after the caller has marked the entry:
                    // once the origin sees the ACK, no client can be
                    // served the stale copy.
                    Frame::Line(line) => match ControlMsg::parse(line)? {
                        ControlMsg::Invalidate(path) => {
                            let held = on(ControlEvent::Invalidate(path));
                            let answer = if held {
                                ControlMsg::Ack
                            } else {
                                ControlMsg::Nack
                            };
                            self.wire.queue(answer.encode().as_bytes());
                            answered = true;
                        }
                        other => {
                            let what = format!("unexpected control message at proxy: {other:?}");
                            return Err(invalid(what));
                        }
                    },
                }
            }
            match end {
                ReadEnd::More => {}
                ReadEnd::Drained => break false,
                ReadEnd::Eof => break true,
            }
        };
        if answered {
            self.wire.flush()?;
        }
        if eof {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "origin closed the control channel",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::EpollEvent;
    use httpsim::{HttpDate, Request};
    use simcore::SimTime;
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;
    use std::thread;

    /// A shard of one test, driven by hand: a listener playing the
    /// origin, the shard's epoll set, and the scratch its reads go
    /// through.
    struct Driven {
        origin: TcpListener,
        ep: Epoll,
        io: ShardIo<&'static str>,
        scratch: Vec<u8>,
    }

    impl Driven {
        /// With a control channel when `control` is set; its far end
        /// comes back too.
        fn new(control: bool) -> (Driven, Option<TcpStream>) {
            let origin = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = origin.local_addr().unwrap();
            let ours = control.then(|| TcpStream::connect(addr).unwrap());
            let theirs = ours.as_ref().map(|_| origin.accept().unwrap().0);
            let ep = Epoll::new().unwrap();
            let env = PoolEnv {
                budget_ticks: 10,
                counters: Arc::default(),
                probe: ProbeHandle::none(),
                clock: LiveClock::virtual_at(SimTime::ZERO),
            };
            let upstream = Upstream {
                origin: addr,
                control: ours,
            };
            let io = ShardIo::new(0, 0, upstream, &ep, env).unwrap();
            let scratch = vec![0; 64 * 1024];
            let driven = Driven {
                origin,
                ep,
                io,
                scratch,
            };
            (driven, theirs)
        }

        /// The next readiness notification within `ms`, as (connection,
        /// generation, what it said). There is one socket at a time in
        /// these tests.
        fn poll(&self, ms: i32) -> Option<(usize, u32, Ready)> {
            let mut events = [EpollEvent::zeroed(); 1];
            let n = self.ep.epoll_wait(&mut events, ms).unwrap();
            let token = events[0].token();
            let which = (token & 0xffff) as usize % SLOTS_PER_SHARD;
            let ready = Ready::from_mask(events[0].events());
            (n == Some(1)).then_some((which, (token >> 32) as u32, ready))
        }

        fn wait(&self) -> (usize, u32, Ready) {
            self.poll(10_000).expect("a notification within 10 s")
        }

        /// Start an exchange, and play the origin's side of its dial:
        /// the accepted connection, with the request read off it.
        fn dialled(&mut self, k: &'static str) -> TcpStream {
            let request = Request::get(k).to_bytes();
            self.io.exchange(&self.ep, request.clone(), false, k);
            let (mut origin, _) = self.origin.accept().unwrap();
            let (which, gen, ready) = self.wait();
            assert!(ready.writable && !ready.readable);
            let nothing = self
                .io
                .conn_ready(&self.ep, which, gen, ready, &mut self.scratch);
            assert!(nothing.is_none());
            let mut read = vec![0; request.len()];
            origin.read_exact(&mut read).unwrap();
            assert_eq!(read, request);
            origin
        }

        /// Drive the one busy connection until its reply is in: the
        /// reply, and whether the last notification carried a hang-up.
        fn reply(&mut self) -> (usize, Vec<u8>, bool) {
            loop {
                let (which, gen, ready) = self.wait();
                let got = self
                    .io
                    .conn_ready(&self.ep, which, gen, ready, &mut self.scratch);
                if let Some((_, Arrived(_, body, _))) = got {
                    return (which, body, ready.hup);
                }
            }
        }
    }

    fn ok(body: &[u8]) -> Vec<u8> {
        Response::ok(HttpDate(2), HttpDate(1), body.len() as u64).to_bytes(body)
    }

    /// A read that stops at a short count must not cost the pool its
    /// view of a hang-up: one that arrives with the reply is read
    /// through to, one that arrives later raises its own edge — either
    /// way the next exchange is not started on that socket.
    #[test]
    fn a_hang_up_with_the_reply_or_behind_it_retires_the_connection() {
        let (mut d, _) = Driven::new(false);

        // With the reply: one notification, read through to the EOF.
        let mut origin = d.dialled("/a");
        origin.write_all(&ok(b"first")).unwrap();
        drop(origin);
        let (i, body, hup) = d.reply();
        assert!(hup, "loopback delivers the FIN with the bytes before it");
        assert_eq!(body, b"first");
        assert!(d.io.conns[i].conn.as_ref().unwrap().hung_up);
        d.io.release(&d.ep, i);
        assert!(d.io.conns[i].conn.is_none(), "not back in the pool");

        // Behind the reply: the read stops short, the connection pools,
        // and the hang-up's own edge retires it while it idles.
        let mut origin = d.dialled("/b");
        origin.write_all(&ok(b"second")).unwrap();
        let (i, body, hup) = d.reply();
        assert!(!hup);
        assert_eq!(body, b"second");
        d.io.release(&d.ep, i);
        assert!(d.io.conns[i].conn.is_some(), "pooled");
        drop(origin);
        let (which, gen, ready) = d.wait();
        assert!(ready.hup);
        let nothing = d.io.conn_ready(&d.ep, which, gen, ready, &mut d.scratch);
        assert!(nothing.is_none());
        assert!(d.io.conns[i].conn.is_none(), "retired while idle");

        assert_eq!(d.io.env.counters.dials.load(Ordering::Relaxed), 2);
        assert!(d.io.ended.is_empty());
    }

    /// A reply several times the scratch arrives whole, a scratch-full
    /// at a time.
    #[test]
    fn a_reply_larger_than_the_scratch_arrives_whole() {
        let (mut d, _) = Driven::new(false);
        let mut origin = d.dialled("/big");
        let body: Vec<u8> = (0..200 * 1024).map(|i| (i % 251) as u8).collect();
        let wire = ok(&body);
        let writer = thread::spawn(move || {
            origin.write_all(&wire).unwrap();
            origin
        });
        let (i, got, _) = d.reply();
        assert!(got == body, "200 KiB, byte for byte");
        d.io.release(&d.ep, i);
        assert!(d.io.conns[i].conn.is_some(), "nothing left over: pooled");
        drop(writer.join().unwrap());
    }

    /// The proxy's end of `control::tests::a_burst_of_whole_lines_…`:
    /// twice `MAX_LINE` of whole `INVALIDATE` lines is so many
    /// invalidations, each `ACK`ed; one line that long ends the channel.
    #[test]
    fn a_burst_of_whole_control_lines_is_not_an_oversized_line() {
        let (mut d, theirs) = Driven::new(true);
        let mut theirs = theirs.unwrap();
        let notices = 2 * MAX_LINE / "INVALIDATE /a\n".len();
        let writer = thread::spawn(move || {
            theirs
                .write_all("INVALIDATE /a\n".repeat(notices).as_bytes())
                .unwrap();
            let mut acks = vec![0; notices * "ACK\n".len()];
            theirs.read_exact(&mut acks).unwrap();
            assert_eq!(acks, "ACK\n".repeat(notices).as_bytes());
            theirs
        });
        let mut heard = 0;
        while heard < notices {
            let (_, _, ready) = d.wait();
            d.io.control_ready(&d.ep, ready, &mut d.scratch, |event| match event {
                ControlEvent::Invalidate(path) => {
                    assert_eq!(path, "/a");
                    heard += 1;
                    true
                }
                ControlEvent::Answered(k, _) => panic!("nothing was asked, {k} answered"),
            });
        }
        assert_eq!(heard, notices);
        // (The `ACK`s may still be draining: writable edges flush them.)
        while !writer.is_finished() {
            if let Some((_, _, ready)) = d.poll(5) {
                d.io.control_ready(&d.ep, ready, &mut d.scratch, |_| true);
            }
        }
        let mut theirs = writer.join().unwrap();
        assert!(d.io.control.is_some(), "the channel took it all");

        theirs.write_all(&vec![b'X'; MAX_LINE + 1]).unwrap();
        while d.io.control.is_some() {
            let (_, _, ready) = d.wait();
            d.io.control_ready(&d.ep, ready, &mut d.scratch, |_| true);
        }
    }

    /// What the origin has read so far, without waiting for more.
    fn read_now(theirs: &mut TcpStream) -> String {
        theirs.set_nonblocking(true).unwrap();
        let mut got = Vec::new();
        let _ = theirs.read_to_end(&mut got);
        theirs.set_nonblocking(false).unwrap();
        String::from_utf8(got).unwrap()
    }

    /// `UNSUBSCRIBE` lines are not a write of their own. They wait,
    /// unsent, and leave ahead of the channel's next write — a fetch of
    /// the file just dropped is on the wire behind its `UNSUBSCRIBE`, so
    /// the origin unsubscribes, then resubscribes — or an answer to a
    /// notice: a `NACK` when the notice crossed its file's line. With
    /// nothing else to write they go at the next tick, which the shard
    /// asks for while they wait.
    #[test]
    fn unsent_lines_leave_with_the_next_write_or_the_next_tick() {
        let (mut d, theirs) = Driven::new(true);
        let mut theirs = theirs.unwrap();

        d.io.control(b"UNSUBSCRIBE /v\n");
        assert!(d.io.budgeted(), "a tick is owed to the unsent line");
        assert_eq!(read_now(&mut theirs), "", "written on its own");
        let request = Request::get("/v").to_bytes();
        d.io.exchange(&d.ep, request.clone(), true, "/v");
        let mut read = vec![0; "UNSUBSCRIBE /v\n".len() + request.len()];
        theirs.read_exact(&mut read).unwrap();
        assert_eq!(read, [b"UNSUBSCRIBE /v\n".as_slice(), &request].concat());

        // The reply is in: nothing is owed, and the line the reply's
        // insert dropped waits for the notice the origin sent behind it.
        theirs.write_all(&ok(b"v")).unwrap();
        d.io.control(b"UNSUBSCRIBE /w\n");
        theirs.write_all(b"INVALIDATE /w\n").unwrap();
        let mut heard = Vec::new();
        while heard.len() < 2 {
            let (_, _, ready) = d.wait();
            d.io.control_ready(&d.ep, ready, &mut d.scratch, |event| match event {
                ControlEvent::Answered(k, _) => {
                    heard.push(format!("reply to {k}"));
                    true
                }
                ControlEvent::Invalidate(path) => {
                    heard.push(format!("INVALIDATE {path}"));
                    false
                }
            });
        }
        assert_eq!(heard, ["reply to /v", "INVALIDATE /w"]);
        let mut read = vec![0; "UNSUBSCRIBE /w\nNACK\n".len()];
        theirs.read_exact(&mut read).unwrap();
        assert_eq!(read, b"UNSUBSCRIBE /w\nNACK\n");

        d.io.control(b"UNSUBSCRIBE /x\n");
        assert!(d.io.budgeted());
        d.io.tick(&d.ep);
        assert!(!d.io.budgeted(), "one tick wrote it");
        let mut read = vec![0; "UNSUBSCRIBE /x\n".len()];
        theirs.read_exact(&mut read).unwrap();
        assert_eq!(read, b"UNSUBSCRIBE /x\n");
        assert!(d.io.ended.is_empty());
    }

    /// A fetch travels on the control channel, and its reply — several
    /// scratch-fulls, far past `MAX_LINE` — is handed over whole, in line
    /// order with the `INVALIDATE` written right behind it. Once the
    /// channel is gone the shard never fetches unsubscribed: its next
    /// exchange fails at once, naming the lost channel, and no data
    /// connection is dialled in its place.
    #[test]
    fn after_the_control_channel_is_lost_an_exchange_fails_and_dials_nothing() {
        let (mut d, theirs) = Driven::new(true);
        let mut theirs = theirs.unwrap();
        let request = Request::get("/big").to_bytes();
        d.io.exchange(&d.ep, request.clone(), true, "/big");
        let mut read = vec![0; request.len()];
        theirs.read_exact(&mut read).unwrap();
        assert_eq!(read, request);

        let body: Vec<u8> = (0..200 * 1024).map(|i| (i % 251) as u8).collect();
        let mut wire = ok(&body);
        wire.extend_from_slice(b"INVALIDATE /big\n");
        let writer = thread::spawn(move || {
            theirs.write_all(&wire).unwrap();
            let mut ack = [0; 4];
            theirs.read_exact(&mut ack).unwrap();
            assert_eq!(&ack, b"ACK\n");
            theirs
        });
        let mut heard = Vec::new();
        while heard.len() < 2 {
            let (_, _, ready) = d.wait();
            d.io.control_ready(&d.ep, ready, &mut d.scratch, |event| {
                heard.push(match event {
                    ControlEvent::Answered(k, Arrived(_, got, _)) => {
                        assert!(got == body, "200 KiB, byte for byte");
                        format!("reply to {k}")
                    }
                    ControlEvent::Invalidate(path) => format!("INVALIDATE {path}"),
                });
                true
            });
        }
        assert_eq!(heard, ["reply to /big", "INVALIDATE /big"]);

        drop(writer.join().unwrap());
        while d.io.control.is_some() {
            let (_, _, ready) = d.wait();
            d.io.control_ready(&d.ep, ready, &mut d.scratch, |_| true);
        }
        d.io.exchange(&d.ep, Request::get("/next").to_bytes(), true, "/next");
        let Some(("/next", Err(lost))) = d.io.ended.pop() else {
            panic!("the exchange was not failed at once");
        };
        assert!(
            lost.to_string().contains("control channel is lost"),
            "{lost}"
        );
        assert!(
            d.io.conns.iter().all(|s| s.conn.is_none()),
            "a data connection"
        );
        d.origin.set_nonblocking(true).unwrap();
        assert!(d.origin.accept().is_err(), "a dial reached the origin");
    }
}
