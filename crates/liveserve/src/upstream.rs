//! One proxy shard's socket to the origin, as its owner reactor thread
//! drives it.
//!
//! A [`ShardIo`] holds one [`Wire`] — the socket type of every reactor
//! thread, registered edge-triggered on its epoll set — and the FIFO of
//! continuations `K` owed a reply on it: every exchange of the shard is
//! pipelined there and answered in send order, at most
//! [`MAX_OUTSTANDING`] at a time (one more is refused, a saturation).
//! Nothing here takes a lock, reads a clock for anything but a probe
//! stamp, or waits.
//!
//! Under invalidation the wire is the shard's control channel, dialled
//! at spawn: it also carries the origin's `INVALIDATE`s, each answered
//! once it returns, and the shard's `UNSUBSCRIBE`s, left unsent until
//! its next write — a fetch, an `ACK` or `NACK` — or the next idle tick.
//! A `200` there subscribes the shard, unless the request is marked
//! `FORWARD`. Otherwise the wire is a data-port connection, dialled
//! (`connect_nonblocking`, completed on writability) by the first
//! exchange that finds none; a line on it, or a reply nobody is owed,
//! is a protocol error.
//!
//! A wire that fails — refused dial, reset, EOF, garbage, or the tick
//! budget with a reply owed — fails every exchange on it, and none is
//! re-sent. The next exchange dials again; a channel is never
//! redialled, so every later exchange fails at once and a shard never
//! fetches unsubscribed.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use httpsim::Response;
use wcc_obs::{ObsEvent, ProbeHandle};

use crate::clock::LiveClock;
use crate::control::ControlMsg;
use crate::netio::{invalid, log_conn_error};
use crate::reactor::{upstream_token, Arrived, Ready};
use crate::sys::{connect_nonblocking, Epoll};
use crate::wire::{Frame, ReadEnd, Wire};

/// Exchanges one shard may have outstanding on its wire; the next is
/// refused outright rather than buffered without bound.
pub(crate) const MAX_OUTSTANDING: usize = 260;

/// Where one shard's upstream traffic goes.
pub(crate) enum Upstream {
    /// The origin's HTTP data port, dialled when an exchange needs it.
    Data(SocketAddr),
    /// The shard's connected control channel, under invalidation.
    Control(TcpStream),
}

/// Upstream accounting, summed over every shard.
#[derive(Default)]
pub(crate) struct UpstreamCounters {
    /// Data-port connects that completed.
    pub dials: AtomicU64,
    /// Exchanges sent on a wire that was already open.
    pub reuses: AtomicU64,
    /// Exchanges refused at a full FIFO.
    pub saturations: AtomicU64,
}

/// What every shard of one proxy shares.
#[derive(Clone)]
pub(crate) struct UpstreamEnv {
    /// Poll ticks a reply may be owed without progress.
    pub budget_ticks: u32,
    pub counters: Arc<UpstreamCounters>,
    pub probe: ProbeHandle,
    /// Read only to stamp probe events.
    pub clock: LiveClock,
}

/// The proxy's end's [`Framer`](crate::wire::Framer): a reply.
fn reply_frame(buf: &[u8]) -> io::Result<Option<(Arrived, usize)>> {
    let reply = Response::from_bytes(buf).map_err(invalid)?;
    Ok(reply.map(|(resp, body, used)| {
        let head = (used - body.len()) as u64;
        (Arrived(resp, body, head), used)
    }))
}

/// The shard's open wire and whom it owes.
struct Link<K> {
    wire: Wire,
    /// A data-port dial not yet completed.
    dialing: bool,
    /// The exchanges sent and not yet answered, oldest first.
    pending: VecDeque<K>,
    /// Idle ticks while a reply is owed.
    stall_ticks: u32,
}

/// What the wire produced, in line order.
pub(crate) enum Heard<'a, K> {
    /// `K`'s exchange is answered.
    Reply(K, Arrived),
    /// The origin's copy of this path changed (a channel only): `ACK`
    /// goes out if the callback says the shard held it, else `NACK`.
    Invalidate(&'a str),
}

/// One shard's upstream socket (see the module doc).
pub(crate) struct ShardIo<K> {
    /// Which shard: its socket's epoll token says so too.
    shard: usize,
    /// The data port to dial; `None` for a channel, never redialled.
    origin: Option<SocketAddr>,
    /// Bumped as a wire goes, so readiness for it is not taken for its
    /// successor's.
    gen: u32,
    /// The open wire, if any.
    link: Option<Link<K>>,
    /// Exchanges that failed since the reactor last looked; it resumes
    /// them after every call in here.
    pub ended: Vec<(K, io::Result<Arrived>)>,
    env: UpstreamEnv,
}

impl<K> ShardIo<K> {
    pub(crate) fn new(
        shard: usize,
        upstream: Upstream,
        ep: &Epoll,
        env: UpstreamEnv,
    ) -> io::Result<Self> {
        let (origin, link) = match upstream {
            Upstream::Data(addr) => (Some(addr), None),
            Upstream::Control(stream) => {
                let wire = Wire::register(stream, ep, upstream_token(shard, 0))?;
                (None, Some(Link::new(wire, false)))
            }
        };
        Ok(ShardIo {
            shard,
            origin,
            gen: 0,
            link,
            ended: Vec::new(),
            env,
        })
    }

    fn record(&self, event: ObsEvent) {
        self.env.probe.record(self.env.clock.now(), event);
    }

    /// Send `request` behind everything already on the wire and resume
    /// `k` with its reply. Under invalidation a request the origin is not
    /// to `subscribe` the shard to is marked `FORWARD` on the channel.
    pub(crate) fn exchange(&mut self, ep: &Epoll, request: &[u8], subscribe: bool, k: K) {
        let depth = self.link.as_ref().map_or(0, |l| l.pending.len());
        self.record(ObsEvent::ShardQueue {
            shard: self.shard as u32,
            depth: depth as u32,
        });
        if depth >= MAX_OUTSTANDING {
            let counters = &self.env.counters;
            counters.saturations.fetch_add(1, Ordering::Relaxed);
            let refusal = format!("upstream saturated: {depth} exchanges outstanding");
            let e = io::Error::new(io::ErrorKind::WouldBlock, refusal);
            return self.ended.push((k, Err(e)));
        }
        if self.link.is_some() {
            self.env.counters.reuses.fetch_add(1, Ordering::Relaxed);
            self.record(ObsEvent::Upstream { reused: true });
        } else if let Err(e) = self.dial(ep) {
            return self.ended.push((k, Err(e)));
        }
        let channel = self.origin.is_none();
        let Some(link) = &mut self.link else {
            return;
        };
        if channel && !subscribe {
            link.wire.queue(ControlMsg::Forward.encode().as_bytes());
        }
        link.wire.queue(request);
        link.pending.push_back(k);
        if !link.dialing {
            if let Err(e) = link.wire.flush() {
                self.fail(ep, e);
            }
        }
    }

    /// Open a wire for the next exchange: a dial to the data port, or
    /// the error that names the lost channel.
    fn dial(&mut self, ep: &Epoll) -> io::Result<()> {
        let Some(origin) = self.origin else {
            let lost = "the shard's control channel is lost: it fetches nothing unsubscribed";
            return Err(io::Error::new(io::ErrorKind::NotConnected, lost));
        };
        let token = upstream_token(self.shard, self.gen);
        let wire = connect_nonblocking(origin).and_then(|s| Wire::register(s, ep, token))?;
        self.link = Some(Link::new(wire, true));
        Ok(())
    }

    /// Whether a tick would count against anything (a reply is owed) or
    /// flush bytes still unsent.
    pub(crate) fn budgeted(&self) -> bool {
        let waiting = |l: &Link<K>| !l.pending.is_empty() || l.wire.unsent() > 0;
        self.link.as_ref().is_some_and(waiting)
    }

    /// One poll tick: bytes still unsent are written, and a wire that
    /// owes a reply and made no progress for the whole budget fails.
    pub(crate) fn tick(&mut self, ep: &Epoll) {
        let Some(link) = &mut self.link else {
            return;
        };
        if !link.dialing {
            let _ = link.wire.flush(); // an error raises its own edge
        }
        link.stall_ticks += u32::from(!link.pending.is_empty());
        if !link.pending.is_empty() && link.stall_ticks >= self.env.budget_ticks {
            let what = "read budget exhausted waiting for the origin";
            self.fail(ep, io::Error::new(io::ErrorKind::TimedOut, what));
        }
    }

    /// Append `lines` (whole ones: a fetch's victims, and its file) to the
    /// channel unsent, for its next write or tick. With no channel they
    /// go, as the origin's ledger of the shard did.
    pub(crate) fn control(&mut self, lines: &[u8]) {
        if let Some(link) = &mut self.link {
            link.wire.queue(lines);
        }
    }

    /// Readiness on the wire of generation `gen`: every complete frame,
    /// in order, through `on` (what it returns answers an `Invalidate`).
    pub(crate) fn ready(
        &mut self,
        ep: &Epoll,
        gen: u32,
        ready: Ready,
        scratch: &mut [u8],
        mut on: impl FnMut(Heard<'_, K>) -> bool,
    ) {
        let channel = self.origin.is_none();
        let Some(link) = self.link.as_mut().filter(|_| gen == self.gen) else {
            return; // readiness for a wire since gone
        };
        let was_dialing = link.dialing;
        let outcome = link.drive(ready, scratch, channel, &mut on);
        if was_dialing && !link.dialing {
            self.env.counters.dials.fetch_add(1, Ordering::Relaxed);
            self.record(ObsEvent::Upstream { reused: false });
        }
        if let Err(e) = outcome {
            self.fail(ep, e);
        }
    }

    /// The wire is dead, `e` says why: every exchange on it fails.
    fn fail(&mut self, ep: &Epoll, e: io::Error) {
        let Some(dead) = self.link.take() else {
            return;
        };
        let _ = ep.del(dead.wire.stream.as_raw_fd());
        self.gen = self.gen.wrapping_add(1);
        // An idle data connection the origin closed is no news.
        if self.origin.is_none() || !dead.pending.is_empty() {
            log_conn_error("proxy-upstream", &e);
        }
        for k in dead.pending {
            let failed = io::Error::new(e.kind(), format!("upstream: {e}"));
            self.ended.push((k, Err(failed)));
        }
    }
}

impl<K> Link<K> {
    fn new(wire: Wire, dialing: bool) -> Self {
        Link {
            wire,
            dialing,
            pending: VecDeque::new(),
            stall_ticks: 0,
        }
    }

    /// Move bytes both ways: what arrived, in line order through `on`.
    /// A readable edge also says writable, and is no write but the
    /// answers to the notices it brought.
    fn drive(
        &mut self,
        ready: Ready,
        scratch: &mut [u8],
        channel: bool,
        on: &mut impl FnMut(Heard<'_, K>) -> bool,
    ) -> io::Result<()> {
        if ready.writable && self.dialing {
            if let Some(e) = self.wire.stream.take_error()? {
                return Err(e);
            }
            self.dialing = false;
        }
        if self.dialing {
            return Ok(());
        }
        if !ready.readable {
            return self.wire.flush().map(drop);
        }
        self.stall_ticks = 0;
        let mut answered = false;
        let eof = loop {
            let end = self.wire.read_frames(ready.hup, scratch)?;
            while let Some(frame) = self.wire.next_frame(b"HTTP/", reply_frame)? {
                let line = match frame {
                    Frame::Http(reply) => {
                        let Some(k) = self.pending.pop_front() else {
                            return Err(invalid("a reply nobody is owed"));
                        };
                        on(Heard::Reply(k, reply));
                        continue;
                    }
                    Frame::Line(line) if channel => line,
                    Frame::Line(line) => {
                        return Err(invalid(format!("a line on a data connection: {line:?}")))
                    }
                };
                // Answer only after the caller has marked the entry: once
                // the origin sees the ACK, no client can be served the
                // stale copy.
                match ControlMsg::parse(line)? {
                    ControlMsg::Invalidate(path) => {
                        let answer = if on(Heard::Invalidate(path)) {
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
        match eof {
            true => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "origin hung up",
            )),
            false => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::MAX_LINE;
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
        /// On a control channel when `control` is set, whose far end
        /// comes back too; else on the data port.
        fn new(control: bool) -> (Driven, Option<TcpStream>) {
            let origin = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = origin.local_addr().unwrap();
            let (upstream, theirs) = if control {
                let ours = TcpStream::connect(addr).unwrap();
                (Upstream::Control(ours), Some(origin.accept().unwrap().0))
            } else {
                (Upstream::Data(addr), None)
            };
            let ep = Epoll::new().unwrap();
            let env = UpstreamEnv {
                budget_ticks: 10,
                counters: Arc::default(),
                probe: ProbeHandle::none(),
                clock: LiveClock::virtual_at(SimTime::ZERO),
            };
            let io = ShardIo::new(0, upstream, &ep, env).unwrap();
            let scratch = vec![0; 64 * 1024];
            let driven = Driven {
                origin,
                ep,
                io,
                scratch,
            };
            (driven, theirs)
        }

        /// The next readiness notification within `ms`, as (generation,
        /// what it said). The shard has one socket.
        fn poll(&self, ms: i32) -> Option<(u32, Ready)> {
            let mut events = [EpollEvent::zeroed(); 1];
            let n = self.ep.epoll_wait(&mut events, ms).unwrap();
            let ready = Ready::from_mask(events[0].events());
            (n == Some(1)).then_some(((events[0].token() >> 32) as u32, ready))
        }

        fn wait(&self) -> (u32, Ready) {
            self.poll(10_000).expect("a notification within 10 s")
        }

        /// Drive one notification: the replies it completed, as "reply to
        /// <k>", and the notices it brought, as "INVALIDATE <path>", each
        /// answered `held`.
        fn step(&mut self, held: bool) -> Vec<String> {
            let (gen, ready) = self.wait();
            let mut heard = Vec::new();
            self.io
                .ready(&self.ep, gen, ready, &mut self.scratch, |event| {
                    heard.push(match event {
                        Heard::Reply(k, _) => format!("reply to {k}"),
                        Heard::Invalidate(path) => format!("INVALIDATE {path}"),
                    });
                    held
                });
            heard
        }

        /// Drive notifications until `n` events are in.
        fn hear(&mut self, n: usize) -> Vec<String> {
            let mut heard = Vec::new();
            while heard.len() < n {
                heard.extend(self.step(true));
            }
            heard
        }

        /// Send GETs of `paths` on the data port, and play the origin's
        /// side of the one dial: the accepted connection, with the
        /// requests read off it.
        fn dialled(&mut self, paths: &[&'static str]) -> TcpStream {
            let mut sent = Vec::new();
            for &path in paths {
                let request = Request::get(path).to_bytes();
                self.io.exchange(&self.ep, &request, false, path);
                sent.extend(request);
            }
            let (mut origin, _) = self.origin.accept().unwrap();
            assert!(self.step(true).is_empty(), "the dial completes");
            let mut read = vec![0; sent.len()];
            origin.read_exact(&mut read).unwrap();
            assert_eq!(read, sent);
            origin
        }

        fn dials(&self) -> u64 {
            self.io.env.counters.dials.load(Ordering::Relaxed)
        }

        fn reuses(&self) -> u64 {
            self.io.env.counters.reuses.load(Ordering::Relaxed)
        }

        /// Whether the origin has a connection from the shard waiting.
        fn dialled_again(&self) -> bool {
            self.origin.set_nonblocking(true).unwrap();
            let again = self.origin.accept().is_ok();
            self.origin.set_nonblocking(false).unwrap();
            again
        }
    }

    fn ok(body: &[u8]) -> Vec<u8> {
        Response::ok(HttpDate(2), HttpDate(1), body.len() as u64).to_bytes(body)
    }

    /// Three exchanges on the data port share one dial: the second and
    /// third queue behind the first while it completes, go out together,
    /// and are answered in send order from one write.
    #[test]
    fn three_exchanges_pipelined_on_one_data_wire_are_answered_in_order() {
        let (mut d, _) = Driven::new(false);
        let mut origin = d.dialled(&["/a", "/b", "/c"]);
        origin
            .write_all(&[ok(b"a"), ok(b"b"), ok(b"c")].concat())
            .unwrap();
        assert_eq!(d.hear(3), ["reply to /a", "reply to /b", "reply to /c"]);
        assert_eq!((d.dials(), d.reuses()), (1, 2));
        assert!(!d.io.budgeted(), "nothing is owed");
        assert!(!d.dialled_again());
        assert!(d.io.ended.is_empty());
    }

    /// A hang-up right behind the second reply: the second is answered,
    /// the third fails with the wire and is not re-sent, and the next
    /// exchange dials again.
    #[test]
    fn a_hang_up_behind_the_second_reply_fails_the_third_and_the_next_exchange_redials() {
        let (mut d, _) = Driven::new(false);
        let mut origin = d.dialled(&["/a", "/b", "/c"]);
        origin.write_all(&[ok(b"a"), ok(b"b")].concat()).unwrap();
        drop(origin);
        let mut heard = Vec::new();
        while d.io.ended.is_empty() {
            heard.extend(d.step(true));
        }
        assert_eq!(heard, ["reply to /a", "reply to /b"]);
        let Some(("/c", Err(e))) = d.io.ended.pop() else {
            panic!("/c did not fail");
        };
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(!d.dialled_again(), "/c was re-sent");

        let mut origin = d.dialled(&["/d"]);
        origin.write_all(&ok(b"d")).unwrap();
        assert_eq!(d.hear(1), ["reply to /d"]);
        assert_eq!((d.dials(), d.reuses()), (2, 2));
    }

    /// An origin that reads the requests and says nothing: once the tick
    /// budget runs out every exchange on the wire fails, and the shard
    /// owes the tick nothing more.
    #[test]
    fn a_stall_fails_the_whole_fifo() {
        let (mut d, _) = Driven::new(false);
        let _silent = d.dialled(&["/a", "/b"]);
        for _ in 0..d.io.env.budget_ticks {
            assert!(d.io.budgeted() && d.io.ended.is_empty());
            d.io.tick(&d.ep);
        }
        let failed: Vec<_> =
            d.io.ended
                .drain(..)
                .map(|(k, r)| (k, r.map(drop)))
                .collect();
        assert!(
            matches!(failed[..], [("/a", Err(ref a)), ("/b", Err(ref b))]
                if a.kind() == io::ErrorKind::TimedOut && b.kind() == io::ErrorKind::TimedOut),
            "{failed:?}"
        );
        assert!(!d.io.budgeted());
    }

    /// A data connection carries replies and nothing else: a line on it,
    /// or a reply nobody is owed, ends it.
    #[test]
    fn a_line_or_an_unowed_reply_on_a_data_wire_is_a_protocol_error() {
        let (mut d, _) = Driven::new(false);
        for garbage in [
            b"INVALIDATE /a\n".to_vec(),
            [ok(b"a"), ok(b"extra")].concat(),
        ] {
            let mut origin = d.dialled(&["/a"]);
            origin.write_all(&garbage).unwrap();
            while d.io.link.is_some() {
                d.step(true);
            }
        }
        // The first exchange failed with its wire; the second was answered.
        let Some(("/a", Err(e))) = d.io.ended.pop() else {
            panic!("the line did not fail the exchange");
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(d.io.ended.is_empty());
    }

    /// A reply several times the scratch arrives whole, a scratch-full
    /// at a time.
    #[test]
    fn a_reply_larger_than_the_scratch_arrives_whole() {
        let (mut d, _) = Driven::new(false);
        let mut origin = d.dialled(&["/big"]);
        let body: Vec<u8> = (0..200 * 1024).map(|i| (i % 251) as u8).collect();
        let wire = ok(&body);
        let writer = thread::spawn(move || {
            origin.write_all(&wire).unwrap();
            origin
        });
        let mut got = None;
        while got.is_none() {
            let (gen, ready) = d.wait();
            d.io.ready(&d.ep, gen, ready, &mut d.scratch, |event| {
                if let Heard::Reply(_, Arrived(_, bytes, _)) = event {
                    got = Some(bytes);
                }
                true
            });
        }
        assert!(got.unwrap() == body, "200 KiB, byte for byte");
        assert!(d.io.link.is_some(), "nothing left over: still open");
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
        let heard = d.hear(notices);
        assert!(heard.iter().all(|h| h == "INVALIDATE /a"));
        // (The `ACK`s may still be draining: writable edges flush them.)
        while !writer.is_finished() {
            if let Some((gen, ready)) = d.poll(5) {
                d.io.ready(&d.ep, gen, ready, &mut d.scratch, |_| true);
            }
        }
        let mut theirs = writer.join().unwrap();
        assert!(d.io.link.is_some(), "the channel took it all");

        theirs.write_all(&vec![b'X'; MAX_LINE + 1]).unwrap();
        while d.io.link.is_some() {
            d.step(true);
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
    /// asks for while they wait. A forward is marked: the origin answers
    /// it without subscribing.
    #[test]
    fn unsent_lines_leave_with_the_next_write_or_the_next_tick() {
        let (mut d, theirs) = Driven::new(true);
        let mut theirs = theirs.unwrap();

        d.io.control(b"UNSUBSCRIBE /v\n");
        assert!(d.io.budgeted(), "a tick is owed to the unsent line");
        assert_eq!(read_now(&mut theirs), "", "written on its own");
        let request = Request::get("/v").to_bytes();
        d.io.exchange(&d.ep, &request, true, "/v");
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
            heard.extend(d.step(false));
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

        let forward = Request::get("/cgi").to_bytes();
        d.io.exchange(&d.ep, &forward, false, "/cgi");
        let mut read = vec![0; "FORWARD\n".len() + forward.len()];
        theirs.read_exact(&mut read).unwrap();
        assert_eq!(read, [b"FORWARD\n".as_slice(), &forward].concat());
        assert!(d.io.ended.is_empty());
        assert_eq!((d.dials(), d.reuses()), (0, 2), "the channel is no dial");
    }

    /// A fetch travels on the control channel, and its reply — several
    /// scratch-fulls, far past `MAX_LINE` — is handed over whole, in line
    /// order with the `INVALIDATE` written right behind it. Once the
    /// channel is gone the shard never fetches unsubscribed: its next
    /// exchange fails at once, naming the lost channel, and nothing is
    /// dialled in its place.
    #[test]
    fn after_the_control_channel_is_lost_an_exchange_fails_and_dials_nothing() {
        let (mut d, theirs) = Driven::new(true);
        let mut theirs = theirs.unwrap();
        let request = Request::get("/big").to_bytes();
        d.io.exchange(&d.ep, &request, true, "/big");
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
            let (gen, ready) = d.wait();
            d.io.ready(&d.ep, gen, ready, &mut d.scratch, |event| {
                heard.push(match event {
                    Heard::Reply(k, Arrived(_, got, _)) => {
                        assert!(got == body, "200 KiB, byte for byte");
                        format!("reply to {k}")
                    }
                    Heard::Invalidate(path) => format!("INVALIDATE {path}"),
                });
                true
            });
        }
        assert_eq!(heard, ["reply to /big", "INVALIDATE /big"]);

        drop(writer.join().unwrap());
        while d.io.link.is_some() {
            d.step(true);
        }
        d.io.exchange(&d.ep, &Request::get("/next").to_bytes(), true, "/next");
        let Some(("/next", Err(lost))) = d.io.ended.pop() else {
            panic!("the exchange was not failed at once");
        };
        assert!(
            lost.to_string().contains("control channel is lost"),
            "{lost}"
        );
        assert!(d.io.link.is_none() && !d.dialled_again(), "a dial");
    }
}
