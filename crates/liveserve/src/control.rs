//! The invalidation control channel's protocol.
//!
//! Each proxy shard keeps one persistent TCP connection to the origin's
//! control port: one ordered stream of everything the origin's ledger
//! sees, framed the same way at both ends (`upstream::Wire::next_frame`)
//! — an HTTP message by its head and `Content-Length`, anything else by
//! its newline:
//!
//! * proxy → origin: a `GET` of a file the shard will store, answered
//!   with the response a data connection would carry; a `200` subscribes
//!   the shard to the file under the lock acquisition that picks the
//!   version, so any later modification's `INVALIDATE` follows the
//!   reply. `UNSUBSCRIBE <path>`, unanswered: it rides the shard's next
//!   write;
//! * origin → proxy: `INVALIDATE <path>`, each answered in order: `ACK`
//!   if the shard held the file, else `NACK`, which is not counted.
//!
//! Answers are matched to sends by position, never by timing: the
//! origin's ledger exceeds what a shard holds only by the shard's unsent
//! lines, and only a notice that crosses one is `NACK`ed. The origin
//! answers what arrived together with one write. Only its `INVALIDATE`
//! waits for an answer before the next, which makes the channel a
//! sequencing point: at the `ACK`, the proxy has already marked its copy
//! invalid, mirroring the simulator's assumption that invalidation
//! callbacks are instantaneous.
//!
//! [`ControlMsg`] is the protocol and [`PeerIo`] the origin's end of it:
//! the control listener and every connected peer, nonblocking, owned by
//! the origin's first reactor thread alone — a peer's [`CacheId`] is its
//! slot, and nothing here takes a lock or waits. A [`Notice`] is written
//! to all of its targets at once; each target's FIFO keeps a clone of
//! its `owed` handle until the answer, and the publisher waits for the
//! last clone to be dropped — by an answer, or by the end of the peer: a
//! hang-up, a protocol error (an answer nobody is owed is one), a failed
//! write, or the tick budget running out on a notice. The proxy's end is
//! the mirror image and lives in `upstream`.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::SyncSender;

use httpsim::Request;
use simcore::CacheId;

use crate::conn::ReadEnd;
use crate::netio::{invalid, log_conn_error};
use crate::reactor::{peer_token, Dispatch, Ready, CONTROL_TOKEN};
use crate::sys::{Epoll, EPOLLIN};
use crate::upstream::{Frame, Wire};

/// Hard cap on one control line. Paths are short; a peer that streams
/// this much without a newline is broken or hostile, and the channel is
/// closed instead of buffering without bound.
pub(crate) const MAX_LINE: usize = 64 * 1024;

/// One parsed control line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ControlMsg<'a> {
    /// `UNSUBSCRIBE <path>` — stop delivering invalidations for `path`.
    Unsubscribe(&'a str),
    /// `INVALIDATE <path>` — the origin's copy of `path` changed.
    Invalidate(&'a str),
    /// `ACK` — the shard held the file: its copy is marked invalid.
    Ack,
    /// `NACK` — the notice crossed the shard's `UNSUBSCRIBE`: not counted.
    Nack,
}

impl<'a> ControlMsg<'a> {
    pub(crate) fn parse(line: &'a str) -> io::Result<ControlMsg<'a>> {
        let msg = match line.split_once(' ') {
            Some(("UNSUBSCRIBE", path)) => ControlMsg::Unsubscribe(path),
            Some(("INVALIDATE", path)) => ControlMsg::Invalidate(path),
            None if line == "ACK" => ControlMsg::Ack,
            None if line == "NACK" => ControlMsg::Nack,
            _ => return Err(invalid(format!("bad control message: {line:?}"))),
        };
        Ok(msg)
    }

    pub(crate) fn encode(&self) -> String {
        match self {
            ControlMsg::Unsubscribe(p) => format!("UNSUBSCRIBE {p}\n"),
            ControlMsg::Invalidate(p) => format!("INVALIDATE {p}\n"),
            ControlMsg::Ack => "ACK\n".to_string(),
            ControlMsg::Nack => "NACK\n".to_string(),
        }
    }
}

/// What a control peer told the origin, fetches aside
/// ([`Dispatch::fetch`]).
pub(crate) enum PeerEvent<'a> {
    /// `UNSUBSCRIBE <path>`.
    Unsubscribe(&'a str),
    /// `NACK`: the notice it answers is retracted from the count.
    Nack,
    /// The channel closed: every subscription of the peer's goes.
    Gone,
}

/// One `INVALIDATE` line for every peer in `targets`.
pub(crate) struct Notice {
    pub line: String,
    pub targets: Vec<CacheId>,
    /// Nothing is ever sent on it: its last clone dropped is the signal.
    pub owed: SyncSender<Infallible>,
}

struct Peer {
    wire: Wire,
    /// Notices written and not yet answered, oldest first.
    owed: VecDeque<SyncSender<Infallible>>,
    /// Idle ticks since the peer last sent anything, counted only
    /// while it owes an answer.
    idle_ticks: u32,
}

/// The origin's control listener and its peers (see the module doc).
pub(crate) struct PeerIo {
    listener: TcpListener,
    /// One slot per peer ever connected, vacated when it closes: proxy
    /// shards are few and long-lived.
    peers: Vec<Option<Peer>>,
    budget_ticks: u32,
}

impl PeerIo {
    pub(crate) fn new(listener: TcpListener, ep: &Epoll, budget_ticks: u32) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        ep.add(listener.as_raw_fd(), EPOLLIN, CONTROL_TOKEN)?;
        Ok(PeerIo {
            listener,
            peers: Vec::new(),
            budget_ticks,
        })
    }

    /// Readiness on the listener, which is level-triggered: one peer a
    /// notification.
    pub(crate) fn accept(&mut self, ep: &Epoll) {
        let admitted = self.listener.accept();
        match admitted.and_then(|(stream, _)| self.admit(stream, ep)) {
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => {
                log_conn_error("origin-control", &e);
            }
            _ => {}
        }
    }

    fn admit(&mut self, stream: TcpStream, ep: &Epoll) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let wire = Wire::register(stream, ep, peer_token(self.peers.len()))?;
        self.peers.push(Some(Peer {
            wire,
            owed: VecDeque::new(),
            idle_ticks: 0,
        }));
        Ok(())
    }

    /// Readiness on peer `index`'s socket: every fetch and command that
    /// has arrived, in order, to the dispatcher.
    pub(crate) fn ready(
        &mut self,
        ep: &Epoll,
        index: usize,
        ready: Ready,
        scratch: &mut [u8],
        to: &impl Dispatch,
    ) {
        let Some(peer) = self.peers.get_mut(index).and_then(Option::as_mut) else {
            return; // readiness for a peer since closed
        };
        match peer.drive(ready, scratch, CacheId::from_index(index), to) {
            Ok(false) => {}
            Ok(true) => self.close(ep, index, None, to),
            Err(e) => self.close(ep, index, Some(e), to),
        }
    }

    /// Write `notice` to every target still connected.
    pub(crate) fn deliver(&mut self, ep: &Epoll, notice: Notice, to: &impl Dispatch) {
        for cache in notice.targets {
            let Some(peer) = self.peers.get_mut(cache.index()).and_then(Option::as_mut) else {
                continue;
            };
            peer.wire.queue(notice.line.as_bytes());
            peer.owed.push_back(notice.owed.clone());
            if let Err(e) = peer.wire.flush() {
                self.close(ep, cache.index(), Some(e), to);
            }
        }
    }

    /// Whether a tick would count against anyone: a peer owes an answer.
    pub(crate) fn budgeted(&self) -> bool {
        self.peers.iter().flatten().any(|p| !p.owed.is_empty())
    }

    /// One poll tick: a peer that owes an answer and has sent nothing
    /// for the whole budget is closed.
    pub(crate) fn tick(&mut self, ep: &Epoll, to: &impl Dispatch) {
        for index in 0..self.peers.len() {
            let Some(peer) = self.peers[index].as_mut().filter(|p| !p.owed.is_empty()) else {
                continue;
            };
            peer.idle_ticks += 1;
            if peer.idle_ticks >= self.budget_ticks {
                let what = "read budget exhausted waiting for an answer";
                let e = io::Error::new(io::ErrorKind::TimedOut, what);
                self.close(ep, index, Some(e), to);
            }
        }
    }

    /// Close peer `index`: its subscriptions go, and with its FIFO the
    /// wait of every publisher it still owed.
    fn close(&mut self, ep: &Epoll, index: usize, why: Option<io::Error>, to: &impl Dispatch) {
        if let Some(e) = why {
            log_conn_error("origin-control", &e);
        }
        if let Some(peer) = self.peers[index].take() {
            let _ = ep.del(peer.wire.stream.as_raw_fd());
            to.peer(CacheId::from_index(index), PeerEvent::Gone);
        }
    }
}

impl Peer {
    /// Move bytes both ways, `to` answering for peer `cache`. What
    /// arrived together is taken in order, and its replies written by one
    /// write, each registered by then; `Ok(true)` means the peer hung up.
    fn drive(
        &mut self,
        ready: Ready,
        scratch: &mut [u8],
        cache: CacheId,
        to: &impl Dispatch,
    ) -> io::Result<bool> {
        if ready.writable {
            self.wire.flush()?;
        }
        if !ready.readable {
            return Ok(false);
        }
        self.idle_ticks = 0;
        let fetch = |buf: &[u8]| Request::from_bytes(buf).map_err(invalid);
        let eof = loop {
            let end = self.wire.read_frames(ready.hup, scratch)?;
            while let Some(frame) = self.wire.next_frame(b"GET ", fetch)? {
                let line = match frame {
                    Frame::Http(req) => {
                        let (resp, body) = to.fetch(cache, &req);
                        resp.append_to(&body, self.wire.out());
                        continue;
                    }
                    Frame::Line(line) => line,
                };
                match ControlMsg::parse(line)? {
                    ControlMsg::Unsubscribe(path) => to.peer(cache, PeerEvent::Unsubscribe(path)),
                    answer @ (ControlMsg::Ack | ControlMsg::Nack) => {
                        // A notice is retracted before its publisher is released.
                        if answer == ControlMsg::Nack && !self.owed.is_empty() {
                            to.peer(cache, PeerEvent::Nack);
                        }
                        if self.owed.pop_front().is_none() {
                            return Err(invalid(format!("{line} with no notice outstanding")));
                        }
                    }
                    other => {
                        let what = format!("unexpected control message at origin: {other:?}");
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
        self.wire.flush()?;
        Ok(eof)
    }
}

#[cfg(test)]
/// A control peer as a blocking test plays one: what a proxy shard's
/// end of the channel says and hears, a line at a time.
pub(crate) struct TestPeer(std::io::BufReader<TcpStream>);

#[cfg(test)]
impl TestPeer {
    pub(crate) fn connect(control: std::net::SocketAddr) -> TestPeer {
        TestPeer(std::io::BufReader::new(
            TcpStream::connect(control).unwrap(),
        ))
    }

    pub(crate) fn say(&mut self, bytes: &str) {
        use std::io::Write as _;
        self.0.get_mut().write_all(bytes.as_bytes()).unwrap();
    }

    /// The next line, terminator included; empty once the origin has
    /// hung up.
    pub(crate) fn hear(&mut self) -> String {
        use std::io::BufRead as _;
        let mut line = String::new();
        let _ = self.0.read_line(&mut line);
        line
    }

    /// The next response, head and body.
    pub(crate) fn hear_response(&mut self) -> (httpsim::Response, Vec<u8>) {
        use std::io::Read as _;
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            let line = self.hear();
            assert!(!line.is_empty(), "hung up on mid-response");
            head.push_str(&line);
        }
        let resp = httpsim::Response::parse(&head).unwrap();
        let mut body = vec![0; resp.content_length.unwrap_or(0) as usize];
        self.0.read_exact(&mut body).unwrap();
        (resp, body)
    }

    /// `GET path` on the channel, and its `200`: the peer is subscribed
    /// to `path`, and what was said before it is in.
    pub(crate) fn fetch(&mut self, path: &str) -> Vec<u8> {
        self.say(&Request::get(path).serialize());
        let (resp, body) = self.hear_response();
        assert_eq!(resp.status, httpsim::Status::Ok, "GET {path}");
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveClock, LiveOrigin, OriginConfig};
    use originserver::{FilePopulation, FileRecord};
    use simcore::SimTime;
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn messages_encode_and_parse_round_trip() {
        let msgs = [
            ControlMsg::Unsubscribe("/a/b.html"),
            ControlMsg::Invalidate("/w/f3.dat"),
            ControlMsg::Ack,
            ControlMsg::Nack,
        ];
        for m in msgs {
            let line = m.encode();
            assert!(line.ends_with('\n'));
            assert_eq!(ControlMsg::parse(line.trim_end()).unwrap(), m);
        }
    }

    #[test]
    fn unknown_verbs_are_rejected() {
        assert!(ControlMsg::parse("PURGE /x").is_err());
        assert!(ControlMsg::parse("").is_err());
        assert!(ControlMsg::parse("NACK extra").is_err());
    }

    /// Wait, a few milliseconds at a time, until the origin tracks `n`
    /// subscriptions.
    fn await_subscriptions(origin: &LiveOrigin, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while origin.subscription_count() != n {
            assert!(Instant::now() < deadline, "never {n} subscriptions");
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// `MAX_LINE` bounds the line still arriving, not the whole lines
    /// that arrived with it: a burst of commands twice that long is so
    /// many commands, each taken — and a line that long still is the
    /// end of the peer.
    #[test]
    fn a_burst_of_whole_lines_longer_than_max_line_is_not_an_oversized_line() {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/a", SimTime::ZERO, 10));
        pop.add(FileRecord::new("/b", SimTime::ZERO, 20));
        let clock = LiveClock::virtual_at(SimTime::ZERO);
        let origin = LiveOrigin::spawn(OriginConfig::new(Arc::new(pop), clock)).unwrap();
        let mut peer = TestPeer::connect(origin.control_addr());

        peer.fetch("/a");
        let commands = 2 * MAX_LINE / "UNSUBSCRIBE /a\n".len();
        peer.say(&"UNSUBSCRIBE /a\n".repeat(commands));
        // The reply behind the burst says all of it is in.
        peer.fetch("/b");
        assert_eq!(origin.subscription_count(), 1, "/b alone");

        peer.say(&"X".repeat(MAX_LINE + 1));
        assert_eq!(peer.hear(), "", "hung up on");
        await_subscriptions(&origin, 0);
    }

    /// The origin's end frames what arrives, however it arrives: two
    /// fetches in one write, a command and a fetch each split across
    /// two, and a hang-up mid-line.
    #[test]
    fn line_conn_frames_coalesced_and_split_messages() {
        let mut pop = FilePopulation::new();
        pop.add(FileRecord::new("/a", SimTime::ZERO, 10));
        pop.add(FileRecord::new("/b", SimTime::ZERO, 20));
        let clock = LiveClock::virtual_at(SimTime::ZERO);
        let origin = LiveOrigin::spawn(OriginConfig::new(Arc::new(pop), clock)).unwrap();
        let mut peer = TestPeer::connect(origin.control_addr());

        let get = |path: &str| Request::get(path).serialize();
        peer.say(&(get("/a") + &get("/b")));
        assert_eq!(peer.hear_response().1.len(), 10);
        assert_eq!(peer.hear_response().1.len(), 20);
        assert_eq!(origin.subscription_count(), 2);

        peer.say("UNSUBSC");
        thread::sleep(Duration::from_millis(20));
        assert_eq!(origin.subscription_count(), 2);
        let fetch = get("/a");
        let (first, second) = fetch.split_at(fetch.len() / 2);
        peer.say(&format!("RIBE /a\n{first}"));
        await_subscriptions(&origin, 1);
        peer.say(second);
        assert_eq!(peer.hear_response().1.len(), 10);
        assert_eq!(origin.subscription_count(), 2);

        // Half a line, then a hang-up: the peer is closed, and what it
        // had subscribed to goes with it.
        peer.say("UNSUBSCRIBE /");
        drop(peer);
        await_subscriptions(&origin, 0);
    }
}
