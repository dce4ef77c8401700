//! Per-connection state machine for the reactor data path.
//!
//! The lifecycle the reactor drives is `Reading → Dispatched → Writing
//! → Reading/Close`. [`Conn`] holds the client's [`Wire`] — its socket,
//! buffers and reads, as for every other socket a reactor drives — and
//! layers the dispatch/write/keep-alive states and the tick-counted
//! read budget on top. A request is framed by `Request::from_bytes`, as
//! on a control channel: a declared body is read and discarded, one
//! request is taken at a time, and pipelined bytes stay on the wire.
//! Nothing here takes a lock or reads a clock, so the reactor can call
//! into it from the event loop without ordering hazards.
//!
//! Semantics mirror the blocking `netio::HttpConn` path exactly:
//! oversized frames and unparseable heads kill the connection, EOF
//! between frames is a clean close, EOF mid-frame is an error, and the
//! slow-loris budget counts silent poll ticks only while mid-frame or
//! mid-response (an idle keep-alive connection may sit forever).

use httpsim::{Request, Response};
use wcc_obs::ConnCloseReason;

use crate::netio::log_conn_error;
use crate::wire::{request_frame, ReadEnd, Wire};

enum ConnState {
    /// Reading (or idle keep-alive, when nothing is buffered).
    Reading,
    /// A parsed request is with the dispatcher; its response has not
    /// been written yet. At most one request is ever outstanding.
    Dispatched,
    /// Draining the serialized response.
    Writing,
}

/// What the reactor should do after driving a connection.
pub(crate) enum ConnEvent {
    /// Nothing actionable; wait for more readiness.
    Idle,
    /// A complete request is ready — hand it to the dispatcher.
    Dispatch(Request),
    /// Close the connection for this reason.
    Close(ConnCloseReason),
}

/// One nonblocking client connection owned by a reactor thread.
pub(crate) struct Conn {
    pub wire: Wire,
    state: ConnState,
    peer_eof: bool,
    stall_ticks: u32,
    budget_ticks: u32,
}

impl Conn {
    pub(crate) fn new(wire: Wire, budget_ticks: u32) -> Conn {
        Conn {
            wire,
            state: ConnState::Reading,
            peer_eof: false,
            stall_ticks: 0,
            budget_ticks,
        }
    }

    /// Readable readiness (`hup`: with a hang-up or an error): drain
    /// the socket through `scratch` onto the wire, then (when not
    /// mid-dispatch/mid-write) try to complete a request.
    pub(crate) fn on_readable(&mut self, role: &str, hup: bool, scratch: &mut [u8]) -> ConnEvent {
        let had = self.wire.buffered();
        loop {
            match self.wire.read_frames(hup, scratch) {
                Ok(ReadEnd::More) => {}
                Ok(ReadEnd::Drained) => break,
                Ok(ReadEnd::Eof) => {
                    self.peer_eof = true;
                    break;
                }
                Err(e) => {
                    log_conn_error(role, &e);
                    return ConnEvent::Close(ConnCloseReason::Error);
                }
            }
        }
        if self.wire.buffered() > had {
            self.stall_ticks = 0;
        }
        match self.state {
            ConnState::Reading => self.scan(),
            // Bytes are buffered (bounded by MAX_FRAME) but not parsed
            // until the in-flight response completes: one outstanding
            // request per connection.
            ConnState::Dispatched | ConnState::Writing => ConnEvent::Idle,
        }
    }

    /// Try to complete one request from buffered bytes; handles the
    /// keep-alive/close decision when the peer has hung up.
    fn scan(&mut self) -> ConnEvent {
        match self.wire.next_message(request_frame) {
            Err(_) => ConnEvent::Close(ConnCloseReason::Error),
            Ok(Some(req)) => {
                self.state = ConnState::Dispatched;
                self.stall_ticks = 0;
                ConnEvent::Dispatch(req)
            }
            Ok(None) if !self.peer_eof => ConnEvent::Idle,
            // Truncated request: EOF mid-frame.
            Ok(None) if self.wire.buffered() > 0 => ConnEvent::Close(ConnCloseReason::Error),
            Ok(None) => ConnEvent::Close(ConnCloseReason::PeerClosed),
        }
    }

    /// The dispatcher produced the response for the outstanding
    /// request: serialize it and start (or finish) writing.
    pub(crate) fn on_response(&mut self, resp: &Response, body: &[u8], role: &str) -> ConnEvent {
        resp.append_to(body, self.wire.out());
        self.state = ConnState::Writing;
        self.stall_ticks = 0;
        self.on_writable(role)
    }

    /// Writable readiness: flush the response buffer; on completion,
    /// return to keep-alive and immediately scan for a pipelined
    /// request.
    pub(crate) fn on_writable(&mut self, role: &str) -> ConnEvent {
        if !matches!(self.state, ConnState::Writing) {
            return ConnEvent::Idle; // spurious writable edge
        }
        let had = self.wire.unsent();
        let drained = match self.wire.flush() {
            Ok(drained) => drained,
            Err(e) => {
                log_conn_error(role, &e);
                return ConnEvent::Close(ConnCloseReason::Error);
            }
        };
        if self.wire.unsent() < had {
            self.stall_ticks = 0;
        }
        if !drained {
            return ConnEvent::Idle;
        }
        self.state = ConnState::Reading;
        self.stall_ticks = 0;
        self.scan()
    }

    /// Whether the stall budget is counting: only while the peer owes
    /// us progress — mid-frame reads and response drains. Idle
    /// keep-alive connections and requests waiting on our own
    /// dispatcher are exempt.
    pub(crate) fn budgeted(&self) -> bool {
        match self.state {
            ConnState::Writing => true,
            ConnState::Reading => self.wire.buffered() > 0,
            ConnState::Dispatched => false,
        }
    }

    /// One poll tick elapsed.
    pub(crate) fn on_tick(&mut self) -> ConnEvent {
        if !self.budgeted() {
            return ConnEvent::Idle;
        }
        self.stall_ticks += 1;
        if self.stall_ticks >= self.budget_ticks {
            ConnEvent::Close(ConnCloseReason::BudgetExhausted)
        } else {
            ConnEvent::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Ready;
    use crate::sys::{Epoll, EpollEvent};
    use httpsim::HttpDate;
    use std::io::{Read as _, Write as _};
    use std::net::{Shutdown, TcpListener, TcpStream};

    fn get(path: &str) -> Vec<u8> {
        Request::get(path).to_bytes()
    }

    /// A client connection as the reactor drives it, by hand: the far
    /// end, and the epoll set and scratch the connection's reads use.
    struct Client {
        conn: Conn,
        theirs: TcpStream,
        ep: Epoll,
        scratch: Vec<u8>,
    }

    impl Client {
        fn new() -> Client {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let theirs = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (ours, _) = listener.accept().unwrap();
            let ep = Epoll::new().unwrap();
            let conn = Conn::new(Wire::register(ours, &ep, 0).unwrap(), 10);
            let scratch = vec![0; 256];
            Client {
                conn,
                theirs,
                ep,
                scratch,
            }
        }

        /// The client writes `bytes`: drive the readable edge they raise.
        fn send(&mut self, bytes: &[u8]) -> ConnEvent {
            self.theirs.write_all(bytes).unwrap();
            loop {
                let mut events = [EpollEvent::zeroed(); 1];
                assert_eq!(self.ep.epoll_wait(&mut events, 10_000).unwrap(), Some(1));
                let ready = Ready::from_mask(events[0].events());
                if ready.readable {
                    return self.conn.on_readable("test", ready.hup, &mut self.scratch);
                }
            }
        }

        /// The dispatcher answers the outstanding request.
        fn answer(&mut self) -> ConnEvent {
            let resp = Response::ok(HttpDate(2), HttpDate(1), 2);
            self.conn.on_response(&resp, b"hi", "test")
        }
    }

    /// What a step left: its event, and whether the stall budget counts.
    fn outcome(ev: ConnEvent, conn: &Conn) -> (String, bool) {
        let ev = match ev {
            ConnEvent::Idle => "idle".to_string(),
            ConnEvent::Dispatch(req) => format!("GET {}", req.path),
            ConnEvent::Close(reason) => format!("close {reason:?}"),
        };
        (ev, conn.budgeted())
    }

    /// Framing, step by step: what the client sends (or, for `None`, the
    /// answer to its outstanding request), and what that leaves. Mid-frame
    /// — part of a head or of a declared body in — the budget counts; a
    /// body is discarded with its head, so the connection is clean for
    /// keep-alive after it; pipelined requests are taken one at a time;
    /// and a frame that cannot be a request ends the connection — garbage
    /// behind a good request, a `Content-Length` that does not parse, or
    /// one longer than `MAX_FRAME`, refused at the head.
    #[test]
    fn requests_are_framed_whole_and_one_at_a_time() {
        let doc = get("/a/doc");
        let (doc_head, doc_tail) = doc.split_at(doc.len() - 4);
        let pipelined = [get("/one"), get("/two")].concat();
        let garbage = [get("/ok"), b"NONSENSE WITHOUT A VERSION\r\n\r\n".to_vec()].concat();
        let oversize = format!(
            "GET /x HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            crate::netio::MAX_FRAME + 1
        );
        type Steps<'a> = &'a [(Option<&'a [u8]>, &'a str, bool)];
        let cases: [(&str, Steps); 6] = [
            (
                "a head split across reads",
                &[
                    (Some(doc_head), "idle", true),
                    (Some(doc_tail), "GET /a/doc", false),
                    (None, "idle", false),
                ],
            ),
            (
                "a body split across reads",
                &[
                    (
                        Some(b"GET /x HTTP/1.0\r\nContent-Length: 10\r\n\r\n"),
                        "idle",
                        true,
                    ),
                    (Some(b"01234"), "idle", true),
                    (Some(b"56789"), "GET /x", false),
                    (None, "idle", false),
                ],
            ),
            (
                "pipelined requests",
                &[
                    (Some(&pipelined), "GET /one", false),
                    (None, "GET /two", false),
                    (None, "idle", false),
                ],
            ),
            (
                "pipelined garbage",
                &[
                    (Some(&garbage), "GET /ok", false),
                    (None, "close Error", true),
                ],
            ),
            (
                "an unparseable Content-Length",
                &[(
                    Some(b"GET /x HTTP/1.0\r\nContent-Length: ten\r\n\r\n"),
                    "close Error",
                    true,
                )],
            ),
            (
                "an oversized declared body",
                &[(Some(oversize.as_bytes()), "close Error", true)],
            ),
        ];
        for (case, steps) in cases {
            let mut c = Client::new();
            for (i, &(sent, event, budgeted)) in steps.iter().enumerate() {
                let ev = match sent {
                    Some(bytes) => c.send(bytes),
                    None => c.answer(),
                };
                let got = outcome(ev, &c.conn);
                assert_eq!(got, (event.to_string(), budgeted), "{case}, step {i}");
            }
        }
    }

    /// A request with the hang-up right behind it is answered, then
    /// closed as the peer's doing — whether the notification that
    /// brought the request already said so (read through to the EOF) or
    /// the read stopped at the short count and the hang-up raised its
    /// own edge.
    #[test]
    fn a_request_with_a_hang_up_behind_it_is_answered_then_closed_clean() {
        let resp = Response::ok(HttpDate(2), HttpDate(1), 2);
        for together in [true, false] {
            let mut c = Client::new();
            c.theirs.write_all(&get("/a")).unwrap();
            if together {
                c.theirs.shutdown(Shutdown::Write).unwrap();
            }
            let ev = c.conn.on_readable("test", together, &mut c.scratch);
            assert!(matches!(ev, ConnEvent::Dispatch(ref req) if req.path == "/a"));
            let mut ev = c.answer();
            if !together {
                assert!(matches!(ev, ConnEvent::Idle));
                c.theirs.shutdown(Shutdown::Write).unwrap();
                ev = c.conn.on_readable("test", true, &mut c.scratch);
            }
            assert!(matches!(ev, ConnEvent::Close(ConnCloseReason::PeerClosed)));
            let Client {
                conn, mut theirs, ..
            } = c;
            drop(conn);
            let mut answer = Vec::new();
            theirs.read_to_end(&mut answer).unwrap();
            assert_eq!(answer, resp.to_bytes(b"hi"));
        }
    }
}
