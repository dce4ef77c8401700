//! Per-connection state machine for the reactor data path.
//!
//! The lifecycle the reactor drives is `ReadHead → ReadBody → Dispatch
//! → WriteResponse → KeepAlive/Close`. The two read states live inside
//! [`FrameBuf`] (incremental Content-Length framing over the buffered
//! bytes); [`Conn`] layers the dispatch/write/keep-alive states, the
//! per-connection write buffer, and the tick-counted read budget on
//! top. Everything here is pure buffer manipulation plus nonblocking
//! socket reads/writes — no locks, no clocks — so the reactor can call
//! into it from the event loop without ordering hazards. A `read` goes
//! through a scratch buffer the caller lends ([`read_once`]): only the
//! bytes that arrived are copied into the connection's own buffer,
//! which stays empty while the connection idles.
//!
//! Semantics mirror the blocking `netio::HttpConn` path exactly:
//! oversized frames and unparseable heads kill the connection, EOF
//! between frames is a clean close, EOF mid-frame is an error, and the
//! slow-loris budget counts silent poll ticks only while mid-frame or
//! mid-response (an idle keep-alive connection may sit forever).

use std::io::{self, Read, Write};
use std::net::TcpStream;

use httpsim::{header_section_end, Request, Response};
use wcc_obs::ConnCloseReason;

use crate::netio::{log_conn_error, MAX_FRAME};

/// Largest write-buffer capacity an idle connection keeps.
const WBUF_RETAIN: usize = 64 * 1024;

/// How one `read` left a nonblocking stream.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReadEnd {
    /// There may be more: read again.
    More,
    /// Empty, until its next readable edge.
    Drained,
    /// The peer hung up.
    Eof,
}

/// One `read` of a nonblocking `stream` into `scratch`, appended to
/// `buf` — unless that would grow it past `cap`, which is an error.
///
/// A `read` that comes back short of what it asked for has emptied a
/// stream socket (epoll(7)), so the `read` that would only say
/// `WouldBlock` is not made. That holds while nothing but bytes is
/// pending: when the readiness being served carried a hang-up or an
/// error (`hup`), it is read through to the `0` or the error itself —
/// bytes that arrive after a short count raise their own edge, and so
/// does a hang-up behind them.
pub(crate) fn read_once(
    mut stream: &TcpStream,
    buf: &mut Vec<u8>,
    cap: usize,
    hup: bool,
    scratch: &mut [u8],
) -> io::Result<ReadEnd> {
    loop {
        match stream.read(scratch) {
            Ok(0) => return Ok(ReadEnd::Eof),
            Ok(n) if buf.len().saturating_add(n) > cap => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "frame exceeds its cap without parsing",
                ))
            }
            Ok(n) => {
                // wcc-allow: r5 growth capped by the arm above
                buf.extend_from_slice(&scratch[..n]);
                let short = n < scratch.len() && !hup;
                return Ok(if short {
                    ReadEnd::Drained
                } else {
                    ReadEnd::More
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadEnd::Drained),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// [`read_once`] until the stream is drained, as edge-triggered
/// readiness requires. `Ok(true)` means the peer hung up.
pub(crate) fn read_available(
    stream: &TcpStream,
    buf: &mut Vec<u8>,
    cap: usize,
    hup: bool,
    scratch: &mut [u8],
) -> io::Result<bool> {
    loop {
        match read_once(stream, buf, cap, hup, scratch)? {
            ReadEnd::More => {}
            ReadEnd::Drained => return Ok(false),
            ReadEnd::Eof => return Ok(true),
        }
    }
}

/// Write `buf[*pos..]` to a nonblocking `stream` until it is all out
/// (`Ok(true)`) or the socket takes no more (`Ok(false)`: the rest goes
/// on the next writable edge).
pub(crate) fn write_pending(
    mut stream: &TcpStream,
    buf: &[u8],
    pos: &mut usize,
) -> io::Result<bool> {
    while *pos < buf.len() {
        match stream.write(&buf[*pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Why a frame could not be completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// The frame (or the unconsumed buffer) exceeded `MAX_FRAME`.
    Oversize,
    /// The header section was complete but unparseable.
    Malformed,
}

enum ReadState {
    /// Accumulating the request's header section.
    Head,
    /// Header section found (its first `head_end` bytes) and parsed
    /// for length; the frame ends at `frame_end` bytes from the start
    /// of the buffer.
    Body { head_end: usize, frame_end: usize },
}

/// Incremental request framing over a growing byte buffer.
///
/// The reactor reads raw socket bytes into `buf` ([`read_available`],
/// capped at `MAX_FRAME`); `next_request` yields at most one
/// complete request per call, leaving pipelined bytes in place. A
/// declared `Content-Length` body is buffered and discarded (requests
/// in this protocol carry none, but a torn body must not desync the
/// framing).
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    state: ReadState,
}

impl FrameBuf {
    pub(crate) fn new() -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            state: ReadState::Head,
        }
    }

    /// Whether any unconsumed bytes are buffered.
    pub(crate) fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Whether we are mid-frame (a partial request is buffered) — the
    /// condition under which the read budget ticks.
    pub(crate) fn mid_frame(&self) -> bool {
        match self.state {
            ReadState::Body { .. } => true,
            ReadState::Head => !self.buf.is_empty(),
        }
    }

    /// Try to complete one request from the buffered bytes.
    pub(crate) fn next_request(&mut self) -> Result<Option<Request>, FrameError> {
        let (head_end, frame_end) = match self.state {
            ReadState::Body {
                head_end,
                frame_end,
            } => (head_end, frame_end),
            ReadState::Head => {
                let Some(head_end) = header_section_end(&self.buf) else {
                    return Ok(None);
                };
                let body_len = content_length(&self.buf[..head_end])?;
                if body_len > MAX_FRAME || head_end.saturating_add(body_len) > MAX_FRAME {
                    return Err(FrameError::Oversize);
                }
                let frame_end = head_end + body_len;
                self.state = ReadState::Body {
                    head_end,
                    frame_end,
                };
                (head_end, frame_end)
            }
        };
        if self.buf.len() < frame_end {
            return Ok(None);
        }
        // Full frame buffered: parse the head, discard the declared
        // body with it.
        let head = std::str::from_utf8(&self.buf[..head_end]);
        let head = head.map_err(|_| FrameError::Malformed)?;
        let req = Request::parse(head).map_err(|_| FrameError::Malformed)?;
        self.buf.drain(..frame_end);
        self.state = ReadState::Head;
        Ok(Some(req))
    }
}

/// Parse a `Content-Length` value out of a complete header section
/// (`0` when absent). A malformed value is a framing error: guessing a
/// length would desync every request after this one.
fn content_length(head: &[u8]) -> Result<usize, FrameError> {
    for line in head.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        if !line[..colon].eq_ignore_ascii_case(b"content-length") {
            continue;
        }
        let value = line[colon + 1..].trim_ascii();
        let text = std::str::from_utf8(value).map_err(|_| FrameError::Malformed)?;
        return text.parse::<usize>().map_err(|_| FrameError::Malformed);
    }
    Ok(0)
}

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
    stream: TcpStream,
    frames: FrameBuf,
    state: ConnState,
    wbuf: Vec<u8>,
    wpos: usize,
    peer_eof: bool,
    stall_ticks: u32,
    budget_ticks: u32,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, budget_ticks: u32) -> Conn {
        Conn {
            stream,
            frames: FrameBuf::new(),
            state: ConnState::Reading,
            wbuf: Vec::new(),
            wpos: 0,
            peer_eof: false,
            stall_ticks: 0,
            budget_ticks,
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Readable readiness (`hup`: with a hang-up or an error): drain
    /// the socket through `scratch` into the frame buffer, then (when
    /// not mid-dispatch/mid-write) try to complete a request.
    pub(crate) fn on_readable(&mut self, role: &str, hup: bool, scratch: &mut [u8]) -> ConnEvent {
        let had = self.frames.buf.len();
        let frames = &mut self.frames.buf;
        match read_available(&self.stream, frames, MAX_FRAME, hup, scratch) {
            Ok(eof) => self.peer_eof |= eof,
            Err(e) => {
                log_conn_error(role, &e);
                return ConnEvent::Close(ConnCloseReason::Error);
            }
        }
        if self.frames.buf.len() > had {
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
        match self.frames.next_request() {
            Err(_) => ConnEvent::Close(ConnCloseReason::Error),
            Ok(Some(req)) => {
                self.state = ConnState::Dispatched;
                self.stall_ticks = 0;
                ConnEvent::Dispatch(req)
            }
            Ok(None) => {
                if self.peer_eof {
                    if self.frames.has_buffered() {
                        // Truncated request: EOF mid-frame.
                        ConnEvent::Close(ConnCloseReason::Error)
                    } else {
                        ConnEvent::Close(ConnCloseReason::PeerClosed)
                    }
                } else {
                    ConnEvent::Idle
                }
            }
        }
    }

    /// The dispatcher produced the response for the outstanding
    /// request: serialize it and start (or finish) writing.
    pub(crate) fn on_response(&mut self, resp: &Response, body: &[u8], role: &str) -> ConnEvent {
        resp.append_to(body, &mut self.wbuf);
        self.wpos = 0;
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
        let had = self.wpos;
        let drained = match write_pending(&self.stream, &self.wbuf, &mut self.wpos) {
            Ok(drained) => drained,
            Err(e) => {
                log_conn_error(role, &e);
                return ConnEvent::Close(ConnCloseReason::Error);
            }
        };
        if self.wpos > had {
            self.stall_ticks = 0;
        }
        if !drained {
            return ConnEvent::Idle;
        }
        // Keep the buffer for the next response, unless a large body
        // grew it: 10 000 idle keep-alives must not each pin their
        // biggest response.
        if self.wbuf.capacity() > WBUF_RETAIN {
            self.wbuf = Vec::new();
        } else {
            self.wbuf.clear();
        }
        self.wpos = 0;
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
            ConnState::Reading => self.frames.mid_frame(),
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

    fn get(path: &str) -> Vec<u8> {
        Request::get(path).to_bytes()
    }

    #[test]
    fn header_split_across_reads() {
        let wire = get("/a/doc");
        let mut fb = FrameBuf::new();
        let split = wire.len() - 4;
        fb.buf.extend_from_slice(&wire[..split]);
        assert!(fb.next_request().unwrap().is_none());
        assert!(fb.mid_frame());
        fb.buf.extend_from_slice(&wire[split..]);
        let req = fb.next_request().unwrap().expect("complete request");
        assert_eq!(req.path, "/a/doc");
        assert!(!fb.has_buffered());
        assert!(!fb.mid_frame());
    }

    #[test]
    fn body_split_across_reads_is_discarded() {
        let wire = b"GET /x HTTP/1.0\r\nContent-Length: 10\r\n\r\n".to_vec();
        let mut fb = FrameBuf::new();
        fb.buf.extend_from_slice(&wire);
        // Head complete, body missing: not a request yet.
        assert!(fb.next_request().unwrap().is_none());
        assert!(fb.mid_frame());
        fb.buf.extend_from_slice(b"01234");
        assert!(fb.next_request().unwrap().is_none());
        fb.buf.extend_from_slice(b"56789");
        let req = fb.next_request().unwrap().expect("complete request");
        assert_eq!(req.path, "/x");
        // Body consumed with the frame; buffer is clean for keep-alive.
        assert!(!fb.has_buffered());
        assert!(!fb.mid_frame());
    }

    #[test]
    fn pipelined_requests_yield_one_at_a_time() {
        let mut wire = get("/one");
        wire.extend_from_slice(&get("/two"));
        let mut fb = FrameBuf::new();
        fb.buf.extend_from_slice(&wire);
        assert_eq!(fb.next_request().unwrap().unwrap().path, "/one");
        assert!(fb.has_buffered());
        assert_eq!(fb.next_request().unwrap().unwrap().path, "/two");
        assert!(fb.next_request().unwrap().is_none());
    }

    #[test]
    fn pipelined_garbage_is_malformed() {
        let mut wire = get("/ok");
        wire.extend_from_slice(b"NONSENSE WITHOUT A VERSION\r\n\r\n");
        let mut fb = FrameBuf::new();
        fb.buf.extend_from_slice(&wire);
        assert_eq!(fb.next_request().unwrap().unwrap().path, "/ok");
        assert_eq!(fb.next_request().unwrap_err(), FrameError::Malformed);
    }

    #[test]
    fn unparseable_content_length_is_malformed() {
        let mut fb = FrameBuf::new();
        fb.buf
            .extend_from_slice(b"GET /x HTTP/1.0\r\nContent-Length: ten\r\n\r\n");
        assert_eq!(fb.next_request().unwrap_err(), FrameError::Malformed);
    }

    #[test]
    fn oversize_declared_body_is_rejected() {
        let mut fb = FrameBuf::new();
        let wire = format!(
            "GET /x HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            MAX_FRAME + 1
        );
        fb.buf.extend_from_slice(wire.as_bytes());
        assert_eq!(fb.next_request().unwrap_err(), FrameError::Oversize);
    }

    /// A request with the hang-up right behind it is answered, then
    /// closed as the peer's doing — whether the notification that
    /// brought the request already said so (read through to the EOF) or
    /// the read stopped at the short count and the hang-up raised its
    /// own edge.
    #[test]
    fn a_request_with_a_hang_up_behind_it_is_answered_then_closed_clean() {
        use httpsim::HttpDate;
        use std::net::Shutdown;

        let resp = Response::ok(HttpDate(2), HttpDate(1), 2);
        for together in [true, false] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let mut theirs = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (ours, _) = listener.accept().unwrap();
            ours.set_nonblocking(true).unwrap();
            let mut conn = Conn::new(ours, 10);
            let mut scratch = [0u8; 256];

            theirs.write_all(&get("/a")).unwrap();
            if together {
                theirs.shutdown(Shutdown::Write).unwrap();
            }
            let ev = conn.on_readable("test", together, &mut scratch);
            assert!(matches!(ev, ConnEvent::Dispatch(ref req) if req.path == "/a"));
            let mut ev = conn.on_response(&resp, b"hi", "test");
            if !together {
                assert!(matches!(ev, ConnEvent::Idle));
                theirs.shutdown(Shutdown::Write).unwrap();
                ev = conn.on_readable("test", true, &mut scratch);
            }
            assert!(matches!(ev, ConnEvent::Close(ConnCloseReason::PeerClosed)));
            drop(conn);
            let mut answer = Vec::new();
            theirs.read_to_end(&mut answer).unwrap();
            assert_eq!(answer, resp.to_bytes(b"hi"));
        }
    }

    #[test]
    fn reads_stop_at_the_cap_and_writes_at_wouldblock() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut theirs, _) = listener.accept().unwrap();
        ours.set_nonblocking(true).unwrap();

        // Nothing yet, then eight bytes, then one too many for the cap.
        let mut buf = Vec::new();
        let mut scratch = [0u8; 64];
        let mut read =
            |buf: &mut Vec<u8>, cap| read_available(&ours, buf, cap, false, &mut scratch);
        assert!(!read(&mut buf, 8).unwrap());
        theirs.write_all(b"12345678").unwrap();
        while buf.len() < 8 {
            assert!(!read(&mut buf, 8).unwrap());
        }
        theirs.write_all(b"9").unwrap();
        let over = loop {
            match read(&mut buf, 8) {
                Ok(_) => std::thread::yield_now(),
                Err(e) => break e,
            }
        };
        assert_eq!(over.kind(), io::ErrorKind::InvalidData);
        assert_eq!(buf, b"12345678");
        // (Taken with room for it, so the socket closes clean below.)
        assert!(!read(&mut buf, 9).unwrap());

        // A peer that does not read fills the socket: the write stops
        // short, and picks up where it left off once there is room.
        let big = vec![7u8; 8 << 20];
        let mut pos = 0;
        assert!(!write_pending(&ours, &big, &mut pos).unwrap());
        assert!(pos > 0 && pos < big.len());
        let reader = std::thread::spawn(move || {
            let mut sink = Vec::new();
            theirs.read_to_end(&mut sink).unwrap();
            sink.len()
        });
        while !write_pending(&ours, &big, &mut pos).unwrap() {
            std::thread::yield_now();
        }
        drop(ours);
        assert_eq!(reader.join().unwrap(), big.len());
    }
}
