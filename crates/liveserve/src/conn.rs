//! Per-connection state machine for the reactor data path.
//!
//! The lifecycle the reactor drives is `ReadHead → ReadBody → Dispatch
//! → WriteResponse → KeepAlive/Close`. The two read states live inside
//! [`FrameBuf`] (incremental Content-Length framing over the buffered
//! bytes); [`Conn`] layers the dispatch/write/keep-alive states, the
//! per-connection write buffer, and the tick-counted read budget on
//! top. Everything here is pure buffer manipulation plus nonblocking
//! socket reads/writes — no locks, no clocks — so the reactor can call
//! into it from the event loop without ordering hazards.
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

use crate::netio::{log_conn_error, MAX_FRAME, READ_CHUNK};

/// Largest write-buffer capacity an idle connection keeps.
const WBUF_RETAIN: usize = 64 * 1024;

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
    /// Header section parsed for length; the frame ends at `frame_end`
    /// bytes from the start of the buffer.
    Body { frame_end: usize },
}

/// Incremental request framing over a growing byte buffer.
///
/// `push` appends raw socket bytes; `next_request` yields at most one
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

    /// Append raw bytes, enforcing the `MAX_FRAME` buffer cap.
    pub(crate) fn push(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
        if self.buf.len().saturating_add(bytes.len()) > MAX_FRAME {
            return Err(FrameError::Oversize);
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
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
        let frame_end = match self.state {
            ReadState::Body { frame_end } => frame_end,
            ReadState::Head => {
                let Some(head_end) = header_section_end(&self.buf) else {
                    return Ok(None);
                };
                let body_len = content_length(&self.buf[..head_end])?;
                if body_len > MAX_FRAME || head_end.saturating_add(body_len) > MAX_FRAME {
                    return Err(FrameError::Oversize);
                }
                let frame_end = head_end + body_len;
                self.state = ReadState::Body { frame_end };
                frame_end
            }
        };
        if self.buf.len() < frame_end {
            return Ok(None);
        }
        // Full frame buffered: parse the head; the parser consumes the
        // header section, we discard the declared body with it.
        let req = match Request::from_bytes(&self.buf[..frame_end]) {
            Ok(Some((req, _))) => req,
            _ => return Err(FrameError::Malformed),
        };
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

    /// Readable readiness: drain the socket into the frame buffer, then
    /// (when not mid-dispatch/mid-write) try to complete a request.
    pub(crate) fn on_readable(&mut self, role: &str) -> ConnEvent {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.stall_ticks = 0;
                    // wcc-allow: r5 FrameBuf::push enforces the MAX_FRAME cap
                    if self.frames.push(&chunk[..n]).is_err() {
                        return ConnEvent::Close(ConnCloseReason::Error);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    log_conn_error(role, &e);
                    return ConnEvent::Close(ConnCloseReason::Error);
                }
            }
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
        loop {
            if self.wpos == self.wbuf.len() {
                // Keep the buffer for the next response, unless a large
                // body grew it: 10 000 idle keep-alives must not each
                // pin their biggest response.
                if self.wbuf.capacity() > WBUF_RETAIN {
                    self.wbuf = Vec::new();
                } else {
                    self.wbuf.clear();
                }
                self.wpos = 0;
                self.state = ConnState::Reading;
                self.stall_ticks = 0;
                return self.scan();
            }
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return ConnEvent::Close(ConnCloseReason::Error),
                Ok(n) => {
                    self.wpos += n;
                    self.stall_ticks = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnEvent::Idle,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    log_conn_error(role, &e);
                    return ConnEvent::Close(ConnCloseReason::Error);
                }
            }
        }
    }

    /// One poll tick elapsed. The budget counts only while the peer
    /// owes us progress: mid-frame reads and response drains. Idle
    /// keep-alive connections and requests waiting on our own
    /// dispatcher are exempt.
    pub(crate) fn on_tick(&mut self) -> ConnEvent {
        let budgeted = match self.state {
            ConnState::Writing => true,
            ConnState::Reading => self.frames.mid_frame(),
            ConnState::Dispatched => false,
        };
        if !budgeted {
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
        fb.push(&wire[..split]).unwrap();
        assert!(fb.next_request().unwrap().is_none());
        assert!(fb.mid_frame());
        fb.push(&wire[split..]).unwrap();
        let req = fb.next_request().unwrap().expect("complete request");
        assert_eq!(req.path, "/a/doc");
        assert!(!fb.has_buffered());
        assert!(!fb.mid_frame());
    }

    #[test]
    fn body_split_across_reads_is_discarded() {
        let wire = b"GET /x HTTP/1.0\r\nContent-Length: 10\r\n\r\n".to_vec();
        let mut fb = FrameBuf::new();
        fb.push(&wire).unwrap();
        // Head complete, body missing: not a request yet.
        assert!(fb.next_request().unwrap().is_none());
        assert!(fb.mid_frame());
        fb.push(b"01234").unwrap();
        assert!(fb.next_request().unwrap().is_none());
        fb.push(b"56789").unwrap();
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
        fb.push(&wire).unwrap();
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
        fb.push(&wire).unwrap();
        assert_eq!(fb.next_request().unwrap().unwrap().path, "/ok");
        assert_eq!(fb.next_request().unwrap_err(), FrameError::Malformed);
    }

    #[test]
    fn unparseable_content_length_is_malformed() {
        let mut fb = FrameBuf::new();
        fb.push(b"GET /x HTTP/1.0\r\nContent-Length: ten\r\n\r\n")
            .unwrap();
        assert_eq!(fb.next_request().unwrap_err(), FrameError::Malformed);
    }

    #[test]
    fn oversize_declared_body_is_rejected() {
        let mut fb = FrameBuf::new();
        let wire = format!(
            "GET /x HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            MAX_FRAME + 1
        );
        fb.push(wire.as_bytes()).unwrap();
        assert_eq!(fb.next_request().unwrap_err(), FrameError::Oversize);
    }

    #[test]
    fn oversize_buffer_is_rejected_at_push() {
        let mut fb = FrameBuf::new();
        fb.push(&vec![b'x'; MAX_FRAME]).unwrap();
        assert_eq!(fb.push(b"y").unwrap_err(), FrameError::Oversize);
    }
}
