//! Framed HTTP/1.0 connections, blocking.
//!
//! Both sides of every data connection (client→proxy, proxy→origin)
//! speak HTTP/1.0 with implicit keep-alive: the connection persists
//! across requests and responses are delimited by `Content-Length`
//! framing (`304`/`404` carry no body), so a reader never depends on EOF
//! to find a message boundary. [`HttpConn`] wraps a `TcpStream` with the
//! read buffer that framing requires, feeding `httpsim`'s incremental
//! `from_bytes` parsers. It is the *client-side* connection — what the
//! load drivers, the tests and the benchmark talk to the stack with;
//! the servers' own sockets are the reactor's (`conn`, `upstream`).
//!
//! The blocking *server* half (`read_request`, `write_response`) exists
//! under `#[cfg(test)]` only, for the scripted origins of `proxy::tests`
//! and this module's own tests: its reads poll a shutdown flag, so a
//! thread blocked on an idle persistent connection notices shutdown
//! within one read-timeout tick.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use httpsim::{Request, Response, Status};

/// Read-timeout granularity for server-side connections; bounds how long
/// shutdown can lag.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(25);

pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Hard cap on one framed message (headers + body): `httpsim` refuses a
/// head that declares more, and a reader closes the connection rather
/// than buffer more without a whole head.
pub(crate) const MAX_FRAME: usize = httpsim::MAX_MESSAGE;

/// Default read budget: how many consecutive silent [`POLL_TICK`]s a
/// reader tolerates while a frame is outstanding before giving up on
/// the peer (1200 ticks × 25 ms = 30 s). Counted in ticks, not wall
/// time, so the budget needs no clock.
pub(crate) const DEFAULT_READ_BUDGET_TICKS: u32 = 1200;

/// Log a per-connection failure. Workers call this and return, closing
/// only the offending connection while the accept loop keeps serving.
pub(crate) fn log_conn_error(role: &str, e: &io::Error) {
    eprintln!("liveserve[{role}]: connection error: {e}");
}

/// A TCP stream carrying framed HTTP/1.0 messages in both directions.
#[derive(Debug)]
pub struct HttpConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// What one `read` lands in, on its way to `rbuf`.
    chunk: Box<[u8]>,
    /// Consecutive silent poll ticks tolerated mid-frame before the
    /// peer is declared wedged and the read fails with `TimedOut`.
    budget_ticks: u32,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

pub(crate) fn invalid<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl HttpConn {
    /// Wrap a connected stream. Disables Nagle (request/response traffic
    /// is latency-bound, and every message is written in one syscall)
    /// and arms the `POLL_TICK` (25 ms) read timeout that drives the bounded
    /// read budget: a peer that goes silent in the middle of a frame
    /// fails the read with `TimedOut` instead of wedging the worker
    /// forever.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL_TICK))?;
        Ok(HttpConn {
            stream,
            rbuf: Vec::new(),
            chunk: vec![0; READ_CHUNK].into(),
            budget_ticks: DEFAULT_READ_BUDGET_TICKS,
        })
    }

    /// Override the mid-frame read budget (in 25 ms `POLL_TICK`s). Tests use
    /// tiny budgets; production code keeps the 30 s default.
    pub fn set_read_budget_ticks(&mut self, ticks: u32) {
        self.budget_ticks = ticks.max(1);
    }

    /// The underlying stream.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Pull more bytes off the socket into the frame buffer. `Ok(0)`
    /// means EOF.
    fn fill(&mut self) -> io::Result<usize> {
        let n = self.stream.read(&mut self.chunk)?;
        if self.rbuf.len().saturating_add(n) > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME without parsing",
            ));
        }
        // wcc-allow: r5 growth capped at MAX_FRAME by the check above
        self.rbuf.extend_from_slice(&self.chunk[..n]);
        Ok(n)
    }

    /// Read one request off a server-side connection.
    ///
    /// Returns `Ok(None)` on a clean end of the persistent connection:
    /// the peer closed between requests, or `shutdown` flipped while the
    /// connection was idle. EOF in the *middle* of a request, malformed
    /// bytes, and transport errors are `Err`.
    #[cfg(test)]
    pub(crate) fn read_request(
        &mut self,
        shutdown: &std::sync::atomic::AtomicBool,
    ) -> io::Result<Option<Request>> {
        use std::sync::atomic::Ordering;
        let mut silent_ticks = 0u32;
        loop {
            if let Some((req, used)) = Request::from_bytes(&self.rbuf).map_err(invalid)? {
                self.rbuf.drain(..used);
                return Ok(Some(req));
            }
            match self.fill() {
                Ok(0) => {
                    return if self.rbuf.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "EOF mid-request",
                        ))
                    };
                }
                Ok(_) => silent_ticks = 0,
                Err(e) if is_timeout(&e) => {
                    if shutdown.load(Ordering::SeqCst) && self.rbuf.is_empty() {
                        return Ok(None);
                    }
                    // An idle persistent connection may sit silent
                    // forever; only a *partial* request on the wire is
                    // held to the budget.
                    if !self.rbuf.is_empty() {
                        silent_ticks += 1;
                        if silent_ticks >= self.budget_ticks {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "read budget exhausted mid-request",
                            ));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read one `Content-Length`-framed response (headers + body) off a
    /// client-side connection. A response is expected the moment this is
    /// called, so the whole wait — not just mid-frame silence — is held
    /// to the read budget; premature EOF is an error.
    pub fn read_response(&mut self) -> io::Result<(Response, Vec<u8>)> {
        let mut silent_ticks = 0u32;
        loop {
            if let Some((resp, body, used)) = Response::from_bytes(&self.rbuf).map_err(invalid)? {
                self.rbuf.drain(..used);
                return Ok((resp, body));
            }
            match self.fill() {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF mid-response",
                    ))
                }
                Ok(_) => silent_ticks = 0,
                Err(e) if is_timeout(&e) => {
                    silent_ticks += 1;
                    if silent_ticks >= self.budget_ticks {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "read budget exhausted waiting for response",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One client exchange: `GET path`, demand a `200`, and return the
    /// bytes that came back (headers + body). Any other status is
    /// `InvalidData` naming the path.
    pub fn get_ok(&mut self, path: &str) -> io::Result<u64> {
        self.write_request(&Request::get(path))?;
        let (resp, body) = self.read_response()?;
        if resp.status != Status::Ok {
            return Err(invalid(format!("{:?} for GET {path}", resp.status)));
        }
        Ok(resp.header_size() + body.len() as u64)
    }

    /// Write one request; returns its wire size in bytes (for traffic
    /// accounting).
    pub fn write_request(&mut self, req: &Request) -> io::Result<u64> {
        let bytes = req.to_bytes();
        self.stream.write_all(&bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Write one response with its body; returns the total bytes written.
    #[cfg(test)]
    pub(crate) fn write_response(&mut self, resp: &Response, body: &[u8]) -> io::Result<u64> {
        let bytes = resp.to_bytes(body);
        self.stream.write_all(&bytes)?;
        Ok(bytes.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpsim::HttpDate;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    fn pair() -> (HttpConn, HttpConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        (
            HttpConn::new(server).unwrap(),
            HttpConn::new(client.join().unwrap()).unwrap(),
        )
    }

    #[test]
    fn requests_and_responses_round_trip_over_tcp() {
        let (mut server, mut client) = pair();
        let shutdown = AtomicBool::new(false);

        let req = Request::get_if_modified_since("/x.html", HttpDate(900_000_000));
        client.write_request(&req).unwrap();
        let got = server.read_request(&shutdown).unwrap().unwrap();
        assert_eq!(got, req);

        let body = b"0123456789";
        let resp = Response::ok(HttpDate(900_000_100), HttpDate(900_000_000), 10);
        server.write_response(&resp, body).unwrap();
        let (got_resp, got_body) = client.read_response().unwrap();
        assert_eq!(got_resp, resp);
        assert_eq!(got_body, body);
    }

    #[test]
    fn keep_alive_carries_multiple_exchanges() {
        let (mut server, mut client) = pair();
        let shutdown = AtomicBool::new(false);
        for i in 0..3 {
            let req = Request::get(format!("/f{i}"));
            client.write_request(&req).unwrap();
            assert_eq!(
                server.read_request(&shutdown).unwrap().unwrap().path,
                req.path
            );
            let resp = Response::not_modified(HttpDate(900_000_000 + i));
            server.write_response(&resp, b"").unwrap();
            let (got, body) = client.read_response().unwrap();
            assert_eq!(got.status, Status::NotModified);
            assert!(body.is_empty());
        }
    }

    #[test]
    fn peer_close_between_requests_is_clean_eof() {
        let (mut server, client) = pair();
        let shutdown = AtomicBool::new(false);
        drop(client);
        assert!(server.read_request(&shutdown).unwrap().is_none());
    }

    #[test]
    fn shutdown_flag_unblocks_idle_reader() {
        let (mut server, _client) = pair();
        let shutdown = AtomicBool::new(true);
        // The client stays connected but silent; the armed flag must
        // surface as a clean None within a few poll ticks.
        assert!(server.read_request(&shutdown).unwrap().is_none());
    }

    #[test]
    fn garbage_on_the_wire_is_invalid_data() {
        let (mut server, client) = pair();
        let shutdown = AtomicBool::new(false);
        client.stream().write_all(b"NONSENSE\r\n\r\n").unwrap();
        let err = server.read_request(&shutdown).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_frame_is_rejected_not_buffered() {
        let (server, mut client) = pair();
        // A response header promising more than MAX_FRAME: the client
        // must error out instead of buffering the flood.
        let resp = Response::ok(HttpDate(1), HttpDate(0), (MAX_FRAME + READ_CHUNK) as u64);
        let mut stream = server.stream().try_clone().unwrap();
        let writer = thread::spawn(move || {
            let mut bytes = resp.serialize_headers().into_bytes();
            bytes.resize(bytes.len() + MAX_FRAME + READ_CHUNK, 0u8);
            let _ = stream.write_all(&bytes);
        });
        let err = client.read_response().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(client);
        drop(server);
        writer.join().unwrap();
    }

    #[test]
    fn stalled_upstream_times_out_instead_of_wedging() {
        let (_server, mut client) = pair();
        // The server accepts but never answers; a bounded budget turns
        // the would-be-infinite wait into a clean TimedOut.
        client.set_read_budget_ticks(2);
        let err = client.read_response().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn partial_request_then_silence_times_out() {
        let (mut server, client) = pair();
        let shutdown = AtomicBool::new(false);
        server.set_read_budget_ticks(2);
        // Half a request line, then nothing: the worker must not be
        // pinned forever by a wedged (or malicious) client.
        client.stream().write_all(b"GET /half").unwrap();
        let err = server.read_request(&shutdown).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn idle_persistent_connection_is_not_timed_out() {
        let (mut server, mut client) = pair();
        let shutdown = AtomicBool::new(false);
        server.set_read_budget_ticks(1);
        // The client sits idle past the budget, then sends a complete
        // request: idle waits between requests are exempt.
        let sender = thread::spawn(move || {
            thread::sleep(POLL_TICK * 4);
            client.write_request(&Request::get("/late")).unwrap();
            client
        });
        let got = server.read_request(&shutdown).unwrap().unwrap();
        assert_eq!(got.path, "/late");
        drop(sender.join().unwrap());
    }

    #[test]
    fn eof_mid_response_is_an_error() {
        let (server, mut client) = pair();
        // Server sends only half the framed body, then closes.
        let resp = Response::ok(HttpDate(1), HttpDate(0), 100);
        let mut stream = server.stream().try_clone().unwrap();
        let mut bytes = resp.serialize_headers().into_bytes();
        bytes.extend_from_slice(&[0u8; 40]);
        stream.write_all(&bytes).unwrap();
        drop(server);
        drop(stream);
        let err = client.read_response().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
