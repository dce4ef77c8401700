//! HTTP/1.0 request and response messages — the subset the paper's
//! protocols exercise.
//!
//! The consistency protocols need exactly four interactions:
//!
//! * unconditional `GET` (fetch a file);
//! * conditional `GET` with `If-Modified-Since` (the combined
//!   "send this file if it has changed since a specific date" request of
//!   §3);
//! * `200 OK` carrying a body with `Last-Modified` (and optionally
//!   `Expires`);
//! * `304 Not Modified` (validation succeeded, no body).
//!
//! Messages serialise to genuine HTTP/1.0 wire format; the simulators can
//! charge bandwidth either from these serialised sizes or from the paper's
//! 43-byte flat message cost (see the simulator configs).
//!
//! Bodies are represented by *length only* — simulated transfers never
//! materialise content, but [`Response::wire_size`] accounts for the body
//! bytes exactly as if they were sent.

use core::fmt;
use std::str::FromStr;

use crate::date::HttpDate;

/// Request methods used by the consistency protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Fetch a resource (optionally conditional via `If-Modified-Since`).
    Get,
    /// Fetch headers only; used by some polling proxies of the era.
    Head,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
        })
    }
}

impl FromStr for Method {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, ParseError> {
        match s {
            "GET" => Ok(Method::Get),
            "HEAD" => Ok(Method::Head),
            other => Err(ParseError::new(format!("unknown method {other:?}"))),
        }
    }
}

/// Response status codes used by the consistency protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// `200 OK` — body follows.
    Ok,
    /// `304 Not Modified` — cached copy is still valid.
    NotModified,
    /// `404 Not Found` — object no longer exists at the origin.
    NotFound,
}

impl Status {
    /// Numeric status code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::NotModified => 304,
            Status::NotFound => 404,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::NotModified => "Not Modified",
            Status::NotFound => "Not Found",
        }
    }

    fn from_code(code: u16) -> Result<Self, ParseError> {
        match code {
            200 => Ok(Status::Ok),
            304 => Ok(Status::NotModified),
            404 => Ok(Status::NotFound),
            other => Err(ParseError::new(format!("unknown status code {other}"))),
        }
    }
}

/// An HTTP/1.0 request.
///
/// ```
/// use httpsim::{HttpDate, Request, EPOCH_1996};
///
/// let req = Request::get_if_modified_since("/index.html", EPOCH_1996);
/// let wire = req.serialize();
/// assert!(wire.starts_with("GET /index.html HTTP/1.0\r\n"));
/// assert_eq!(Request::parse(&wire).unwrap(), req);
/// assert_eq!(req.wire_size() as usize, wire.len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Absolute path of the resource (e.g. `/dept/index.html`).
    pub path: String,
    /// `If-Modified-Since` header — presence makes the GET conditional.
    pub if_modified_since: Option<HttpDate>,
}

impl Request {
    /// An unconditional `GET`.
    pub fn get(path: impl Into<String>) -> Self {
        Request {
            method: Method::Get,
            path: path.into(),
            if_modified_since: None,
        }
    }

    /// A conditional `GET` — the optimized simulators' combined
    /// validate-and-fetch message.
    pub fn get_if_modified_since(path: impl Into<String>, since: HttpDate) -> Self {
        Request {
            method: Method::Get,
            path: path.into(),
            if_modified_since: Some(since),
        }
    }

    /// Serialise to HTTP/1.0 wire format.
    pub fn serialize(&self) -> String {
        let mut s = format!("{} {} HTTP/1.0\r\n", self.method, self.path);
        if let Some(ims) = self.if_modified_since {
            s.push_str(&format!("If-Modified-Since: {ims}\r\n"));
        }
        s.push_str("\r\n");
        s
    }

    /// Exact size of the serialised request in bytes.
    pub fn wire_size(&self) -> u64 {
        self.serialize().len() as u64
    }

    /// Serialise to the exact bytes that go on the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.serialize().into_bytes()
    }

    /// Parse a request from the front of a byte buffer, as a streaming
    /// reader accumulates it.
    ///
    /// Returns `Ok(None)` when the buffer does not yet contain the full
    /// header section (`\r\n\r\n` not seen) — read more bytes and retry.
    /// On success returns the request plus the number of bytes it consumed
    /// from the front of `buf`. Requests carry no body, so the consumed
    /// length is exactly the header section.
    pub fn from_bytes(buf: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
        let Some(end) = header_section_end(buf) else {
            return Ok(None);
        };
        let text = std::str::from_utf8(&buf[..end])
            .map_err(|_| ParseError::new("request is not valid UTF-8"))?;
        Ok(Some((Request::parse(text)?, end)))
    }

    /// Parse from wire format (inverse of [`Request::serialize`]).
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut lines = text.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| ParseError::new("empty request"))?;
        let mut parts = request_line.split(' ');
        let method: Method = parts
            .next()
            .ok_or_else(|| ParseError::new("missing method"))?
            .parse()?;
        let path = parts
            .next()
            .ok_or_else(|| ParseError::new("missing path"))?
            .to_string();
        if path.is_empty() || !path.starts_with('/') {
            return Err(ParseError::new(format!("invalid path {path:?}")));
        }
        match parts.next() {
            Some("HTTP/1.0") => {}
            other => return Err(ParseError::new(format!("bad version {other:?}"))),
        }
        let mut if_modified_since = None;
        for line in lines {
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(": ")
                .ok_or_else(|| ParseError::new(format!("malformed header {line:?}")))?;
            if name.eq_ignore_ascii_case("If-Modified-Since") {
                if_modified_since =
                    Some(value.parse().map_err(|e| ParseError::new(format!("{e}")))?);
            }
            // Unknown headers are ignored, as HTTP requires.
        }
        Ok(Request {
            method,
            path,
            if_modified_since,
        })
    }
}

/// Room for the longest head this crate writes (status line, three
/// dates, a 20-digit `Content-Length`), so serialising never regrows.
const HEAD_CAPACITY: usize = 192;

/// `fmt::Write` sink that only counts the bytes written to it.
struct ByteCount(u64);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len() as u64;
        Ok(())
    }
}

/// `fmt::Write` sink appending to a byte buffer.
struct ByteSink<'a>(&'a mut Vec<u8>);

impl fmt::Write for ByteSink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// An HTTP/1.0 response. The body is represented by its length only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status line code.
    pub status: Status,
    /// Server clock at response time (`Date` header).
    pub date: HttpDate,
    /// `Last-Modified` — when the entity last changed at the origin.
    pub last_modified: Option<HttpDate>,
    /// `Expires` — a priori TTL expiry, when the origin assigns one.
    pub expires: Option<HttpDate>,
    /// Body length in bytes (`Content-Length`); zero-length and absent are
    /// distinguished because `304` carries no entity headers.
    pub content_length: Option<u64>,
}

impl Response {
    /// A `200 OK` carrying `body_len` bytes, stamped with the mandatory
    /// headers.
    pub fn ok(date: HttpDate, last_modified: HttpDate, body_len: u64) -> Self {
        Response {
            status: Status::Ok,
            date,
            last_modified: Some(last_modified),
            expires: None,
            content_length: Some(body_len),
        }
    }

    /// A `304 Not Modified` validation answer.
    pub fn not_modified(date: HttpDate) -> Self {
        Response {
            status: Status::NotModified,
            date,
            last_modified: None,
            expires: None,
            content_length: None,
        }
    }

    /// A `404 Not Found`.
    pub fn not_found(date: HttpDate) -> Self {
        Response {
            status: Status::NotFound,
            date,
            last_modified: None,
            expires: None,
            content_length: None,
        }
    }

    /// Attach an `Expires` header (builder style).
    pub fn with_expires(mut self, expires: HttpDate) -> Self {
        self.expires = Some(expires);
        self
    }

    /// Write status line and headers in wire format — the one place the
    /// head's layout is spelled out; every serialiser and the size
    /// counter go through it.
    fn write_head(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(
            out,
            "HTTP/1.0 {} {}\r\n",
            self.status.code(),
            self.status.reason()
        )?;
        write!(out, "Date: {}\r\n", self.date)?;
        if let Some(lm) = self.last_modified {
            write!(out, "Last-Modified: {lm}\r\n")?;
        }
        if let Some(exp) = self.expires {
            write!(out, "Expires: {exp}\r\n")?;
        }
        if let Some(len) = self.content_length {
            write!(out, "Content-Length: {len}\r\n")?;
        }
        out.write_str("\r\n")
    }

    /// Serialise status line and headers to wire format (bodies are
    /// synthetic; see [`Response::wire_size`]).
    pub fn serialize_headers(&self) -> String {
        let mut s = String::with_capacity(HEAD_CAPACITY);
        self.write_head(&mut s)
            .expect("writing to a String cannot fail");
        s
    }

    /// Size of the headers alone, in bytes (counted, not built).
    pub fn header_size(&self) -> u64 {
        let mut n = ByteCount(0);
        self.write_head(&mut n).expect("counting bytes cannot fail");
        n.0
    }

    /// Total wire size: headers plus (synthetic) body.
    pub fn wire_size(&self) -> u64 {
        self.header_size() + self.content_length.unwrap_or(0)
    }

    /// Serialise status line, headers, and `body` to wire bytes.
    ///
    /// # Panics
    /// Panics if `body.len()` disagrees with the `Content-Length` header
    /// (`content_length`, or zero when absent) — the framing the peer will
    /// use to delimit this response.
    pub fn to_bytes(&self, body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(HEAD_CAPACITY + body.len());
        self.append_to(body, &mut bytes);
        bytes
    }

    /// [`Response::to_bytes`], appended to a buffer the caller keeps —
    /// a connection reuses one write buffer across responses.
    ///
    /// # Panics
    /// As [`Response::to_bytes`].
    pub fn append_to(&self, body: &[u8], out: &mut Vec<u8>) {
        assert_eq!(
            body.len() as u64,
            self.content_length.unwrap_or(0),
            "body length must match Content-Length framing"
        );
        self.write_head(&mut ByteSink(out))
            .expect("writing to a Vec cannot fail");
        out.extend_from_slice(body);
    }

    /// Parse a response (headers + `Content-Length`-framed body) from the
    /// front of a byte buffer, as a streaming reader accumulates it.
    ///
    /// Returns `Ok(None)` while the buffer holds less than the full header
    /// section plus the declared body — read more bytes and retry. On
    /// success returns the response, its body (empty for bodyless
    /// statuses), and the number of bytes consumed from the front of
    /// `buf`.
    pub fn from_bytes(buf: &[u8]) -> Result<Option<(Response, Vec<u8>, usize)>, ParseError> {
        let Some(end) = header_section_end(buf) else {
            return Ok(None);
        };
        let text = std::str::from_utf8(&buf[..end])
            .map_err(|_| ParseError::new("response is not valid UTF-8"))?;
        let resp = Response::parse(text)?;
        let body_len = resp.content_length.unwrap_or(0) as usize;
        let Some(total) = end.checked_add(body_len) else {
            return Err(ParseError::new("Content-Length overflows"));
        };
        if buf.len() < total {
            return Ok(None);
        }
        let body = buf[end..total].to_vec();
        Ok(Some((resp, body, total)))
    }

    /// Parse the header section (inverse of
    /// [`Response::serialize_headers`]).
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut lines = text.split("\r\n");
        let status_line = lines
            .next()
            .ok_or_else(|| ParseError::new("empty response"))?;
        let mut parts = status_line.splitn(3, ' ');
        match parts.next() {
            Some("HTTP/1.0") => {}
            other => return Err(ParseError::new(format!("bad version {other:?}"))),
        }
        let code: u16 = parts
            .next()
            .ok_or_else(|| ParseError::new("missing status code"))?
            .parse()
            .map_err(|_| ParseError::new("non-numeric status code"))?;
        let status = Status::from_code(code)?;
        let mut date = None;
        let mut last_modified = None;
        let mut expires = None;
        let mut content_length = None;
        for line in lines {
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(": ")
                .ok_or_else(|| ParseError::new(format!("malformed header {line:?}")))?;
            let date_value = || -> Result<HttpDate, ParseError> {
                value.parse().map_err(|e| ParseError::new(format!("{e}")))
            };
            if name.eq_ignore_ascii_case("Date") {
                date = Some(date_value()?);
            } else if name.eq_ignore_ascii_case("Last-Modified") {
                last_modified = Some(date_value()?);
            } else if name.eq_ignore_ascii_case("Expires") {
                expires = Some(date_value()?);
            } else if name.eq_ignore_ascii_case("Content-Length") {
                content_length = Some(
                    value
                        .parse()
                        .map_err(|_| ParseError::new("bad Content-Length"))?,
                );
            }
        }
        Ok(Response {
            status,
            date: date.ok_or_else(|| ParseError::new("missing Date header"))?,
            last_modified,
            expires,
            content_length,
        })
    }
}

/// Index just past the `\r\n\r\n` terminating a header section, or `None`
/// if the terminator has not arrived in `buf` yet.
pub fn header_section_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Error produced by the message parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(String);

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        ParseError(msg.into())
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HTTP parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::EPOCH_1996;

    fn day(n: u64) -> HttpDate {
        HttpDate(EPOCH_1996.0 + n * 86_400)
    }

    #[test]
    fn unconditional_get_serializes() {
        let r = Request::get("/index.html");
        assert_eq!(r.serialize(), "GET /index.html HTTP/1.0\r\n\r\n");
        assert_eq!(r.wire_size(), 28);
    }

    #[test]
    fn conditional_get_round_trips() {
        let r = Request::get_if_modified_since("/a/b.gif", day(3));
        let text = r.serialize();
        assert!(text.contains("If-Modified-Since: "));
        assert_eq!(Request::parse(&text), Ok(r));
    }

    #[test]
    fn request_parse_rejects_garbage() {
        for bad in [
            "",
            "FROB / HTTP/1.0\r\n\r\n",
            "GET index.html HTTP/1.0\r\n\r\n", // relative path
            "GET / HTTP/1.1\r\n\r\n",          // wrong version
            "GET / HTTP/1.0\r\nBroken-Header\r\n\r\n",
            "GET / HTTP/1.0\r\nIf-Modified-Since: yesterday\r\n\r\n",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn request_ignores_unknown_headers() {
        let text = "GET / HTTP/1.0\r\nUser-Agent: Mosaic/2.0\r\n\r\n";
        let r = Request::parse(text).unwrap();
        assert_eq!(r.path, "/");
        assert_eq!(r.if_modified_since, None);
    }

    #[test]
    fn ok_response_round_trips() {
        let resp = Response::ok(day(10), day(2), 7791).with_expires(day(20));
        let text = resp.serialize_headers();
        assert_eq!(Response::parse(&text), Ok(resp.clone()));
        assert_eq!(resp.wire_size(), resp.header_size() + 7791);
    }

    #[test]
    fn not_modified_is_small_and_bodyless() {
        let resp = Response::not_modified(day(1));
        assert_eq!(resp.content_length, None);
        assert_eq!(resp.wire_size(), resp.header_size());
        // A 304 is a "message" in the paper's accounting: tens of bytes,
        // not kilobytes.
        assert!(resp.wire_size() < 100, "304 size {}", resp.wire_size());
    }

    #[test]
    fn not_found_round_trips() {
        let resp = Response::not_found(day(1));
        let text = resp.serialize_headers();
        assert_eq!(Response::parse(&text), Ok(resp));
    }

    #[test]
    fn response_parse_requires_date() {
        let text = "HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\n";
        assert!(Response::parse(text).is_err());
    }

    #[test]
    fn response_parse_rejects_unknown_status() {
        let text = format!("HTTP/1.0 501 Not Implemented\r\nDate: {}\r\n\r\n", day(0));
        assert!(Response::parse(&text).is_err());
    }

    #[test]
    fn status_codes_and_reasons() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::NotModified.code(), 304);
        assert_eq!(Status::NotFound.code(), 404);
        assert_eq!(Status::NotModified.reason(), "Not Modified");
    }

    #[test]
    fn method_parse() {
        assert_eq!("GET".parse::<Method>(), Ok(Method::Get));
        assert_eq!("HEAD".parse::<Method>(), Ok(Method::Head));
        assert!("POST".parse::<Method>().is_err());
    }

    #[test]
    fn request_wire_bytes_round_trip() {
        let req = Request::get_if_modified_since("/a/b.gif", day(3));
        let bytes = req.to_bytes();
        assert_eq!(bytes, req.serialize().as_bytes());
        let (parsed, used) = Request::from_bytes(&bytes).unwrap().unwrap();
        assert_eq!(parsed, req);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn request_from_bytes_waits_for_full_headers() {
        let bytes = Request::get("/index.html").to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(Request::from_bytes(&bytes[..cut]), Ok(None), "cut={cut}");
        }
        // Trailing bytes of a pipelined next request are not consumed.
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes);
        let (_, used) = Request::from_bytes(&two).unwrap().unwrap();
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn request_from_bytes_rejects_garbage_and_non_utf8() {
        assert!(Request::from_bytes(b"FROB / HTTP/1.0\r\n\r\n").is_err());
        assert!(Request::from_bytes(b"GET /\xff\xfe HTTP/1.0\r\n\r\n").is_err());
    }

    #[test]
    fn response_wire_bytes_round_trip_with_body() {
        let body = b"<html>hello</html>";
        let resp = Response::ok(day(10), day(2), body.len() as u64).with_expires(day(20));
        let bytes = resp.to_bytes(body);
        let (parsed, got_body, used) = Response::from_bytes(&bytes).unwrap().unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(got_body, body);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn response_from_bytes_waits_for_full_body() {
        let body = vec![0xABu8; 100];
        let resp = Response::ok(day(1), day(0), 100);
        let bytes = resp.to_bytes(&body);
        // Headers complete but body short: still incomplete.
        for cut in [0, 10, bytes.len() - 100, bytes.len() - 1] {
            assert_eq!(Response::from_bytes(&bytes[..cut]), Ok(None), "cut={cut}");
        }
        // Keep-alive: a following response's bytes are not consumed.
        let mut two = bytes.clone();
        two.extend_from_slice(&Response::not_modified(day(2)).to_bytes(b""));
        let (_, _, used) = Response::from_bytes(&two).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        let (next, next_body, _) = Response::from_bytes(&two[used..]).unwrap().unwrap();
        assert_eq!(next.status, Status::NotModified);
        assert!(next_body.is_empty());
    }

    /// The head's exact bytes, pinned: every serialiser (`String`,
    /// fresh `Vec`, appended `Vec`) and the counter agree with it.
    #[test]
    fn response_head_wire_bytes_are_pinned() {
        let nov94 = HttpDate(784_111_777);
        let resp = Response::ok(nov94, nov94, 5).with_expires(nov94);
        let head = "HTTP/1.0 200 OK\r\n\
                    Date: Sun, 06 Nov 1994 08:49:37 GMT\r\n\
                    Last-Modified: Sun, 06 Nov 1994 08:49:37 GMT\r\n\
                    Expires: Sun, 06 Nov 1994 08:49:37 GMT\r\n\
                    Content-Length: 5\r\n\r\n";
        assert_eq!(resp.serialize_headers(), head);
        assert_eq!(resp.header_size() as usize, head.len());
        let wire = [head.as_bytes(), b"hello"].concat();
        assert_eq!(resp.to_bytes(b"hello"), wire);
        let mut kept = b"earlier".to_vec();
        resp.append_to(b"hello", &mut kept);
        assert_eq!(kept, [b"earlier".as_slice(), &wire].concat());
    }

    #[test]
    fn bodyless_304_frames_as_zero_length() {
        let resp = Response::not_modified(day(1));
        let bytes = resp.to_bytes(b"");
        let (parsed, body, used) = Response::from_bytes(&bytes).unwrap().unwrap();
        assert_eq!(parsed, resp);
        assert!(body.is_empty());
        assert_eq!(used, bytes.len());
    }

    #[test]
    #[should_panic(expected = "Content-Length framing")]
    fn response_to_bytes_rejects_mismatched_body() {
        Response::ok(day(1), day(0), 10).to_bytes(b"short");
    }

    #[test]
    fn header_section_end_finds_terminator() {
        assert_eq!(header_section_end(b"GET / HTTP/1.0\r\n"), None);
        assert_eq!(header_section_end(b"a\r\n\r\nbody"), Some(5));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn path_strategy() -> impl Strategy<Value = String> {
        "[a-zA-Z0-9_./-]{0,40}".prop_map(|s| format!("/{s}"))
    }

    proptest! {
        #[test]
        fn request_round_trip(
            path in path_strategy(),
            ims in proptest::option::of(0u64..4_000_000_000),
        ) {
            let req = match ims {
                None => Request::get(path),
                Some(s) => Request::get_if_modified_since(path, HttpDate(s)),
            };
            let text = req.serialize();
            prop_assert_eq!(Request::parse(&text), Ok(req));
        }

        #[test]
        fn response_round_trip(
            date in 0u64..4_000_000_000,
            lm in proptest::option::of(0u64..4_000_000_000),
            exp in proptest::option::of(0u64..4_000_000_000),
            len in proptest::option::of(0u64..100_000_000),
        ) {
            let resp = Response {
                status: Status::Ok,
                date: HttpDate(date),
                last_modified: lm.map(HttpDate),
                expires: exp.map(HttpDate),
                content_length: len,
            };
            let text = resp.serialize_headers();
            prop_assert_eq!(resp.header_size() as usize, text.len());
            prop_assert_eq!(Response::parse(&text), Ok(resp));
        }

        /// Wire size is exactly the byte length of what goes on the wire.
        #[test]
        fn request_wire_size_is_serialized_length(path in path_strategy()) {
            let req = Request::get(path);
            prop_assert_eq!(req.wire_size() as usize, req.serialize().len());
        }

        /// Byte-level framing round-trips responses with arbitrary binary
        /// bodies, and consumes exactly the framed length.
        #[test]
        fn response_bytes_round_trip(
            date in 0u64..4_000_000_000,
            lm in 0u64..4_000_000_000,
            body in proptest::collection::vec(any::<u8>(), 0..512),
            trailer in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let resp = Response::ok(HttpDate(date), HttpDate(lm), body.len() as u64);
            let mut bytes = resp.to_bytes(&body);
            let framed = bytes.len();
            bytes.extend_from_slice(&trailer);
            let (parsed, got, used) = Response::from_bytes(&bytes).unwrap().unwrap();
            prop_assert_eq!(parsed, resp);
            prop_assert_eq!(got, body);
            prop_assert_eq!(used, framed);
        }
    }
}
