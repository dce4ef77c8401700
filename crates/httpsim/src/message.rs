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
//!
//! Writing and parsing work on bytes: a head is static fragments, a
//! date's 29 fixed bytes and decimal digits pushed onto a buffer (or
//! only counted), and a parser cuts lines at `\r\n` and headers at
//! `": "` by scanning for the one byte. A live hop does each of these
//! once per message, and through `core::fmt` and the substring searcher
//! they cost more than the `read` and `write` around them. Text is
//! formatted only to say what was wrong with a message.

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

    /// Write the request in wire format — the one place its layout is
    /// spelled out.
    fn write_to(&self, out: &mut impl Sink) {
        out.put(match self.method {
            Method::Get => b"GET ",
            Method::Head => b"HEAD ",
        });
        out.put(self.path.as_bytes());
        out.put(b" HTTP/1.0\r\n");
        if let Some(ims) = self.if_modified_since {
            put_date_header(out, b"If-Modified-Since: ", ims);
        }
        out.put(b"\r\n");
    }

    /// Serialise to HTTP/1.0 wire format.
    pub fn serialize(&self) -> String {
        String::from_utf8(self.to_bytes()).expect("a path is a String, the rest ASCII")
    }

    /// Exact size of the serialised request in bytes (counted, not built).
    pub fn wire_size(&self) -> u64 {
        let mut n = ByteCount(0);
        self.write_to(&mut n);
        n.0
    }

    /// Serialise to the exact bytes that go on the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.path.len() + REQUEST_CAPACITY);
        self.write_to(&mut bytes);
        bytes
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
        let mut lines = Lines(Some(text));
        let request_line = lines
            .next()
            .ok_or_else(|| ParseError::new("empty request"))?;
        let (method, rest) = cut(request_line, b' ');
        let method: Method = method.parse()?;
        let (path, rest) = cut(rest.ok_or_else(|| ParseError::new("missing path"))?, b' ');
        if !path.starts_with('/') {
            return Err(ParseError::new(format!("invalid path {path:?}")));
        }
        match rest.map(|rest| cut(rest, b' ').0) {
            Some("HTTP/1.0") => {}
            other => return Err(ParseError::new(format!("bad version {other:?}"))),
        }
        let mut if_modified_since = None;
        for line in lines {
            if line.is_empty() {
                break;
            }
            let (name, value) = header(line)?;
            if name.eq_ignore_ascii_case("If-Modified-Since") {
                if_modified_since = Some(date_value(value)?);
            }
            // Unknown headers are ignored, as HTTP requires.
        }
        Ok(Request {
            method,
            path: path.to_owned(),
            if_modified_since,
        })
    }
}

/// Room for the longest head this crate writes (status line, three
/// dates, a 20-digit `Content-Length`), so serialising never regrows.
const HEAD_CAPACITY: usize = 192;

/// Room for a request around its path: the longest method, the version,
/// an `If-Modified-Since` line and the blank one.
const REQUEST_CAPACITY: usize = 72;

/// Where a message is written: bytes onto a buffer, or only their count.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// [`Sink`] that only counts the bytes written to it.
struct ByteCount(u64);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

/// `<name><date>\r\n`, `name` carrying its `": "`.
fn put_date_header(out: &mut impl Sink, name: &[u8], date: HttpDate) {
    out.put(name);
    match date.rfc1123() {
        Some(bytes) => out.put(&bytes),
        // Past year 9999 there is no fixed form; `Display` widens.
        None => out.put(date.to_string().as_bytes()),
    }
    out.put(b"\r\n");
}

/// `n` in decimal.
fn put_decimal(out: &mut impl Sink, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.put(&digits[at..]);
}

/// The lines of a head: cut at every `\r\n` and nowhere else, the text
/// after the last one included (as `split("\r\n")` yields them).
struct Lines<'a>(Option<&'a str>);

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0?;
        let bytes = rest.as_bytes();
        let mut from = 0;
        while let Some(at) = bytes[from..].iter().position(|&b| b == b'\n') {
            let at = from + at;
            if at > 0 && bytes[at - 1] == b'\r' {
                self.0 = Some(&rest[at + 1..]);
                return Some(&rest[..at - 1]);
            }
            from = at + 1;
        }
        self.0 = None;
        Some(rest)
    }
}

/// `text` up to the first `at`, and what follows it (`None`: no `at`).
fn cut(text: &str, at: u8) -> (&str, Option<&str>) {
    debug_assert!(
        at.is_ascii(),
        "cutting at an ASCII byte keeps both sides UTF-8"
    );
    match text.as_bytes().iter().position(|&b| b == at) {
        Some(i) => (&text[..i], Some(&text[i + 1..])),
        None => (text, None),
    }
}

/// A header line's name and value: either side of its first `": "`.
fn header(line: &str) -> Result<(&str, &str), ParseError> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(at) = bytes[from..].iter().position(|&b| b == b':') {
        let at = from + at;
        if bytes.get(at + 1) == Some(&b' ') {
            return Ok((&line[..at], &line[at + 2..]));
        }
        from = at + 1;
    }
    Err(ParseError::new(format!("malformed header {line:?}")))
}

fn date_value(value: &str) -> Result<HttpDate, ParseError> {
    value.parse().map_err(|e| ParseError::new(format!("{e}")))
}

/// `text.parse().ok()` for an unsigned number, without `FromStr` while
/// `text` is plain digits too few to overflow a `u64` (what else `parse`
/// takes — a sign, more digits — it still gets).
fn number<T: TryFrom<u64> + FromStr>(text: &str) -> Option<T> {
    let bytes = text.as_bytes();
    if !(1..=19).contains(&bytes.len()) || !bytes.iter().all(u8::is_ascii_digit) {
        return text.parse().ok();
    }
    let n = bytes.iter().fold(0, |n, b| n * 10 + u64::from(b - b'0'));
    T::try_from(n).ok()
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
    fn write_head(&self, out: &mut impl Sink) {
        out.put(match self.status {
            Status::Ok => b"HTTP/1.0 200 OK\r\n",
            Status::NotModified => b"HTTP/1.0 304 Not Modified\r\n",
            Status::NotFound => b"HTTP/1.0 404 Not Found\r\n",
        });
        put_date_header(out, b"Date: ", self.date);
        if let Some(lm) = self.last_modified {
            put_date_header(out, b"Last-Modified: ", lm);
        }
        if let Some(exp) = self.expires {
            put_date_header(out, b"Expires: ", exp);
        }
        if let Some(len) = self.content_length {
            out.put(b"Content-Length: ");
            put_decimal(out, len);
            out.put(b"\r\n");
        }
        out.put(b"\r\n");
    }

    /// Serialise status line and headers to wire format (bodies are
    /// synthetic; see [`Response::wire_size`]).
    pub fn serialize_headers(&self) -> String {
        let mut head = Vec::with_capacity(HEAD_CAPACITY);
        self.write_head(&mut head);
        String::from_utf8(head).expect("a head is ASCII")
    }

    /// Size of the headers alone, in bytes (counted, not built).
    pub fn header_size(&self) -> u64 {
        let mut n = ByteCount(0);
        self.write_head(&mut n);
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
        self.write_head(out);
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
        let mut lines = Lines(Some(text));
        let status_line = lines
            .next()
            .ok_or_else(|| ParseError::new("empty response"))?;
        let (version, rest) = cut(status_line, b' ');
        if version != "HTTP/1.0" {
            let other = Some(version);
            return Err(ParseError::new(format!("bad version {other:?}")));
        }
        let code = cut(
            rest.ok_or_else(|| ParseError::new("missing status code"))?,
            b' ',
        )
        .0;
        let code = number(code).ok_or_else(|| ParseError::new("non-numeric status code"))?;
        let status = Status::from_code(code)?;
        let mut date = None;
        let mut last_modified = None;
        let mut expires = None;
        let mut content_length = None;
        for line in lines {
            if line.is_empty() {
                break;
            }
            let (name, value) = header(line)?;
            if name.eq_ignore_ascii_case("Date") {
                date = Some(date_value(value)?);
            } else if name.eq_ignore_ascii_case("Last-Modified") {
                last_modified = Some(date_value(value)?);
            } else if name.eq_ignore_ascii_case("Expires") {
                expires = Some(date_value(value)?);
            } else if name.eq_ignore_ascii_case("Content-Length") {
                let len = number(value).ok_or_else(|| ParseError::new("bad Content-Length"))?;
                content_length = Some(len);
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
    // Every terminator ends in `\n`: look at those, and behind each.
    let mut from = 0;
    while let Some(at) = buf[from..].iter().position(|&b| b == b'\n') {
        let end = from + at + 1;
        if buf[..end].ends_with(b"\r\n\r\n") {
            return Some(end);
        }
        from = end;
    }
    None
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

/// The codec this one replaced — `core::fmt` out, `split` and
/// `split_once` in — kept as the reference the byte-level one is tested
/// against: same bytes written, same `Result` for whatever is parsed.
#[cfg(test)]
mod model {
    use super::*;

    pub(super) fn serialize_request(req: &Request) -> String {
        let mut s = format!("{} {} HTTP/1.0\r\n", req.method, req.path);
        if let Some(ims) = req.if_modified_since {
            s.push_str(&format!("If-Modified-Since: {ims}\r\n"));
        }
        s.push_str("\r\n");
        s
    }

    pub(super) fn serialize_head(resp: &Response) -> String {
        let (code, reason) = (resp.status.code(), resp.status.reason());
        let mut s = format!("HTTP/1.0 {code} {reason}\r\n");
        s.push_str(&format!("Date: {}\r\n", resp.date));
        if let Some(lm) = resp.last_modified {
            s.push_str(&format!("Last-Modified: {lm}\r\n"));
        }
        if let Some(exp) = resp.expires {
            s.push_str(&format!("Expires: {exp}\r\n"));
        }
        if let Some(len) = resp.content_length {
            s.push_str(&format!("Content-Length: {len}\r\n"));
        }
        s.push_str("\r\n");
        s
    }

    pub(super) fn parse_request(text: &str) -> Result<Request, ParseError> {
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
        }
        Ok(Request {
            method,
            path,
            if_modified_since,
        })
    }

    pub(super) fn parse_response(text: &str) -> Result<Response, ParseError> {
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

    pub(super) fn header_section_end(buf: &[u8]) -> Option<usize> {
        buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `text` with the byte at `at` (if it has one) replaced by `with`.
    fn mutated(text: &str, at: usize, with: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        if let Some(b) = bytes.get_mut(at) {
            *b = with.as_bytes()[0];
        }
        String::from_utf8(bytes).expect("ASCII in, ASCII out")
    }

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

    proptest! {
        // Single-byte mutations: enough cases to land on every field.
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The byte-level writers against the `fmt` ones they replaced:
        /// the same bytes whichever way they are asked for, dates past
        /// year 9999 included.
        #[test]
        fn written_bytes_equal_the_fmt_model(
            path in path_strategy(),
            method in 0usize..2,
            status in 0usize..3,
            dates in (0u64..300_000_000_000, 0u64..300_000_000_000),
            ims in proptest::option::of(0u64..300_000_000_000),
            exp in proptest::option::of(0u64..4_000_000_000),
            len in proptest::option::of(any::<u64>()),
        ) {
            let method = [Method::Get, Method::Head][method];
            let req = Request { method, path, if_modified_since: ims.map(HttpDate) };
            let wire = model::serialize_request(&req);
            prop_assert_eq!(req.serialize(), wire.clone());
            prop_assert_eq!(req.to_bytes(), wire.as_bytes());
            prop_assert_eq!(req.wire_size() as usize, wire.len());

            let resp = Response {
                status: [Status::Ok, Status::NotModified, Status::NotFound][status],
                date: HttpDate(dates.0),
                last_modified: ims.map(|_| HttpDate(dates.1)),
                expires: exp.map(HttpDate),
                content_length: len,
            };
            let head = model::serialize_head(&resp);
            prop_assert_eq!(resp.serialize_headers(), head.clone());
            prop_assert_eq!(resp.header_size() as usize, head.len());
            let mut kept = b"earlier".to_vec();
            Response { content_length: Some(2), ..resp }.append_to(b"hi", &mut kept);
            let head = model::serialize_head(&Response { content_length: Some(2), ..resp });
            prop_assert_eq!(kept, [b"earlier", head.as_bytes(), b"hi"].concat());
        }

        /// The byte-level parsers against the `split` ones they replaced:
        /// the same `Result` — value or message — on a written head, on
        /// one byte of it replaced, and on arbitrary short text.
        #[test]
        fn parsed_results_equal_the_split_model(
            path in path_strategy(),
            dates in (0u64..4_000_000_000, 0u64..4_000_000_000),
            len in proptest::option::of(0u64..100_000_000),
            at in 0usize..140,
            with in "[ -~\r\n]{1,1}",
            noise in "[ :/.0-9\r\nGETHP]{0,24}",
        ) {
            let req = Request::get_if_modified_since(path, HttpDate(dates.0));
            let resp = Response {
                status: Status::Ok,
                date: HttpDate(dates.0),
                last_modified: Some(HttpDate(dates.1)),
                expires: None,
                content_length: len,
            };
            let (req, resp) = (req.serialize(), resp.serialize_headers());
            for text in [req.clone(), mutated(&req, at, &with), format!("GET /{noise}"), noise.clone()] {
                prop_assert_eq!(Request::parse(&text), model::parse_request(&text));
                prop_assert_eq!(header_section_end(text.as_bytes()), model::header_section_end(text.as_bytes()));
            }
            for text in [resp.clone(), mutated(&resp, at, &with), format!("HTTP/1.0 {noise}"), noise.clone()] {
                prop_assert_eq!(Response::parse(&text), model::parse_response(&text));
                prop_assert_eq!(header_section_end(text.as_bytes()), model::header_section_end(text.as_bytes()));
            }
        }
    }
}
