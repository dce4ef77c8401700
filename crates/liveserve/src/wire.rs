//! Every socket a reactor thread reads or writes, with its two buffers:
//! a client connection (`conn`), a proxy shard's upstream socket
//! (`upstream`), or a control peer at the origin (`control`). Outside
//! `netio`'s blocking client and `sys`, nothing else in the crate reads
//! or writes a socket.
//!
//! A read lands in the scratch buffer the reactor thread lends, and only
//! the frame still arriving stays buffered after the whole ones are
//! taken: an HTTP message by `httpsim`'s `from_bytes` ([`request_frame`]
//! is the one request framer), anything else by its newline. A drained
//! write buffer is cleared, or dropped if a large message grew it.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;

use httpsim::Request;

use crate::control::MAX_LINE;
use crate::netio::{invalid, MAX_FRAME};
use crate::sys::{Epoll, EPOLLET, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Largest write-buffer capacity an idle wire keeps: 10 000 idle
/// keep-alives must not each pin their biggest response.
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
fn read_once(
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

/// Write `buf[*pos..]` to a nonblocking `stream` until it is all out
/// (`Ok(true)`) or the socket takes no more (`Ok(false)`: the rest goes
/// on the next writable edge).
fn write_pending(mut stream: &TcpStream, buf: &[u8], pos: &mut usize) -> io::Result<bool> {
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

/// A nonblocking socket with its two buffers (see the module doc).
pub(crate) struct Wire {
    pub stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    /// Where the next frame starts in `rbuf`.
    rpos: usize,
}

/// One frame read off a wire: a line (without its `\n`), or an HTTP
/// message.
pub(crate) enum Frame<'a, M> {
    Line(&'a str),
    Http(M),
}

/// The HTTP message at the front of a buffer once its head and
/// `Content-Length` say it is whole, and the bytes it took.
pub(crate) type Framer<M> = fn(&[u8]) -> io::Result<Option<(M, usize)>>;

/// The [`Framer`] of a request, on a client connection or a control
/// channel alike.
pub(crate) fn request_frame(buf: &[u8]) -> io::Result<Option<(Request, usize)>> {
    Request::from_bytes(buf).map_err(invalid)
}

impl Wire {
    /// Make `stream` nonblocking and register it edge-triggered, both
    /// ways, on `ep` under `token`.
    pub(crate) fn register(stream: TcpStream, ep: &Epoll, token: u64) -> io::Result<Wire> {
        stream.set_nonblocking(true)?;
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
        &mut self.wbuf
    }

    /// Queue `bytes` behind whatever is still unwritten.
    pub(crate) fn queue(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Bytes queued and not yet written.
    pub(crate) fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Bytes read and not yet taken as a frame.
    pub(crate) fn buffered(&self) -> usize {
        self.rbuf.len() - self.rpos
    }

    /// Write what the socket takes; the rest goes on the next writable
    /// edge. `Ok(true)`: the buffer drained.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        let drained = write_pending(&self.stream, &self.wbuf, &mut self.wpos)?;
        if drained {
            if self.wbuf.capacity() > WBUF_RETAIN {
                self.wbuf = Vec::new();
            } else {
                self.wbuf.clear();
            }
            self.wpos = 0;
        }
        Ok(drained)
    }

    /// One `read`, behind the frame still arriving;
    /// [`next_frame`](Self::next_frame) takes the whole ones.
    pub(crate) fn read_frames(&mut self, hup: bool, scratch: &mut [u8]) -> io::Result<ReadEnd> {
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
        // (A reader that takes its frames leaves the tail within its cap:
        // this trips only for one that lets whole frames pile up.)
        let cap = MAX_FRAME + scratch.len();
        read_once(&self.stream, &mut self.rbuf, cap, hup, scratch)
    }

    /// The next whole HTTP message read, if any, as `framer` frames it.
    pub(crate) fn next_message<M>(&mut self, framer: Framer<M>) -> io::Result<Option<M>> {
        let rest = &self.rbuf[self.rpos..];
        match framer(rest)? {
            Some((msg, used)) => {
                self.rpos += used;
                Ok(Some(msg))
            }
            None if rest.len() > MAX_FRAME => Err(invalid("frame exceeds MAX_FRAME")),
            None => Ok(None),
        }
    }

    /// The next whole frame read, if any: one that starts with `http` is
    /// an HTTP message ([`next_message`](Self::next_message)), anything
    /// else a line, held to [`MAX_LINE`] while it arrives.
    pub(crate) fn next_frame<M>(
        &mut self,
        http: &[u8],
        framer: Framer<M>,
    ) -> io::Result<Option<Frame<'_, M>>> {
        if self.rbuf[self.rpos..].starts_with(http) {
            return Ok(self.next_message(framer)?.map(Frame::Http));
        }
        let rest = &self.rbuf[self.rpos..];
        match rest.iter().position(|&b| b == b'\n') {
            Some(end) => {
                let line = std::str::from_utf8(&rest[..end]).map_err(invalid)?;
                self.rpos += end + 1;
                Ok(Some(Frame::Line(line)))
            }
            None if rest.len() > MAX_LINE => Err(invalid("line exceeds MAX_LINE")),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_stop_at_the_cap_and_writes_at_wouldblock() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut theirs, _) = listener.accept().unwrap();
        let ep = Epoll::new().unwrap();
        let mut wire = Wire::register(ours, &ep, 0).unwrap();

        // Nothing yet, then eight bytes, then one too many for the cap.
        let mut buf = Vec::new();
        let mut scratch = [0u8; 64];
        let mut read = |buf: &mut Vec<u8>, cap| loop {
            match read_once(&wire.stream, buf, cap, false, &mut scratch)? {
                ReadEnd::More => {}
                ReadEnd::Drained => return Ok(false),
                ReadEnd::Eof => return Ok::<_, io::Error>(true),
            }
        };
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

        // A peer that does not read fills the socket: the flush stops
        // short, and picks up where it left off once there is room. The
        // drained wire does not keep the buffer that large a write grew.
        let big = vec![7u8; 8 << 20];
        wire.queue(&big);
        assert!(!wire.flush().unwrap());
        assert!(wire.unsent() > 0 && wire.unsent() < big.len());
        let reader = std::thread::spawn(move || {
            let mut sink = Vec::new();
            theirs.read_to_end(&mut sink).unwrap();
            sink.len()
        });
        while !wire.flush().unwrap() {
            std::thread::yield_now();
        }
        assert_eq!((wire.unsent(), wire.out().capacity()), (0, 0));
        drop(wire);
        assert_eq!(reader.join().unwrap(), big.len());
    }
}
