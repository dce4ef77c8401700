//! The invalidation control channel's line protocol.
//!
//! Each proxy shard keeps one persistent TCP connection to the origin's
//! control port, carrying newline-delimited ASCII messages in both
//! directions:
//!
//! * proxy → origin: `SUBSCRIBE <path>` / `UNSUBSCRIBE <path>`, each
//!   answered `OK` in order;
//! * origin → proxy: `INVALIDATE <path>`, each answered `ACK` in order.
//!
//! Replies are matched to sends by position, so a sender may have
//! several lines outstanding: the proxy sends what one request changed
//! as one batch and releases the request on the batch's last `OK`; the
//! origin answers lines that arrived together with one write of as many
//! `OK`s. Only the origin's `INVALIDATE` waits for its `ACK` before the
//! next, which makes the channel a sequencing point: at the `ACK`,
//! the proxy has already marked its copy invalid, mirroring the
//! simulator's assumption that invalidation callbacks are instantaneous.
//!
//! [`ControlMsg`] is the protocol; [`LineConn`] and [`write_msg`] are
//! the origin's blocking end of it. The proxy's end is nonblocking and
//! lives with the rest of a shard's sockets (`upstream`).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// Hard cap on one control line. Paths are short; a peer that streams
/// this much without a newline is broken or hostile, and the channel is
/// closed instead of buffering without bound.
pub(crate) const MAX_LINE: usize = 64 * 1024;

/// A newline-delimited message-framed view of a control stream.
#[derive(Debug)]
pub(crate) struct LineConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

/// One parsed control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ControlMsg {
    /// `SUBSCRIBE <path>` — start delivering invalidations for `path`.
    Subscribe(String),
    /// `UNSUBSCRIBE <path>` — stop delivering invalidations for `path`.
    Unsubscribe(String),
    /// `INVALIDATE <path>` — the origin's copy of `path` changed.
    Invalidate(String),
    /// `OK` — acknowledges a (un)subscribe.
    Ok,
    /// `ACK` — acknowledges an invalidation.
    Ack,
}

impl ControlMsg {
    pub(crate) fn parse(line: &str) -> io::Result<ControlMsg> {
        let msg = match line.split_once(' ') {
            Some(("SUBSCRIBE", path)) => ControlMsg::Subscribe(path.to_string()),
            Some(("UNSUBSCRIBE", path)) => ControlMsg::Unsubscribe(path.to_string()),
            Some(("INVALIDATE", path)) => ControlMsg::Invalidate(path.to_string()),
            None if line == "OK" => ControlMsg::Ok,
            None if line == "ACK" => ControlMsg::Ack,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad control message: {line:?}"),
                ))
            }
        };
        Ok(msg)
    }

    pub(crate) fn encode(&self) -> String {
        match self {
            ControlMsg::Subscribe(p) => format!("SUBSCRIBE {p}\n"),
            ControlMsg::Unsubscribe(p) => format!("UNSUBSCRIBE {p}\n"),
            ControlMsg::Invalidate(p) => format!("INVALIDATE {p}\n"),
            ControlMsg::Ok => "OK\n".to_string(),
            ControlMsg::Ack => "ACK\n".to_string(),
        }
    }
}

impl LineConn {
    /// Wrap a connected control stream, arming the short read timeout
    /// that lets readers poll a shutdown flag.
    pub(crate) fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(super::netio::POLL_TICK))?;
        Ok(LineConn {
            stream,
            rbuf: Vec::new(),
        })
    }

    /// Whether the next `read_msg` has its line buffered already.
    pub(crate) fn has_line(&self) -> bool {
        self.rbuf.contains(&b'\n')
    }

    /// Read the next message. `Ok(None)` on clean EOF or when `shutdown`
    /// flips while the channel is idle.
    pub(crate) fn read_msg(&mut self, shutdown: &AtomicBool) -> io::Result<Option<ControlMsg>> {
        loop {
            if let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.rbuf.drain(..=pos).collect();
                let text = std::str::from_utf8(&line[..line.len() - 1])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                return ControlMsg::parse(text).map(Some);
            }
            let mut chunk = [0u8; 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.rbuf.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "EOF mid control message",
                        ))
                    };
                }
                Ok(n) => {
                    if self.rbuf.len().saturating_add(n) > MAX_LINE {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "control line exceeds MAX_LINE without a newline",
                        ));
                    }
                    // wcc-allow: r5 growth capped at MAX_LINE by the check above
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if shutdown.load(Ordering::SeqCst) && self.rbuf.is_empty() {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Write one control message to a (possibly shared) stream; returns the
/// bytes written. Callers serialise writers with their own lock so
/// messages never interleave.
pub(crate) fn write_msg(stream: &mut TcpStream, msg: &ControlMsg) -> io::Result<u64> {
    let text = msg.encode();
    stream.write_all(text.as_bytes())?;
    Ok(text.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn messages_encode_and_parse_round_trip() {
        let msgs = [
            ControlMsg::Subscribe("/a/b.html".into()),
            ControlMsg::Unsubscribe("/a/b.html".into()),
            ControlMsg::Invalidate("/w/f3.dat".into()),
            ControlMsg::Ok,
            ControlMsg::Ack,
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
        assert!(ControlMsg::parse("OK extra").is_err());
    }

    #[test]
    fn line_conn_frames_coalesced_and_split_messages() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Two messages in one write, then one split across writes.
            s.write_all(b"SUBSCRIBE /a\nSUBSCRIBE /b\n").unwrap();
            s.write_all(b"INVALI").unwrap();
            s.write_all(b"DATE /a\n").unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = LineConn::new(stream).unwrap();
        let shutdown = AtomicBool::new(false);
        assert_eq!(
            conn.read_msg(&shutdown).unwrap(),
            Some(ControlMsg::Subscribe("/a".into()))
        );
        assert_eq!(
            conn.read_msg(&shutdown).unwrap(),
            Some(ControlMsg::Subscribe("/b".into()))
        );
        assert_eq!(
            conn.read_msg(&shutdown).unwrap(),
            Some(ControlMsg::Invalidate("/a".into()))
        );
        client.join().unwrap();
        assert_eq!(conn.read_msg(&shutdown).unwrap(), None);
    }
}
