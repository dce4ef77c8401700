// wcc-fixture-path: crates/liveserve/src/upstream.rs
//! Known-GOOD twin of `r8_blocking_call_on_reactor_path.rs`: the same
//! jobs done the reactor's way — dial without waiting, write what the
//! socket takes, let the `OK` come back as a readiness event — plus a
//! test module that blocks freely. This fixture must produce **zero**
//! findings.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

struct Upstream {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    awaiting_ok: u32,
}

impl Upstream {
    fn dial(addr: SocketAddr) -> io::Result<Upstream> {
        let stream = connect_nonblocking(addr)?;
        Ok(Upstream {
            stream,
            wbuf: Vec::new(),
            wpos: 0,
            awaiting_ok: 0,
        })
    }

    fn subscribe(&mut self, line: &[u8]) -> io::Result<()> {
        self.wbuf.extend_from_slice(line);
        self.awaiting_ok += 1;
        self.flush()
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn poll(ep: &Epoll, events: &mut [EpollEvent]) -> io::Result<usize> {
        ep.epoll_wait(events, 25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_test_may_block() {
        let mut peer = TcpStream::connect("127.0.0.1:1").unwrap();
        peer.write_all(b"OK\n").unwrap();
    }
}
