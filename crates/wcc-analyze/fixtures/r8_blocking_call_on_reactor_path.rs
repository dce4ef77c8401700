// wcc-fixture-path: crates/liveserve/src/upstream.rs
//! Known-bad: blocking calls in a file that runs on reactor threads. No
//! guard is held anywhere here — the thread itself is the shared
//! resource: while it sits in `connect`, `write_all` or `recv_timeout`,
//! every connection it owns waits with it.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

struct Upstream {
    stream: TcpStream,
    oks: mpsc::Receiver<()>,
}

impl Upstream {
    fn dial(addr: SocketAddr, oks: mpsc::Receiver<()>) -> io::Result<Upstream> {
        let stream = TcpStream::connect(addr)?; //~ r8
        Ok(Upstream { stream, oks })
    }

    fn subscribe(&mut self, line: &[u8]) -> io::Result<()> {
        self.stream.write_all(line)?; //~ r8
        let _ = self.oks.recv_timeout(Duration::from_millis(25)); //~ r8
        Ok(())
    }
}
