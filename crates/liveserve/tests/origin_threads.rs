//! The origin's threads, counted.
//!
//! Alone in its test binary because it reads the `Threads:` line of
//! `/proc/self/status`: a running origin has exactly `reactor_threads`
//! OS threads, and a control peer is a registration on the first of
//! them, not a thread — whatever connects to the control port.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use liveserve::{LiveClock, LiveOrigin, OriginConfig};
use originserver::{FilePopulation, FileRecord};
use simcore::SimTime;

const REACTOR_THREADS: usize = 2;

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.unwrap().trim().parse().unwrap()
}

#[test]
fn an_origin_is_its_reactor_threads_whatever_connects_to_its_control_port() {
    let mut pop = FilePopulation::new();
    pop.add(FileRecord::new("/a.html", SimTime::ZERO, 100));
    let mut config = OriginConfig::new(Arc::new(pop), LiveClock::virtual_at(SimTime::ZERO));
    config.reactor_threads = REACTOR_THREADS;

    let before = os_threads();
    let origin = LiveOrigin::spawn(config).unwrap();
    let serving = os_threads();
    assert_eq!(serving - before, REACTOR_THREADS);

    let peers: Vec<_> = (1..=3)
        .map(|n| {
            let mut peer = BufReader::new(TcpStream::connect(origin.control_addr()).unwrap());
            peer.get_mut().write_all(b"SUBSCRIBE /a.html\n").unwrap();
            let mut line = String::new();
            peer.read_line(&mut line).unwrap();
            assert_eq!(line, "OK\n");
            assert_eq!(origin.subscription_count(), n);
            peer
        })
        .collect();
    assert_eq!(os_threads(), serving, "a control peer cost a thread");

    drop(peers);
    origin.shutdown();
    assert_eq!(os_threads(), before);
}
