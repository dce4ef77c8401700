//! The origin's threads, counted.
//!
//! Alone in its test binary because it reads the `Threads:` line of
//! `/proc/self/status`: a running origin has exactly `reactor_threads`
//! OS threads, and a control peer is a registration on whichever of
//! them accepted it, not a thread — whatever connects to the control
//! port.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use httpsim::{Request, Response, Status};
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

    // Each peer subscribes the way a proxy shard does, by fetching on
    // its control channel; the `200` is in once the whole reply is.
    let peers: Vec<_> = (1..=3)
        .map(|n| {
            let mut peer = TcpStream::connect(origin.control_addr()).unwrap();
            peer.write_all(&Request::get("/a.html").to_bytes()).unwrap();
            let mut reply = Vec::new();
            while Response::from_bytes(&reply).unwrap().is_none() {
                let mut chunk = [0; 512];
                let got = peer.read(&mut chunk).unwrap();
                assert!(got > 0, "hung up on mid-reply");
                reply.extend_from_slice(&chunk[..got]);
            }
            let (resp, body, _) = Response::from_bytes(&reply).unwrap().unwrap();
            assert_eq!((resp.status, body.len()), (Status::Ok, 100));
            assert_eq!(origin.subscription_count(), n);
            peer
        })
        .collect();
    assert_eq!(os_threads(), serving, "a control peer cost a thread");

    drop(peers);
    origin.shutdown();
    assert_eq!(os_threads(), before);
}
