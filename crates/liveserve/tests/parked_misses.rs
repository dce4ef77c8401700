//! A thousand parked misses, hits unaffected.
//!
//! Alone in its test binary because it counts the process's OS threads:
//! a parked miss is a slab slot on a reactor thread, not a thread, so
//! neither a thousand of them nor the proxy they park in may change the
//! `Threads:` line of `/proc/self/status` by more than the proxy's
//! `reactor_threads`.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use httpsim::{HttpDate, Request, Response, Status, EPOCH_1996};
use liveserve::{HttpConn, LiveClock, LivePolicy, LiveProxy, ProxyConfig};
use simcore::SimTime;

const MISSES: usize = 1000;
const HITS: u64 = 25;
/// The proxy's per-shard bounds (`upstream::{CONNS_PER_SHARD,
/// MAX_WAITERS}`), restated: this test sees them from outside.
const IN_EXCHANGE: usize = 4;
const WAIT_LISTED: usize = 256;

#[test]
fn a_thousand_parked_misses_cost_slots_not_threads_and_hits_overtake_them() {
    fn os_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
        line.unwrap().trim().parse().unwrap()
    }

    fn await_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// An origin on one thread that answers `/warm.html` and goes silent on
    /// every other request — it counts it in `parked` and never replies —
    /// until `stop` is set, when it hangs up on everyone.
    fn half_silent_origin(
        listener: TcpListener,
        stop: Arc<AtomicBool>,
        parked: Arc<AtomicUsize>,
    ) -> JoinHandle<()> {
        listener.set_nonblocking(true).unwrap();
        thread::spawn(move || {
            let mut conns: Vec<(TcpStream, Vec<u8>)> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                if let Ok((stream, _)) = listener.accept() {
                    stream.set_nonblocking(true).unwrap();
                    conns.push((stream, Vec::new()));
                }
                for (stream, buf) in &mut conns {
                    let mut chunk = [0u8; 1024];
                    while let Ok(n @ 1..) = stream.read(&mut chunk) {
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    while let Some((req, used)) = Request::from_bytes(buf).unwrap() {
                        buf.drain(..used);
                        if req.path == "/warm.html" {
                            let now = HttpDate(EPOCH_1996.0 + 10);
                            let wire = Response::ok(now, EPOCH_1996, 64).to_bytes(&[7u8; 64]);
                            stream.write_all(&wire).unwrap();
                        } else {
                            parked.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                thread::sleep(Duration::from_millis(1));
            }
        })
    }

    let stop = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicUsize::new(0));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let origin_addr: SocketAddr = listener.local_addr().unwrap();
    let origin = half_silent_origin(listener, Arc::clone(&stop), Arc::clone(&parked));

    let before_proxy = os_threads();
    let clock = LiveClock::virtual_at(SimTime::from_secs(10));
    let cfg = ProxyConfig::new(origin_addr, origin_addr, LivePolicy::Ttl(24), clock);
    let reactor_threads = cfg.reactor_threads;
    let proxy = LiveProxy::spawn(cfg).unwrap();
    assert_eq!(
        os_threads(),
        before_proxy + reactor_threads,
        "a proxy's own threads are its reactors"
    );
    let connect = || HttpConn::new(TcpStream::connect(proxy.addr()).unwrap()).unwrap();

    let mut warm = connect();
    warm.write_request(&Request::get("/warm.html")).unwrap();
    assert_eq!(warm.read_response().unwrap().0.status, Status::Ok);
    let before_misses = os_threads();

    // One cold file per connection: every one leads its own flight. The
    // first four get a socket each and park on the silent origin, the
    // next 256 park on the wait-list, the rest are refused — which costs
    // each its connection.
    let mut cold: Vec<TcpStream> = (0..MISSES)
        .map(|i| {
            let mut stream = TcpStream::connect(proxy.addr()).unwrap();
            let wire = Request::get(format!("/cold{i}.html")).to_bytes();
            stream.write_all(&wire).unwrap();
            stream
        })
        .collect();
    let refused = MISSES - IN_EXCHANGE - WAIT_LISTED;
    await_until("every miss to be parked or refused", || {
        proxy.open_conns() == 1 + MISSES - refused
    });
    await_until("the origin to have read what it was sent", || {
        parked.load(Ordering::SeqCst) >= IN_EXCHANGE
    });

    let mut fifth = connect();
    fifth.set_read_budget_ticks(40); // 1 s each, against the misses' 30
    for _ in 0..HITS {
        fifth.write_request(&Request::get("/warm.html")).unwrap();
        let (resp, body) = fifth.read_response().unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(body, [7u8; 64]);
    }
    assert_eq!(os_threads(), before_misses, "a parked miss is not a thread");

    // All three numbers: the origin holds four requests, 740 clients
    // were hung up on, and the other 256 are still waiting their turn.
    assert_eq!(parked.load(Ordering::SeqCst), IN_EXCHANGE);
    let mut hung_up = 0;
    let mut waiting = 0;
    for stream in &mut cold {
        stream.set_nonblocking(true).unwrap();
        match stream.read(&mut [0u8; 1]) {
            Ok(0) => hung_up += 1,
            Err(e) if e.kind() == ErrorKind::WouldBlock => waiting += 1,
            other => panic!("a cold client read {other:?}"),
        }
    }
    assert_eq!(
        (hung_up, waiting),
        (refused, IN_EXCHANGE + WAIT_LISTED),
        "refused / still parked"
    );

    // The origin hangs up; each parked fetch fails and takes only its
    // own client connection with it, the wait-listed ones as their
    // dials are refused in turn.
    stop.store(true, Ordering::SeqCst);
    origin.join().unwrap();
    await_until("the parked misses to fail", || proxy.open_conns() == 2);
    let snap = proxy.shutdown();
    assert_eq!(snap.upstream_saturations, refused as u64);
    assert_eq!(snap.cache.fresh_hits, HITS);
    assert_eq!(snap.cache.misses, 1, "only the warm-up fetch completed");
}
