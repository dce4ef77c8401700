//! Open-loop connection soak for the epoll reactor data path.
//!
//! Where the `wcc-load` drivers measure throughput under a scripted
//! request schedule, the soak proves the *connection-scaling* claim: one
//! proxy process holds `conns` concurrent keep-alive connections —
//! orders of magnitude more than it has threads — while a small active
//! mix keeps requests flowing and latency histograms honest. Idle
//! connections are held either by in-process client threads (each owning
//! a batch of sockets) or, when `worker_processes > 0`, by child worker
//! processes so the parent's fd table is not the binding constraint at
//! 10k+ connections.
//!
//! The request mix self-checks against ground truth: a sequential
//! warm-up pass touches every file once (exactly `files` misses —
//! single-flight keeps this exact even under races), after which every
//! active request must be a fresh hit. Any drift in those counters
//! means the reactor dropped, duplicated, or misrouted a request.
//!
//! Worker protocol (stdin/stdout lines, versioned by lockstep — parent
//! and child are always the same binary): the child connects its share
//! of idle connections, prints `READY <n>`, then blocks on stdin; the
//! parent closing the child's stdin is the release signal.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use originserver::{FilePopulation, FileRecord};
use simcore::{LatencyStats, SimTime};
use wcc_obs::ProbeHandle;
use wcc_sync::{RankedCondvar, RankedMutex};

use crate::clock::LiveClock;
use crate::netio::{HttpConn, POLL_TICK};
use crate::origin::{LiveOrigin, OriginConfig};
use crate::proxy::{LivePolicy, LiveProxy, ProxyConfig, StoreKind};
use crate::report::{latency_json, JsonObj};

/// Sizing for one [`run_soak`] execution.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Concurrent keep-alive connections to hold open against the proxy
    /// (idle holders; the active mix adds a few more on top).
    pub conns: usize,
    /// Client threads driving the active request mix.
    pub active: usize,
    /// Requests each active client issues (must be ≥ `files` so every
    /// client touches every file and the hit-count check is exact).
    pub requests_per_active: usize,
    /// Reactor threads on each of the origin and proxy data paths.
    pub reactor_threads: usize,
    /// Distinct files in the origin population.
    pub files: usize,
    /// Child processes holding the idle connections; `0` holds them in
    /// in-process client threads instead.
    pub worker_processes: usize,
}

impl SoakConfig {
    /// CI-sized smoke: everything in-process, but still hundreds of
    /// connections per reactor thread so the mechanism (not the scale)
    /// is what's asserted.
    pub fn smoke() -> Self {
        SoakConfig {
            conns: 1200,
            active: 16,
            requests_per_active: 64,
            reactor_threads: 2,
            files: 8,
            worker_processes: 0,
        }
    }

    /// The full 10k-connection soak, idle connections parked in child
    /// worker processes.
    pub fn full() -> Self {
        SoakConfig {
            conns: 10_000,
            active: 32,
            requests_per_active: 128,
            reactor_threads: 2,
            files: 8,
            worker_processes: 4,
        }
    }
}

/// Everything one soak measured, plus the inputs its checks need.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Idle connections the soak was asked to hold.
    pub conns_target: usize,
    /// Peak concurrently-open connections the proxy reactor observed.
    pub open_peak: usize,
    /// Accepts the reactor shed at its connection cap.
    pub dropped_accepts: u64,
    /// Requests written by the warm-up and active clients.
    pub requests_sent: u64,
    /// `200 OK` responses read back.
    pub requests_ok: u64,
    /// Proxy cache misses over the whole run.
    pub misses: u64,
    /// Proxy fresh hits over the whole run.
    pub fresh_hits: u64,
    /// Distinct files in the population.
    pub files: u64,
    /// Reactor threads per data path.
    pub reactor_threads: usize,
    /// OS threads in the serving process once the active mix is done
    /// (`0` when `/proc/self/status` was unreadable).
    pub process_threads: usize,
    /// How many of those are the soak's own idle holders.
    pub client_threads: usize,
    /// Wall-clock seconds for the whole soak.
    pub wall_seconds: f64,
    /// Active-mix request latency.
    pub latency: LatencyStats,
}

impl SoakReport {
    /// The mechanism and preservation checks the soak gates on. An
    /// `Err` lists every violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.open_peak < self.conns_target {
            problems.push(format!(
                "held {} concurrent connections, wanted >= {}",
                self.open_peak, self.conns_target
            ));
        }
        if self.dropped_accepts != 0 {
            problems.push(format!("{} accepts were shed", self.dropped_accepts));
        }
        if self.requests_ok != self.requests_sent {
            problems.push(format!(
                "sent {} requests but only {} came back OK",
                self.requests_sent, self.requests_ok
            ));
        }
        if self.misses != self.files || self.fresh_hits != self.requests_ok - self.files {
            problems.push(format!(
                "cache self-check: {} misses / {} fresh hits, expected {} / {}",
                self.misses,
                self.fresh_hits,
                self.files,
                self.requests_ok - self.files
            ));
        }
        // The scaling claim: connections must dwarf both the reactor
        // thread count and the process's total thread count, or we are
        // quietly back to thread-per-connection.
        if self.conns_target < 100 * self.reactor_threads {
            problems.push(format!(
                "{} connections over {} reactor threads does not demonstrate scaling",
                self.conns_target, self.reactor_threads
            ));
        }
        if self.process_threads > 0 && self.process_threads * 10 > self.conns_target {
            problems.push(format!(
                "{} OS threads for {} connections — thread-per-connection suspected",
                self.process_threads, self.conns_target
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// Every thread a process that runs nothing but this soak has when
    /// `process_threads` is read: its main thread, the idle holders, and
    /// what serves — one reactor set each for origin and proxy. Nothing
    /// per connection, nothing per request, nothing per control peer.
    pub fn expected_threads(&self) -> usize {
        1 + self.client_threads + 2 * self.reactor_threads
    }

    /// The report as one JSON object (single line).
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u64("conns_target", self.conns_target as u64)
            .u64("open_peak", self.open_peak as u64)
            .u64("dropped_accepts", self.dropped_accepts)
            .u64("requests_sent", self.requests_sent)
            .u64("requests_ok", self.requests_ok)
            .u64("misses", self.misses)
            .u64("fresh_hits", self.fresh_hits)
            .u64("files", self.files)
            .u64("reactor_threads", self.reactor_threads as u64)
            .u64("process_threads", self.process_threads as u64)
            .u64("client_threads", self.client_threads as u64)
            .f64("wall_seconds", self.wall_seconds)
            .raw("latency", &latency_json(&self.latency))
            .finish()
    }
}

/// Rank of the idle-holder latch: a leaf taken with nothing else held,
/// above every serving-path lock (the holders touch no other state).
// wcc-lock-rank: soak.latch.released 80
const LATCH_RANK: u32 = 80;

/// A latch the idle holders park on: they hold their sockets open until
/// the main thread releases them.
struct Latch {
    released: RankedMutex<bool>,
    cond: RankedCondvar,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            released: RankedMutex::new(LATCH_RANK, "soak.latch.released", false),
            cond: RankedCondvar::new(),
        }
    }

    fn release(&self) {
        let mut released = self.released.lock();
        *released = true;
        // Notify while the guard is live so a holder's predicate check
        // can never race the flip (wcc-analyze r7).
        self.cond.notify_all(&released);
    }

    fn wait(&self) {
        let mut released = self.released.lock();
        while !*released {
            let (guard, _timed_out) = self.cond.wait_timeout(released, POLL_TICK);
            released = guard;
        }
    }
}

/// Stand up the origin + proxy on the reactor, park `cfg.conns` idle
/// connections against the proxy, run the active mix, and tear it all
/// down. The returned report carries the raw numbers; call
/// [`SoakReport::verify`] to gate on them.
pub fn run_soak(cfg: &SoakConfig, probe: &ProbeHandle) -> io::Result<SoakReport> {
    let files = cfg.files.max(1);
    let active = cfg.active.max(1);
    let requests_per_active = cfg.requests_per_active.max(files);
    let started = Instant::now();

    let mut pop = FilePopulation::new();
    for i in 0..files {
        pop.add(FileRecord::new(
            format!("/soak/{i}.html"),
            SimTime::ZERO,
            2_000 + i as u64,
        ));
    }
    let pop = Arc::new(pop);
    // The clock stays pinned at zero: no modifications are scripted and
    // the TTL is enormous, so after warm-up every request must be a
    // fresh hit — that is the invariant the soak checks.
    let clock = LiveClock::virtual_at(SimTime::ZERO);

    let mut origin_config = OriginConfig::new(Arc::clone(&pop), clock.clone());
    origin_config.probe = probe.clone();
    origin_config.reactor_threads = cfg.reactor_threads;
    let origin = LiveOrigin::spawn(origin_config)?;

    let mut proxy_config = ProxyConfig::new(
        origin.data_addr(),
        origin.control_addr(),
        LivePolicy::Ttl(1_000_000),
        clock,
    );
    proxy_config.store = StoreKind::Unbounded;
    proxy_config.shards = 4;
    proxy_config.ground_truth = Some(Arc::clone(&pop));
    proxy_config.probe = probe.clone();
    proxy_config.reactor_threads = cfg.reactor_threads;
    proxy_config.max_conns = cfg.conns + active + 64;
    let proxy = LiveProxy::spawn(proxy_config)?;
    let proxy_addr = proxy.addr();

    // Sequential warm-up: every file exactly once, so the miss count is
    // pinned to `files` before any concurrency starts.
    let warmup_sent = warmup(proxy_addr, &pop)?;

    // Park the idle connections.
    let latch = Arc::new(Latch::new());
    let mut holder_threads = Vec::new();
    let mut workers = Vec::new();
    if cfg.worker_processes == 0 {
        let batch = cfg.conns.div_ceil(4.max(cfg.conns / 512).min(32));
        let mut remaining = cfg.conns;
        while remaining > 0 {
            let n = remaining.min(batch);
            remaining -= n;
            let latch = Arc::clone(&latch);
            holder_threads.push(thread::spawn(move || {
                hold_idle_conns(proxy_addr, n, &latch)
            }));
        }
    } else {
        let share = cfg.conns.div_ceil(cfg.worker_processes);
        let mut remaining = cfg.conns;
        while remaining > 0 {
            let n = remaining.min(share);
            remaining -= n;
            workers.push(spawn_worker(proxy_addr, n)?);
        }
        for w in &mut workers {
            wait_worker_ready(w)?;
        }
    }

    // Wait for the reactor to have accepted everything the holders
    // dialled, then freeze the peak.
    let open_peak = await_open_conns(&proxy, cfg.conns)?;

    // The active mix: closed-loop clients cycling the whole file set.
    let pop_ref: &FilePopulation = &pop;
    let mix: io::Result<LatencyStats> = thread::scope(|s| {
        let handles: Vec<_> = (0..active)
            .map(|k| s.spawn(move || active_client(proxy_addr, pop_ref, k, requests_per_active)))
            .collect();
        let mut latency = LatencyStats::new();
        for h in handles {
            latency.merge(&h.join().expect("active client never panics")?);
        }
        Ok(latency)
    });
    let process_threads = process_thread_count();
    let client_threads = holder_threads.len();
    let latency = mix?;
    let active_sent = (active * requests_per_active) as u64;

    // Release the idle holders and tear down.
    latch.release();
    for h in holder_threads {
        let _ = h.join();
    }
    for mut w in workers {
        release_worker(&mut w);
    }
    let dropped_accepts = proxy.dropped_accepts();
    let snapshot = proxy.shutdown();
    origin.shutdown();

    Ok(SoakReport {
        conns_target: cfg.conns,
        open_peak,
        dropped_accepts,
        requests_sent: warmup_sent + active_sent,
        requests_ok: warmup_sent + latency.count() + latency.dropped(),
        misses: snapshot.cache.misses,
        fresh_hits: snapshot.cache.fresh_hits,
        files: files as u64,
        reactor_threads: cfg.reactor_threads.max(1),
        process_threads,
        client_threads,
        wall_seconds: started.elapsed().as_secs_f64(),
        latency,
    })
}

/// Child-process entry point for the hidden `soak-worker` CLI mode:
/// connect `conns` idle keep-alive connections to `addr`, report
/// readiness on stdout, and hold them until stdin closes.
pub fn soak_worker(addr: &str, conns: usize) -> io::Result<()> {
    let addr: SocketAddr = addr
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad addr: {e}")))?;
    let mut held = Vec::with_capacity(conns);
    for _ in 0..conns {
        held.push(TcpStream::connect(addr)?);
    }
    let mut stdout = io::stdout();
    writeln!(stdout, "READY {}", held.len())?;
    stdout.flush()?;
    // Block until the parent closes our stdin; EOF is the release.
    let mut sink = Vec::new();
    let _ = io::stdin().lock().read_to_end(&mut sink);
    drop(held);
    Ok(())
}

fn warmup(proxy_addr: SocketAddr, pop: &FilePopulation) -> io::Result<u64> {
    let mut conn = HttpConn::new(TcpStream::connect(proxy_addr)?)?;
    let mut sent = 0u64;
    for (_, rec) in pop.iter() {
        conn.get_ok(&rec.path)?;
        sent += 1;
    }
    Ok(sent)
}

/// One in-process holder: dial `n` connections, then park on the latch.
/// The sockets never carry a byte — they exercise exactly the idle
/// keep-alive path the reactor must not reap or budget.
fn hold_idle_conns(proxy_addr: SocketAddr, n: usize, latch: &Latch) {
    let mut held = Vec::with_capacity(n);
    for _ in 0..n {
        match TcpStream::connect(proxy_addr) {
            Ok(s) => held.push(s),
            // A failed dial shows up as a missed open_peak target; the
            // holder keeps what it has so teardown stays orderly.
            Err(_) => break,
        }
    }
    latch.wait();
    drop(held);
}

fn spawn_worker(proxy_addr: SocketAddr, conns: usize) -> io::Result<Child> {
    let exe = std::env::current_exe()?;
    Command::new(exe)
        .arg("soak-worker")
        .arg(proxy_addr.to_string())
        .arg(conns.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
}

fn wait_worker_ready(worker: &mut Child) -> io::Result<()> {
    let stdout = worker
        .stdout
        .as_mut()
        .ok_or_else(|| io::Error::other("worker stdout not captured"))?;
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    if line.starts_with("READY") {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "worker failed before READY: {line:?}"
        )))
    }
}

/// Close the worker's stdin (its release signal) and reap it.
fn release_worker(worker: &mut Child) {
    drop(worker.stdin.take());
    let _ = worker.wait();
}

/// Poll the proxy's open-connection gauge until it reaches `target`
/// (the holders' dials are all in flight by the time this is called).
/// Times out — with the peak actually reached — rather than hanging, so
/// a broken reactor fails the verify step instead of wedging CI.
fn await_open_conns(proxy: &LiveProxy, target: usize) -> io::Result<usize> {
    let mut peak = 0;
    // 2400 ticks of 25ms = one minute; dialling 10k loopback sockets
    // takes a few seconds.
    for _ in 0..2400 {
        peak = peak.max(proxy.open_conns());
        if peak >= target {
            break;
        }
        thread::sleep(POLL_TICK);
    }
    Ok(peak)
}

/// One active client: a closed-loop request stream cycling every file,
/// offset by `k` so clients don't move in lockstep. Every sample (or
/// dropped sample) in the returned histogram is one `200`.
fn active_client(
    proxy_addr: SocketAddr,
    pop: &FilePopulation,
    k: usize,
    requests: usize,
) -> io::Result<LatencyStats> {
    let mut conn = HttpConn::new(TcpStream::connect(proxy_addr)?)?;
    let mut latency = LatencyStats::new();
    let paths: Vec<&str> = pop.iter().map(|(_, rec)| rec.path.as_str()).collect();
    for i in 0..requests {
        let begun = Instant::now();
        conn.get_ok(paths[(k + i) % paths.len()])?;
        match u64::try_from(begun.elapsed().as_nanos()) {
            Ok(ns) => latency.record_ns(ns),
            Err(_) => latency.record_drop(),
        }
    }
    Ok(latency)
}

/// The `Threads:` line of `/proc/self/status` — how many OS threads
/// this process is running right now (`0` when unavailable). Read until
/// two reads a millisecond apart agree: a thread that has just been
/// joined is still counted for the instant the kernel takes to reap it.
fn process_thread_count() -> usize {
    let read = || {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
        line.trim().parse().ok()
    };
    let mut count = read();
    for _ in 0..50 {
        thread::sleep(std::time::Duration::from_millis(1));
        let again = read();
        if again == count {
            break;
        }
        count = again;
    }
    count.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak: the full mechanism (idle holders, warm-up,
    /// active mix, self-checks) at a size unit tests can afford.
    #[test]
    fn tiny_soak_holds_conns_and_preserves_requests() {
        let cfg = SoakConfig {
            conns: 300,
            active: 4,
            requests_per_active: 16,
            reactor_threads: 2,
            files: 4,
            worker_processes: 0,
        };
        let report = run_soak(&cfg, &ProbeHandle::none()).expect("soak runs");
        report.verify().expect("soak invariants hold");
        assert!(report.open_peak >= 300);
        assert_eq!(report.dropped_accepts, 0);
        assert_eq!(report.misses, 4);
        let json = report.to_json();
        assert!(json.contains("\"conns_target\":300"));
        assert!(json.contains("\"dropped_accepts\":0"));
    }
}
