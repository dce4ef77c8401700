//! The connection soak: the closed-loop driver with thousands of idle
//! keep-alive connections parked beside it.
//!
//! Where the other drivers measure throughput under a scripted request
//! schedule, the soak proves the *connection-scaling* claim: one proxy
//! process holds `conns` concurrent keep-alive connections — orders of
//! magnitude more than it has threads — while a small active mix keeps
//! requests flowing and latency histograms honest. The calling thread
//! dials and keeps the idle connections itself or, when
//! `worker_processes > 0`, child worker processes do, so the parent's fd
//! table is not the binding constraint at 10k+ connections.
//!
//! The request mix self-checks against ground truth: a one-client
//! [`drive`] touches every file once (exactly `files` misses), after
//! which every request of the `active`-client [`drive`] must be a fresh
//! hit. Any drift in those counters means the reactor dropped,
//! duplicated, or misrouted a request.
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
use std::time::{Duration, Instant};

use liveserve::report::{latency_json, JsonObj};
use liveserve::{LivePolicy, LiveProxy, LiveRunConfig, LiveStack, StackSpec};
use originserver::{FilePopulation, FileRecord};
use simcore::{FileId, LatencyStats, SimTime};
use wcc_obs::ProbeHandle;

use crate::closed::drive;

/// Sizing for one [`run_soak`] execution.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Concurrent keep-alive connections to hold open against the proxy
    /// (idle; the active mix adds a few more on top).
    pub conns: usize,
    /// Client threads driving the active request mix.
    pub active: usize,
    /// Requests per active client: the clients share one source of
    /// `active` × `requests_per_active` requests cycling the file set.
    pub requests_per_active: usize,
    /// Reactor threads on each of the origin and proxy data paths.
    pub reactor_threads: usize,
    /// Distinct files in the origin population.
    pub files: usize,
    /// Child processes holding the idle connections; `0` holds them in
    /// this process, on the calling thread.
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
    /// `process_threads` is read: its main thread — which holds the idle
    /// sockets itself — and what serves, one reactor set each for origin
    /// and proxy. Nothing per connection, nothing per request, nothing
    /// per control peer.
    pub fn expected_threads(&self) -> usize {
        1 + 2 * self.reactor_threads
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
            .f64("wall_seconds", self.wall_seconds)
            .raw("latency", &latency_json(&self.latency))
            .finish()
    }
}

/// Stand up a [`LiveStack`], park `cfg.conns` idle connections against
/// its proxy, run the active mix, and tear it all down. The returned
/// report carries the raw numbers; call [`SoakReport::verify`] to gate
/// on them.
pub fn run_soak(cfg: &SoakConfig, probe: &ProbeHandle) -> io::Result<SoakReport> {
    let files = cfg.files.max(1);
    let active = cfg.active.max(1);
    let started = Instant::now();

    let mut pop = FilePopulation::new();
    for i in 0..files {
        pop.add(FileRecord::new(
            format!("/soak/{i}.html"),
            SimTime::ZERO,
            2_000 + i as u64,
        ));
    }
    // The clock stays pinned at zero: no modifications are scripted and
    // the TTL is enormous, so after warm-up every request must be a
    // fresh hit — that is the invariant the soak checks.
    let spec = StackSpec {
        population: Arc::new(pop),
        classes: Vec::new(),
        class_expires: Vec::new(),
        start: SimTime::ZERO,
        end: SimTime::ZERO,
    };
    let mut run = LiveRunConfig::new(LivePolicy::Ttl(1_000_000));
    run.shards = 4;
    run.reactor_threads = cfg.reactor_threads;
    let stack = LiveStack::spawn(&spec, &run, probe)?;
    let request = |i: usize| (SimTime::ZERO, FileId::from_index(i % files));

    // Sequential warm-up: every file exactly once, so the miss count is
    // pinned to `files` before any concurrency starts.
    let warmup = drive(&stack, &spec, (0..files).map(request), 1, probe)?;

    // Park the idle connections. The sockets never carry a byte — they
    // exercise exactly the idle keep-alive path the reactor must not
    // reap or budget.
    let mut held = Vec::new();
    let mut workers = Vec::new();
    if cfg.worker_processes == 0 {
        held = dial_idle(stack.proxy_addr(), cfg.conns)?;
    } else {
        let share = cfg.conns.div_ceil(cfg.worker_processes);
        let mut remaining = cfg.conns;
        while remaining > 0 {
            let n = remaining.min(share);
            remaining -= n;
            workers.push(spawn_worker(stack.proxy_addr(), n)?);
        }
        workers.iter_mut().try_for_each(wait_worker_ready)?;
    }

    // Wait for the reactor to have accepted everything that was dialled,
    // then freeze the peak.
    let open_peak = await_open_conns(stack.proxy(), cfg.conns);

    // The active mix: closed-loop clients cycling the whole file set.
    let mix_len = active * cfg.requests_per_active;
    let mix = drive(&stack, &spec, (0..mix_len).map(request), active, probe);
    let process_threads = process_thread_count();

    // Release the idle connections (a worker's: close its stdin, reap
    // it) and tear down.
    drop(held);
    for mut w in workers {
        drop(w.stdin.take());
        let _ = w.wait();
    }
    let mix = mix?;
    let dropped_accepts = stack.proxy().dropped_accepts();
    let counters = stack.shutdown();

    Ok(SoakReport {
        conns_target: cfg.conns,
        open_peak,
        dropped_accepts,
        requests_sent: (files + mix_len) as u64,
        requests_ok: warmup.requests + mix.requests,
        misses: counters.cache.misses,
        fresh_hits: counters.cache.fresh_hits,
        files: files as u64,
        reactor_threads: cfg.reactor_threads.max(1),
        process_threads,
        wall_seconds: started.elapsed().as_secs_f64(),
        latency: mix.latency,
    })
}

/// Child-process entry point for the hidden `soak-worker` CLI mode: the
/// child's half of the worker protocol the module doc describes.
pub fn soak_worker(addr: SocketAddr, conns: usize) -> io::Result<()> {
    let held = dial_idle(addr, conns)?;
    let mut stdout = io::stdout();
    writeln!(stdout, "READY {}", held.len())?;
    stdout.flush()?;
    // Block until the parent closes our stdin; EOF is the release.
    let mut sink = Vec::new();
    let _ = io::stdin().lock().read_to_end(&mut sink);
    drop(held);
    Ok(())
}

/// Dial `n` connections to the proxy and hand them back open.
fn dial_idle(proxy_addr: SocketAddr, n: usize) -> io::Result<Vec<TcpStream>> {
    (0..n).map(|_| TcpStream::connect(proxy_addr)).collect()
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
    let stdout = worker.stdout.as_mut().expect("spawn_worker pipes stdout");
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

/// Poll the proxy's open-connection gauge until it reaches `target`
/// (everything has been dialled by the time this is called). Times out —
/// with the peak actually reached — rather than hanging, so a broken
/// reactor fails the verify step instead of wedging CI.
fn await_open_conns(proxy: &LiveProxy, target: usize) -> usize {
    let mut peak = 0;
    // 2400 polls 25 ms apart = one minute; dialling 10k loopback sockets
    // takes a few seconds.
    for _ in 0..2400 {
        peak = peak.max(proxy.open_conns());
        if peak >= target {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    peak
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
        thread::sleep(Duration::from_millis(1));
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

    /// A miniature soak: the full mechanism (idle connections, warm-up,
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
        assert_eq!(report.fresh_hits, 4 * 16);
        // Main + one reactor set each for origin and proxy: the idle
        // sockets cost no thread. (The test harness runs other tests'
        // threads beside this one, so `process_threads` itself is only
        // exact under `wcc soak`, which gates on it.)
        assert_eq!(report.expected_threads(), 1 + 2 * 2);
        let json = report.to_json();
        assert!(json.contains("\"conns_target\":300"));
        assert!(json.contains("\"dropped_accepts\":0"));
        assert!(!json.contains("client_threads"));
    }
}
