//! The closed-loop driver: `threads` clients, each sending its next
//! request only after the previous response has fully arrived, so
//! offered load adapts to service rate and the run always terminates.
//!
//! The clients pull from **one** request source, so the source may be a
//! stream (nothing is materialized, memory is O(1) in its length) and
//! every record is sent exactly once whatever the thread count. Before
//! sending the request scheduled at instant `t` a client calls
//! [`LiveStack::advance_to`]`(t)`, publishing (and waiting out) every
//! scripted modification due by `t`. With one client this reproduces
//! the simulator's event order exactly — modification before request at
//! equal instants, requests in source order — which is what the
//! differential test and counter-exact trace replay rely on. With
//! several, requests race (that's the point of a load test) and only
//! aggregate behaviour is meaningful.

use std::io;
use std::net::TcpStream;
use std::ops::Deref;
use std::thread;
use std::time::Instant;

use liveserve::report::{latency_json, rates_json, JsonObj};
use liveserve::{HttpConn, LiveRunConfig, LiveStack, StackCounters, StackSpec};
use simcore::{FileId, LatencyStats, SimTime};
use wcc_obs::{ObsEvent, ProbeHandle};
use wcc_sync::RankedMutex;

/// Rank of the shared request source: a client holds it for one
/// `next()` with nothing else held and releases it before it touches
/// the stack, so it sits beside the open-loop queue at the bottom of
/// the global lock order.
// wcc-lock-rank: load.closed.source 12
const SOURCE_RANK: u32 = 12;

/// Everything one closed-loop run measured. The stack-side counters are
/// reachable through `Deref` (`report.cache`, `report.server`, …).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Policy label (`ProtocolSpec::label`).
    pub policy: String,
    /// Client threads used.
    pub threads: usize,
    /// Proxy cache shards used.
    pub shards: usize,
    /// Reactor threads used on each data path.
    pub reactor_threads: usize,
    /// Requests sent (every one answered `200`).
    pub requests: u64,
    /// Wall-clock seconds from the first request to the last response.
    pub wall_seconds: f64,
    /// What the proxy and the origin counted.
    pub stack: StackCounters,
    /// Per-request client-observed service times.
    pub latency: LatencyStats,
    /// Bytes the proxy returned to clients (headers + bodies).
    pub bytes_to_clients: u64,
}

impl Deref for LoadReport {
    type Target = StackCounters;

    fn deref(&self) -> &StackCounters {
        &self.stack
    }
}

impl LoadReport {
    /// Client-observed throughput. Closed-loop clients only issue a
    /// request once the previous response arrives, so this is both the
    /// offered and the achieved rate of the shared `rates` schema (an
    /// open-loop report is where the two diverge).
    pub fn requests_per_sec(&self) -> f64 {
        crate::driver::rate(self.requests, self.wall_seconds)
    }

    /// The report as one JSON object (single line).
    pub fn to_json(&self) -> String {
        let rps = self.requests_per_sec();
        let mut obj = JsonObj::new();
        obj.str("policy", &self.policy)
            .u64("threads", self.threads as u64)
            .u64("shards", self.shards as u64)
            .u64("reactor_threads", self.reactor_threads as u64)
            .u64("requests", self.requests)
            .f64("wall_seconds", self.wall_seconds)
            .f64("requests_per_sec", rps)
            // Nothing is ever shed, so both drop counters are
            // structurally zero.
            .raw("rates", &rates_json(rps, rps, 0, 0))
            .raw("latency", &latency_json(&self.latency));
        self.stack.write_json(&mut obj);
        obj.u64("bytes_to_clients", self.bytes_to_clients).finish()
    }
}

/// What one client measured, or every client of one [`drive`] together.
#[derive(Debug, Default)]
pub struct ClientTally {
    /// Requests sent (every one answered `200`).
    pub requests: u64,
    /// Bytes the proxy returned (headers + bodies).
    pub bytes: u64,
    /// Client-observed service times.
    pub latency: LatencyStats,
}

/// One client: pull the next request, advance the clock to its instant,
/// GET it, record — until the source runs dry.
fn client(
    source: &RankedMutex<impl Iterator<Item = (SimTime, FileId)>>,
    spec: &StackSpec,
    stack: &LiveStack,
    probe: &ProbeHandle,
) -> io::Result<ClientTally> {
    let mut conn = HttpConn::new(TcpStream::connect(stack.proxy_addr())?)?;
    let mut tally = ClientTally::default();
    loop {
        // The guard lives for this one statement: the clock moves and
        // the request goes out with the source unlocked.
        let Some((t, file)) = source.lock().next() else {
            return Ok(tally);
        };
        if file.index() >= spec.population.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request names a file outside the population",
            ));
        }
        stack.advance_to(t);
        let sent = Instant::now();
        tally.bytes += conn.get_ok(&spec.population.get(file).path)?;
        match u64::try_from(sent.elapsed().as_nanos()) {
            Ok(elapsed_ns) => {
                tally.latency.record_ns(elapsed_ns);
                // Stamped with the request's *scheduled* instant: the
                // event stream stays on the virtual timeline even though
                // the measured latency is wall time.
                probe.record(
                    t,
                    ObsEvent::LiveLatency {
                        micros: elapsed_ns / 1_000,
                    },
                );
            }
            // A sample too large for u64 nanoseconds (centuries) would
            // poison every percentile if clamped; count it as dropped
            // instead so the report stays honest about missing samples.
            Err(_) => tally.latency.record_drop(),
        }
        tally.requests += 1;
    }
}

/// Send `requests` — `(instant, file)` pairs sorted by instant — through
/// a running `stack`, `threads` clients closed-loop, and return what
/// they measured together. The stack outlives the call, cache and clock
/// as the requests left them, so a second `drive` continues the first
/// (the soak's warm-up pass, then its active mix).
///
/// A non-`200` answer or a transport error aborts the run.
pub fn drive(
    stack: &LiveStack,
    spec: &StackSpec,
    requests: impl Iterator<Item = (SimTime, FileId)> + Send,
    threads: usize,
    probe: &ProbeHandle,
) -> io::Result<ClientTally> {
    let source = RankedMutex::new(SOURCE_RANK, "load.closed.source", requests);
    let tallies: Vec<io::Result<ClientTally>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| client(&source, spec, stack, probe)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut total = ClientTally::default();
    for tally in tallies {
        let tally = tally?;
        total.requests += tally.requests;
        total.bytes += tally.bytes;
        total.latency.merge(&tally.latency);
    }
    Ok(total)
}

/// [`drive`] `requests` through a freshly spawned loopback origin +
/// proxy at `run.threads` clients, and return the aggregated report.
/// `probe` receives the full structured event stream — origin server
/// operations, proxy request decisions and validations, and
/// client-observed latency — all stamped with virtual time.
pub fn run_closed_loop(
    spec: &StackSpec,
    requests: impl Iterator<Item = (SimTime, FileId)> + Send,
    run: &LiveRunConfig,
    probe: &ProbeHandle,
) -> io::Result<LoadReport> {
    let threads = run.threads.max(1);
    let stack = LiveStack::spawn(spec, run, probe)?;
    let started = Instant::now();
    let total = drive(&stack, spec, requests, threads, probe)?;
    let wall_seconds = started.elapsed().as_secs_f64();
    // Trailing modifications (after the last request but inside the
    // window) still count — the simulator schedules them as events.
    stack.advance_to(spec.end);

    Ok(LoadReport {
        policy: run.policy.label(),
        threads,
        shards: run.shards.max(1),
        reactor_threads: run.reactor_threads.max(1),
        requests: total.requests,
        wall_seconds,
        stack: stack.shutdown(),
        latency: total.latency,
        bytes_to_clients: total.bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use liveserve::LivePolicy;
    use originserver::{FilePopulation, FileRecord};
    use simcore::SimDuration;
    use std::sync::Arc;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Two files; /b is modified mid-run. Requests hit both repeatedly.
    fn tiny_workload() -> (StackSpec, Vec<(SimTime, FileId)>) {
        let mut pop = FilePopulation::new();
        let a = pop.add(FileRecord::new("/a.html", t(0), 400));
        let b = pop.add(FileRecord::new("/b.html", t(0), 900));
        pop.get_mut(b).push_modification(t(500), 950);
        let requests = vec![
            (t(10), a),
            (t(20), b),
            (t(30), a),
            (t(600), b),
            (t(700), a),
            (t(800), b),
        ];
        let spec = StackSpec {
            population: Arc::new(pop),
            classes: vec![0, 0],
            class_expires: Vec::new(),
            start: SimTime::ZERO,
            end: t(1000),
        };
        (spec, requests)
    }

    fn run(config: &LiveRunConfig) -> LoadReport {
        let (spec, requests) = tiny_workload();
        run_closed_loop(&spec, requests.into_iter(), config, &ProbeHandle::none()).unwrap()
    }

    #[test]
    fn ttl_run_hits_after_first_fetch() {
        let report = run(&LiveRunConfig::new(LivePolicy::Ttl(500)));
        assert_eq!(report.requests, 6);
        assert_eq!(report.cache.requests(), 6);
        // Compulsory misses for /a and /b; the 500h TTL keeps both
        // copies "fresh" forever afterwards, so the /b refetch never
        // happens and its post-modification hits are stale.
        assert_eq!(report.cache.misses, 2);
        assert_eq!(report.cache.fresh_hits + report.cache.stale_hits, 4);
        assert_eq!(report.cache.stale_hits, 2);
        assert_eq!(report.traffic.file_transfers, 2);
        assert_eq!(report.server.document_requests, 2);
        assert_eq!(report.latency.count(), 6);
        assert!(report.bytes_to_clients > 0);
    }

    #[test]
    fn invalidation_run_delivers_notices_and_refetches() {
        let report = run(&LiveRunConfig::new(LivePolicy::Invalidation));
        // The /b modification at t=500 invalidates the subscribed copy,
        // so the t=600 request refetches: 3 misses total, no staleness.
        assert_eq!(report.cache.misses, 3);
        assert_eq!(report.cache.stale_hits, 0);
        assert_eq!(report.invalidations_delivered, 1);
        assert_eq!(report.server.invalidations_sent, 1);
        assert_eq!(report.stale_age_total, SimDuration::ZERO);
    }

    #[test]
    fn multi_threaded_run_preserves_request_totals() {
        let mut config = LiveRunConfig::new(LivePolicy::Alex(20));
        config.threads = 3;
        let report = run(&config);
        assert_eq!(report.cache.requests(), 6);
        assert_eq!(report.latency.count(), 6);
        assert_eq!(report.threads, 3);
    }

    #[test]
    fn a_second_drive_continues_the_first() {
        let (spec, _) = tiny_workload();
        let probe = ProbeHandle::none();
        let run = LiveRunConfig::new(LivePolicy::Ttl(500));
        let stack = LiveStack::spawn(&spec, &run, &probe).unwrap();
        let every_file = || (0..spec.population.len()).map(|i| (t(10), FileId::from_index(i)));
        let first = drive(&stack, &spec, every_file(), 1, &probe).unwrap();
        let second = drive(&stack, &spec, every_file(), 2, &probe).unwrap();
        assert_eq!((first.requests, second.requests), (2, 2));
        assert_eq!(second.latency.count(), 2);
        // One stack, one cache: the first pass missed every file, and
        // the second found what the first left — no miss of its own.
        let counters = stack.shutdown();
        assert_eq!(counters.cache.misses, 2);
        assert_eq!(counters.cache.fresh_hits, 2);
        assert_eq!(counters.server.document_requests, 2);
    }

    #[test]
    fn sharded_run_matches_single_shard_totals() {
        let baseline = run(&LiveRunConfig::new(LivePolicy::Ttl(500)));
        let mut config = LiveRunConfig::new(LivePolicy::Ttl(500));
        config.shards = 3;
        let sharded = run(&config);
        assert_eq!(sharded.shards, 3);
        assert_eq!(sharded.cache, baseline.cache);
        assert_eq!(sharded.traffic.messages, baseline.traffic.messages);
        assert_eq!(sharded.traffic.file_bytes, baseline.traffic.file_bytes);
        assert_eq!(
            sharded.server.document_requests,
            baseline.server.document_requests
        );
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = run(&LiveRunConfig::new(LivePolicy::Alex(10)));
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"policy\":\"Alex 10%\""));
        assert!(json.contains("\"shards\":1"));
        assert!(json.contains("\"requests\":6"));
        assert!(json.contains("\"cache\":{\"fresh_hits\":"));
        assert!(json.contains("\"p50_ns\":"));
        assert!(json.contains("\"p999_ns\":"));
        assert!(json.contains("\"dropped\":0"));
        assert!(json.contains("\"upstream\":{\"dials\":"));
        assert!(json.contains("\"saturations\":0"));
        // The shared rates schema: closed-loop offered == achieved,
        // structurally zero drops.
        assert!(json.contains("\"rates\":{\"offered_rps\":"));
        assert!(json.contains("\"drops\":{\"queue_full\":0,\"timeout\":0}"));
        let offered = json
            .split("\"offered_rps\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .unwrap();
        let achieved = json
            .split("\"achieved_rps\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .unwrap();
        assert_eq!(offered, achieved);
    }
}
