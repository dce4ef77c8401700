//! The layer ladder: each layer's *public* functions timed from the
//! harness, bottom layer first.
//!
//! Every timing is the median of [`BATCHES`] batches, each long enough
//! (about a millisecond or more) that the clock read does not show.
//! Inputs and results pass through `black_box`. None of these numbers
//! is gated; they exist so that a change in an end-to-end metric can be
//! walked down to the layer that moved (`bench/README.md` lists which
//! end-to-end metric each one should move, on which workload).
//!
//! Everything runs pinned with the rest of the process, except the two
//! measurements that are *about* more than one runnable thread —
//! `webcache.sweep.jobs2_speedup` and the open-loop `wcc-load.open.*` —
//! which run under the affinity mask the process started with.

use std::hint::black_box;
use std::io;
use std::net::TcpStream;
use std::time::Instant;

use consistency::{
    AdaptiveTtl, Decision, FixedTtl, NeverExpire, Policy, RenewableTtl, RequestCtx, UpdateRisk,
};
use httpsim::{HttpDate, Request, Response, Status};
use liveserve::{HttpConn, LivePolicy, LiveRunConfig, ProbeHandle, StoreKind};
use originserver::OriginServer;
use proxycache::{EntryMeta, FifoStore, GdsStore, LfuStore, LruStore, Store, UnboundedStore};
use simcore::{CacheId, EventQueue, FileId, SimDuration, SimTime};
use simstats::{DetRng, ZipfDist};
use wcc_load::{
    run_open_loop, shots_from_arrivals, ArrivalSchedule, OpenLoopConfig, ScheduleConfig,
};
use wcc_obs::{MetricsProbe, ObsEvent, Probe, RequestOutcome, TraceProbe};
use webcache::live::to_live_workload;
use webcache::{
    generate_synthetic, Experiment, ProtocolSpec, SimConfig, SweepRunner, Workload, WorrellConfig,
};
use webtrace::campus::{generate_campus_trace, CampusProfile};
use webtrace::stream::{synthetic_stream, SyntheticStreamConfig};

use crate::stats::{median, nearest_rank};
use crate::sys::CpuSet;
use crate::workload::live::spawn_stack;
use crate::workload::SharedMetrics;

/// Batches per timed layer function.
pub const BATCHES: usize = 9;

/// Arrivals per second of the open-loop probe.
const OPEN_LOOP_RPS: f64 = 8_000.0;
/// Wall seconds the open-loop probe lasts (the issue's 5 s, cut to fit
/// a traced run into the driver's per-run share of its time cap).
const OPEN_LOOP_SECONDS: f64 = 2.0;

/// The ladder's results, `(metric name, value)` in ladder order.
pub type Rows = Vec<(&'static str, f64)>;

/// Median over [`BATCHES`] batches of `batch()`'s wall time divided by
/// the `ops` operations it performs, nanoseconds. One untimed batch
/// runs first.
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            batch();
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Run the whole ladder. `seed` varies the generated inputs; `unpinned`
/// is the affinity mask the process started with.
pub fn run(seed: u64, unpinned: &CpuSet) -> io::Result<Rows> {
    let mut rows = Rows::new();
    generators(seed, &mut rows);
    event_queue(&mut rows);
    origin_server(seed, &mut rows);
    stores(seed, &mut rows);
    policies(&mut rows);
    let sim_workload = generate_synthetic(&WorrellConfig::scaled(300, 20_000), seed);
    simulator(&sim_workload, unpinned, &mut rows)?;
    http(&mut rows);
    live_stack(seed, &mut rows)?;
    load_generator(seed, unpinned, &mut rows)?;
    observability(&sim_workload, seed, &mut rows)?;
    Ok(rows)
}

/// `simstats`, `webtrace`, `webcache::workload`: what set-up is made of.
fn generators(seed: u64, rows: &mut Rows) {
    const SAMPLES: usize = 100_000;
    let zipf = ZipfDist::new(10_000, 1.0);
    let mut rng = DetRng::seed_from_u64(seed);
    rows.push((
        "simstats.zipf.sample_ns",
        ns_per_op(SAMPLES, || {
            let mut sum = 0usize;
            for _ in 0..SAMPLES {
                sum = sum.wrapping_add(zipf.sample(&mut rng));
            }
            black_box(sum);
        }),
    ));

    let das = CampusProfile::das();
    let requests = generate_campus_trace(&das, seed).trace.requests.len();
    rows.push((
        "webtrace.campus.gen_ns_per_req",
        ns_per_op(requests, || {
            black_box(generate_campus_trace(black_box(&das), seed));
        }),
    ));

    const STREAMED: u64 = 50_000;
    let stream_config = SyntheticStreamConfig::campus(&das, STREAMED, seed);
    let (_, stream) = synthetic_stream(&stream_config);
    rows.push((
        "webtrace.stream.next_ns",
        ns_per_op(STREAMED as usize, || {
            // Cloning the unstarted stream is a few words; every batch
            // walks the same arrivals.
            let mut files = 0usize;
            for request in stream.clone() {
                files = files.wrapping_add(request.file.index());
            }
            black_box(files);
        }),
    ));

    let config = WorrellConfig::scaled(500, 20_000);
    rows.push((
        "webcache.workload.gen_ns_per_req",
        ns_per_op(config.requests, || {
            black_box(generate_synthetic(black_box(&config), seed));
        }),
    ));
}

/// `simcore::EventQueue`: the three patterns the simulator produces.
fn event_queue(rows: &mut Rows) {
    const ROUNDS: usize = 20;
    // Plain schedule + pop, 1k events in flight.
    rows.push((
        "simcore.queue.schedule_pop_ns",
        ns_per_op(ROUNDS * 1_000, || {
            for _ in 0..ROUNDS {
                let mut q = EventQueue::new();
                for i in 0..1_000u64 {
                    q.schedule(SimTime::from_secs(i * 7_919 % 1_000), i);
                }
                let mut total = 0u64;
                while let Some((_, v)) = q.pop() {
                    total += v;
                }
                black_box(total);
            }
        }),
    ));
    // Timer churn: every second scheduled event is cancelled before it
    // fires (expiry timers re-armed by a validation).
    rows.push((
        "simcore.queue.cancel_ns",
        ns_per_op(ROUNDS * 4_096, || {
            for _ in 0..ROUNDS {
                let mut q = EventQueue::new();
                let handles: Vec<_> = (0..4_096u64)
                    .map(|i| q.schedule(SimTime::from_secs(i * 2_654_435_761 % 4_096), i))
                    .collect();
                for h in handles.iter().step_by(2) {
                    black_box(q.cancel(*h));
                }
                let mut total = 0u64;
                while let Some((_, v)) = q.pop() {
                    total += v;
                }
                black_box(total);
            }
        }),
    ));
    // Re-arm: a standing population of timers, each cancel immediately
    // followed by a reschedule.
    rows.push((
        "simcore.queue.rearm_ns",
        ns_per_op(ROUNDS * 1_024 * 8, || {
            for _ in 0..ROUNDS {
                let mut q = EventQueue::new();
                let mut handles: Vec<_> = (0..1_024u64)
                    .map(|i| q.schedule(SimTime::from_secs(i), i))
                    .collect();
                for round in 1..=8u64 {
                    for (i, h) in handles.iter_mut().enumerate() {
                        q.cancel(*h);
                        *h = q.schedule(SimTime::from_secs(round * 10_000 + i as u64), i as u64);
                    }
                }
                black_box(q.len());
            }
        }),
    ));
}

/// `originserver`: version lookup, conditional GET, callback fan-out.
fn origin_server(seed: u64, rows: &mut Rows) {
    let workload = generate_synthetic(&WorrellConfig::scaled(500, 1), seed);
    let files = workload.population.len();
    let span = workload.duration().as_secs();
    // 32 probe instants spread over the window, for every file.
    let instants: Vec<SimTime> = (0..32)
        .map(|i| workload.start + SimDuration::from_secs(span * i / 32))
        .collect();
    let ops = files * instants.len();

    rows.push((
        "originserver.version_at_ns",
        ns_per_op(ops, || {
            let mut bytes = 0u64;
            for (_, record) in workload.population.iter() {
                for &t in &instants {
                    bytes += record.version_at(black_box(t)).map_or(0, |v| v.size);
                }
            }
            black_box(bytes);
        }),
    ));

    let mut server = OriginServer::new(std::sync::Arc::clone(&workload.population));
    rows.push((
        "originserver.cond_get_ns",
        ns_per_op(ops, || {
            for (id, _) in workload.population.iter() {
                for pair in instants.windows(2) {
                    black_box(server.handle_conditional_get(id, pair[0], pair[1]));
                }
                black_box(server.handle_get(id, instants[31]));
            }
        }),
    ));

    rows.push((
        "originserver.subscribe_notify_ns",
        ns_per_op(files, || {
            for (id, _) in workload.population.iter() {
                server.subscribe(CacheId(0), id);
                black_box(server.notify_modification(id));
            }
        }),
    ));
}

/// One store's churn: a Zipf reference stream over 4 096 files of
/// 100–999 bytes, look-up then insert on a miss.
fn store_churn<S: Store>(mut store: S, refs: &[u32]) -> (f64, f64, f64) {
    let size_of = |id: u32| 100 + u64::from(id) * 37 % 900;
    let mut outcome = (0u64, 0u64, 0u64);
    let ns = ns_per_op(refs.len(), || {
        let (mut hits, mut inserts, mut evictions) = (0u64, 0u64, 0u64);
        for (i, &id) in refs.iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            if store.access(FileId(id), now).is_some() {
                hits += 1;
            } else {
                inserts += 1;
                let evicted = store.insert(FileId(id), EntryMeta::fresh(size_of(id), now, now));
                evictions += evicted.len() as u64;
            }
        }
        // Steady state: the last batch's tallies are the ones reported.
        outcome = (hits, inserts, evictions);
    });
    let (hits, inserts, evictions) = outcome;
    (
        ns,
        hits as f64 / refs.len() as f64,
        if inserts == 0 {
            0.0
        } else {
            evictions as f64 / inserts as f64
        },
    )
}

/// `proxycache`: every store under the same reference stream, bounded
/// ones at an eighth of the population's bytes.
fn stores(seed: u64, rows: &mut Rows) {
    const FILES: usize = 4_096;
    const REFS: usize = 32_768;
    let zipf = ZipfDist::new(FILES, 1.0);
    let mut rng = DetRng::seed_from_u64(seed).derive_stream("store-refs");
    // Scatter the ranks so popularity is not correlated with size.
    let refs: Vec<u32> = (0..REFS)
        .map(|_| (zipf.sample(&mut rng) as u32).wrapping_mul(2_654_435_761) % FILES as u32)
        .collect();
    let capacity = (FILES as u64 * 550) / 8;

    let mut push = |names: [&'static str; 3], (ns, hit, evict): (f64, f64, f64)| {
        rows.push((names[0], ns));
        rows.push((names[1], hit));
        rows.push((names[2], evict));
    };
    push(
        [
            "proxycache.unbounded.op_ns",
            "proxycache.unbounded.hit_ratio",
            "proxycache.unbounded.evictions_per_insert",
        ],
        store_churn(UnboundedStore::new(), &refs),
    );
    push(
        [
            "proxycache.lru.op_ns",
            "proxycache.lru.hit_ratio",
            "proxycache.lru.evictions_per_insert",
        ],
        store_churn(LruStore::new(capacity), &refs),
    );
    push(
        [
            "proxycache.fifo.op_ns",
            "proxycache.fifo.hit_ratio",
            "proxycache.fifo.evictions_per_insert",
        ],
        store_churn(FifoStore::new(capacity), &refs),
    );
    push(
        [
            "proxycache.gds.op_ns",
            "proxycache.gds.hit_ratio",
            "proxycache.gds.evictions_per_insert",
        ],
        store_churn(GdsStore::new(capacity), &refs),
    );
    push(
        [
            "proxycache.lfu.op_ns",
            "proxycache.lfu.hit_ratio",
            "proxycache.lfu.evictions_per_insert",
        ],
        store_churn(LfuStore::new(capacity), &refs),
    );
}

/// `consistency`: `decide` over 1 024 entries of varied age, asked a
/// varied time after their validation.
fn policies(rows: &mut Rows) {
    const ENTRIES: usize = 1_024;
    const ROUNDS: usize = 64;
    let validated = SimTime::from_secs(10_000_000);
    let cases: Vec<(EntryMeta, RequestCtx)> = (0..ENTRIES as u64)
        .map(|i| {
            // Age at validation: minutes to months; asked seconds to
            // days later.
            let age = 60 + i * i * 5;
            let since = 1 + (i * 2_654_435_761 % 200_000);
            let mut entry = EntryMeta::fresh(
                1_000 + i,
                SimTime::from_secs(10_000_000 - age),
                SimTime::from_secs(10_000_000 - age),
            );
            entry.revalidate(validated);
            let ctx = RequestCtx::new(validated + SimDuration::from_secs(since), (i % 5) as usize)
                .with_delay(SimDuration::from_secs(1 + i % 7));
            (entry, ctx)
        })
        .collect();
    let time = |policy: &dyn Policy| {
        ns_per_op(ENTRIES * ROUNDS, || {
            let mut serves = 0usize;
            for _ in 0..ROUNDS {
                for (entry, ctx) in &cases {
                    serves += usize::from(policy.decide(black_box(entry), ctx) == Decision::Serve);
                }
            }
            black_box(serves);
        })
    };
    let alex = AdaptiveTtl::percent(10);
    rows.push(("consistency.ttl.decide_ns", time(&FixedTtl::hours(24))));
    rows.push(("consistency.alex.decide_ns", time(&alex)));
    rows.push(("consistency.never.decide_ns", time(&NeverExpire)));
    rows.push((
        "consistency.renewable.decide_ns",
        time(&RenewableTtl::hours(24)),
    ));
    rows.push(("consistency.risk.decide_ns", time(&UpdateRisk::percent(5))));
    let serves = cases
        .iter()
        .filter(|(entry, ctx)| alex.decide(entry, ctx) == Decision::Serve)
        .count();
    rows.push((
        "consistency.alex.serve_ratio",
        serves as f64 / ENTRIES as f64,
    ));
}

/// `webcache::sim` through `Experiment::run`, and the sweep executor.
fn simulator(workload: &Workload, unpinned: &CpuSet, rows: &mut Rows) -> io::Result<()> {
    let per_request = |spec: ProtocolSpec| {
        ns_per_op(workload.request_count(), || {
            black_box(Experiment::new(workload).protocol(spec).run());
        })
    };
    rows.push((
        "webcache.sim.ttl.ns_per_req",
        per_request(ProtocolSpec::Ttl(100)),
    ));
    rows.push((
        "webcache.sim.alex.ns_per_req",
        per_request(ProtocolSpec::Alex(20)),
    ));
    rows.push((
        "webcache.sim.inval.ns_per_req",
        per_request(ProtocolSpec::Invalidation),
    ));

    // Two workers against one, unpinned: what `wcc all --jobs 2` gains.
    // On a one-CPU mask this reads about 1.0 by construction.
    let thresholds: Vec<u32> = vec![0, 10, 20, 30, 50, 75, 100, 150];
    let config = SimConfig::optimized();
    let sweep = |runner: &SweepRunner| {
        ns_per_op(1, || {
            black_box(runner.map(&thresholds, |&pct| {
                Experiment::new(workload)
                    .protocol(ProtocolSpec::Alex(pct))
                    .config(config)
                    .run()
                    .result
                    .traffic
                    .total_bytes()
            }));
        })
    };
    let pinned = CpuSet::current()?;
    unpinned.apply()?;
    let one = sweep(&SweepRunner::new(1));
    let two = sweep(&SweepRunner::new(2));
    pinned.apply()?;
    rows.push(("webcache.sweep.jobs2_speedup", one / two));
    Ok(())
}

/// `httpsim`: the four messages of a validated request.
fn http(rows: &mut Rows) {
    const ROUNDS: usize = 2_000;
    let date = HttpDate(820_454_400);
    let request = Request::get_if_modified_since("/w/f1234.dat", date);
    let request_bytes = request.to_bytes();
    let response = Response::ok(date, date, 7_791);
    let response_head = response.serialize_headers();
    let date_text = date.to_string();

    rows.push((
        "httpsim.request.serialize_ns",
        ns_per_op(ROUNDS, || {
            for _ in 0..ROUNDS {
                black_box(black_box(&request).to_bytes());
            }
        }),
    ));
    rows.push((
        "httpsim.request.parse_ns",
        ns_per_op(ROUNDS, || {
            for _ in 0..ROUNDS {
                black_box(Request::from_bytes(black_box(&request_bytes)).expect("round trip"));
            }
        }),
    ));
    rows.push((
        "httpsim.response.serialize_ns",
        ns_per_op(ROUNDS, || {
            for _ in 0..ROUNDS {
                black_box(black_box(&response).serialize_headers());
            }
        }),
    ));
    rows.push((
        "httpsim.response.parse_ns",
        ns_per_op(ROUNDS, || {
            for _ in 0..ROUNDS {
                black_box(Response::parse(black_box(&response_head)).expect("round trip"));
            }
        }),
    ));
    rows.push((
        "httpsim.date.format_ns",
        ns_per_op(ROUNDS, || {
            for _ in 0..ROUNDS {
                black_box(black_box(date).to_string());
            }
        }),
    ));
    rows.push((
        "httpsim.date.parse_ns",
        ns_per_op(ROUNDS, || {
            for _ in 0..ROUNDS {
                black_box(
                    black_box(&date_text)
                        .parse::<HttpDate>()
                        .expect("round trip"),
                );
            }
        }),
    ));
    rows.push(("httpsim.response.head_bytes", response.header_size() as f64));
}

/// Median latency, µs, of `requests` sent one at a time on `conn`, each
/// expected to answer `status`.
fn p50_us(
    conn: &mut HttpConn,
    requests: impl Iterator<Item = Request>,
    status: Status,
) -> io::Result<f64> {
    let mut samples = Vec::new();
    for request in requests {
        let sent = Instant::now();
        conn.write_request(&request)?;
        let (response, _) = conn.read_response()?;
        samples.push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if response.status != status {
            return Err(io::Error::other(format!(
                "layer probe: got {:?}, expected {status:?}",
                response.status
            )));
        }
    }
    samples.sort_unstable();
    Ok(nearest_rank(&samples, 0.5) as f64 / 1e3)
}

/// The small population the live probes run against, and how often
/// each of its files is asked for.
const PROBE_FILES: usize = 500;
const PROBE_ROUNDS: usize = 8;

fn probe_workload(seed: u64) -> Workload {
    generate_synthetic(&WorrellConfig::scaled(PROBE_FILES, 1), seed)
}

/// The stack every live probe runs against: TTL 500 h (nothing ever
/// expires or is modified while the virtual clock stands still) on an
/// unbounded store.
fn probe_stack(
    workload: &Workload,
    probe: &ProbeHandle,
) -> io::Result<(liveserve::LiveOrigin, liveserve::LiveProxy)> {
    spawn_stack(
        workload,
        LivePolicy::Ttl(500),
        StoreKind::Unbounded,
        probe,
        || (),
    )
}

/// Requests per second of `PROBE_ROUNDS` passes of cache hits through a
/// freshly spawned proxy, with `probe` attached to the stack.
fn proxy_hit_pass(workload: &Workload, probe: &ProbeHandle) -> io::Result<(f64, f64)> {
    let (origin, proxy) = probe_stack(workload, probe)?;
    let mut conn = HttpConn::new(TcpStream::connect(proxy.addr())?)?;
    let gets = || {
        workload
            .population
            .iter()
            .map(|(_, record)| Request::get(record.path.clone()))
    };
    // One pass of compulsory misses fills the cache.
    p50_us(&mut conn, gets(), Status::Ok)?;
    let started = Instant::now();
    let p50 = p50_us(
        &mut conn,
        (0..PROBE_ROUNDS).flat_map(|_| gets()),
        Status::Ok,
    )?;
    let rate = (PROBE_ROUNDS * workload.population.len()) as f64 / started.elapsed().as_secs_f64();
    drop(conn);
    proxy.shutdown();
    origin.shutdown();
    Ok((p50, rate))
}

/// `liveserve`: spawn cost, the origin alone, and what the proxy's hit
/// path adds on top of it.
fn live_stack(seed: u64, rows: &mut Rows) -> io::Result<()> {
    let workload = probe_workload(seed);
    let none = ProbeHandle::none();

    let mut spawn_ms = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        let (origin, proxy) = probe_stack(&workload, &none)?;
        spawn_ms.push(started.elapsed().as_secs_f64() * 1e3);
        proxy.shutdown();
        origin.shutdown();
    }
    rows.push(("liveserve.spawn_ms", median(&spawn_ms)));

    // The client straight to the origin's data port: reactor + inline
    // dispatch, no proxy. The virtual clock never moves, so nothing is
    // modified and every conditional request answers 304.
    let (origin, proxy) = probe_stack(&workload, &none)?;
    let mut direct = HttpConn::new(TcpStream::connect(origin.data_addr())?)?;
    let mut conditional = Vec::with_capacity(workload.population.len());
    for (_, record) in workload.population.iter() {
        direct.write_request(&Request::get(record.path.clone()))?;
        let (response, _) = direct.read_response()?;
        let stamp = response
            .last_modified
            .ok_or_else(|| io::Error::other("origin sent no Last-Modified"))?;
        conditional.push(Request::get_if_modified_since(record.path.clone(), stamp));
    }
    let direct_200 = p50_us(
        &mut direct,
        (0..PROBE_ROUNDS).flat_map(|_| {
            workload
                .population
                .iter()
                .map(|(_, record)| Request::get(record.path.clone()))
        }),
        Status::Ok,
    )?;
    let direct_304 = p50_us(
        &mut direct,
        (0..PROBE_ROUNDS).flat_map(|_| conditional.iter().cloned()),
        Status::NotModified,
    )?;
    drop(direct);
    proxy.shutdown();
    origin.shutdown();
    rows.push(("liveserve.origin.direct_200_us", direct_200));
    rows.push(("liveserve.origin.direct_304_us", direct_304));

    // The same bodies served from the proxy's cache: the difference is
    // the dispatch hop + shard lock + decide.
    let (hit_p50, _) = proxy_hit_pass(&workload, &none)?;
    rows.push((
        "liveserve.proxy.hit_over_origin200_us",
        hit_p50 - direct_200,
    ));
    Ok(())
}

/// `wcc-load`: schedule generation, and a short open-loop run with the
/// `live-validate` mix (report only; unpinned, because a pacer and two
/// workers on one CPU would measure the pin).
fn load_generator(seed: u64, unpinned: &CpuSet, rows: &mut Rows) -> io::Result<()> {
    const ARRIVALS: u64 = 50_000;
    let schedule = ScheduleConfig::poisson(OPEN_LOOP_RPS, ARRIVALS, seed);
    rows.push((
        "wcc-load.schedule.gen_ns_per_arrival",
        ns_per_op(ARRIVALS as usize, || {
            let mut last = 0u64;
            for arrival in ArrivalSchedule::new(black_box(&schedule)) {
                last = arrival.offset_us;
            }
            black_box(last);
        }),
    ));

    let total = (OPEN_LOOP_RPS * OPEN_LOOP_SECONDS) as u64;
    let workload = generate_synthetic(
        &WorrellConfig {
            requests: total as usize,
            ..WorrellConfig::paper_run()
        },
        seed,
    );
    let spec = to_live_workload(&workload).stack_spec();
    let mut config = OpenLoopConfig::new(LiveRunConfig::new(LivePolicy::Ttl(0)), OPEN_LOOP_RPS);
    config.workers = 2;
    // The whole modification window passes while the run lasts.
    let compression = workload.duration().as_secs() as f64 / OPEN_LOOP_SECONDS;
    let shots: Vec<_> = shots_from_arrivals(
        ArrivalSchedule::new(&ScheduleConfig::poisson(OPEN_LOOP_RPS, total, seed)),
        workload.requests.iter().map(|&(_, file)| file),
        workload.start,
        compression,
    )
    .collect();

    // How late the pacer ran: it asks for shot i+1 right after firing
    // shot i, so the instant of that call, measured from the first one,
    // minus shot i's deadline is shot i's lateness (plus the time its
    // `advance_to` and enqueue took).
    let mut first_pull: Option<Instant> = None;
    let mut previous_due_us: Option<u64> = None;
    let mut late_ns: Vec<u64> = Vec::with_capacity(shots.len());
    let paced = shots.iter().copied().inspect(|shot| {
        let origin = *first_pull.get_or_insert_with(Instant::now);
        if let Some(due_us) = previous_due_us {
            let fired_us = origin.elapsed().as_micros() as u64;
            late_ns.push(fired_us.saturating_sub(due_us) * 1_000);
        }
        previous_due_us = Some(shot.due_us);
    });

    let pinned = CpuSet::current()?;
    unpinned.apply()?;
    let report = run_open_loop(&spec, paced, &config, &ProbeHandle::none());
    pinned.apply()?;
    let report = report?;
    if !report.conserves() {
        return Err(io::Error::other(
            "open-loop probe: offered != completed + shed + errors",
        ));
    }

    late_ns.sort_unstable();
    let us = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e3;
    rows.push(("wcc-load.open.sojourn_p50_us", us(report.sojourn.p50_ns())));
    rows.push(("wcc-load.open.sojourn_p99_us", us(report.sojourn.p99_ns())));
    rows.push((
        "wcc-load.open.shed_frac",
        (report.dropped_queue_full + report.dropped_timeout) as f64 / report.offered.max(1) as f64,
    ));
    rows.push((
        "wcc-load.open.pacer_late_p99_us",
        nearest_rank(&late_ns, 0.99) as f64 / 1e3,
    ));
    Ok(())
}

/// `wcc-obs`: what recording an event costs, and what an attached probe
/// costs a simulation and a live hit path.
fn observability(sim_workload: &Workload, seed: u64, rows: &mut Rows) -> io::Result<()> {
    const EVENTS: usize = 50_000;
    let events: Vec<ObsEvent> = (0..EVENTS as u32)
        .map(|i| match i % 4 {
            0 => ObsEvent::Request {
                file: FileId(i % 997),
                outcome: RequestOutcome::FreshHit,
            },
            1 => ObsEvent::Validation {
                file: FileId(i % 997),
                modified: i % 8 == 1,
            },
            2 => ObsEvent::PolicyDecision {
                file: FileId(i % 997),
                fresh: true,
            },
            _ => ObsEvent::LiveLatency {
                micros: u64::from(i % 500),
            },
        })
        .collect();
    let record_all = |probe: &mut dyn Probe| {
        for (i, event) in events.iter().enumerate() {
            probe.record(SimTime::from_secs(i as u64), *event);
        }
    };
    let mut trace = TraceProbe::new(EVENTS);
    rows.push((
        "wcc-obs.trace.record_ns",
        ns_per_op(EVENTS, || record_all(black_box(&mut trace))),
    ));
    let mut metrics = MetricsProbe::new();
    rows.push((
        "wcc-obs.metrics.record_ns",
        ns_per_op(EVENTS, || record_all(black_box(&mut metrics))),
    ));

    // A simulation with and without a metrics probe, batches alternated.
    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let started = Instant::now();
        black_box(
            Experiment::new(sim_workload)
                .protocol(ProtocolSpec::Alex(20))
                .run(),
        );
        plain.push(started.elapsed().as_secs_f64());
        let mut probe = MetricsProbe::new();
        let started = Instant::now();
        black_box(
            Experiment::new(sim_workload)
                .protocol(ProtocolSpec::Alex(20))
                .probe(&mut probe)
                .run(),
        );
        probed.push(started.elapsed().as_secs_f64());
    }
    rows.push((
        "wcc-obs.sim.overhead_pct",
        100.0 * (median(&probed) - median(&plain)) / median(&plain),
    ));

    // The proxy's hit path with and without a metrics probe behind the
    // stack's `ProbeHandle`.
    let workload = probe_workload(seed);
    let (_, plain_rate) = proxy_hit_pass(&workload, &ProbeHandle::none())?;
    let (_, probed_rate) = proxy_hit_pass(&workload, &SharedMetrics::default().handle())?;
    rows.push((
        "wcc-obs.live.overhead_pct",
        100.0 * (plain_rate - probed_rate) / plain_rate,
    ));
    Ok(())
}
