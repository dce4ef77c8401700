//! The three live workloads: a loopback origin and caching proxy driven
//! by **one closed-loop keep-alive connection on the calling thread**.
//!
//! One connection means exactly one thread is runnable at any instant
//! (client → proxy reactor → dispatch worker → origin reactor → back),
//! so a shared two-core box cannot reorder anything: the proxy's
//! counters are deterministic (`tests/liveserve_differential.rs`
//! guarantees counter-exactness at 1 thread × 1 shard) and the timings
//! do not depend on how many cores happen to be free.
//!
//! The stack is spawned the way `liveserve::LiveStack::spawn` spawns it
//! — same configs, same defaults (1 shard, 1 reactor thread, 4 dispatch
//! threads) — but origin and proxy separately, so the traced run can
//! tell the two halves' threads apart.

use std::collections::BTreeSet;
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use httpsim::{Request, Status};
use liveserve::{
    DelaySource, HttpConn, LiveClock, LiveOrigin, LivePolicy, LiveProxy, OriginConfig, ProbeHandle,
    ProxyConfig, StoreKind,
};
use simcore::SimTime;
use webcache::live::live_policy;
use webcache::workload::{LifetimeModel, PopularityModel, WorkloadKnobs};
use webcache::{generate_synthetic, Experiment, ProtocolSpec, SimConfig, Workload, WorrellConfig};

use super::{
    assign_files, footprint, Cell, Checks, Counts, Epoch, GroupCosts, Instruments, Sizes, Spec,
    World, POPULATION_SEED,
};
use crate::reference::ReferenceKind;
use crate::sys;

/// `live-hit`: the proxy fast path.
pub const LIVE_HIT: Spec = Spec {
    name: "live-hit",
    live: true,
    why: "2 000 files of 1-16 KiB, Zipf(1.0), 5 % volatile, TTL 500 h, unbounded store, 68 000 requests/epoch, >= 98 % fresh hits: the proxy fast path does everything, upstream is idle.",
    reference: ReferenceKind::Relay,
    nominal_ref_s: RELAY_NOMINAL_S,
    build: |seed, sizes, ins| build(&HIT, seed, sizes, ins),
};

/// `live-validate`: the paper's poll-every-time extreme.
pub const LIVE_VALIDATE: Spec = Spec {
    name: "live-validate",
    live: true,
    why: "The paper run's 2 085 flat-lifetime files, TTL 0, unbounded store, 40 000 requests/epoch, one If-Modified-Since per cached request: upstream pool, origin exchange, conditional path.",
    reference: ReferenceKind::Relay,
    nominal_ref_s: RELAY_NOMINAL_S,
    build: |seed, sizes, ins| build(&VALIDATE, seed, sizes, ins),
};

/// `live-inval`: writes beside reads.
pub const LIVE_INVAL: Spec = Spec {
    name: "live-inval",
    live: true,
    why: "2 085 files, lifetimes cut to 0.5-70 h, Invalidation, LRU(footprint / 2), 28 000 requests/epoch: INVALIDATE/ACK publishing, full fetches + SUBSCRIBE, evictions + UNSUBSCRIBE.",
    reference: ReferenceKind::Relay,
    nominal_ref_s: RELAY_NOMINAL_S,
    build: |seed, sizes, ins| build(&INVAL, seed, sizes, ins),
};

/// Wall time of one relay slice between a live workload's cells at the
/// reference box's usual speed.
const RELAY_NOMINAL_S: f64 = 0.0023;

/// Body sizes of every live workload (and of `sim-evict`): the paper
/// run's bounded Pareto(1.3), cut to 1-16 KiB from 256 B-1 MB. With the
/// 1 MB tail a few files hold most of a population's bytes, so an LRU
/// sized in bytes held a different share of the *files* for every seed
/// (`hit_pct` on `live-inval` moved 12 % between seeds), and on
/// `live-hit` the size of the one file at Zipf rank 1 moved the median
/// latency.
pub const BODY_MIN: f64 = 1_024.0;
/// See [`BODY_MIN`].
pub const BODY_MAX: f64 = 16_384.0;

/// What distinguishes one live workload from another.
struct Def {
    policy: ProtocolSpec,
    /// `Some(d)`: an LRU store of `footprint / d` bytes; `None`: the
    /// unbounded store.
    lru_divisor: Option<u64>,
    /// Requests per epoch at full size.
    per_epoch: usize,
    /// The generator configuration for a stream of `requests` requests.
    config: fn(requests: usize) -> WorrellConfig,
    /// The proxy's counters must equal the optimized simulator's on the
    /// same workload, field by field.
    sim_exact: bool,
    /// The mechanism never serves stale data: every body must be the
    /// origin's live version, and the stale-hit count must be zero.
    never_stale: bool,
}

const HIT: Def = Def {
    policy: ProtocolSpec::Ttl(500),
    lru_divisor: None,
    per_epoch: 68_000,
    config: |requests| WorrellConfig {
        files: 2_000,
        requests,
        size_min: BODY_MIN,
        size_max: BODY_MAX,
        knobs: WorkloadKnobs {
            lifetimes: LifetimeModel::Bimodal {
                volatile_fraction: 0.05,
                min_hours: 2.0,
                max_hours: 48.0,
            },
            // Popular files are the stable ones (the Bestavros rule):
            // the volatile 5 % sit in the Zipf tail, so the stale share
            // does not hinge on whether rank 1 happens to be volatile.
            popularity: PopularityModel::Zipf {
                exponent: 1.0,
                correlate_stability: true,
            },
        },
        ..WorrellConfig::paper_run()
    },
    sim_exact: true,
    never_stale: false,
};

const VALIDATE: Def = Def {
    policy: ProtocolSpec::Ttl(0),
    lru_divisor: None,
    per_epoch: 40_000,
    config: |requests| WorrellConfig {
        requests,
        size_min: BODY_MIN,
        size_max: BODY_MAX,
        ..WorrellConfig::paper_run()
    },
    sim_exact: true,
    never_stale: true,
};

const INVAL: Def = Def {
    policy: ProtocolSpec::Invalidation,
    lru_divisor: Some(2),
    per_epoch: 28_000,
    config: |requests| WorrellConfig {
        requests,
        size_min: BODY_MIN,
        size_max: BODY_MAX,
        knobs: WorkloadKnobs {
            lifetimes: LifetimeModel::Flat {
                min_hours: 0.5,
                max_hours: 70.0,
            },
            popularity: PopularityModel::Uniform,
        },
        ..WorrellConfig::paper_run()
    },
    sim_exact: false,
    never_stale: true,
};

/// The thread ids of this process.
fn tids() -> BTreeSet<u32> {
    sys::thread_costs()
        .into_iter()
        .map(|(tid, _)| tid)
        .collect()
}

/// Which threads belong to which half of the stack (traced runs only).
#[derive(Debug, Default)]
struct Groups {
    origin: BTreeSet<u32>,
    proxy: BTreeSet<u32>,
    client: Option<u32>,
}

struct LiveWorld {
    def: &'static Def,
    workload: Workload,
    store: StoreKind,
    per_epoch: usize,
    /// Requests per cell.
    per_cell: usize,
    // Dropped in this order when a spare set-up is discarded: the
    // client first, then the proxy, then the origin it depends on.
    conn: HttpConn,
    proxy: LiveProxy,
    origin: LiveOrigin,
    /// Instants of every modification the origin will publish, sorted.
    modifications: Vec<SimTime>,
    groups: Groups,
    responses: u64,
    failed: u64,
    bad_length: u64,
    bad_body: u64,
}

/// Spawn a loopback origin and a caching proxy in front of it, sharing
/// one virtual clock that starts at the workload's window start — what
/// `liveserve::LiveStack::spawn` does, with `origin_up` called between
/// the two halves.
pub fn spawn_stack(
    workload: &Workload,
    policy: LivePolicy,
    store: StoreKind,
    probe: &ProbeHandle,
    origin_up: impl FnOnce(),
) -> io::Result<(LiveOrigin, LiveProxy)> {
    let clock = LiveClock::virtual_at(workload.start);
    let mut origin_config = OriginConfig::new(Arc::clone(&workload.population), clock.clone());
    origin_config.classes = workload.classes.clone();
    origin_config.class_expires = workload.class_expires.clone();
    origin_config.window_start = workload.start;
    origin_config.window_end = workload.end;
    origin_config.probe = probe.clone();
    let origin = LiveOrigin::spawn(origin_config)?;
    origin_up();

    let mut proxy_config =
        ProxyConfig::new(origin.data_addr(), origin.control_addr(), policy, clock);
    proxy_config.store = store;
    proxy_config.ground_truth = Some(Arc::clone(&workload.population));
    proxy_config.classes = workload.classes.clone();
    // Price delays with the simulator's link model, as
    // `Experiment::run_live` does, so the counters stay comparable.
    proxy_config.delay = DelaySource::Modeled(SimConfig::optimized().link);
    proxy_config.probe = probe.clone();
    let proxy = LiveProxy::spawn(proxy_config)?;
    Ok((origin, proxy))
}

fn build(
    def: &'static Def,
    seed: u64,
    sizes: &Sizes,
    ins: &mut Instruments,
) -> io::Result<Box<dyn World>> {
    let (per_epoch, per_cell) = if sizes.smoke {
        (Sizes::SMOKE_REQUESTS, Sizes::CELL_REQUESTS / 4)
    } else {
        (def.per_epoch, Sizes::CELL_REQUESTS)
    };
    // The warm-up epoch plus the measured ones, generated as one stream.
    let config = (def.config)(per_epoch * (sizes.epochs + 1));
    let workload = ins.tracer.span("generate", || {
        let mut workload = generate_synthetic(&config, POPULATION_SEED);
        assign_files(&mut workload, seed);
        workload
    });
    workload
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;

    let store = match def.lru_divisor {
        None => StoreKind::Unbounded,
        Some(divisor) => StoreKind::Lru((footprint(&workload) / divisor).max(1)),
    };
    let policy = live_policy(def.policy).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::Unsupported,
            format!("no live implementation for {}", def.policy.label()),
        )
    })?;
    let probe = ins.probe_handle();
    let traced = ins.tracer.is_on();

    let mut groups = Groups::default();
    let before = if traced { tids() } else { BTreeSet::new() };
    let (origin, proxy) = ins.tracer.span("spawn", || {
        spawn_stack(&workload, policy, store, &probe, || {
            if traced {
                groups.origin = &tids() - &before;
            }
        })
    })?;
    if traced {
        groups.proxy = &(&tids() - &before) - &groups.origin;
        groups.client = sys::current_tid();
    }
    let conn = ins.tracer.span("connect", || {
        HttpConn::new(TcpStream::connect(proxy.addr())?)
    })?;

    let mut modifications: Vec<SimTime> = workload
        .population
        .all_modifications()
        .into_iter()
        .map(|(t, _)| t)
        .filter(|t| *t >= workload.start && *t <= workload.end)
        .collect();
    modifications.sort_unstable();

    Ok(Box::new(LiveWorld {
        def,
        workload,
        store,
        per_epoch,
        per_cell,
        origin,
        proxy,
        conn,
        modifications,
        groups,
        responses: 0,
        failed: 0,
        bad_length: 0,
        bad_body: 0,
    }))
}

impl LiveWorld {
    /// The virtual instant epoch `index` ends at (its last request's).
    fn epoch_end(&self, index: usize) -> SimTime {
        let last = ((index + 1) * self.per_epoch).min(self.workload.requests.len());
        match last.checked_sub(1) {
            Some(i) => self.workload.requests[i].0,
            None => self.workload.start,
        }
    }
}

impl World for LiveWorld {
    fn epoch(&mut self, index: usize, ins: &mut Instruments) -> io::Result<Epoch> {
        let first = index * self.per_epoch;
        let slice = &self.workload.requests[first..first + self.per_epoch];
        let population = &self.workload.population;
        let tracer = &mut ins.tracer;
        let reference = &mut ins.reference;
        let mut lat_ns = Vec::with_capacity(slice.len());
        let mut cells = Vec::with_capacity(slice.len().div_ceil(self.per_cell));

        let mut ref_before = reference.slice()?;
        for (c, chunk) in slice.chunks(self.per_cell).enumerate() {
            let cell_started = Instant::now();
            for (i, &(at, file)) in chunk.iter().enumerate() {
                tracer.enter("request", Some((first + c * self.per_cell + i) as u32));
                // Publish (and wait out) every modification due by now:
                // part of the wall time, not of the request's latency.
                tracer.span("advance_to", || self.origin.advance_to(at));
                let record = population.get(file);
                let request = Request::get(record.path.clone());

                let sent = Instant::now();
                tracer.span("write_request", || self.conn.write_request(&request))?;
                let (response, body) =
                    tracer.span("read_response", || self.conn.read_response())?;
                lat_ns.push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                tracer.exit();

                self.responses += 1;
                if response.status != Status::Ok {
                    self.failed += 1;
                    continue;
                }
                if response.content_length != Some(body.len() as u64) {
                    self.bad_length += 1;
                }
                if self.def.never_stale
                    && record.version_at(at).map(|v| v.size) != Some(body.len() as u64)
                {
                    self.bad_body += 1;
                }
            }
            let wall_s = cell_started.elapsed().as_secs_f64();
            let ref_after = reference.slice()?;
            cells.push(Cell {
                wall_s,
                ref_s: (ref_before + ref_after) / 2.0,
                samples: chunk.len(),
            });
            ref_before = ref_after;
        }
        Ok(Epoch {
            requests: slice.len() as u64,
            cells,
            lat_ns,
        })
    }

    fn group_costs(&self) -> GroupCosts {
        let costs = sys::thread_costs();
        GroupCosts {
            proxy: sys::sum_costs(&costs, |tid| self.groups.proxy.contains(&tid)),
            origin: sys::sum_costs(&costs, |tid| self.groups.origin.contains(&tid)),
            client: sys::sum_costs(&costs, |tid| self.groups.client == Some(tid)),
        }
    }

    fn modifications_published(&self, from: usize, to: usize) -> u64 {
        let after = match from.checked_sub(1) {
            Some(prev) => self.epoch_end(prev),
            None => self.workload.start,
        };
        let upto = self.epoch_end(to.saturating_sub(1));
        let lo = self.modifications.partition_point(|t| *t <= after);
        let hi = self.modifications.partition_point(|t| *t <= upto);
        hi.saturating_sub(lo) as u64
    }

    fn finish(self: Box<Self>, checks: &mut Checks) -> io::Result<Counts> {
        let LiveWorld {
            def,
            workload,
            store,
            origin,
            proxy,
            conn,
            responses,
            failed,
            bad_length,
            bad_body,
            ..
        } = *self;
        // Trailing modifications inside the window still count — the
        // simulator schedules them as events.
        origin.advance_to(workload.end);
        drop(conn);
        let snapshot = proxy.shutdown();
        let server = origin.shutdown();

        let requests = workload.request_count() as u64;
        checks.equal("responses read", &responses, &requests);
        checks.equal("responses other than 200", &failed, &0);
        checks.tally("body length = Content-Length", responses, bad_length);
        checks.equal(
            "fresh + stale + misses = requests",
            &snapshot.cache.requests(),
            &requests,
        );
        if def.never_stale {
            checks.tally("body is the origin's live version", responses, bad_body);
            checks.equal("stale hits", &snapshot.cache.stale_hits, &0);
        }
        if def.policy.uses_invalidation() {
            checks.equal(
                "every INVALIDATE sent was delivered and ACKed",
                &snapshot.invalidations_delivered,
                &server.invalidations_sent,
            );
        }
        if def.sim_exact {
            debug_assert_eq!(store, StoreKind::Unbounded);
            let sim = Experiment::new(&workload)
                .protocol(def.policy)
                .config(SimConfig::optimized().preload(false))
                .run()
                .result;
            checks.equal("CacheStats vs simulator", &snapshot.cache, &sim.cache);
            checks.equal("ServerLoad vs simulator", &server, &sim.server);
            checks.equal(
                "summed staleness age vs simulator",
                &snapshot.stale_age_total,
                &sim.stale_age_total,
            );
            // `message_bytes` differs by construction: the simulator
            // charges the paper's 43-byte constant, the proxy counts
            // wire bytes.
            checks.equal(
                "control messages vs simulator",
                &snapshot.traffic.messages,
                &sim.traffic.messages,
            );
            checks.equal(
                "file transfers vs simulator",
                &snapshot.traffic.file_transfers,
                &sim.traffic.file_transfers,
            );
            checks.equal(
                "file bytes vs simulator",
                &snapshot.traffic.file_bytes,
                &sim.traffic.file_bytes,
            );
        }

        Ok(Counts {
            requests,
            failed,
            cache: snapshot.cache,
            traffic: snapshot.traffic,
            server,
            evictions: snapshot.evictions,
            invalidations_delivered: snapshot.invalidations_delivered,
            upstream_dials: snapshot.upstream_dials,
            upstream_reuses: snapshot.upstream_reuses,
            upstream_saturations: snapshot.upstream_saturations,
        })
    }
}
