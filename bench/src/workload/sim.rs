//! The two simulator workloads.
//!
//! Both are lists of *legs* — one `Experiment::run` each — replayed in
//! order on the calling thread. An epoch is one pass over every leg, so
//! every epoch does identical work and must produce an identical
//! result digest. The latency sample of a simulation is the wall time
//! of one leg: that is what a caller of the simulator waits for.

use std::io;
use std::time::Instant;

use webcache::experiment::Store;
use webcache::experiments::base::run_base_with;
use webcache::experiments::optimized::run_optimized_with;
use webcache::experiments::traced::run_traced_with;
use webcache::experiments::{Scale, SimReport};
use webcache::workload::{LifetimeModel, PopularityModel, WorkloadKnobs};
use webcache::{
    generate_synthetic, Experiment, ProtocolSpec, RunOutcome, SimConfig, SweepRunner, Workload,
    WorrellConfig,
};
use webtrace::campus::{generate_campus_trace, CampusProfile};

use super::live::{BODY_MAX, BODY_MIN};
use super::{
    assign_files, footprint, Cell, Checks, Counts, Epoch, Instruments, Sizes, Spec, World,
    POPULATION_SEED,
};
use crate::reference::ReferenceKind;
use crate::stats::Fnv1a;

/// `sim-sweep`: the paper's Figures 2–8.
pub const SIM_SWEEP: Spec = Spec {
    name: "sim-sweep",
    live: false,
    why: "The paper's Figures 2-8 sweep as the harness's 115 legs (5.0 M simulated requests, unbounded store), tied to the library's sweep drivers by a digest check: event queue, sim loop, decide, version_at.",
    reference: ReferenceKind::MiniSim { entries: 8_192 },
    nominal_ref_s: 0.0015,
    build: build_sweep,
};

/// `sim-evict`: four bounded stores under a working set 8× their size.
pub const SIM_EVICT: Spec = Spec {
    name: "sim-evict",
    live: false,
    why: "Zipf(1.0), 20 000 files of 1-16 KiB, 400 000 requests, Alex 20 %, through LRU/FIFO/GDS/LFU at footprint / 8: store insert, evict and score do most of the work.",
    reference: ReferenceKind::MiniSim { entries: 32_768 },
    nominal_ref_s: 0.0034,
    build: build_evict,
};

/// Files of the `sim-evict` population.
const EVICT_FILES: usize = 20_000;
/// Requests of the `sim-evict` stream (each of the four legs replays
/// all of them).
const EVICT_REQUESTS: usize = 400_000;
/// The cache holds one part in this many of the population's bytes.
const EVICT_CAPACITY_DIVISOR: u64 = 8;
/// The Alex update threshold `sim-evict` runs under, percent.
const EVICT_ALEX_PCT: u32 = 20;

/// One simulation run of an epoch.
#[derive(Debug, Clone, Copy)]
struct Leg {
    /// Index into [`SimWorld::workloads`].
    workload: usize,
    spec: ProtocolSpec,
    config: SimConfig,
    store: Store,
}

impl Leg {
    fn experiment<'a>(&self, workload: &'a Workload) -> Experiment<'a> {
        Experiment::new(workload)
            .protocol(self.spec)
            .config(self.config)
            .store(self.store)
    }
}

struct SimWorld {
    /// The request streams the epochs replay: files assigned by the seed.
    workloads: Vec<Workload>,
    /// `sim-sweep` only: the streams as the generators emitted them,
    /// which is what the library's own sweep drivers replay. The warm-up
    /// runs the library's sweep and the harness's legs over these and
    /// demands the same digest — the tie between the legs measured here
    /// and `run_base_with` / `run_optimized_with` / `run_traced_with`.
    library: Option<(Scale, Vec<Workload>)>,
    legs: Vec<Leg>,
    /// Digest of the warm-up epoch's results.
    reference_digest: Option<u64>,
    /// `(library sweep, harness legs)` digests over the streams as
    /// generated.
    library_digests: Option<(u64, u64)>,
    /// Digest of every measured epoch's results.
    digests: Vec<u64>,
    /// Counts of the last pass (every pass yields the same).
    pass_counts: Counts,
}

fn digest_outcome(h: &mut Fnv1a, o: &RunOutcome) {
    let r = &o.result;
    for v in [
        r.traffic.messages,
        r.traffic.message_bytes,
        r.traffic.file_transfers,
        r.traffic.file_bytes,
        r.cache.fresh_hits,
        r.cache.stale_hits,
        r.cache.misses,
        r.cache.validations_not_modified,
        r.cache.validations_modified,
        r.server.document_requests,
        r.server.validation_queries,
        r.server.invalidations_sent,
        r.stale_age_total.as_secs(),
        o.evictions,
    ] {
        h.u64(v);
    }
}

/// Digest a library report in leg order: Alex points, TTL points, then
/// the invalidation reference.
fn digest_report(h: &mut Fnv1a, report: &SimReport) {
    let points = report.alex.points.iter().chain(&report.ttl.points);
    for result in points.map(|(_, r)| r).chain([&report.invalidation]) {
        digest_outcome(
            h,
            &RunOutcome {
                result: result.clone(),
                evictions: 0,
            },
        );
    }
}

/// One pass over every leg of `legs` on `workloads`: the epoch, the
/// results' digest, and the summed counts.
fn pass(
    legs: &[Leg],
    workloads: &[Workload],
    ins: &mut Instruments,
) -> io::Result<(Epoch, u64, Counts)> {
    let mut epoch = Epoch::default();
    let mut counts = Counts::default();
    let mut digest = Fnv1a::default();
    let mut ref_before = ins.reference.slice()?;
    for (i, leg) in legs.iter().enumerate() {
        let workload = &workloads[leg.workload];
        ins.tracer.enter("leg", Some(i as u32));
        let leg_started = Instant::now();
        let outcome = match &ins.metrics {
            Some(metrics) => metrics.with(|probe| leg.experiment(workload).probe(probe).run()),
            None => leg.experiment(workload).run(),
        };
        let leg_ns = u64::try_from(leg_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ins.tracer.exit();
        let ref_after = ins.reference.slice()?;
        epoch.cells.push(Cell {
            wall_s: leg_ns as f64 / 1e9,
            ref_s: (ref_before + ref_after) / 2.0,
            samples: 1,
        });
        epoch.lat_ns.push(leg_ns);
        ref_before = ref_after;
        epoch.requests += workload.request_count() as u64;
        digest_outcome(&mut digest, &outcome);
        counts.merge(&Counts {
            requests: workload.request_count() as u64,
            cache: outcome.result.cache,
            traffic: outcome.result.traffic,
            server: outcome.result.server,
            evictions: outcome.evictions,
            ..Counts::default()
        });
    }
    Ok((epoch, digest.finish(), counts))
}

impl World for SimWorld {
    fn epoch(&mut self, index: usize, ins: &mut Instruments) -> io::Result<Epoch> {
        if index == 0 {
            if let Some((scale, as_generated)) = &self.library {
                let runner = SweepRunner::sequential();
                let mut digest = Fnv1a::default();
                ins.tracer.enter("library_sweep", None);
                digest_report(&mut digest, &run_base_with(scale, &runner));
                digest_report(&mut digest, &run_optimized_with(scale, &runner));
                for report in &run_traced_with(scale, &runner).per_trace {
                    digest_report(&mut digest, report);
                }
                ins.tracer.exit();
                let (_, harness, _) = pass(&self.legs, as_generated, ins)?;
                self.library_digests = Some((digest.finish(), harness));
            }
        }
        let (epoch, digest, counts) = pass(&self.legs, &self.workloads, ins)?;
        if index == 0 {
            self.reference_digest = Some(digest);
        } else {
            self.digests.push(digest);
        }
        self.pass_counts = counts;
        Ok(epoch)
    }

    fn finish(self: Box<Self>, checks: &mut Checks) -> io::Result<Counts> {
        if let Some((library, harness)) = self.library_digests {
            checks.check(library == harness, || {
                format!(
                    "the harness's legs digest to {harness:#018x} on the streams as generated, \
                     the library's sweep to {library:#018x}"
                )
            });
        }
        let reference = self.reference_digest.unwrap_or_default();
        for (i, digest) in self.digests.iter().enumerate() {
            checks.check(*digest == reference, || {
                format!(
                    "epoch {}: result digest {digest:#018x} differs from the warm-up's {reference:#018x}",
                    i + 1
                )
            });
        }
        let c = &self.pass_counts;
        checks.equal(
            "fresh + stale + misses = requests",
            &c.cache.requests(),
            &c.requests,
        );
        Ok(self.pass_counts)
    }
}

fn io_invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn build_sweep(seed: u64, sizes: &Sizes, ins: &mut Instruments) -> io::Result<Box<dyn World>> {
    let scale = Scale {
        seed: POPULATION_SEED,
        ..if sizes.smoke {
            Scale::quick()
        } else {
            Scale::full()
        }
    };
    let mut workloads = Vec::with_capacity(4);
    ins.tracer.span("generate", || {
        workloads.push(generate_synthetic(&scale.worrell, scale.seed));
        for profile in CampusProfile::all() {
            let campus = generate_campus_trace(&profile, scale.seed);
            workloads
                .push(Workload::from_server_trace(&campus.trace).subsample(scale.trace_subsample));
        }
    });
    for workload in &workloads {
        workload.validate().map_err(io_invalid)?;
    }
    let as_generated = workloads.clone();
    ins.tracer.span("assign_files", || {
        for (i, workload) in workloads.iter_mut().enumerate() {
            assign_files(workload, seed.wrapping_add(i as u64));
        }
    });

    // The order `sweep_protocols` runs in: Alex thresholds, TTLs, then
    // the invalidation reference.
    let specs: Vec<ProtocolSpec> = scale
        .alex_thresholds
        .iter()
        .map(|&pct| ProtocolSpec::Alex(pct))
        .chain(scale.ttl_hours.iter().map(|&h| ProtocolSpec::Ttl(h)))
        .chain([ProtocolSpec::Invalidation])
        .collect();
    // Figures 2-3 and 4-5 on the synthetic workload, 6-8 on each trace.
    let passes = [
        (0, SimConfig::base()),
        (0, SimConfig::optimized()),
        (1, SimConfig::optimized()),
        (2, SimConfig::optimized()),
        (3, SimConfig::optimized()),
    ];
    let legs: Vec<Leg> = passes
        .iter()
        .flat_map(|&(workload, config)| {
            specs.iter().map(move |&spec| Leg {
                workload,
                spec,
                config,
                store: Store::Unbounded,
            })
        })
        .collect();
    Ok(Box::new(SimWorld {
        workloads,
        library: Some((scale, as_generated)),
        legs,
        reference_digest: None,
        library_digests: None,
        digests: Vec::new(),
        pass_counts: Counts::default(),
    }))
}

fn build_evict(seed: u64, sizes: &Sizes, ins: &mut Instruments) -> io::Result<Box<dyn World>> {
    let (files, requests) = if sizes.smoke {
        (EVICT_FILES / 20, Sizes::SMOKE_REQUESTS * 4)
    } else {
        (EVICT_FILES, EVICT_REQUESTS)
    };
    let config = WorrellConfig {
        files,
        requests,
        // A store sized in bytes should hold about the same share of
        // the files for every seed.
        size_min: BODY_MIN,
        size_max: BODY_MAX,
        knobs: WorkloadKnobs {
            lifetimes: LifetimeModel::Bimodal {
                volatile_fraction: 0.25,
                min_hours: 2.0,
                max_hours: 48.0,
            },
            popularity: PopularityModel::Zipf {
                exponent: 1.0,
                correlate_stability: false,
            },
        },
        ..WorrellConfig::paper_run()
    };
    let workload = ins.tracer.span("generate", || {
        let mut workload = generate_synthetic(&config, POPULATION_SEED);
        assign_files(&mut workload, seed);
        workload
    });
    workload.validate().map_err(io_invalid)?;

    let capacity = (footprint(&workload) / EVICT_CAPACITY_DIVISOR).max(1);
    let legs: Vec<Leg> = [
        Store::Lru(capacity),
        Store::Fifo(capacity),
        Store::Gds(capacity),
        Store::Lfu(capacity),
    ]
    .into_iter()
    .map(|store| Leg {
        workload: 0,
        spec: ProtocolSpec::Alex(EVICT_ALEX_PCT),
        config: SimConfig::optimized(),
        store,
    })
    .collect();
    Ok(Box::new(SimWorld {
        workloads: vec![workload],
        library: None,
        legs,
        reference_digest: None,
        library_digests: None,
        digests: Vec::new(),
        pass_counts: Counts::default(),
    }))
}
