//! The five workloads and what every one of them reports.
//!
//! A workload is a [`Spec`] (name, reason, reference, builder) whose
//! builder turns a seed into a [`World`]: the generated inputs plus
//! whatever has to be running to replay them. The rep loop in `crate::rep` then asks the
//! world for one untimed warm-up [`Epoch`] and `E` measured ones of
//! equal, fixed work, and finally for its exact [`Counts`].

pub mod live;
pub mod sim;

use std::io;
use std::sync::{Arc, Mutex};

use simcore::{CacheStats, ServerLoad, SimTime, TrafficMeter};
use simstats::DetRng;
use wcc_obs::{MetricsProbe, ObsEvent, Probe, ProbeHandle};

use crate::reference::{Reference, ReferenceKind};
use crate::stats::nearest_rank;
use crate::trace::Tracer;

/// How much work a rep does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Measured epochs (a warm-up epoch of the same size precedes them).
    pub epochs: usize,
    /// Shrink every epoch to a few thousand requests (CI smoke; the
    /// numbers mean nothing, the checks still do).
    pub smoke: bool,
}

impl Sizes {
    /// Epochs a full rep measures unless told otherwise: the issue's 16
    /// shrunk, for all workloads alike, to what the driver's total time
    /// cap leaves room for (never below 12).
    pub const DEFAULT_EPOCHS: usize = 12;
    /// Requests per epoch of a live workload in a smoke run.
    pub const SMOKE_REQUESTS: usize = 2_000;
    /// Requests per cell of a live epoch (a quarter of it in a smoke
    /// run): about 30-80 ms of work between two reference slices.
    pub const CELL_REQUESTS: usize = 2_000;
    /// Epochs a smoke run measures.
    pub const SMOKE_EPOCHS: usize = 2;

    /// A full-size rep of `epochs` measured epochs.
    pub fn full(epochs: usize) -> Sizes {
        Sizes {
            epochs,
            smoke: false,
        }
    }

    /// The CI smoke size.
    pub fn smoke() -> Sizes {
        Sizes {
            epochs: Sizes::SMOKE_EPOCHS,
            smoke: true,
        }
    }
}

/// Nearest-rank latency percentiles of a set of samples, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
}

impl Percentiles {
    /// Sort `samples` in place and read the percentiles off.
    pub fn of(samples: &mut [f64]) -> Percentiles {
        samples.sort_unstable_by(f64::total_cmp);
        Percentiles {
            p50_us: nearest_rank(samples, 0.50),
            p99_us: nearest_rank(samples, 0.99),
            p999_us: nearest_rank(samples, 0.999),
        }
    }
}

/// One cell of an epoch: a fixed slice of its work — one simulation
/// leg, or one chunk of consecutive live requests. Cell `j` is the same
/// work in every epoch of a simulation and the same kind and amount of
/// work in every epoch of a live workload, which is what lets the rep
/// take a median *per cell* across epochs. A slice of reference work
/// runs before and after every cell (`crate::reference`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cell {
    /// Wall time of the cell, seconds.
    pub wall_s: f64,
    /// Wall time of the reference work next to the cell, seconds: the
    /// mean of the slice before it and the slice after it.
    pub ref_s: f64,
    /// How many of the epoch's latency samples the cell took (they
    /// follow the previous cell's in [`Epoch::lat_ns`]).
    pub samples: usize,
}

/// What one epoch measured.
#[derive(Debug, Clone, Default)]
pub struct Epoch {
    /// Requests completed (live: HTTP requests; sim: simulated ones).
    pub requests: u64,
    /// The epoch cut into cells, in execution order. The epoch's wall
    /// time is the sum of theirs; the reference slices between them are
    /// not part of it.
    pub cells: Vec<Cell>,
    /// One latency sample per unit a caller waits for, in execution
    /// order, nanoseconds: a request on a live workload (client
    /// `write_request` → full response read), a leg on a simulation.
    pub lat_ns: Vec<u64>,
}

impl Epoch {
    /// Wall time of the epoch's cells, seconds.
    pub fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }
}

/// Exact counts over a whole replay (warm-up included: the live proxy
/// freezes its counters only at shutdown, and the simulator cross-check
/// needs the whole replay anyway). They repeat exactly for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Requests the counts cover.
    pub requests: u64,
    /// Requests that did not complete with a `200`.
    pub failed: u64,
    /// Hit / miss / validation classification.
    pub cache: CacheStats,
    /// Proxy↔origin traffic.
    pub traffic: TrafficMeter,
    /// Origin-side operations.
    pub server: ServerLoad,
    /// Store evictions.
    pub evictions: u64,
    /// `INVALIDATE` notices delivered to the proxy.
    pub invalidations_delivered: u64,
    /// Upstream connections dialled.
    pub upstream_dials: u64,
    /// Upstream exchanges on a pooled connection.
    pub upstream_reuses: u64,
    /// Upstream checkouts refused at the waiter cap.
    pub upstream_saturations: u64,
}

impl Counts {
    fn per_request(&self, n: u64) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            n as f64 / self.requests as f64
        }
    }

    /// (fresh hits + stale hits) / requests, percent — as
    /// `LoadReport::hit_rate` counts them (a `304` is a hit).
    pub fn hit_pct(&self) -> f64 {
        100.0 * self.per_request(self.cache.fresh_hits + self.cache.stale_hits)
    }

    /// Stale hits / requests, percent — the paper's stale-hit rate.
    pub fn stale_pct(&self) -> f64 {
        100.0 * self.per_request(self.cache.stale_hits)
    }

    /// Proxy↔origin message + file bytes per request, KiB — the paper's
    /// bandwidth.
    pub fn upstream_kb_per_req(&self) -> f64 {
        self.per_request(self.traffic.total_bytes()) / 1024.0
    }

    /// Origin document requests + validation queries + invalidations
    /// sent, per request — the paper's server load.
    pub fn origin_ops_per_req(&self) -> f64 {
        self.per_request(self.server.total_operations())
    }

    /// Evictions per request.
    pub fn evictions_per_req(&self) -> f64 {
        self.per_request(self.evictions)
    }

    /// Fold another leg's counts in (simulation epochs sum their legs).
    pub fn merge(&mut self, other: &Counts) {
        self.requests += other.requests;
        self.failed += other.failed;
        self.cache.merge(&other.cache);
        self.traffic.merge(&other.traffic);
        self.server.merge(&other.server);
        self.evictions += other.evictions;
        self.invalidations_delivered += other.invalidations_delivered;
        self.upstream_dials += other.upstream_dials;
        self.upstream_reuses += other.upstream_reuses;
        self.upstream_saturations += other.upstream_saturations;
    }
}

/// Correctness checks a rep ran: how many, and which failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub run: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `detail` is only rendered on failure.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(detail());
        }
    }

    /// Record an equality check, naming both sides on failure.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &T, want: &T) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }

    /// Fold in `n` checks that were counted rather than listed one by
    /// one (the per-response checks), of which `bad` failed.
    pub fn tally(&mut self, what: &str, n: u64, bad: u64) {
        self.run += n;
        if bad > 0 {
            self.failures.push(format!("{what}: {bad} of {n} failed"));
        }
    }
}

/// A `wcc_obs::MetricsProbe` the harness can read back after handing it
/// to the live stack through a [`ProbeHandle`] (which offers no way to
/// recover a caller-supplied probe).
#[derive(Debug, Clone, Default)]
pub struct SharedMetrics(Arc<Mutex<MetricsProbe>>);

impl SharedMetrics {
    /// A handle the live stack records through.
    pub fn handle(&self) -> ProbeHandle {
        ProbeHandle::new(Box::new(self.clone()))
    }

    /// Run `f` with the probe (to attach it to a simulation, or to read
    /// its registry).
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsProbe) -> R) -> R {
        f(&mut self.0.lock().expect("a probe recorder panicked"))
    }
}

impl Probe for SharedMetrics {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
        self.with(|p| p.record(at, event));
    }
}

/// What a world is built and run with: the span recorder, the metrics
/// probe of a traced run (`None` on the untraced runs every end-to-end
/// number comes from), and the workload's reference work.
#[derive(Debug)]
pub struct Instruments {
    /// Harness-side spans.
    pub tracer: Tracer,
    /// The traced run's `wcc-obs` probe.
    pub metrics: Option<SharedMetrics>,
    /// The reference work a slice of which runs next to every cell.
    pub reference: Reference,
}

impl Instruments {
    /// Nothing attached: the configuration end-to-end numbers use.
    pub fn untraced(spec: &Spec) -> io::Result<Instruments> {
        Ok(Instruments {
            tracer: Tracer::off(),
            metrics: None,
            reference: Reference::start(spec.reference)?,
        })
    }

    /// Spans on and a metrics probe attached.
    pub fn traced(spec: &Spec) -> io::Result<Instruments> {
        Ok(Instruments {
            tracer: Tracer::on(),
            metrics: Some(SharedMetrics::default()),
            reference: Reference::start(spec.reference)?,
        })
    }

    /// The probe handle to give the live stack.
    pub fn probe_handle(&self) -> ProbeHandle {
        self.metrics
            .as_ref()
            .map_or_else(ProbeHandle::none, SharedMetrics::handle)
    }
}

/// CPU cost of the live stack's thread groups, sampled from `/proc` by
/// the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCosts {
    /// Threads the proxy spawned (plus the origin's per-peer control
    /// reader, which only starts when the proxy connects).
    pub proxy: crate::sys::ThreadCost,
    /// Threads the origin spawned.
    pub origin: crate::sys::ThreadCost,
    /// The load-generating main thread.
    pub client: crate::sys::ThreadCost,
}

/// A built workload, ready to replay.
pub trait World {
    /// Run epoch `index` (0 is the warm-up) and say what it measured.
    fn epoch(&mut self, index: usize, ins: &mut Instruments) -> io::Result<Epoch>;

    /// Cumulative CPU cost of the stack's thread groups so far (zeros
    /// for a simulation, which has no stack).
    fn group_costs(&self) -> GroupCosts {
        GroupCosts::default()
    }

    /// Modifications the origin published during epochs `from..to`
    /// (zero for a simulation).
    fn modifications_published(&self, _from: usize, _to: usize) -> u64 {
        0
    }

    /// Tear down, run the end-of-replay checks, and return the counts.
    fn finish(self: Box<Self>, checks: &mut Checks) -> io::Result<Counts>;
}

/// A workload's builder: generate the inputs from `seed` and stand up
/// whatever replays them. This is what `setup_s` times.
pub type Build = fn(seed: u64, sizes: &Sizes, ins: &mut Instruments) -> io::Result<Box<dyn World>>;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Whether it drives the live TCP stack (else the simulator).
    pub live: bool,
    /// One line: what it stresses, what it bypasses, and its frozen
    /// sizes.
    pub why: &'static str,
    /// The reference its timings are calibrated by: the same kind of
    /// work over a working set of about its size.
    pub reference: ReferenceKind,
    /// Wall time of one slice of that reference, run between this
    /// workload's cells, at the reference box's usual speed, seconds.
    pub nominal_ref_s: f64,
    /// The builder.
    pub build: Build,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Spec; 5] = [
    sim::SIM_SWEEP,
    sim::SIM_EVICT,
    live::LIVE_HIT,
    live::LIVE_VALIDATE,
    live::LIVE_INVAL,
];

/// The seed every workload's file population, modification history and
/// arrival instants are generated from (the repo's own `Scale` default).
/// They are part of a workload's definition, like its sizes: `--seed`
/// decides which arrival asks for which file ([`assign_files`]). With
/// the population drawn afresh for every seed the paper's three counts
/// moved by up to 9 % between seeds (a few Pareto-tail files hold most
/// of the bytes), so their bounds could not tell a doubling of stale
/// hits from a new seed.
pub const POPULATION_SEED: u64 = 1996;

/// Permute the file column of `workload`'s request stream by `seed`
/// (Fisher–Yates), leaving the arrival instants where they are.
///
/// Every generator the benchmark uses (`generate_synthetic`,
/// `generate_campus_trace`) draws a request's file independently of its
/// instant, so a permuted stream is as likely a draw as the original:
/// the same files are asked for as often, in another order — which
/// request finds its file cached, fresh or just modified is the seed's.
pub fn assign_files(workload: &mut webcache::Workload, seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed).derive_stream("wcc-benchmark/assign-files");
    let requests = &mut workload.requests;
    for i in (1..requests.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        let (a, b) = (requests[i].1, requests[j].1);
        requests[i].1 = b;
        requests[j].1 = a;
    }
}

/// A workload's footprint: the bytes an unbounded cache would hold once
/// every file was fetched, taken at the window's start. Bounded stores
/// are sized as a fraction of it.
pub fn footprint(workload: &webcache::Workload) -> u64 {
    workload
        .population
        .iter()
        .filter_map(|(_, record)| record.version_at(workload.start))
        .map(|v| v.size)
        .sum()
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache::{generate_synthetic, WorrellConfig};

    #[test]
    fn assign_files_permutes_the_file_column_and_nothing_else() {
        let generated = generate_synthetic(&WorrellConfig::scaled(50, 2_000), POPULATION_SEED);
        let assigned = |seed| {
            let mut w = generated.clone();
            assign_files(&mut w, seed);
            w
        };
        let (a, a_again, b) = (assigned(7), assigned(7), assigned(8));
        assert_eq!(
            a.requests, a_again.requests,
            "the same seed, the same inputs"
        );
        assert_ne!(a.requests, b.requests, "another seed, another order");
        assert_ne!(a.requests, generated.requests);
        let times = |w: &webcache::Workload| w.requests.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(times(&a), times(&generated), "arrival instants stay");
        let files = |w: &webcache::Workload| {
            let mut f: Vec<usize> = w.requests.iter().map(|r| r.1.index()).collect();
            f.sort_unstable();
            f
        };
        assert_eq!(
            files(&a),
            files(&generated),
            "every file is asked for as often"
        );
        assert_eq!(a.validate(), Ok(()));
    }
}
