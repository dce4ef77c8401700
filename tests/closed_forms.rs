//! Closed-form oracles for the bounded stores (ROADMAP 3(b)) and for a
//! fixed TTL's consistency counts (ROADMAP 18).
//!
//! The simulator's hit ratio, at the `sim-evict` setting, against the
//! approximations surveyed by Hasslinger et al. (arXiv 2308.02875) for a
//! cache under the independent reference model (IRM):
//!
//! * LRU — Che's approximation: file `i`, requested at rate `pᵢ` per
//!   request, is resident with probability `1 − e^(−pᵢT)`, where the
//!   characteristic time `T` solves `Σ sᵢ (1 − e^(−pᵢT)) = C`.
//! * FIFO — its Che-type form: `pᵢT / (1 + pᵢT)`, same constraint.
//! * LFU — the static top set: the most popular files, by rank, whose
//!   bytes fit in `C`, each resident with probability one.
//! * GDS has no closed form: its credit depends on the order of past
//!   requests and on the inflation the evictions raised, which no
//!   function of the rates alone captures. It is not checked here.
//!
//! The setting: 20 000 stable files with `sim-evict`'s 1–16 KiB bodies,
//! 400 000 requests whose files are drawn IRM from Zipf(1.0) through a
//! seeded rank → file permutation (so every file's rate is known), a
//! store of footprint / 8, and a TTL that never refetches inside the
//! window, so consistency does not interfere. The hit ratio is counted
//! after a warm-up quarter. The tolerances and seeds were fixed before
//! the first run (EXPERIMENTS.md "One request, one use"); a cell outside
//! them is a finding, not a seed to change.
//!
//! `FixedTtl(T)` with conditional retrieval, against its renewal form:
//! files requested IRM at known rates λᵢ and written as Poisson processes
//! at known rates μᵢ, an unbounded store and no preload. Each file's
//! cycle is T plus an Exp(λ) wait for the next request; it holds one
//! server operation, λT hits, λ(T − (1 − e^(−μT))/μ) stale hits, and a
//! body with probability 1 − e^(−μT)·λ/(λ + μ). The stale rate, server
//! operations and body bytes after a warm-up quarter are checked against
//! tolerances fixed before the first run (EXPERIMENTS.md "One log reader,
//! no test-only API").

use std::sync::Arc;

use wwwcache::originserver::FileRecord;
use wwwcache::simcore::{FileId, SimDuration, SimTime};
use wwwcache::simstats::{DetRng, ExponentialDist, Sampler, ZipfDist};
use wwwcache::wcc_obs::{ObsEvent, Probe, RequestOutcome};
use wwwcache::webcache::{
    generate_synthetic, Experiment, ExperimentStore, LifetimeModel, PopularityModel, ProtocolSpec,
    SimConfig, Workload, WorkloadKnobs, WorrellConfig,
};

const FILES: usize = 20_000;
const REQUESTS: usize = 400_000;
/// Requests before the hit ratio is counted.
const WARMUP: usize = 100_000;
const SEEDS: [u64; 3] = [1, 2, 3];
/// Longer than the 56-day window: a resident copy is always served.
const NEVER_REFETCH_HOURS: u64 = 100_000;
/// How far below and above its closed form a simulated hit ratio may
/// sit: Che and its FIFO form within two points either way; LFU learns
/// the static set from noisy counts, so mostly below it.
const CHE_TOLERANCE: (f64, f64) = (-0.02, 0.02);
const LFU_TOLERANCE: (f64, f64) = (-0.04, 0.01);

/// The hit ratio over the requests after [`WARMUP`].
#[derive(Default)]
struct Window {
    seen: usize,
    requests: u64,
    hits: u64,
}

impl Probe for Window {
    fn record(&mut self, _at: SimTime, event: ObsEvent) {
        if let ObsEvent::Request { outcome, .. } = event {
            self.seen += 1;
            if self.seen > WARMUP {
                self.requests += 1;
                if matches!(
                    outcome,
                    RequestOutcome::FreshHit | RequestOutcome::StaleHit { .. }
                ) {
                    self.hits += 1;
                }
            }
        }
    }
}

impl Window {
    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.requests as f64
    }
}

/// `(rate per request, size in bytes)` by popularity rank, most popular
/// first, and the store's capacity.
struct Model {
    ranks: Vec<(f64, f64)>,
    capacity: u64,
}

impl Model {
    /// The characteristic time, in requests: where the expected resident
    /// bytes `Σ sᵢ · resident(pᵢT)` reach the capacity, by bisection.
    fn characteristic_time(&self, resident: impl Fn(f64) -> f64) -> f64 {
        let capacity = self.capacity as f64;
        let occupancy =
            |t: f64| -> f64 { self.ranks.iter().map(|&(p, s)| s * resident(p * t)).sum() };
        let (mut lo, mut hi) = (0.0, 1.0);
        while occupancy(hi) < capacity {
            hi *= 2.0;
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if occupancy(mid) < capacity {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The hit ratio of a cache that holds file `i` with probability
    /// `resident(pᵢT)` at the characteristic time `T`.
    fn che_type(&self, resident: impl Fn(f64) -> f64 + Copy) -> f64 {
        let t = self.characteristic_time(resident);
        self.ranks.iter().map(|&(p, _)| p * resident(p * t)).sum()
    }

    /// The hit ratio of the static top set: the most popular files whose
    /// bytes fit in the capacity.
    fn static_top_set(&self) -> f64 {
        let mut bytes = 0.0;
        let mut hits = 0.0;
        for &(p, s) in &self.ranks {
            bytes += s;
            if bytes > self.capacity as f64 {
                break;
            }
            hits += p;
        }
        hits
    }
}

/// The `sim-evict` setting for `seed`, its request stream redrawn IRM
/// through a rank → file permutation the model knows.
fn setting(seed: u64) -> (Workload, Model) {
    let config = WorrellConfig {
        files: FILES,
        requests: REQUESTS,
        size_min: 1_024.0,
        size_max: 16_384.0,
        knobs: WorkloadKnobs {
            lifetimes: LifetimeModel::Bimodal {
                volatile_fraction: 0.0,
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
    let mut workload = generate_synthetic(&config, seed);
    let mut rng = DetRng::seed_from_u64(seed).derive_stream("closed-forms");
    let mut file_of_rank: Vec<usize> = (0..FILES).collect();
    for i in (1..FILES).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        file_of_rank.swap(i, j);
    }
    let zipf = ZipfDist::new(FILES, 1.0);
    for (_, file) in &mut workload.requests {
        *file = FileId::from_index(file_of_rank[zipf.sample(&mut rng)]);
    }

    let size = |file: usize| -> u64 {
        let version = workload
            .population
            .get(FileId::from_index(file))
            .version_at(workload.start);
        version.expect("every file exists from the start").size
    };
    let ranks = (0..FILES)
        .map(|rank| (zipf.pmf(rank), size(file_of_rank[rank]) as f64))
        .collect();
    let footprint: u64 = (0..FILES).map(size).sum();
    let model = Model {
        ranks,
        capacity: footprint / 8,
    };
    (workload, model)
}

/// The hit ratio after [`WARMUP`] of `workload` replayed through `store`.
fn simulate(workload: &Workload, store: ExperimentStore) -> f64 {
    let mut window = Window::default();
    let outcome = Experiment::new(workload)
        .protocol(ProtocolSpec::Ttl(NEVER_REFETCH_HOURS))
        .config(SimConfig::optimized().preload(false))
        .store(store)
        .probe(&mut window)
        .run();
    assert_eq!(window.seen, REQUESTS);
    let stale = outcome.result.cache.stale_hits;
    assert_eq!(stale, 0, "stable files are never stale");
    window.hit_ratio()
}

#[test]
fn simulated_hit_ratios_stay_within_the_closed_forms_tolerance() {
    let lru = |x: f64| 1.0 - (-x).exp();
    let fifo = |x: f64| x / (1.0 + x);
    let mut outside = Vec::new();
    println!("seed policy   sim    form   sim-form");
    for seed in SEEDS {
        let (workload, model) = setting(seed);
        let cap = model.capacity;
        let (lru_form, fifo_form) = (model.che_type(lru), model.che_type(fifo));
        let lfu_form = model.static_top_set();
        for (name, store, form, (below, above)) in [
            ("lru", ExperimentStore::Lru(cap), lru_form, CHE_TOLERANCE),
            ("fifo", ExperimentStore::Fifo(cap), fifo_form, CHE_TOLERANCE),
            ("lfu", ExperimentStore::Lfu(cap), lfu_form, LFU_TOLERANCE),
        ] {
            let sim = simulate(&workload, store);
            let within = (below..=above).contains(&(sim - form));
            let mark = if within { "" } else { "  OUTSIDE" };
            println!(
                "{seed:>4} {name:<5} {sim:.4} {form:.4} {:+.4}{mark}",
                sim - form
            );
            if !within {
                outside.push((seed, name, sim, form));
            }
        }
    }
    assert!(outside.is_empty(), "outside the tolerance: {outside:?}");
}

// The fixed-TTL setting: files, mean requests per run, run length in
// days, and the TTLs checked.
const TTL_FILES: usize = 1_000;
const TTL_REQUESTS: f64 = 400_000.0;
const TTL_DAYS: u64 = 56;
const TTLS_HOURS: [u64; 2] = [6, 48];
/// `(sim − form) / form` bounds: stale rate, server operations, body bytes.
const TTL_TOLERANCE: [f64; 3] = [0.12, 0.01, 0.03];

/// What the probe saw from the warm-up instant on.
struct Counts {
    from: SimTime,
    requests: u64,
    stale: u64,
    ops: u64,
    body_bytes: u64,
}

impl Probe for Counts {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
        if at < self.from {
            return;
        }
        match event {
            ObsEvent::Request { outcome, .. } => {
                self.requests += 1;
                self.stale += u64::from(matches!(outcome, RequestOutcome::StaleHit { .. }));
            }
            ObsEvent::ServerOp { .. } => self.ops += 1,
            ObsEvent::Exchange { body_bytes, .. } => self.body_bytes += body_bytes,
            _ => {}
        }
    }
}

/// `(λ, μ, size)` per file, rates per second.
type Rates = Vec<(f64, f64, f64)>;

/// A workload whose every file has a known request and write rate.
fn renewal_setting(seed: u64) -> (Workload, Rates) {
    let mut rng = DetRng::seed_from_u64(seed).derive_stream("ttl-closed-form");
    let start = SimTime::from_secs(86_400);
    let end = start + SimDuration::from_days(TTL_DAYS);
    let span = (end - start).as_secs() as f64;
    let zipf = ZipfDist::new(TTL_FILES, 1.0);
    let mut file_of_rank: Vec<usize> = (0..TTL_FILES).collect();
    for i in (1..TTL_FILES).rev() {
        file_of_rank.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let (shortest, longest) = ((6.0 * 3_600.0_f64).ln(), (60.0 * 86_400.0_f64).ln());
    let mut rates = vec![(0.0, 0.0, 0.0); TTL_FILES];
    for rank in 0..TTL_FILES {
        let lifetime = (shortest + (longest - shortest) * rng.unit_f64()).exp();
        let size = 1_024 + rng.below(16_384 - 1_024 + 1);
        let lambda = TTL_REQUESTS / span * zipf.pmf(rank);
        rates[file_of_rank[rank]] = (lambda, 1.0 / lifetime, size as f64);
    }
    let mut files = Vec::with_capacity(TTL_FILES);
    for (file, &(_, mu, size)) in rates.iter().enumerate() {
        let mut record = FileRecord::new(format!("/f{file}"), SimTime::ZERO, size as u64);
        let gap = ExponentialDist::with_mean(1.0 / mu);
        let mut at = start.as_secs() as f64 + gap.sample(&mut rng);
        // Two writes in one second are one write: instants are whole seconds.
        let mut last = SimTime::ZERO;
        while SimTime::from_secs(at as u64) <= end {
            if SimTime::from_secs(at as u64) > last {
                last = SimTime::from_secs(at as u64);
                record.push_modification(last, size as u64);
            }
            at += gap.sample(&mut rng);
        }
        files.push(record);
    }
    let gap = ExponentialDist::with_mean(span / TTL_REQUESTS);
    let mut requests = Vec::new();
    let mut at = start.as_secs() as f64 + gap.sample(&mut rng);
    while at < end.as_secs() as f64 {
        let file = file_of_rank[zipf.sample(&mut rng)];
        requests.push((SimTime::from_secs(at as u64), FileId::from_index(file)));
        at += gap.sample(&mut rng);
    }
    let workload = Workload {
        name: format!("ttl-renewal-{seed}"),
        start,
        end,
        population: Arc::new(files.into_iter().collect()),
        requests,
        classes: vec![0; TTL_FILES],
        class_expires: Vec::new(),
    };
    (workload, rates)
}

/// The renewal form over a window of `window` seconds: stale rate,
/// server operations and body bytes.
fn renewal_form(rates: &Rates, ttl: f64, window: f64) -> [f64; 3] {
    let (mut requests, mut stale, mut ops, mut bytes) = (0.0, 0.0, 0.0, 0.0);
    for &(lambda, mu, size) in rates {
        let cycles = window * lambda / (1.0 + lambda * ttl);
        let unchanged = (-mu * ttl).exp();
        requests += lambda * window;
        stale += cycles * lambda * (ttl - (1.0 - unchanged) / mu);
        ops += cycles;
        bytes += cycles * size * (1.0 - unchanged * lambda / (lambda + mu));
    }
    [stale / requests, ops, bytes]
}

#[test]
fn fixed_ttl_counts_stay_within_the_renewal_forms_tolerance() {
    let mut outside = Vec::new();
    println!("seed ttl  metric                    sim             form  (sim-form)/form");
    for seed in SEEDS {
        let (workload, rates) = renewal_setting(seed);
        let warm = workload.start + (workload.end - workload.start).mul_f64(0.25);
        let window = (workload.end - warm).as_secs() as f64;
        for hours in TTLS_HOURS {
            let mut counts = Counts {
                from: warm,
                requests: 0,
                stale: 0,
                ops: 0,
                body_bytes: 0,
            };
            Experiment::new(&workload)
                .protocol(ProtocolSpec::Ttl(hours))
                .config(SimConfig::optimized().preload(false))
                .probe(&mut counts)
                .run();
            let sim = [
                counts.stale as f64 / counts.requests as f64,
                counts.ops as f64,
                counts.body_bytes as f64,
            ];
            let form = renewal_form(&rates, hours as f64 * 3_600.0, window);
            let names = ["stale rate", "server ops", "body bytes"];
            for (k, name) in names.into_iter().enumerate() {
                let error = (sim[k] - form[k]) / form[k];
                let within = error.abs() <= TTL_TOLERANCE[k];
                let mark = if within { "" } else { "  OUTSIDE" };
                println!(
                    "{seed:>4} {hours:>3}h {name:<10} {:>16.6} {:>16.6} {error:+.4}{mark}",
                    sim[k], form[k]
                );
                if !within {
                    outside.push((seed, hours, name, sim[k], form[k]));
                }
            }
        }
    }
    assert!(outside.is_empty(), "outside the tolerance: {outside:?}");
}
