//! Workloads: the input every simulator replays.
//!
//! A workload is a file population with pre-scheduled modification
//! histories plus a time-sorted request stream. Holding the workload fixed
//! while swapping the consistency protocol is the paper's methodology; the
//! same [`Workload`] value is replayed against TTL, Alex, and the
//! invalidation protocol.
//!
//! Two families are provided:
//!
//! * [`WorrellConfig`] — the base simulator's synthetic model (§2/§3):
//!   flat lifetime distribution between a minimum and maximum, uniform
//!   random accesses, every file busy-churning;
//! * conversion from `webtrace::ServerTrace` — the modified-workload
//!   simulator's trace replay ([`Workload::from_server_trace`]).
//!
//! [`WorkloadKnobs`] exposes the two §4.2 levers (lifetime bimodality and
//! popularity skew/anticorrelation) independently, for the ablation
//! benches that isolate which workload property flips Worrell's
//! conclusion.

use std::sync::Arc;

use originserver::{FilePopulation, FileRecord};
use simcore::{FileId, SimDuration, SimTime};
use simstats::{BoundedParetoDist, DetRng, Sampler, UniformDist, ZipfDist};
use webtrace::{FileType, ServerTrace};

/// A replayable workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name for reports.
    pub name: String,
    /// Observation start (requests and measured modifications begin here).
    pub start: SimTime,
    /// Observation end.
    pub end: SimTime,
    /// File population with full modification histories. Shared behind an
    /// [`Arc`] so that cloning a workload — and handing one copy to every
    /// point of a parameter sweep — shares the (large, immutable)
    /// population instead of deep-copying it per point.
    pub population: Arc<FilePopulation>,
    /// `(instant, file)` request stream, sorted by instant.
    pub requests: Vec<(SimTime, FileId)>,
    /// Content-class index per file (for per-class adaptive policies).
    pub classes: Vec<usize>,
    /// Origin-assigned `Expires` lifetimes per content class (indexed by
    /// class; missing or `None` means the origin assigns no expiry). This
    /// models content with a priori known lifetimes — "online newspapers
    /// that change daily" (§1) — which the CERN policy's first tier and
    /// plain TTL consume.
    pub class_expires: Vec<Option<SimDuration>>,
}

impl Workload {
    /// Total duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Number of requests.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Total modifications scheduled inside the observation window
    /// (`start <= t <= end`) — exactly the ones a replay fires and a live
    /// origin publishes.
    pub fn changes_in_window(&self) -> usize {
        self.population.modifications_in(self.start, self.end).len()
    }

    /// The origin-assigned `Expires` lifetime for `class`, if any.
    pub fn expires_for_class(&self, class: usize) -> Option<SimDuration> {
        self.class_expires.get(class).copied().flatten()
    }

    /// Internal-consistency check (sorted requests, files exist, classes
    /// aligned).
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.len() != self.population.len() {
            return Err("classes not aligned with population".to_string());
        }
        let mut prev = SimTime::ZERO;
        for (i, &(t, f)) in self.requests.iter().enumerate() {
            if t < prev {
                return Err(format!("request {i} out of order"));
            }
            prev = t;
            if f.index() >= self.population.len() {
                return Err(format!("request {i}: unknown file {f}"));
            }
            // `version_at(t).is_none()`, without its binary search.
            if t < self.population.get(f).created_at() {
                return Err(format!("request {i}: file {f} does not exist yet"));
            }
        }
        Ok(())
    }

    /// The workload's one event order, which every replay follows:
    /// in-window modifications (`start <= t <= end`) merged with the
    /// requests by `(instant, modification before request, file)`. A
    /// request arriving "at" a change sees the new version, matching HTTP
    /// semantics where the origin answers with its current state.
    ///
    /// Both halves are borrowed and nothing is sorted up front. The
    /// modification half comes from the population, which orders its
    /// history once for every replay ([`FilePopulation::modifications_in`]:
    /// two binary searches cut the window out of it); `requests` arrives in
    /// instant order; so this is a two-way merge. Only requests sharing an
    /// instant are put in file order, one run at a time, as the merge
    /// reaches them: the extra memory is the longest such run.
    ///
    /// # Panics
    /// The returned iterator panics when it reaches a request that goes
    /// backwards in time, before yielding it: the merge trusts the order,
    /// so nothing downstream would repair it.
    pub(crate) fn schedule(&self) -> Schedule<'_> {
        Schedule {
            mods: self.population.modifications_in(self.start, self.end),
            requests: &self.requests,
            next_mod: 0,
            next_request: 0,
            run: Vec::new(),
            run_at: SimTime::ZERO,
        }
    }

    /// Keep every `k`-th request (k >= 1), preserving order — used by the
    /// quick experiment scale to shrink trace replays. Modification
    /// histories are untouched.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn subsample(&self, k: usize) -> Workload {
        assert!(k >= 1, "subsample factor must be at least 1");
        Workload {
            name: if k == 1 {
                self.name.clone()
            } else {
                format!("{} (1/{k})", self.name)
            },
            start: self.start,
            end: self.end,
            population: Arc::clone(&self.population),
            requests: self.requests.iter().step_by(k).copied().collect(),
            classes: self.classes.clone(),
            class_expires: self.class_expires.clone(),
        }
    }

    /// Build a workload from the *local-domain* requests of a campus
    /// trace only. Mid-90s proxy caches sat at the campus boundary and
    /// served campus clients; remote clients hit the origin directly.
    /// Comparing this against [`Workload::from_server_trace`] measures
    /// what the cache's placement costs (the `deployment` experiment).
    pub fn from_server_trace_local_only(trace: &ServerTrace) -> Workload {
        let mut wl = Self::from_server_trace(trace);
        wl.name = format!("{} (local clients)", trace.name);
        wl.requests = trace
            .requests
            .iter()
            .filter(|r| !r.remote)
            .map(|r| (r.time, r.file))
            .collect();
        wl
    }

    /// Build a workload from the *remote* requests of a campus trace only
    /// (the complement of [`Workload::from_server_trace_local_only`]).
    pub fn from_server_trace_remote_only(trace: &ServerTrace) -> Workload {
        let mut wl = Self::from_server_trace(trace);
        wl.name = format!("{} (remote clients)", trace.name);
        wl.requests = trace
            .requests
            .iter()
            .filter(|r| r.remote)
            .map(|r| (r.time, r.file))
            .collect();
        wl
    }

    /// Build a workload from a campus server trace (the modified-workload
    /// simulator's input).
    pub fn from_server_trace(trace: &ServerTrace) -> Workload {
        let classes = trace
            .population
            .iter()
            .map(|(_, rec)| FileType::classify_path(&rec.path).class_index())
            .collect();
        Workload {
            name: trace.name.clone(),
            start: trace.start,
            end: trace.end(),
            population: Arc::new(trace.population.clone()),
            requests: trace.requests.iter().map(|r| (r.time, r.file)).collect(),
            classes,
            class_expires: Vec::new(),
        }
    }
}

/// One step of a workload's [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkloadEvent {
    /// The origin's copy of the file changes.
    Modify(FileId),
    /// A client asks the cache for the file.
    Request(FileId),
}

/// [`Workload::schedule`]'s iterator: the merged `(instant, event)`
/// stream, with its exact remaining length.
pub(crate) struct Schedule<'w> {
    mods: &'w [(SimTime, FileId)],
    requests: &'w [(SimTime, FileId)],
    next_mod: usize,
    next_request: usize,
    /// The rest of a run of requests at `run_at`, in descending file
    /// order so that `pop` yields them ascending. The run was buffered
    /// whole, after every modification at or before `run_at`, so it
    /// drains before the merge is looked at again.
    run: Vec<FileId>,
    run_at: SimTime,
}

impl Schedule<'_> {
    /// The next request shares its instant with the one after it, or the
    /// one after it goes backwards in time: buffer the whole run from the
    /// next request, put it in file order and yield its first request.
    #[cold]
    #[inline(never)]
    fn start_run(&mut self) -> (SimTime, WorkloadEvent) {
        let rest = &self.requests[self.next_request..];
        let at = rest[0].0;
        let run = &rest[..rest.iter().take_while(|&&(t, _)| t == at).count()];
        self.next_request += run.len();
        if let Some(&(t, _)) = self.requests.get(self.next_request) {
            let i = self.next_request;
            assert!(t > at, "request {i} goes backwards in time: {t} after {at}");
        }
        self.run.extend(run.iter().map(|&(_, file)| file));
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        self.run_at = at;
        let file = self.run.pop().expect("a run holds its first request");
        (at, WorkloadEvent::Request(file))
    }
}

impl Iterator for Schedule<'_> {
    type Item = (SimTime, WorkloadEvent);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if let Some(file) = self.run.pop() {
            return Some((self.run_at, WorkloadEvent::Request(file)));
        }
        let request = self.requests.get(self.next_request);
        match self.mods.get(self.next_mod) {
            Some(&(t, file)) if request.is_none_or(|&(asked, _)| t <= asked) => {
                self.next_mod += 1;
                Some((t, WorkloadEvent::Modify(file)))
            }
            _ => {
                let &(t, file) = request?;
                match self.requests.get(self.next_request + 1) {
                    Some(&(next, _)) if next <= t => Some(self.start_run()),
                    _ => {
                        self.next_request += 1;
                        Some((t, WorkloadEvent::Request(file)))
                    }
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.mods.len() - self.next_mod)
            + (self.requests.len() - self.next_request)
            + self.run.len();
        (left, Some(left))
    }
}

impl ExactSizeIterator for Schedule<'_> {}

/// Which lifetime model drives file modifications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifetimeModel {
    /// Worrell's model: per-change lifetimes drawn uniformly from
    /// `[min_hours, max_hours]` — every file keeps changing.
    Flat {
        /// Minimum lifetime, hours.
        min_hours: f64,
        /// Maximum lifetime, hours.
        max_hours: f64,
    },
    /// Trace-informed bimodality: a `volatile_fraction` of files changes
    /// with short uniform lifetimes; the rest never changes in the window.
    Bimodal {
        /// Fraction of files that are volatile.
        volatile_fraction: f64,
        /// Volatile files' minimum lifetime, hours.
        min_hours: f64,
        /// Volatile files' maximum lifetime, hours.
        max_hours: f64,
    },
}

/// How request popularity is distributed across files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PopularityModel {
    /// Every file equally likely (Worrell's model).
    Uniform,
    /// Zipf-ranked popularity. `correlate_stability` applies the Bestavros
    /// observation: when `true`, popular ranks are assigned to *stable*
    /// files; when `false`, ranks are assigned independently of mutability.
    Zipf {
        /// Zipf exponent (1.0 is classic Web skew).
        exponent: f64,
        /// Give popular ranks to stable files (the Bestavros rule).
        correlate_stability: bool,
    },
}

/// The workload levers §4.2 turns, exposed independently for ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadKnobs {
    /// Lifetime model.
    pub lifetimes: LifetimeModel,
    /// Popularity model.
    pub popularity: PopularityModel,
}

/// Configuration of the synthetic (Worrell-style) workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorrellConfig {
    /// Number of files (paper run: 2085).
    pub files: usize,
    /// Simulated duration in days (paper run: 56).
    pub duration_days: u64,
    /// Number of requests in the stream.
    pub requests: usize,
    /// Lifetime and popularity levers.
    pub knobs: WorkloadKnobs,
    /// File-size distribution: bounded Pareto `[min, max]` with `alpha`
    /// ("each file averages several thousand bytes").
    pub size_min: f64,
    /// Largest file size, bytes.
    pub size_max: f64,
    /// Pareto tail index.
    pub size_alpha: f64,
}

impl WorrellConfig {
    /// The paper's base-simulator run: 2085 files over 56 days with a flat
    /// lifetime distribution whose mean (≈5.9 days) reproduces the
    /// reported 19,898 changes — "a 17% average probability that on any
    /// given day a particular file changed" (§4.2) — under uniform random
    /// accesses.
    pub fn paper_run() -> Self {
        WorrellConfig {
            files: 2085,
            duration_days: 56,
            requests: 50_000,
            knobs: WorkloadKnobs {
                lifetimes: LifetimeModel::Flat {
                    min_hours: 2.0,
                    max_hours: 280.0,
                },
                popularity: PopularityModel::Uniform,
            },
            size_min: 256.0,
            size_max: 1_000_000.0,
            size_alpha: 1.3,
        }
    }

    /// A proportionally scaled-down configuration for fast tests.
    pub fn scaled(files: usize, requests: usize) -> Self {
        WorrellConfig {
            files,
            requests,
            ..Self::paper_run()
        }
    }
}

/// Generate a synthetic workload, deterministically from `seed`.
pub fn generate_synthetic(config: &WorrellConfig, seed: u64) -> Workload {
    let master = DetRng::seed_from_u64(seed);
    let mut rng_life = master.derive_stream("lifetimes");
    let mut rng_req = master.derive_stream("requests");
    let mut rng_size = master.derive_stream("sizes");
    let mut rng_pop = master.derive_stream("popularity");

    let start = SimTime::from_secs(0) + SimDuration::from_days(400);
    let end = start + SimDuration::from_days(config.duration_days);
    let size_dist = BoundedParetoDist::new(config.size_min, config.size_max, config.size_alpha);

    // Which files are volatile, and their lifetime bounds.
    let volatility: Vec<Option<(f64, f64)>> = (0..config.files)
        .map(|_| match config.knobs.lifetimes {
            LifetimeModel::Flat {
                min_hours,
                max_hours,
            } => Some((min_hours, max_hours)),
            LifetimeModel::Bimodal {
                volatile_fraction,
                min_hours,
                max_hours,
            } => rng_life
                .chance(volatile_fraction)
                .then_some((min_hours, max_hours)),
        })
        .collect();

    let mut population = FilePopulation::new();
    for (i, vol) in volatility.iter().enumerate() {
        // Pre-window age so the Alex protocol sees non-degenerate ages at
        // the start: volatile files young, stable files old.
        let pre_age = match vol {
            Some((min_h, max_h)) => {
                let life = UniformDist::new(*min_h, *max_h).sample(&mut rng_life);
                SimDuration::from_secs((life * 3600.0 * rng_life.unit_f64()) as u64 + 1)
            }
            None => SimDuration::from_days(30 + rng_life.below(300)),
        };
        let mut record = FileRecord::new(
            format!("/w/f{i}.dat"),
            start - pre_age,
            size_dist.sample(&mut rng_size).round() as u64,
        );
        if let Some((min_h, max_h)) = vol {
            let life_dist = UniformDist::new(*min_h, *max_h);
            let mut t = start.as_secs() as f64
                + life_dist.sample(&mut rng_life) * 3600.0 * rng_life.unit_f64();
            let mut last = record.created_at().as_secs();
            while t < end.as_secs() as f64 {
                let at = (t as u64).max(last + 1);
                record.push_modification(
                    SimTime::from_secs(at),
                    size_dist.sample(&mut rng_size).round() as u64,
                );
                last = at;
                t += life_dist.sample(&mut rng_life) * 3600.0;
            }
        }
        population.add(record);
    }

    // Popularity: a permutation mapping Zipf rank -> file index.
    let rank_to_file: Vec<usize> = match config.knobs.popularity {
        PopularityModel::Uniform => (0..config.files).collect(),
        PopularityModel::Zipf {
            correlate_stability,
            ..
        } => {
            if correlate_stability {
                // Stable files first (popular), volatile last, with jitter.
                let mut keyed: Vec<(f64, usize)> = (0..config.files)
                    .map(|i| {
                        let base = if volatility[i].is_some() { 1.0 } else { 0.0 };
                        (base + 0.3 * rng_pop.unit_f64(), i)
                    })
                    .collect();
                keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
                keyed.into_iter().map(|(_, i)| i).collect()
            } else {
                // Random permutation, independent of mutability.
                let mut perm: Vec<usize> = (0..config.files).collect();
                for i in (1..perm.len()).rev() {
                    let j = rng_pop.below((i + 1) as u64) as usize;
                    perm.swap(i, j);
                }
                perm
            }
        }
    };

    let mut times: Vec<u64> = (0..config.requests)
        .map(|_| start.as_secs() + rng_req.below(end.as_secs() - start.as_secs()))
        .collect();
    times.sort_unstable();
    let requests: Vec<(SimTime, FileId)> = match config.knobs.popularity {
        PopularityModel::Uniform => times
            .into_iter()
            .map(|t| {
                (
                    SimTime::from_secs(t),
                    FileId::from_index(rng_req.below(config.files as u64) as usize),
                )
            })
            .collect(),
        PopularityModel::Zipf { exponent, .. } => {
            let zipf = ZipfDist::new(config.files, exponent);
            times
                .into_iter()
                .map(|t| {
                    let rank = zipf.sample(&mut rng_req);
                    (
                        SimTime::from_secs(t),
                        FileId::from_index(rank_to_file[rank]),
                    )
                })
                .collect()
        }
    };

    let workload = Workload {
        name: format!("synthetic({} files)", config.files),
        start,
        end,
        population: Arc::new(population),
        requests,
        classes: vec![0; config.files],
        class_expires: Vec::new(),
    };
    debug_assert_eq!(workload.validate(), Ok(()));
    workload
}

#[cfg(test)]
mod tests {
    use super::*;
    use webtrace::campus::{generate_campus_trace, CampusProfile};

    #[test]
    fn paper_run_reproduces_change_count() {
        let wl = generate_synthetic(&WorrellConfig::paper_run(), 42);
        wl.validate().unwrap();
        assert_eq!(wl.population.len(), 2085);
        assert_eq!(wl.request_count(), 50_000);
        let changes = wl.changes_in_window();
        // Paper: 19,898 changes over 56 days (~17 %/day/file). Generator
        // is stochastic; demand the same order with 10 % slack.
        assert!((18_000..=22_000).contains(&changes), "changes = {changes}");
        let per_day = changes as f64 / (2085.0 * 56.0);
        assert!((0.15..=0.19).contains(&per_day), "rate {per_day}");
    }

    #[test]
    fn flat_model_makes_every_file_volatile() {
        let wl = generate_synthetic(&WorrellConfig::scaled(50, 100), 1);
        let changed = wl
            .population
            .iter()
            .filter(|(_, r)| r.modification_count() > 0)
            .count();
        assert_eq!(changed, 50);
    }

    #[test]
    fn bimodal_model_freezes_stable_files() {
        let mut cfg = WorrellConfig::scaled(200, 100);
        cfg.knobs.lifetimes = LifetimeModel::Bimodal {
            volatile_fraction: 0.25,
            min_hours: 2.0,
            max_hours: 48.0,
        };
        let wl = generate_synthetic(&cfg, 2);
        let changed = wl
            .population
            .iter()
            .filter(|(_, r)| r.changes_between(wl.start, wl.end) > 0)
            .count();
        assert!(
            (30..=70).contains(&changed),
            "volatile file count {changed}"
        );
    }

    #[test]
    fn zipf_popularity_concentrates_requests() {
        let mut cfg = WorrellConfig::scaled(100, 20_000);
        cfg.knobs.popularity = PopularityModel::Zipf {
            exponent: 1.0,
            correlate_stability: false,
        };
        let wl = generate_synthetic(&cfg, 3);
        let mut counts = vec![0usize; 100];
        for &(_, f) in &wl.requests {
            counts[f.index()] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts[..10].iter().sum();
        // Zipf(1) over 100 files: top 10 files draw ~56 % of requests.
        assert!(
            top10 as f64 / 20_000.0 > 0.45,
            "top-10 share {}",
            top10 as f64 / 20_000.0
        );
    }

    #[test]
    fn correlated_popularity_requests_stable_files() {
        let mut cfg = WorrellConfig::scaled(300, 20_000);
        cfg.knobs.lifetimes = LifetimeModel::Bimodal {
            volatile_fraction: 0.3,
            min_hours: 2.0,
            max_hours: 48.0,
        };
        cfg.knobs.popularity = PopularityModel::Zipf {
            exponent: 1.0,
            correlate_stability: true,
        };
        let wl = generate_synthetic(&cfg, 4);
        let to_volatile = wl
            .requests
            .iter()
            .filter(|&&(_, f)| wl.population.get(f).changes_between(wl.start, wl.end) > 0)
            .count();
        let share = to_volatile as f64 / wl.request_count() as f64;
        // 30 % of files are volatile but they get far less than 30 % of
        // requests under the Bestavros rule.
        assert!(share < 0.15, "volatile request share {share}");
    }

    #[test]
    fn uncorrelated_popularity_has_no_such_bias() {
        let mut cfg = WorrellConfig::scaled(300, 20_000);
        cfg.knobs.lifetimes = LifetimeModel::Bimodal {
            volatile_fraction: 0.3,
            min_hours: 2.0,
            max_hours: 48.0,
        };
        cfg.knobs.popularity = PopularityModel::Zipf {
            exponent: 1.0,
            correlate_stability: false,
        };
        let wl = generate_synthetic(&cfg, 4);
        let to_volatile = wl
            .requests
            .iter()
            .filter(|&&(_, f)| wl.population.get(f).changes_between(wl.start, wl.end) > 0)
            .count();
        let share = to_volatile as f64 / wl.request_count() as f64;
        // Without the rule, volatile files get roughly their file share of
        // requests (wide band: the permutation may favour either side).
        assert!(
            (0.10..=0.60).contains(&share),
            "volatile request share {share}"
        );
    }

    #[test]
    fn trace_conversion_preserves_everything() {
        let campus = generate_campus_trace(&CampusProfile::fas(), 7);
        let wl = Workload::from_server_trace(&campus.trace);
        wl.validate().unwrap();
        assert_eq!(wl.name, "FAS");
        assert_eq!(wl.request_count(), campus.trace.request_count());
        assert_eq!(wl.population.len(), campus.trace.population.len());
        assert_eq!(wl.classes.len(), wl.population.len());
        assert_eq!(
            wl.changes_in_window(),
            CampusProfile::fas().realised_changes()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_synthetic(&WorrellConfig::scaled(50, 500), 9);
        let b = generate_synthetic(&WorrellConfig::scaled(50, 500), 9);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn local_remote_split_partitions_requests() {
        let campus = generate_campus_trace(&CampusProfile::das(), 9);
        let all = Workload::from_server_trace(&campus.trace);
        let local = Workload::from_server_trace_local_only(&campus.trace);
        let remote = Workload::from_server_trace_remote_only(&campus.trace);
        local.validate().unwrap();
        remote.validate().unwrap();
        assert_eq!(
            local.request_count() + remote.request_count(),
            all.request_count()
        );
        // DAS is 84 % remote.
        let frac = remote.request_count() as f64 / all.request_count() as f64;
        assert!((frac - 0.84).abs() < 0.01, "remote fraction {frac}");
        assert!(local.name.contains("local"));
    }

    #[test]
    fn subsample_keeps_every_kth_request() {
        let wl = generate_synthetic(&WorrellConfig::scaled(20, 100), 5);
        let s = wl.subsample(4);
        s.validate().unwrap();
        assert_eq!(s.request_count(), 25);
        assert_eq!(s.requests[0], wl.requests[0]);
        assert_eq!(s.requests[1], wl.requests[4]);
        assert!(s.name.contains("1/4"));
        // k = 1 is the identity.
        assert_eq!(wl.subsample(1).requests, wl.requests);
    }

    #[test]
    fn validate_rejects_misaligned_classes() {
        let mut wl = generate_synthetic(&WorrellConfig::scaled(10, 10), 1);
        wl.classes.pop();
        assert!(wl.validate().is_err());
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Files created at 0, window `[100, 110]`; `mods[i]` lists file
    /// `i`'s modification instants in increasing order.
    fn tiny_workload(mods: &[Vec<u64>], requests: Vec<(SimTime, FileId)>) -> Workload {
        let mut population = FilePopulation::new();
        for (i, times) in mods.iter().enumerate() {
            let mut record = FileRecord::new(format!("/f{i}"), t(0), 10);
            for &at in times {
                record.push_modification(t(at), 10);
            }
            population.add(record);
        }
        Workload {
            name: "tiny".to_string(),
            start: t(100),
            end: t(110),
            population: Arc::new(population),
            requests,
            classes: vec![0; mods.len()],
            class_expires: Vec::new(),
        }
    }

    /// The order the simulator used to build: every event copied into one
    /// Vec and stable-sorted by `(instant, modification first, file)`.
    fn fully_sorted(wl: &Workload) -> Vec<(SimTime, WorkloadEvent)> {
        let mut events: Vec<(SimTime, u8, WorkloadEvent)> = Vec::new();
        for (t, f) in wl.population.all_modifications() {
            if t >= wl.start && t <= wl.end {
                events.push((t, 0, WorkloadEvent::Modify(f)));
            }
        }
        for &(t, f) in &wl.requests {
            events.push((t, 1, WorkloadEvent::Request(f)));
        }
        events.sort_by_key(|&(t, kind, ev)| {
            (
                t,
                kind,
                match ev {
                    WorkloadEvent::Modify(f) | WorkloadEvent::Request(f) => f,
                },
            )
        });
        events.into_iter().map(|(t, _, ev)| (t, ev)).collect()
    }

    #[test]
    fn the_window_counts_the_modifications_it_replays() {
        // One modification exactly on `start`, one exactly on `end`, one
        // just outside each: the count and the replay agree on four.
        let wl = tiny_workload(&[vec![99, 100, 105, 110, 111], vec![100]], Vec::new());
        let replayed = wl
            .schedule()
            .filter(|(_, event)| matches!(event, WorkloadEvent::Modify(_)))
            .count();
        assert_eq!((wl.changes_in_window(), replayed), (4, 4));
    }

    #[test]
    #[should_panic(expected = "request 1 goes backwards in time")]
    fn a_request_stream_that_goes_backwards_in_time_is_rejected() {
        let f = FileId::from_index(0);
        let wl = tiny_workload(&[vec![]], vec![(t(105), f), (t(104), f)]);
        for (at, _) in wl.schedule() {
            assert_ne!(at, t(104), "the offending request was yielded");
        }
    }

    #[test]
    fn same_instant_requests_in_descending_file_order_fire_ascending() {
        let [a, b, c] = [0, 1, 2].map(FileId::from_index);
        let descending = vec![(t(101), c), (t(105), c), (t(105), b), (t(105), a)];
        let wl = tiny_workload(&[vec![], vec![105], vec![]], descending);
        let fired: Vec<_> = wl.schedule().collect();
        assert_eq!(
            fired,
            vec![
                (t(101), WorkloadEvent::Request(c)),
                (t(105), WorkloadEvent::Modify(b)),
                (t(105), WorkloadEvent::Request(a)),
                (t(105), WorkloadEvent::Request(b)),
                (t(105), WorkloadEvent::Request(c)),
            ]
        );
        assert_eq!(wl.requests[1], (t(105), c), "the workload is not edited");
    }

    proptest::proptest! {
        /// The merge against the sort it replaces. Instants span 98..=111
        /// around the `[100, 110]` window, so modifications land on
        /// `start`, on `end` and just outside, and collide with requests
        /// and with each other; requests arrive in time order only.
        #[test]
        fn the_merged_schedule_is_the_fully_sorted_one(
            mod_masks in proptest::collection::vec(0u16..(1 << 14), 8..12),
            raw_requests in proptest::collection::vec((100u64..=110, 0usize..12), 0..60),
        ) {
            let mut mods: Vec<Vec<u64>> = mod_masks
                .iter()
                .map(|mask| (0..14).filter(|bit| mask >> bit & 1 == 1).map(|bit| 98 + bit).collect())
                .collect();
            // Forced: the window's edges and their outer neighbours, a
            // modification and a request on one instant, several requests
            // on one instant out of file order, a run of eight in
            // descending file order that ends the stream, and a run
            // already in file order (instant 103 is kept for it alone).
            mods[0] = vec![99, 100, 105, 110, 111];
            let (first, last) = (FileId::from_index(0), FileId::from_index(mods.len() - 1));
            let descending = (0..8).rev().map(|f| (t(110), FileId::from_index(f)));
            let ascending = (0..3).map(|f| (t(103), FileId::from_index(f)));
            let mut requests: Vec<(SimTime, FileId)> = raw_requests
                .iter()
                .filter(|&&(at, _)| at != 103)
                .map(|&(at, f)| (t(at), FileId::from_index(f % mods.len())))
                .chain([(t(100), last), (t(100), first), (t(105), last), (t(105), first), (t(110), first)])
                .chain(descending)
                .chain(ascending)
                .collect();
            requests.sort_by_key(|&(at, _)| at);
            let wl = tiny_workload(&mods, requests);

            let expected = fully_sorted(&wl);
            let mut schedule = wl.schedule();
            for (done, event) in expected.iter().enumerate() {
                proptest::prop_assert_eq!(schedule.len(), expected.len() - done);
                proptest::prop_assert_eq!(schedule.next(), Some(*event));
            }
            proptest::prop_assert_eq!(schedule.next(), None);
        }
    }
}
