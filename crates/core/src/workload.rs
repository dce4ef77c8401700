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

use std::mem::{align_of, size_of};
use std::sync::Arc;

use originserver::{FilePopulation, FileRecord};
use simcore::{FileId, SimDuration, SimTime};
use simstats::{BoundedParetoDist, DetRng, Sampler, UniformDist, ZipfDist};
use webtrace::{FileType, ServerTrace, TraceRequest};

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

    /// The heap bytes of the workload's own tables, by name: the request
    /// stream and the class of each file (capacity times element size).
    /// The population, shared behind its `Arc`, reports its own
    /// ([`FilePopulation::heap_tables`]).
    pub fn heap_tables(&self) -> [(&'static str, usize); 2] {
        [
            (
                "requests",
                self.requests.capacity() * size_of::<(SimTime, FileId)>(),
            ),
            ("classes", self.classes.capacity() * size_of::<usize>()),
        ]
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

    /// The workload's one event order, over the streams a consumer reads:
    /// the requests always; the in-window modifications (`start <= t <=
    /// end`) when `writes` is set; and `faults`, sorted by instant. At a
    /// shared instant a fault goes first, then a modification, then the
    /// requests in file order. A request arriving "at" a change sees the
    /// new version, matching HTTP semantics where the origin answers with
    /// its current state; a change at the instant a channel fails is not
    /// announced, and one at the instant it recovers is.
    ///
    /// Every stream is borrowed and nothing is sorted up front. The
    /// modifications come from the population, which orders its history
    /// once for every replay ([`FilePopulation::modifications_in`]: two
    /// binary searches cut the window out of it); `requests` arrives in
    /// instant order; so this is a three-way merge. Only requests sharing
    /// an instant are put in file order, one run at a time, as the merge
    /// reaches them: the extra memory is the longest such run.
    ///
    /// # Panics
    /// The returned iterator panics when it reaches a request that goes
    /// backwards in time, before yielding it: the merge trusts the order,
    /// so nothing downstream would repair it.
    pub(crate) fn schedule<'w>(
        &'w self,
        writes: bool,
        faults: &'w [(SimTime, Fault)],
    ) -> Schedule<'w> {
        debug_assert!(faults.is_sorted_by_key(|&(at, _)| at));
        Schedule {
            faults,
            writes: if writes {
                self.population.modifications_in(self.start, self.end)
            } else {
                &[]
            },
            requests: &self.requests,
            next_fault: 0,
            next_write: 0,
            next_request: 0,
            run: Vec::new(),
            run_at: SimTime::ZERO,
        }
    }

    /// Keep every `k`-th request (k >= 1), preserving order — used by the
    /// quick experiment scale to shrink trace replays. Modification
    /// histories are untouched. At `k == 1` this is the workload itself;
    /// otherwise the kept requests close up in the stream's own buffer,
    /// which is then shrunk to them.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn subsample(mut self, k: usize) -> Workload {
        assert!(k >= 1, "subsample factor must be at least 1");
        if k == 1 {
            return self;
        }
        let mut i = 0;
        self.requests.retain(|_| {
            i += 1;
            (i - 1) % k == 0
        });
        self.requests.shrink_to_fit();
        self.name = format!("{} (1/{k})", self.name);
        self
    }

    /// Build a workload from the *local-domain* requests of a campus
    /// trace only. Mid-90s proxy caches sat at the campus boundary and
    /// served campus clients; remote clients hit the origin directly.
    /// Comparing this against [`Workload::from_server_trace`] measures
    /// what the cache's placement costs (the `deployment` experiment).
    pub fn from_server_trace_local_only(trace: &ServerTrace) -> Workload {
        Self::from_server_trace_clients(trace, false, "local")
    }

    /// Build a workload from the *remote* requests of a campus trace only
    /// (the complement of [`Workload::from_server_trace_local_only`]).
    pub fn from_server_trace_remote_only(trace: &ServerTrace) -> Workload {
        Self::from_server_trace_clients(trace, true, "remote")
    }

    fn from_server_trace_clients(trace: &ServerTrace, remote: bool, label: &str) -> Workload {
        let mut ours = trace.clone();
        ours.requests.retain(|r| r.remote == remote);
        let mut wl = Self::from_server_trace(ours);
        wl.name = format!("{} ({label} clients)", trace.name);
        wl
    }

    /// Build a workload from a campus server trace (the modified-workload
    /// simulator's input). The trace is consumed: its population moves
    /// behind the workload's [`Arc`], and its stream is rewritten from
    /// 16-byte [`TraceRequest`]s to 8-byte `(instant, file)` pairs in
    /// the trace's own buffer, then shrunk to them. A borrowed trace
    /// is cloned into the same path.
    pub fn from_server_trace(trace: impl Into<ServerTrace>) -> Workload {
        let trace: ServerTrace = trace.into();
        let end = trace.end();
        let classes = trace
            .population
            .iter()
            .map(|(_, rec)| FileType::classify_path(rec.path).class_index())
            .collect();
        // Same alignment, half the size: the standard library's
        // `collect` reuses the source buffer.
        let mut requests: Vec<(SimTime, FileId)> = trace
            .requests
            .into_iter()
            .map(|r| (r.time, r.file))
            .collect();
        requests.shrink_to_fit();
        Workload {
            name: trace.name,
            start: trace.start,
            end,
            population: Arc::new(trace.population),
            requests,
            classes,
            class_expires: Vec::new(),
        }
    }
}

// What lets `from_server_trace` rewrite a stream in place.
const _: () = assert!(align_of::<TraceRequest>() == align_of::<(SimTime, FileId)>());
const _: () = assert!(size_of::<TraceRequest>() == 2 * size_of::<(SimTime, FileId)>());

/// A change in whether the origin's notification channel to the cache
/// delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// The channel fails: notices queue until it recovers.
    ChannelDown,
    /// The channel recovers.
    ChannelUp,
}

/// One step of a workload's [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkloadEvent {
    /// The notification channel fails or recovers.
    Fault(Fault),
    /// The origin's copy of the file changes.
    Modify(FileId),
    /// A client asks the cache for the file.
    Request(FileId),
}

/// [`Workload::schedule`]'s iterator: the merged `(instant, event)`
/// stream, with its exact remaining length.
pub(crate) struct Schedule<'w> {
    faults: &'w [(SimTime, Fault)],
    writes: &'w [(SimTime, FileId)],
    requests: &'w [(SimTime, FileId)],
    next_fault: usize,
    next_write: usize,
    next_request: usize,
    /// The rest of a run of requests at `run_at`, in descending file
    /// order so that `pop` yields them ascending. The run was buffered
    /// whole, after every fault and modification at or before `run_at`,
    /// so it drains before the merge is looked at again.
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

    /// The next fault, if it comes no later than the next write and the
    /// next request. Out of line, so that `next` stays small enough to
    /// inline into a replay loop.
    #[cold]
    #[inline(never)]
    fn fault_first(&mut self) -> Option<(SimTime, WorkloadEvent)> {
        let (t, fault) = self.faults[self.next_fault];
        let ahead = |s: &[(SimTime, FileId)], i: usize| s.get(i).is_none_or(|&(at, _)| t <= at);
        if ahead(self.writes, self.next_write) && ahead(self.requests, self.next_request) {
            self.next_fault += 1;
            return Some((t, WorkloadEvent::Fault(fault)));
        }
        None
    }
}

impl Iterator for Schedule<'_> {
    type Item = (SimTime, WorkloadEvent);

    // Always inlined: once `next` outgrew the inliner's budget, the calls
    // cost `sim-sweep` ~10 % of its requests a second.
    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        if let Some(file) = self.run.pop() {
            return Some((self.run_at, WorkloadEvent::Request(file)));
        }
        // With no fault stream, this is the one extra branch.
        if self.next_fault < self.faults.len() {
            if let Some(fault) = self.fault_first() {
                return Some(fault);
            }
        }
        let request = self.requests.get(self.next_request);
        match self.writes.get(self.next_write) {
            Some(&(t, file)) if request.is_none_or(|&(asked, _)| t <= asked) => {
                self.next_write += 1;
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
        let left = (self.faults.len() - self.next_fault)
            + (self.writes.len() - self.next_write)
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
///
/// The request instants are drawn first and ordered in place, by a set of
/// one bit per second of the window (`sorted_instants`), with no sorted
/// copy; then each request's file is drawn in stream order.
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

    // A history draws on the lifetime stream alone, so a dry run over a
    // clone of it counts every version: the population's tables are
    // reserved once, at their exact sizes, and never regrow.
    let path = |i: usize| format!("/w/f{i}.dat");
    let mut instants = Vec::new();
    let mut counting = rng_life.clone();
    let versions: usize = volatility
        .iter()
        .map(|&vol| {
            draw_history(vol, &mut counting, start, end, &mut instants);
            instants.len()
        })
        .sum();
    let path_bytes = (0..config.files).map(|i| path(i).len()).sum();
    let mut population = FilePopulation::with_capacity(config.files, versions, path_bytes);
    for (i, &vol) in volatility.iter().enumerate() {
        draw_history(vol, &mut rng_life, start, end, &mut instants);
        let mut size = || size_dist.sample(&mut rng_size).round() as u64;
        let mut record = FileRecord::new(path(i), instants[0], size());
        for &at in &instants[1..] {
            record.push_modification(at, size());
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

    let mut requests = sorted_instants(&mut rng_req, config.requests, start, end);
    match config.knobs.popularity {
        PopularityModel::Uniform => {
            for (_, file) in &mut requests {
                *file = FileId::from_index(rng_req.below(config.files as u64) as usize);
            }
        }
        PopularityModel::Zipf { exponent, .. } => {
            let zipf = ZipfDist::new(config.files, exponent);
            for (_, file) in &mut requests {
                *file = FileId::from_index(rank_to_file[zipf.sample(&mut rng_req)]);
            }
        }
    }

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

/// One synthetic file's version instants into `instants`, creation
/// first, drawn from the lifetime stream alone. A volatile file (`vol`
/// holds its lifetime bounds, hours) is young at `start` and changes once
/// a lifetime until `end`; a stable one is 30-330 days old and never
/// changes — so the Alex protocol sees non-degenerate ages from the start.
fn draw_history(
    vol: Option<(f64, f64)>,
    rng_life: &mut DetRng,
    start: SimTime,
    end: SimTime,
    instants: &mut Vec<SimTime>,
) {
    instants.clear();
    let Some((min_h, max_h)) = vol else {
        instants.push(start - SimDuration::from_days(30 + rng_life.below(300)));
        return;
    };
    let life_dist = UniformDist::new(min_h, max_h);
    let life = life_dist.sample(rng_life);
    let mut last = (start
        - SimDuration::from_secs((life * 3600.0 * rng_life.unit_f64()) as u64 + 1))
    .as_secs();
    instants.push(SimTime::from_secs(last));
    let mut t = start.as_secs() as f64 + life_dist.sample(rng_life) * 3600.0 * rng_life.unit_f64();
    while t < end.as_secs() as f64 {
        last = (t as u64).max(last + 1);
        instants.push(SimTime::from_secs(last));
        t += life_dist.sample(rng_life) * 3600.0;
    }
}

/// `n` instants drawn uniformly from `[start, end)`, one `rng.below` each
/// in draw order, returned in ascending order with every file id 0.
///
/// Each draw sets its second's bit in a set of one bit per second, a draw
/// that finds its bit already set goes to a short list of repeats, and
/// only that list is sorted; the instants are then read off the set bits
/// in order, each followed by its repeats. The result, and `rng`'s state
/// after it, are those of collecting the draws and sorting them.
fn sorted_instants(
    rng: &mut DetRng,
    n: usize,
    start: SimTime,
    end: SimTime,
) -> Vec<(SimTime, FileId)> {
    let (start, span) = (start.as_secs(), end.as_secs() - start.as_secs());
    let at = |offset| (SimTime::from_secs(start + offset), FileId::from_index(0));
    let mut instants = Vec::with_capacity(n);
    let mut seen = vec![0u64; span.div_ceil(64) as usize];
    let mut repeats = Vec::new();
    for _ in 0..n {
        let offset = rng.below(span);
        let (word, bit) = (&mut seen[(offset / 64) as usize], 1u64 << (offset % 64));
        if *word & bit == 0 {
            *word |= bit;
        } else {
            repeats.push(offset);
        }
    }
    repeats.sort_unstable();
    let mut repeats = repeats.into_iter().peekable();
    for (index, &word) in seen.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let offset = index as u64 * 64 + u64::from(bits.trailing_zeros());
            bits &= bits - 1;
            instants.push(at(offset));
            while repeats.next_if_eq(&offset).is_some() {
                instants.push(at(offset));
            }
        }
    }
    instants
}

#[cfg(test)]
mod tests {
    use super::*;
    use webtrace::campus::{generate_campus_trace, CampusProfile};

    /// Whether `file` changes after `wl`'s start and by its end.
    fn changes_inside(wl: &Workload, file: originserver::FileView<'_>) -> bool {
        file.first_change_after(wl.start)
            .is_some_and(|v| v.modified_at <= wl.end)
    }

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
            .filter(|(_, r)| changes_inside(&wl, *r))
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
            .filter(|&&(_, f)| changes_inside(&wl, wl.population.get(f)))
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
            .filter(|&&(_, f)| changes_inside(&wl, wl.population.get(f)))
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
        let pairs: Vec<_> = campus
            .trace
            .requests
            .iter()
            .map(|r| (r.time, r.file))
            .collect();
        assert_eq!(wl.requests, pairs);

        // Consumed, the trace's 16-byte stream becomes exactly 8 bytes a
        // request, and its population is the one behind the `Arc`.
        let n = campus.trace.request_count();
        let population = campus.trace.population.heap_tables();
        let owned = Workload::from_server_trace(campus.trace);
        assert_eq!(owned.requests, pairs);
        assert_eq!(owned.heap_tables()[0], ("requests", 8 * n));
        assert_eq!(owned.population.heap_tables(), population);
    }

    /// What `sorted_instants` replaces: every draw collected, then sorted.
    fn collected_and_sorted(rng: &mut DetRng, n: usize, start: u64, span: u64) -> Vec<u64> {
        let mut times: Vec<u64> = (0..n).map(|_| start + rng.below(span)).collect();
        times.sort_unstable();
        times
    }

    proptest::proptest! {
        /// The bit set against the sort it replaces, instant for instant,
        /// and the generator's state after it. Spans sit on and beside a
        /// word's edge, or are drawn up to 10^7 seconds; `n` is 0, 1, or
        /// drawn up to `4 * span` (capped at 200 000 draws to keep the
        /// debug build quick). A span of up to 1 000 seconds with `n` up
        /// to four times it makes most draws repeats.
        #[test]
        fn sorted_instants_are_the_collected_draws_sorted(
            span in proptest::prop_oneof![
                proptest::strategy::Just(1u64),
                proptest::strategy::Just(63u64),
                proptest::strategy::Just(64u64),
                proptest::strategy::Just(65u64),
                1u64..=1_000,
                1u64..=10_000_000,
            ],
            n_kind in 0u8..4,
            n_draw in 0u64..=u64::MAX,
            // The window's end, `start + span`, stays inside the horizon.
            start in 0u64..=u64::from(u32::MAX) - 10_000_000,
            seed in 0u64..=u64::MAX,
        ) {
            let n = match n_kind {
                0 => 0,
                1 => 1,
                _ => (n_draw % ((4 * span).min(200_000) + 1)) as usize,
            };
            let (mut by_bits, mut by_sort) = (DetRng::seed_from_u64(seed), DetRng::seed_from_u64(seed));
            let instants = sorted_instants(&mut by_bits, n, t(start), t(start + span));
            let times: Vec<u64> = instants.iter().map(|&(at, _)| at.as_secs()).collect();
            proptest::prop_assert_eq!(times, collected_and_sorted(&mut by_sort, n, start, span));
            proptest::prop_assert!(instants.iter().all(|&(_, f)| f == FileId::from_index(0)));
            proptest::prop_assert_eq!(by_bits, by_sort);
        }
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
        for k in [2, 3, 4, 7, 99, 100, 101] {
            let s = wl.clone().subsample(k);
            s.validate().unwrap();
            let kept: Vec<_> = wl.requests.iter().step_by(k).copied().collect();
            assert_eq!(s.requests, kept, "k = {k}");
            assert_eq!(s.heap_tables()[0], ("requests", 8 * kept.len()), "k = {k}");
            assert_eq!(s.name, format!("{} (1/{k})", wl.name));
        }
        assert_eq!(wl.clone().subsample(4).request_count(), 25);
        // k = 1 is the workload itself, down to the stream's buffer.
        let (requests, buffer) = (wl.requests.clone(), wl.requests.as_ptr());
        let same = wl.subsample(1);
        assert_eq!(same.requests.as_ptr(), buffer);
        assert_eq!(same.requests, requests);
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

    #[test]
    fn heap_tables_are_the_request_stream_and_the_classes() {
        let mut wl = tiny_workload(&[vec![], vec![105], vec![]], Vec::with_capacity(7));
        wl.requests.push((t(101), FileId(1)));
        assert_eq!(wl.heap_tables(), [("requests", 8 * 7), ("classes", 8 * 3)]);
    }

    /// The order the simulator used to build: every event copied into one
    /// Vec and stable-sorted by `(instant, fault before modification
    /// before request, file)` — the writes only when `writes` is set.
    fn fully_sorted(
        wl: &Workload,
        writes: bool,
        faults: &[(SimTime, Fault)],
    ) -> Vec<(SimTime, WorkloadEvent)> {
        let mut events: Vec<(SimTime, u8, FileId, WorkloadEvent)> = faults
            .iter()
            .map(|&(t, fault)| (t, 0, FileId::from_index(0), WorkloadEvent::Fault(fault)))
            .collect();
        for (t, f) in wl.population.all_modifications() {
            if writes && t >= wl.start && t <= wl.end {
                events.push((t, 1, f, WorkloadEvent::Modify(f)));
            }
        }
        for &(t, f) in &wl.requests {
            events.push((t, 2, f, WorkloadEvent::Request(f)));
        }
        events.sort_by_key(|&(t, kind, f, _)| (t, kind, f));
        events.into_iter().map(|(t, .., ev)| (t, ev)).collect()
    }

    #[test]
    fn the_window_counts_the_modifications_it_replays() {
        // One modification exactly on `start`, one exactly on `end`, one
        // just outside each: the count and the replay agree on four.
        let wl = tiny_workload(&[vec![99, 100, 105, 110, 111], vec![100]], Vec::new());
        let replayed = wl
            .schedule(true, &[])
            .filter(|(_, event)| matches!(event, WorkloadEvent::Modify(_)))
            .count();
        assert_eq!((wl.changes_in_window(), replayed), (4, 4));
    }

    #[test]
    #[should_panic(expected = "request 1 goes backwards in time")]
    fn a_request_stream_that_goes_backwards_in_time_is_rejected() {
        let f = FileId::from_index(0);
        let wl = tiny_workload(&[vec![]], vec![(t(105), f), (t(104), f)]);
        for (at, _) in wl.schedule(true, &[]) {
            assert_ne!(at, t(104), "the offending request was yielded");
        }
    }

    #[test]
    fn same_instant_requests_in_descending_file_order_fire_ascending() {
        let [a, b, c] = [0, 1, 2].map(FileId::from_index);
        let descending = vec![(t(101), c), (t(105), c), (t(105), b), (t(105), a)];
        let wl = tiny_workload(&[vec![], vec![105], vec![]], descending);
        let fired: Vec<_> = wl.schedule(true, &[]).collect();
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
        /// The merge against the sort it replaces, for every combination
        /// of streams: the requests alone, with the writes, with the
        /// faults, with both. Instants span 98..=111 around the
        /// `[100, 110]` window, so modifications land on `start`, on `end`
        /// and just outside, and collide with requests, faults and each
        /// other; requests and faults arrive in time order only.
        #[test]
        fn the_merged_schedule_is_the_fully_sorted_one(
            mod_masks in proptest::collection::vec(0u16..(1 << 14), 8..12),
            raw_requests in proptest::collection::vec((100u64..=110, 0usize..12), 0..60),
            raw_faults in proptest::collection::vec((96u64..=113, 0u8..2), 0..12),
        ) {
            let mut mods: Vec<Vec<u64>> = mod_masks
                .iter()
                .map(|mask| (0..14).filter(|bit| mask >> bit & 1 == 1).map(|bit| 98 + bit).collect())
                .collect();
            // Forced: the window's edges and their outer neighbours, a
            // modification and a request on one instant, several requests
            // on one instant out of file order, a run of eight in
            // descending file order that ends the stream, a run already
            // in file order (instant 103 is kept for it alone), and a
            // fault on the instant of a modification and its requests.
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
            let mut faults: Vec<(SimTime, Fault)> = raw_faults
                .iter()
                .map(|&(at, down)| (t(at), if down == 1 { Fault::ChannelDown } else { Fault::ChannelUp }))
                .chain([(t(105), Fault::ChannelDown)])
                .collect();
            faults.sort_by_key(|&(at, _)| at);

            for (writes, faults) in [(false, &[][..]), (true, &[][..]), (false, &faults[..]), (true, &faults[..])] {
                let expected = fully_sorted(&wl, writes, faults);
                let mut schedule = wl.schedule(writes, faults);
                for (done, event) in expected.iter().enumerate() {
                    proptest::prop_assert_eq!(schedule.len(), expected.len() - done);
                    proptest::prop_assert_eq!(schedule.next(), Some(*event));
                }
                proptest::prop_assert_eq!(schedule.len(), 0);
                proptest::prop_assert_eq!(schedule.next(), None);
            }
        }
    }
}
