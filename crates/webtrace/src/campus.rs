//! Synthetic campus-server traces calibrated to Table 1.
//!
//! The paper's modified-workload simulator replays one-month logs from
//! three Harvard servers (DAS, FAS, HCS). The logs themselves are not
//! available, so this module generates traces that pin every statistic
//! Table 1 reports — file count, request count, % remote, total changes,
//! % mutable, % very mutable — and additionally embed the two workload
//! properties §4.2 identifies as decisive:
//!
//! * **bimodal lifetimes** — mutable files change in concentrated bursts;
//!   everything else stays untouched;
//! * **the Bestavros anticorrelation** — popularity is Zipf-distributed and
//!   mutability is assigned preferentially to *unpopular* files ("globally
//!   popular files are the least likely to change").
//!
//! Interpretation note: Table 1's caption defines mutable as "observed to
//! change more than once" and very mutable as "more than 5 times", but the
//! row values are mutually inconsistent under the strict reading (e.g. HCS:
//! 134 mutable files with ≥2 changes, 30 of them with ≥6, would require
//! ≥388 changes, yet the table reports 260). The weakest reading that makes all
//! three rows feasible is **mutable = changed at least once, very mutable
//! = changed at least five times**; the generators and analyzers use that
//! reading, and EXPERIMENTS.md records the discrepancy.

use originserver::{FilePopulation, FileRecord};
use simcore::{ClientId, SimDuration, SimTime};
use simstats::{DetRng, LogNormalDist, Sampler, ZipfDist};

use crate::trace::{ServerTrace, TraceRequest};
use crate::types::FileType;

/// Observed changes needed to count as *mutable*.
pub const MUTABLE_MIN_CHANGES: usize = 1;
/// Observed changes needed to count as *very mutable*.
pub const VERY_MUTABLE_MIN_CHANGES: usize = 5;

/// Calibration targets for one campus server (one Table 1 row).
#[derive(Debug, Clone, PartialEq)]
pub struct CampusProfile {
    /// Server name (Table 1 row label).
    pub name: &'static str,
    /// Number of files present for the whole period.
    pub files: usize,
    /// Number of requests in the log.
    pub requests: usize,
    /// Fraction of requests from outside the campus domain.
    pub remote_fraction: f64,
    /// Total modifications over the period.
    pub total_changes: usize,
    /// Fraction of files that change at all.
    pub mutable_fraction: f64,
    /// Fraction of files that change ≥ 5 times.
    pub very_mutable_fraction: f64,
    /// Observation period.
    pub duration: SimDuration,
    /// Zipf exponent of request popularity.
    pub zipf_exponent: f64,
}

impl CampusProfile {
    /// DAS — Division of Applied Sciences server.
    pub fn das() -> Self {
        CampusProfile {
            name: "DAS",
            files: 1403,
            requests: 30_093,
            remote_fraction: 0.84,
            total_changes: 321,
            mutable_fraction: 0.0683,
            very_mutable_fraction: 0.0261,
            duration: SimDuration::from_days(30),
            zipf_exponent: 1.0,
        }
    }

    /// FAS — the university Web server (most popular, least mutable).
    pub fn fas() -> Self {
        CampusProfile {
            name: "FAS",
            files: 290,
            requests: 56_660,
            remote_fraction: 0.39,
            total_changes: 11,
            mutable_fraction: 0.0241,
            very_mutable_fraction: 0.0,
            duration: SimDuration::from_days(30),
            zipf_exponent: 1.0,
        }
    }

    /// HCS — the computer-society server (most mutable; §4.2 derives its
    /// 1.8 %/day change probability from 573 files changing 260 times over
    /// 25 days).
    pub fn hcs() -> Self {
        CampusProfile {
            name: "HCS",
            files: 573,
            requests: 32_546,
            remote_fraction: 0.50,
            total_changes: 260,
            mutable_fraction: 0.233,
            very_mutable_fraction: 0.0522,
            duration: SimDuration::from_days(25),
            zipf_exponent: 1.0,
        }
    }

    /// The three campus profiles in Table 1 order (DAS, FAS, HCS).
    pub fn all() -> Vec<CampusProfile> {
        vec![Self::das(), Self::fas(), Self::hcs()]
    }

    /// Number of mutable files implied by the fractions (rounded).
    pub fn mutable_files(&self) -> usize {
        (self.mutable_fraction * self.files as f64).round() as usize
    }

    /// Number of very-mutable files implied by the fractions (rounded).
    pub fn very_mutable_files(&self) -> usize {
        (self.very_mutable_fraction * self.files as f64).round() as usize
    }

    /// The feasibility floor: minimum total changes compatible with the
    /// mutability class counts.
    pub fn min_feasible_changes(&self) -> usize {
        let very = self.very_mutable_files();
        let plain = self.mutable_files().saturating_sub(very);
        very * VERY_MUTABLE_MIN_CHANGES + plain * MUTABLE_MIN_CHANGES
    }

    /// The change count the generator will actually realise: the target,
    /// raised to the feasibility floor if a published row were internally
    /// inconsistent (none is, under the weak mutability reading).
    pub fn realised_changes(&self) -> usize {
        self.total_changes.max(self.min_feasible_changes())
    }
}

/// Per-file ground truth produced alongside the trace (used by tests and
/// the workload ablations).
#[derive(Debug, Clone)]
pub struct CampusFileInfo {
    /// Content class.
    pub file_type: FileType,
    /// Popularity rank (0 = most requested).
    pub popularity_rank: usize,
    /// Scheduled modification count.
    pub changes: usize,
}

/// A generated campus trace plus its ground truth.
#[derive(Debug, Clone)]
pub struct CampusTrace {
    /// The replayable trace.
    pub trace: ServerTrace,
    /// Per-file ground truth, indexed like the population.
    pub info: Vec<CampusFileInfo>,
}

/// File-type mix for campus content (server-side, so more HTML-heavy than
/// the Microsoft proxy's access mix).
const CAMPUS_TYPE_WEIGHTS: [(FileType, f64); 5] = [
    (FileType::Html, 0.45),
    (FileType::Gif, 0.30),
    (FileType::Jpg, 0.10),
    (FileType::Cgi, 0.05),
    (FileType::Other, 0.10),
];

/// Relative request intensity per hour of day (0h..23h): quiet before
/// dawn, climbing through the morning, peaking mid-afternoon and again in
/// the evening — the shape campus servers of the era reported.
const DIURNAL_HOUR_WEIGHTS: [f64; 24] = [
    0.35, 0.25, 0.2, 0.15, 0.15, 0.2, 0.3, 0.5, 0.8, 1.1, 1.3, 1.4, //
    1.3, 1.4, 1.5, 1.5, 1.4, 1.3, 1.2, 1.3, 1.4, 1.3, 1.0, 0.6,
];

/// Mean entity size per type, bytes (Table 2, Microsoft columns).
fn mean_size(t: FileType) -> f64 {
    match t {
        FileType::Gif => 7_791.0,
        FileType::Html => 4_786.0,
        FileType::Jpg => 21_608.0,
        FileType::Cgi => 5_980.0,
        FileType::Other => 8_000.0,
    }
}

/// Generate a campus trace matching `profile` exactly on every Table 1
/// statistic (subject to the feasibility note above), deterministically
/// from `seed`.
pub fn generate_campus_trace(profile: &CampusProfile, seed: u64) -> CampusTrace {
    let master = DetRng::seed_from_u64(seed);
    let mut rng_assign = master.derive_stream("assignment");
    let mut rng_mods = master.derive_stream("modifications");
    let mut rng_req = master.derive_stream("requests");
    let mut rng_size = master.derive_stream("sizes");

    let n = profile.files;
    let start = SimTime::from_secs(0) + SimDuration::from_days(365); // leave room for pre-trace ages
    let end = start + profile.duration;

    // --- 1. Popularity ranks and mutability classes -------------------
    // Rank r = r-th most popular. Mutability goes to unpopular ranks with
    // jitter: sort ranks by (n - rank) + noise and take the top slice.
    let n_very = profile.very_mutable_files();
    let n_mutable = profile.mutable_files().max(n_very);
    let mut keyed: Vec<(f64, usize)> = (0..n)
        .map(|rank| {
            let noise = rng_assign.unit_f64() * 0.45 * n as f64;
            (rank as f64 + noise, rank)
        })
        .collect();
    // Highest key = least popular (greatest rank) modulo jitter.
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
    let mutable_ranks: Vec<usize> = keyed[..n_mutable].iter().map(|&(_, r)| r).collect();

    // --- 2. Change-count allocation ------------------------------------
    // Floors first, then round-robin the remainder (plain mutable files are
    // capped below the very-mutable threshold so class counts stay exact).
    let total_changes = profile.realised_changes();
    let mut changes = vec![0usize; n];
    for (i, &rank) in mutable_ranks.iter().enumerate() {
        changes[rank] = if i < n_very {
            VERY_MUTABLE_MIN_CHANGES
        } else {
            MUTABLE_MIN_CHANGES
        };
    }
    let mut remaining = total_changes - changes.iter().sum::<usize>();
    let plain_cap = VERY_MUTABLE_MIN_CHANGES - 1;
    while remaining > 0 {
        let mut progressed = false;
        for (i, &rank) in mutable_ranks.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let is_very = i < n_very;
            if is_very || changes[rank] < plain_cap {
                changes[rank] += 1;
                remaining -= 1;
                progressed = true;
            }
        }
        assert!(
            progressed || remaining == 0,
            "change allocation stuck: {} changes cannot be placed",
            remaining
        );
        if !progressed {
            break;
        }
    }

    // --- 3. File records: types, sizes, pre-trace ages, change bursts --
    let type_table = simstats::AliasTable::new(&CAMPUS_TYPE_WEIGHTS.map(|(_, w)| w));
    let mut population = FilePopulation::new();
    let mut info = Vec::with_capacity(n);
    for (rank, &file_changes) in changes.iter().enumerate().take(n) {
        let file_type = CAMPUS_TYPE_WEIGHTS[type_table.sample(&mut rng_assign)].0;
        let size = sample_size(file_type, &mut rng_size);

        // Pre-trace age: stable files are old, volatile files young — the
        // Alex protocol's core assumption.
        let median_age_days = match file_changes {
            0 => 150.0,
            c if c >= VERY_MUTABLE_MIN_CHANGES => 2.0,
            _ => 15.0,
        };
        let age_days = LogNormalDist::with_median(median_age_days, 0.8)
            .sample(&mut rng_assign)
            .clamp(0.05, 360.0);
        let created = start - SimDuration::from_secs((age_days * 86_400.0).round() as u64);
        let mut record = FileRecord::new(
            format!(
                "/{}/f{rank}.{}",
                profile.name.to_lowercase(),
                file_type.extension()
            ),
            created,
            size,
        );

        // Bimodal change timing: all of a file's changes land in one burst
        // window — short for very-mutable files, wider for the rest.
        if file_changes > 0 {
            let seconds = profile.duration.as_secs() + 1;
            assert!(
                file_changes as u64 <= seconds,
                "change allocation stuck: file {rank} needs {file_changes} distinct seconds, \
                 the trace has {seconds}"
            );
            let burst_frac = if file_changes >= VERY_MUTABLE_MIN_CHANGES {
                0.5
            } else {
                0.8
            };
            let burst_len = profile.duration.mul_f64(burst_frac);
            let latest_start = profile.duration - burst_len;
            let burst_start =
                start + SimDuration::from_secs(rng_mods.below(latest_start.as_secs().max(1)));
            let mut times: Vec<u64> = (0..file_changes)
                .map(|_| burst_start.as_secs() + rng_mods.below(burst_len.as_secs().max(1)))
                .collect();
            times.sort_unstable();
            // Enforce strict monotonicity at one-second resolution...
            for i in 1..times.len() {
                if times[i] <= times[i - 1] {
                    times[i] = times[i - 1] + 1;
                }
            }
            // ...inside the window: a tail pushed past `end` is re-packed
            // backwards from it, one second apart.
            let mut ceiling = end.as_secs() + 1;
            for tm in times.iter_mut().rev() {
                if *tm < ceiling {
                    break;
                }
                ceiling -= 1;
                *tm = ceiling;
            }
            for tm in times {
                record.push_modification(
                    SimTime::from_secs(tm),
                    sample_size(file_type, &mut rng_size),
                );
            }
        }
        population.add(record);
        info.push(CampusFileInfo {
            file_type,
            popularity_rank: rank,
            changes: file_changes,
        });
    }

    // --- 4. Request stream ---------------------------------------------
    // Timestamps follow a diurnal profile (campus traffic peaks in the
    // afternoon and evening, troughs before dawn); files by Zipf rank;
    // remote flags exact-count (round(remote_fraction × requests)
    // requests are remote).
    let zipf = ZipfDist::new(n, profile.zipf_exponent);
    let hour_table = simstats::AliasTable::new(&DIURNAL_HOUR_WEIGHTS);
    let days = profile.duration.as_secs() / 86_400;
    // The transient tables are 4 bytes an entry (`SimTime`, `u32`) and
    // the permutation is gone before the 16-byte stream is built.
    let mut times: Vec<SimTime> = (0..profile.requests)
        .map(|_| {
            let day = rng_req.below(days.max(1));
            let hour = hour_table.sample(&mut rng_req) as u64;
            let sec = rng_req.below(3_600);
            (start + SimDuration::from_secs(day * 86_400 + hour * 3_600 + sec)).min(end)
        })
        .collect();
    times.sort_unstable();
    let n_remote = (profile.remote_fraction * profile.requests as f64).round() as usize;
    // Deterministic exact remote assignment: a shuffled index permutation.
    let count = u32::try_from(profile.requests).expect("a campus trace indexes requests in u32");
    let mut perm: Vec<u32> = (0..count).collect();
    for i in (1..perm.len()).rev() {
        let j = rng_req.below((i + 1) as u64) as usize;
        perm.swap(i, j);
    }
    let mut remote_flags = vec![false; profile.requests];
    for &idx in perm.iter().take(n_remote) {
        remote_flags[idx as usize] = true;
    }
    drop(perm);
    let requests: Vec<TraceRequest> = times
        .into_iter()
        .zip(remote_flags)
        .map(|(time, remote)| {
            let rank = zipf.sample(&mut rng_req);
            let client = if remote {
                ClientId(1000 + rng_req.below(2000) as u32)
            } else {
                ClientId(rng_req.below(200) as u32)
            };
            TraceRequest {
                time,
                client,
                remote,
                file: simcore::FileId::from_index(rank),
            }
        })
        .collect();

    let trace = ServerTrace {
        name: profile.name.to_string(),
        start,
        duration: profile.duration,
        population,
        requests,
    };
    debug_assert_eq!(trace.validate(), Ok(()));
    CampusTrace { trace, info }
}

fn sample_size(file_type: FileType, rng: &mut DetRng) -> u64 {
    // Log-normal around the type's Table 2 mean; sigma 0.7 gives the
    // right-skew observed in real content while keeping the mean anchored.
    let sigma: f64 = 0.7;
    let mean = mean_size(file_type);
    let mu = mean.ln() - sigma * sigma / 2.0;
    (LogNormalDist::new(mu, sigma).sample(rng).round() as u64).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One file with 40 changes to place in a 60 s trace: its burst has
    /// 30 seconds, so de-duplicating pushes the tail past the end.
    fn tiny_profile(duration_secs: u64) -> CampusProfile {
        CampusProfile {
            name: "TINY",
            files: 10,
            requests: 100,
            remote_fraction: 0.5,
            total_changes: 40,
            mutable_fraction: 0.1,
            very_mutable_fraction: 0.1,
            duration: SimDuration::from_secs(duration_secs),
            zipf_exponent: 1.0,
        }
    }

    #[test]
    fn a_burst_with_more_changes_than_seconds_is_packed_inside_the_trace() {
        let campus = generate_campus_trace(&tiny_profile(60), 1);
        let trace = &campus.trace;
        trace.validate().unwrap();
        let (_, busy) = trace
            .population
            .iter()
            .max_by_key(|(_, f)| f.modification_count())
            .unwrap();
        assert_eq!(busy.modification_count(), 40);
        let changes: Vec<_> = busy.versions().skip(1).collect();
        assert!(changes
            .windows(2)
            .all(|w| w[0].modified_at < w[1].modified_at));
        assert!(changes[0].modified_at >= trace.start);
        assert_eq!(changes[39].modified_at, trace.end());
    }

    #[test]
    #[should_panic(expected = "change allocation stuck")]
    fn a_file_needing_more_seconds_than_the_trace_has_is_rejected() {
        generate_campus_trace(&tiny_profile(30), 1);
    }

    #[test]
    fn profiles_match_table1_constants() {
        let das = CampusProfile::das();
        assert_eq!(
            (das.files, das.requests, das.total_changes),
            (1403, 30_093, 321)
        );
        let fas = CampusProfile::fas();
        assert_eq!(
            (fas.files, fas.requests, fas.total_changes),
            (290, 56_660, 11)
        );
        let hcs = CampusProfile::hcs();
        assert_eq!(
            (hcs.files, hcs.requests, hcs.total_changes),
            (573, 32_546, 260)
        );
        assert_eq!(hcs.duration, SimDuration::from_days(25));
    }

    #[test]
    fn all_rows_feasible_under_weak_reading() {
        // Under the strict caption reading (mutable = ">once", very =
        // ">5 times") the rows are infeasible; under the weak reading
        // (>=1 / >=5) all three are feasible as published.
        for p in CampusProfile::all() {
            assert!(
                p.min_feasible_changes() <= p.total_changes,
                "{}: floor {} > published {}",
                p.name,
                p.min_feasible_changes(),
                p.total_changes
            );
            assert_eq!(p.realised_changes(), p.total_changes);
        }
    }

    #[test]
    fn generated_trace_validates_and_matches_counts() {
        for profile in CampusProfile::all() {
            let generated = generate_campus_trace(&profile, 42);
            let tr = &generated.trace;
            tr.validate().unwrap();
            assert_eq!(tr.population.len(), profile.files, "{}", profile.name);
            assert_eq!(tr.request_count(), profile.requests, "{}", profile.name);
            let total: usize = tr
                .population
                .iter()
                .map(|(_, r)| r.modification_count())
                .sum();
            assert_eq!(total, profile.realised_changes(), "{}", profile.name);
        }
    }

    #[test]
    fn mutability_class_counts_are_exact() {
        for profile in CampusProfile::all() {
            let generated = generate_campus_trace(&profile, 7);
            let mutable = generated
                .info
                .iter()
                .filter(|i| i.changes >= MUTABLE_MIN_CHANGES)
                .count();
            let very = generated
                .info
                .iter()
                .filter(|i| i.changes >= VERY_MUTABLE_MIN_CHANGES)
                .count();
            assert_eq!(mutable, profile.mutable_files(), "{}", profile.name);
            assert_eq!(very, profile.very_mutable_files(), "{}", profile.name);
        }
    }

    #[test]
    fn remote_fraction_is_exact_to_rounding() {
        let profile = CampusProfile::das();
        let generated = generate_campus_trace(&profile, 3);
        let remote = generated.trace.requests.iter().filter(|r| r.remote).count();
        assert_eq!(
            remote,
            (profile.remote_fraction * profile.requests as f64).round() as usize
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_campus_trace(&CampusProfile::fas(), 99);
        let b = generate_campus_trace(&CampusProfile::fas(), 99);
        assert_eq!(a.trace.requests, b.trace.requests);
        assert_eq!(a.trace.to_log(), b.trace.to_log());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_campus_trace(&CampusProfile::fas(), 1);
        let b = generate_campus_trace(&CampusProfile::fas(), 2);
        assert_ne!(a.trace.to_log(), b.trace.to_log());
    }

    #[test]
    fn popular_files_change_less() {
        // The Bestavros anticorrelation: mean popularity rank of mutable
        // files must sit well above (less popular than) the overall mean.
        let generated = generate_campus_trace(&CampusProfile::hcs(), 11);
        let n = generated.info.len() as f64;
        let mutable_mean: f64 = {
            let ranks: Vec<f64> = generated
                .info
                .iter()
                .filter(|i| i.changes > 0)
                .map(|i| i.popularity_rank as f64)
                .collect();
            ranks.iter().sum::<f64>() / ranks.len() as f64
        };
        assert!(
            mutable_mean > 0.6 * n,
            "mutable files should be unpopular: mean rank {mutable_mean} of {n}"
        );
    }

    #[test]
    fn anticorrelation_is_measurable() {
        // Quantify the Bestavros rule: request count per file correlates
        // *negatively* with change count.
        let generated = generate_campus_trace(&CampusProfile::hcs(), 19);
        let n = generated.trace.population.len();
        let mut req_counts = vec![0.0f64; n];
        for r in &generated.trace.requests {
            req_counts[r.file.index()] += 1.0;
        }
        let changes: Vec<f64> = generated.info.iter().map(|i| i.changes as f64).collect();
        let r = simstats::pearson(&req_counts, &changes).expect("non-degenerate");
        assert!(
            r < -0.02,
            "popularity-mutability correlation {r} not negative"
        );
    }

    #[test]
    fn change_probability_matches_paper_rate() {
        // §4.2: HCS ≈ 1.8 %/day per-file change probability; the realised
        // trace (283 changes, 573 files, 25 days) gives ≈2.0 %/day, inside
        // Bestavros' 0.5–2.0 % band.
        let profile = CampusProfile::hcs();
        let generated = generate_campus_trace(&profile, 5);
        let total: usize = generated
            .trace
            .population
            .iter()
            .map(|(_, r)| r.modification_count())
            .sum();
        let per_day = total as f64 / (profile.files as f64 * profile.duration.as_days_f64());
        assert!(
            (0.005..=0.025).contains(&per_day),
            "per-day change probability {per_day}"
        );
    }

    #[test]
    fn mutable_files_are_younger() {
        let generated = generate_campus_trace(&CampusProfile::das(), 13);
        let start = generated.trace.start;
        let mean_age = |pred: &dyn Fn(&CampusFileInfo) -> bool| -> f64 {
            let ages: Vec<f64> = generated
                .info
                .iter()
                .enumerate()
                .filter(|(_, i)| pred(i))
                .map(|(idx, _)| {
                    let rec = generated
                        .trace
                        .population
                        .get(simcore::FileId::from_index(idx));
                    start.saturating_since(rec.created_at()).as_days_f64()
                })
                .collect();
            ages.iter().sum::<f64>() / ages.len() as f64
        };
        let stable_age = mean_age(&|i| i.changes == 0);
        let volatile_age = mean_age(&|i| i.changes >= VERY_MUTABLE_MIN_CHANGES);
        assert!(
            volatile_age < stable_age / 2.0,
            "volatile {volatile_age}d vs stable {stable_age}d"
        );
    }

    #[test]
    fn request_stream_is_diurnal() {
        let generated = generate_campus_trace(&CampusProfile::das(), 17);
        let (mut day, mut night) = (0u32, 0u32);
        for r in &generated.trace.requests {
            let hour = (r.time.as_secs() % 86_400) / 3_600;
            if (9..23).contains(&hour) {
                day += 1;
            } else if hour < 6 {
                night += 1;
            }
        }
        // 14 daytime hours vs 6 pre-dawn hours: under the diurnal profile
        // the per-hour daytime rate is several times the night rate.
        let day_rate = f64::from(day) / 14.0;
        let night_rate = f64::from(night) / 6.0;
        assert!(
            day_rate > 3.0 * night_rate,
            "day {day_rate}/h vs night {night_rate}/h"
        );
    }

    #[test]
    fn log_round_trip_preserves_request_count() {
        let generated = generate_campus_trace(&CampusProfile::fas(), 21);
        let log = generated.trace.to_log();
        let rebuilt = ServerTrace::from_log("FAS", &log).unwrap();
        assert_eq!(rebuilt.request_count(), generated.trace.request_count());
        // Observed (log-visible) changes never exceed ground truth.
        let observed: usize = rebuilt
            .population
            .iter()
            .map(|(_, r)| r.modification_count())
            .sum();
        let truth: usize = generated
            .trace
            .population
            .iter()
            .map(|(_, r)| r.modification_count())
            .sum();
        assert!(observed <= truth);
    }
}
