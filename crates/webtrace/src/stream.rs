//! Pull-based request streams: replay traces without materializing them.
//!
//! The eager generators ([`crate::campus`], [`crate::microsoft`],
//! [`crate::bu`]) build a whole `Vec` of requests before anything can
//! consume one — fine for the paper-scale traces (tens of thousands of
//! records) but the wrong shape for open-loop replay of *millions* of
//! records through the live stack. This module provides the streaming
//! seam: an `Iterator<Item = TraceRequest>` that produces each record on
//! demand, in time order, with O(files) setup and O(1) memory per
//! record.
//!
//! The source is [`synthetic_stream`], a lazy synthetic trace. The file
//! population (with its scripted modification history) is built eagerly
//! — the origin needs the full script before it can serve — but
//! arrivals are walked forward one exponential gap at a time, so they
//! come out sorted by construction and the request list never exists in
//! memory. Profiles adapt the calibrated campus (Table 1), Microsoft
//! (Table 2 access mix), and BU (Table 2 lifetimes) generators.
//!
//! Streams are deterministic: the same config and seed yield the same
//! record sequence on every pull, regardless of how the consumer is
//! scheduled — the property the open-loop driver's determinism proptest
//! pins down.
//!
//! The eager generators are pinned by golden determinism tests (campus
//! request times are generated *then sorted*, which a lazy iterator
//! cannot reproduce bit-for-bit), so the streaming generators are a new
//! surface with their own calibration rather than a refactor.

use std::sync::Arc;

use originserver::{FilePopulation, FileRecord};
use simcore::{ClientId, FileId, SimDuration, SimTime};
use simstats::{AliasTable, DetRng, ExponentialDist, LogNormalDist, Sampler, ZipfDist};

use crate::bu::STUDY_DAYS;
use crate::campus::CampusProfile;
use crate::microsoft::MicrosoftProfile;
use crate::trace::TraceRequest;
use crate::types::FileType;

/// Everything a replay driver needs *besides* the request stream: the
/// origin's file set (with full modification script), per-file classes,
/// and the observation window the stream's arrivals fall into.
#[derive(Debug, Clone)]
pub struct StreamMeta {
    /// Trace label for reports.
    pub name: String,
    /// Window start; the first arrival is at or after this instant.
    pub start: SimTime,
    /// Window end; no arrival is later than this.
    pub end: SimTime,
    /// File set with scripted modification histories.
    pub population: Arc<FilePopulation>,
    /// Per-file content class ([`FileType::class_index`]).
    pub classes: Vec<usize>,
    /// Arrivals the stream will yield.
    pub requests: u64,
}

/// Calibration for one [`synthetic_stream`]: the aggregate statistics
/// of the trace, without its realization.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticStreamConfig {
    /// Trace label.
    pub name: String,
    /// Files in the population.
    pub files: usize,
    /// Arrivals to stream.
    pub requests: u64,
    /// Observation window length.
    pub duration: SimDuration,
    /// Zipf exponent of request popularity.
    pub zipf_exponent: f64,
    /// Fraction of requests from outside the local domain.
    pub remote_fraction: f64,
    /// Fraction of files that are modified during the window.
    pub mutable_fraction: f64,
    /// Total scripted modifications across the window.
    pub total_changes: usize,
    /// Content-class share per type (gif, html, jpg, cgi, other).
    pub type_shares: [f64; 5],
    /// Master seed; every derived stream is labelled off it.
    pub seed: u64,
}

impl SyntheticStreamConfig {
    /// A streaming profile matching a campus server's Table 1 row,
    /// optionally scaled to `requests` arrivals (pass the profile's own
    /// request count to keep the published intensity).
    pub fn campus(profile: &CampusProfile, requests: u64, seed: u64) -> Self {
        SyntheticStreamConfig {
            name: format!("{}-stream", profile.name),
            files: profile.files,
            requests,
            duration: profile.duration,
            zipf_exponent: profile.zipf_exponent,
            remote_fraction: profile.remote_fraction,
            mutable_fraction: profile.mutable_fraction,
            // Scale the modification budget with the request budget so a
            // longer replay keeps the published change intensity.
            total_changes: scale_changes(profile.total_changes, profile.requests, requests),
            type_shares: [0.30, 0.45, 0.10, 0.05, 0.10],
            seed,
        }
    }

    /// A streaming profile with the Microsoft proxy's access mix
    /// (Table 2): image-heavy type shares, one-day window, popularity
    /// concentrated as a proxy log's is. The real log had no
    /// last-modified data, so mutability here is a nominal 5 % —
    /// enough to exercise consistency traffic without inventing a
    /// lifetime study the paper did not have.
    pub fn microsoft(profile: &MicrosoftProfile, files: usize, seed: u64) -> Self {
        SyntheticStreamConfig {
            name: "microsoft-stream".to_string(),
            files,
            requests: profile.requests as u64,
            duration: SimDuration::from_days(1),
            zipf_exponent: 1.0,
            remote_fraction: 1.0, // a proxy's clients are all "remote"
            mutable_fraction: 0.05,
            total_changes: files / 10,
            type_shares: profile.type_shares,
            seed,
        }
    }

    /// A streaming profile shaped by the BU modification study
    /// (Table 2): ≈2,500 files observed for 186 days with ≈14,000
    /// changes. The study recorded modifications, not requests, so the
    /// request budget is the caller's; the change intensity is the
    /// study's.
    pub fn bu(requests: u64, seed: u64) -> Self {
        SyntheticStreamConfig {
            name: "bu-stream".to_string(),
            files: 2_500,
            requests,
            duration: SimDuration::from_days(u64::from(STUDY_DAYS)),
            zipf_exponent: 1.0,
            remote_fraction: 0.5,
            mutable_fraction: 0.63, // share of files with ≥1 observed change
            total_changes: 14_000,
            type_shares: [0.42, 0.34, 0.12, 0.06, 0.06],
            seed,
        }
    }
}

fn scale_changes(changes: usize, base_requests: usize, requests: u64) -> usize {
    if base_requests == 0 {
        return changes;
    }
    let scaled = (changes as f64 * requests as f64 / base_requests as f64).round() as usize;
    scaled.max(1)
}

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

fn sample_size(file_type: FileType, rng: &mut DetRng) -> u64 {
    let sigma: f64 = 0.7;
    let mean = mean_size(file_type);
    let mu = mean.ln() - sigma * sigma / 2.0;
    (LogNormalDist::new(mu, sigma).sample(rng).round() as u64).max(64)
}

/// Build the population and the lazy arrival stream for `config`.
///
/// Setup is O(files + total_changes): the population and its
/// modification script exist eagerly (the origin needs the full script
/// to publish invalidations), but arrivals are produced one at a time
/// by [`SyntheticRequestStream::next`].
pub fn synthetic_stream(config: &SyntheticStreamConfig) -> (StreamMeta, SyntheticRequestStream) {
    let master = DetRng::seed_from_u64(config.seed);
    let mut rng_assign = master.derive_stream("stream-assignment");
    let mut rng_mods = master.derive_stream("stream-modifications");

    let start = SimTime::ZERO + SimDuration::from_days(365); // room for pre-trace ages
    let end = start + config.duration;
    let n = config.files.max(1);

    // Mutability goes to the *unpopular* tail (the Bestavros
    // anticorrelation, §4.2): the last `mutable` ranks of the Zipf
    // order.
    let mutable = ((config.mutable_fraction * n as f64).round() as usize).min(n);
    let first_mutable = n - mutable;

    let type_table = AliasTable::new(&config.type_shares);
    let mut records = Vec::with_capacity(n);
    let mut classes = Vec::with_capacity(n);
    for rank in 0..n {
        let file_type = FileType::ALL[type_table.sample(&mut rng_assign)];
        let size = sample_size(file_type, &mut rng_assign);
        let age_days = LogNormalDist::with_median(60.0, 0.8)
            .sample(&mut rng_assign)
            .clamp(0.05, 360.0);
        let created = start - SimDuration::from_secs((age_days * 86_400.0).round() as u64);
        records.push(FileRecord::new(
            format!("/{}/f{rank}.{}", config.name, file_type.extension()),
            created,
            size,
        ));
        classes.push(file_type.class_index());
    }

    // Spread the change budget over the mutable tail, round-robin, with
    // uniformly drawn in-window instants per file (sorted, strictly
    // monotonic at one-second resolution).
    if mutable > 0 && config.total_changes > 0 {
        let mut per_file = vec![0usize; mutable];
        for i in 0..config.total_changes {
            per_file[i % mutable] += 1;
        }
        let window = config.duration.as_secs().max(1);
        for (slot, &count) in per_file.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let rank = first_mutable + slot;
            let mut times: Vec<u64> = (0..count)
                .map(|_| start.as_secs() + rng_mods.below(window))
                .collect();
            times.sort_unstable();
            for i in 1..times.len() {
                if times[i] <= times[i - 1] {
                    times[i] = times[i - 1] + 1;
                }
            }
            let file_type = FileType::from_class_index(classes[rank]);
            for t in times {
                let size = sample_size(file_type, &mut rng_mods);
                records[rank].push_modification(SimTime::from_secs(t), size);
            }
        }
    }

    let meta = StreamMeta {
        name: config.name.clone(),
        start,
        end,
        population: Arc::new(records.into_iter().collect()),
        classes,
        requests: config.requests,
    };
    let stream = SyntheticRequestStream {
        rng: master.derive_stream("stream-requests"),
        zipf: ZipfDist::new(n, config.zipf_exponent),
        gap: ExponentialDist::with_mean(
            (config.duration.as_secs().max(1) as f64 / config.requests.max(1) as f64).max(1e-9),
        ),
        remote_fraction: config.remote_fraction,
        clock_secs: start.as_secs() as f64,
        end_secs: end.as_secs(),
        remaining: config.requests,
    };
    (meta, stream)
}

/// The lazy arrival stream of a [`synthetic_stream`]: each `next` draws
/// one exponential interarrival gap (so arrivals are sorted by
/// construction), one Zipf popularity rank, and one client identity.
#[derive(Debug, Clone)]
pub struct SyntheticRequestStream {
    rng: DetRng,
    zipf: ZipfDist,
    gap: ExponentialDist,
    remote_fraction: f64,
    clock_secs: f64,
    end_secs: u64,
    remaining: u64,
}

impl SyntheticRequestStream {
    /// Arrivals not yet produced.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl Iterator for SyntheticRequestStream {
    type Item = TraceRequest;

    fn next(&mut self) -> Option<TraceRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.clock_secs += self.gap.sample(&mut self.rng);
        let time = SimTime::from_secs((self.clock_secs as u64).min(self.end_secs));
        let rank = self.zipf.sample(&mut self.rng);
        let remote = self.rng.chance(self.remote_fraction);
        let client = if remote {
            ClientId(1000 + self.rng.below(2000) as u32)
        } else {
            ClientId(self.rng.below(200) as u32)
        };
        Some(TraceRequest {
            time,
            client,
            remote,
            file: FileId::from_index(rank),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn das_config(requests: u64) -> SyntheticStreamConfig {
        SyntheticStreamConfig::campus(&CampusProfile::das(), requests, 1996)
    }

    #[test]
    fn synthetic_stream_is_sorted_in_window_and_exact_count() {
        let (meta, stream) = synthetic_stream(&das_config(5_000));
        assert_eq!(meta.requests, 5_000);
        assert_eq!(meta.classes.len(), meta.population.len());
        let mut prev = SimTime::ZERO;
        let mut count = 0u64;
        for r in stream {
            assert!(r.time >= prev, "arrivals must be sorted");
            assert!(r.time >= meta.start && r.time <= meta.end);
            assert!(r.file.index() < meta.population.len());
            assert!(
                meta.population.get(r.file).version_at(r.time).is_some(),
                "file must exist at request time"
            );
            prev = r.time;
            count += 1;
        }
        assert_eq!(count, 5_000);
    }

    #[test]
    fn synthetic_stream_is_deterministic_across_pulls() {
        let (_, a) = synthetic_stream(&das_config(2_000));
        let (_, b) = synthetic_stream(&das_config(2_000));
        assert!(a.eq(b));
    }

    #[test]
    fn synthetic_stream_remote_share_tracks_the_profile() {
        let cfg = das_config(20_000);
        let (_, stream) = synthetic_stream(&cfg);
        let remote = stream.filter(|r| r.remote).count() as f64 / 20_000.0;
        assert!((remote - cfg.remote_fraction).abs() < 0.02, "{remote}");
    }

    #[test]
    fn synthetic_population_carries_the_change_budget() {
        let cfg = das_config(10_000);
        let (meta, _) = synthetic_stream(&cfg);
        let changes: usize = (0..meta.population.len())
            .map(|i| meta.population.get(FileId::from_index(i)).versions().len() - 1)
            .sum();
        assert_eq!(changes, cfg.total_changes);
    }

    #[test]
    fn profile_constructors_cover_all_three_studies() {
        let ms = SyntheticStreamConfig::microsoft(&MicrosoftProfile::scaled(9_000), 800, 3);
        assert_eq!(ms.requests, 9_000);
        assert_eq!(ms.duration, SimDuration::from_days(1));
        let bu = SyntheticStreamConfig::bu(4_000, 4);
        assert_eq!(bu.files, 2_500);
        assert_eq!(bu.duration, SimDuration::from_days(186));
        for cfg in [ms, bu] {
            let (meta, stream) = synthetic_stream(&cfg);
            assert_eq!(stream.count() as u64, meta.requests);
        }
    }
}
