//! Trace analyzers that regenerate the paper's Table 1 and Table 2.
//!
//! The analyzers consume traces/studies — synthetic here, but the same
//! code would run on real logs in the paper's format — and compute exactly
//! the published statistics.

use simstats::median;

use crate::bu::{BuStudy, STUDY_DAYS};
use crate::campus::{MUTABLE_MIN_CHANGES, VERY_MUTABLE_MIN_CHANGES};
use crate::microsoft::ProxyAccess;
use crate::trace::ServerTrace;
use crate::types::FileType;

/// One row of Table 1: mutability statistics for a campus server.
#[derive(Debug, Clone, PartialEq)]
pub struct MutabilityRow {
    /// Server name.
    pub server: String,
    /// File count.
    pub files: usize,
    /// Request count.
    pub requests: usize,
    /// Percentage of requests from remote clients.
    pub remote_pct: f64,
    /// Total modifications over the period.
    pub total_changes: usize,
    /// Percentage of files that changed at least
    /// [`MUTABLE_MIN_CHANGES`] times.
    pub mutable_pct: f64,
    /// Percentage of files that changed at least
    /// [`VERY_MUTABLE_MIN_CHANGES`] times.
    pub very_mutable_pct: f64,
}

impl MutabilityRow {
    /// Compute the row from a trace. Run on a generator's output this uses
    /// ground truth; run on `ServerTrace::from_log` output it reflects
    /// only log-observable changes, as the paper's own numbers did.
    pub fn from_trace(trace: &ServerTrace) -> MutabilityRow {
        let files = trace.population.len();
        let mut total_changes = 0usize;
        let mut mutable = 0usize;
        let mut very = 0usize;
        for (_, rec) in trace.population.iter() {
            let c = rec.modification_count();
            total_changes += c;
            if c >= MUTABLE_MIN_CHANGES {
                mutable += 1;
            }
            if c >= VERY_MUTABLE_MIN_CHANGES {
                very += 1;
            }
        }
        let pct = |num: usize| {
            if files == 0 {
                0.0
            } else {
                100.0 * num as f64 / files as f64
            }
        };
        MutabilityRow {
            server: trace.name.clone(),
            files,
            requests: trace.request_count(),
            remote_pct: 100.0 * trace.remote_fraction(),
            total_changes,
            mutable_pct: pct(mutable),
            very_mutable_pct: pct(very),
        }
    }
}

/// One row of Table 2: per-type access share and size (Microsoft columns)
/// plus age and life-span (Boston University columns).
#[derive(Debug, Clone, PartialEq)]
pub struct FileTypeRow {
    /// Content class.
    pub file_type: FileType,
    /// Percentage of proxy accesses.
    pub access_pct: f64,
    /// Mean transfer size, bytes.
    pub mean_size: f64,
    /// Mean age (days since last observed change, over files observed to
    /// change). `None` when the study has too few files of this type (the
    /// paper prints NA for cgi and other).
    pub avg_age_days: Option<f64>,
    /// Median life-span (window ÷ observed changes per file, conservatively
    /// assuming at least one change — so capped at 186 days). `None` as
    /// above. Note: under this definition per-file values quantise at
    /// 186/n days, so the paper's 146-day entries read as "between one and
    /// two observed changes"; we report the quantised median.
    pub median_lifespan_days: Option<f64>,
}

/// Minimum per-type sample for the BU columns to be reported.
const MIN_TYPE_SAMPLE: usize = 5;

/// Per-file age: days from the last observed change to the end of the
/// window. `None` for files never observed to change (ages are averaged
/// over changed files only — a never-changed file has no observable age).
pub fn file_age_days(modified_days: &[u32]) -> Option<f64> {
    modified_days
        .last()
        .map(|&last| f64::from(STUDY_DAYS - last))
}

/// Conservative per-file life-span: the observation window divided by the
/// observed change count, with every file assumed to have changed at least
/// once — the paper's stated bias ("we err on the side of conservatism...
/// the longest life-span we consider is 186 days").
pub fn file_lifespan_days(modified_days: &[u32]) -> f64 {
    f64::from(STUDY_DAYS) / modified_days.len().max(1) as f64
}

/// Compute Table 2 from a Microsoft access log and a BU study.
pub fn file_type_table(accesses: &[ProxyAccess], study: &BuStudy) -> Vec<FileTypeRow> {
    FileType::ALL
        .iter()
        .map(|&t| {
            let of_type: Vec<&ProxyAccess> = accesses.iter().filter(|a| a.file_type == t).collect();
            let access_pct = if accesses.is_empty() {
                0.0
            } else {
                100.0 * of_type.len() as f64 / accesses.len() as f64
            };
            let mean_size = if of_type.is_empty() {
                0.0
            } else {
                of_type.iter().map(|a| a.size as f64).sum::<f64>() / of_type.len() as f64
            };

            let bu_files: Vec<&crate::bu::BuFile> =
                study.files.iter().filter(|f| f.file_type == t).collect();
            let (avg_age_days, median_lifespan_days) = if bu_files.len() >= MIN_TYPE_SAMPLE {
                let ages: Vec<f64> = bu_files
                    .iter()
                    .filter_map(|f| file_age_days(&f.modified_days))
                    .collect();
                let spans: Vec<f64> = bu_files
                    .iter()
                    .map(|f| file_lifespan_days(&f.modified_days))
                    .collect();
                let avg_age =
                    (!ages.is_empty()).then(|| ages.iter().sum::<f64>() / ages.len() as f64);
                (avg_age, median(&spans))
            } else {
                (None, None)
            };

            FileTypeRow {
                file_type: t,
                access_pct,
                mean_size,
                avg_age_days,
                median_lifespan_days,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bu::BuFile;
    use crate::campus::{generate_campus_trace, CampusProfile};
    use crate::microsoft::{generate_microsoft_log, MicrosoftProfile};
    use simcore::SimDuration;

    #[test]
    fn table1_rows_match_published_values() {
        for profile in CampusProfile::all() {
            let generated = generate_campus_trace(&profile, 42);
            let row = MutabilityRow::from_trace(&generated.trace);
            assert_eq!(row.files, profile.files, "{}", profile.name);
            assert_eq!(row.requests, profile.requests, "{}", profile.name);
            assert!(
                (row.remote_pct - 100.0 * profile.remote_fraction).abs() < 0.01,
                "{}: remote {}",
                profile.name,
                row.remote_pct
            );
            assert_eq!(row.total_changes, profile.realised_changes());
            assert!(
                (row.mutable_pct / 100.0 - profile.mutable_fraction).abs() < 0.002,
                "{}: mutable {}",
                profile.name,
                row.mutable_pct
            );
            assert!(
                (row.very_mutable_pct / 100.0 - profile.very_mutable_fraction).abs() < 0.002,
                "{}: very mutable {}",
                profile.name,
                row.very_mutable_pct
            );
        }
    }

    #[test]
    fn hcs_per_day_change_probability_is_bestavros_consistent() {
        let profile = CampusProfile::hcs();
        let generated = generate_campus_trace(&profile, 42);
        let row = MutabilityRow::from_trace(&generated.trace);
        let p = row.total_changes as f64 / (row.files as f64 * profile.duration.as_days_f64());
        // §4.2: 1.8 %/day computed, Bestavros band 0.5–2.0 %. Our realised
        // trace carries the feasibility-raised 283 changes -> ~2.0 %.
        assert!((0.01..=0.025).contains(&p), "per-day probability {p}");
    }

    #[test]
    fn fas_is_most_popular_and_least_mutable() {
        // Table 1's headline observation.
        let rows: Vec<MutabilityRow> = CampusProfile::all()
            .iter()
            .map(|p| MutabilityRow::from_trace(&generate_campus_trace(p, 1).trace))
            .collect();
        let fas = rows.iter().find(|r| r.server == "FAS").unwrap();
        for other in rows.iter().filter(|r| r.server != "FAS") {
            assert!(fas.requests > other.requests);
            assert!(fas.mutable_pct < other.mutable_pct);
        }
    }

    #[test]
    fn age_and_lifespan_definitions() {
        // Never observed: no observable age; life-span conservatively
        // assumes one change in the window.
        assert_eq!(file_age_days(&[]), None);
        assert_eq!(file_lifespan_days(&[]), 186.0);
        // One observation on day 100: age 86, life-span the full window.
        assert_eq!(file_age_days(&[100]), Some(86.0));
        assert_eq!(file_lifespan_days(&[100]), 186.0);
        // Three changes: life-span 186/3 = 62, age from the last change.
        assert_eq!(file_lifespan_days(&[10, 40, 100]), 62.0);
        assert_eq!(file_age_days(&[10, 40, 100]), Some(86.0));
    }

    #[test]
    fn table2_shares_and_sizes_from_log() {
        let ms = generate_microsoft_log(&MicrosoftProfile::scaled(40_000), 7);
        let study = crate::bu::generate_bu_study(&crate::bu::BuProfile::scaled(800), 7);
        let rows = file_type_table(&ms, &study);
        assert_eq!(rows.len(), 5);
        let total_pct: f64 = rows.iter().map(|r| r.access_pct).sum();
        assert!((total_pct - 100.0).abs() < 1e-9);
        let gif = &rows[0];
        assert_eq!(gif.file_type, FileType::Gif);
        assert!(
            (gif.access_pct - 55.0).abs() < 1.5,
            "gif {}",
            gif.access_pct
        );
        assert!((gif.mean_size - 7791.0).abs() / 7791.0 < 0.1);
    }

    #[test]
    fn table2_reports_none_for_tiny_samples() {
        let study = BuStudy {
            files: vec![BuFile {
                file_type: FileType::Gif,
                modified_days: vec![5],
            }],
        };
        let rows = file_type_table(&[], &study);
        assert!(rows.iter().all(|r| r.avg_age_days.is_none()));
    }

    #[test]
    fn table2_bu_columns_have_paper_shape() {
        let ms = generate_microsoft_log(&MicrosoftProfile::scaled(30_000), 11);
        let study = crate::bu::generate_bu_study(&crate::bu::BuProfile::paper(), 11);
        let rows = file_type_table(&ms, &study);
        let get = |t: FileType| rows.iter().find(|r| r.file_type == t).unwrap();
        let (gif, html, jpg) = (get(FileType::Gif), get(FileType::Html), get(FileType::Jpg));
        // Ages: html youngest, jpg oldest (paper: 50 < 85 < 100 days).
        let (ga, ha, ja) = (
            gif.avg_age_days.unwrap(),
            html.avg_age_days.unwrap(),
            jpg.avg_age_days.unwrap(),
        );
        assert!(ha < ga && ga < ja, "ages html={ha} gif={ga} jpg={ja}");
        assert!((70.0..=100.0).contains(&ga), "gif age {ga}");
        assert!((40.0..=65.0).contains(&ha), "html age {ha}");
        assert!((90.0..=125.0).contains(&ja), "jpg age {ja}");
        // Life-spans: jpg clearly shortest (paper: 72 vs 146/146);
        // gif/html sit at the conservative cap region.
        let (gl, hl, jl) = (
            gif.median_lifespan_days.unwrap(),
            html.median_lifespan_days.unwrap(),
            jpg.median_lifespan_days.unwrap(),
        );
        assert!(jl < gl && jl < hl, "lifespans gif={gl} html={hl} jpg={jl}");
        assert!((60.0..=110.0).contains(&jl), "jpg lifespan {jl}");
        assert!(gl >= 140.0 && hl >= 140.0, "gif={gl} html={hl}");
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        let rows = file_type_table(&[], &BuStudy { files: vec![] });
        assert!(rows.iter().all(|r| r.access_pct == 0.0));
        let trace = ServerTrace::from_log("E", "").unwrap();
        let row = MutabilityRow::from_trace(&trace);
        assert_eq!(row.files, 0);
        let _ = SimDuration::ZERO;
    }
}
