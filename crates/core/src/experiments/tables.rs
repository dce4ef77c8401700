//! Tables 1 and 2: workload characterisation.
//!
//! Table 1 summarises the campus-server traces (mutability statistics);
//! Table 2 summarises the Microsoft proxy mix and the Boston University
//! lifetime study. Both are *recomputed from the synthetic data by the
//! same analyzers that would process real logs* — the generators are
//! calibrated, the analyzers measure, and agreement is the check that the
//! calibration holds.

use webtrace::analyze::{file_type_table, FileTypeRow, MutabilityRow};
use webtrace::bu::{generate_bu_study, BuProfile};
use webtrace::campus::{generate_campus_trace, CampusProfile};
use webtrace::microsoft::{generate_microsoft_log, MicrosoftProfile};

use crate::sweep::SweepRunner;

/// The published Table 1 values, for paper-vs-measured reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Paper {
    /// Server name.
    pub server: &'static str,
    /// Files.
    pub files: usize,
    /// Requests.
    pub requests: usize,
    /// % remote requests.
    pub remote_pct: f64,
    /// Total changes.
    pub total_changes: usize,
    /// % mutable files.
    pub mutable_pct: f64,
    /// % very mutable files.
    pub very_mutable_pct: f64,
}

/// Table 1 as published.
pub const TABLE1_PAPER: [Table1Paper; 3] = [
    Table1Paper {
        server: "DAS",
        files: 1403,
        requests: 30_093,
        remote_pct: 84.0,
        total_changes: 321,
        mutable_pct: 6.83,
        very_mutable_pct: 2.61,
    },
    Table1Paper {
        server: "FAS",
        files: 290,
        requests: 56_660,
        remote_pct: 39.0,
        total_changes: 11,
        mutable_pct: 2.41,
        very_mutable_pct: 0.0,
    },
    Table1Paper {
        server: "HCS",
        files: 573,
        requests: 32_546,
        remote_pct: 50.0,
        total_changes: 260,
        mutable_pct: 23.3,
        very_mutable_pct: 5.22,
    },
];

/// Regenerate Table 1: generate each campus trace and run the mutability
/// analyzer over it (one worker per campus trace).
pub fn table1(seed: u64, runner: &SweepRunner) -> Vec<MutabilityRow> {
    runner.map(&CampusProfile::all(), |p| {
        MutabilityRow::from_trace(&generate_campus_trace(p, seed).trace)
    })
}

/// The published Table 2 values (None = the paper's NA entries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Paper {
    /// File type label.
    pub file_type: &'static str,
    /// % of proxy accesses.
    pub access_pct: f64,
    /// Average file size, bytes (None where unpublished).
    pub mean_size: Option<f64>,
    /// Average age, days.
    pub avg_age_days: Option<f64>,
    /// Median life-span, days.
    pub median_lifespan_days: Option<f64>,
}

/// Table 2 as published.
pub const TABLE2_PAPER: [Table2Paper; 5] = [
    Table2Paper {
        file_type: "gif",
        access_pct: 55.0,
        mean_size: Some(7_791.0),
        avg_age_days: Some(85.0),
        median_lifespan_days: Some(146.0),
    },
    Table2Paper {
        file_type: "html",
        access_pct: 22.0,
        mean_size: Some(4_786.0),
        avg_age_days: Some(50.0),
        median_lifespan_days: Some(146.0),
    },
    Table2Paper {
        file_type: "jpg",
        access_pct: 10.0,
        mean_size: Some(21_608.0),
        avg_age_days: Some(100.0),
        median_lifespan_days: Some(72.0),
    },
    Table2Paper {
        file_type: "cgi",
        access_pct: 9.0,
        mean_size: Some(5_980.0),
        avg_age_days: None,
        median_lifespan_days: None,
    },
    Table2Paper {
        file_type: "other",
        access_pct: 4.0,
        mean_size: None,
        avg_age_days: None,
        median_lifespan_days: None,
    },
];

/// Regenerate Table 2: generate the Microsoft access log and the BU study,
/// then run the file-type analyzer. `requests` scales the Microsoft log
/// (150,000 = the paper's weekday); the log and the study generate as a
/// parallel pair.
pub fn table2(seed: u64, requests: usize, runner: &SweepRunner) -> Vec<FileTypeRow> {
    let (ms, study) = runner.join(
        || generate_microsoft_log(&MicrosoftProfile::scaled(requests), seed),
        || generate_bu_study(&BuProfile::paper(), seed),
    );
    file_type_table(&ms, &study)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_exactly_on_counts() {
        let rows = table1(1996, &SweepRunner::new(0));
        for (row, paper) in rows.iter().zip(TABLE1_PAPER.iter()) {
            assert_eq!(row.server, paper.server);
            assert_eq!(row.files, paper.files);
            assert_eq!(row.requests, paper.requests);
            assert_eq!(row.total_changes, paper.total_changes);
            assert!((row.remote_pct - paper.remote_pct).abs() < 0.01);
            assert!(
                (row.mutable_pct - paper.mutable_pct).abs() < 0.2,
                "{}: {} vs {}",
                paper.server,
                row.mutable_pct,
                paper.mutable_pct
            );
            assert!((row.very_mutable_pct - paper.very_mutable_pct).abs() < 0.2);
        }
    }

    #[test]
    fn table2_access_mix_matches_paper() {
        let rows = table2(1996, 60_000, &SweepRunner::new(0));
        for (row, paper) in rows.iter().zip(TABLE2_PAPER.iter()) {
            assert_eq!(row.file_type.to_string(), paper.file_type);
            assert!(
                (row.access_pct - paper.access_pct).abs() < 1.0,
                "{}: {:.1}% vs {:.1}%",
                paper.file_type,
                row.access_pct,
                paper.access_pct
            );
            if let Some(size) = paper.mean_size {
                assert!(
                    (row.mean_size - size).abs() / size < 0.1,
                    "{}: size {:.0} vs {:.0}",
                    paper.file_type,
                    row.mean_size,
                    size
                );
            }
        }
    }

    #[test]
    fn table2_lifetime_columns_have_paper_shape() {
        let rows = table2(1996, 20_000, &SweepRunner::new(0));
        let age = |i: usize| rows[i].avg_age_days.expect("reported");
        // html youngest, jpg oldest — the ordering behind the paper's
        // "the most popular web objects also have the longest life-span".
        assert!(age(1) < age(0), "html {} < gif {}", age(1), age(0));
        assert!(age(0) < age(2), "gif {} < jpg {}", age(0), age(2));
    }
}
