//! A complete server trace: ground-truth file histories plus the request
//! stream, with export to (and reconstruction from) the extended log
//! format.
//!
//! Synthetic generators produce a [`ServerTrace`] with *full* modification
//! histories. Exporting to log text throws information away — exactly the
//! information loss the paper's real logs had (only the `Last-Modified` of
//! each *served* response is visible). [`ServerTrace::from_log`]
//! reconstructs the observable history from a log, which is what the
//! Table 1 analyzers operate on.

use std::collections::HashMap;

use originserver::{FilePopulation, FileRecord};
use simcore::{ClientId, FileId, SimDuration, SimTime};

use crate::record::{write_log, LogLine, LogParseError};

/// One request in a trace, referencing a file by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// Arrival instant.
    pub time: SimTime,
    /// Requesting client.
    pub client: ClientId,
    /// Whether the client is outside the local domain.
    pub remote: bool,
    /// Requested file.
    pub file: FileId,
}

/// A server trace: file population with full histories, plus the
/// time-sorted request stream.
#[derive(Debug, Clone)]
pub struct ServerTrace {
    /// Trace name (e.g. `DAS`).
    pub name: String,
    /// Observation start.
    pub start: SimTime,
    /// Observation length.
    pub duration: SimDuration,
    /// File set with modification histories.
    pub population: FilePopulation,
    /// Requests sorted by time.
    pub requests: Vec<TraceRequest>,
}

impl ServerTrace {
    /// Observation end instant.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Validate internal consistency; used by generators' self-checks and
    /// tests. Checks: requests sorted, within the window, referencing
    /// existing files that exist at request time.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = SimTime::ZERO;
        for (i, r) in self.requests.iter().enumerate() {
            if r.time < prev {
                return Err(format!("request {i} out of order"));
            }
            prev = r.time;
            if r.time < self.start || r.time > self.end() {
                return Err(format!("request {i} outside the observation window"));
            }
            if r.file.index() >= self.population.len() {
                return Err(format!("request {i} references unknown file {}", r.file));
            }
            if self.population.get(r.file).version_at(r.time).is_none() {
                return Err(format!("request {i} arrives before file {} exists", r.file));
            }
        }
        Ok(())
    }

    /// Export to the extended log format: each request line carries the
    /// size and `Last-Modified` of the version actually served.
    pub fn to_log(&self) -> String {
        let lines: Vec<LogLine> = self
            .requests
            .iter()
            .map(|r| {
                let rec = self.population.get(r.file);
                let v = rec
                    .version_at(r.time)
                    .expect("validated traces never request missing files");
                LogLine {
                    time: r.time,
                    client: r.client,
                    remote: r.remote,
                    path: rec.path.to_owned(),
                    size: v.size,
                    last_modified: v.modified_at,
                }
            })
            .collect();
        write_log(&lines)
    }

    /// Reconstruct the *observable* trace from log text: files appear when
    /// first requested, and a modification is observed when a request
    /// reports a newer `Last-Modified` than the previous request for the
    /// same path. This is exactly the information the paper's modified
    /// campus servers recorded.
    pub fn from_log(name: impl Into<String>, text: &str) -> Result<ServerTrace, LogParseError> {
        let lines = LogLine::parse_log(text)?;
        let mut records = Vec::new();
        let mut by_path = HashMap::new();
        let mut requests = Vec::with_capacity(lines.len());
        let (mut lo, mut hi) = (SimTime::MAX, SimTime::ZERO);
        for line in &lines {
            lo = lo.min(line.time);
            hi = hi.max(line.time);
            let file = observe(
                &mut records,
                &mut by_path,
                line.path.clone(),
                line.last_modified,
                line.size,
            );
            requests.push(TraceRequest {
                time: line.time,
                client: line.client,
                remote: line.remote,
                file,
            });
        }
        let (start, duration) = if lines.is_empty() {
            (SimTime::ZERO, SimDuration::ZERO)
        } else {
            (lo, hi - lo)
        };
        Ok(ServerTrace {
            name: name.into(),
            start,
            duration,
            population: records.into_iter().collect(),
            requests,
        })
    }

    /// Total number of requests.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Fraction of requests from remote clients.
    pub fn remote_fraction(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests.iter().filter(|r| r.remote).count() as f64 / self.requests.len() as f64
    }
}

/// Record one log line in the histories being recovered from a log: a
/// path seen first is a new file, created at the `last_modified` served;
/// a known path served with a newer `last_modified` than its latest
/// version has been modified. Returns the file's id.
pub(crate) fn observe(
    records: &mut Vec<FileRecord>,
    by_path: &mut HashMap<String, FileId>,
    path: String,
    last_modified: SimTime,
    size: u64,
) -> FileId {
    if let Some(&id) = by_path.get(&path) {
        let rec = &mut records[id.index()];
        let latest = rec
            .view()
            .versions()
            .last()
            .expect("a record has a version");
        if last_modified > latest.modified_at {
            rec.push_modification(last_modified, size);
        }
        return id;
    }
    let id = FileId::from_index(records.len());
    by_path.insert(path.clone(), id);
    records.push(FileRecord::new(path, last_modified, size));
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_trace() -> ServerTrace {
        sample_trace_where_b_changes_at(&[])
    }

    /// The sample trace, with `/b.gif` also changed at each of `at`.
    fn sample_trace_where_b_changes_at(at: &[u64]) -> ServerTrace {
        let mut a = FileRecord::new("/a.html", t(0), 100);
        a.push_modification(t(5000), 120);
        let mut b = FileRecord::new("/b.gif", t(0), 2000);
        for &m in at {
            b.push_modification(t(m), 1);
        }
        let population: FilePopulation = [a, b].into_iter().collect();
        let (a, b) = (FileId(0), FileId(1));
        let requests = vec![
            TraceRequest {
                time: t(1000),
                client: ClientId(1),
                remote: true,
                file: a,
            },
            TraceRequest {
                time: t(2000),
                client: ClientId(2),
                remote: false,
                file: b,
            },
            TraceRequest {
                time: t(6000),
                client: ClientId(1),
                remote: true,
                file: a,
            },
        ];
        ServerTrace {
            name: "TEST".to_string(),
            start: t(0),
            duration: SimDuration::from_secs(10_000),
            population,
            requests,
        }
    }

    #[test]
    fn sample_validates() {
        sample_trace().validate().unwrap();
    }

    #[test]
    fn validation_catches_out_of_order() {
        let mut tr = sample_trace();
        tr.requests.swap(0, 2);
        assert!(tr.validate().unwrap_err().contains("out of order"));
    }

    #[test]
    fn validation_catches_window_violation() {
        let mut tr = sample_trace();
        tr.requests[2].time = t(99_999);
        assert!(tr.validate().unwrap_err().contains("window"));
    }

    #[test]
    fn validation_catches_unknown_file() {
        let mut tr = sample_trace();
        tr.requests[0].file = FileId(99);
        assert!(tr.validate().unwrap_err().contains("unknown file"));
    }

    #[test]
    fn log_lines_carry_served_version() {
        let log = sample_trace().to_log();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 3);
        // First request for /a.html served the original version.
        assert!(lines[0].contains("200 100 0"));
        // Third request (after the t=5000 modification) served v2.
        assert!(lines[2].contains("200 120 5000"));
    }

    #[test]
    fn from_log_reconstructs_observable_history() {
        let original = sample_trace();
        let rebuilt = ServerTrace::from_log("TEST", &original.to_log()).unwrap();
        assert_eq!(rebuilt.request_count(), 3);
        assert_eq!(rebuilt.population.len(), 2);
        // /a.html's observed history has the creation and the one
        // modification (both versions were served).
        let a = rebuilt
            .population
            .iter()
            .find(|(_, r)| r.path == "/a.html")
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(rebuilt.population.get(a).modification_count(), 1);
        rebuilt.validate().unwrap();
    }

    #[test]
    fn from_log_misses_unserved_modifications() {
        // A modification that no request ever observes is invisible in the
        // log — the information loss the paper's methodology lives with.
        let tr = sample_trace_where_b_changes_at(&[9000]);
        let rebuilt = ServerTrace::from_log("TEST", &tr.to_log()).unwrap();
        let b2 = rebuilt
            .population
            .iter()
            .find(|(_, r)| r.path == "/b.gif")
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(rebuilt.population.get(b2).modification_count(), 0);
    }

    #[test]
    fn remote_fraction_counts() {
        let tr = sample_trace();
        assert!((tr.remote_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log_round_trips() {
        let tr = ServerTrace::from_log("E", "").unwrap();
        assert_eq!(tr.request_count(), 0);
        assert_eq!(tr.duration, SimDuration::ZERO);
        tr.validate().unwrap();
    }
}
