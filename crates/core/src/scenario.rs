//! Ergonomic construction of hand-crafted workload scenarios.
//!
//! The generators in [`crate::workload`] and `webtrace` produce
//! statistically-calibrated workloads; this builder produces *scripted*
//! ones — "a news page that changes every morning and is read four times
//! a day" — for targeted experiments, examples, and tests. Times are
//! given as offsets from the scenario start; the builder handles the
//! pre-history padding, sorting, and validation.

use originserver::FileRecord;
use simcore::{FileId, SimDuration, SimTime};

use crate::workload::Workload;

/// Builder for scripted workloads.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    duration: SimDuration,
    /// The files, in id order; collected into a population by `build`.
    files: Vec<FileRecord>,
    requests: Vec<(SimTime, FileId)>,
    classes: Vec<usize>,
    class_expires: Vec<Option<SimDuration>>,
}

/// Offset of the scenario start from the internal time origin — room for
/// pre-scenario file ages without underflowing the clock.
const PRE_HISTORY: SimDuration = SimDuration::from_days(1000);

impl ScenarioBuilder {
    /// A scenario named `name` covering `duration`.
    pub fn new(name: impl Into<String>, duration: SimDuration) -> Self {
        ScenarioBuilder {
            name: name.into(),
            duration,
            files: Vec::new(),
            requests: Vec::new(),
            classes: Vec::new(),
            class_expires: Vec::new(),
        }
    }

    /// The scenario's start instant (offset 0).
    pub fn start(&self) -> SimTime {
        SimTime::ZERO + PRE_HISTORY
    }

    /// Add a file of `size` bytes that was created (and last modified)
    /// `age` before the scenario starts, in content class `class`.
    ///
    /// # Panics
    /// Panics if `age` exceeds the available pre-history (1000 days).
    pub fn file(
        &mut self,
        path: impl Into<String>,
        size: u64,
        age: SimDuration,
        class: usize,
    ) -> FileId {
        assert!(
            age <= PRE_HISTORY,
            "pre-scenario age is capped at {PRE_HISTORY}"
        );
        let created = self.start() - age;
        self.files.push(FileRecord::new(path, created, size));
        self.classes.push(class);
        FileId::from_index(self.files.len() - 1)
    }

    /// Schedule a modification of `file` at `offset` after the start,
    /// optionally changing its size (pass `None` to keep the latest size).
    ///
    /// # Panics
    /// Panics if modifications for a file are not strictly increasing, or
    /// the offset exceeds the duration.
    pub fn modify(&mut self, file: FileId, offset: SimDuration, size: Option<u64>) -> &mut Self {
        assert!(offset <= self.duration, "modification outside the scenario");
        let at = self.start() + offset;
        let rec = &mut self.files[file.index()];
        let latest = rec
            .view()
            .versions()
            .next_back()
            .expect("files have a creation");
        let size = size.unwrap_or(latest.size);
        rec.push_modification(at, size);
        self
    }

    /// Schedule a request for `file` at `offset` after the start.
    ///
    /// # Panics
    /// Panics if the offset exceeds the duration.
    pub fn request(&mut self, file: FileId, offset: SimDuration) -> &mut Self {
        assert!(offset <= self.duration, "request outside the scenario");
        self.requests.push((self.start() + offset, file));
        self
    }

    /// Schedule periodic requests for `file`: at `first`, then every
    /// `interval`, until the scenario ends.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn request_every(
        &mut self,
        file: FileId,
        first: SimDuration,
        interval: SimDuration,
    ) -> &mut Self {
        assert!(interval > SimDuration::ZERO, "interval must be positive");
        let mut offset = first;
        while offset <= self.duration {
            self.requests.push((self.start() + offset, file));
            offset += interval;
        }
        self
    }

    /// Declare that the origin assigns `Expires = now + lifetime` to
    /// responses of `class` — a-priori-known lifetimes (§1's daily
    /// newspaper).
    pub fn class_expires(&mut self, class: usize, lifetime: SimDuration) -> &mut Self {
        if self.class_expires.len() <= class {
            self.class_expires.resize(class + 1, None);
        }
        self.class_expires[class] = Some(lifetime);
        self
    }

    /// Finish: sorts the request stream and validates the workload.
    ///
    /// # Panics
    /// Panics if the scenario is internally inconsistent (it cannot be,
    /// through this API — the check is a safety net).
    pub fn build(mut self) -> Workload {
        self.requests.sort_by_key(|&(t, f)| (t, f));
        let start = self.start();
        let workload = Workload {
            name: self.name,
            start,
            end: start + self.duration,
            population: std::sync::Arc::new(self.files.into_iter().collect()),
            requests: self.requests,
            classes: self.classes,
            class_expires: self.class_expires,
        };
        workload
            .validate()
            .expect("ScenarioBuilder produced an inconsistent workload");
        workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run, SimConfig};
    use crate::ProtocolSpec;

    fn hours(h: u64) -> SimDuration {
        SimDuration::from_hours(h)
    }

    #[test]
    fn builds_a_valid_workload() {
        let mut b = ScenarioBuilder::new("s", SimDuration::from_days(2));
        let f = b.file("/a.html", 1_000, SimDuration::from_days(30), 1);
        b.modify(f, hours(12), Some(1_100));
        b.request(f, hours(6)).request(f, hours(18));
        let wl = b.build();
        assert_eq!(wl.name, "s");
        assert_eq!(wl.request_count(), 2);
        assert_eq!(wl.changes_in_window(), 1);
        assert_eq!(wl.classes, vec![1]);
    }

    #[test]
    fn request_every_fills_the_window() {
        let mut b = ScenarioBuilder::new("s", SimDuration::from_days(1));
        let f = b.file("/a", 1, hours(1), 0);
        b.request_every(f, hours(0), hours(6));
        let wl = b.build();
        assert_eq!(wl.request_count(), 5); // 0,6,12,18,24h
    }

    #[test]
    fn requests_are_sorted_even_if_added_out_of_order() {
        let mut b = ScenarioBuilder::new("s", SimDuration::from_days(1));
        let f = b.file("/a", 1, hours(1), 0);
        b.request(f, hours(20))
            .request(f, hours(2))
            .request(f, hours(10));
        let wl = b.build();
        assert!(wl.requests.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn daily_news_scenario_via_builder() {
        // §7: with a-priori lifetimes, TTL/Expires "is the right choice".
        let mut b = ScenarioBuilder::new("news", SimDuration::from_days(7));
        let f = b.file("/front.html", 20_000, SimDuration::from_days(1), 1);
        for day in 1..=7 {
            b.modify(f, SimDuration::from_days(day), None);
        }
        b.request_every(f, hours(3), hours(6));
        b.class_expires(1, SimDuration::from_days(1));
        let wl = b.build();
        let cern = run(
            &wl,
            ProtocolSpec::Cern {
                lm_percent: 10,
                default_ttl_hours: 24,
            },
            &SimConfig::optimized(),
        );
        assert_eq!(cern.cache.stale_hits, 0);
        // One origin contact per edition, not per request.
        assert!(cern.server_ops() < wl.request_count() as u64 / 2);
    }

    #[test]
    fn expires_hint_resizes_sparsely() {
        let mut b = ScenarioBuilder::new("s", hours(1));
        let _ = b.file("/a", 1, hours(1), 5);
        b.class_expires(5, hours(2));
        let wl = b.build();
        assert_eq!(wl.expires_for_class(5), Some(hours(2)));
        assert_eq!(wl.expires_for_class(0), None);
        assert_eq!(wl.expires_for_class(99), None);
    }

    #[test]
    #[should_panic(expected = "outside the scenario")]
    fn request_after_end_panics() {
        let mut b = ScenarioBuilder::new("s", hours(1));
        let f = b.file("/a", 1, hours(1), 0);
        b.request(f, hours(2));
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn excessive_age_panics() {
        let mut b = ScenarioBuilder::new("s", hours(1));
        b.file("/a", 1, SimDuration::from_days(2_000), 0);
    }
}
