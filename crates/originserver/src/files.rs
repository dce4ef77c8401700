//! The origin's file population and its modification history.
//!
//! Simulations need to answer, for any file and any instant: what is the
//! current version's `Last-Modified` stamp and size, and has the file
//! changed since some earlier instant? Histories are precomputed (from a
//! workload model or a trace) as sorted version lists, so these queries are
//! binary searches and the same history can be replayed against every
//! protocol — the paper's methodology of holding the workload fixed while
//! varying only the consistency mechanism.

use std::ops::Range;
use std::sync::OnceLock;

use simcore::{FileId, SimTime};

/// One version of a file: the instant it was written and its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// When this version was written at the origin (its `Last-Modified`).
    pub modified_at: SimTime,
    /// Entity size of this version in bytes.
    pub size: u64,
}

/// A file's complete (pre-scheduled) history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecord {
    /// Request path (e.g. `/dept/index.html`).
    pub path: String,
    /// Version list, strictly increasing in `modified_at`; `versions[0]`
    /// is the file's creation.
    versions: Vec<Version>,
}

impl FileRecord {
    /// A file created at `created_at` with `size` bytes and no further
    /// modifications (yet).
    pub fn new(path: impl Into<String>, created_at: SimTime, size: u64) -> Self {
        FileRecord {
            path: path.into(),
            versions: vec![Version {
                modified_at: created_at,
                size,
            }],
        }
    }

    /// Append a modification.
    ///
    /// # Panics
    /// Panics unless `at` is strictly after the latest existing version —
    /// histories are built in order.
    pub fn push_modification(&mut self, at: SimTime, size: u64) {
        let last = self
            .versions
            .last()
            .expect("FileRecord always has a creation version");
        assert!(
            at > last.modified_at,
            "modifications must be strictly increasing: {} then {at}",
            last.modified_at
        );
        self.versions.push(Version {
            modified_at: at,
            size,
        });
    }

    /// When the file was created.
    pub fn created_at(&self) -> SimTime {
        self.versions[0].modified_at
    }

    /// The version live at instant `t`, or `None` if `t` precedes
    /// creation.
    pub fn version_at(&self, t: SimTime) -> Option<Version> {
        // partition_point gives the count of versions with modified_at <= t.
        let idx = self.versions.partition_point(|v| v.modified_at <= t);
        idx.checked_sub(1).map(|i| self.versions[i])
    }

    /// Number of modifications (excluding creation) in `(since, upto]`.
    pub fn changes_between(&self, since: SimTime, upto: SimTime) -> usize {
        self.versions
            .iter()
            .skip(1)
            .filter(|v| v.modified_at > since && v.modified_at <= upto)
            .count()
    }

    /// The first version written strictly after `t`, if any — the change
    /// that made a copy stamped `t` stale.
    pub fn first_change_after(&self, t: SimTime) -> Option<Version> {
        let idx = self.versions.partition_point(|v| v.modified_at <= t);
        self.versions.get(idx).copied()
    }

    /// All versions, creation first.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// Total number of modifications, excluding creation.
    pub fn modification_count(&self) -> usize {
        self.versions.len() - 1
    }
}

/// The origin's complete file set, indexed densely by [`FileId`].
///
/// The order of a population's modifications is a property of the
/// population, not of a run, so it is worked out once — on the first call
/// of [`FilePopulation::modifications`] — and every replay of the same
/// history borrows it. The cache has one rule: any `&mut` access to the
/// files ([`FilePopulation::add`], [`FilePopulation::get_mut`]) forgets it.
#[derive(Debug, Clone, Default)]
pub struct FilePopulation {
    files: Vec<FileRecord>,
    /// Every modification, `(instant, file)`-sorted; unset until asked for.
    modifications: OnceLock<Vec<(SimTime, FileId)>>,
}

impl FilePopulation {
    /// An empty population.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a file, returning its id.
    pub fn add(&mut self, record: FileRecord) -> FileId {
        self.modifications.take();
        let id = FileId::from_index(self.files.len());
        self.files.push(record);
        id
    }

    /// Look up a file.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this population.
    pub fn get(&self, id: FileId) -> &FileRecord {
        &self.files[id.index()]
    }

    /// Mutable lookup (used while histories are being built).
    pub fn get_mut(&mut self, id: FileId) -> &mut FileRecord {
        self.modifications.take();
        &mut self.files[id.index()]
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterate `(id, record)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &FileRecord)> {
        self.files
            .iter()
            .enumerate()
            .map(|(i, r)| (FileId::from_index(i), r))
    }

    /// Request-path → id map over the whole population — how a live
    /// server resolves an HTTP request line to a file. Later files win on
    /// duplicate paths (populations built from traces keep paths unique).
    pub fn path_index(&self) -> std::collections::HashMap<String, FileId> {
        self.iter()
            .map(|(id, rec)| (rec.path.clone(), id))
            .collect()
    }

    /// Every modification event across all files as `(instant, file)`
    /// pairs, sorted by instant and then by file (creation events
    /// excluded). This is the modification half of a simulation's event
    /// stream; it is collected and sorted on the first call only.
    pub fn modifications(&self) -> &[(SimTime, FileId)] {
        self.modifications.get_or_init(|| {
            let mut events: Vec<(SimTime, FileId)> = Vec::new();
            for (id, rec) in self.iter() {
                for v in rec.versions().iter().skip(1) {
                    events.push((v.modified_at, id));
                }
            }
            events.sort_unstable();
            events
        })
    }

    /// The modifications with `start <= instant <= end` — an observation
    /// window, both edges included — found by two binary searches.
    pub fn modifications_in(&self, start: SimTime, end: SimTime) -> &[(SimTime, FileId)] {
        &self.modifications()[self.modifications_window(start, end)]
    }

    /// Where [`FilePopulation::modifications_in`]'s window sits in
    /// [`FilePopulation::modifications`], as an index range — for a caller
    /// that walks the window while it holds the population by `Arc`.
    pub fn modifications_window(&self, start: SimTime, end: SimTime) -> Range<usize> {
        let mods = self.modifications();
        let from = mods.partition_point(|&(t, _)| t < start);
        let upto = mods.partition_point(|&(t, _)| t <= end);
        from..upto.max(from)
    }

    /// [`FilePopulation::modifications`], copied. Kept for the callers
    /// outside the workspace that want to own the list (the benchmark's
    /// live workloads); inside it, borrow the slice.
    pub fn all_modifications(&self) -> Vec<(SimTime, FileId)> {
        self.modifications().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn path_index_maps_every_path_to_its_id() {
        let mut pop = FilePopulation::new();
        let a = pop.add(FileRecord::new("/a.html", t(0), 1));
        let b = pop.add(FileRecord::new("/b.html", t(0), 1));
        let idx = pop.path_index();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get("/a.html"), Some(&a));
        assert_eq!(idx.get("/b.html"), Some(&b));
        assert_eq!(idx.get("/c.html"), None);
    }

    #[test]
    fn creation_is_the_first_version() {
        let r = FileRecord::new("/a.html", t(100), 500);
        assert_eq!(r.created_at(), t(100));
        assert_eq!(r.modification_count(), 0);
        assert_eq!(
            r.version_at(t(100)),
            Some(Version {
                modified_at: t(100),
                size: 500
            })
        );
        assert_eq!(r.version_at(t(99)), None);
    }

    #[test]
    fn version_at_picks_latest_not_after() {
        let mut r = FileRecord::new("/a", t(0), 10);
        r.push_modification(t(100), 20);
        r.push_modification(t(200), 30);
        assert_eq!(r.version_at(t(50)).unwrap().size, 10);
        assert_eq!(r.version_at(t(100)).unwrap().size, 20);
        assert_eq!(r.version_at(t(150)).unwrap().size, 20);
        assert_eq!(r.version_at(t(1000)).unwrap().size, 30);
    }

    #[test]
    fn first_change_after_finds_the_staleness_cause() {
        let mut r = FileRecord::new("/a", t(0), 10);
        r.push_modification(t(100), 20);
        r.push_modification(t(200), 30);
        assert_eq!(r.first_change_after(t(0)).unwrap().modified_at, t(100));
        assert_eq!(r.first_change_after(t(100)).unwrap().modified_at, t(200));
        assert_eq!(r.first_change_after(t(150)).unwrap().modified_at, t(200));
        assert_eq!(r.first_change_after(t(200)), None);
    }

    #[test]
    fn changes_between_excludes_creation() {
        let mut r = FileRecord::new("/a", t(0), 10);
        r.push_modification(t(10), 1);
        r.push_modification(t(20), 2);
        r.push_modification(t(30), 3);
        assert_eq!(r.changes_between(t(0), t(100)), 3);
        assert_eq!(r.changes_between(t(10), t(20)), 1);
        // Creation at t=0 is not a "change" even if the window covers it.
        let fresh = FileRecord::new("/b", t(5), 1);
        assert_eq!(fresh.changes_between(t(0), t(100)), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_modification_panics() {
        let mut r = FileRecord::new("/a", t(100), 10);
        r.push_modification(t(100), 20);
    }

    #[test]
    fn population_ids_are_dense() {
        let mut p = FilePopulation::new();
        let a = p.add(FileRecord::new("/a", t(0), 1));
        let b = p.add(FileRecord::new("/b", t(0), 2));
        assert_eq!(a, FileId(0));
        assert_eq!(b, FileId(1));
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(b).path, "/b");
    }

    #[test]
    fn all_modifications_is_globally_sorted() {
        let mut p = FilePopulation::new();
        let a = p.add(FileRecord::new("/a", t(0), 1));
        let b = p.add(FileRecord::new("/b", t(0), 1));
        p.get_mut(a).push_modification(t(300), 1);
        p.get_mut(a).push_modification(t(500), 1);
        p.get_mut(b).push_modification(t(400), 1);
        let events = p.all_modifications();
        assert_eq!(events, vec![(t(300), a), (t(400), b), (t(500), a)]);
    }

    #[test]
    fn simultaneous_modifications_tie_break_by_file_id() {
        let mut p = FilePopulation::new();
        let a = p.add(FileRecord::new("/a", t(0), 1));
        let b = p.add(FileRecord::new("/b", t(0), 1));
        p.get_mut(b).push_modification(t(100), 1);
        p.get_mut(a).push_modification(t(100), 1);
        assert_eq!(p.all_modifications(), vec![(t(100), a), (t(100), b)]);
    }

    #[test]
    fn a_window_keeps_both_of_its_edges() {
        let mut p = FilePopulation::new();
        let a = p.add(FileRecord::new("/a", t(0), 1));
        let b = p.add(FileRecord::new("/b", t(0), 1));
        for at in [99, 100, 105, 110, 111] {
            p.get_mut(a).push_modification(t(at), 1);
        }
        p.get_mut(b).push_modification(t(100), 1);
        assert_eq!(
            p.modifications_in(t(100), t(110)),
            [(t(100), a), (t(100), b), (t(105), a), (t(110), a)]
        );
        assert_eq!(p.modifications_in(t(101), t(104)), []);
        assert_eq!(p.modifications_in(t(105), t(105)), [(t(105), a)]);
        assert_eq!(p.modifications_in(t(110), t(100)), [], "an empty window");
        assert_eq!(p.modifications_in(t(0), t(1_000)), p.modifications());
        assert_eq!(p.modifications_window(t(100), t(110)), 1..5);
        assert_eq!(p.modifications_window(t(110), t(100)), 4..4);
    }

    #[test]
    fn any_mutable_access_forgets_the_sorted_modifications() {
        let mut p = FilePopulation::new();
        let a = p.add(FileRecord::new("/a", t(0), 1));
        p.get_mut(a).push_modification(t(300), 1);
        assert_eq!(p.modifications(), [(t(300), a)]);

        // A history grown after the list was read shows up in it.
        p.get_mut(a).push_modification(t(500), 1);
        assert_eq!(p.modifications(), [(t(300), a), (t(500), a)]);

        // So does a file added after it was read.
        let mut late = FileRecord::new("/b", t(0), 1);
        late.push_modification(t(400), 1);
        let b = p.add(late);
        let unasked = p.clone();
        let all = [(t(300), a), (t(400), b), (t(500), a)];
        assert_eq!(p.modifications(), all);

        // A clone answers alike, whether or not the original had been
        // asked yet, and goes its own way afterwards.
        let mut copy = p.clone();
        assert_eq!(unasked.modifications(), all);
        assert_eq!(copy.modifications(), all);
        copy.get_mut(b).push_modification(t(600), 1);
        assert_eq!(copy.modifications().len(), 4);
        assert_eq!(p.modifications(), all);
        assert_eq!(p.all_modifications(), all);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// version_at agrees with a linear scan for arbitrary histories.
        #[test]
        fn version_at_matches_linear_scan(
            gaps in proptest::collection::vec(1u64..1000, 0..50),
            query in 0u64..60_000,
        ) {
            let mut r = FileRecord::new("/f", SimTime::from_secs(10), 100);
            let mut at = 10u64;
            for (i, g) in gaps.iter().enumerate() {
                at += g;
                r.push_modification(SimTime::from_secs(at), 100 + i as u64);
            }
            let q = SimTime::from_secs(query);
            let expect = r
                .versions()
                .iter().rfind(|v| v.modified_at <= q)
                .copied();
            prop_assert_eq!(r.version_at(q), expect);
        }

        /// A file has a version at every instant from its creation on:
        /// `version_at(t)` is `None` exactly when `t < created_at()`.
        #[test]
        fn version_at_is_none_exactly_before_creation(
            created in 0u64..2_000,
            gaps in proptest::collection::vec(1u64..500, 0..20),
            query in 0u64..6_000,
        ) {
            let mut r = FileRecord::new("/f", SimTime::from_secs(created), 1);
            let mut at = created;
            for g in &gaps {
                at += g;
                r.push_modification(SimTime::from_secs(at), 1);
            }
            let q = SimTime::from_secs(query);
            prop_assert_eq!(r.version_at(q).is_none(), q < r.created_at());
        }

        /// changes_between sums correctly over a partition of the timeline.
        #[test]
        fn changes_partition_additivity(
            gaps in proptest::collection::vec(1u64..100, 1..40),
            split in 0u64..5000,
        ) {
            let mut r = FileRecord::new("/f", SimTime::ZERO, 1);
            let mut at = 0u64;
            for g in &gaps {
                at += g;
                r.push_modification(SimTime::from_secs(at), 1);
            }
            let end = SimTime::from_secs(at + 1);
            let mid = SimTime::from_secs(split.min(at + 1));
            let left = r.changes_between(SimTime::ZERO, mid);
            let right = r.changes_between(mid, end);
            prop_assert_eq!(left + right, gaps.len());
        }
    }
}
