//! The origin's file population and its modification history.
//!
//! Simulations need to answer, for any file and any instant: what is the
//! current version's `Last-Modified` stamp and size, and has the file
//! changed since some earlier instant? Histories are precomputed (from a
//! workload model or a trace) as sorted version lists, so these queries are
//! binary searches and the same history can be replayed against every
//! protocol — the paper's methodology of holding the workload fixed while
//! varying only the consistency mechanism.

use std::mem::size_of;
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

/// One version as a history stores it: its 4-byte instant and its size
/// in bytes as a `u32`, so a version is 8 bytes where a [`Version`] is
/// 16. Every history the paper replays fits — no body nears 4 GiB — and
/// a history that does not is refused when it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    at: SimTime,
    bytes: u32,
}

const _: () = assert!(size_of::<Row>() == 8);

impl Row {
    /// # Panics
    /// Panics if `size` is 4 GiB or more.
    fn new(at: SimTime, size: u64) -> Row {
        Row {
            at,
            bytes: u32::try_from(size).unwrap_or_else(|_| {
                panic!(
                    "version size {size} B is past the u32 limit of {} B",
                    u32::MAX
                )
            }),
        }
    }

    #[inline]
    fn version(&self) -> Version {
        Version {
            modified_at: self.at,
            size: u64::from(self.bytes),
        }
    }
}

/// How many of `rows` were written at or before `t`.
#[inline]
fn written_by(rows: &[Row], t: SimTime) -> usize {
    rows.partition_point(|r| r.at <= t)
}

/// One file's history, borrowed: its path and its versions, strictly
/// increasing in `modified_at`, creation first. What
/// [`FilePopulation::get`] and [`FilePopulation::iter`] hand out, and what
/// a [`FileRecord`] answers through; every query is written here once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileView<'a> {
    /// Request path (e.g. `/dept/index.html`).
    pub path: &'a str,
    /// Never empty: `rows[0]` is the file's creation.
    rows: &'a [Row],
}

impl<'a> FileView<'a> {
    /// When the file was created.
    #[inline]
    pub fn created_at(self) -> SimTime {
        self.rows[0].at
    }

    /// The version live at instant `t`, or `None` if `t` precedes
    /// creation.
    #[inline]
    pub fn version_at(self, t: SimTime) -> Option<Version> {
        let idx = written_by(self.rows, t);
        idx.checked_sub(1).map(|i| self.rows[i].version())
    }

    /// The first version written strictly after `t`, if any — the change
    /// that made a copy stamped `t` stale.
    #[inline]
    pub fn first_change_after(self, t: SimTime) -> Option<Version> {
        self.rows.get(written_by(self.rows, t)).map(Row::version)
    }

    /// All versions, creation first.
    pub fn versions(self) -> impl DoubleEndedIterator<Item = Version> + ExactSizeIterator + 'a {
        self.rows.iter().map(Row::version)
    }

    /// Total number of modifications, excluding creation.
    pub fn modification_count(self) -> usize {
        self.rows.len() - 1
    }
}

/// A file's complete (pre-scheduled) history, owned: how a history is
/// built before [`FilePopulation::add`] appends it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecord {
    /// Request path (e.g. `/dept/index.html`).
    pub path: String,
    /// Versions, strictly increasing in time; `rows[0]` is the file's
    /// creation.
    rows: Vec<Row>,
}

impl FileRecord {
    /// A file created at `created_at` with `size` bytes and no further
    /// modifications (yet).
    ///
    /// # Panics
    /// Panics if `size` is 4 GiB or more.
    pub fn new(path: impl Into<String>, created_at: SimTime, size: u64) -> Self {
        FileRecord {
            path: path.into(),
            rows: vec![Row::new(created_at, size)],
        }
    }

    /// Append a modification.
    ///
    /// # Panics
    /// Panics unless `at` is strictly after the latest existing version —
    /// histories are built in order — and, like [`FileRecord::new`], if
    /// `size` is 4 GiB or more.
    pub fn push_modification(&mut self, at: SimTime, size: u64) {
        let last = self
            .rows
            .last()
            .expect("FileRecord always has a creation version")
            .at;
        assert!(
            at > last,
            "modifications must be strictly increasing: {last} then {at}"
        );
        self.rows.push(Row::new(at, size));
    }

    /// The history built so far, as the view a population answers with.
    pub fn view(&self) -> FileView<'_> {
        FileView {
            path: &self.path,
            rows: &self.rows,
        }
    }
}

/// Where one file's rows end in a population's two tables; they start
/// where the previous file's end.
#[derive(Debug, Clone, Copy, Default)]
struct RowEnds {
    /// End of the file's versions in [`FilePopulation::rows`].
    version: u32,
    /// End of the file's path in [`FilePopulation::paths`].
    path: u32,
}

/// The origin's complete file set, indexed densely by [`FileId`].
///
/// It is one flat table, appended to a file at a time and never edited:
/// every file's versions in one array of 8-byte rows, every path in one
/// arena, and a pair of end offsets per file. [`FilePopulation::get`]
/// reads a file back as a [`FileView`], and
/// [`FilePopulation::heap_tables`] says what each table holds.
///
/// The order of a population's modifications is a property of the
/// population, not of a run, so it is worked out once — on the first call
/// of [`FilePopulation::modifications`] — and every replay of the same
/// history borrows it; [`FilePopulation::add`] forgets it.
#[derive(Debug, Clone)]
pub struct FilePopulation {
    /// Every file's versions, in file order.
    rows: Vec<Row>,
    /// Every file's path, in file order.
    paths: String,
    /// Where each file's rows end in the two tables, after a leading
    /// zero: file `i`'s rows run from `ends[i]` to `ends[i + 1]`.
    ends: Vec<RowEnds>,
    /// Every modification, `(instant, file)`-sorted; unset until asked for.
    modifications: OnceLock<Vec<(SimTime, FileId)>>,
}

impl Default for FilePopulation {
    fn default() -> Self {
        Self::with_capacity(0, 0, 0)
    }
}

impl FilePopulation {
    /// An empty population.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty population with room for `files` files holding `versions`
    /// versions (creations included) and `path_bytes` bytes of paths, so a
    /// builder that knows its totals fills every table with no regrowth.
    pub fn with_capacity(files: usize, versions: usize, path_bytes: usize) -> Self {
        let mut ends = Vec::with_capacity(files + 1);
        ends.push(RowEnds::default());
        FilePopulation {
            rows: Vec::with_capacity(versions),
            paths: String::with_capacity(path_bytes),
            ends,
            modifications: OnceLock::new(),
        }
    }

    /// Append a file's rows, returning its id.
    ///
    /// # Panics
    /// Panics if either table outgrows `u32` offsets.
    pub fn add(&mut self, record: FileRecord) -> FileId {
        self.modifications.take();
        let id = FileId::from_index(self.len());
        self.rows.extend_from_slice(&record.rows);
        self.paths.push_str(&record.path);
        self.ends.push(RowEnds {
            version: u32::try_from(self.rows.len()).expect("version table exceeds u32 range"),
            path: u32::try_from(self.paths.len()).expect("path arena exceeds u32 range"),
        });
        id
    }

    /// Look up a file.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this population.
    #[inline]
    pub fn get(&self, id: FileId) -> FileView<'_> {
        let end = self.ends[id.index() + 1];
        let start = self.ends[id.index()];
        FileView {
            // Every offset ends a whole path, so `get` never falls back to
            // "": it is used rather than indexing because it cannot panic,
            // so a caller that never reads the path never pays for it.
            path: self
                .paths
                .get(start.path as usize..end.path as usize)
                .unwrap_or_default(),
            rows: &self.rows[start.version as usize..end.version as usize],
        }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.ends.len() - 1
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(id, file)` pairs in id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (FileId, FileView<'_>)> {
        (0..self.len()).map(|i| {
            let id = FileId::from_index(i);
            (id, self.get(id))
        })
    }

    /// Request-path → id map over the whole population — how a live
    /// server resolves an HTTP request line to a file. Later files win on
    /// duplicate paths (populations built from traces keep paths unique).
    pub fn path_index(&self) -> std::collections::HashMap<String, FileId> {
        self.iter()
            .map(|(id, file)| (file.path.to_owned(), id))
            .collect()
    }

    /// Every modification event across all files as `(instant, file)`
    /// pairs, sorted by instant and then by file (creation events
    /// excluded). This is the modification half of a simulation's event
    /// stream; it is collected, at its exact length, and sorted on the
    /// first call only.
    pub fn modifications(&self) -> &[(SimTime, FileId)] {
        self.modifications.get_or_init(|| {
            let count = self.rows.len() - self.len();
            let mut events: Vec<(SimTime, FileId)> = Vec::with_capacity(count);
            for (id, file) in self.iter() {
                events.extend(file.rows[1..].iter().map(|r| (r.at, id)));
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

    /// The heap bytes each table holds, by name: the version rows, the
    /// path arena, the end offsets, and the modification index once
    /// [`FilePopulation::modifications`] has built it. Capacity times
    /// element size — what was reserved, not what the allocator rounds
    /// it up to.
    pub fn heap_tables(&self) -> [(&'static str, usize); 4] {
        let index = self.modifications.get().map_or(0, Vec::capacity);
        [
            ("versions", self.rows.capacity() * size_of::<Row>()),
            ("paths", self.paths.capacity()),
            ("ends", self.ends.capacity() * size_of::<RowEnds>()),
            ("modifications", index * size_of::<(SimTime, FileId)>()),
        ]
    }
}

impl FromIterator<FileRecord> for FilePopulation {
    /// A population of `records`, in order: each one's id is its position.
    fn from_iter<I: IntoIterator<Item = FileRecord>>(records: I) -> Self {
        let records = records.into_iter();
        let mut population = FilePopulation::new();
        population.ends.reserve(records.size_hint().0);
        for record in records {
            population.add(record);
        }
        population
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A record created at 0 that changes at each of `at`.
    fn changing(path: &str, at: &[u64]) -> FileRecord {
        let mut r = FileRecord::new(path, t(0), 1);
        for &m in at {
            r.push_modification(t(m), 1);
        }
        r
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
        let r = r.view();
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
        let r = r.view();
        assert_eq!(r.version_at(t(50)).unwrap().size, 10);
        assert_eq!(r.version_at(t(100)).unwrap().size, 20);
        assert_eq!(r.version_at(t(150)).unwrap().size, 20);
        assert_eq!(r.version_at(t(1000)).unwrap().size, 30);
    }

    #[test]
    fn first_change_after_finds_the_staleness_cause() {
        let r = changing("/a", &[100, 200]);
        let r = r.view();
        assert_eq!(r.first_change_after(t(0)).unwrap().modified_at, t(100));
        assert_eq!(r.first_change_after(t(100)).unwrap().modified_at, t(200));
        assert_eq!(r.first_change_after(t(150)).unwrap().modified_at, t(200));
        assert_eq!(r.first_change_after(t(200)), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_modification_panics() {
        let mut r = FileRecord::new("/a", t(100), 10);
        r.push_modification(t(100), 20);
    }

    /// The last instant and the largest size a row holds.
    const LAST: u64 = u32::MAX as u64;

    #[test]
    fn the_u32_limits_round_trip_through_a_population() {
        let mut r = FileRecord::new("/edge", t(LAST - 1), LAST);
        r.push_modification(t(LAST), 0);
        let mut p = FilePopulation::new();
        let id = p.add(r);
        let file = p.get(id);
        let last = Version {
            modified_at: t(LAST),
            size: 0,
        };
        assert_eq!(file.version_at(t(LAST - 1)).unwrap().size, LAST);
        assert_eq!(file.version_at(t(LAST)), Some(last));
        assert_eq!(file.version_at(SimTime::MAX), Some(last), "a later query");
        assert_eq!(file.first_change_after(t(LAST - 1)), Some(last));
        assert_eq!(file.first_change_after(SimTime::MAX), None);
        assert_eq!(p.modifications(), [(t(LAST), id)]);
    }

    #[test]
    #[should_panic(expected = "instant 4294967296 s is past the u32 limit")]
    fn a_creation_past_the_last_instant_panics() {
        FileRecord::new("/a", t(LAST + 1), 1);
    }

    #[test]
    #[should_panic(expected = "size 4294967296 B is past the u32 limit")]
    fn a_creation_of_4_gib_panics() {
        FileRecord::new("/a", t(0), LAST + 1);
    }

    #[test]
    #[should_panic(expected = "instant 4294967296 s is past the u32 limit")]
    fn a_modification_past_the_last_instant_panics() {
        FileRecord::new("/a", t(0), 1).push_modification(t(LAST + 1), 1);
    }

    #[test]
    #[should_panic(expected = "size 4294967296 B is past the u32 limit")]
    fn a_modification_of_4_gib_panics() {
        FileRecord::new("/a", t(0), 1).push_modification(t(1), LAST + 1);
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
        let p: FilePopulation = [changing("/a", &[300, 500]), changing("/b", &[400])]
            .into_iter()
            .collect();
        let (a, b) = (FileId(0), FileId(1));
        let events = p.all_modifications();
        assert_eq!(events, vec![(t(300), a), (t(400), b), (t(500), a)]);
    }

    #[test]
    fn simultaneous_modifications_tie_break_by_file_id() {
        let p: FilePopulation = [changing("/a", &[100]), changing("/b", &[100])]
            .into_iter()
            .collect();
        let (a, b) = (FileId(0), FileId(1));
        assert_eq!(p.all_modifications(), vec![(t(100), a), (t(100), b)]);
    }

    #[test]
    fn a_window_keeps_both_of_its_edges() {
        let p: FilePopulation = [
            changing("/a", &[99, 100, 105, 110, 111]),
            changing("/b", &[100]),
        ]
        .into_iter()
        .collect();
        let (a, b) = (FileId(0), FileId(1));
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
    fn adding_a_file_forgets_the_sorted_modifications() {
        let mut p = FilePopulation::new();
        let a = p.add(changing("/a", &[300, 500]));
        assert_eq!(p.modifications(), [(t(300), a), (t(500), a)]);

        // A file added after the list was read shows up in it.
        let b = p.add(changing("/b", &[400]));
        let unasked = p.clone();
        let all = [(t(300), a), (t(400), b), (t(500), a)];
        assert_eq!(p.modifications(), all);

        // A clone answers alike, whether or not the original had been
        // asked yet, and goes its own way afterwards.
        let mut copy = p.clone();
        assert_eq!(unasked.modifications(), all);
        assert_eq!(copy.modifications(), all);
        copy.add(changing("/c", &[600]));
        assert_eq!(copy.modifications().len(), 4);
        assert_eq!(p.modifications(), all);
        assert_eq!(p.all_modifications(), all);
    }

    /// 37 modifications: a list grown by doubling would hold 64 slots.
    fn population_of_37_modifications() -> FilePopulation {
        [0, 5, 11, 2, 19]
            .into_iter()
            .enumerate()
            .map(|(i, count)| {
                let mut rec = FileRecord::new(format!("/{i}"), t(0), 1);
                for m in 1..=count {
                    rec.push_modification(t(m * 10 + i as u64), 1);
                }
                rec
            })
            .collect()
    }

    #[test]
    fn the_modification_index_is_built_at_its_exact_size() {
        let p = population_of_37_modifications();
        assert_eq!(p.modifications().len(), 37);
        let cached = p.modifications.get().expect("built by the call above");
        assert_eq!(cached.capacity(), cached.len());
    }

    #[test]
    fn a_population_reserved_at_its_totals_never_regrows() {
        let source = population_of_37_modifications();
        let mut p = FilePopulation::with_capacity(5, 42, 10);
        for (_, file) in source.iter() {
            let mut rec = FileRecord::new(file.path, file.created_at(), 1);
            for v in file.versions().skip(1) {
                rec.push_modification(v.modified_at, v.size);
            }
            p.add(rec);
        }
        assert_eq!(p.rows.len(), 42);
        assert_eq!(p.rows.capacity(), 42);
        assert_eq!((p.paths.len(), p.paths.capacity()), (10, 10));
        assert_eq!(p.ends.capacity(), 6);
    }

    #[test]
    fn heap_tables_are_the_reserved_tables() {
        let p = population_of_37_modifications();
        // Grown by `collect`, so the tables hold more than they use.
        let reserved = 8 * p.rows.capacity() + p.paths.capacity() + 8 * p.ends.capacity();
        let total: usize = p.heap_tables().iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(total, reserved);

        let mut exact = FilePopulation::with_capacity(5, 42, 10);
        for (_, file) in p.iter() {
            let mut rec = FileRecord::new(file.path, file.created_at(), 1);
            for v in file.versions().skip(1) {
                rec.push_modification(v.modified_at, v.size);
            }
            exact.add(rec);
        }
        let tables = [("versions", 8 * 42), ("paths", 10), ("ends", 8 * 6)];
        assert_eq!(exact.heap_tables()[..3], tables);
        assert_eq!(
            exact.heap_tables()[3],
            ("modifications", 0),
            "not built yet"
        );
        exact.modifications();
        assert_eq!(exact.heap_tables()[3], ("modifications", 8 * 37));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A record from its path, creation instant and the gaps between its
    /// versions; sizes number the versions.
    fn record(path: &str, created: u64, gaps: &[u64]) -> FileRecord {
        let mut r = FileRecord::new(path, SimTime::from_secs(created), 100);
        let mut at = created;
        for (i, g) in gaps.iter().enumerate() {
            at += g;
            r.push_modification(SimTime::from_secs(at), 101 + i as u64);
        }
        r
    }

    /// Histories for a population: paths from the empty one up, some with
    /// multi-byte characters, creations and gaps short enough that files overlap,
    /// and a third of the files never changing.
    fn histories() -> impl Strategy<Value = Vec<(String, u64, Vec<u64>)>> {
        proptest::collection::vec(
            (
                "[/a-zé]{0,8}",
                0u64..500,
                prop_oneof![
                    Just(Vec::new()),
                    proptest::collection::vec(1u64..300, 1..12),
                    proptest::collection::vec(1u64..300, 1..12),
                ],
            ),
            1..12,
        )
    }

    /// `view` answers every query exactly as `source`'s own view does.
    fn same_answers(view: FileView<'_>, source: &FileRecord, queries: &[u64]) {
        let want = source.view();
        prop_assert_eq!(view.path, source.path.as_str());
        prop_assert!(view.versions().eq(want.versions()));
        prop_assert_eq!(view.created_at(), want.created_at());
        prop_assert_eq!(view.modification_count(), want.modification_count());
        for &a in queries {
            let a = SimTime::from_secs(a);
            prop_assert_eq!(view.version_at(a), want.version_at(a));
            prop_assert_eq!(view.first_change_after(a), want.first_change_after(a));
        }
    }

    proptest! {
        /// A population built by `add` and one built by `collect` answer,
        /// for every file, the first and last included, exactly as the
        /// records they were built from; their modification lists are the
        /// records' modifications, sorted.
        #[test]
        fn the_flat_table_answers_as_its_records_do(
            histories in histories(),
            queries in proptest::collection::vec(0u64..4_500, 1..16),
        ) {
            let records: Vec<FileRecord> = histories
                .iter()
                .map(|(path, created, gaps)| record(path, *created, gaps))
                .collect();
            let mut added = FilePopulation::new();
            for r in &records {
                added.add(r.clone());
            }
            let collected: FilePopulation = records.iter().cloned().collect();
            let mut expected: Vec<(SimTime, FileId)> = Vec::new();
            for (i, r) in records.iter().enumerate() {
                let id = FileId::from_index(i);
                for v in r.view().versions().skip(1) {
                    expected.push((v.modified_at, id));
                }
            }
            expected.sort_unstable();
            for population in [&added, &collected] {
                prop_assert_eq!(population.len(), records.len());
                for (id, view) in population.iter() {
                    same_answers(view, &records[id.index()], &queries);
                }
                let last = FileId::from_index(records.len() - 1);
                same_answers(population.get(FileId(0)), &records[0], &queries);
                same_answers(population.get(last), &records[records.len() - 1], &queries);
                prop_assert_eq!(population.modifications(), &expected[..]);
            }
        }

        /// version_at agrees with a linear scan for arbitrary histories.
        #[test]
        fn version_at_matches_linear_scan(
            gaps in proptest::collection::vec(1u64..1000, 0..50),
            query in 0u64..60_000,
        ) {
            let r = record("/f", 10, &gaps);
            let r = r.view();
            let q = SimTime::from_secs(query);
            let expect = r.versions().rfind(|v| v.modified_at <= q);
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
            let r = record("/f", created, &gaps);
            let r = r.view();
            let q = SimTime::from_secs(query);
            prop_assert_eq!(r.version_at(q).is_none(), q < r.created_at());
        }

        /// Any versions a row holds — instants and sizes anywhere in
        /// `u32`, the limits included — come back bit-exact, in order,
        /// from either end.
        #[test]
        fn in_range_versions_come_back_bit_exact(
            files in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        prop_oneof![any::<u32>(), Just(0u32), Just(u32::MAX)],
                        prop_oneof![any::<u32>(), Just(0u32), Just(u32::MAX)],
                    ),
                    1..24,
                ),
                1..6,
            ),
        ) {
            let histories: Vec<Vec<Version>> = files
                .into_iter()
                .map(|mut rows| {
                    rows.sort_unstable_by_key(|&(secs, _)| secs);
                    rows.dedup_by_key(|&mut (secs, _)| secs);
                    rows.into_iter()
                        .map(|(secs, bytes)| Version {
                            modified_at: SimTime::from_secs(u64::from(secs)),
                            size: u64::from(bytes),
                        })
                        .collect()
                })
                .collect();
            let population: FilePopulation = histories
                .iter()
                .map(|versions| {
                    let mut r = FileRecord::new("/f", versions[0].modified_at, versions[0].size);
                    for v in &versions[1..] {
                        r.push_modification(v.modified_at, v.size);
                    }
                    r
                })
                .collect();
            for (id, want) in histories.iter().enumerate() {
                let file = population.get(FileId::from_index(id));
                prop_assert_eq!(file.versions().len(), want.len());
                prop_assert_eq!(file.versions().collect::<Vec<_>>(), want.clone());
                prop_assert!(file.versions().rev().eq(want.iter().rev().copied()));
            }
        }
    }
}
