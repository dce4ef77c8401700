//! Cache entry stores.
//!
//! The paper's experiments assume a cache large enough that "valid entries
//! are never evicted" (§4) — [`UnboundedStore`]. The interaction of
//! consistency metadata with capacity pressure is an extension this
//! workspace also explores via the byte-bounded stores of
//! [`crate::evict::BoundedStore`] (LRU, FIFO, GreedyDual-Size, LFU); all
//! implement [`Store`].
//!
//! All stores index entries in **dense slot tables**: [`simcore::FileId`]s
//! are registry-issued dense `u32`s (`index()`/`from_index()`), so a
//! `Vec<Option<_>>` indexed by the id replaces the former
//! `HashMap<FileId, _>` — every lookup on the per-request hot path is an
//! array index instead of a SipHash probe. Iteration order over a slot
//! table is id order, which is deterministic by construction (the old
//! `HashMap` iteration order was unspecified; no caller depended on it).

use std::mem::size_of;

use simcore::{FileId, SimTime};

use crate::entry::EntryMeta;

/// Common interface over cache entry stores.
pub trait Store {
    /// Look up an entry without recording an access.
    fn peek(&self, id: FileId) -> Option<&EntryMeta>;

    /// Look up an entry mutably, counting one use of it: a bounded store
    /// reports it to its eviction policy (LRU moves it to the most-recent
    /// end, LFU adds one to its frequency). `now` is the request's instant;
    /// no store reads it.
    fn access(&mut self, id: FileId, now: SimTime) -> Option<&mut EntryMeta>;

    /// Look up an entry mutably without counting a use: no eviction
    /// policy hears of it, so the store's order is left as it was.
    fn peek_mut(&mut self, id: FileId) -> Option<&mut EntryMeta>;

    /// Mark a resident copy unservable (an invalidation notice); a no-op
    /// for an absent one. A bounded store also tells its eviction policy,
    /// whose rule makes the copy a preferred victim: until refetched it is
    /// worth no more than an absent copy. No default, so that no store
    /// only marks the copy without saying so.
    fn invalidate(&mut self, id: FileId);

    /// Insert or replace an entry; returns entries evicted to make room
    /// (always empty for unbounded stores).
    fn insert(&mut self, id: FileId, meta: EntryMeta) -> Evicted;

    /// Remove an entry outright.
    fn remove(&mut self, id: FileId) -> Option<EntryMeta>;

    /// Number of resident entries.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of resident entities.
    fn resident_bytes(&self) -> u64;

    /// Iterate over resident entries in ascending id order.
    fn iter(&self) -> Entries<'_>;

    /// The heap bytes the store holds: its slot table and, in a bounded
    /// store, its eviction policy's arrays — capacity times element size,
    /// what was reserved rather than what the allocator rounds it up to.
    /// No default, so that no store leaves a table out unsaid.
    fn heap_bytes(&self) -> usize;
}

/// Entries evicted by one [`Store::insert`] call.
///
/// Evictions are the exception on the insert hot path (always zero for
/// the unbounded store, zero or one for bounded stores in the common
/// case), so the container stores its first element inline and only
/// allocates when a single insert displaces two or more entries.
/// Dereferences to a slice, so `len()`/`is_empty()`/indexing/iteration
/// all work as they did on the former `Vec` return type.
#[derive(Debug, Default)]
pub struct Evicted(Repr);

#[derive(Debug, Default)]
enum Repr {
    #[default]
    Empty,
    One([(FileId, EntryMeta); 1]),
    Spill(Vec<(FileId, EntryMeta)>),
}

impl Evicted {
    /// No evictions.
    pub fn none() -> Self {
        Evicted(Repr::Empty)
    }

    /// Exactly one eviction, stored inline.
    pub fn one(id: FileId, meta: EntryMeta) -> Self {
        Evicted(Repr::One([(id, meta)]))
    }

    /// Append an eviction, spilling to the heap only past the first.
    pub fn push(&mut self, id: FileId, meta: EntryMeta) {
        self.0 = match std::mem::take(&mut self.0) {
            Repr::Empty => Repr::One([(id, meta)]),
            Repr::One([first]) => Repr::Spill(vec![first, (id, meta)]),
            Repr::Spill(mut v) => {
                v.push((id, meta));
                Repr::Spill(v)
            }
        };
    }

    /// The evicted entries as a slice.
    pub fn as_slice(&self) -> &[(FileId, EntryMeta)] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(one) => one,
            Repr::Spill(v) => v,
        }
    }
}

impl std::ops::Deref for Evicted {
    type Target = [(FileId, EntryMeta)];

    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

impl IntoIterator for Evicted {
    type Item = (FileId, EntryMeta);
    type IntoIter = EvictedIntoIter;

    fn into_iter(self) -> EvictedIntoIter {
        EvictedIntoIter(match self.0 {
            Repr::Empty => IterRepr::Empty,
            Repr::One(one) => IterRepr::One(one.into_iter()),
            Repr::Spill(v) => IterRepr::Spill(v.into_iter()),
        })
    }
}

impl<'a> IntoIterator for &'a Evicted {
    type Item = &'a (FileId, EntryMeta);
    type IntoIter = std::slice::Iter<'a, (FileId, EntryMeta)>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// By-value iterator over [`Evicted`] entries.
pub struct EvictedIntoIter(IterRepr);

enum IterRepr {
    Empty,
    One(std::array::IntoIter<(FileId, EntryMeta), 1>),
    Spill(std::vec::IntoIter<(FileId, EntryMeta)>),
}

impl Iterator for EvictedIntoIter {
    type Item = (FileId, EntryMeta);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            IterRepr::Empty => None,
            IterRepr::One(it) => it.next(),
            IterRepr::Spill(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterRepr::Empty => (0, Some(0)),
            IterRepr::One(it) => it.size_hint(),
            IterRepr::Spill(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for EvictedIntoIter {}

/// A store's resident entries in id order — what every [`Store::iter`]
/// returns: the occupied slots of the store's dense slot table, in index
/// order.
pub struct Entries<'a>(std::iter::Enumerate<std::slice::Iter<'a, Option<EntryMeta>>>);

impl<'a> Entries<'a> {
    pub(crate) fn new(slots: &'a [Option<EntryMeta>]) -> Self {
        Entries(slots.iter().enumerate())
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = (FileId, &'a EntryMeta);

    fn next(&mut self) -> Option<Self::Item> {
        for (i, slot) in self.0.by_ref() {
            if let Some(meta) = slot {
                return Some((FileId::from_index(i), meta));
            }
        }
        None
    }
}

/// The heap bytes of a slot table.
pub(crate) fn slot_table_bytes(slots: &Vec<Option<EntryMeta>>) -> usize {
    slots.capacity() * size_of::<Option<EntryMeta>>()
}

/// Grow `slots` so that `id` is a valid index.
pub(crate) fn ensure_slot<T>(slots: &mut Vec<Option<T>>, id: FileId) {
    if id.index() >= slots.len() {
        slots.resize_with(id.index() + 1, || None);
    }
}

/// A store with no capacity limit — the paper's model.
#[derive(Debug, Default, Clone)]
pub struct UnboundedStore {
    slots: Vec<Option<EntryMeta>>,
    len: usize,
    bytes: u64,
}

impl UnboundedStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Store for UnboundedStore {
    fn peek(&self, id: FileId) -> Option<&EntryMeta> {
        self.slots.get(id.index())?.as_ref()
    }

    fn access(&mut self, id: FileId, _now: SimTime) -> Option<&mut EntryMeta> {
        // `peek_mut`'s body, not a call to it: a leaf is inlined across
        // crates, and this is the simulator's per-request lookup (as a
        // call, `sim-sweep` lost ~7 % req/s).
        self.slots.get_mut(id.index())?.as_mut()
    }

    fn peek_mut(&mut self, id: FileId) -> Option<&mut EntryMeta> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    fn invalidate(&mut self, id: FileId) {
        // A leaf, like `access`: with nothing to evict, only the mark.
        if let Some(Some(meta)) = self.slots.get_mut(id.index()) {
            meta.mark_invalid();
        }
    }

    fn insert(&mut self, id: FileId, meta: EntryMeta) -> Evicted {
        ensure_slot(&mut self.slots, id);
        let slot = &mut self.slots[id.index()];
        match slot.replace(meta) {
            Some(old) => self.bytes -= old.size,
            None => self.len += 1,
        }
        self.bytes += meta.size;
        Evicted::none()
    }

    fn remove(&mut self, id: FileId) -> Option<EntryMeta> {
        let removed = self.slots.get_mut(id.index())?.take();
        if let Some(e) = removed {
            self.bytes -= e.size;
            self.len -= 1;
        }
        removed
    }

    fn len(&self) -> usize {
        self.len
    }

    fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    fn iter(&self) -> Entries<'_> {
        Entries::new(&self.slots)
    }

    fn heap_bytes(&self) -> usize {
        slot_table_bytes(&self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn meta(size: u64) -> EntryMeta {
        EntryMeta::fresh(size, t(0), t(0))
    }

    #[test]
    fn insert_peek_remove_round_trip() {
        let mut s = UnboundedStore::new();
        assert!(s.is_empty());
        let evicted = s.insert(FileId(1), meta(100));
        assert!(evicted.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s.resident_bytes(), 100);
        assert_eq!(s.peek(FileId(1)).unwrap().size, 100);
        assert_eq!(s.remove(FileId(1)).unwrap().size, 100);
        assert!(s.is_empty());
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_and_adjusts_bytes() {
        let mut s = UnboundedStore::new();
        s.insert(FileId(1), meta(100));
        s.insert(FileId(1), meta(250));
        assert_eq!(s.len(), 1);
        assert_eq!(s.resident_bytes(), 250);
    }

    #[test]
    fn peek_mut_is_mutable_and_nondestructive() {
        let mut s = UnboundedStore::new();
        s.insert(FileId(7), meta(10));
        s.peek_mut(FileId(7)).unwrap().mark_invalid();
        assert!(!s.peek(FileId(7)).unwrap().is_valid());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn invalidate_marks_a_resident_copy_and_skips_an_absent_one() {
        let mut s = UnboundedStore::new();
        s.insert(FileId(2), meta(10));
        s.invalidate(FileId(2));
        s.invalidate(FileId(1));
        s.invalidate(FileId(99));
        assert!(!s.peek(FileId(2)).unwrap().is_valid());
        assert!(s.peek(FileId(1)).is_none());
        assert_eq!((s.len(), s.resident_bytes()), (1, 10));
    }

    #[test]
    fn missing_entries_are_none() {
        let mut s = UnboundedStore::new();
        assert!(s.peek(FileId(9)).is_none());
        assert!(s.access(FileId(9), t(0)).is_none());
        assert!(s.peek_mut(FileId(9)).is_none());
        assert!(s.remove(FileId(9)).is_none());
        // Also past the end of a grown table.
        s.insert(FileId(3), meta(1));
        assert!(s.peek(FileId(2)).is_none());
        assert!(s.remove(FileId(2)).is_none());
    }

    #[test]
    fn iter_covers_all_entries_in_id_order() {
        let mut s = UnboundedStore::new();
        for i in (0..10).rev() {
            s.insert(FileId(i), meta(u64::from(i)));
        }
        let ids: Vec<u32> = s.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn iter_skips_removed_entries() {
        let mut s = UnboundedStore::new();
        for i in 0..6 {
            s.insert(FileId(i), meta(1));
        }
        s.remove(FileId(2));
        s.remove(FileId(5));
        let ids: Vec<u32> = s.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 3, 4]);
    }

    #[test]
    fn evicted_stores_one_inline_and_spills_past_it() {
        let mut e = Evicted::none();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        e.push(FileId(1), meta(10));
        assert!(matches!(e.0, Repr::One(_)));
        assert_eq!(e[0].0, FileId(1));
        e.push(FileId(2), meta(20));
        e.push(FileId(3), meta(30));
        assert!(matches!(e.0, Repr::Spill(_)));
        let ids: Vec<u32> = e.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let sizes: Vec<u64> = e.into_iter().map(|(_, m)| m.size).collect();
        assert_eq!(sizes, vec![10, 20, 30]);

        let one = Evicted::one(FileId(9), meta(5));
        assert_eq!(one.len(), 1);
        assert_eq!(one.into_iter().next().unwrap().0, FileId(9));
    }
}
