//! Least-recently-used eviction on the [`EvictionPolicy`] seam.
//!
//! The paper assumes infinite caches; the bounded stores are the
//! workspace's extension for studying how capacity pressure interacts with
//! consistency metadata (an evicted-then-refetched object loses its
//! validation history, which matters to the Alex protocol: the refetched
//! copy restarts with a fresh `last_validated` but keeps its origin age).
//!
//! Recency is an **intrusive doubly-linked list over the dense slot
//! indices** ([`crate::evict::IntrusiveList`]): the front is the LRU
//! victim, the back the most recently used, and touch/evict are O(1)
//! pointer splices. Replacing an entry counts as a use (the replacement
//! lands at the MRU end): that is part of the policy's definition, pinned
//! by `replacement_moves_entry_to_mru` and the B-tree model. An
//! invalidated copy moves to the front: it is not served again until
//! refetched, so it is the next victim. Eviction order is otherwise
//! exactly the order of last use, which is what the original
//! sequence-numbered B-tree store produced; the equivalence is
//! property-tested against a model of that implementation below (an
//! invalidation takes a sequence number below every live one).

use simcore::FileId;

use crate::entry::EntryMeta;
use crate::evict::{BoundedStore, EvictionPolicy, IntrusiveList};

/// LRU victim selection: evict the entry unused for the longest time.
#[derive(Debug, Clone, Default)]
pub struct LruEviction {
    pub(crate) list: IntrusiveList,
}

impl EvictionPolicy for LruEviction {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_insert(&mut self, id: FileId, _meta: &EntryMeta) {
        self.list.push_back(id.index());
    }

    fn on_access(&mut self, id: FileId, _meta: &EntryMeta) {
        self.list.move_to_back(id.index());
    }

    fn on_invalidate(&mut self, id: FileId, _meta: &EntryMeta) {
        // Worth nothing until refetched: first in line to go.
        self.list.move_to_front(id.index());
    }

    fn on_remove(&mut self, id: FileId, _meta: &EntryMeta) {
        self.list.unlink(id.index());
    }

    fn victim(&self, exclude: Option<FileId>) -> Option<FileId> {
        self.list.front_excluding(exclude)
    }

    fn heap_bytes(&self) -> usize {
        self.list.heap_bytes()
    }
}

/// LRU store bounded by total entity bytes.
pub type LruStore = BoundedStore<LruEviction>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use simcore::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn meta(size: u64) -> EntryMeta {
        EntryMeta::fresh(size, t(0), t(0))
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut s = LruStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        s.insert(FileId(3), meta(100));
        // Touch 1 so 2 becomes the LRU victim.
        s.access(FileId(1), t(10));
        let evicted = s.insert(FileId(4), meta(100));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, FileId(2));
        assert!(s.peek(FileId(1)).is_some());
        assert!(s.peek(FileId(3)).is_some());
        assert!(s.peek(FileId(4)).is_some());
    }

    #[test]
    fn evicts_multiple_to_fit_large_entry() {
        let mut s = LruStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        s.insert(FileId(3), meta(100));
        let evicted = s.insert(FileId(4), meta(250));
        assert_eq!(evicted.len(), 3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.resident_bytes(), 250);
    }

    #[test]
    fn eviction_sweep_reports_victims_lru_first() {
        let mut s = LruStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        s.insert(FileId(3), meta(100));
        s.access(FileId(2), t(5));
        let evicted = s.insert(FileId(4), meta(300));
        let order: Vec<u32> = evicted.iter().map(|(id, _)| id.0).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn oversized_entry_is_rejected_not_admitted() {
        let mut s = LruStore::new(100);
        s.insert(FileId(1), meta(50));
        let rejected = s.insert(FileId(2), meta(1000));
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0, FileId(2));
        // Resident set untouched.
        assert_eq!(s.len(), 1);
        assert!(s.peek(FileId(1)).is_some());
    }

    #[test]
    fn replace_frees_old_bytes_first() {
        let mut s = LruStore::new(200);
        s.insert(FileId(1), meta(150));
        // Same id, grown: must not evict anything else since old copy is
        // released first.
        s.insert(FileId(2), meta(40));
        let evicted = s.insert(FileId(1), meta(160));
        assert!(evicted.is_empty());
        assert_eq!(s.resident_bytes(), 200);
    }

    #[test]
    fn replacement_moves_entry_to_mru() {
        let mut s = LruStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        // Refresh 1's body: it becomes most recently used, so 2 is evicted.
        s.insert(FileId(1), meta(100));
        let evicted = s.insert(FileId(3), meta(150));
        assert_eq!(evicted[0].0, FileId(2));
    }

    #[test]
    fn growing_replacement_cannot_evict_itself() {
        let mut s = LruStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        s.access(FileId(1), t(1)); // 2 is now the LRU victim… but so would
        s.access(FileId(2), t(2)); // 1 be if its own sweep could pick it.
        s.access(FileId(1), t(3));
        // Growing 2 (currently at the LRU end) forces an eviction; the
        // victim must be 1, never 2 itself mid-replacement.
        let evicted = s.insert(FileId(2), meta(250));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, FileId(1));
        assert_eq!(s.peek(FileId(2)).unwrap().size, 250);
        assert_eq!(s.resident_bytes(), 250);
    }

    #[test]
    fn remove_updates_ledger_and_recency() {
        let mut s = LruStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        assert_eq!(s.remove(FileId(1)).unwrap().size, 100);
        assert_eq!(s.resident_bytes(), 100);
        // Removed entry no longer appears as an eviction victim.
        let evicted = s.insert(FileId(3), meta(250));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, FileId(2));
    }

    #[test]
    fn access_marks_recency_without_side_effects() {
        let mut s = LruStore::new(200);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        s.access(FileId(1), t(1));
        s.access(FileId(1), t(2)); // repeated touches are fine
        let evicted = s.insert(FileId(3), meta(100));
        assert_eq!(evicted[0].0, FileId(2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        LruStore::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::store::Store;
    use proptest::prelude::*;
    use simcore::SimTime;
    use std::collections::{BTreeMap, HashMap};

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u64),
        Access(u32),
        Remove(u32),
        Invalidate(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..20, 1u64..120).prop_map(|(id, sz)| Op::Insert(id, sz)),
            (0u32..20).prop_map(Op::Access),
            (0u32..20).prop_map(Op::Remove),
            (0u32..20).prop_map(Op::Invalidate),
        ]
    }

    /// Walk the intrusive list front→back (LRU→MRU), with link symmetry
    /// checked inside [`IntrusiveList::walk`].
    fn walk_recency_list(s: &LruStore) -> Vec<u32> {
        s.policy().list.walk()
    }

    /// The previous implementation, kept as a reference model: `HashMap`
    /// entries plus a sequence-numbered `BTreeMap` recency index. A use
    /// takes the next sequence number; an invalidation one below every
    /// live one.
    struct ModelLru {
        capacity_bytes: u64,
        entries: HashMap<FileId, (EntryMeta, i64)>,
        recency: BTreeMap<i64, FileId>,
        bytes: u64,
        next_seq: i64,
    }

    impl ModelLru {
        fn new(capacity_bytes: u64) -> Self {
            ModelLru {
                capacity_bytes,
                entries: HashMap::new(),
                recency: BTreeMap::new(),
                bytes: 0,
                next_seq: 0,
            }
        }

        fn access(&mut self, id: FileId) -> Option<u64> {
            if !self.entries.contains_key(&id) {
                return None;
            }
            let (_, seq) = self.entries.get_mut(&id).unwrap();
            self.recency.remove(seq);
            *seq = self.next_seq;
            self.recency.insert(self.next_seq, id);
            self.next_seq += 1;
            self.entries.get(&id).map(|(m, _)| m.size)
        }

        fn invalidate(&mut self, id: FileId) {
            let Some((meta, seq)) = self.entries.get_mut(&id) else {
                return;
            };
            meta.mark_invalid();
            self.recency.remove(seq);
            *seq = self.recency.keys().next().map_or(0, |&least| least - 1);
            self.recency.insert(*seq, id);
        }

        fn evict_to_fit(&mut self, incoming: u64) -> Vec<(FileId, EntryMeta)> {
            let mut evicted = Vec::new();
            while self.bytes + incoming > self.capacity_bytes {
                let Some((&seq, &victim)) = self.recency.iter().next() else {
                    break;
                };
                self.recency.remove(&seq);
                let (meta, _) = self.entries.remove(&victim).unwrap();
                self.bytes -= meta.size;
                evicted.push((victim, meta));
            }
            evicted
        }

        fn insert(&mut self, id: FileId, meta: EntryMeta) -> Vec<(FileId, EntryMeta)> {
            if let Some((old, seq)) = self.entries.remove(&id) {
                self.recency.remove(&seq);
                self.bytes -= old.size;
            }
            if meta.size > self.capacity_bytes {
                return vec![(id, meta)];
            }
            let evicted = self.evict_to_fit(meta.size);
            self.entries.insert(id, (meta, self.next_seq));
            self.recency.insert(self.next_seq, id);
            self.next_seq += 1;
            self.bytes += meta.size;
            evicted
        }

        fn remove(&mut self, id: FileId) -> Option<EntryMeta> {
            let (meta, seq) = self.entries.remove(&id)?;
            self.recency.remove(&seq);
            self.bytes -= meta.size;
            Some(meta)
        }
    }

    proptest! {
        /// Under any operation sequence: resident bytes equal the sum of
        /// entry sizes, never exceed capacity, and the intrusive recency
        /// list stays in bijection with the occupied slots.
        #[test]
        fn ledger_and_capacity_invariants(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut s = LruStore::new(300);
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Insert(id, sz) => {
                        s.insert(FileId(id), EntryMeta::fresh(sz, SimTime::ZERO, SimTime::ZERO));
                    }
                    Op::Access(id) => {
                        s.access(FileId(id), SimTime::from_secs(i as u64));
                    }
                    Op::Remove(id) => {
                        s.remove(FileId(id));
                    }
                    Op::Invalidate(id) => s.invalidate(FileId(id)),
                }
                let sum: u64 = s.iter().map(|(_, m)| m.size).sum();
                prop_assert_eq!(sum, s.resident_bytes());
                prop_assert!(s.resident_bytes() <= s.capacity_bytes());
                let listed = walk_recency_list(&s);
                prop_assert_eq!(listed.len(), s.len());
                let occupied = s.iter().count();
                prop_assert_eq!(occupied, s.len());
            }
        }

        /// The eviction-policy split reproduces the old BTreeMap-indexed
        /// implementation's behaviour exactly: same eviction victims in the
        /// same order, same resident set, same byte ledger, under any
        /// operation sequence, invalidations included.
        #[test]
        fn matches_old_btreemap_implementation(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            let mut real = LruStore::new(300);
            let mut model = ModelLru::new(300);
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Insert(id, sz) => {
                        let meta = EntryMeta::fresh(sz, SimTime::ZERO, SimTime::ZERO);
                        let got = real.insert(FileId(id), meta);
                        let want = model.insert(FileId(id), meta);
                        prop_assert_eq!(
                            got.iter().map(|(v, m)| (v.0, m.size)).collect::<Vec<_>>(),
                            want.iter().map(|(v, m)| (v.0, m.size)).collect::<Vec<_>>()
                        );
                    }
                    Op::Access(id) => {
                        let got = real
                            .access(FileId(id), SimTime::from_secs(i as u64))
                            .map(|m| m.size);
                        prop_assert_eq!(got, model.access(FileId(id)));
                    }
                    Op::Remove(id) => {
                        let got = real.remove(FileId(id)).map(|m| m.size);
                        prop_assert_eq!(got, model.remove(FileId(id)).map(|m| m.size));
                    }
                    Op::Invalidate(id) => {
                        real.invalidate(FileId(id));
                        model.invalidate(FileId(id));
                    }
                }
                prop_assert_eq!(real.len(), model.entries.len());
                for (id, meta) in real.iter() {
                    let want = model.entries.get(&id).map(|(m, _)| m.is_valid());
                    prop_assert_eq!(Some(meta.is_valid()), want);
                }
                prop_assert_eq!(real.resident_bytes(), model.bytes);
                // LRU→MRU order must match the model's seq order exactly.
                let real_order: Vec<u32> = real.policy().list.walk();
                let model_order: Vec<u32> =
                    model.recency.values().map(|id| id.0).collect();
                prop_assert_eq!(real_order, model_order);
            }
        }
    }
}
