//! First-in-first-out eviction on the [`EvictionPolicy`] seam.
//!
//! Several mid-90s caches (including early CERN httpd garbage collection)
//! evicted in arrival order rather than tracking recency. FIFO is cheaper
//! to maintain than LRU but evicts hot objects that arrived early; the
//! eviction-policy ablation quantifies the difference under the
//! consistency protocols.
//!
//! Arrival order is an **intrusive doubly-linked list over the dense slot
//! indices** ([`crate::evict::IntrusiveList`]): the front is the oldest
//! arrival and next victim. Accesses are ignored — arrival order is
//! destiny — and replacing an entry leaves its list node untouched, so the
//! original arrival position is preserved exactly; during the
//! replacement's eviction sweep the entry is excluded as a victim (the
//! pre-split implementation achieved the same with an explicit `keep`
//! parameter). An invalidation leaves the entry where it is too (see
//! [`FifoEviction`]'s `on_invalidate`).

use simcore::FileId;

use crate::entry::EntryMeta;
use crate::evict::{BoundedStore, EvictionPolicy, IntrusiveList};

/// FIFO victim selection: evict the oldest-inserted entry.
#[derive(Debug, Clone, Default)]
pub struct FifoEviction {
    pub(crate) list: IntrusiveList,
}

impl EvictionPolicy for FifoEviction {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn on_insert(&mut self, id: FileId, _meta: &EntryMeta) {
        self.list.push_back(id.index());
    }

    fn on_access(&mut self, _id: FileId, _meta: &EntryMeta) {
        // FIFO ignores accesses: arrival order is destiny. Replacements
        // route here too (the default `on_replace`), keeping the original
        // arrival position.
    }

    fn on_invalidate(&mut self, _id: FileId, _meta: &EntryMeta) {
        // Nothing: an invalidated copy keeps its arrival position. A
        // refetch replaces the body in place, so had the copy moved to
        // the front, the fresh copy would be the next victim.
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

/// FIFO store bounded by total entity bytes.
pub type FifoStore = BoundedStore<FifoEviction>;

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
    fn evicts_in_arrival_order_regardless_of_access() {
        let mut s = FifoStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        s.insert(FileId(3), meta(100));
        // Touch 1 heavily; FIFO must still evict it first.
        for i in 0..10 {
            s.access(FileId(1), t(i));
        }
        let evicted = s.insert(FileId(4), meta(100));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, FileId(1));
    }

    #[test]
    fn replacement_keeps_arrival_position() {
        let mut s = FifoStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        // Refresh 1's body: it stays first in line for eviction.
        s.insert(FileId(1), meta(120));
        let evicted = s.insert(FileId(3), meta(150));
        assert_eq!(evicted[0].0, FileId(1));
    }

    #[test]
    fn growing_replacement_cannot_evict_itself() {
        let mut s = FifoStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        // Growing 1 forces an eviction; the victim must be 2 (the next
        // oldest), never 1 itself mid-replacement.
        let evicted = s.insert(FileId(1), meta(250));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, FileId(2));
        assert_eq!(s.peek(FileId(1)).unwrap().size, 250);
        assert_eq!(s.resident_bytes(), 250);
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let mut s = FifoStore::new(100);
        s.insert(FileId(1), meta(60));
        let rejected = s.insert(FileId(2), meta(500));
        assert_eq!(rejected[0].0, FileId(2));
        assert_eq!(s.len(), 1);
        assert!(s.peek(FileId(1)).is_some());
    }

    #[test]
    fn oversized_replacement_drops_the_entry() {
        let mut s = FifoStore::new(100);
        s.insert(FileId(1), meta(60));
        let rejected = s.insert(FileId(1), meta(500));
        assert_eq!(rejected[0].0, FileId(1));
        assert!(s.peek(FileId(1)).is_none());
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn remove_keeps_ledger_consistent() {
        let mut s = FifoStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        assert_eq!(s.remove(FileId(1)).unwrap().size, 100);
        assert_eq!(s.resident_bytes(), 100);
        assert!(s.remove(FileId(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        FifoStore::new(0);
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

    /// The previous implementation, kept verbatim as a reference model:
    /// `HashMap` entries plus a sequence-numbered arrival `BTreeMap`.
    struct ModelFifo {
        capacity_bytes: u64,
        entries: HashMap<FileId, (EntryMeta, u64)>,
        arrival: BTreeMap<u64, FileId>,
        bytes: u64,
        next_seq: u64,
    }

    impl ModelFifo {
        fn new(capacity_bytes: u64) -> Self {
            ModelFifo {
                capacity_bytes,
                entries: HashMap::new(),
                arrival: BTreeMap::new(),
                bytes: 0,
                next_seq: 0,
            }
        }

        fn evict_to_fit(&mut self, incoming: u64) -> Vec<(FileId, EntryMeta)> {
            let mut evicted = Vec::new();
            while self.bytes + incoming > self.capacity_bytes {
                let Some((&seq, &victim)) = self.arrival.iter().next() else {
                    break;
                };
                self.arrival.remove(&seq);
                let (meta, _) = self.entries.remove(&victim).unwrap();
                self.bytes -= meta.size;
                evicted.push((victim, meta));
            }
            evicted
        }

        fn insert(&mut self, id: FileId, meta: EntryMeta) -> Vec<(FileId, EntryMeta)> {
            if let Some((old, seq)) = self.entries.remove(&id) {
                self.bytes -= old.size;
                self.arrival.remove(&seq);
                if meta.size > self.capacity_bytes {
                    return vec![(id, meta)];
                }
                let evicted = self.evict_to_fit(meta.size);
                self.entries.insert(id, (meta, seq));
                self.arrival.insert(seq, id);
                self.bytes += meta.size;
                return evicted;
            }
            if meta.size > self.capacity_bytes {
                return vec![(id, meta)];
            }
            let evicted = self.evict_to_fit(meta.size);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.insert(id, (meta, seq));
            self.arrival.insert(seq, id);
            self.bytes += meta.size;
            evicted
        }

        fn remove(&mut self, id: FileId) -> Option<EntryMeta> {
            let (meta, seq) = self.entries.remove(&id)?;
            self.arrival.remove(&seq);
            self.bytes -= meta.size;
            Some(meta)
        }
    }

    proptest! {
        /// Ledger exactness, capacity bounds, and list↔slot bijection under
        /// arbitrary operation sequences, mirroring the LRU invariants.
        #[test]
        fn ledger_and_capacity_invariants(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut s = FifoStore::new(300);
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
                // Walk the arrival list (symmetry checked inside walk).
                let listed = s.policy().list.walk();
                prop_assert_eq!(listed.len(), s.len());
            }
        }

        /// The eviction-policy split reproduces the old BTreeMap-indexed
        /// implementation exactly — including the replacement-keeps-its-
        /// arrival-slot rule, self-exclusion during replacement sweeps,
        /// and invalidations, which move nothing.
        #[test]
        fn matches_old_btreemap_implementation(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            let mut real = FifoStore::new(300);
            let mut model = ModelFifo::new(300);
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
                        prop_assert_eq!(got, model.entries.get(&FileId(id)).map(|(m, _)| m.size));
                    }
                    Op::Remove(id) => {
                        let got = real.remove(FileId(id)).map(|m| m.size);
                        prop_assert_eq!(got, model.remove(FileId(id)).map(|m| m.size));
                    }
                    Op::Invalidate(id) => {
                        // The model's rule: an invalidation moves nothing.
                        real.invalidate(FileId(id));
                    }
                }
                prop_assert_eq!(real.len(), model.entries.len());
                prop_assert_eq!(real.resident_bytes(), model.bytes);
                // Arrival order must match the model's seq order exactly.
                let real_order: Vec<u32> = real.policy().list.walk();
                let model_order: Vec<u32> =
                    model.arrival.values().map(|id| id.0).collect();
                prop_assert_eq!(real_order, model_order);
            }
        }
    }
}
