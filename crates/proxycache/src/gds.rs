//! GreedyDual-Size eviction — the score-based classic, after Cao & Irani
//! and the eviction-policy survey of Hasslinger et al. (arXiv 2308.02875).
//!
//! Every resident object carries a score `H = L + cost / size`, where `L`
//! is a monotonically inflating aging term: on insert and on each access
//! the object's score is refreshed with the *current* `L`; on eviction
//! `L` rises to the victim's score. Recently useful objects therefore
//! float above the waterline while untouched ones sink back to it — an
//! LRU-like recency effect expressed purely through scores, with the
//! `cost/size` term biasing the cache toward keeping small objects (this
//! implementation uses a uniform miss cost of 1, the object-hit-ratio
//! variant of GreedyDual-Size). An invalidated copy saves no miss when
//! next requested, so its cost is 0 and its score drops to `L` itself:
//! every resident score is at least `L`, so it goes next, and evicting it
//! leaves `L` where it was.
//!
//! Determinism: scores are positive finite `f64`s, ordered through their
//! IEEE-754 bit patterns (order-preserving for non-negative floats) with
//! the file id as tiebreak, so victim selection never depends on float
//! comparison quirks or container layout. Residents sit in an indexed
//! 8-ary heap ([`crate::evict::IndexedHeap`]) whose nodes are `u128`s
//! packing the score bits above the id, so that a node's order is
//! `(score bits, id)`'s: refreshing a score is one sift from the entry's
//! own node, and the victim is the root. The test module keeps an
//! ordered-tree policy (a remove plus an insert per access) as the model
//! the heap is property-tested against, op for op.

use simcore::FileId;

use crate::entry::EntryMeta;
use crate::evict::{BoundedStore, EvictionPolicy, IndexedHeap};

/// GreedyDual-Size victim selection: evict the minimal-score entry,
/// aging the pool by the victim's score.
#[derive(Debug, Clone, Default)]
pub struct GreedyDualSize {
    /// Resident entries ordered by `(score bits, id)`, one `u128` node
    /// each; the heap holds each resident's current score as its key.
    queue: IndexedHeap<u64>,
    /// The aging term `L`: the score of the last capacity victim.
    inflation: f64,
}

impl GreedyDualSize {
    /// The inflation ("L") term: the score everything new is anchored to.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// Queue `id` at — or move it to — the current inflation plus its
    /// size credit.
    fn rescore(&mut self, id: FileId, meta: &EntryMeta) {
        let score = self.inflation + 1.0 / meta.size.max(1) as f64;
        self.queue.set(id.index(), score.to_bits());
    }
}

impl EvictionPolicy for GreedyDualSize {
    fn name(&self) -> &'static str {
        "gds"
    }

    fn on_insert(&mut self, id: FileId, meta: &EntryMeta) {
        self.rescore(id, meta);
    }

    fn on_access(&mut self, id: FileId, meta: &EntryMeta) {
        // Refresh the credit with the current inflation (and current
        // size — replacements route here too, via the default
        // `on_replace`: the credit is a function of size, so a new body
        // is rescored by definition).
        self.rescore(id, meta);
    }

    fn on_invalidate(&mut self, id: FileId, _meta: &EntryMeta) {
        // H = L + 0 / size: a minimum, since no resident credit is below L.
        self.queue.set(id.index(), self.inflation.to_bits());
    }

    fn on_remove(&mut self, id: FileId, _meta: &EntryMeta) {
        self.queue.remove(id.index());
    }

    fn on_evict(&mut self, id: FileId, meta: &EntryMeta) {
        // The GreedyDual aging step: L rises to the evicted score. Only
        // capacity evictions age the pool; explicit removals do not.
        self.inflation = self.score(id).expect("evicted entry is queued");
        self.on_remove(id, meta);
    }

    fn victim(&self, exclude: Option<FileId>) -> Option<FileId> {
        self.queue.min_excluding(exclude)
    }

    fn score(&self, id: FileId) -> Option<f64> {
        self.queue.key(id.index()).map(f64::from_bits)
    }

    fn heap_bytes(&self) -> usize {
        self.queue.heap_bytes()
    }
}

/// GreedyDual-Size store bounded by total entity bytes.
pub type GdsStore = BoundedStore<GreedyDualSize>;

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
    fn prefers_evicting_large_objects_at_equal_recency() {
        let mut s = GdsStore::new(300);
        s.insert(FileId(1), meta(200)); // score L + 1/200 — smallest
        s.insert(FileId(2), meta(50));
        s.insert(FileId(3), meta(50));
        let evicted = s.insert(FileId(4), meta(100));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, FileId(1), "largest object has least score");
    }

    #[test]
    fn access_refreshes_credit_above_the_waterline() {
        let mut s = GdsStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        s.insert(FileId(3), meta(100));
        // Force an eviction to raise L, then touch 2 so its score is
        // re-anchored at the new L; 3 (still at old L) goes next.
        let first = s.insert(FileId(4), meta(100));
        assert_eq!(first[0].0, FileId(1));
        assert!(s.policy().inflation() > 0.0);
        s.access(FileId(2), t(1));
        let second = s.insert(FileId(5), meta(100));
        assert_eq!(second[0].0, FileId(3));
        assert!(s.peek(FileId(2)).is_some());
    }

    #[test]
    fn inflation_rises_monotonically_with_evictions() {
        let mut s = GdsStore::new(200);
        let mut last = 0.0;
        for i in 0..20 {
            s.insert(FileId(i), meta(100));
            let l = s.policy().inflation();
            assert!(l >= last, "inflation decreased: {l} < {last}");
            last = l;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn remove_does_not_age_the_pool() {
        let mut s = GdsStore::new(300);
        s.insert(FileId(1), meta(100));
        assert_eq!(s.remove(FileId(1)).unwrap().size, 100);
        assert_eq!(s.policy().inflation(), 0.0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn scores_expose_the_resident_set_only() {
        let mut s = GdsStore::new(300);
        s.insert(FileId(1), meta(100));
        assert!(s.policy().score(FileId(1)).is_some());
        assert!(s.policy().score(FileId(2)).is_none());
        s.remove(FileId(1));
        assert!(s.policy().score(FileId(1)).is_none());
    }

    #[test]
    fn oversized_and_replacement_semantics_match_the_seam() {
        let mut s = GdsStore::new(100);
        s.insert(FileId(1), meta(60));
        // Oversized fresh insert rejected.
        let rejected = s.insert(FileId(2), meta(500));
        assert_eq!(rejected[0].0, FileId(2));
        // Growing replacement cannot evict itself.
        s.insert(FileId(3), meta(40));
        let evicted = s.insert(FileId(1), meta(61));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, FileId(3));
        assert_eq!(s.peek(FileId(1)).unwrap().size, 61);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        GdsStore::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::evict::lockstep;
    use crate::store::Store;
    use proptest::prelude::*;
    use simcore::SimTime;
    use std::collections::BTreeSet;

    /// The previous implementation, kept verbatim as a reference model:
    /// a score per slot beside a `BTreeSet` of `(score bits, id)`, every
    /// refresh a tree remove plus a tree insert.
    #[derive(Debug, Clone, Default)]
    struct ModelGds {
        /// Current score per slot index (meaningful while resident).
        scores: Vec<f64>,
        /// Resident entries ordered by `(score bits, id)`.
        queue: BTreeSet<(u64, u32)>,
        /// The aging term `L`: the score of the last capacity victim.
        inflation: f64,
    }

    impl ModelGds {
        fn inflation(&self) -> f64 {
            self.inflation
        }

        fn fresh_score(&self, meta: &EntryMeta) -> f64 {
            self.inflation + 1.0 / meta.size.max(1) as f64
        }

        fn rescore(&mut self, id: FileId, score: f64) {
            let idx = id.index();
            if idx >= self.scores.len() {
                self.scores.resize(idx + 1, 0.0);
            }
            self.scores[idx] = score;
            self.queue.insert((score.to_bits(), idx as u32));
        }

        fn unqueue(&mut self, id: FileId) {
            let idx = id.index();
            self.queue.remove(&(self.scores[idx].to_bits(), idx as u32));
        }
    }

    impl EvictionPolicy for ModelGds {
        fn name(&self) -> &'static str {
            "gds"
        }

        fn on_insert(&mut self, id: FileId, meta: &EntryMeta) {
            let score = self.fresh_score(meta);
            self.rescore(id, score);
        }

        fn on_access(&mut self, id: FileId, meta: &EntryMeta) {
            // Refresh the credit with the current inflation (and current
            // size — replacements route here too, via the default
            // `on_replace`).
            self.unqueue(id);
            let score = self.fresh_score(meta);
            self.rescore(id, score);
        }

        fn on_invalidate(&mut self, id: FileId, _meta: &EntryMeta) {
            // An invalidated copy is scored at the inflation alone.
            self.unqueue(id);
            self.rescore(id, self.inflation);
        }

        fn on_remove(&mut self, id: FileId, _meta: &EntryMeta) {
            self.unqueue(id);
        }

        fn on_evict(&mut self, id: FileId, meta: &EntryMeta) {
            // The GreedyDual aging step: L rises to the evicted score. Only
            // capacity evictions age the pool; explicit removals do not.
            self.inflation = self.scores[id.index()];
            self.on_remove(id, meta);
        }

        fn victim(&self, exclude: Option<FileId>) -> Option<FileId> {
            self.queue
                .iter()
                .map(|&(_, idx)| FileId::from_index(idx as usize))
                .find(|&id| Some(id) != exclude)
        }

        fn score(&self, id: FileId) -> Option<f64> {
            let idx = id.index();
            let score = *self.scores.get(idx)?;
            self.queue
                .contains(&(score.to_bits(), idx as u32))
                .then_some(score)
        }

        fn heap_bytes(&self) -> usize {
            // The tree's elements; its nodes' overhead is not counted.
            self.scores.capacity() * std::mem::size_of::<f64>()
                + self.queue.len() * std::mem::size_of::<(u64, u32)>()
        }
    }

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

    proptest! {
        /// The satellite invariant: the GreedyDual victim always has the
        /// minimal score among resident entries, whatever history led to
        /// the current state — checked by draining the store victim by
        /// victim after an arbitrary operation sequence.
        #[test]
        fn victim_has_minimal_score(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut s = GdsStore::new(300);
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
            }
            while let Some(victim) = s.policy().victim(None) {
                let vscore = s.policy().score(victim).expect("victim must be resident");
                for (id, _) in s.iter() {
                    let score = s.policy().score(id).expect("resident entries are scored");
                    prop_assert!(vscore <= score, "victim {vscore} > resident {score}");
                }
                s.remove(victim);
            }
            prop_assert_eq!(s.len(), 0);
        }

        /// The heap is a pure index change: against the `BTreeSet` model,
        /// the same victims in the same order, the same scores and the
        /// same inflation, over inserts, accesses, removals,
        /// invalidations, growing replacements of the current victim and
        /// oversized bodies, with sizes few enough that scores tie and the
        /// id decides.
        #[test]
        fn matches_old_btreeset_implementation(
            ops in proptest::collection::vec(lockstep::op_strategy(), 0..400),
        ) {
            lockstep::assert_same_behaviour(ops, |real: &GreedyDualSize, model: &ModelGds, _| {
                assert_eq!(real.inflation().to_bits(), model.inflation().to_bits());
            });
        }

        /// Ledger invariants under arbitrary operations, mirroring the
        /// LRU/FIFO suites: bytes exact, capacity respected, queue in
        /// bijection with the resident set.
        #[test]
        fn ledger_and_capacity_invariants(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut s = GdsStore::new(300);
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
                prop_assert_eq!(s.policy().queue.len(), s.len());
                for (id, _) in s.iter() {
                    prop_assert!(s.policy().score(id).is_some());
                }
            }
        }
    }
}
