//! Score-gated LFU eviction, after the score-based policies and
//! admission gating of Hasslinger et al. (arXiv 2308.02875).
//!
//! Plain LFU evicts the least-frequently-used resident. Two refinements
//! from the literature make it competitive on Web workloads:
//!
//! * **Ghost frequencies** — an object's access count survives its
//!   eviction, so a hot object that was pushed out does not restart cold
//!   on re-fetch (and one-hit wonders never accumulate standing).
//! * **Score-gated admission** — when inserting a *new* object would
//!   force an eviction, it is admitted only if its (ghost) frequency has
//!   reached the would-be victim's; otherwise the incoming object is
//!   turned away and the resident set is left alone. Every rejected
//!   attempt still counts toward the ghost frequency, so a genuinely
//!   popular object passes the gate after a few requests while scan
//!   traffic never displaces the working set.
//!
//! The frequency counts requests: a [`crate::Store::access`] and an
//! admission attempt each add one; replacing a resident body adds
//! nothing. An invalidated copy is queued at 0 until its next request
//! re-keys it: it goes next, and while it is resident the admission gate
//! lets any newcomer in. Its frequency stays, so the refetch keeps its
//! standing.
//!
//! Victim order is deterministic: `(frequency, id)`, lowest first, kept in
//! an indexed 4-ary heap ([`crate::evict::IndexedHeap`]) so that counting
//! a use is one sift from the entry's own node. The test module keeps an
//! ordered-tree policy (a remove plus an insert per access) as the model
//! the heap is property-tested against, op for op.

use simcore::FileId;

use crate::entry::EntryMeta;
use crate::evict::{BoundedStore, EvictionPolicy, IndexedHeap};

/// LFU victim selection with ghost frequencies and score-gated admission.
#[derive(Debug, Clone, Default)]
pub struct ScoreGatedLfu {
    /// Access frequency per slot index — ghost state: survives eviction.
    freq: Vec<u32>,
    /// Resident entries ordered by `(frequency, id)`.
    queue: IndexedHeap<u32>,
}

impl ScoreGatedLfu {
    /// The (ghost) access frequency recorded for `id`.
    pub fn frequency(&self, id: FileId) -> u32 {
        self.freq.get(id.index()).copied().unwrap_or(0)
    }

    fn bump(&mut self, id: FileId) -> u32 {
        let idx = id.index();
        if idx >= self.freq.len() {
            self.freq.resize(idx + 1, 0);
        }
        self.freq[idx] += 1;
        self.freq[idx]
    }
}

impl EvictionPolicy for ScoreGatedLfu {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn admit(&mut self, id: FileId, _meta: &EntryMeta, would_evict: bool) -> bool {
        // Every attempt counts toward the ghost frequency — including
        // rejected ones, which is what lets a popular object eventually
        // pass the gate.
        let freq = self.bump(id);
        if !would_evict {
            return true;
        }
        self.queue
            .min_key()
            .is_none_or(|victim_freq| freq >= victim_freq)
    }

    fn on_insert(&mut self, id: FileId, _meta: &EntryMeta) {
        // `admit` already counted this attempt; just queue at the
        // current frequency.
        self.queue.set(id.index(), self.freq[id.index()]);
    }

    fn on_replace(&mut self, _id: FileId, _meta: &EntryMeta) {
        // A new body is not a request: the frequency, and with it the
        // queue key, stays where the requests put it.
    }

    fn on_access(&mut self, id: FileId, _meta: &EntryMeta) {
        let freq = self.bump(id);
        self.queue.set(id.index(), freq);
    }

    fn on_invalidate(&mut self, id: FileId, _meta: &EntryMeta) {
        // Below every request count; the frequency itself stays.
        self.queue.set(id.index(), 0);
    }

    fn on_remove(&mut self, id: FileId, _meta: &EntryMeta) {
        // The queue entry goes; the ghost frequency stays.
        self.queue.remove(id.index());
    }

    fn victim(&self, exclude: Option<FileId>) -> Option<FileId> {
        self.queue.min_excluding(exclude)
    }

    fn score(&self, id: FileId) -> Option<f64> {
        self.queue.key(id.index()).map(f64::from)
    }

    fn heap_bytes(&self) -> usize {
        self.freq.capacity() * std::mem::size_of::<u32>() + self.queue.heap_bytes()
    }
}

/// Score-gated LFU store bounded by total entity bytes.
pub type LfuStore = BoundedStore<ScoreGatedLfu>;

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
    fn evicts_the_least_frequently_used() {
        let mut s = LfuStore::new(300);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        s.insert(FileId(3), meta(100));
        s.access(FileId(1), t(1));
        s.access(FileId(3), t(2));
        // 2 has frequency 1, the others 2. A newcomer ties the victim's
        // frequency (1 ≥ 1), passes the gate, and displaces 2.
        let evicted = s.insert(FileId(4), meta(100));
        assert_eq!(evicted[0].0, FileId(2));
        assert!(s.peek(FileId(4)).is_some());
        assert!(s.peek(FileId(2)).is_none(), "LFU victim displaced");
        assert!(s.peek(FileId(1)).is_some());
        assert!(s.peek(FileId(3)).is_some());
    }

    #[test]
    fn admission_gate_turns_scans_away() {
        let mut s = LfuStore::new(200);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        s.access(FileId(1), t(1));
        s.access(FileId(2), t(2));
        // A stream of one-hit wonders: each has ghost frequency 1 against
        // resident frequency 2 — all rejected, resident set untouched.
        for i in 10..20 {
            let rejected = s.insert(FileId(i), meta(100));
            assert_eq!(rejected.len(), 1);
            assert_eq!(rejected[0].0, FileId(i));
            assert!(s.peek(FileId(i)).is_none());
        }
        assert!(s.peek(FileId(1)).is_some());
        assert!(s.peek(FileId(2)).is_some());
    }

    #[test]
    fn ghost_frequency_survives_eviction() {
        let mut s = LfuStore::new(200);
        s.insert(FileId(1), meta(100));
        for i in 0..5 {
            s.access(FileId(1), t(i));
        }
        assert_eq!(s.policy().frequency(FileId(1)), 6);
        s.remove(FileId(1));
        // Still remembered after leaving the store…
        assert_eq!(s.policy().frequency(FileId(1)), 6);
        // …and the re-insert resumes from that standing.
        s.insert(FileId(1), meta(100));
        assert_eq!(s.policy().frequency(FileId(1)), 7);
    }

    #[test]
    fn admission_when_nothing_would_be_evicted_is_unconditional() {
        let mut s = LfuStore::new(300);
        for i in 0..3 {
            assert!(s.insert(FileId(i), meta(100)).is_empty());
        }
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn replacement_is_always_admitted() {
        let mut s = LfuStore::new(250);
        s.insert(FileId(1), meta(100));
        s.insert(FileId(2), meta(100));
        // Replacing a resident body bypasses the admission gate (the
        // object is already cached) and is not a use: the frequency stays.
        let evicted = s.insert(FileId(1), meta(200));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, FileId(2));
        assert_eq!(s.peek(FileId(1)).unwrap().size, 200);
        assert_eq!(s.policy().frequency(FileId(1)), 1);
    }

    #[test]
    fn score_reflects_frequency_of_residents_only() {
        let mut s = LfuStore::new(300);
        s.insert(FileId(1), meta(100));
        s.access(FileId(1), t(1));
        assert_eq!(s.policy().score(FileId(1)), Some(2.0));
        assert_eq!(s.policy().score(FileId(9)), None);
        s.remove(FileId(1));
        assert_eq!(s.policy().score(FileId(1)), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        LfuStore::new(0);
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

    /// The previous implementation, kept as a reference model: the queue
    /// key per slot beside a `BTreeSet` of `(frequency, id)`, every
    /// counted use a tree remove plus a tree insert. Its replacement and
    /// invalidation rules follow the policy's definition (a new body is
    /// not a use; an invalidated copy is keyed 0).
    #[derive(Debug, Clone, Default)]
    struct ModelLfu {
        /// Access frequency per slot index — ghost state: survives eviction.
        freq: Vec<u32>,
        /// The frequency each resident was last queued under (its queue key).
        key: Vec<u32>,
        /// Resident entries ordered by `(frequency, id)`.
        queue: BTreeSet<(u32, u32)>,
    }

    impl ModelLfu {
        fn frequency(&self, id: FileId) -> u32 {
            self.freq.get(id.index()).copied().unwrap_or(0)
        }

        fn bump(&mut self, id: FileId) -> u32 {
            let idx = id.index();
            if idx >= self.freq.len() {
                self.freq.resize(idx + 1, 0);
                self.key.resize(idx + 1, 0);
            }
            self.freq[idx] += 1;
            self.freq[idx]
        }

        fn enqueue(&mut self, id: FileId) {
            let idx = id.index();
            self.key[idx] = self.freq[idx];
            self.queue.insert((self.key[idx], idx as u32));
        }

        fn unqueue(&mut self, id: FileId) {
            let idx = id.index();
            self.queue.remove(&(self.key[idx], idx as u32));
        }
    }

    impl EvictionPolicy for ModelLfu {
        fn name(&self) -> &'static str {
            "lfu"
        }

        fn admit(&mut self, id: FileId, _meta: &EntryMeta, would_evict: bool) -> bool {
            // Every attempt counts toward the ghost frequency — including
            // rejected ones, which is what lets a popular object eventually
            // pass the gate.
            let freq = self.bump(id);
            if !would_evict {
                return true;
            }
            match self.queue.iter().next() {
                Some(&(victim_freq, _)) => freq >= victim_freq,
                None => true,
            }
        }

        fn on_insert(&mut self, id: FileId, _meta: &EntryMeta) {
            // `admit` already counted this attempt; just queue at the
            // current frequency.
            self.enqueue(id);
        }

        fn on_replace(&mut self, _id: FileId, _meta: &EntryMeta) {
            // A new body is not a request.
        }

        fn on_access(&mut self, id: FileId, _meta: &EntryMeta) {
            self.unqueue(id);
            self.bump(id);
            self.enqueue(id);
        }

        fn on_invalidate(&mut self, id: FileId, _meta: &EntryMeta) {
            self.unqueue(id);
            self.key[id.index()] = 0;
            self.queue.insert((0, id.0));
        }

        fn on_remove(&mut self, id: FileId, _meta: &EntryMeta) {
            // The queue entry goes; the ghost frequency stays.
            self.unqueue(id);
        }

        fn victim(&self, exclude: Option<FileId>) -> Option<FileId> {
            self.queue
                .iter()
                .map(|&(_, idx)| FileId::from_index(idx as usize))
                .find(|&id| Some(id) != exclude)
        }

        fn score(&self, id: FileId) -> Option<f64> {
            let idx = id.index();
            let key = *self.key.get(idx)?;
            self.queue
                .contains(&(key, idx as u32))
                .then(|| f64::from(key))
        }

        fn heap_bytes(&self) -> usize {
            // The tree's elements; its nodes' overhead is not counted.
            (self.freq.capacity() + self.key.capacity()) * std::mem::size_of::<u32>()
                + self.queue.len() * std::mem::size_of::<(u32, u32)>()
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
        /// The heap is a pure index change: against the `BTreeSet` model,
        /// the same victims in the same order, the same admission
        /// verdicts (a refusal is reported as the newcomer's eviction),
        /// the same scores and the same ghost frequencies, over inserts,
        /// accesses, removals, invalidations, growing replacements of the
        /// current victim and oversized bodies — frequencies tie
        /// constantly, so the id decides most victims.
        #[test]
        fn matches_old_btreeset_implementation(
            ops in proptest::collection::vec(lockstep::op_strategy(), 0..400),
        ) {
            lockstep::assert_same_behaviour(ops, |real: &ScoreGatedLfu, model: &ModelLfu, id| {
                assert_eq!(real.frequency(id), model.frequency(id));
            });
        }

        /// Ledger invariants and victim minimality under arbitrary
        /// operations: bytes exact, capacity respected, queue in bijection
        /// with residents, and the victim's frequency is minimal.
        #[test]
        fn ledger_and_victim_invariants(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut s = LfuStore::new(300);
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
                if let Some(victim) = s.policy().victim(None) {
                    let vscore = s.policy().score(victim).expect("victim resident");
                    for (id, _) in s.iter() {
                        prop_assert!(vscore <= s.policy().score(id).unwrap());
                    }
                }
            }
        }
    }
}
