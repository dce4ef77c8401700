//! The eviction seam: [`EvictionPolicy`] and the generic [`BoundedStore`].
//!
//! Eviction used to be baked into each bounded container (`LruStore` and
//! `FifoStore` each owned a slot table *and* a victim-selection rule).
//! This module splits the two concerns: [`BoundedStore`] owns the dense
//! slot table, the byte ledger, and the capacity sweep; an
//! [`EvictionPolicy`] owns only its ordering/score bookkeeping and answers
//! one question — *who goes next?* LRU and FIFO are reimplemented on the
//! seam atop the same intrusive doubly-linked list as before;
//! GreedyDual-Size and score-gated LFU plug in the score-based rules of
//! Hasslinger et al. (arXiv 2308.02875) without touching the container.
//!
//! The policies share two ordering backbones, both flat arrays over the
//! dense slot indices with no per-entry allocation: [`IntrusiveList`] for
//! *order* (LRU recency, FIFO arrival — a touch is an O(1) splice) and
//! [`IndexedHeap`] for *score* (GDS credit, LFU frequency — a touch is one
//! sift from the entry's own position).
//!
//! ## Contract
//!
//! The store drives the policy through callbacks; the policy must track
//! exactly the resident set:
//!
//! * [`EvictionPolicy::on_insert`] — a new entry became resident;
//! * [`EvictionPolicy::on_replace`] — a resident entry's body was replaced
//!   in place (same id, possibly new size);
//! * [`EvictionPolicy::on_access`] — a resident entry was used: a
//!   [`Store::access`], which a cache makes once per request and for
//!   nothing else ([`Store::peek_mut`] changes an entry without a use);
//! * [`EvictionPolicy::on_invalidate`] — a resident entry was marked
//!   unservable ([`Store::invalidate`]); each policy states where that
//!   puts it in its eviction order (LRU, GDS and LFU: next victim);
//! * [`EvictionPolicy::on_remove`] / [`EvictionPolicy::on_evict`] — the
//!   entry left the store (explicit removal vs. capacity eviction; GDS
//!   ages its inflation term only on the latter);
//! * [`EvictionPolicy::victim`] — the next entry the policy would evict,
//!   never the excluded one (the store excludes the entry being replaced,
//!   whose bytes are already off the ledger mid-sweep);
//! * [`EvictionPolicy::admit`] — an optional admission gate consulted for
//!   *new* entries only, and only when admitting would force an eviction.
//!
//! What a replacement does is part of each policy's definition
//! ([`EvictionPolicy::on_replace`] names them). LRU, FIFO and GDS keep the
//! default `on_replace → on_access` wiring, which is why the split
//! reproduces the legacy stores' victim sequences exactly (property-tested
//! against the original implementations in `lru.rs` and `fifo.rs`); LFU
//! overrides it.

use simcore::{FileId, SimTime};

use crate::entry::EntryMeta;
use crate::store::{ensure_slot, slot_table_bytes, Entries, Evicted, Store};

pub(crate) const NIL: u32 = u32::MAX;

/// A victim-selection rule for a [`BoundedStore`].
///
/// Implementations keep their own view of the resident set (recency list,
/// score queue, …) updated through the callbacks below; the store owns
/// the entries themselves.
pub trait EvictionPolicy {
    /// Short label for reports (`"lru"`, `"fifo"`, `"gds"`, `"lfu"`).
    fn name(&self) -> &'static str;

    /// Admission gate, consulted for entries not yet resident and only
    /// when admitting `meta` would force an eviction (`would_evict`).
    /// Returning `false` rejects the incoming entry, which the store
    /// reports as its own eviction. The default admits everything.
    fn admit(&mut self, _id: FileId, _meta: &EntryMeta, _would_evict: bool) -> bool {
        true
    }

    /// A new entry became resident.
    fn on_insert(&mut self, id: FileId, meta: &EntryMeta);

    /// A resident entry's body was replaced in place (same id, possibly a
    /// new size). Defaults to [`EvictionPolicy::on_access`], and what that
    /// means is each policy's definition: LRU moves the entry to the
    /// most-recent end, GDS recomputes its credit from the new size at the
    /// current inflation, FIFO keeps its arrival position (its accesses
    /// are no-ops). LFU overrides it to do nothing: a new body is not a
    /// request, so the frequency stays.
    fn on_replace(&mut self, id: FileId, meta: &EntryMeta) {
        self.on_access(id, meta);
    }

    /// A resident entry was used ([`Store::access`]).
    fn on_access(&mut self, id: FileId, meta: &EntryMeta);

    /// A resident entry was marked unservable ([`Store::invalidate`]): its
    /// next request refetches it whole, so the copy is worth no more than
    /// an absent one. Required, so that each policy writes down its rule.
    fn on_invalidate(&mut self, id: FileId, meta: &EntryMeta);

    /// A resident entry was removed outright.
    fn on_remove(&mut self, id: FileId, meta: &EntryMeta);

    /// A resident entry was evicted for capacity. Defaults to
    /// [`EvictionPolicy::on_remove`]; score-aging policies (GreedyDual)
    /// override it to learn from the victim's score first.
    fn on_evict(&mut self, id: FileId, meta: &EntryMeta) {
        self.on_remove(id, meta);
    }

    /// The entry the policy evicts next, never `exclude`. `None` when no
    /// evictable entry remains.
    fn victim(&self, exclude: Option<FileId>) -> Option<FileId>;

    /// The policy's current score for a resident entry, where meaningful
    /// (`None` for purely order-based policies and absent entries).
    fn score(&self, _id: FileId) -> Option<f64> {
        None
    }

    /// The heap bytes of the policy's arrays, capacity times element
    /// size; [`Store::heap_bytes`] adds them to the slot table's.
    fn heap_bytes(&self) -> usize;
}

/// A byte-capacity-bounded store generic over its [`EvictionPolicy`].
///
/// Owns the dense slot table and the byte ledger; delegates victim
/// selection to `E`. `LruStore`, `FifoStore`, `GdsStore`, and `LfuStore`
/// are type aliases over this container.
#[derive(Debug)]
pub struct BoundedStore<E> {
    capacity_bytes: u64,
    slots: Vec<Option<EntryMeta>>,
    len: usize,
    bytes: u64,
    policy: E,
}

impl<E: EvictionPolicy + Default> BoundedStore<E> {
    /// A store that evicts by `E`'s rule once resident bytes would exceed
    /// `capacity_bytes`.
    ///
    /// # Panics
    /// Panics if `capacity_bytes == 0`.
    pub fn new(capacity_bytes: u64) -> Self {
        let policy = E::default();
        assert!(
            capacity_bytes > 0,
            "{} capacity must be positive",
            policy.name()
        );
        BoundedStore {
            capacity_bytes,
            slots: Vec::new(),
            len: 0,
            bytes: 0,
            policy,
        }
    }
}

impl<E: EvictionPolicy> BoundedStore<E> {
    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// The eviction policy driving this store.
    pub fn policy(&self) -> &E {
        &self.policy
    }

    fn evict_to_fit(&mut self, incoming: u64, exclude: Option<FileId>, out: &mut Evicted) {
        while self.bytes + incoming > self.capacity_bytes {
            let Some(victim) = self.policy.victim(exclude) else {
                break; // nothing evictable; oversized entries handled by caller
            };
            let meta = self.slots[victim.index()]
                .take()
                .expect("eviction policy chose an absent entry");
            self.policy.on_evict(victim, &meta);
            self.bytes -= meta.size;
            self.len -= 1;
            out.push(victim, meta);
        }
    }
}

impl<E: EvictionPolicy> Store for BoundedStore<E> {
    fn peek(&self, id: FileId) -> Option<&EntryMeta> {
        self.slots.get(id.index())?.as_ref()
    }

    fn access(&mut self, id: FileId, _now: SimTime) -> Option<&mut EntryMeta> {
        let meta = *self.slots.get(id.index())?.as_ref()?;
        self.policy.on_access(id, &meta);
        self.slots[id.index()].as_mut()
    }

    fn peek_mut(&mut self, id: FileId) -> Option<&mut EntryMeta> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    fn invalidate(&mut self, id: FileId) {
        if let Some(Some(meta)) = self.slots.get_mut(id.index()) {
            meta.mark_invalid();
            self.policy.on_invalidate(id, meta);
        }
    }

    fn insert(&mut self, id: FileId, meta: EntryMeta) -> Evicted {
        ensure_slot(&mut self.slots, id);
        let idx = id.index();
        if let Some(old) = self.slots[idx] {
            // Replacing an entry frees its bytes before fit is judged; the
            // entry keeps its policy position and is excluded from the
            // eviction sweep (it cannot evict itself mid-replacement).
            self.bytes -= old.size;
            if meta.size > self.capacity_bytes {
                // The grown body no longer fits at all: the entry leaves
                // the store and the incoming copy is reported as evicted.
                self.policy.on_remove(id, &old);
                self.slots[idx] = None;
                self.len -= 1;
                return Evicted::one(id, meta);
            }
            let mut evicted = Evicted::none();
            self.evict_to_fit(meta.size, Some(id), &mut evicted);
            self.slots[idx] = Some(meta);
            self.policy.on_replace(id, &meta);
            self.bytes += meta.size;
            return evicted;
        }
        if meta.size > self.capacity_bytes {
            // An entity larger than the whole cache is never admitted;
            // report it as immediately "evicted" so callers keep ledgers
            // consistent.
            return Evicted::one(id, meta);
        }
        let would_evict = self.bytes + meta.size > self.capacity_bytes;
        if !self.policy.admit(id, &meta, would_evict) {
            return Evicted::one(id, meta);
        }
        let mut evicted = Evicted::none();
        self.evict_to_fit(meta.size, None, &mut evicted);
        self.slots[idx] = Some(meta);
        self.policy.on_insert(id, &meta);
        self.bytes += meta.size;
        self.len += 1;
        evicted
    }

    fn remove(&mut self, id: FileId) -> Option<EntryMeta> {
        let meta = self.slots.get_mut(id.index())?.take()?;
        self.policy.on_remove(id, &meta);
        self.bytes -= meta.size;
        self.len -= 1;
        Some(meta)
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
        slot_table_bytes(&self.slots) + self.policy.heap_bytes()
    }
}

/// An intrusive doubly-linked list over dense slot indices — the shared
/// ordering backbone of the LRU (recency) and FIFO (arrival) policies.
/// O(1) splice, no per-node allocation; `head` is the next victim.
#[derive(Debug, Clone)]
pub(crate) struct IntrusiveList {
    /// `(prev, next)` per slot index; `NIL` terminates.
    links: Vec<(u32, u32)>,
    head: u32,
    tail: u32,
}

impl Default for IntrusiveList {
    fn default() -> Self {
        IntrusiveList {
            links: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl IntrusiveList {
    /// Link `idx` at the back (newest) end. `idx` must not be linked.
    pub(crate) fn push_back(&mut self, idx: usize) {
        if idx >= self.links.len() {
            self.links.resize(idx + 1, (NIL, NIL));
        }
        let idx = idx as u32;
        let tail = self.tail;
        self.links[idx as usize] = (tail, NIL);
        if tail == NIL {
            self.head = idx;
        } else {
            self.links[tail as usize].1 = idx;
        }
        self.tail = idx;
    }

    /// Splice a linked `idx` out of the list.
    pub(crate) fn unlink(&mut self, idx: usize) {
        let (prev, next) = self.links[idx];
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev as usize].1 = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize].0 = prev;
        }
        self.links[idx] = (NIL, NIL);
    }

    /// Move a linked `idx` to the back; a no-op if it is already there.
    pub(crate) fn move_to_back(&mut self, idx: usize) {
        if self.tail == idx as u32 {
            return;
        }
        self.unlink(idx);
        self.push_back(idx);
    }

    /// Move a linked `idx` to the front; a no-op if it is already there.
    pub(crate) fn move_to_front(&mut self, idx: usize) {
        let at = idx as u32;
        if self.head == at {
            return;
        }
        self.unlink(idx);
        let head = self.head;
        self.links[idx] = (NIL, head);
        if head == NIL {
            self.tail = at;
        } else {
            self.links[head as usize].0 = at;
        }
        self.head = at;
    }

    /// The heap bytes of the link array.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.links.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// The front (oldest) entry, skipping `exclude` once.
    pub(crate) fn front_excluding(&self, exclude: Option<FileId>) -> Option<FileId> {
        let mut v = self.head;
        if let Some(ex) = exclude {
            if v == ex.index() as u32 {
                v = self.links[v as usize].1;
            }
        }
        (v != NIL).then(|| FileId::from_index(v as usize))
    }

    /// Walk front→back, asserting link symmetry; returns the visited slot
    /// indices in order. Test support.
    #[cfg(test)]
    pub(crate) fn walk(&self) -> Vec<u32> {
        let mut order = Vec::new();
        let mut idx = self.head;
        let mut prev = NIL;
        while idx != NIL {
            let (p, next) = self.links[idx as usize];
            assert_eq!(p, prev, "broken back-link at {idx}");
            order.push(idx);
            prev = idx;
            idx = next;
        }
        assert_eq!(self.tail, prev, "tail does not terminate the list");
        order
    }
}

/// Children per node of an [`IndexedHeap`]. Four keeps a node's children
/// in one or two cache lines and the tree half as deep as a binary heap's.
/// Picked by the benchmark's `proxycache.{gds,lfu}.op_ns` rungs, read
/// against `lru.op_ns` of the same run: 2 was ~13 % slower, 8 no faster.
const ARITY: usize = 4;

/// An indexed d-ary min-heap over dense slot indices — the shared ordering
/// backbone of the score-based policies (GDS credit, LFU frequency).
/// Entries are ordered by `(key, slot index)`, so equal keys fall out in
/// id order; `pos` finds an entry's node without a search, which makes a
/// re-key one sift instead of a tree remove plus a tree insert.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndexedHeap<K> {
    /// `(key, slot index)`; every node is no less than its parent.
    heap: Vec<(K, u32)>,
    /// Slot index → position in `heap`; `NIL` while unqueued.
    pos: Vec<u32>,
}

impl<K: Ord + Copy> IndexedHeap<K> {
    /// Queue `idx` under `key`, or re-key it in place if already queued.
    pub(crate) fn set(&mut self, idx: usize, key: K) {
        if idx >= self.pos.len() {
            self.pos.resize(idx + 1, NIL);
        }
        let at = self.pos[idx];
        if at == NIL {
            self.heap.push((key, idx as u32));
            self.sift_up(self.heap.len() - 1);
        } else {
            let at = at as usize;
            let old = std::mem::replace(&mut self.heap[at].0, key);
            self.sift(at, key < old);
        }
    }

    /// Unqueue `idx`; a no-op if it is not queued.
    pub(crate) fn remove(&mut self, idx: usize) {
        let Some(&at) = self.pos.get(idx).filter(|&&at| at != NIL) else {
            return;
        };
        let at = at as usize;
        self.pos[idx] = NIL;
        let gone = self.heap.swap_remove(at);
        if at < self.heap.len() {
            // The former last node now sits in the vacated position.
            self.sift(at, self.heap[at] < gone);
        }
    }

    /// The key `idx` is queued under, `None` if it is not queued.
    pub(crate) fn key(&self, idx: usize) -> Option<K> {
        let at = *self.pos.get(idx)?;
        (at != NIL).then(|| self.heap[at as usize].0)
    }

    /// The heap bytes of the node and position arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<(K, u32)>()
            + self.pos.capacity() * std::mem::size_of::<u32>()
    }

    /// The least key queued.
    pub(crate) fn min_key(&self) -> Option<K> {
        self.heap.first().map(|&(key, _)| key)
    }

    /// The least entry other than `exclude`: the root, or — when the root
    /// is the excluded one — the least of the root's children, which is
    /// where a heap keeps its second-smallest.
    pub(crate) fn min_excluding(&self, exclude: Option<FileId>) -> Option<FileId> {
        let &(_, root) = self.heap.first()?;
        let least = if exclude.is_some_and(|ex| ex.index() as u32 == root) {
            self.heap[1..].iter().take(ARITY).min()?.1
        } else {
            root
        };
        Some(FileId::from_index(least as usize))
    }

    /// Restore heap order around the one node at `at` that may break it.
    fn sift(&mut self, at: usize, up: bool) {
        if up {
            self.sift_up(at);
        } else {
            self.sift_down(at);
        }
    }

    fn sift_up(&mut self, mut at: usize) {
        let entry = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / ARITY;
            if self.heap[parent] <= entry {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, entry);
    }

    fn sift_down(&mut self, mut at: usize) {
        let entry = self.heap[at];
        loop {
            let first = at * ARITY + 1;
            let children = first..(first + ARITY).min(self.heap.len());
            let Some(least) = children.min_by_key(|&child| self.heap[child]) else {
                break;
            };
            if entry <= self.heap[least] {
                break;
            }
            self.place(at, self.heap[least]);
            at = least;
        }
        self.place(at, entry);
    }

    fn place(&mut self, at: usize, entry: (K, u32)) {
        self.heap[at] = entry;
        self.pos[entry.1 as usize] = at as u32;
    }

    /// Number of queued entries. Test support.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Assert heap order and the `pos` ↔ `heap` bijection; returns the
    /// queued `(key, slot index)` pairs in ascending order. Test support.
    #[cfg(test)]
    pub(crate) fn sorted(&self) -> Vec<(K, u32)>
    where
        K: std::fmt::Debug,
    {
        for (at, &(_, idx)) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[idx as usize], at as u32, "pos of {idx} is off");
            if at > 0 {
                let parent = (at - 1) / ARITY;
                assert!(
                    self.heap[parent] < self.heap[at],
                    "node {at} below its parent"
                );
            }
        }
        let queued = self.pos.iter().filter(|&&at| at != NIL).count();
        assert_eq!(queued, self.heap.len(), "pos names a node heap lacks");
        let mut sorted = self.heap.clone();
        sorted.sort_unstable();
        sorted
    }
}

/// Lockstep comparison of a policy with the model it replaced. `gds.rs`
/// and `lfu.rs` keep their `BTreeSet` originals as models and drive both
/// through the same [`BoundedStore`] with this.
#[cfg(test)]
pub(crate) mod lockstep {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    pub(crate) enum Op {
        Insert(u32, u64),
        Access(u32),
        Remove(u32),
        Invalidate(u32),
        /// Re-insert the current victim this many bytes larger: the sweep
        /// that makes room must pass over the head of the order.
        GrowVictim(u64),
    }

    const CAPACITY: u64 = 1_500;
    const IDS: u32 = 64;
    /// Few distinct sizes, so that GDS scores tie at equal inflation (LFU
    /// frequencies tie by themselves); the last is larger than the store.
    const SIZES: [u64; 7] = [10, 30, 30, 60, 60, 150, 1_600];

    pub(crate) fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..IDS, 0..SIZES.len()).prop_map(|(id, size)| Op::Insert(id, SIZES[size])),
            (0..IDS, 0..SIZES.len()).prop_map(|(id, size)| Op::Insert(id, SIZES[size])),
            (0..IDS).prop_map(Op::Access),
            (0..IDS).prop_map(Op::Access),
            (0..IDS).prop_map(Op::Remove),
            (0..IDS).prop_map(Op::Invalidate),
            (1u64..1_600).prop_map(Op::GrowVictim),
        ]
    }

    /// Run `ops` through a store ordered by `E` and one ordered by `M` and
    /// demand the same evictions in the same order (a refused newcomer
    /// comes back as its own eviction, so admission verdicts are among
    /// them), the same ledger, and after every op the same victim with
    /// and without each id excluded, the same score per id, and whatever
    /// else `same_readout` compares.
    pub(crate) fn assert_same_behaviour<E, M>(ops: Vec<Op>, same_readout: impl Fn(&E, &M, FileId))
    where
        E: EvictionPolicy + Default,
        M: EvictionPolicy + Default,
    {
        let mut real = BoundedStore::<E>::new(CAPACITY);
        let mut model = BoundedStore::<M>::new(CAPACITY);
        for (i, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            let insert = match op {
                Op::Insert(id, size) => Some((FileId(id), size)),
                Op::GrowVictim(by) => {
                    let victim = real.policy().victim(None);
                    victim.map(|id| (id, real.peek(id).expect("victim is resident").size + by))
                }
                Op::Access(id) => {
                    let got = real.access(FileId(id), now).copied();
                    assert_eq!(got, model.access(FileId(id), now).copied());
                    None
                }
                Op::Remove(id) => {
                    assert_eq!(real.remove(FileId(id)), model.remove(FileId(id)));
                    None
                }
                Op::Invalidate(id) => {
                    real.invalidate(FileId(id));
                    model.invalidate(FileId(id));
                    None
                }
            };
            if let Some((id, size)) = insert {
                let meta = EntryMeta::fresh(size, now, now);
                assert_eq!(*real.insert(id, meta), *model.insert(id, meta));
            }
            assert!(real.iter().eq(model.iter()), "resident sets differ");
            assert_eq!(real.resident_bytes(), model.resident_bytes());
            assert!(real.resident_bytes() <= CAPACITY);
            let (real, model) = (real.policy(), model.policy());
            assert_eq!(real.victim(None), model.victim(None));
            for id in (0..IDS).map(FileId) {
                assert_eq!(real.victim(Some(id)), model.victim(Some(id)));
                assert_eq!(real.score(id), model.score(id));
                same_readout(real, model, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrusive_list_splices_and_walks() {
        let mut l = IntrusiveList::default();
        l.push_back(3);
        l.push_back(1);
        l.push_back(7);
        assert_eq!(l.walk(), vec![3, 1, 7]);
        l.move_to_back(3);
        assert_eq!(l.walk(), vec![1, 7, 3]);
        l.move_to_back(3); // already at back: no-op
        assert_eq!(l.walk(), vec![1, 7, 3]);
        l.move_to_front(1); // already at front: no-op
        assert_eq!(l.walk(), vec![1, 7, 3]);
        l.move_to_front(7); // from the middle
        assert_eq!(l.walk(), vec![7, 1, 3]);
        l.move_to_front(3); // from the tail
        assert_eq!(l.walk(), vec![3, 7, 1]);
        assert_eq!(l.front_excluding(None), Some(FileId::from_index(3)));
        l.move_to_back(3);
        assert_eq!(l.walk(), vec![7, 1, 3]);
        l.unlink(7);
        assert_eq!(l.walk(), vec![1, 3]);
        assert_eq!(l.front_excluding(None), Some(FileId::from_index(1)));
        assert_eq!(
            l.front_excluding(Some(FileId::from_index(1))),
            Some(FileId::from_index(3))
        );
        l.unlink(1);
        l.move_to_front(3); // a one-element list: head and tail at once
        assert_eq!(l.walk(), vec![3]);
        l.unlink(3);
        assert!(l.walk().is_empty());
        assert_eq!(l.front_excluding(None), None);
    }

    #[test]
    fn indexed_heap_orders_by_key_then_index() {
        let mut h = IndexedHeap::default();
        assert_eq!(h.min_excluding(None), None);
        assert_eq!(h.min_key(), None);
        h.remove(3); // never queued, beyond `pos`: no-op
        for (idx, key) in [(5, 20u32), (2, 10), (9, 10), (0, 30)] {
            h.set(idx, key);
        }
        let id = FileId::from_index;
        assert_eq!(h.sorted(), vec![(10, 2), (10, 9), (20, 5), (30, 0)]);
        assert_eq!(
            (h.min_key(), h.min_excluding(None)),
            (Some(10), Some(id(2)))
        );
        // Excluding the root yields the second-smallest; excluding anyone
        // else, the root.
        assert_eq!(h.min_excluding(Some(id(2))), Some(id(9)));
        assert_eq!(h.min_excluding(Some(id(9))), Some(id(2)));
        h.set(2, 40); // re-key down the heap
        assert_eq!((h.key(2), h.min_excluding(None)), (Some(40), Some(id(9))));
        h.set(0, 5); // re-key up the heap
        assert_eq!(h.min_excluding(None), Some(id(0)));
        h.remove(0); // the root
        h.remove(0); // unqueued, within `pos`: no-op
        assert_eq!((h.key(0), h.key(7), h.key(99)), (None, None, None));
        assert_eq!(h.sorted(), vec![(10, 9), (20, 5), (40, 2)]);
        h.remove(5);
        h.remove(2);
        assert_eq!(h.min_excluding(Some(id(9))), None, "nobody else is queued");
        h.remove(9);
        assert_eq!((h.len(), h.min_key()), (0, None));
    }

    proptest::proptest! {
        /// The heap against a sorted `Vec` of `(key, index)` pairs, with
        /// few enough keys that most of them tie. After every op: heap
        /// order and the `pos` ↔ `heap` bijection hold (inside `sorted`),
        /// the contents match, and so does the minimum with each index
        /// excluded in turn.
        #[test]
        fn indexed_heap_matches_a_sorted_vec(
            ops in proptest::collection::vec((0usize..48, proptest::option::of(0u8..6)), 0..400),
        ) {
            let mut heap = IndexedHeap::default();
            let mut model: Vec<(u8, u32)> = Vec::new();
            for (idx, key) in ops {
                model.retain(|&(_, queued)| queued != idx as u32);
                match key {
                    Some(key) => {
                        heap.set(idx, key);
                        model.push((key, idx as u32));
                        model.sort_unstable();
                    }
                    None => heap.remove(idx),
                }
                proptest::prop_assert_eq!(heap.sorted(), model.clone());
                proptest::prop_assert_eq!(heap.min_key(), model.first().map(|&(key, _)| key));
                for exclude in (0..48).map(FileId::from_index) {
                    let least = model.iter().find(|&&(_, queued)| queued != exclude.0);
                    proptest::prop_assert_eq!(
                        heap.min_excluding(Some(exclude)),
                        least.map(|&(_, queued)| FileId(queued))
                    );
                    let key = model.iter().find(|&&(_, queued)| queued == exclude.0);
                    proptest::prop_assert_eq!(heap.key(exclude.index()), key.map(|&(key, _)| key));
                }
            }
        }
    }
}
