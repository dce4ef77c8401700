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
//! sift from the entry's own position, and a node is one integer that
//! packs the key above the slot index).
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

/// Children per node of an [`IndexedHeap`]. With packed nodes a row of
/// eight is 64 bytes of LFU nodes or 128 of GDS nodes, and the tree a
/// third as deep as a binary heap's. Picked by the benchmark's
/// `proxycache.{gds,lfu}.op_ns` rungs over `lru.op_ns` of the same run,
/// medians of ten alternating traces: GDS 1.93 at four children against
/// 1.75 at eight, LFU 1.00 against 0.94 (2.68 and 1.20 with `(K, u32)`
/// tuple nodes at four).
const ARITY: usize = 8;
const _: () = assert!(ARITY.is_power_of_two(), "a row's tournament halves it");

/// A heap key that packs with a slot index into one integer, the key in
/// the high bits and the slot in the low 32, so that the integer's order
/// is `(key, slot)`'s: two nodes compare as two integers, with no
/// second field to consult on a tie.
pub(crate) trait Packed: Copy + Ord + Default {
    /// The packed `(key, slot)` integer, twice the key's width.
    type Node: Copy + Ord + Default + std::fmt::Debug;

    /// `self << 32 | slot`.
    fn pack(self, slot: u32) -> Self::Node;

    /// The key a node was packed from.
    fn key(node: Self::Node) -> Self;

    /// The slot a node was packed from.
    fn slot(node: Self::Node) -> u32;
}

/// LFU's frequencies.
impl Packed for u32 {
    type Node = u64;

    fn pack(self, slot: u32) -> u64 {
        (u64::from(self) << 32) | u64::from(slot)
    }

    fn key(node: u64) -> u32 {
        (node >> 32) as u32
    }

    fn slot(node: u64) -> u32 {
        node as u32
    }
}

/// GDS's score bits.
impl Packed for u64 {
    type Node = u128;

    fn pack(self, slot: u32) -> u128 {
        (u128::from(self) << 32) | u128::from(slot)
    }

    fn key(node: u128) -> u64 {
        (node >> 32) as u64
    }

    fn slot(node: u128) -> u32 {
        node as u32
    }
}

/// An indexed d-ary min-heap over dense slot indices — the shared ordering
/// backbone of the score-based policies (GDS credit, LFU frequency).
/// Entries are ordered by `(key, slot index)`, packed into one integer
/// node ([`Packed`]), so equal keys fall out in id order; `pos` finds an
/// entry's node without a search, which makes a re-key one sift instead
/// of a tree remove plus a tree insert.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndexedHeap<K: Packed> {
    /// Packed `(key, slot index)`; every node is no less than its parent.
    heap: Vec<K::Node>,
    /// Slot index → position in `heap`; `NIL` while unqueued.
    pos: Vec<u32>,
}

impl<K: Packed> IndexedHeap<K> {
    /// Queue `idx` under `key`, or re-key it in place if already queued.
    pub(crate) fn set(&mut self, idx: usize, key: K) {
        if idx >= self.pos.len() {
            self.pos.resize(idx + 1, NIL);
        }
        let node = key.pack(idx as u32);
        let at = self.pos[idx];
        if at == NIL {
            self.heap.push(node);
            self.sift_up(self.heap.len() - 1);
        } else {
            let at = at as usize;
            let old = std::mem::replace(&mut self.heap[at], node);
            self.sift(at, node < old);
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
        (at != NIL).then(|| K::key(self.heap[at as usize]))
    }

    /// The heap bytes of the node and position arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<K::Node>()
            + self.pos.capacity() * std::mem::size_of::<u32>()
    }

    /// The least key queued.
    pub(crate) fn min_key(&self) -> Option<K> {
        self.heap.first().map(|&node| K::key(node))
    }

    /// The least entry other than `exclude`: the root, or — when the root
    /// is the excluded one — the least of the root's children, which is
    /// where a heap keeps its second-smallest.
    pub(crate) fn min_excluding(&self, exclude: Option<FileId>) -> Option<FileId> {
        let root = K::slot(*self.heap.first()?);
        let least = if exclude.is_some_and(|ex| ex.index() as u32 == root) {
            K::slot(*self.heap[1..].iter().take(ARITY).min()?)
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
        let node = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / ARITY;
            if self.heap[parent] <= node {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, node);
    }

    fn sift_down(&mut self, mut at: usize) {
        let node = self.heap[at];
        loop {
            let first = at * ARITY + 1;
            let least = if let Some(row) = self.heap.get(first..first + ARITY) {
                first + least_of(row.try_into().expect("a row is ARITY nodes"))
            } else {
                // The last parent's children stop short of a full row.
                match (first..self.heap.len()).min_by_key(|&child| self.heap[child]) {
                    Some(least) => least,
                    None => break,
                }
            };
            if node <= self.heap[least] {
                break;
            }
            self.place(at, self.heap[least]);
            at = least;
        }
        self.place(at, node);
    }

    fn place(&mut self, at: usize, node: K::Node) {
        self.heap[at] = node;
        self.pos[K::slot(node) as usize] = at as u32;
    }

    /// Number of queued entries. Test support.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Assert heap order and the `pos` ↔ `heap` bijection; returns the
    /// queued `(key, slot index)` pairs in ascending order. Test support.
    #[cfg(test)]
    pub(crate) fn sorted(&self) -> Vec<(K, u32)> {
        for (at, &node) in self.heap.iter().enumerate() {
            let idx = K::slot(node);
            assert_eq!(self.pos[idx as usize], at as u32, "pos of {idx} is off");
            if at > 0 {
                let parent = (at - 1) / ARITY;
                assert!(self.heap[parent] < node, "node {at} below its parent");
            }
        }
        let queued = self.pos.iter().filter(|&&at| at != NIL).count();
        assert_eq!(queued, self.heap.len(), "pos names a node heap lacks");
        let mut sorted: Vec<(K, u32)> = self
            .heap
            .iter()
            .map(|&node| (K::key(node), K::slot(node)))
            .collect();
        sorted.sort_unstable();
        sorted
    }
}

/// The position of the least node of a full row: a tournament of pairs,
/// each round a compare and a select per pair, so that which child wins
/// steers no branch.
#[inline(always)]
fn least_of<N: Ord>(row: &[N; ARITY]) -> usize {
    let mut round: [usize; ARITY] = std::array::from_fn(|i| i);
    let mut width = ARITY;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            let (a, b) = (round[2 * i], round[2 * i + 1]);
            round[i] = if row[b] < row[a] { b } else { a };
        }
    }
    round[0]
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
    use proptest::prelude::*;

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

    /// Run `ops` — `(slot, Some(key position) | None)`, a set or a
    /// remove — through a heap keyed by `keys[position]` and against a
    /// sorted `Vec` of `(key, index)` pairs. After every op: heap order
    /// and the `pos` ↔ `heap` bijection hold (inside `sorted`), the
    /// contents match, and so do the minimum and every key with each
    /// index excluded in turn.
    fn matches_a_sorted_vec<K: Packed + std::fmt::Debug>(
        keys: &[K],
        ops: &[(usize, Option<usize>)],
    ) {
        let mut heap = IndexedHeap::<K>::default();
        let mut model: Vec<(K, u32)> = Vec::new();
        for &(idx, key) in ops {
            model.retain(|&(_, queued)| queued != idx as u32);
            match key.map(|at| keys[at]) {
                Some(key) => {
                    heap.set(idx, key);
                    model.push((key, idx as u32));
                    model.sort_unstable();
                }
                None => heap.remove(idx),
            }
            assert_eq!(heap.sorted(), model);
            assert_eq!(heap.min_key(), model.first().map(|&(key, _)| key));
            for exclude in (0..48).map(FileId::from_index) {
                let least = model.iter().find(|&&(_, queued)| queued != exclude.0);
                assert_eq!(
                    heap.min_excluding(Some(exclude)),
                    least.map(|&(_, queued)| FileId(queued))
                );
                let key = model.iter().find(|&&(_, queued)| queued == exclude.0);
                assert_eq!(heap.key(exclude.index()), key.map(|&(key, _)| key));
            }
        }
    }

    /// Six keys per width, so that most of a heap's keys tie: each
    /// width's ends, and for the score bits two GDS credits.
    const LFU_KEYS: [u32; 6] = [0, 1, 2, 3, u32::MAX - 1, u32::MAX];
    fn gds_keys() -> [u64; 6] {
        let credit = |l: f64, size: f64| (l + 1.0 / size).to_bits();
        [
            0,
            1,
            credit(0.0, 16_384.0),
            credit(0.25, 1_024.0),
            u64::MAX - 1,
            u64::MAX,
        ]
    }

    /// A key for the packing law: an end of the width, or any value.
    fn key_strategy<K: Copy + std::fmt::Debug + 'static>(
        edges: Vec<K>,
        any: impl Strategy<Value = K> + 'static,
    ) -> impl Strategy<Value = K> {
        let pick = edges.len();
        prop_oneof![(0..pick).prop_map(move |at| edges[at]), any]
    }

    /// A slot for the packing law: 0, 1, the largest that is not `NIL`,
    /// its predecessor, or any other.
    fn slot_strategy() -> impl Strategy<Value = u32> {
        key_strategy(vec![0, 1, NIL - 2, NIL - 1], 0..NIL)
    }

    /// A GDS credit's bits: the inflation plus one over a body size.
    fn credit_bits() -> impl Strategy<Value = u64> {
        (0.0..1.0e6, 1u64..=16_384)
            .prop_map(|(l, size): (f64, u64)| (l + 1.0 / size as f64).to_bits())
    }

    /// The packing law at one width: nodes compare as their `(key,
    /// slot)` pairs do, and unpack to them.
    fn packs_in_order<K: Packed + std::fmt::Debug>(a: K, i: u32, b: K, j: u32) {
        let (x, y) = (a.pack(i), b.pack(j));
        assert_eq!(x.cmp(&y), (a, i).cmp(&(b, j)), "{a:?}/{i} vs {b:?}/{j}");
        assert_eq!((K::key(x), K::slot(x)), (a, i));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The heap against a sorted `Vec`, at LFU's `u32` keys and at
        /// GDS's `u64` score bits, the same ops at each width.
        #[test]
        fn indexed_heap_matches_a_sorted_vec(
            ops in proptest::collection::vec((0usize..48, proptest::option::of(0usize..6)), 0..400),
        ) {
            matches_a_sorted_vec(&LFU_KEYS, &ops);
            matches_a_sorted_vec(&gds_keys(), &ops);
        }

        /// `pack(a, i) < pack(b, j)` exactly when `(a, i) < (b, j)`, at
        /// both widths, over each width's ends, real GDS credits and
        /// slots up to the largest that is not `NIL`.
        #[test]
        fn packed_nodes_order_as_their_key_slot_pairs(
            lfu in (key_strategy(LFU_KEYS.to_vec(), any::<u32>()), slot_strategy(),
                key_strategy(LFU_KEYS.to_vec(), any::<u32>()), slot_strategy()),
            gds in (key_strategy(gds_keys().to_vec(), credit_bits()), slot_strategy(),
                key_strategy(gds_keys().to_vec(), any::<u64>()), slot_strategy()),
        ) {
            let (a, i, b, j) = lfu;
            packs_in_order(a, i, b, j);
            packs_in_order(b, j, a, i);
            packs_in_order(a, i, a, j);
            let (a, i, b, j) = gds;
            packs_in_order(a, i, b, j);
            packs_in_order(b, j, a, i);
            packs_in_order(a, i, a, j);
        }
    }
}
