//! Runtime-selected entry store.
//!
//! Code that picks a store at runtime (the live proxy's `StoreKind`,
//! sweep drivers comparing eviction policies) holds an [`AnyStore`]: one
//! concrete type covering the five stores, itself implementing [`Store`]
//! by enum dispatch — no `Box<dyn Store>`, no virtual call on the
//! per-request path.

use simcore::{FileId, SimTime};

use crate::entry::EntryMeta;
use crate::evict::EvictionPolicy;
use crate::fifo::FifoStore;
use crate::gds::GdsStore;
use crate::lfu::LfuStore;
use crate::lru::LruStore;
use crate::store::{Entries, Evicted, Store, UnboundedStore};

/// One of the five entry stores, selected at runtime.
#[derive(Debug)]
pub enum AnyStore {
    /// The paper's infinite store.
    Unbounded(UnboundedStore),
    /// Byte-bounded with least-recently-used eviction.
    Lru(LruStore),
    /// Byte-bounded with first-in-first-out eviction.
    Fifo(FifoStore),
    /// Byte-bounded with GreedyDual-Size eviction.
    Gds(GdsStore),
    /// Byte-bounded with score-gated LFU eviction.
    Lfu(LfuStore),
}

impl AnyStore {
    /// An unbounded store.
    pub fn unbounded() -> Self {
        AnyStore::Unbounded(UnboundedStore::new())
    }

    /// A byte-bounded LRU store.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero.
    pub fn lru(capacity_bytes: u64) -> Self {
        AnyStore::Lru(LruStore::new(capacity_bytes))
    }

    /// A byte-bounded FIFO store.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero.
    pub fn fifo(capacity_bytes: u64) -> Self {
        AnyStore::Fifo(FifoStore::new(capacity_bytes))
    }

    /// A byte-bounded GreedyDual-Size store.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero.
    pub fn gds(capacity_bytes: u64) -> Self {
        AnyStore::Gds(GdsStore::new(capacity_bytes))
    }

    /// A byte-bounded score-gated LFU store.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero.
    pub fn lfu(capacity_bytes: u64) -> Self {
        AnyStore::Lfu(LfuStore::new(capacity_bytes))
    }

    /// Short label for reports (`unbounded` / `lru` / `fifo` / `gds` /
    /// `lfu`).
    pub fn kind(&self) -> &'static str {
        match self {
            AnyStore::Unbounded(_) => "unbounded",
            AnyStore::Lru(s) => s.policy().name(),
            AnyStore::Fifo(s) => s.policy().name(),
            AnyStore::Gds(s) => s.policy().name(),
            AnyStore::Lfu(s) => s.policy().name(),
        }
    }
}

/// Which store backs a cache — the run-time selection behind
/// [`AnyStore`], spelled `webcache::experiment::Store` by the simulator's
/// builder and `liveserve::StoreKind` by the live proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// The paper's infinite cache.
    #[default]
    Unbounded,
    /// Byte-bounded LRU store with the given capacity.
    Lru(u64),
    /// Byte-bounded FIFO store with the given capacity.
    Fifo(u64),
    /// Byte-bounded GreedyDual-Size store with the given capacity.
    Gds(u64),
    /// Byte-bounded score-gated LFU store with the given capacity.
    Lfu(u64),
}

impl StoreKind {
    /// Shard `shard`'s store out of `shards`: unbounded stores are simply
    /// replicated; bounded stores split the byte budget evenly
    /// ([`shard_capacity`]), trading global for per-shard eviction
    /// pressure.
    ///
    /// # Panics
    /// Panics if `shards` is zero or `shard >= shards`.
    pub fn build(self, shard: usize, shards: usize) -> AnyStore {
        let share = |capacity| shard_capacity(capacity, shard, shards);
        match self {
            StoreKind::Unbounded => AnyStore::unbounded(),
            StoreKind::Lru(capacity) => AnyStore::lru(share(capacity)),
            StoreKind::Fifo(capacity) => AnyStore::fifo(share(capacity)),
            StoreKind::Gds(capacity) => AnyStore::gds(share(capacity)),
            StoreKind::Lfu(capacity) => AnyStore::lfu(share(capacity)),
        }
    }
}

/// Shard `shard`'s share of a `total`-byte capacity split across
/// `shards` stores: the integer share plus one spare byte for the first
/// `total % shards` shards (so the shares sum exactly to `total`), and
/// never less than one byte — the bounded stores reject a zero capacity.
///
/// A sharded cache that splits its budget this way evicts *locally*
/// (each shard sees only its own pressure), so bounded-store behaviour
/// is equivalent to, but not byte-identical with, one global store;
/// only the unbounded store is exactly shard-count-invariant.
///
/// # Panics
/// Panics if `shards` is zero or `shard >= shards`.
pub fn shard_capacity(total: u64, shard: usize, shards: usize) -> u64 {
    assert!(shards > 0, "capacity split over zero shards");
    assert!(shard < shards, "shard index out of range");
    let base = total / shards as u64;
    let spare = u64::from((shard as u64) < total % shards as u64);
    (base + spare).max(1)
}

impl Default for AnyStore {
    fn default() -> Self {
        AnyStore::unbounded()
    }
}

macro_rules! dispatch {
    ($self:expr, $s:pat => $body:expr) => {
        match $self {
            AnyStore::Unbounded($s) => $body,
            AnyStore::Lru($s) => $body,
            AnyStore::Fifo($s) => $body,
            AnyStore::Gds($s) => $body,
            AnyStore::Lfu($s) => $body,
        }
    };
}

impl Store for AnyStore {
    fn peek(&self, id: FileId) -> Option<&EntryMeta> {
        dispatch!(self, s => s.peek(id))
    }

    fn access(&mut self, id: FileId, now: SimTime) -> Option<&mut EntryMeta> {
        dispatch!(self, s => s.access(id, now))
    }

    fn peek_mut(&mut self, id: FileId) -> Option<&mut EntryMeta> {
        dispatch!(self, s => s.peek_mut(id))
    }

    fn invalidate(&mut self, id: FileId) {
        dispatch!(self, s => s.invalidate(id))
    }

    fn insert(&mut self, id: FileId, meta: EntryMeta) -> Evicted {
        dispatch!(self, s => s.insert(id, meta))
    }

    fn remove(&mut self, id: FileId) -> Option<EntryMeta> {
        dispatch!(self, s => s.remove(id))
    }

    fn len(&self) -> usize {
        dispatch!(self, s => s.len())
    }

    fn resident_bytes(&self) -> u64 {
        dispatch!(self, s => s.resident_bytes())
    }

    fn iter(&self) -> Entries<'_> {
        dispatch!(self, s => s.iter())
    }

    fn heap_bytes(&self) -> usize {
        dispatch!(self, s => s.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn meta(size: u64) -> EntryMeta {
        EntryMeta::fresh(size, t(0), t(0))
    }

    #[test]
    fn variants_report_their_kind() {
        assert_eq!(AnyStore::unbounded().kind(), "unbounded");
        assert_eq!(AnyStore::lru(10).kind(), "lru");
        assert_eq!(AnyStore::fifo(10).kind(), "fifo");
        assert_eq!(AnyStore::gds(10).kind(), "gds");
        assert_eq!(AnyStore::lfu(10).kind(), "lfu");
        assert_eq!(AnyStore::default().kind(), "unbounded");
    }

    #[test]
    fn store_operations_dispatch_to_each_variant() {
        for mut s in [
            AnyStore::unbounded(),
            AnyStore::lru(1000),
            AnyStore::fifo(1000),
            AnyStore::gds(1000),
            AnyStore::lfu(1000),
        ] {
            assert!(s.is_empty());
            assert!(s.insert(FileId(1), meta(100)).is_empty());
            assert!(s.insert(FileId(3), meta(50)).is_empty());
            assert_eq!(s.len(), 2);
            assert_eq!(s.resident_bytes(), 150);
            assert_eq!(s.peek(FileId(1)).unwrap().size, 100);
            s.peek_mut(FileId(1)).unwrap().mark_invalid();
            assert!(!s.peek(FileId(1)).unwrap().is_valid());
            s.invalidate(FileId(3));
            assert!(!s.peek(FileId(3)).unwrap().is_valid());
            let ids: Vec<u32> = s.iter().map(|(id, _)| id.0).collect();
            assert_eq!(ids, vec![1, 3], "{}", s.kind());
            assert_eq!(s.remove(FileId(1)).unwrap().size, 100);
            assert_eq!(s.len(), 1);
        }
    }

    #[test]
    fn heap_bytes_are_the_slot_table_and_the_policy_arrays() {
        // Id 15 first sizes every per-id array at exactly 16; the 16
        // queued entries grow a heap's nodes 4 -> 8 -> 16.
        let slots = 16 * size_of::<Option<EntryMeta>>();
        for (mut s, policy) in [
            (AnyStore::unbounded(), 0),
            (AnyStore::lru(1 << 20), 16 * 8),
            (AnyStore::fifo(1 << 20), 16 * 8),
            (AnyStore::gds(1 << 20), 16 * 16 + 16 * 4),
            (AnyStore::lfu(1 << 20), 16 * 4 + 16 * 8 + 16 * 4),
        ] {
            assert_eq!(s.heap_bytes(), 0, "{} holds nothing yet", s.kind());
            for id in [15].into_iter().chain(0..15) {
                s.insert(FileId(id), meta(10));
                s.access(FileId(id), t(1));
            }
            s.invalidate(FileId(3));
            s.remove(FileId(4));
            assert_eq!(s.heap_bytes(), slots + policy, "{}", s.kind());
        }
    }

    #[test]
    fn shard_capacities_sum_to_total_and_stay_positive() {
        for (total, shards) in [(1000u64, 4usize), (1001, 4), (7, 3), (2, 8), (0, 5)] {
            let shares: Vec<u64> = (0..shards)
                .map(|i| shard_capacity(total, i, shards))
                .collect();
            assert!(
                shares.iter().all(|&c| c >= 1),
                "{total}/{shards}: {shares:?}"
            );
            if total >= shards as u64 {
                assert_eq!(shares.iter().sum::<u64>(), total, "{total}/{shards}");
            }
            // Even split within one byte.
            let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(max - min <= 1, "{total}/{shards}: {shares:?}");
        }
        assert_eq!(shard_capacity(100, 0, 1), 100);
    }

    #[test]
    fn store_kind_builds_each_variant_with_its_shard_share() {
        assert_eq!(StoreKind::default().build(0, 1).kind(), "unbounded");
        assert_eq!(StoreKind::Unbounded.build(2, 3).kind(), "unbounded");
        for (kind, name) in [
            (StoreKind::Lru(100), "lru"),
            (StoreKind::Fifo(100), "fifo"),
            (StoreKind::Gds(100), "gds"),
            (StoreKind::Lfu(100), "lfu"),
        ] {
            // 100 bytes over 4 shards: a 30-byte entry overflows a share.
            let mut shard = kind.build(1, 4);
            assert_eq!(shard.kind(), name);
            assert!(shard.insert(FileId(1), meta(20)).is_empty());
            assert_eq!(shard.insert(FileId(2), meta(30)).len(), 1, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "shard index out of range")]
    fn shard_capacity_rejects_out_of_range_shard() {
        shard_capacity(10, 3, 3);
    }

    #[test]
    fn bounded_variants_evict_under_pressure() {
        for mut s in [
            AnyStore::lru(100),
            AnyStore::fifo(100),
            AnyStore::gds(100),
            AnyStore::lfu(100),
        ] {
            s.insert(FileId(1), meta(60));
            assert_eq!(s.insert(FileId(2), meta(60)).len(), 1, "{}", s.kind());
            assert_eq!(s.len(), 1);
        }
        let mut u = AnyStore::unbounded();
        u.insert(FileId(1), meta(60));
        assert!(u.insert(FileId(2), meta(60)).is_empty());
        assert_eq!(u.len(), 2);
    }
}
