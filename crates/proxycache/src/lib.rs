//! `proxycache` — the proxy-cache substrate for the *World Wide Web Cache
//! Consistency* reproduction.
//!
//! Provides cache entry metadata ([`EntryMeta`], with the validation
//! timestamps the Alex protocol reasons over), entry stores (the paper's
//! infinite [`UnboundedStore`] plus the bounded [`BoundedStore`] family),
//! and the [`HierarchyTopology`] used by the Figure 1 hierarchy-collapse
//! ablation.
//!
//! Bounded stores are one container generic over an [`EvictionPolicy`]:
//! classic [`LruStore`] and [`FifoStore`], ordered by an intrusive list,
//! plus the score-based [`GdsStore`] (GreedyDual-Size) and [`LfuStore`]
//! (score-gated LFU with ghost frequencies) from the eviction literature,
//! ordered by an indexed heap. Both backbones are flat arrays over the
//! dense file ids: touching a resident allocates nothing and searches
//! nothing under any of the four.
//!
//! Consistency *decisions* (is this entry still usable?) live in the
//! `consistency` crate; this crate only stores and indexes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod any;
mod entry;
mod evict;
mod fifo;
mod gds;
mod hierarchy;
mod lfu;
mod lru;
mod store;

pub use any::{shard_capacity, AnyStore, StoreKind};
pub use entry::{EntryMeta, EntryState};
pub use evict::{BoundedStore, EvictionPolicy};
pub use fifo::{FifoEviction, FifoStore};
pub use gds::{GdsStore, GreedyDualSize};
pub use hierarchy::HierarchyTopology;
pub use lfu::{LfuStore, ScoreGatedLfu};
pub use lru::{LruEviction, LruStore};
pub use store::{Entries, Evicted, EvictedIntoIter, Store, UnboundedStore};
