//! The origin server: request handling, invalidation bookkeeping, and load
//! accounting.
//!
//! The server owns the [`FilePopulation`] and answers the three operations
//! Figure 8 counts — document requests, validation queries, and
//! invalidation messages. For the invalidation protocol it keeps the
//! per-file subscriber registry the paper identifies as the protocol's
//! scalability burden ("servers must keep track of where their objects are
//! currently cached").

use std::collections::BTreeSet;
use std::sync::Arc;

use simcore::{CacheId, FileId, ServerLoad, SimTime};

use crate::files::{FilePopulation, Version};

/// Outcome of a conditional (`If-Modified-Since`) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondResult {
    /// `304 Not Modified` — the cached copy is current.
    NotModified,
    /// `200 OK` — the entity changed; the new version is returned.
    Modified(Version),
}

/// The origin server.
#[derive(Debug, Clone, Default)]
pub struct OriginServer {
    files: Arc<FilePopulation>,
    /// Per-file subscriber sets in a dense table indexed by
    /// `FileId::index()` — file ids are registry-issued dense `u32`s, so a
    /// `Vec` lookup replaces the former `HashMap` probe on every
    /// subscribe/notify. Sets stay `BTreeSet` for deterministic notify
    /// order.
    subscribers: Vec<BTreeSet<CacheId>>,
    /// Total subscription entries, maintained incrementally so
    /// [`Self::subscription_count`] is O(1).
    subscription_count: usize,
    load: ServerLoad,
}

impl OriginServer {
    /// A server publishing `files`.
    ///
    /// Accepts either an owned [`FilePopulation`] or an
    /// `Arc<FilePopulation>`; passing the `Arc` shares one population
    /// across many servers (one per parameter-sweep point) without
    /// copying it.
    pub fn new(files: impl Into<Arc<FilePopulation>>) -> Self {
        OriginServer {
            files: files.into(),
            subscribers: Vec::new(),
            subscription_count: 0,
            load: ServerLoad::default(),
        }
    }

    /// The published file set.
    pub fn files(&self) -> &FilePopulation {
        &self.files
    }

    /// Accumulated operation counts (Figure 8's metric).
    pub fn load(&self) -> &ServerLoad {
        &self.load
    }

    /// Serve an unconditional `GET` at `now`: returns the live version.
    /// Counts one document request.
    ///
    /// # Panics
    /// Panics if the file does not exist yet at `now` — simulations only
    /// request files after their creation.
    pub fn handle_get(&mut self, file: FileId, now: SimTime) -> Version {
        let v = self
            .files
            .get(file)
            .version_at(now)
            .expect("GET for a file before its creation");
        self.load.document_requests += 1;
        v
    }

    /// Serve a conditional `GET If-Modified-Since: since` at `now`.
    ///
    /// Matching HTTP semantics, the comparison is against the live
    /// version's modification stamp: if it is newer than `since`, the body
    /// is returned (one document request); otherwise `304` (one validation
    /// query).
    pub fn handle_conditional_get(
        &mut self,
        file: FileId,
        since: SimTime,
        now: SimTime,
    ) -> CondResult {
        let v = self
            .files
            .get(file)
            .version_at(now)
            .expect("conditional GET for a file before its creation");
        if v.modified_at > since {
            self.load.document_requests += 1;
            CondResult::Modified(v)
        } else {
            self.load.validation_queries += 1;
            CondResult::NotModified
        }
    }

    /// Register `cache` for invalidation callbacks on `file`. Idempotent.
    pub fn subscribe(&mut self, cache: CacheId, file: FileId) {
        if file.index() >= self.subscribers.len() {
            self.subscribers
                .resize_with(file.index() + 1, BTreeSet::new);
        }
        if self.subscribers[file.index()].insert(cache) {
            self.subscription_count += 1;
        }
    }

    /// Remove `cache`'s subscription on `file`. Returns whether it was
    /// subscribed.
    pub fn unsubscribe(&mut self, cache: CacheId, file: FileId) -> bool {
        match self.subscribers.get_mut(file.index()) {
            Some(set) => {
                let was = set.remove(&cache);
                if was {
                    self.subscription_count -= 1;
                }
                was
            }
            None => false,
        }
    }

    /// Drop every subscription `cache` holds, returning how many were
    /// removed. Used when a cache disconnects entirely (a live proxy
    /// closing its control channel): the server must stop addressing
    /// invalidations to it.
    pub fn unsubscribe_all(&mut self, cache: CacheId) -> usize {
        let mut removed = 0;
        for set in &mut self.subscribers {
            if set.remove(&cache) {
                removed += 1;
            }
        }
        self.subscription_count -= removed;
        removed
    }

    /// Current subscribers of `file`, in deterministic (id) order.
    pub fn subscribers(&self, file: FileId) -> Vec<CacheId> {
        self.subscribers
            .get(file.index())
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Total subscription entries across all files — the bookkeeping state
    /// the paper charges against invalidation protocols.
    pub fn subscription_count(&self) -> usize {
        self.subscription_count
    }

    /// A modification of `file` occurred: emit invalidation notices to all
    /// subscribers, counting one server operation per notice. Returns the
    /// notified caches (the simulator delivers the notices and charges
    /// their bandwidth).
    pub fn notify_modification(&mut self, file: FileId) -> Vec<CacheId> {
        let targets = self.subscribers(file);
        self.load.invalidations_sent += targets.len() as u64;
        targets
    }

    /// Take back one notice [`notify_modification`](Self::notify_modification)
    /// counted: its target had already dropped the file, and its
    /// unsubscription crossed the notice on the way.
    pub fn retract_invalidation(&mut self) {
        self.load.invalidations_sent -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileRecord;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn server_with_one_file() -> (OriginServer, FileId) {
        let mut pop = FilePopulation::new();
        let mut rec = FileRecord::new("/f", t(0), 1000);
        rec.push_modification(t(500), 1200);
        let id = pop.add(rec);
        (OriginServer::new(pop), id)
    }

    #[test]
    fn get_serves_live_version_and_counts() {
        let (mut s, f) = server_with_one_file();
        let v = s.handle_get(f, t(100));
        assert_eq!(v.size, 1000);
        assert_eq!(v.modified_at, t(0));
        let v2 = s.handle_get(f, t(600));
        assert_eq!(v2.size, 1200);
        assert_eq!(s.load().document_requests, 2);
        assert_eq!(s.load().total_operations(), 2);
    }

    #[test]
    fn conditional_get_304_when_unchanged() {
        let (mut s, f) = server_with_one_file();
        // Cached copy stamped at t=0, no change by t=400.
        assert_eq!(
            s.handle_conditional_get(f, t(0), t(400)),
            CondResult::NotModified
        );
        assert_eq!(s.load().validation_queries, 1);
        assert_eq!(s.load().document_requests, 0);
    }

    #[test]
    fn conditional_get_200_when_changed() {
        let (mut s, f) = server_with_one_file();
        match s.handle_conditional_get(f, t(0), t(600)) {
            CondResult::Modified(v) => {
                assert_eq!(v.modified_at, t(500));
                assert_eq!(v.size, 1200);
            }
            other => panic!("expected Modified, got {other:?}"),
        }
        assert_eq!(s.load().document_requests, 1);
        assert_eq!(s.load().validation_queries, 0);
    }

    #[test]
    fn conditional_get_equal_stamp_is_not_modified() {
        let (mut s, f) = server_with_one_file();
        // since == live stamp => 304 (IMS means strictly-newer triggers a body).
        assert_eq!(
            s.handle_conditional_get(f, t(500), t(600)),
            CondResult::NotModified
        );
    }

    #[test]
    fn subscriptions_are_idempotent_and_ordered() {
        let (mut s, f) = server_with_one_file();
        s.subscribe(CacheId(5), f);
        s.subscribe(CacheId(1), f);
        s.subscribe(CacheId(5), f);
        assert_eq!(s.subscribers(f), vec![CacheId(1), CacheId(5)]);
        assert_eq!(s.subscription_count(), 2);
    }

    #[test]
    fn notify_counts_one_op_per_subscriber() {
        let (mut s, f) = server_with_one_file();
        s.subscribe(CacheId(1), f);
        s.subscribe(CacheId(2), f);
        s.subscribe(CacheId(3), f);
        let notified = s.notify_modification(f);
        assert_eq!(notified.len(), 3);
        assert_eq!(s.load().invalidations_sent, 3);
    }

    #[test]
    fn a_retracted_notice_is_not_counted() {
        let (mut s, f) = server_with_one_file();
        s.subscribe(CacheId(1), f);
        s.subscribe(CacheId(2), f);
        assert_eq!(s.notify_modification(f).len(), 2);
        s.retract_invalidation();
        assert_eq!(s.load().invalidations_sent, 1);
        assert_eq!(s.subscription_count(), 2, "the ledger is not touched");
    }

    #[test]
    fn notify_without_subscribers_is_free() {
        let (mut s, f) = server_with_one_file();
        assert!(s.notify_modification(f).is_empty());
        assert_eq!(s.load().total_operations(), 0);
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let (mut s, f) = server_with_one_file();
        s.subscribe(CacheId(1), f);
        assert!(s.unsubscribe(CacheId(1), f));
        assert!(!s.unsubscribe(CacheId(1), f));
        assert!(s.notify_modification(f).is_empty());
        assert_eq!(s.subscription_count(), 0);
    }

    #[test]
    fn unsubscribe_all_clears_every_file() {
        let mut pop = FilePopulation::new();
        let a = pop.add(FileRecord::new("/a", t(0), 1));
        let b = pop.add(FileRecord::new("/b", t(0), 1));
        let mut s = OriginServer::new(pop);
        s.subscribe(CacheId(1), a);
        s.subscribe(CacheId(1), b);
        s.subscribe(CacheId(2), b);
        assert_eq!(s.unsubscribe_all(CacheId(1)), 2);
        assert_eq!(s.subscription_count(), 1);
        assert_eq!(s.subscribers(b), vec![CacheId(2)]);
        assert_eq!(s.unsubscribe_all(CacheId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "before its creation")]
    fn get_before_creation_panics() {
        let mut pop = FilePopulation::new();
        let id = pop.add(FileRecord::new("/f", t(100), 1));
        let mut s = OriginServer::new(pop);
        s.handle_get(id, t(50));
    }
}
