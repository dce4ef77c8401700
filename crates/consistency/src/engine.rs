//! The cache-side consistency engine: what one cache does with one
//! request, written once.
//!
//! [`Engine`] owns a cache's store, its [`Policy`], and its counters, and
//! is driven through three inputs: [`Engine::request`] decides,
//! [`Engine::apply`] takes the origin's answer, [`Engine::invalidate`]
//! takes a server callback. It reads no clock and touches no socket —
//! the instant, the upstream answer and its cost all arrive as
//! arguments — so the same code runs under the simulator's event queue,
//! as each node of the cache hierarchy, behind the failure experiment's
//! lossy notification channel, and under a live proxy shard's lock.
//!
//! A driver's whole job is transport: turn an [`Effect`] into an
//! upstream exchange, price that exchange (`message_bytes`, `delay`) and
//! hand the answer back as a [`Reply`]. The cost is reported by the
//! exchange that incurred it; the engine never asks what an exchange
//! *would* cost, except to price the refresh a [`Policy`] weighs at
//! decision time ([`RequestCtx::delay`], from the [`LinkModel`]).
//!
//! Invalidation subscriptions belong to the driver too, because they
//! travel: subscribe a file that [`Engine::peek`] showed absent when the
//! [`Reply::Body`] applied makes it resident, and unsubscribe every
//! victim [`Applied::victims`] names (the file itself is among them
//! when a bounded store rejects an oversized body). The driver may
//! apply first, provided nothing is served from the new entry until its
//! subscription is acknowledged; subscribing before the apply, as the
//! simulator does, is one instance of that.
//!
//! Every input that emits events takes its probe as a type parameter
//! (`probe: &mut P`, `P: Probe + ?Sized`). Passing `&mut NoopProbe`
//! makes every record an empty inlined call that compiles away. Passing
//! `&mut dyn Probe` gives one instantiation whatever the probe is.

use originserver::FilePopulation;
use proxycache::{EntryMeta, Evicted, Store};
use simcore::{CacheStats, FileId, SimDuration, SimTime, TrafficMeter};
use wcc_obs::{ObsEvent, Probe, RequestOutcome};

use crate::policy::{LinkModel, Policy, RequestCtx};

/// What happens when an expired (but resident) entry is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalMode {
    /// Refetch the full file unconditionally: the base simulator, and
    /// every invalidation-protocol cache — there an entry that may not
    /// be served is *known* stale, so a conditional request would be a
    /// wasted round trip.
    Eager,
    /// Issue `If-Modified-Since`; transfer the body only when the object
    /// truly changed (the optimized simulator, the live proxy).
    Conditional,
}

impl RetrievalMode {
    /// The mode a cache actually runs in: whatever was asked for, except
    /// that an invalidation-protocol cache always refetches.
    #[must_use]
    pub fn under_invalidation(self, uses_invalidation: bool) -> Self {
        if uses_invalidation {
            RetrievalMode::Eager
        } else {
            self
        }
    }
}

/// What the driver must do for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Serve this resident copy; the request is concluded and counted.
    Serve(EntryMeta),
    /// Send a conditional GET against this copy's `Last-Modified`, then
    /// [`Engine::apply`] the answer with `conditional: true`.
    Validate(EntryMeta),
    /// Send an unconditional GET, then apply the answer; a
    /// [`Reply::Body`] is stored.
    Fetch,
    /// Uncacheable class: send an unconditional GET and apply the
    /// answer, which is counted but never stored (nor subscribed).
    Forward,
}

/// The upstream's answer to a [`Effect::Validate`], [`Effect::Fetch`] or
/// [`Effect::Forward`], priced by the driver: `message_bytes` is the
/// control-message cost of the exchange (the paper's 43-byte constant, or
/// real wire bytes) and `delay` what the exchange took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// `304 Not Modified` to a conditional GET.
    NotModified {
        /// Origin-assigned expiry for the revalidated copy.
        expires: Option<SimTime>,
        /// Request plus bodyless response.
        message_bytes: u64,
        /// The bare round trip.
        delay: SimDuration,
    },
    /// `200 OK` carrying the live version.
    Body {
        /// Entity size in bytes.
        size: u64,
        /// The version's `Last-Modified`.
        last_modified: SimTime,
        /// Origin-assigned expiry.
        expires: Option<SimTime>,
        /// Whether this answers an [`Effect::Validate`].
        conditional: bool,
        /// Request plus response headers (the body is metered apart).
        message_bytes: u64,
        /// Round trip plus transfer.
        delay: SimDuration,
    },
    /// `404 Not Found`: the object is gone; any cached copy is dropped.
    Gone {
        /// Whether this answers an [`Effect::Validate`].
        conditional: bool,
        /// Request plus response.
        message_bytes: u64,
    },
}

/// What [`Engine::apply`] did to the store.
#[derive(Debug, Default)]
pub struct Applied {
    /// Entries this reply made non-resident: what the insert displaced —
    /// the file itself when its body was rejected as oversized — or the
    /// dropped copy of a file that is gone or may not be stored.
    pub victims: Evicted,
    /// A `304` arrived for an entry that was evicted or invalidated away
    /// between [`Engine::request`] and now. The request is still open
    /// (already reported as a miss): fetch unconditionally and apply
    /// that.
    pub lost: bool,
}

fn conclude<P: Probe + ?Sized>(probe: &mut P, now: SimTime, file: FileId, outcome: RequestOutcome) {
    probe.record(now, ObsEvent::Request { file, outcome });
}

/// One cache's consistency state machine. See the module docs.
pub struct Engine<S> {
    store: S,
    policy: Box<dyn Policy + Send>,
    retrieval: RetrievalMode,
    uncacheable_mask: u32,
    link: LinkModel,
    stats: CacheStats,
    traffic: TrafficMeter,
    stale_age_total: SimDuration,
    evictions: u64,
}

impl<S: Store> Engine<S> {
    /// An engine over `store` deciding with `policy`. Classes whose bit
    /// is set in `uncacheable_mask` are forwarded, never stored; `link`
    /// prices the refresh a policy weighs when deciding.
    pub fn new(
        store: S,
        policy: Box<dyn Policy + Send>,
        retrieval: RetrievalMode,
        uncacheable_mask: u32,
        link: LinkModel,
    ) -> Self {
        Engine {
            store,
            policy,
            retrieval,
            uncacheable_mask,
            link,
            stats: CacheStats::default(),
            traffic: TrafficMeter::default(),
            stale_age_total: SimDuration::ZERO,
            evictions: 0,
        }
    }

    /// Hit/miss/validation classification so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Bytes this cache exchanged with its upstream.
    pub fn traffic(&self) -> &TrafficMeter {
        &self.traffic
    }

    /// Summed staleness severity over the stale hits.
    pub fn stale_age_total(&self) -> SimDuration {
        self.stale_age_total
    }

    /// Entries displaced by capacity pressure since the last preload.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The store, read-only.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The resident entry for `file`, without recording an access.
    pub fn peek(&self, file: FileId) -> Option<&EntryMeta> {
        self.store.peek(file)
    }

    fn is_uncacheable(&self, class: usize) -> bool {
        class < 32 && self.uncacheable_mask & (1 << class) != 0
    }

    /// Insert, counting and reporting what a bounded store displaced.
    fn insert<P: Probe + ?Sized>(
        &mut self,
        file: FileId,
        meta: EntryMeta,
        probe: &mut P,
    ) -> Evicted {
        let at = meta.fetched_at;
        let victims = self.store.insert(file, meta);
        for &(victim, _) in victims.iter() {
            if victim != file {
                self.evictions += 1;
                probe.record(at, ObsEvent::Eviction { file: victim });
            }
        }
        victims
    }

    /// Drop any resident copy of `file`, naming it as the one victim.
    fn forget(&mut self, file: FileId) -> Applied {
        Applied {
            victims: self
                .store
                .remove(file)
                .map_or_else(Evicted::none, |meta| Evicted::one(file, meta)),
            lost: false,
        }
    }

    /// Place a copy in the cache outside any request (warm start);
    /// uncacheable classes are skipped. Uncharged; displaced entries are
    /// reported to `probe` and returned but not counted as evictions —
    /// they are setup, not workload.
    pub fn preload<P: Probe + ?Sized>(
        &mut self,
        file: FileId,
        class: usize,
        meta: EntryMeta,
        probe: &mut P,
    ) -> Evicted {
        if self.is_uncacheable(class) {
            return Evicted::none();
        }
        let before = self.evictions;
        let victims = self.insert(file, meta, probe);
        self.evictions = before;
        victims
    }

    /// A client asks for `file` at `now`. Touches the store once, asks
    /// the policy once, and — when the answer is a local serve —
    /// classifies it fresh or stale against `oracle`, the origin's
    /// scripted population (without one every local serve counts fresh).
    #[inline]
    pub fn request<P: Probe + ?Sized>(
        &mut self,
        file: FileId,
        class: usize,
        now: SimTime,
        oracle: Option<&FilePopulation>,
        probe: &mut P,
    ) -> Effect {
        if self.is_uncacheable(class) {
            conclude(probe, now, file, RequestOutcome::Uncacheable);
            return Effect::Forward;
        }
        let Some(entry) = self.store.access(file, now).copied() else {
            // Compulsory miss: the cache has never seen this object.
            conclude(probe, now, file, RequestOutcome::Miss);
            return Effect::Fetch;
        };

        // One call carrying everything the policy may weigh: the instant,
        // the content class, and what refreshing this entry would cost.
        // Expiry policies fold `entry.is_valid()` into their check, so a
        // callback-invalidated entry is never fresh.
        let ctx = RequestCtx::new(now, class).with_delay(self.link.delay_for(entry.size));
        let fresh = self.policy.decide(&entry, &ctx).serves_locally();
        probe.record(now, ObsEvent::PolicyDecision { file, fresh });

        // `None` when there is no oracle, or the request raced ahead of
        // the scripted timeline.
        let live = || {
            let record = oracle?.get(file);
            Some((record, record.version_at(now)?))
        };
        if fresh {
            match live() {
                Some((record, live)) if live.modified_at != entry.last_modified => {
                    self.stats.stale_hits += 1;
                    // Severity: how long the served copy has been out of
                    // date (time since the first change it missed).
                    let mut age = SimDuration::ZERO;
                    if let Some(missed) = record.first_change_after(entry.last_modified) {
                        age = now.saturating_since(missed.modified_at);
                        self.stale_age_total = self.stale_age_total.saturating_add(age);
                    }
                    conclude(probe, now, file, RequestOutcome::StaleHit { age });
                }
                _ => {
                    self.stats.fresh_hits += 1;
                    conclude(probe, now, file, RequestOutcome::FreshHit);
                }
            }
            return Effect::Serve(entry);
        }
        if self.retrieval == RetrievalMode::Conditional {
            return Effect::Validate(entry);
        }
        // Refetch without asking. The policy still learns whether the
        // copy had really changed; with no oracle assume it had — the
        // entry was invalidated, after all.
        let changed = live().map(|(_, live)| live.modified_at) != Some(entry.last_modified);
        self.policy.on_validation(class, changed);
        probe.record(
            now,
            ObsEvent::Validation {
                file,
                modified: changed,
            },
        );
        conclude(probe, now, file, RequestOutcome::Miss);
        Effect::Fetch
    }

    /// The upstream answered the exchange a [`Engine::request`] at `now`
    /// asked for. Counts it, feeds the policy, and updates the store.
    #[inline]
    pub fn apply<P: Probe + ?Sized>(
        &mut self,
        file: FileId,
        class: usize,
        now: SimTime,
        reply: Reply,
        probe: &mut P,
    ) -> Applied {
        match reply {
            Reply::NotModified {
                expires,
                message_bytes,
                delay,
            } => {
                self.traffic.add_message(message_bytes);
                self.stats.validations_not_modified += 1;
                self.policy.on_validation(class, false);
                // A 304 moves no body: delay-aware policies fold the bare
                // round trip into their per-class estimate.
                self.policy.on_fetch(class, delay);
                probe.record(
                    now,
                    ObsEvent::Validation {
                        file,
                        modified: false,
                    },
                );
                let Some(entry) = self.store.access(file, now) else {
                    conclude(probe, now, file, RequestOutcome::Miss);
                    return Applied {
                        victims: Evicted::none(),
                        lost: true,
                    };
                };
                entry.revalidate(now);
                entry.expires = expires;
                self.stats.fresh_hits += 1;
                conclude(probe, now, file, RequestOutcome::ValidatedFresh);
                Applied::default()
            }
            Reply::Body {
                size,
                last_modified,
                expires,
                conditional,
                message_bytes,
                delay,
            } => {
                self.traffic.add_message(message_bytes);
                self.traffic.add_file_transfer(size);
                self.policy.on_fetch(class, delay);
                self.stats.misses += 1;
                if conditional {
                    self.stats.validations_modified += 1;
                    self.policy.on_validation(class, true);
                    probe.record(
                        now,
                        ObsEvent::Validation {
                            file,
                            modified: true,
                        },
                    );
                    conclude(probe, now, file, RequestOutcome::ValidatedStale);
                }
                if self.is_uncacheable(class) {
                    return self.forget(file);
                }
                // Reinsert rather than mutate in place: bounded stores
                // track resident bytes at insert time, and the new body
                // may not be the same size as the old one.
                let mut entry = match self.store.access(file, now) {
                    Some(entry) => *entry,
                    None => EntryMeta::fresh(size, last_modified, now),
                };
                entry.replace_body(size, last_modified, now);
                entry.expires = expires;
                Applied {
                    victims: self.insert(file, entry, probe),
                    lost: false,
                }
            }
            Reply::Gone {
                conditional,
                message_bytes,
            } => {
                self.traffic.add_message(message_bytes);
                self.stats.misses += 1;
                if conditional {
                    conclude(probe, now, file, RequestOutcome::Miss);
                }
                self.forget(file)
            }
        }
    }

    /// The origin's callback for a changed `file` arrived (one control
    /// message of `message_bytes`): a resident copy stays resident but
    /// may no longer be served.
    pub fn invalidate(&mut self, file: FileId, now: SimTime, message_bytes: u64) {
        self.traffic.add_message(message_bytes);
        if let Some(entry) = self.store.access(file, now) {
            entry.mark_invalid();
        }
    }
}
