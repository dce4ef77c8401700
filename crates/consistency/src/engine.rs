//! The cache-side consistency engine: what one cache does with one
//! request, written once.
//!
//! [`Engine`] owns a cache's store, its [`Policy`], and its [`Tally`], and
//! is driven through three inputs: [`Engine::request`] decides,
//! [`Engine::apply`] takes the origin's answer, [`Engine::invalidate`]
//! takes a server callback. It reads no clock and touches no socket —
//! the instant, the upstream answer and its cost all arrive as
//! arguments — so the same code runs under the simulator's event queue,
//! as each node of the cache hierarchy, behind the failure experiment's
//! lossy notification channel, and under a live proxy shard's lock.
//!
//! A driver's whole job is transport: turn an [`Effect`] into an
//! upstream exchange, price its bytes (`message_bytes`) and hand the
//! answer back as a [`Reply`]. Time is the engine's to price: a
//! [`Policy`] that [reads it](Policy::reads_delay) is given the
//! [`LinkModel`]'s delay for the refresh it weighs at decision time
//! ([`RequestCtx::delay`]) and for each exchange applied
//! ([`Policy::on_fetch`]); for every other policy no delay is priced.
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
//! Whether a serve was stale is the experiment's question, not the
//! cache's. An engine given the origin's scripted history (its *oracle*)
//! stamps every copy it stores with [`EntryMeta::superseded_at`], the
//! first instant the origin held a newer version; a local serve at `now`
//! is stale exactly when `now >= superseded_at`, and its age is `now -
//! superseded_at`. That is one search per stored copy, where asking
//! [`version_at(now)`](originserver::FileView::version_at) at every serve
//! was one per hit, and it counts the same serves:
//!
//! * a file's versions are strictly increasing;
//! * a copy's `last_modified` is one of its file's version instants, at
//!   or before any `now` it is served at — the origin panics on a `GET`
//!   before creation, and the live stack runs on one shared clock;
//! * so `version_at(now) != last_modified` holds exactly when
//!   `first_change_after(last_modified) <= now`, and the stale age is
//!   the same subtraction.
//!
//! A `304` keeps the stamp, because the version is the same; every new
//! body sets it again. Without an oracle no copy is ever superseded,
//! every serve counts fresh, and an eager refetch counts as a change.
//!
//! Every input takes its probe as a type parameter (`probe: &mut P`,
//! `P: Probe + ?Sized`). Passing `&mut NoopProbe` makes every record an
//! empty inlined call that compiles away. Passing `&mut dyn Probe` gives
//! one instantiation whatever the probe is. The engine's counts are its
//! own [`Tally`], fed each event just before `probe` is (the pair
//! `(&mut tally, probe)` is itself a probe): one ledger, so a probe that
//! folds the same stream reads the same counts.

use std::sync::Arc;

use originserver::FilePopulation;
use proxycache::{EntryMeta, Evicted, Store};
use simcore::{FileId, SimDuration, SimTime};
use wcc_obs::{ExchangeKind, ObsEvent, Probe, RequestOutcome, Tally};

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
/// real wire bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// `304 Not Modified` to a conditional GET.
    NotModified {
        /// Origin-assigned expiry for the revalidated copy.
        expires: Option<SimTime>,
        /// Request plus bodyless response.
        message_bytes: u64,
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

fn exchange(file: FileId, kind: ExchangeKind, message_bytes: u64, body_bytes: u64) -> ObsEvent {
    ObsEvent::Exchange {
        file,
        kind,
        message_bytes,
        body_bytes,
    }
}

/// One cache's consistency state machine. See the module docs.
pub struct Engine<S> {
    store: S,
    policy: Box<dyn Policy + Send>,
    retrieval: RetrievalMode,
    uncacheable_mask: u32,
    link: LinkModel,
    /// [`Policy::reads_delay`], asked once: whether a request or an
    /// applied exchange prices `link`.
    reads_delay: bool,
    /// The origin's scripted history, when the driver has one: what
    /// [`EntryMeta::superseded_at`] is stamped from.
    oracle: Option<Arc<FilePopulation>>,
    tally: Tally,
}

impl<S: Store> Engine<S> {
    /// An engine over `store` deciding with `policy`. An expired copy is
    /// retrieved per `retrieval`, except that a policy that reads writes
    /// always refetches: a copy it may not serve is known stale. Classes
    /// whose bit is set in `uncacheable_mask` are forwarded, never
    /// stored; `link` prices the delays a policy that reads them is
    /// given. `oracle`, the origin's scripted population, is what a
    /// local serve is classified fresh or stale against (see the module
    /// docs); without one every local serve counts fresh.
    pub fn new(
        store: S,
        policy: Box<dyn Policy + Send>,
        retrieval: RetrievalMode,
        uncacheable_mask: u32,
        link: LinkModel,
        oracle: Option<Arc<FilePopulation>>,
    ) -> Self {
        Engine {
            store,
            retrieval: if policy.reads_writes() {
                RetrievalMode::Eager
            } else {
                retrieval
            },
            reads_delay: policy.reads_delay(),
            policy,
            uncacheable_mask,
            link,
            oracle,
            tally: Tally::default(),
        }
    }

    /// The counts so far: a fold of every event this engine has recorded
    /// except [`Engine::preload`]'s.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Whether the policy acts on the origin's writes
    /// ([`Policy::reads_writes`]): whether a driver must deliver them.
    pub fn reads_writes(&self) -> bool {
        self.policy.reads_writes()
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
    /// uncacheable classes are skipped. `meta`'s `superseded_at` is
    /// stamped from the oracle. Uncharged; displaced entries are
    /// reported to `probe` and returned but not tallied — they are setup,
    /// not workload.
    pub fn preload<P: Probe + ?Sized>(
        &mut self,
        file: FileId,
        class: usize,
        mut meta: EntryMeta,
        probe: &mut P,
    ) -> Evicted {
        if self.is_uncacheable(class) {
            return Evicted::none();
        }
        meta.superseded_at = superseded_at(self.oracle.as_deref(), file, meta.last_modified);
        insert(&mut self.store, file, meta, probe)
    }

    /// A client asks for `file` at `now`. Asks the policy once, and —
    /// when the answer is a local serve — classifies it fresh or stale
    /// by the copy's [`EntryMeta::superseded_at`] (without an oracle
    /// every local serve counts fresh). Its [`Store::access`] is the
    /// request's one use of the store: [`Engine::apply`] changes an entry
    /// without reordering the store, and [`Engine::invalidate`] is not a
    /// use, so a request counts once whatever its answer.
    #[inline]
    pub fn request<P: Probe + ?Sized>(
        &mut self,
        file: FileId,
        class: usize,
        now: SimTime,
        probe: &mut P,
    ) -> Effect {
        let uncacheable = self.is_uncacheable(class);
        let probe = &mut (&mut self.tally, probe);
        if uncacheable {
            conclude(probe, now, file, RequestOutcome::Uncacheable);
            return Effect::Forward;
        }
        let Some(entry) = self.store.access(file, now).copied() else {
            // Compulsory miss: the cache has never seen this object.
            conclude(probe, now, file, RequestOutcome::Miss);
            return Effect::Fetch;
        };

        // One call carrying everything the policy may weigh: the instant,
        // the content class, and what refreshing this entry would cost —
        // priced only for a policy that reads it, since the price is a
        // division. Expiry policies fold `entry.is_valid()` into their
        // check, so a callback-invalidated entry is never fresh.
        let delay = if self.reads_delay {
            self.link.delay_for(entry.size)
        } else {
            SimDuration::ZERO
        };
        let ctx = RequestCtx::new(now, class).with_delay(delay);
        let fresh = self.policy.decide(&entry, &ctx).serves_locally();
        probe.record(now, ObsEvent::PolicyDecision { file, fresh });

        // Whether the origin had moved past this copy by `now`: stamped
        // when the body arrived, so there is nothing to search here.
        let superseded = self.oracle.is_some() && now >= entry.superseded_at;
        if fresh {
            let outcome = if superseded {
                // Severity: how long the served copy has been out of
                // date (time since the first change it missed).
                RequestOutcome::StaleHit {
                    age: now.saturating_since(entry.superseded_at),
                }
            } else {
                RequestOutcome::FreshHit
            };
            conclude(probe, now, file, outcome);
            return Effect::Serve(entry);
        }
        if self.retrieval == RetrievalMode::Conditional {
            return Effect::Validate(entry);
        }
        // Refetch without asking. The policy still learns whether the
        // copy had really changed; with no oracle assume it had — the
        // entry was invalidated, after all.
        let changed = self.oracle.is_none() || superseded;
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
    /// asked for. Records it, feeds the policy, and updates the store.
    #[inline]
    pub fn apply<P: Probe + ?Sized>(
        &mut self,
        file: FileId,
        class: usize,
        now: SimTime,
        reply: Reply,
        probe: &mut P,
    ) -> Applied {
        let uncacheable = self.is_uncacheable(class);
        let probe = &mut (&mut self.tally, probe);
        match reply {
            Reply::NotModified {
                expires,
                message_bytes,
            } => {
                probe.record(
                    now,
                    exchange(file, ExchangeKind::NotModified, message_bytes, 0),
                );
                self.policy.on_validation(class, false);
                // A 304 moves no body: delay-aware policies fold the bare
                // round trip into their per-class estimate. The rest are
                // told nothing, since the price is a division.
                if self.reads_delay {
                    self.policy.on_fetch(class, self.link.delay_for(0));
                }
                probe.record(
                    now,
                    ObsEvent::Validation {
                        file,
                        modified: false,
                    },
                );
                let Some(entry) = self.store.peek_mut(file) else {
                    conclude(probe, now, file, RequestOutcome::Miss);
                    return Applied {
                        victims: Evicted::none(),
                        lost: true,
                    };
                };
                entry.revalidate(now);
                entry.expires = expires;
                conclude(probe, now, file, RequestOutcome::ValidatedFresh);
                Applied::default()
            }
            Reply::Body {
                size,
                last_modified,
                expires,
                conditional,
                message_bytes,
            } => {
                probe.record(now, exchange(file, ExchangeKind::Body, message_bytes, size));
                if self.reads_delay {
                    self.policy.on_fetch(class, self.link.delay_for(size));
                }
                if conditional {
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
                if uncacheable {
                    return self.forget(file);
                }
                // Reinsert rather than mutate in place: bounded stores
                // track resident bytes at insert time, and the new body
                // may not be the same size as the old one. Nothing of a
                // resident copy survives a new body.
                let mut entry = EntryMeta::fresh(size, last_modified, now);
                entry.expires = expires;
                entry.superseded_at = superseded_at(self.oracle.as_deref(), file, last_modified);
                Applied {
                    victims: insert(&mut self.store, file, entry, probe),
                    lost: false,
                }
            }
            Reply::Gone {
                conditional,
                message_bytes,
            } => {
                probe.record(now, exchange(file, ExchangeKind::Gone, message_bytes, 0));
                if conditional {
                    conclude(probe, now, file, RequestOutcome::Miss);
                }
                self.forget(file)
            }
        }
    }

    /// The origin's callback for a changed `file` arrived (one control
    /// message of `message_bytes`): a resident copy stays resident but
    /// may no longer be served ([`Store::invalidate`]). A notice is not a
    /// use, and the copy is worth nothing until refetched, so a bounded
    /// store makes it a preferred victim by its policy's rule.
    pub fn invalidate<P: Probe + ?Sized>(
        &mut self,
        file: FileId,
        now: SimTime,
        message_bytes: u64,
        probe: &mut P,
    ) {
        let notice = exchange(file, ExchangeKind::Notice, message_bytes, 0);
        (&mut self.tally, probe).record(now, notice);
        self.store.invalidate(file);
    }
}

/// When `oracle` first held a newer version of `file` than the one
/// written at `last_modified`: [`SimTime::MAX`] if it never does, if
/// there is no oracle, or if it does not hold `file` (a live proxy's path
/// first seen on the wire).
fn superseded_at(oracle: Option<&FilePopulation>, file: FileId, last_modified: SimTime) -> SimTime {
    oracle
        .filter(|oracle| file.index() < oracle.len())
        .and_then(|oracle| oracle.get(file).first_change_after(last_modified))
        .map_or(SimTime::MAX, |next| next.modified_at)
}

/// Insert, reporting what a bounded store displaced.
fn insert<S: Store, P: Probe + ?Sized>(
    store: &mut S,
    file: FileId,
    meta: EntryMeta,
    probe: &mut P,
) -> Evicted {
    // Every insert's copy was delivered (or preloaded) at this instant.
    let at = meta.last_validated;
    let victims = store.insert(file, meta);
    for &(victim, _) in victims.iter() {
        if victim != file {
            probe.record(at, ObsEvent::Eviction { file: victim });
        }
    }
    victims
}
