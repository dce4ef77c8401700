//! `consistency` — the Web cache-consistency policies of Gwertzman &
//! Seltzer (USENIX '96).
//!
//! Every consistency policy answers one question per request: *may this
//! validated cache entry be served without contacting the origin?* The
//! [`Policy`] trait captures that as a [`Decision`] computed from the
//! entry's metadata and a [`RequestCtx`] (instant, content class,
//! observed transfer delay). Time-based policies compute a single expiry
//! instant per validation (an inherent `expiry` method) and decide via
//! [`decide_by_expiry`].
//! Implementations cover the paper's contenders, its baselines, and two
//! later literature policies:
//!
//! * [`FixedTtl`] — fixed time-to-live (the HTTP `Expires` strategy);
//! * [`AdaptiveTtl`] — the Alex protocol (validity = threshold × age);
//! * [`NeverExpire`] — the cache-side stance of the invalidation protocol;
//! * [`PollEveryTime`] — the threshold-0 degenerate case;
//! * [`CernPolicy`] — the CERN httpd three-tier rule (related work, §2);
//! * [`SelfTuningPolicy`] — the paper's §5 future work: per-class adaptive
//!   thresholds with multiplicative feedback;
//! * [`ClassTtl`] — static per-content-class TTLs (the Table 2-informed
//!   counterpart of the self-tuning policy);
//! * [`RenewableTtl`] — delay-aware TTL anchored at delivery rather than
//!   validation (arXiv 2201.11577);
//! * [`UpdateRisk`] — staleness-risk-bounded freshness (arXiv 2412.20221).
//!
//! [`Engine`] is the one place a policy is consulted: it owns a cache's
//! store, policy and counters and turns each request into an [`Effect`]
//! for its driver — the simulator, a node of the cache hierarchy, or a
//! live proxy shard — to carry out and answer with a [`Reply`].
//! [`LinkModel`] supplies the modeled transfer delays it threads into
//! [`RequestCtx::delay`]. [`ProtocolSpec`] names a policy configuration
//! as a copyable value — what the simulator and the live proxy are both
//! configured with.
//!
//! The invalidation protocol's *server-side* machinery (subscriber
//! registry, callbacks) lives in `originserver`; the drivers wire both
//! halves together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cern;
mod engine;
mod policy;
mod renewable;
mod risk;
mod selftuning;
mod spec;
mod typed;

pub use cern::CernPolicy;
pub use engine::{Applied, Effect, Engine, Reply, RetrievalMode};
pub use policy::{
    decide_by_expiry, AdaptiveTtl, Decision, FixedTtl, LinkModel, NeverExpire, Policy,
    PollEveryTime, RequestCtx,
};
pub use renewable::RenewableTtl;
pub use risk::UpdateRisk;
pub use selftuning::SelfTuningPolicy;
pub use spec::ProtocolSpec;
pub use typed::ClassTtl;
