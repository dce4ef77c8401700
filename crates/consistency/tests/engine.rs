//! The consistency engine, driven directly: no sockets, no event queue.
//!
//! A scripted table walks every branch of `request → Effect` and
//! `Reply → Applied`; a property test interleaves requests, replies and
//! invalidations at random on a bounded store.

use std::collections::BTreeSet;
use std::sync::Arc;

use consistency::{Effect, Engine, FixedTtl, LinkModel, NeverExpire, Policy, Reply, RetrievalMode};
use originserver::{FilePopulation, FileRecord};
use proptest::prelude::*;
use proxycache::{EntryMeta, FifoStore, GdsStore, LfuStore, LruStore, Store};
use simcore::{CacheStats, FileId, SimDuration, SimTime};
use wcc_obs::{ExchangeKind, ObsEvent, Probe, RequestOutcome, Tally};

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

const MSG: u64 = 43;

/// Renders each engine event as a short label, in arrival order, and
/// folds the stream into a tally of its own.
#[derive(Default)]
struct Log(Vec<String>, Tally);

impl Probe for Log {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
        self.1.record(at, event);
        let at = at.as_secs();
        self.0.push(match event {
            ObsEvent::Request { file, outcome } => {
                let outcome = match outcome {
                    RequestOutcome::FreshHit => "fresh".to_string(),
                    RequestOutcome::StaleHit { age } => format!("stale+{}", age.as_secs()),
                    RequestOutcome::Miss => "miss".to_string(),
                    RequestOutcome::ValidatedFresh => "validated-fresh".to_string(),
                    RequestOutcome::ValidatedStale => "validated-stale".to_string(),
                    RequestOutcome::Uncacheable => "uncacheable".to_string(),
                };
                format!("{at} request f{} {outcome}", file.index())
            }
            ObsEvent::PolicyDecision { file, fresh } => {
                format!("{at} decision f{} fresh={fresh}", file.index())
            }
            ObsEvent::Validation { file, modified } => {
                format!("{at} validation f{} modified={modified}", file.index())
            }
            ObsEvent::Exchange {
                file,
                kind,
                message_bytes,
                body_bytes,
            } => {
                let kind = match kind {
                    ExchangeKind::NotModified => "not-modified",
                    ExchangeKind::Body => "body",
                    ExchangeKind::Gone => "gone",
                    ExchangeKind::Notice => "notice",
                };
                format!(
                    "{at} exchange f{} {kind} {message_bytes}+{body_bytes}",
                    file.index()
                )
            }
            ObsEvent::Eviction { file } => format!("{at} eviction f{}", file.index()),
            other => panic!("the engine does not emit {other:?}"),
        });
    }
}

/// What a scripted step expects `Engine::request` to answer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Want {
    Serve,
    Validate,
    Fetch,
    Forward,
}

enum Step {
    Preload(u32, u64, u64),
    Invalidate(u32, u64),
    /// `(file, class, now, expected effect)`
    Request(u32, usize, u64, Want),
    /// `(file, class, now, reply, expected victims, expected lost)`
    Apply(u32, usize, u64, Reply, &'static [u32], bool),
}

struct Case {
    name: &'static str,
    policy: fn() -> Box<dyn Policy + Send>,
    retrieval: RetrievalMode,
    /// `false`: the engine runs without a population oracle.
    oracle: bool,
    steps: Vec<Step>,
    /// `[fresh, stale, misses, 304s, 200-on-conditional]`
    stats: [u64; 5],
    stale_age: u64,
    evictions: u64,
    /// `(messages, file_transfers)`
    traffic: (u64, u64),
    resident: &'static [u32],
    events: &'static [&'static str],
}

/// Every resident copy has timed out.
fn ttl_zero() -> Box<dyn Policy + Send> {
    Box::new(FixedTtl::hours(0))
}

/// No resident copy times out within a script.
fn ttl_long() -> Box<dyn Policy + Send> {
    Box::new(FixedTtl::hours(1_000))
}

fn body(size: u64, last_modified: u64, conditional: bool) -> Reply {
    Reply::Body {
        size,
        last_modified: t(last_modified),
        expires: None,
        conditional,
        message_bytes: MSG,
    }
}

fn not_modified(expires: Option<u64>) -> Reply {
    Reply::NotModified {
        expires: expires.map(t),
        message_bytes: MSG,
    }
}

/// f0 is written at 0 and rewritten (200 B → 300 B) at 50; f1 and f2 never
/// change. Class 3 is uncacheable; the LRU store holds 1 000 bytes.
fn population() -> FilePopulation {
    let mut pop = FilePopulation::new();
    let mut f0 = FileRecord::new("/f0", t(0), 200);
    f0.push_modification(t(50), 300);
    pop.add(f0);
    pop.add(FileRecord::new("/f1", t(0), 600));
    pop.add(FileRecord::new("/f2", t(0), 600));
    pop
}

#[allow(clippy::too_many_lines)]
fn cases() -> Vec<Case> {
    use RetrievalMode::{Conditional, Eager};
    use Step::{Apply, Invalidate, Preload, Request};
    use Want::{Fetch, Forward, Serve, Validate};
    let gone = |conditional| Reply::Gone {
        conditional,
        message_bytes: MSG,
    };
    vec![
        Case {
            name: "uncacheable class is forwarded and never stored",
            policy: ttl_long,
            retrieval: Conditional,
            oracle: true,
            steps: vec![
                Request(1, 3, 10, Forward),
                Apply(1, 3, 10, body(600, 0, false), &[], false),
                Request(1, 3, 11, Forward),
            ],
            stats: [0, 0, 1, 0, 0],
            stale_age: 0,
            evictions: 0,
            traffic: (1, 1),
            resident: &[],
            events: &[
                "10 request f1 uncacheable",
                "10 exchange f1 body 43+600",
                "11 request f1 uncacheable",
            ],
        },
        Case {
            name: "compulsory miss is stored, then a fresh hit",
            policy: ttl_long,
            retrieval: Conditional,
            oracle: true,
            steps: vec![
                Request(0, 0, 10, Fetch),
                Apply(0, 0, 10, body(200, 0, false), &[], false),
                Request(0, 0, 20, Serve),
            ],
            stats: [1, 0, 1, 0, 0],
            stale_age: 0,
            evictions: 0,
            traffic: (1, 1),
            resident: &[0],
            events: &[
                "10 request f0 miss",
                "10 exchange f0 body 43+200",
                "20 decision f0 fresh=true",
                "20 request f0 fresh",
            ],
        },
        Case {
            name: "stale hit is charged its age since the missed change",
            policy: ttl_long,
            retrieval: Conditional,
            oracle: true,
            steps: vec![Preload(0, 200, 0), Request(0, 0, 80, Serve)],
            stats: [0, 1, 0, 0, 0],
            stale_age: 30,
            evictions: 0,
            traffic: (0, 0),
            resident: &[0],
            events: &["80 decision f0 fresh=true", "80 request f0 stale+30"],
        },
        Case {
            name: "without an oracle every local serve counts fresh",
            policy: ttl_long,
            retrieval: Conditional,
            oracle: false,
            steps: vec![Preload(0, 200, 0), Request(0, 0, 80, Serve)],
            stats: [1, 0, 0, 0, 0],
            stale_age: 0,
            evictions: 0,
            traffic: (0, 0),
            resident: &[0],
            events: &["80 decision f0 fresh=true", "80 request f0 fresh"],
        },
        Case {
            name: "invalidated copy is refetched without asking",
            policy: || Box::new(NeverExpire),
            retrieval: Eager,
            oracle: true,
            steps: vec![
                Preload(0, 200, 0),
                Invalidate(0, 50),
                Request(0, 0, 60, Fetch),
                Apply(0, 0, 60, body(300, 50, false), &[], false),
                Request(0, 0, 70, Serve),
            ],
            stats: [1, 0, 1, 0, 0],
            stale_age: 0,
            evictions: 0,
            traffic: (2, 1),
            resident: &[0],
            events: &[
                "50 exchange f0 notice 43+0",
                "60 decision f0 fresh=false",
                "60 validation f0 modified=true",
                "60 request f0 miss",
                "60 exchange f0 body 43+300",
                "70 decision f0 fresh=true",
                "70 request f0 fresh",
            ],
        },
        Case {
            name: "eager retrieval refetches an expired copy, changed or not",
            policy: ttl_zero,
            retrieval: Eager,
            oracle: true,
            steps: vec![
                Preload(1, 600, 0),
                Request(1, 0, 10, Fetch),
                Apply(1, 0, 10, body(600, 0, false), &[], false),
            ],
            stats: [0, 0, 1, 0, 0],
            stale_age: 0,
            evictions: 0,
            traffic: (1, 1),
            resident: &[1],
            events: &[
                "10 decision f1 fresh=false",
                "10 validation f1 modified=false",
                "10 request f1 miss",
                "10 exchange f1 body 43+600",
            ],
        },
        Case {
            name: "eager refetch with no oracle assumes the copy changed",
            policy: ttl_zero,
            retrieval: Eager,
            oracle: false,
            steps: vec![Preload(1, 600, 0), Request(1, 0, 10, Fetch)],
            stats: [0, 0, 0, 0, 0],
            stale_age: 0,
            evictions: 0,
            traffic: (0, 0),
            resident: &[1],
            events: &[
                "10 decision f1 fresh=false",
                "10 validation f1 modified=true",
                "10 request f1 miss",
            ],
        },
        Case {
            name: "304 revalidates in place",
            policy: ttl_zero,
            retrieval: Conditional,
            oracle: true,
            steps: vec![
                Preload(1, 600, 0),
                Request(1, 0, 10, Validate),
                Apply(1, 0, 10, not_modified(Some(99)), &[], false),
            ],
            stats: [1, 0, 0, 1, 0],
            stale_age: 0,
            evictions: 0,
            traffic: (1, 0),
            resident: &[1],
            events: &[
                "10 decision f1 fresh=false",
                "10 exchange f1 not-modified 43+0",
                "10 validation f1 modified=false",
                "10 request f1 validated-fresh",
            ],
        },
        Case {
            name: "200 on a conditional request replaces the body",
            policy: ttl_zero,
            retrieval: Conditional,
            oracle: true,
            steps: vec![
                Preload(0, 200, 0),
                Request(0, 0, 60, Validate),
                Apply(0, 0, 60, body(300, 50, true), &[], false),
            ],
            stats: [0, 0, 1, 0, 1],
            stale_age: 0,
            evictions: 0,
            traffic: (1, 1),
            resident: &[0],
            events: &[
                "60 decision f0 fresh=false",
                "60 exchange f0 body 43+300",
                "60 validation f0 modified=true",
                "60 request f0 validated-stale",
            ],
        },
        Case {
            name: "gone drops the copy and names it a victim",
            policy: ttl_zero,
            retrieval: Conditional,
            oracle: true,
            steps: vec![
                Request(2, 0, 5, Fetch),
                Apply(2, 0, 5, gone(false), &[], false),
                Preload(1, 600, 0),
                Request(1, 0, 10, Validate),
                Apply(1, 0, 10, gone(true), &[1], false),
            ],
            stats: [0, 0, 2, 0, 0],
            stale_age: 0,
            evictions: 0,
            traffic: (2, 0),
            resident: &[],
            events: &[
                "5 request f2 miss",
                "5 exchange f2 gone 43+0",
                "10 decision f1 fresh=false",
                "10 exchange f1 gone 43+0",
                "10 request f1 miss",
            ],
        },
        Case {
            name: "entry lost between request and 304 leaves the request open",
            policy: ttl_zero,
            retrieval: Conditional,
            oracle: true,
            steps: vec![
                Preload(1, 600, 0),
                Request(1, 0, 10, Validate),
                // f2 arrives while f1's validation is in flight and
                // displaces it: 600 + 600 > 1 000.
                Request(2, 0, 11, Fetch),
                Apply(2, 0, 11, body(600, 0, false), &[1], false),
                Apply(1, 0, 10, not_modified(None), &[], true),
                Apply(1, 0, 10, body(600, 0, false), &[2], false),
            ],
            stats: [0, 0, 2, 1, 0],
            stale_age: 0,
            evictions: 2,
            traffic: (3, 2),
            resident: &[1],
            events: &[
                "10 decision f1 fresh=false",
                "11 request f2 miss",
                "11 exchange f2 body 43+600",
                "11 eviction f1",
                "10 exchange f1 not-modified 43+0",
                "10 validation f1 modified=false",
                "10 request f1 miss",
                "10 exchange f1 body 43+600",
                "10 eviction f2",
            ],
        },
        Case {
            name: "oversized body is rejected: the file is its own victim",
            policy: ttl_long,
            retrieval: Conditional,
            oracle: true,
            steps: vec![
                Request(0, 0, 10, Fetch),
                Apply(0, 0, 10, body(5_000, 0, false), &[0], false),
                Request(0, 0, 11, Fetch),
            ],
            stats: [0, 0, 1, 0, 0],
            stale_age: 0,
            evictions: 0,
            traffic: (1, 1),
            resident: &[],
            events: &[
                "10 request f0 miss",
                "10 exchange f0 body 43+5000",
                "11 request f0 miss",
            ],
        },
    ]
}

#[test]
fn every_branch_of_request_and_apply() {
    let pop = Arc::new(population());
    for case in cases() {
        let name = case.name;
        let mut engine = Engine::new(
            LruStore::new(1_000),
            (case.policy)(),
            case.retrieval,
            1 << 3,
            LinkModel::default(),
            case.oracle.then(|| Arc::clone(&pop)),
        );
        let mut log = Log::default();
        for step in case.steps {
            match step {
                Step::Preload(file, size, at) => {
                    let meta = EntryMeta::fresh(size, t(0), t(at));
                    engine.preload(FileId(file), 0, meta, &mut log);
                }
                Step::Invalidate(file, now) => {
                    engine.invalidate(FileId(file), t(now), MSG, &mut log);
                }
                Step::Request(file, class, now, want) => {
                    let got = match engine.request(FileId(file), class, t(now), &mut log) {
                        Effect::Serve(_) => Want::Serve,
                        Effect::Validate(_) => Want::Validate,
                        Effect::Fetch => Want::Fetch,
                        Effect::Forward => Want::Forward,
                    };
                    assert_eq!(got, want, "{name}: request f{file} at {now}");
                }
                Step::Apply(file, class, now, reply, victims, lost) => {
                    let applied = engine.apply(FileId(file), class, t(now), reply, &mut log);
                    let got: Vec<u32> = applied.victims.iter().map(|(v, _)| v.0).collect();
                    assert_eq!(got, victims, "{name}: victims of {reply:?}");
                    assert_eq!(applied.lost, lost, "{name}: lost on {reply:?}");
                }
            }
        }
        let [fresh_hits, stale_hits, misses, validations_not_modified, validations_modified] =
            case.stats;
        let tally = engine.tally();
        assert_eq!(
            tally.cache,
            CacheStats {
                fresh_hits,
                stale_hits,
                misses,
                validations_not_modified,
                validations_modified,
            },
            "{name}"
        );
        assert_eq!(tally.stale_age_total.as_secs(), case.stale_age, "{name}");
        assert_eq!(tally.evictions, case.evictions, "{name}");
        let traffic = tally.traffic;
        assert_eq!(
            (traffic.messages, traffic.file_transfers),
            case.traffic,
            "{name}"
        );
        assert_eq!(traffic.message_bytes, MSG * traffic.messages, "{name}");
        let resident: Vec<u32> = engine.store().iter().map(|(id, _)| id.0).collect();
        assert_eq!(resident, case.resident, "{name}");
        assert_eq!(log.0, case.events, "{name}");
        // No script preloads into a full store, so the caller's stream
        // folds to the engine's own counts.
        assert_eq!(log.1, *tally, "{name}: the caller's fold");
    }
}

/// An engine over a 1 000-byte LRU store, asking `population()` whether
/// a serve is stale when `oracle` holds.
fn scripted_engine(
    policy: Box<dyn Policy + Send>,
    retrieval: RetrievalMode,
    oracle: bool,
) -> Engine<LruStore> {
    Engine::new(
        LruStore::new(1_000),
        policy,
        retrieval,
        0,
        LinkModel::default(),
        oracle.then(|| Arc::new(population())),
    )
}

#[test]
fn a_304_restamps_validation_time_and_expiry() {
    let mut engine = scripted_engine(ttl_zero(), RetrievalMode::Conditional, true);
    // f0's version of 0 is superseded at 50; at 10 it is still live.
    let f = FileId(0);
    engine.preload(f, 0, EntryMeta::fresh(200, t(0), t(0)), &mut Log::default());
    assert_eq!(engine.peek(f).unwrap().superseded_at, t(50));
    let Effect::Validate(held) = engine.request(f, 0, t(10), &mut Log::default()) else {
        panic!("TTL 0 always validates");
    };
    assert_eq!(held.last_validated, t(0));
    engine.apply(f, 0, t(10), not_modified(Some(99)), &mut Log::default());
    let entry = engine.peek(f).unwrap();
    assert_eq!(entry.last_validated, t(10));
    assert_eq!(
        entry.superseded_at,
        t(50),
        "no body moved: the same version"
    );
    assert_eq!(entry.expires, Some(t(99)));
}

/// A new body is a new version: its stamp is set again, from the body's
/// own `Last-Modified`.
#[test]
fn a_body_sets_superseded_at_again() {
    let mut engine = scripted_engine(ttl_zero(), RetrievalMode::Conditional, true);
    let f = FileId(0);
    let mut log = Log::default();
    engine.preload(f, 0, EntryMeta::fresh(200, t(0), t(0)), &mut log);
    assert_eq!(engine.peek(f).unwrap().superseded_at, t(50));
    assert!(matches!(
        engine.request(f, 0, t(60), &mut log),
        Effect::Validate(_)
    ));
    engine.apply(f, 0, t(60), body(300, 50, true), &mut log);
    assert_eq!(
        engine.peek(f).unwrap().superseded_at,
        SimTime::MAX,
        "50 is f0's last version"
    );
}

/// A copy can be out of date before it is stored — a parent cache
/// serving the version it holds: it is stamped with the change it
/// already missed, and its first serve is a stale hit charged from there.
#[test]
fn a_copy_superseded_when_inserted_is_stale_on_its_first_serve() {
    let mut engine = scripted_engine(ttl_long(), RetrievalMode::Conditional, true);
    let f = FileId(0);
    let mut log = Log::default();
    assert_eq!(engine.request(f, 0, t(60), &mut log), Effect::Fetch);
    engine.apply(f, 0, t(60), body(200, 0, false), &mut log);
    assert_eq!(engine.peek(f).unwrap().superseded_at, t(50));
    assert!(matches!(
        engine.request(f, 0, t(70), &mut log),
        Effect::Serve(_)
    ));
    assert_eq!(engine.tally().cache.stale_hits, 1);
    assert_eq!(engine.tally().stale_age_total, SimDuration::from_secs(20));
    assert_eq!(log.0.last().unwrap(), "70 request f0 stale+20");
}

/// Without an oracle nothing is known to be superseded: every copy keeps
/// `SimTime::MAX`, every local serve counts fresh — even of a copy the
/// population would call stale — and an eager refetch always counts as
/// a change.
#[test]
fn without_an_oracle_no_copy_is_superseded() {
    let f = FileId(0);
    let mut log = Log::default();
    let mut engine = scripted_engine(ttl_long(), RetrievalMode::Conditional, false);
    engine.preload(f, 0, EntryMeta::fresh(200, t(0), t(0)), &mut log);
    assert_eq!(engine.peek(f).unwrap().superseded_at, SimTime::MAX);
    assert!(matches!(
        engine.request(f, 0, t(80), &mut log),
        Effect::Serve(_)
    ));
    let g = FileId(1);
    assert_eq!(engine.request(g, 0, t(80), &mut log), Effect::Fetch);
    engine.apply(g, 0, t(80), body(600, 0, false), &mut log);
    assert_eq!(engine.peek(g).unwrap().superseded_at, SimTime::MAX);
    assert!(matches!(
        engine.request(g, 0, t(90), &mut log),
        Effect::Serve(_)
    ));
    assert_eq!(engine.tally().cache.fresh_hits, 2);
    assert_eq!(engine.tally().cache.stale_hits, 0);

    // f1 never changes, yet an eager refetch without an oracle counts
    // as a change.
    let mut engine = scripted_engine(ttl_zero(), RetrievalMode::Eager, false);
    let mut log = Log::default();
    engine.preload(g, 0, EntryMeta::fresh(600, t(0), t(0)), &mut log);
    for at in [10, 20] {
        assert_eq!(engine.request(g, 0, t(at), &mut log), Effect::Fetch);
        engine.apply(g, 0, t(at), body(600, 0, false), &mut log);
        assert_eq!(engine.peek(g).unwrap().superseded_at, SimTime::MAX);
    }
    let changed: Vec<&str> = log
        .0
        .iter()
        .filter(|e| e.contains("validation"))
        .map(String::as_str)
        .collect();
    assert_eq!(
        changed,
        [
            "10 validation f1 modified=true",
            "20 validation f1 modified=true"
        ]
    );
}

/// One move of the random driver below.
#[derive(Debug, Clone)]
enum Op {
    Request(u32),
    /// Answer the `n`th outstanding exchange (mod how many there are);
    /// `gone` answers 404 instead of what the population holds.
    Reply(usize, bool),
    Invalidate(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..8).prop_map(Op::Request),
        (0u32..8).prop_map(Op::Request),
        (0usize..8, 0u32..10).prop_map(|(n, p)| Op::Reply(n, p == 0)),
        (0usize..8, 0u32..10).prop_map(|(n, p)| Op::Reply(n, p == 0)),
        (0u32..8).prop_map(Op::Invalidate),
    ]
}

/// Eight files of 40–180 bytes (f7 at 320 never fits the 300-byte store),
/// file `i` rewritten every `13 + 3i` seconds.
fn churning_population() -> FilePopulation {
    let mut pop = FilePopulation::new();
    for i in 0..8u64 {
        let size = if i == 7 { 320 } else { 40 + 20 * i };
        let mut rec = FileRecord::new(format!("/f{i}"), t(0), size);
        for k in 1..40 {
            rec.push_modification(t(k * (13 + 3 * i)), size);
        }
        pop.add(rec);
    }
    pop
}

/// Drive one engine the way every transport does — requests conclude at
/// once or leave an exchange outstanding, replies arrive later and in any
/// order, subscribe-before-insert, unsubscribe the victims — and check
/// after every move that each concluded request was counted exactly once
/// and, under invalidation, that the subscriptions are exactly the
/// resident set.
fn drive(ops: &[Op], invalidation: bool) {
    let pop = Arc::new(churning_population());
    let (policy, retrieval): (Box<dyn Policy + Send>, _) = if invalidation {
        (Box::new(NeverExpire), RetrievalMode::Eager)
    } else {
        (
            Box::new(FixedTtl::new(SimDuration::from_secs(20))),
            RetrievalMode::Conditional,
        )
    };
    let mut engine = Engine::new(
        LruStore::new(300),
        policy,
        retrieval,
        0,
        LinkModel::default(),
        Some(Arc::clone(&pop)),
    );
    let mut log = Log::default();
    let mut subscribed = BTreeSet::new();
    // Outstanding exchanges: (file, request instant, the copy a
    // conditional GET asked about).
    let mut pending: Vec<(FileId, SimTime, Option<EntryMeta>)> = Vec::new();
    let mut concluded = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let now = t(2 * i as u64);
        match *op {
            Op::Request(f) => match engine.request(FileId(f), 0, now, &mut log) {
                Effect::Serve(_) => concluded += 1,
                Effect::Validate(held) => pending.push((FileId(f), now, Some(held))),
                Effect::Fetch => pending.push((FileId(f), now, None)),
                Effect::Forward => unreachable!("no uncacheable classes here"),
            },
            Op::Invalidate(f) => {
                if invalidation {
                    engine.invalidate(FileId(f), now, MSG, &mut log);
                }
            }
            Op::Reply(n, gone) => {
                if pending.is_empty() {
                    continue;
                }
                let (file, asked_at, held) = pending.swap_remove(n % pending.len());
                let live = pop.get(file).version_at(asked_at).unwrap();
                let conditional = held.is_some();
                let reply = if gone {
                    Reply::Gone {
                        conditional,
                        message_bytes: MSG,
                    }
                } else if held.is_some_and(|held| held.last_modified == live.modified_at) {
                    not_modified(None)
                } else {
                    body(live.size, live.modified_at.as_secs(), conditional)
                };
                if invalidation
                    && engine.peek(file).is_none()
                    && matches!(reply, Reply::Body { .. })
                {
                    subscribed.insert(file);
                }
                let applied = engine.apply(file, 0, asked_at, reply, &mut log);
                for (victim, _) in applied.victims.iter() {
                    subscribed.remove(victim);
                }
                if applied.lost {
                    pending.push((file, asked_at, None));
                } else {
                    concluded += 1;
                }
            }
        }
        assert_eq!(
            engine.tally().cache.requests(),
            concluded,
            "after move {i}: {op:?}"
        );
        assert_eq!(log.1, *engine.tally(), "after move {i}: {op:?}");
        if invalidation {
            let resident: BTreeSet<FileId> = engine.store().iter().map(|(id, _)| id).collect();
            assert_eq!(subscribed, resident, "after move {i}: {op:?}");
        }
        assert!(engine.store().resident_bytes() <= 300);
    }
}

proptest! {
    #[test]
    fn every_request_concludes_once_and_subscriptions_track_residency(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        invalidation in any::<bool>(),
    ) {
        drive(&ops, invalidation);
    }
}

/// An invalidation-protocol engine over `store`: a valid copy is always
/// served, an invalidated one refetched whole.
fn invalidation_engine<S: Store>(store: S) -> Engine<S> {
    Engine::new(
        store,
        Box::new(NeverExpire),
        RetrievalMode::Eager,
        0,
        LinkModel::default(),
        None,
    )
}

/// Request `file`, absent from the store, at `at` and apply its body of
/// `size` bytes; returns the victims the insert displaced.
fn fetch<S: Store>(engine: &mut Engine<S>, file: FileId, size: u64, at: u64) -> Vec<FileId> {
    let mut log = Log::default();
    assert_eq!(engine.request(file, 0, t(at), &mut log), Effect::Fetch);
    let applied = engine.apply(file, 0, t(at), body(size, 0, false), &mut log);
    applied.victims.iter().map(|&(v, _)| v).collect()
}

/// An invalidated copy is worth nothing: over a bounded LRU store the
/// notice moves it to the front, so the copy marked after a newer use
/// still goes before the older, valid one. A notice is not a use.
#[test]
fn an_invalidated_copy_is_the_next_lru_victim() {
    let mut engine = invalidation_engine(LruStore::new(1_000));
    let (a, b, c) = (FileId(0), FileId(1), FileId(2));
    let mut log = Log::default();
    engine.preload(a, 0, EntryMeta::fresh(400, t(0), t(1)), &mut log);
    engine.preload(b, 0, EntryMeta::fresh(400, t(0), t(2)), &mut log);
    engine.invalidate(b, t(3), MSG, &mut log);
    assert!(!engine.peek(b).unwrap().is_valid());

    assert_eq!(fetch(&mut engine, c, 400, 4), [b], "the invalidated copy");
    assert!(engine.peek(a).is_some_and(EntryMeta::is_valid));
}

/// GreedyDual prices an invalidated copy at the inflation `L` alone: a
/// small copy, whose credit outranked a large valid one's, goes first,
/// and evicting it leaves `L` where it was.
#[test]
fn an_invalidated_copy_is_the_next_gds_victim_and_does_not_age_the_pool() {
    let mut engine = invalidation_engine(GdsStore::new(1_000));
    let [big, large, small, mid, newcomer] = [0, 1, 2, 3, 4].map(FileId);
    let mut log = Log::default();
    // Displacing `big` raises L to its credit, 1/900.
    engine.preload(big, 0, EntryMeta::fresh(900, t(0), t(0)), &mut log);
    engine.preload(large, 0, EntryMeta::fresh(400, t(0), t(1)), &mut log);
    engine.preload(small, 0, EntryMeta::fresh(100, t(0), t(2)), &mut log);
    engine.preload(mid, 0, EntryMeta::fresh(500, t(0), t(3)), &mut log);
    let inflation = engine.store().policy().inflation();
    assert!(inflation > 0.0);
    engine.invalidate(small, t(4), MSG, &mut log);

    assert_eq!(fetch(&mut engine, newcomer, 100, 5), [small]);
    assert_eq!(engine.store().policy().inflation(), inflation);
    assert!(engine.peek(large).is_some_and(EntryMeta::is_valid));
}

/// Over a bounded LFU store an invalidated copy is queued below every
/// request count: one requested three times goes before a valid one
/// requested once, and keeps its frequency.
#[test]
fn an_invalidated_copy_is_the_next_lfu_victim_and_keeps_its_frequency() {
    let mut engine = invalidation_engine(LfuStore::new(1_000));
    let (hot, cold, newcomer) = (FileId(0), FileId(1), FileId(2));
    let mut log = Log::default();
    engine.preload(hot, 0, EntryMeta::fresh(400, t(0), t(0)), &mut log);
    for at in 1..3 {
        let served = engine.request(hot, 0, t(at), &mut log);
        assert!(matches!(served, Effect::Serve(_)));
    }
    engine.preload(cold, 0, EntryMeta::fresh(400, t(0), t(3)), &mut log);
    let frequency = |engine: &Engine<LfuStore>| engine.store().policy().frequency(hot);
    assert_eq!(frequency(&engine), 3);
    engine.invalidate(hot, t(4), MSG, &mut log);

    assert_eq!(fetch(&mut engine, newcomer, 400, 5), [hot]);
    assert_eq!(frequency(&engine), 3);
    assert!(engine.peek(cold).is_some_and(EntryMeta::is_valid));
}

/// FIFO moves nothing on a notice: victims leave in arrival order, the
/// invalidated copy included.
#[test]
fn fifo_victims_stay_in_arrival_order() {
    let mut engine = invalidation_engine(FifoStore::new(1_000));
    let (a, b, c, d) = (FileId(0), FileId(1), FileId(2), FileId(3));
    let mut log = Log::default();
    engine.preload(a, 0, EntryMeta::fresh(400, t(0), t(1)), &mut log);
    engine.preload(b, 0, EntryMeta::fresh(400, t(0), t(2)), &mut log);
    engine.invalidate(b, t(3), MSG, &mut log);

    assert_eq!(fetch(&mut engine, c, 400, 4), [a]);
    assert_eq!(fetch(&mut engine, d, 400, 5), [b]);
    assert!(engine.peek(c).is_some_and(EntryMeta::is_valid));
}

/// A request is one use of the store, whatever its answer: over a
/// bounded LFU store a `304` adds exactly one to the file's frequency,
/// and so does a `200` to a `Validate` (the reinsert is not a use).
#[test]
fn a_validated_request_is_one_lfu_use() {
    let mut engine = Engine::new(
        LfuStore::new(1_000),
        Box::new(FixedTtl::hours(0)),
        RetrievalMode::Conditional,
        0,
        LinkModel::default(),
        None,
    );
    let f = FileId(0);
    let frequency = |engine: &Engine<LfuStore>| engine.store().policy().frequency(f);
    let mut log = Log::default();
    engine.preload(f, 0, EntryMeta::fresh(200, t(0), t(0)), &mut log);
    assert_eq!(frequency(&engine), 1, "the insert");

    assert!(matches!(
        engine.request(f, 0, t(10), &mut log),
        Effect::Validate(_)
    ));
    engine.apply(f, 0, t(10), not_modified(None), &mut log);
    assert_eq!(frequency(&engine), 2, "a 304 is one use");

    assert!(matches!(
        engine.request(f, 0, t(20), &mut log),
        Effect::Validate(_)
    ));
    let applied = engine.apply(f, 0, t(20), body(300, 15, true), &mut log);
    assert!(applied.victims.is_empty());
    assert_eq!(frequency(&engine), 3, "a 200 to a Validate is one use");
    assert_eq!(engine.peek(f).unwrap().size, 300);
}
