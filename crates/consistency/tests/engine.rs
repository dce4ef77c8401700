//! The consistency engine, driven directly: no sockets, no event queue.
//!
//! A scripted table walks every branch of `request → Effect` and
//! `Reply → Applied`; a property test interleaves requests, replies and
//! invalidations at random on a bounded store.

use std::collections::BTreeSet;

use consistency::{Effect, Engine, FixedTtl, LinkModel, NeverExpire, Policy, Reply, RetrievalMode};
use originserver::{FilePopulation, FileRecord};
use proptest::prelude::*;
use proxycache::{EntryMeta, LruStore, Store};
use simcore::{CacheStats, FileId, SimDuration, SimTime};
use wcc_obs::{ObsEvent, Probe, RequestOutcome};

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

const MSG: u64 = 43;
const RTT: SimDuration = SimDuration::from_secs(1);

/// Renders each engine event as a short label, in arrival order.
#[derive(Default)]
struct Log(Vec<String>);

impl Probe for Log {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
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
    /// `None`: the requests run without a population oracle.
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
        delay: RTT,
    }
}

fn not_modified(expires: Option<u64>) -> Reply {
    Reply::NotModified {
        expires: expires.map(t),
        message_bytes: MSG,
        delay: RTT,
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
            events: &["10 request f1 uncacheable", "11 request f1 uncacheable"],
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
                "60 decision f0 fresh=false",
                "60 validation f0 modified=true",
                "60 request f0 miss",
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
                "10 decision f1 fresh=false",
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
                "11 eviction f1",
                "10 validation f1 modified=false",
                "10 request f1 miss",
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
            events: &["10 request f0 miss", "11 request f0 miss"],
        },
    ]
}

#[test]
fn every_branch_of_request_and_apply() {
    let pop = population();
    for case in cases() {
        let name = case.name;
        let mut engine = Engine::new(
            LruStore::new(1_000),
            (case.policy)(),
            case.retrieval,
            1 << 3,
            LinkModel::default(),
        );
        let oracle = case.oracle.then_some(&pop);
        let mut log = Log::default();
        for step in case.steps {
            match step {
                Step::Preload(file, size, at) => {
                    let meta = EntryMeta::fresh(size, t(0), t(at));
                    engine.preload(FileId(file), 0, meta, &mut log);
                }
                Step::Invalidate(file, now) => engine.invalidate(FileId(file), t(now), MSG),
                Step::Request(file, class, now, want) => {
                    let got = match engine.request(FileId(file), class, t(now), oracle, &mut log) {
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
        assert_eq!(
            *engine.stats(),
            CacheStats {
                fresh_hits,
                stale_hits,
                misses,
                validations_not_modified,
                validations_modified,
            },
            "{name}"
        );
        assert_eq!(engine.stale_age_total().as_secs(), case.stale_age, "{name}");
        assert_eq!(engine.evictions(), case.evictions, "{name}");
        let traffic = engine.traffic();
        assert_eq!(
            (traffic.messages, traffic.file_transfers),
            case.traffic,
            "{name}"
        );
        assert_eq!(traffic.message_bytes, MSG * traffic.messages, "{name}");
        let resident: Vec<u32> = engine.store().iter().map(|(id, _)| id.0).collect();
        assert_eq!(resident, case.resident, "{name}");
        assert_eq!(log.0, case.events, "{name}");
    }
}

#[test]
fn a_304_restamps_validation_time_and_expiry() {
    let mut engine = Engine::new(
        LruStore::new(1_000),
        Box::new(FixedTtl::hours(0)),
        RetrievalMode::Conditional,
        0,
        LinkModel::default(),
    );
    let f = FileId(1);
    engine.preload(f, 0, EntryMeta::fresh(600, t(0), t(0)), &mut Log::default());
    let Effect::Validate(held) = engine.request(f, 0, t(10), None, &mut Log::default()) else {
        panic!("TTL 0 always validates");
    };
    assert_eq!(held.last_validated, t(0));
    engine.apply(f, 0, t(10), not_modified(Some(99)), &mut Log::default());
    let entry = engine.peek(f).unwrap();
    assert_eq!(entry.last_validated, t(10));
    assert_eq!(entry.fetched_at, t(0), "no body moved");
    assert_eq!(entry.expires, Some(t(99)));
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
    let pop = churning_population();
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
            Op::Request(f) => match engine.request(FileId(f), 0, now, Some(&pop), &mut log) {
                Effect::Serve(_) => concluded += 1,
                Effect::Validate(held) => pending.push((FileId(f), now, Some(held))),
                Effect::Fetch => pending.push((FileId(f), now, None)),
                Effect::Forward => unreachable!("no uncacheable classes here"),
            },
            Op::Invalidate(f) => {
                if invalidation {
                    engine.invalidate(FileId(f), now, MSG);
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
            engine.stats().requests(),
            concluded,
            "after move {i}: {op:?}"
        );
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
