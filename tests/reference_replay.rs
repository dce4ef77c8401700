//! A reference replay written from PAPER.md §1 alone, one file at a time.
//!
//! With an unbounded store files do not interact, so each of the paper's
//! mechanisms is a short recurrence over one file's request instants and
//! write instants. This replay reads the workload as data — its request
//! stream and each file's version list — and uses none of the engine, its
//! policies, a store, an entry or the simulator's schedule. Its counts
//! and bytes must equal the engine's `Request` and `Exchange` events
//! bucketed by file, and its totals `RunResult`, exactly:
//!
//! - TTL: a copy is fresh while `now < validated + ttl`.
//! - Alex: fresh while `now − validated < threshold × (validated −
//!   last_modified)`, in exact integer arithmetic.
//! - Invalidation: fresh until a write reaches the copy; the notice is a
//!   43-byte message, and the next request refetches the known-stale copy.
//! - Base simulator: an expired copy is refetched on its next request.
//!   Optimized: that request sends If-Modified-Since, and only a changed
//!   file moves its body.
//!
//! Both simulators start from the paper's preloaded cache. A write and a
//! request at the same instant: the write comes first.

use std::collections::BTreeMap;

use wwwcache::simcore::{FileId, SimTime};
use wwwcache::wcc_obs::{ObsEvent, Probe, Tally};
use wwwcache::webcache::{
    generate_synthetic, Experiment, ProtocolSpec, SimConfig, Workload, WorrellConfig,
};
use wwwcache::webtrace::campus::{generate_campus_trace, CampusProfile};

/// The paper's mean control message (§3).
const MESSAGE: u64 = 43;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mechanism {
    Ttl(u64),
    Alex(u64),
    Invalidation,
}

/// The copy a cache holds: its `Last-Modified`, when it was last fetched
/// or validated, and whether a notice has since said it changed.
struct Held {
    last_modified: u64,
    validated: u64,
    noticed: bool,
}

/// One file, replayed alone: its counts in the engine's own containers.
fn replay_file(
    wl: &Workload,
    file: FileId,
    requests: &[u64],
    mech: Mechanism,
    eager: bool,
) -> Tally {
    let versions: Vec<_> = wl.population.get(file).versions().collect();
    // The version written last at or before `t`, as `(written, size)`.
    let live = |t: u64| {
        let v = versions.iter().rev().find(|v| v.modified_at.as_secs() <= t);
        v.map(|v| (v.modified_at.as_secs(), v.size))
    };
    let (start, end) = (wl.start.as_secs(), wl.end.as_secs());
    let writes: Vec<u64> = versions[1..]
        .iter()
        .map(|v| v.modified_at.as_secs())
        .filter(|&w| (start..=end).contains(&w))
        .collect();
    let mut held = live(start).map(|(written, _)| Held {
        last_modified: written,
        validated: start,
        noticed: false,
    });
    let mut tally = Tally::default();
    let (mut r, mut w) = (0, 0);
    while r < requests.len() {
        if w < writes.len() && writes[w] <= requests[r] {
            if let (Mechanism::Invalidation, Some(copy)) = (mech, held.as_mut()) {
                tally.traffic.add_message(MESSAGE);
                tally.notices += 1;
                copy.noticed = true;
            }
            w += 1;
            continue;
        }
        let now = requests[r];
        r += 1;
        let (written, size) = live(now).expect("no request precedes its file");
        let fetch = |tally: &mut Tally| {
            tally.cache.misses += 1;
            tally.traffic.add_message(MESSAGE);
            tally.traffic.add_file_transfer(size);
            Some(Held {
                last_modified: written,
                validated: now,
                noticed: false,
            })
        };
        let Some(copy) = held.as_mut() else {
            held = fetch(&mut tally);
            continue;
        };
        let fresh = match mech {
            Mechanism::Ttl(hours) => now < copy.validated + hours * 3_600,
            Mechanism::Alex(pct) => {
                100 * (now - copy.validated) < pct * (copy.validated - copy.last_modified)
            }
            Mechanism::Invalidation => !copy.noticed,
        };
        if fresh && written == copy.last_modified {
            tally.cache.fresh_hits += 1;
        } else if fresh {
            // How long ago the first write this copy missed was made.
            let missed = versions
                .iter()
                .map(|v| v.modified_at.as_secs())
                .find(|&m| m > copy.last_modified)
                .expect("a stale copy missed a write");
            tally.cache.stale_hits += 1;
            tally.stale_age_total = tally.stale_age_total.saturating_add(
                SimTime::from_secs(now).saturating_since(SimTime::from_secs(missed)),
            );
        } else if eager || mech == Mechanism::Invalidation {
            held = fetch(&mut tally);
        } else if written == copy.last_modified {
            tally.cache.fresh_hits += 1;
            tally.cache.validations_not_modified += 1;
            tally.traffic.add_message(MESSAGE);
            copy.validated = now;
        } else {
            tally.cache.validations_modified += 1;
            held = fetch(&mut tally);
        }
    }
    // Writes after the last request still reach a subscribed copy.
    if mech == Mechanism::Invalidation && held.is_some() {
        for _ in w..writes.len() {
            tally.traffic.add_message(MESSAGE);
            tally.notices += 1;
        }
    }
    tally
}

/// The engine's events, folded per file.
#[derive(Default)]
struct PerFile(BTreeMap<FileId, Tally>);

impl Probe for PerFile {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
        if let ObsEvent::Request { file, .. } | ObsEvent::Exchange { file, .. } = event {
            self.0.entry(file).or_default().record(at, event);
        }
    }
}

fn check(label: &str, wl: &Workload, specs: &[ProtocolSpec]) {
    let mut requests = vec![Vec::new(); wl.population.len()];
    for &(t, f) in &wl.requests {
        requests[f.index()].push(t.as_secs());
    }
    for &spec in specs {
        let mech = match spec {
            ProtocolSpec::Ttl(hours) => Mechanism::Ttl(hours),
            ProtocolSpec::Alex(pct) => Mechanism::Alex(u64::from(pct)),
            ProtocolSpec::Invalidation => Mechanism::Invalidation,
            other => unreachable!("{other:?} is not one of §1's mechanisms"),
        };
        for (simulator, config, eager) in [
            ("base", SimConfig::base(), true),
            ("optimized", SimConfig::optimized(), false),
        ] {
            let leg = format!("{label}, {}, {simulator}", spec.label());
            let mut engine = PerFile::default();
            let result = Experiment::new(wl)
                .protocol(spec)
                .config(config)
                .probe(&mut engine)
                .run()
                .result;
            let mut total = Tally::default();
            for (file, _) in wl.population.iter() {
                let reference = replay_file(wl, file, &requests[file.index()], mech, eager);
                let observed = engine.0.get(&file).copied().unwrap_or_default();
                assert_eq!(reference, observed, "{leg}: file {}", file.index());
                total.merge(&reference);
            }
            assert!(total.cache.requests() > 0, "{leg}");
            assert_eq!(total.cache, result.cache, "{leg}");
            assert_eq!(total.traffic, result.traffic, "{leg}");
            assert_eq!(total.stale_age_total, result.stale_age_total, "{leg}");
        }
    }
}

/// GOLDEN's synthetic workload and its TTL and Alex grid.
#[test]
fn the_worrell_workload_replays_file_by_file() {
    let wl = generate_synthetic(&WorrellConfig::scaled(60, 2_000), 1996);
    use ProtocolSpec::{Alex, Invalidation, Ttl};
    let specs = [
        Alex(0),
        Alex(25),
        Alex(50),
        Alex(100),
        Ttl(0),
        Ttl(100),
        Ttl(500),
        Invalidation,
    ];
    check("Worrell", &wl, &specs);
}

/// The trace-driven workload: bimodal lifetimes, skewed popularity.
#[test]
fn a_campus_trace_replays_file_by_file() {
    let campus = generate_campus_trace(&CampusProfile::hcs(), 1996);
    let wl = Workload::from_server_trace(campus.trace).subsample(8);
    use ProtocolSpec::{Alex, Invalidation, Ttl};
    check(
        "HCS / 8",
        &wl,
        &[Alex(10), Alex(64), Ttl(24), Ttl(168), Invalidation],
    );
}
