//! The hierarchical-caching simulator behind Figure 1.
//!
//! Worrell simulated the Harvest hierarchy; the paper collapses it to one
//! cache and argues (Figure 1, four scenarios) that wherever the collapse
//! changes the *relative* traffic of invalidation versus time-based
//! protocols, it biases the comparison **in favour of invalidation** — so
//! single-cache results that favour time-based protocols are conservative.
//! This module builds the two-level topology, replays the four scenarios
//! against both topologies, and verifies the claimed bias direction.
//!
//! Protocol mechanics across the tree:
//!
//! * time-based: a cache whose entry expired revalidates against its
//!   *parent* (conditional GET per hop); the parent may in turn revalidate
//!   upward. Only the path actually requested carries traffic.
//! * invalidation: the server notifies its direct subscriber (the root),
//!   which forwards to every subscribed child — every change floods the
//!   whole tree.
//!
//! Every cache in the tree is one [`consistency::Engine`]; this module is
//! topology only — a cache's upstream is its parent's engine, the root's
//! is the origin — with every hop charged the paper's 43-byte message.

use std::sync::Arc;

use consistency::{Effect, Engine, LinkModel, Reply, RetrievalMode};
use httpsim::PAPER_MESSAGE_BYTES;
use originserver::{FilePopulation, Version};
use proxycache::{EntryMeta, HierarchyTopology, UnboundedStore};
use simcore::{CacheId, FileId, SimTime, TrafficMeter};
use wcc_obs::NoopProbe;

use crate::workload::{Workload, WorkloadEvent};
use crate::ProtocolSpec;

/// A hierarchy of caches replaying scripted events.
pub struct HierarchySim {
    topo: HierarchyTopology,
    caches: Vec<Engine<UnboundedStore>>,
    population: Arc<FilePopulation>,
}

impl HierarchySim {
    /// Build a simulator over `topo` serving `population` with `spec`.
    pub fn new(
        topo: HierarchyTopology,
        population: impl Into<Arc<FilePopulation>>,
        spec: ProtocolSpec,
    ) -> Self {
        let caches = (0..topo.len())
            .map(|_| {
                Engine::new(
                    UnboundedStore::new(),
                    spec.build_policy(),
                    RetrievalMode::Conditional,
                    0,
                    LinkModel::default(),
                )
            })
            .collect();
        HierarchySim {
            topo,
            caches,
            population: population.into(),
        }
    }

    /// Total bytes moved on every link (cache↔cache and root↔server).
    pub fn traffic(&self) -> TrafficMeter {
        let mut total = TrafficMeter::default();
        for cache in &self.caches {
            total.merge(&cache.tally().traffic);
        }
        total
    }

    /// Requests answered with data older than the origin's copy. On the
    /// path a request climbs, exactly one cache serves from its store
    /// (or the origin answers); that cache's stale hit is the client's.
    pub fn stale_serves(&self) -> u64 {
        self.caches.iter().map(|c| c.tally().cache.stale_hits).sum()
    }

    /// Pre-load every cache with the version of `file` live at `now`
    /// (uncharged).
    pub fn preload(&mut self, file: FileId, now: SimTime) {
        let v = self
            .population
            .get(file)
            .version_at(now)
            .expect("preload before creation");
        let meta = EntryMeta::fresh(v.size, v.modified_at, now);
        for cache in &mut self.caches {
            cache.preload(file, 0, meta, &mut NoopProbe);
        }
    }

    /// A modification of `file` reached the origin at `now`. Under the
    /// invalidation protocol the notice floods the tree — server → root,
    /// then each cache → its children, one message per link; a policy
    /// that reads no writes sees nothing.
    pub fn modify(&mut self, file: FileId, now: SimTime) {
        for cache in self.caches.iter_mut().filter(|c| c.reads_writes()) {
            cache.invalidate(file, now, PAPER_MESSAGE_BYTES, &mut NoopProbe);
        }
    }

    /// Serve a client request for `file` arriving at `cache` (a leaf for
    /// the hierarchical topology, the root for the collapsed one),
    /// recursing upward; returns the version served.
    pub fn request(&mut self, cache: CacheId, file: FileId, now: SimTime) -> Version {
        let oracle = Some(&*self.population);
        let effect = self.caches[cache.index()].request(file, 0, now, oracle, &mut NoopProbe);
        let held = match effect {
            Effect::Serve(e) => {
                return Version {
                    modified_at: e.last_modified,
                    size: e.size,
                }
            }
            Effect::Validate(e) => Some(e.last_modified),
            Effect::Fetch | Effect::Forward => None,
        };
        // What the upstream serves: the parent cache (recursively
        // obtained) or, for the root, the origin itself.
        let up = match self.topo.parent(cache) {
            Some(parent) => self.request(parent, file, now),
            None => self
                .population
                .get(file)
                .version_at(now)
                .expect("origin fetch before creation"),
        };
        let reply = if held == Some(up.modified_at) {
            // 304 on this hop.
            Reply::NotModified {
                expires: None,
                message_bytes: PAPER_MESSAGE_BYTES,
            }
        } else {
            // Body moves down this hop.
            Reply::Body {
                size: up.size,
                last_modified: up.modified_at,
                expires: None,
                conditional: held.is_some(),
                message_bytes: PAPER_MESSAGE_BYTES,
            }
        };
        self.caches[cache.index()].apply(file, 0, now, reply, &mut NoopProbe);
        up
    }
}

/// How client requests are spread across the hierarchy's leaf caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeafAssignment {
    /// Deterministic hash spread — every leaf sees a similar demand mix.
    Symmetric,
    /// The given fraction of requests enters the first leaf; the rest
    /// spread over the remaining leaves. Models the paper's Figure 1
    /// situations where "some of the caches do not later access the
    /// data" — the regime in which collapsing biases against time-based
    /// protocols.
    Skewed(f64),
}

impl LeafAssignment {
    /// The leaf a request for `file` at `at` enters: a hash of the
    /// request itself, not of its place in the stream, so the order of
    /// requests sharing an instant cannot move one.
    fn leaf_for(&self, at: SimTime, file: FileId, n_leaves: usize) -> usize {
        if n_leaves == 1 {
            return 0;
        }
        // The SplitMix64 finaliser over the instant and the file.
        let mut h = at.as_secs().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ file.index() as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let h = (h ^ (h >> 31)) as usize;
        match *self {
            LeafAssignment::Symmetric => h % n_leaves,
            LeafAssignment::Skewed(frac) => {
                // Map the hash to [0,1) deterministically.
                let u = (h % 10_000) as f64 / 10_000.0;
                if u < frac {
                    0
                } else {
                    1 + h / 10_000 % (n_leaves - 1)
                }
            }
        }
    }
}

/// Replay a whole workload through the hierarchy: requests enter at leaf
/// caches per `assignment`, modifications flood invalidations from the
/// origin. Returns the total consistency traffic and stale-serve count.
///
/// This extends the paper's Figure 1 case analysis to full traces: the
/// measured hierarchical-vs-collapsed ratios confirm the bias direction
/// at scale ("we expect that time-based protocols in a cache hierarchy
/// will perform even better than our results indicate", §3) — under the
/// demand asymmetry Figure 1's cases (c)/(d) presuppose; with perfectly
/// symmetric demand the ratios tie (this module's HCS / 8 tests).
///
/// # Panics
/// Panics if `workload.requests` goes backwards in time, as
/// `Workload::schedule` does.
pub fn replay_workload(
    topo: HierarchyTopology,
    workload: &Workload,
    spec: ProtocolSpec,
    assignment: LeafAssignment,
) -> (TrafficMeter, u64, u64) {
    let leaves = topo.leaves();
    let mut sim = HierarchySim::new(topo, workload.population.clone(), spec);
    for (id, rec) in workload.population.iter() {
        if rec.version_at(workload.start).is_some() {
            sim.preload(id, workload.start);
        }
    }
    let writes = sim.caches.iter().any(|c| c.reads_writes());
    for (at, event) in workload.schedule(writes, &[]) {
        match event {
            WorkloadEvent::Modify(file) => sim.modify(file, at),
            WorkloadEvent::Request(file) => {
                let leaf = leaves[assignment.leaf_for(at, file, leaves.len())];
                sim.request(leaf, file, at);
            }
            WorkloadEvent::Fault(_) => unreachable!("a hierarchy replay reads no faults"),
        }
    }
    let requests = workload.request_count() as u64;
    (sim.traffic(), sim.stale_serves(), requests)
}

/// One Figure 1 scenario, measured on both topologies and both protocol
/// families.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure1Row {
    /// Scenario label, matching the paper's sub-figures (a)–(d).
    pub scenario: &'static str,
    /// Invalidation-protocol bytes, two-level hierarchy.
    pub hier_invalidation: u64,
    /// Time-based (TTL) bytes, two-level hierarchy.
    pub hier_time_based: u64,
    /// Invalidation-protocol bytes, collapsed single cache.
    pub collapsed_invalidation: u64,
    /// Time-based (TTL) bytes, collapsed single cache.
    pub collapsed_time_based: u64,
}

impl Figure1Row {
    /// Time-based : invalidation byte ratio on the hierarchy
    /// (`None` when invalidation moved zero bytes).
    pub fn hier_ratio(&self) -> Option<f64> {
        (self.hier_invalidation > 0)
            .then(|| self.hier_time_based as f64 / self.hier_invalidation as f64)
    }

    /// Time-based : invalidation byte ratio on the collapsed topology.
    pub fn collapsed_ratio(&self) -> Option<f64> {
        (self.collapsed_invalidation > 0)
            .then(|| self.collapsed_time_based as f64 / self.collapsed_invalidation as f64)
    }
}

/// The four Figure 1 scenarios. `ttl_hours` controls whether the access in
/// scenarios (b)/(c) happens before or after the time-based timeout; the
/// paper's qualitative claims hold for any positive TTL, and the default
/// experiment uses 10 hours with accesses at +1 h (before timeout) and
/// +100 h (after).
pub fn figure1_scenarios() -> Vec<Figure1Row> {
    let ttl_hours = 10u64;
    let t0 = SimTime::from_secs(0);
    let t_change = SimTime::from_secs(3_600); // +1h
    let t_early = SimTime::from_secs(2 * 3_600); // +2h: before timeout
    let t_late = SimTime::from_secs(100 * 3_600); // +100h: after timeout

    let run_scenario =
        |label: &'static str, change: bool, access_at: Option<SimTime>| -> Figure1Row {
            let measure = |collapsed: bool, spec: ProtocolSpec| -> u64 {
                let mut pop = FilePopulation::new();
                let mut rec = originserver::FileRecord::new("/obj.html", t0, 10_000);
                if change {
                    rec.push_modification(t_change, 10_000);
                }
                let f = pop.add(rec);
                let (topo, leaf_a, _leaf_b) = if collapsed {
                    let t = HierarchyTopology::new();
                    let root = t.root();
                    (t, root, root)
                } else {
                    HierarchyTopology::figure1()
                };
                let mut sim = HierarchySim::new(topo, pop, spec);
                sim.preload(f, t0);
                if change {
                    sim.modify(f, t_change);
                }
                if let Some(at) = access_at {
                    sim.request(leaf_a, f, at);
                }
                sim.traffic().total_bytes()
            };
            Figure1Row {
                scenario: label,
                hier_invalidation: measure(false, ProtocolSpec::Invalidation),
                hier_time_based: measure(false, ProtocolSpec::Ttl(ttl_hours)),
                collapsed_invalidation: measure(true, ProtocolSpec::Invalidation),
                collapsed_time_based: measure(true, ProtocolSpec::Ttl(ttl_hours)),
            }
        };

    vec![
        run_scenario("(a) changed, never accessed again", true, None),
        run_scenario("(b) changed, accessed before timeout", true, Some(t_early)),
        run_scenario("(c) changed, accessed after timeout", true, Some(t_late)),
        run_scenario("(d) unchanged, accessed after timeout", false, Some(t_late)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use webtrace::campus::{generate_campus_trace, CampusProfile};

    fn rows() -> Vec<Figure1Row> {
        figure1_scenarios()
    }

    #[test]
    fn scenario_a_time_based_is_free() {
        let r = &rows()[0];
        assert_eq!(r.hier_time_based, 0);
        assert_eq!(r.collapsed_time_based, 0);
        // Invalidation floods 3 links hierarchically, 1 collapsed.
        assert_eq!(r.hier_invalidation, 3 * 43);
        assert_eq!(r.collapsed_invalidation, 43);
    }

    #[test]
    fn scenario_b_time_based_serves_stale_locally() {
        let r = &rows()[1];
        assert_eq!(r.hier_time_based, 0, "not timed out: served locally");
        assert_eq!(r.collapsed_time_based, 0);
        assert!(r.hier_invalidation > 0);
    }

    #[test]
    fn scenario_c_both_protocols_move_the_file() {
        let r = &rows()[2];
        assert!(r.hier_time_based > 0);
        assert!(r.collapsed_time_based > 0);
        // Hierarchical invalidation floods all links *and* moves the file
        // down the access path; time-based only touches the access path.
        assert!(r.hier_time_based < r.hier_invalidation);
    }

    #[test]
    fn scenario_d_only_time_based_pays() {
        let r = &rows()[3];
        assert_eq!(r.hier_invalidation, 0);
        assert_eq!(r.collapsed_invalidation, 0);
        assert!(r.hier_time_based > 0);
        assert!(r.collapsed_time_based > 0);
        // Validation messages only — no body moves.
        assert!(r.hier_time_based < 3 * 50);
    }

    #[test]
    fn collapse_never_favours_time_based() {
        // The paper's Figure 1 claim: wherever the ratio changes, the
        // collapsed topology makes time-based protocols look *worse*
        // relative to invalidation.
        for r in rows() {
            if let (Some(h), Some(c)) = (r.hier_ratio(), r.collapsed_ratio()) {
                assert!(
                    c >= h - 1e-9,
                    "{}: collapsed ratio {c} < hierarchical {h}",
                    r.scenario
                );
            }
        }
    }

    #[test]
    fn stale_serve_detected_in_scenario_b() {
        // Rebuild scenario (b) manually to observe staleness.
        let t0 = SimTime::from_secs(0);
        let t1 = SimTime::from_secs(3_600);
        let t2 = SimTime::from_secs(2 * 3_600);
        let mut pop = FilePopulation::new();
        let mut rec = originserver::FileRecord::new("/x", t0, 1_000);
        rec.push_modification(t1, 1_000);
        let f = pop.add(rec);
        let (topo, a, _) = HierarchyTopology::figure1();
        let mut sim = HierarchySim::new(topo, pop, ProtocolSpec::Ttl(10));
        sim.preload(f, t0);
        sim.request(a, f, t2);
        assert_eq!(sim.stale_serves(), 1);
        assert_eq!(sim.traffic().total_bytes(), 0);
    }

    #[test]
    fn invalidation_refetch_cascades_through_invalid_parent() {
        let t0 = SimTime::from_secs(0);
        let t1 = SimTime::from_secs(3_600);
        let t2 = SimTime::from_secs(7_200);
        let mut pop = FilePopulation::new();
        let mut rec = originserver::FileRecord::new("/x", t0, 5_000);
        rec.push_modification(t1, 6_000);
        let f = pop.add(rec);
        let (topo, a, _) = HierarchyTopology::figure1();
        let mut sim = HierarchySim::new(topo, pop, ProtocolSpec::Invalidation);
        sim.preload(f, t0);
        sim.modify(f, t1);
        sim.request(a, f, t2);
        // Both the root and the leaf were invalid: the body moves twice
        // (server->root, root->leaf).
        assert_eq!(sim.traffic().file_transfers, 2);
        assert_eq!(sim.traffic().file_bytes, 12_000);
        assert_eq!(sim.stale_serves(), 0);
    }

    #[test]
    fn validation_resolves_within_hierarchy_when_parent_is_fresh() {
        // Leaf marked invalid but the parent's (identical) copy is fresh:
        // the conditional GET stops at the parent with a 304 — one
        // message, no body, no origin contact.
        let t0 = SimTime::from_secs(0);
        let t2 = SimTime::from_secs(100 * 3_600);
        let mut pop = FilePopulation::new();
        let f = pop.add(originserver::FileRecord::new("/x", t0, 5_000));
        let mut topo = HierarchyTopology::new();
        let leaf = topo.add_child(topo.root());
        let mut sim = HierarchySim::new(topo, pop, ProtocolSpec::Ttl(1_000));
        sim.preload(f, t0);
        sim.caches[leaf.index()].invalidate(f, t0, 0, &mut NoopProbe);
        let before = sim.traffic().messages;
        sim.request(leaf, f, t2);
        assert_eq!(sim.traffic().file_transfers, 0);
        assert_eq!(sim.traffic().messages, before + 1);
        assert_eq!(sim.stale_serves(), 0);
        // The leaf's entry is valid again.
        assert!(sim.caches[leaf.index()].peek(f).unwrap().is_valid());
    }

    #[test]
    fn the_leaf_hash_spreads_requests_as_assigned() {
        let wl = crate::generate_synthetic(&crate::WorrellConfig::scaled(60, 2_000), 5);
        let n = HierarchyTopology::figure1().0.leaves().len();
        let shares = |assignment: LeafAssignment| {
            let mut counts = vec![0u32; n];
            for &(at, file) in &wl.requests {
                counts[assignment.leaf_for(at, file, n)] += 1;
            }
            let total = wl.requests.len() as f64;
            counts
                .into_iter()
                .map(move |c| 100.0 * f64::from(c) / total)
        };
        for share in shares(LeafAssignment::Symmetric) {
            assert!(
                (share - 100.0 / n as f64).abs() <= 2.0,
                "symmetric {share:.2} %"
            );
        }
        let skewed = shares(LeafAssignment::Skewed(0.9))
            .next()
            .expect("a first leaf");
        assert!(
            (skewed - 90.0).abs() <= 2.0,
            "skewed leaf 0 takes {skewed:.2} %"
        );
        // The leaf is the request's alone: walked backwards, the stream
        // lands every request where it landed forwards.
        for assignment in [LeafAssignment::Symmetric, LeafAssignment::Skewed(0.9)] {
            let leaf = |&(at, file): &(SimTime, FileId)| assignment.leaf_for(at, file, n);
            let forwards: Vec<usize> = wl.requests.iter().map(leaf).collect();
            let mut backwards: Vec<usize> = wl.requests.iter().rev().map(leaf).collect();
            backwards.reverse();
            assert_eq!(forwards, backwards);
        }
    }

    #[test]
    #[should_panic(expected = "request 1 goes backwards in time")]
    fn a_request_stream_that_goes_backwards_in_time_is_rejected() {
        let t = SimTime::from_secs;
        let mut pop = FilePopulation::new();
        let f = pop.add(originserver::FileRecord::new("/x", t(0), 1_000));
        let workload = Workload {
            name: "backwards".to_string(),
            start: t(100),
            end: t(110),
            population: Arc::new(pop),
            requests: vec![(t(105), f), (t(104), f)],
            classes: vec![0],
            class_expires: Vec::new(),
        };
        let (topo, ..) = HierarchyTopology::figure1();
        replay_workload(
            topo,
            &workload,
            ProtocolSpec::Invalidation,
            LeafAssignment::Symmetric,
        );
    }

    /// HCS subsampled 1 in 8, seed 1996: the trace-scale tests' workload.
    fn hcs_workload() -> Workload {
        let campus = generate_campus_trace(&CampusProfile::hcs(), 1996);
        Workload::from_server_trace(campus.trace).subsample(8)
    }

    /// `spec` on the two-level Figure 1 tree, then on one collapsed
    /// cache: each replay's traffic and stale serves.
    fn both_topologies(
        wl: &Workload,
        spec: ProtocolSpec,
        assignment: LeafAssignment,
    ) -> [(TrafficMeter, u64); 2] {
        let (two_level, ..) = HierarchyTopology::figure1();
        [two_level, HierarchyTopology::new()].map(|topo| {
            let (traffic, stale, _) = replay_workload(topo, wl, spec, assignment);
            (traffic, stale)
        })
    }

    /// The time:invalidation byte ratio collapsed over the same ratio
    /// hierarchical; ≥ 1 means collapsing made `time_based` look worse.
    fn collapse_bias_factor(wl: &Workload, time_based: ProtocolSpec, at: LeafAssignment) -> f64 {
        let [(th, _), (tc, _)] = both_topologies(wl, time_based, at);
        let [(ih, _), (ic, _)] = both_topologies(wl, ProtocolSpec::Invalidation, at);
        let ratio = |t: TrafficMeter, i: TrafficMeter| {
            t.total_bytes() as f64 / i.total_bytes().max(1) as f64
        };
        ratio(tc, ic) / ratio(th, ih)
    }

    #[test]
    fn bias_holds_strictly_under_skewed_demand() {
        // The Figure 1 regime: one subtree rarely re-requests.
        let wl = hcs_workload();
        for spec in [ProtocolSpec::Alex(20), ProtocolSpec::Ttl(100)] {
            let factor = collapse_bias_factor(&wl, spec, LeafAssignment::Skewed(0.9));
            assert!(
                factor >= 1.0,
                "{}: collapse bias factor {factor:.4} < 1",
                spec.label()
            );
        }
    }

    #[test]
    fn symmetric_demand_ties_within_a_few_percent() {
        // Figure 1(c): "If the item is requested from all caches, then
        // the bandwidths ... are equal to each other." Symmetric demand
        // approximates that case; the ratios must agree closely.
        let wl = hcs_workload();
        let factor = collapse_bias_factor(&wl, ProtocolSpec::Ttl(100), LeafAssignment::Symmetric);
        assert!(
            (0.93..=1.08).contains(&factor),
            "symmetric-demand factor {factor:.4} should be ~1"
        );
    }

    #[test]
    fn hierarchy_floods_more_invalidations_than_collapsed() {
        let wl = hcs_workload();
        let [(hier, _), (collapsed, _)] =
            both_topologies(&wl, ProtocolSpec::Invalidation, LeafAssignment::Symmetric);
        // Three caches notified per change instead of one; other message
        // kinds (fetch overheads) only add on top.
        assert!(
            hier.messages > 2 * collapsed.messages,
            "hier msgs {} vs collapsed {}",
            hier.messages,
            collapsed.messages
        );
    }

    #[test]
    fn staleness_is_zero_for_invalidation_in_both_topologies() {
        let wl = hcs_workload();
        let [(_, hier_stale), (_, collapsed_stale)] =
            both_topologies(&wl, ProtocolSpec::Invalidation, LeafAssignment::Symmetric);
        assert_eq!(hier_stale, 0);
        assert_eq!(collapsed_stale, 0);
    }

    #[test]
    fn collapsed_replay_agrees_with_main_simulator_on_staleness() {
        // Two independent implementations (the DES-driven single-cache
        // simulator and the hierarchy replay with one node) must agree on
        // the workload's stale-serve count for the same policy.
        use crate::sim::{run, SimConfig};
        let wl = hcs_workload();
        let spec = ProtocolSpec::Ttl(100);
        let single = run(&wl, spec, &SimConfig::optimized());
        let (_, collapsed_stale, _) = replay_workload(
            HierarchyTopology::new(),
            &wl,
            spec,
            LeafAssignment::Symmetric,
        );
        assert_eq!(single.cache.stale_hits, collapsed_stale);
    }
}
