//! Trace-scale hierarchy experiment — Figure 1's bias claim tested on a
//! full workload, not just the four scripted cases.
//!
//! §3: "we expect that time-based protocols in a cache hierarchy will
//! perform even better than our results indicate". Figure 1's cases (c)
//! and (d) derive the bias from *demand asymmetry*: some child caches do
//! not re-request the object, so in the hierarchy the time-based
//! protocols only pay on the demanding paths while invalidation floods
//! everything. This experiment replays a campus trace through the
//! two-level Figure 1 topology under both demand regimes:
//!
//! * **skewed demand** (one leaf takes ~90 % of requests) — the paper's
//!   presupposed regime; the bias claim holds strictly;
//! * **symmetric demand** — both leaves want everything; Figure 1's own
//!   case analysis predicts a tie ("the bandwidths ... are equal to each
//!   other"), and the measured ratios agree to within a few percent.

use proxycache::HierarchyTopology;
use simcore::TrafficMeter;

use crate::hierarchy::{replay_workload, LeafAssignment};
use crate::sweep::SweepRunner;
use crate::workload::Workload;
use crate::ProtocolSpec;

/// One protocol's hierarchical-vs-collapsed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyTraceRow {
    /// Protocol label.
    pub protocol: String,
    /// Traffic through the two-level hierarchy.
    pub hierarchical: TrafficMeter,
    /// Traffic through the collapsed single cache.
    pub collapsed: TrafficMeter,
    /// Stale serves in the hierarchy.
    pub hier_stale: u64,
    /// Stale serves in the collapsed topology.
    pub collapsed_stale: u64,
}

/// Replay `workload` under `spec` on both topologies with the given
/// demand regime (the two topologies replay as a parallel pair).
pub fn measure(
    workload: &Workload,
    spec: ProtocolSpec,
    assignment: LeafAssignment,
    runner: &SweepRunner,
) -> HierarchyTraceRow {
    let (two_level, _, _) = HierarchyTopology::figure1();
    let ((hier_traffic, hier_stale, _), (collapsed_traffic, collapsed_stale, _)) = runner.join(
        || replay_workload(two_level, workload, spec, assignment),
        || replay_workload(HierarchyTopology::new(), workload, spec, assignment),
    );
    HierarchyTraceRow {
        protocol: spec.label(),
        hierarchical: hier_traffic,
        collapsed: collapsed_traffic,
        hier_stale,
        collapsed_stale,
    }
}

/// The full comparison: a time-based protocol against invalidation, both
/// topologies. Returns `(time_based, invalidation)`.
pub fn hierarchy_trace_comparison(
    workload: &Workload,
    time_based: ProtocolSpec,
    assignment: LeafAssignment,
    runner: &SweepRunner,
) -> (HierarchyTraceRow, HierarchyTraceRow) {
    runner.join(
        || measure(workload, time_based, assignment, runner),
        || measure(workload, ProtocolSpec::Invalidation, assignment, runner),
    )
}

/// The time:invalidation bandwidth ratio change from collapsing:
/// `collapsed_ratio / hierarchical_ratio`. Values ≥ 1 mean collapsing
/// made time-based protocols look *worse* relative to invalidation (the
/// paper's claimed direction).
pub fn collapse_bias_factor(
    time_based: &HierarchyTraceRow,
    invalidation: &HierarchyTraceRow,
) -> f64 {
    let hier_ratio = time_based.hierarchical.total_bytes() as f64
        / invalidation.hierarchical.total_bytes().max(1) as f64;
    let coll_ratio = time_based.collapsed.total_bytes() as f64
        / invalidation.collapsed.total_bytes().max(1) as f64;
    coll_ratio / hier_ratio
}

#[cfg(test)]
mod tests {
    use super::*;
    use webtrace::campus::{generate_campus_trace, CampusProfile};

    /// Both topologies of both protocols on `wl`, hardware-sized.
    fn compare(
        wl: &Workload,
        time_based: ProtocolSpec,
        assignment: LeafAssignment,
    ) -> (HierarchyTraceRow, HierarchyTraceRow) {
        hierarchy_trace_comparison(wl, time_based, assignment, &SweepRunner::new(0))
    }

    fn hcs_workload() -> Workload {
        let campus = generate_campus_trace(&CampusProfile::hcs(), 1996);
        Workload::from_server_trace(&campus.trace).subsample(8)
    }

    #[test]
    fn bias_holds_strictly_under_skewed_demand() {
        // The Figure 1 regime: one subtree rarely re-requests.
        let wl = hcs_workload();
        for spec in [ProtocolSpec::Alex(20), ProtocolSpec::Ttl(100)] {
            let (t, i) = compare(&wl, spec, LeafAssignment::Skewed(0.9));
            let factor = collapse_bias_factor(&t, &i);
            assert!(
                factor >= 1.0,
                "{}: collapse bias factor {factor:.4} < 1",
                t.protocol
            );
        }
    }

    #[test]
    fn symmetric_demand_ties_within_a_few_percent() {
        // Figure 1(c): "If the item is requested from all caches, then
        // the bandwidths ... are equal to each other." Symmetric demand
        // approximates that case; the ratios must agree closely.
        let wl = hcs_workload();
        let (t, i) = compare(&wl, ProtocolSpec::Ttl(100), LeafAssignment::Symmetric);
        let factor = collapse_bias_factor(&t, &i);
        assert!(
            (0.93..=1.08).contains(&factor),
            "symmetric-demand factor {factor:.4} should be ~1"
        );
    }

    #[test]
    fn hierarchy_floods_more_invalidations_than_collapsed() {
        let wl = hcs_workload();
        let (_, inval) = compare(&wl, ProtocolSpec::Alex(20), LeafAssignment::Symmetric);
        // Three caches notified per change instead of one; other message
        // kinds (fetch overheads) only add on top.
        assert!(
            inval.hierarchical.messages > 2 * inval.collapsed.messages,
            "hier msgs {} vs collapsed {}",
            inval.hierarchical.messages,
            inval.collapsed.messages
        );
    }

    #[test]
    fn staleness_is_zero_for_invalidation_in_both_topologies() {
        let wl = hcs_workload();
        let (_, inval) = compare(&wl, ProtocolSpec::Ttl(100), LeafAssignment::Symmetric);
        assert_eq!(inval.hier_stale, 0);
        assert_eq!(inval.collapsed_stale, 0);
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
