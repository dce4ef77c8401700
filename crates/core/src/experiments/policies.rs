//! Literature-policy sweeps: the decision-API extensions measured the
//! way the paper measures its own protocols.
//!
//! Two families ride the redesigned `Policy::decide` seam:
//!
//! * **RenewableTTL** (arXiv 2201.11577) — a fixed freshness horizon
//!   anchored *past* the retrieval delay, swept over the same hour axis
//!   as the paper's TTL protocol. As the horizon grows it converges on
//!   plain TTL; at small horizons the delay anchor keeps slow fetches
//!   from expiring before they are usable.
//! * **UpdateRisk** (arXiv 2412.20221) — serve only while the estimated
//!   probability that the origin copy already changed stays under a
//!   bound, swept over the same percent axis as the Alex threshold.
//!
//! Both are plotted against the invalidation reference line, with the
//! paper's three curves: bandwidth, miss/stale rates, and server load.
//! A fourth panel compares the eviction policies (LRU, FIFO,
//! GreedyDual-Size, score-gated LFU) under one bounded cache running the
//! flagship delay-aware policy.

use crate::experiment::{Experiment, Store};
use crate::experiments::{Scale, Sweep};
use crate::sim::{run, RunResult, SimConfig};
use crate::sweep::SweepRunner;
use crate::workload::{generate_synthetic, Workload};
use crate::ProtocolSpec;

/// Results of the literature-policy experiment: both new families, the
/// invalidation reference, and the bounded-store eviction comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// Workload name for report headers.
    pub name: String,
    /// RenewableTTL sweep over the freshness horizon in hours.
    pub renewable: Sweep,
    /// UpdateRisk sweep over the risk bound in percent.
    pub update_risk: Sweep,
    /// The invalidation-protocol reference run.
    pub invalidation: RunResult,
    /// `(store label, result, evictions)` for each eviction policy under
    /// one bounded cache and the flagship RenewableTTL(24) policy.
    pub eviction: Vec<(&'static str, RunResult, u64)>,
}

/// Run the literature-policy experiment at `scale`.
pub fn run_policies(scale: &Scale, runner: &SweepRunner) -> PolicyReport {
    let workload = generate_synthetic(&scale.worrell, scale.seed);
    let config = SimConfig::optimized();

    // RenewableTTL shares the paper's TTL hour axis; a zero horizon
    // still serves for one link delay, so the curve starts just left of
    // TTL's. UpdateRisk shares the Alex percent axis: both are "how much
    // staleness will you tolerate" knobs.
    let renewable_points = runner.map(&scale.ttl_hours, |&h| {
        (
            h as f64,
            run(&workload, ProtocolSpec::RenewableTtl(h), &config),
        )
    });
    // A risk bound of 1.0 is ill-defined (serve forever); cap the shared
    // axis at 99 % so the sweep keeps the Alex scale's point count.
    let risk_bounds: Vec<u32> = scale.alex_thresholds.iter().map(|&p| p.min(99)).collect();
    let risk_points = runner.map(&risk_bounds, |&pct| {
        (
            f64::from(pct),
            run(&workload, ProtocolSpec::UpdateRisk(pct), &config),
        )
    });
    let invalidation = run(&workload, ProtocolSpec::Invalidation, &config);
    let eviction = eviction_comparison(&workload);

    PolicyReport {
        name: workload.name.clone(),
        renewable: Sweep {
            family: "RenewableTTL",
            points: renewable_points,
        },
        update_risk: Sweep {
            family: "UpdateRisk",
            points: risk_points,
        },
        invalidation,
        eviction,
    }
}

/// One bounded run per eviction policy, identical in every other way:
/// same workload, same capacity, same RenewableTTL(24) consistency
/// policy. Capacity is an eighth of the population's peak footprint —
/// tight enough that the requested working set does not fit, so every
/// store is forced to evict and the victim-selection differences show.
fn eviction_comparison(workload: &Workload) -> Vec<(&'static str, RunResult, u64)> {
    let footprint: u64 = workload
        .population
        .iter()
        .map(|(_, rec)| rec.versions().map(|v| v.size).max().unwrap_or(0))
        .sum();
    let capacity = (footprint / 8).max(1);
    let stores: [(&'static str, Store); 4] = [
        ("LRU", Store::Lru(capacity)),
        ("FIFO", Store::Fifo(capacity)),
        ("GreedyDual-Size", Store::Gds(capacity)),
        ("LFU (score-gated)", Store::Lfu(capacity)),
    ];
    stores
        .into_iter()
        .map(|(label, store)| {
            let outcome = Experiment::new(workload)
                .protocol(ProtocolSpec::RenewableTtl(24))
                .store(store)
                .run();
            (label, outcome.result, outcome.evictions)
        })
        .collect()
}

fn sweep_curves(out: &mut String, sweep: &Sweep, invalidation: &RunResult) {
    out.push_str(&format!(
        "{:>8}  {:>10}  {:>8}  {:>8}  {:>12}  {:>10}\n",
        "param", "MB", "miss%", "stale%", "server ops", "inval MB"
    ));
    for (param, res) in &sweep.points {
        out.push_str(&format!(
            "{param:>8}  {:>10.3}  {:>8.3}  {:>8.3}  {:>12}  {:>10.3}\n",
            res.traffic.total_bytes() as f64 / (1024.0 * 1024.0),
            res.miss_pct(),
            res.stale_pct(),
            res.server_ops(),
            invalidation.traffic.total_bytes() as f64 / (1024.0 * 1024.0),
        ));
    }
}

/// Render the literature-policy figures: one curve block per family
/// (bandwidth, rates, and server load against the invalidation line)
/// plus the eviction-policy comparison table.
pub fn render_policy_figures(title: &str, report: &PolicyReport) -> String {
    let mut out = format!("== {title} — {} ==\n", report.name);
    out.push_str("(a) RenewableTTL freshness horizon (hours)\n");
    sweep_curves(&mut out, &report.renewable, &report.invalidation);
    out.push_str("(b) UpdateRisk staleness-risk bound (%)\n");
    sweep_curves(&mut out, &report.update_risk, &report.invalidation);
    out.push_str("(c) eviction policies, bounded cache, RenewableTTL 24h\n");
    out.push_str(&format!(
        "{:<18}  {:>10}  {:>8}  {:>8}  {:>10}\n",
        "store", "MB", "miss%", "stale%", "evictions"
    ));
    for (label, res, evictions) in &report.eviction {
        out.push_str(&format!(
            "{label:<18}  {:>10.3}  {:>8.3}  {:>8.3}  {evictions:>10}\n",
            res.traffic.total_bytes() as f64 / (1024.0 * 1024.0),
            res.miss_pct(),
            res.stale_pct(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PolicyReport {
        run_policies(&Scale::quick(), &SweepRunner::new(0))
    }

    #[test]
    fn renewable_bandwidth_monotone_in_horizon() {
        let r = report();
        for w in r.renewable.points.windows(2) {
            assert!(
                w[1].1.traffic.total_bytes() <= w[0].1.traffic.total_bytes(),
                "a longer freshness horizon can only save bandwidth"
            );
        }
    }

    #[test]
    fn update_risk_trades_staleness_for_traffic() {
        let r = report();
        let strict = &r.update_risk.points.first().expect("nonempty").1;
        let loose = &r.update_risk.points.last().expect("nonempty").1;
        // A 0% bound validates everything: zero stale hits, maximal
        // traffic. Loosening the bound must not increase traffic.
        assert_eq!(strict.cache.stale_hits, 0);
        assert!(loose.traffic.total_bytes() <= strict.traffic.total_bytes());
    }

    #[test]
    fn every_eviction_policy_is_exercised() {
        let r = report();
        assert_eq!(r.eviction.len(), 4);
        for (label, res, evictions) in &r.eviction {
            assert!(*evictions > 0, "{label}: capacity never bound");
            let total = res.cache.fresh_hits + res.cache.stale_hits + res.cache.misses;
            assert!(total > 0, "{label}: no requests ran");
        }
    }

    #[test]
    fn figures_render_every_point_and_store() {
        let r = report();
        let text = render_policy_figures("Literature policies", &r);
        assert!(text.contains("RenewableTTL"));
        assert!(text.contains("UpdateRisk"));
        assert!(text.contains("GreedyDual-Size"));
        let scale = Scale::quick();
        let expected = scale.ttl_hours.len() + scale.alex_thresholds.len() + r.eviction.len();
        assert!(text.lines().count() >= expected);
    }
}
