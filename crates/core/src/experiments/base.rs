//! Figures 2 and 3: the base simulator.
//!
//! Worrell-style workload (flat lifetimes, uniform accesses), pre-loaded
//! cache, eager refetch on expiry. Expected shape (the paper's): the
//! invalidation protocol beats both time-based protocols on bandwidth
//! until the update threshold / TTL grows quite large, while the
//! time-based protocols' stale-hit rates climb with the parameter.

use crate::experiments::{DataSet, Scale, SimReport, Sweep};
use crate::sim::{run, SimConfig};
use crate::sweep::SweepRunner;
use crate::workload::Workload;

/// Run the base-simulator experiment (data for Figures 2 and 3).
pub fn run_base_with(scale: &Scale, runner: &SweepRunner) -> SimReport {
    DataSet::Base.report(scale, runner)
}

/// The shared sweep core: [`Scale::points`] on one workload, fanned over
/// `runner`. Point order in the returned sweeps matches the scale's
/// parameter order exactly, whatever the worker count.
pub(crate) fn sweep_protocols(
    workload: &Workload,
    scale: &Scale,
    config: SimConfig,
    runner: &SweepRunner,
) -> SimReport {
    let points = scale.points();
    let mut results = runner
        .map(&points, |&spec| run(workload, spec, &config))
        .into_iter();
    let alex = scale.alex_thresholds.iter().map(|&pct| f64::from(pct));
    let ttl = scale.ttl_hours.iter().map(|&h| h as f64);
    SimReport {
        name: workload.name.clone(),
        alex: Sweep {
            family: "Alex",
            points: alex.zip(results.by_ref()).collect(),
        },
        ttl: Sweep {
            family: "TTL",
            points: ttl.zip(results.by_ref()).collect(),
        },
        invalidation: results.next().expect("the sweep ends on invalidation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        run_base_with(&Scale::quick(), &SweepRunner::new(0))
    }

    #[test]
    fn figure2_invalidation_wins_at_small_parameters() {
        let r = report();
        let inval_bytes = r.invalidation.traffic.total_bytes();
        // At threshold/TTL 0 the eager protocols refetch constantly:
        // far above the invalidation line.
        let alex0 = &r.alex.points[0].1;
        let ttl0 = &r.ttl.points[0].1;
        assert!(alex0.traffic.total_bytes() > 2 * inval_bytes);
        assert!(ttl0.traffic.total_bytes() > 2 * inval_bytes);
    }

    #[test]
    fn figure2_bandwidth_monotone_in_parameter() {
        let r = report();
        for sweep in [&r.alex, &r.ttl] {
            for w in sweep.points.windows(2) {
                assert!(
                    w[1].1.traffic.total_bytes() <= w[0].1.traffic.total_bytes(),
                    "{} bandwidth must not grow with the parameter",
                    sweep.family
                );
            }
        }
    }

    #[test]
    fn figure3_stale_hits_grow_with_parameter() {
        let r = report();
        for sweep in [&r.alex, &r.ttl] {
            let first = &sweep.points.first().expect("nonempty").1;
            let last = &sweep.points.last().expect("nonempty").1;
            assert_eq!(first.cache.stale_hits, 0, "{} at 0", sweep.family);
            assert!(
                last.cache.stale_hits > 0,
                "{} at max parameter must serve stale data",
                sweep.family
            );
        }
    }

    #[test]
    fn figure3_invalidation_is_perfect() {
        let r = report();
        assert_eq!(r.invalidation.cache.stale_hits, 0);
        // Near-perfect misses: only genuinely-changed-and-requested files
        // transfer. The eager time-based protocols at moderate settings
        // miss far more.
        let ttl_mid = &r.ttl.points[1].1;
        assert!(r.invalidation.cache.misses < ttl_mid.cache.misses);
    }

    #[test]
    fn figure2_ttl_saves_more_than_alex_at_matched_staleness() {
        // §4.0's surprise: under the churning flat-lifetime workload, for
        // a matched stale-hit budget TTL yields more bandwidth savings
        // than Alex. Compare the families at their largest parameters.
        let r = report();
        let alex_best = r.alex.points.last().expect("nonempty");
        let ttl_best = r.ttl.points.last().expect("nonempty");
        assert!(
            ttl_best.1.traffic.total_bytes() < alex_best.1.traffic.total_bytes(),
            "TTL@{}h = {} vs Alex@{}% = {}",
            ttl_best.0,
            ttl_best.1.traffic.total_bytes(),
            alex_best.0,
            alex_best.1.traffic.total_bytes()
        );
    }
}
