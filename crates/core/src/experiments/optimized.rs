//! Figures 4 and 5: the optimized simulator.
//!
//! Same Worrell workload as Figures 2–3, but expired entries are retained
//! and revalidated with `If-Modified-Since` — bodies move only when the
//! object truly changed. Expected shape: both time-based protocols now
//! undercut the invalidation protocol's bandwidth for most parameter
//! settings, and miss rates collapse to near the invalidation protocol's
//! (Figure 5), while stale-hit rates stay as high as in Figure 3.

use crate::experiments::{DataSet, Scale, SimReport};
use crate::sweep::SweepRunner;

/// Run the optimized-simulator experiment (data for Figures 4 and 5).
pub fn run_optimized_with(scale: &Scale, runner: &SweepRunner) -> SimReport {
    DataSet::Optimized.report(scale, runner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::base::run_base_with;

    fn report() -> SimReport {
        run_optimized_with(&Scale::quick(), &SweepRunner::new(0))
    }

    #[test]
    fn figure4_time_based_undercuts_invalidation_for_most_settings() {
        let r = report();
        let inval = r.invalidation.traffic.total_bytes();
        let below = |sweep: &crate::experiments::Sweep| {
            sweep
                .points
                .iter()
                .filter(|(_, res)| res.traffic.total_bytes() < inval)
                .count() as f64
                / sweep.points.len() as f64
        };
        assert!(
            below(&r.alex) >= 0.5,
            "Alex below invalidation for only {:.0}% of settings",
            100.0 * below(&r.alex)
        );
        assert!(
            below(&r.ttl) >= 0.5,
            "TTL below invalidation for only {:.0}% of settings",
            100.0 * below(&r.ttl)
        );
    }

    #[test]
    fn figure5_miss_rates_become_near_perfect() {
        // "Both Alex and TTL now achieve near perfect miss rates because
        // the invalidated data are left in the cache."
        let r = report();
        let inval_miss = r.invalidation.miss_pct();
        for sweep in [&r.alex, &r.ttl] {
            for (param, res) in &sweep.points {
                if *param == 0.0 {
                    continue; // degenerate always-validate point
                }
                assert!(
                    res.miss_pct() <= inval_miss + 2.0,
                    "{} @ {}: miss {:.2}% vs invalidation {:.2}%",
                    sweep.family,
                    param,
                    res.miss_pct(),
                    inval_miss
                );
            }
        }
    }

    #[test]
    fn figure5_stale_rate_is_unchanged_from_base() {
        // The optimization trades bandwidth, not consistency: stale hits
        // match the base simulator's.
        let scale = Scale::quick();
        let base = run_base_with(&scale, &SweepRunner::new(0));
        let opt = run_optimized_with(&scale, &SweepRunner::new(0));
        for (b, o) in base.ttl.points.iter().zip(&opt.ttl.points) {
            assert_eq!(b.1.cache.stale_hits, o.1.cache.stale_hits, "TTL {}", b.0);
        }
        for (b, o) in base.alex.points.iter().zip(&opt.alex.points) {
            assert_eq!(b.1.cache.stale_hits, o.1.cache.stale_hits, "Alex {}", b.0);
        }
    }

    #[test]
    fn optimized_never_exceeds_base_bandwidth() {
        let scale = Scale::quick();
        let base = run_base_with(&scale, &SweepRunner::new(0));
        let opt = run_optimized_with(&scale, &SweepRunner::new(0));
        for (b, o) in base
            .ttl
            .points
            .iter()
            .chain(&base.alex.points)
            .zip(opt.ttl.points.iter().chain(&opt.alex.points))
        {
            assert!(
                o.1.traffic.total_bytes() <= b.1.traffic.total_bytes(),
                "optimized must not cost more ({} @ {})",
                o.1.protocol,
                o.0
            );
        }
    }

    #[test]
    fn stale_hits_save_bandwidth() {
        // §4.1: "As the number of stale hits increases, the bandwidth
        // consumption decreases" — the largest-parameter point has both
        // the most stale hits and the least bandwidth.
        let r = report();
        let first = &r.ttl.points.first().expect("nonempty").1;
        let last = &r.ttl.points.last().expect("nonempty").1;
        assert!(last.cache.stale_hits > first.cache.stale_hits);
        assert!(last.traffic.total_bytes() < first.traffic.total_bytes());
    }
}
