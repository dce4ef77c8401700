//! Figures 6, 7, and 8: the modified-workload (trace-driven) simulator.
//!
//! The same optimized simulator as Figures 4–5, driven by the calibrated
//! DAS/FAS/HCS campus traces. The figures plot the *average* of the three
//! traces (Figure 6 caption), which [`TracedReport::averaged`] realises by
//! merging per-trace counters. Expected shape:
//!
//! * Figure 6 — Alex and TTL demand less bandwidth than the invalidation
//!   protocol for nearly all parameter settings;
//! * Figure 7 — miss rates of all three protocols are indistinguishable
//!   and tiny; stale rates stay under 5 % (under 1 % at Alex threshold
//!   5 %);
//! * Figure 8 — Alex at threshold 0 imposes roughly two orders of
//!   magnitude more server operations than the invalidation protocol;
//!   Alex crosses below invalidation load at a large threshold (the paper
//!   reports ≈64 %); TTL imposes more load than invalidation at every
//!   setting.

use webtrace::campus::{generate_campus_trace, CampusProfile};

use crate::experiments::{DataSet, Scale, SimReport, Sweep};
use crate::sim::RunResult;
use crate::sweep::SweepRunner;
use crate::workload::Workload;

/// Per-trace and averaged results for the trace-driven experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedReport {
    /// One report per campus trace (DAS, FAS, HCS).
    pub per_trace: Vec<SimReport>,
    /// Counter-merged average across the three traces — what Figures 6–8
    /// plot.
    pub averaged: SimReport,
}

/// Run the trace-driven experiment (data for Figures 6, 7, and 8).
/// Traces are replayed in order; within each trace the parameter points
/// fan over the runner.
pub fn run_traced_with(scale: &Scale, runner: &SweepRunner) -> TracedReport {
    let per_trace = DataSet::Traced.sweeps(scale, runner);
    TracedReport {
        averaged: average(&per_trace),
        per_trace,
    }
}

/// `profile`'s campus trace as a workload, subsampled to `scale`: the
/// trace is generated, converted in its own buffers and subsampled in
/// place, so the stream exists once.
pub(crate) fn campus_workload(profile: &CampusProfile, scale: &Scale) -> Workload {
    let trace = generate_campus_trace(profile, scale.seed).trace;
    Workload::from_server_trace(trace).subsample(scale.trace_subsample)
}

/// The counter-merged average of the per-trace sweeps.
pub(crate) fn average(per_trace: &[SimReport]) -> SimReport {
    SimReport {
        name: "trace average (DAS+FAS+HCS)".to_string(),
        alex: merge_sweeps("Alex", per_trace.iter().map(|r| &r.alex).collect()),
        ttl: merge_sweeps("TTL", per_trace.iter().map(|r| &r.ttl).collect()),
        invalidation: RunResult::merged(
            "Invalidation",
            &per_trace
                .iter()
                .map(|r| r.invalidation.clone())
                .collect::<Vec<_>>(),
        ),
    }
}

fn merge_sweeps(family: &'static str, sweeps: Vec<&Sweep>) -> Sweep {
    let n_points = sweeps.first().map_or(0, |s| s.points.len());
    Sweep {
        family,
        points: (0..n_points)
            .map(|i| {
                let param = sweeps[0].points[i].0;
                let runs: Vec<RunResult> = sweeps
                    .iter()
                    .map(|s| {
                        debug_assert_eq!(s.points[i].0, param, "sweeps must align");
                        s.points[i].1.clone()
                    })
                    .collect();
                (param, RunResult::merged(runs[0].protocol.clone(), &runs))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    // The traced experiment replays three month-long traces; share one
    // quick-scale run across the shape tests.
    fn report() -> &'static TracedReport {
        static REPORT: OnceLock<TracedReport> = OnceLock::new();
        REPORT.get_or_init(|| run_traced_with(&Scale::quick(), &SweepRunner::new(0)))
    }

    #[test]
    fn runs_all_three_traces() {
        let r = report();
        let names: Vec<&str> = r.per_trace.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), 3);
        assert!(names[0].starts_with("DAS"));
        assert!(names[1].starts_with("FAS"));
        assert!(names[2].starts_with("HCS"));
    }

    #[test]
    fn figure6_weak_protocols_can_be_tuned_below_invalidation() {
        // Paper shape: the weak protocols' bandwidth crosses below the
        // invalidation line once the parameter leaves the degenerate
        // always-validate regime, and stays below from there on.
        let r = &report().averaged;
        let inval = r.invalidation.traffic.total_bytes();
        for sweep in [&r.alex, &r.ttl] {
            let nonzero: Vec<_> = sweep.points.iter().filter(|(p, _)| *p > 0.0).collect();
            let below = nonzero
                .iter()
                .filter(|(_, res)| res.traffic.total_bytes() < inval)
                .count();
            assert!(
                below * 2 >= nonzero.len(),
                "{}: only {below}/{} non-degenerate settings below invalidation",
                sweep.family,
                nonzero.len()
            );
            let last = &nonzero.last().expect("nonempty").1;
            assert!(
                last.traffic.total_bytes() < inval,
                "{} at max parameter must beat invalidation ({} vs {inval})",
                sweep.family,
                last.traffic.total_bytes()
            );
        }
        // Once below, bandwidth keeps falling: no re-crossing.
        for sweep in [&r.alex, &r.ttl] {
            for w in sweep.points.windows(2) {
                assert!(
                    w[1].1.traffic.total_bytes() <= w[0].1.traffic.total_bytes(),
                    "{} bandwidth must be monotone",
                    sweep.family
                );
            }
        }
    }

    #[test]
    fn figure7_stale_rates_are_low() {
        let r = &report().averaged;
        for sweep in [&r.alex, &r.ttl] {
            for (param, res) in &sweep.points {
                assert!(
                    res.stale_pct() < 5.0,
                    "{} @ {}: stale {:.2}%",
                    sweep.family,
                    param,
                    res.stale_pct()
                );
            }
        }
        // Alex at a small threshold: under 1 % (paper: threshold 5 %).
        let small = &r.alex.points[1];
        assert!(
            small.1.stale_pct() < 1.0,
            "Alex @ {}%: stale {:.2}%",
            small.0,
            small.1.stale_pct()
        );
    }

    #[test]
    fn figure7_miss_rates_are_tiny_for_all_protocols() {
        let r = &report().averaged;
        assert!(r.invalidation.miss_pct() < 1.0);
        for sweep in [&r.alex, &r.ttl] {
            for (_, res) in &sweep.points {
                assert!(
                    res.miss_pct() < 1.5,
                    "{}: miss {:.3}%",
                    res.protocol,
                    res.miss_pct()
                );
            }
        }
    }

    #[test]
    fn figure8_poll_every_request_hammers_the_server() {
        let r = &report().averaged;
        let alex0 = &r.alex.points[0].1;
        let inval_ops = r.invalidation.server_ops().max(1);
        assert!(
            alex0.server_ops() >= 20 * inval_ops,
            "Alex@0 ops {} vs invalidation {}",
            alex0.server_ops(),
            inval_ops
        );
    }

    #[test]
    fn figure8_alex_crosses_invalidation_at_a_large_threshold() {
        let r = &report().averaged;
        let inval_ops = r.invalidation.server_ops();
        let first = &r.alex.points.first().expect("nonempty").1;
        let last = &r.alex.points.last().expect("nonempty").1;
        assert!(first.server_ops() > inval_ops, "threshold 0 must exceed");
        assert!(
            last.server_ops() <= inval_ops * 3 / 2,
            "Alex@100% ops {} should approach invalidation {}",
            last.server_ops(),
            inval_ops
        );
    }

    #[test]
    fn figure8_ttl_always_loads_the_server_more_than_invalidation() {
        let r = &report().averaged;
        let inval_ops = r.invalidation.server_ops();
        for (param, res) in &r.ttl.points {
            assert!(
                res.server_ops() > inval_ops,
                "TTL @ {param}h: {} ops vs invalidation {}",
                res.server_ops(),
                inval_ops
            );
        }
    }

    #[test]
    fn averaged_counters_equal_per_trace_sums() {
        let r = report();
        let sum: u64 = r
            .per_trace
            .iter()
            .map(|t| t.invalidation.cache.requests())
            .sum();
        assert_eq!(r.averaged.invalidation.cache.requests(), sum);
    }
}
