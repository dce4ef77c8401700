//! Cache-deployment experiment: who sits behind the proxy?
//!
//! The paper's Table 1 distinguishes campus-local from remote requests
//! (DAS served 84 % remote traffic; FAS only 39 %). A mid-90s campus
//! proxy served the *local* clients; the remote majority hit the origin
//! directly. This experiment quantifies the three deployments the era
//! debated:
//!
//! * **no proxy** — every request is an origin document request;
//! * **boundary proxy** — the cache consistency protocol covers local
//!   clients only; remote requests hit the origin raw;
//! * **universal proxy** — the collapsed-cache model of the paper's
//!   simulations, covering everyone.
//!
//! The comparison shows how much of the paper's measured benefit depends
//! on the (optimistic) universal-coverage assumption, per trace.

use webtrace::campus::{generate_campus_trace, CampusProfile};

use crate::sim::{run, SimConfig};
use crate::sweep::SweepRunner;
use crate::workload::Workload;
use crate::ProtocolSpec;

/// One trace's deployment comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentRow {
    /// Trace name.
    pub trace: String,
    /// Fraction of requests from remote clients.
    pub remote_fraction: f64,
    /// Origin operations with no proxy anywhere.
    pub no_proxy_ops: u64,
    /// Origin operations with a boundary proxy (local clients cached,
    /// remote raw).
    pub boundary_ops: u64,
    /// Origin operations with a universal proxy (the paper's model).
    pub universal_ops: u64,
}

impl DeploymentRow {
    /// Origin-load reduction of the boundary deployment vs no proxy.
    pub fn boundary_reduction(&self) -> f64 {
        reduction(self.no_proxy_ops, self.boundary_ops)
    }

    /// Origin-load reduction of the universal deployment vs no proxy.
    pub fn universal_reduction(&self) -> f64 {
        reduction(self.no_proxy_ops, self.universal_ops)
    }
}

fn reduction(before: u64, after: u64) -> f64 {
    if before == 0 {
        return 0.0;
    }
    1.0 - after as f64 / before as f64
}

/// Run the deployment comparison for each campus trace under `spec`
/// (one worker per campus trace; each replays its local-only and
/// universal runs as a parallel pair).
pub fn deployment_comparison(
    spec: ProtocolSpec,
    seed: u64,
    subsample: usize,
    runner: &SweepRunner,
) -> Vec<DeploymentRow> {
    let config = SimConfig::optimized();
    runner.map(&CampusProfile::all(), |profile| {
        let campus = generate_campus_trace(profile, seed);
        let all = Workload::from_server_trace(&campus.trace).subsample(subsample);
        let local = Workload::from_server_trace_local_only(&campus.trace).subsample(subsample);
        let remote = Workload::from_server_trace_remote_only(&campus.trace).subsample(subsample);

        // No proxy: every request is one origin document request.
        let no_proxy_ops = all.request_count() as u64;
        // Boundary: the protocol covers local clients; every remote
        // request is a raw origin document request. Universal: the
        // paper's collapsed model.
        let (local_run, universal_run) =
            runner.join(|| run(&local, spec, &config), || run(&all, spec, &config));
        let boundary_ops = local_run.server_ops() + remote.request_count() as u64;
        let universal_ops = universal_run.server_ops();

        DeploymentRow {
            trace: profile.name.to_string(),
            remote_fraction: campus.trace.remote_fraction(),
            no_proxy_ops,
            boundary_ops,
            universal_ops,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<DeploymentRow> {
        deployment_comparison(ProtocolSpec::Alex(20), 1996, 8, &SweepRunner::new(0))
    }

    #[test]
    fn covers_all_three_traces() {
        let r = rows();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].trace, "DAS");
        assert!((r[0].remote_fraction - 0.84).abs() < 0.01);
    }

    #[test]
    fn more_coverage_means_less_origin_load() {
        for row in rows() {
            assert!(
                row.universal_ops <= row.boundary_ops,
                "{}: universal {} vs boundary {}",
                row.trace,
                row.universal_ops,
                row.boundary_ops
            );
            assert!(
                row.boundary_ops <= row.no_proxy_ops,
                "{}: boundary {} vs none {}",
                row.trace,
                row.boundary_ops,
                row.no_proxy_ops
            );
        }
    }

    #[test]
    fn boundary_benefit_shrinks_with_remote_share() {
        // DAS (84% remote) keeps almost all its origin load under a
        // boundary proxy; FAS (39% remote) sheds most of it.
        let r = rows();
        let das = r.iter().find(|x| x.trace == "DAS").expect("DAS row");
        let fas = r.iter().find(|x| x.trace == "FAS").expect("FAS row");
        assert!(
            das.boundary_reduction() < fas.boundary_reduction(),
            "DAS reduction {:.2} should trail FAS {:.2}",
            das.boundary_reduction(),
            fas.boundary_reduction()
        );
        // And a boundary proxy can never beat its local share.
        for row in &r {
            assert!(
                row.boundary_reduction() <= (1.0 - row.remote_fraction) + 0.02,
                "{}: reduction {:.2} exceeds local share {:.2}",
                row.trace,
                row.boundary_reduction(),
                1.0 - row.remote_fraction
            );
        }
    }

    #[test]
    fn universal_reduction_is_large_for_tuned_alex() {
        for row in rows() {
            assert!(
                row.universal_reduction() > 0.8,
                "{}: universal reduction only {:.2}",
                row.trace,
                row.universal_reduction()
            );
        }
    }
}
