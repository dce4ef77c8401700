//! Glue from the simulator's types to the `liveserve` TCP stack.
//!
//! The live stack takes the *same* workload a simulation runs —
//! population, request schedule, classes — and replays it over real
//! sockets. This module converts [`Workload`] → `liveserve`'s
//! [`LiveWorkload`] and [`ProtocolSpec`] → [`LivePolicy`];
//! [`crate::Experiment::run_live`] goes from a simulator configuration
//! to a live run in one call.
//!
//! The live proxy and the simulator drive the same
//! [`consistency::Engine`], so a single-threaded live run is
//! counter-for-counter comparable to
//! `run(workload, spec, &SimConfig::optimized().preload(false))`:
//! identical `CacheStats`, `ServerLoad`,
//! message/file-transfer *counts*, and staleness totals. Only
//! `message_bytes` differs by construction — the simulator's
//! `PaperConstant` costing charges 43 bytes per message where the live
//! stack counts real wire bytes.

use std::sync::Arc;

use liveserve::{LivePolicy, LiveWorkload};

use crate::protocol::ProtocolSpec;
use crate::workload::Workload;

/// The live stack's view of a simulator workload.
pub fn to_live_workload(workload: &Workload) -> LiveWorkload {
    LiveWorkload {
        name: workload.name.clone(),
        start: workload.start,
        end: workload.end,
        population: Arc::clone(&workload.population),
        requests: workload.requests.clone(),
        classes: workload.classes.clone(),
        class_expires: workload.class_expires.clone(),
    }
}

/// The live policy for a protocol spec, where one exists. The live
/// stack implements the paper's three core mechanisms plus the
/// delay-aware literature policies; the simulator's remaining extended
/// specs (CERN, self-tuning, class tables) return `None`.
pub fn live_policy(spec: ProtocolSpec) -> Option<LivePolicy> {
    match spec {
        ProtocolSpec::Ttl(h) => Some(LivePolicy::Ttl(h)),
        ProtocolSpec::Alex(p) => Some(LivePolicy::Alex(p)),
        ProtocolSpec::Invalidation => Some(LivePolicy::Invalidation),
        ProtocolSpec::RenewableTtl(h) => Some(LivePolicy::RenewableTtl(h)),
        ProtocolSpec::UpdateRisk(p) => Some(LivePolicy::UpdateRisk(p)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_synthetic, WorrellConfig};

    #[test]
    fn conversion_preserves_schedule_and_window() {
        let wl = generate_synthetic(&WorrellConfig::scaled(40, 300), 7);
        let live = to_live_workload(&wl);
        assert_eq!(live.start, wl.start);
        assert_eq!(live.end, wl.end);
        assert_eq!(live.requests, wl.requests);
        assert_eq!(live.population.len(), wl.population.len());
    }

    #[test]
    fn the_three_mechanisms_map_and_the_rest_do_not() {
        assert_eq!(
            live_policy(ProtocolSpec::Ttl(48)),
            Some(LivePolicy::Ttl(48))
        );
        assert_eq!(
            live_policy(ProtocolSpec::Alex(20)),
            Some(LivePolicy::Alex(20))
        );
        assert_eq!(
            live_policy(ProtocolSpec::Invalidation),
            Some(LivePolicy::Invalidation)
        );
        assert_eq!(
            live_policy(ProtocolSpec::RenewableTtl(24)),
            Some(LivePolicy::RenewableTtl(24))
        );
        assert_eq!(
            live_policy(ProtocolSpec::UpdateRisk(5)),
            Some(LivePolicy::UpdateRisk(5))
        );
        assert_eq!(live_policy(ProtocolSpec::PollEveryTime), None);
        assert_eq!(live_policy(ProtocolSpec::SelfTuning), None);
    }

    #[test]
    fn unsupported_spec_is_a_clean_error() {
        let wl = generate_synthetic(&WorrellConfig::scaled(10, 50), 1);
        let err = crate::Experiment::new(&wl)
            .protocol(ProtocolSpec::SelfTuning)
            .run_live()
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    }
}
