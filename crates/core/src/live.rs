//! Glue from the simulator's types to the `liveserve` TCP stack.
//!
//! The live stack takes the *same* workload a simulation runs —
//! population, request schedule, classes — and the same
//! [`ProtocolSpec`], and replays it over real sockets. This module
//! converts [`Workload`] → `liveserve`'s [`LiveWorkload`];
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

use crate::workload::Workload;
use crate::ProtocolSpec;

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

/// The live stack's policy for a protocol spec: the spec itself, since
/// `liveserve::LivePolicy` *is* [`ProtocolSpec`] and the proxy runs
/// every spec through the engine it shares with the simulator. Kept,
/// `Option` and all, only because `bench/` calls it.
pub fn live_policy(spec: ProtocolSpec) -> Option<LivePolicy> {
    Some(spec)
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
}
