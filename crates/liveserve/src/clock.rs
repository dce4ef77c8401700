//! The clock shared by origin, proxy, and load generator.
//!
//! Workloads are scripted in [`SimTime`] (seconds from an arbitrary
//! start). The live stack keeps that timebase: every component reads one
//! [`LiveClock`], and HTTP headers map through the workspace's
//! conventional wall-clock origin, [`EPOCH_1996`].
//!
//! Two modes:
//!
//! * **Virtual** — the load generator advances the clock explicitly as it
//!   replays the workload. Hours of scripted time replay in milliseconds,
//!   and a single-threaded replay is event-for-event equivalent to the
//!   discrete-event simulator.
//! * **Wall** — the clock follows the host's monotonic clock from a base
//!   instant; `wcc serve` uses this to run the stack against real
//!   clients.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use httpsim::{HttpDate, EPOCH_1996};
use simcore::SimTime;

/// A monotonically advancing simulation clock, cheap to clone and share.
#[derive(Debug, Clone)]
pub enum LiveClock {
    /// Advanced explicitly via [`LiveClock::advance_to`].
    Virtual(Arc<AtomicU64>),
    /// Follows the host clock: `base + (Instant::now() - started)`.
    Wall {
        /// Host instant corresponding to `base`.
        started: Instant,
        /// Simulation time at `started`, in seconds.
        base: u64,
    },
}

impl LiveClock {
    /// A virtual clock starting at `start`.
    pub fn virtual_at(start: SimTime) -> Self {
        LiveClock::Virtual(Arc::new(AtomicU64::new(start.as_secs())))
    }

    /// A wall clock whose "now" is `base` at the moment of this call.
    pub fn wall_from(base: SimTime) -> Self {
        LiveClock::Wall {
            started: Instant::now(),
            base: base.as_secs(),
        }
    }

    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        match self {
            LiveClock::Virtual(secs) => SimTime::from_secs(secs.load(Ordering::SeqCst)),
            LiveClock::Wall { started, base } => {
                SimTime::from_secs(base + started.elapsed().as_secs())
            }
        }
    }

    /// Advance a virtual clock to `t` (never backwards — concurrent
    /// advances race benignly to the max). No-op on a wall clock, which
    /// advances by itself.
    pub fn advance_to(&self, t: SimTime) {
        if let LiveClock::Virtual(secs) = self {
            secs.fetch_max(t.as_secs(), Ordering::SeqCst);
        }
    }
}

/// The HTTP header date for a simulation instant.
pub fn wall_date(t: SimTime) -> HttpDate {
    HttpDate(EPOCH_1996.0 + t.as_secs())
}

/// The simulation instant for an HTTP header date, which any peer may
/// send: saturating at the epoch for dates that precede it, and at
/// [`SimTime::MAX`] for dates past the horizon (after 2132).
pub fn sim_instant(d: HttpDate) -> SimTime {
    SimTime::try_from_secs(d.0.saturating_sub(EPOCH_1996.0)).unwrap_or(SimTime::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_monotonically() {
        let c = LiveClock::virtual_at(SimTime::from_secs(100));
        assert_eq!(c.now(), SimTime::from_secs(100));
        c.advance_to(SimTime::from_secs(500));
        assert_eq!(c.now(), SimTime::from_secs(500));
        // Never backwards.
        c.advance_to(SimTime::from_secs(200));
        assert_eq!(c.now(), SimTime::from_secs(500));
    }

    #[test]
    fn clones_share_the_virtual_timebase() {
        let c = LiveClock::virtual_at(SimTime::ZERO);
        let d = c.clone();
        c.advance_to(SimTime::from_secs(42));
        assert_eq!(d.now(), SimTime::from_secs(42));
    }

    #[test]
    fn wall_clock_starts_at_base_and_ignores_advance() {
        let base = SimTime::from_secs(1000);
        let c = LiveClock::wall_from(base);
        let now = c.now();
        assert!(now >= base && now <= SimTime::from_secs(1002));
        c.advance_to(SimTime::from_secs(99_999));
        assert!(c.now() < SimTime::from_secs(2000));
    }

    #[test]
    fn wall_date_round_trips_through_sim_instant() {
        let t = SimTime::from_secs(12_345);
        assert_eq!(sim_instant(wall_date(t)), t);
        assert_eq!(wall_date(SimTime::ZERO), EPOCH_1996);
        // Pre-epoch dates saturate to the simulation origin, dates past
        // the horizon to its last instant.
        assert_eq!(sim_instant(HttpDate(0)), SimTime::ZERO);
        assert_eq!(
            wall_date(SimTime::MAX),
            HttpDate(EPOCH_1996.0 + u64::from(u32::MAX))
        );
        assert_eq!(sim_instant(wall_date(SimTime::MAX)), SimTime::MAX);
        assert_eq!(sim_instant(HttpDate(u64::MAX)), SimTime::MAX);
    }
}
