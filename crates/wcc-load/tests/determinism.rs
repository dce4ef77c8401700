//! The arrival schedule is a pure function of its config: bit-identical
//! across re-runs. (That a *run's* offered sequence does not depend on
//! the worker count is pinned against the live pacer in `openloop.rs`.)

use proptest::prelude::*;
use wcc_load::{ArrivalMode, ArrivalSchedule, ScheduleConfig};

fn config(clients: usize, rate: f64, total: u64, seed: u64, fixed: bool) -> ScheduleConfig {
    ScheduleConfig {
        clients,
        rate_rps: rate,
        mode: if fixed {
            ArrivalMode::FixedRate
        } else {
            ArrivalMode::Poisson
        },
        seed,
        total,
    }
}

proptest! {
    #[test]
    fn schedule_is_bit_identical_across_reruns(
        seed in 0u64..1_000_000,
        clients in 1usize..12,
        rate in 10.0f64..5_000.0,
        total in 1u64..2_000,
        fixed in proptest::arbitrary::any::<bool>(),
    ) {
        let cfg = config(clients, rate, total, seed, fixed);
        let a: Vec<_> = ArrivalSchedule::new(&cfg).collect();
        let b: Vec<_> = ArrivalSchedule::new(&cfg).collect();
        prop_assert_eq!(a, b);
    }
}
