//! Protocol shootout on a realistic campus trace: sweep every protocol
//! family and find the tuning point the paper's conclusion describes —
//! an Alex threshold that beats the invalidation protocol on bandwidth
//! *and* server load while staying under 5 % stale hits.
//!
//! ```sh
//! cargo run --release --example protocol_shootout [-- <seed>]
//! ```

use wwwcache::webcache::{run, ProtocolSpec, SimConfig, Workload};
use wwwcache::webtrace::campus::{generate_campus_trace, CampusProfile};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(1996);

    let campus = generate_campus_trace(&CampusProfile::hcs(), seed);
    let workload = Workload::from_server_trace(campus.trace);
    println!(
        "trace: {} — {} files, {} requests, {} changes\n",
        workload.name,
        workload.population.len(),
        workload.request_count(),
        workload.changes_in_window(),
    );

    let config = SimConfig::optimized();
    let invalidation = run(&workload, ProtocolSpec::Invalidation, &config);
    println!(
        "invalidation reference: {:.3} MB, {} server ops, 0% stale\n",
        invalidation.total_mb(),
        invalidation.server_ops(),
    );

    println!(
        "{:<18}{:>12}{:>9}{:>13}{:>14}",
        "protocol", "bandwidth", "stale%", "server ops", "beats inval?"
    );
    let mut sweet_spot: Option<(u32, f64)> = None;
    for pct in [0u32, 5, 10, 20, 40, 64, 80, 100] {
        let r = run(&workload, ProtocolSpec::Alex(pct), &config);
        let wins_bw = r.traffic.total_bytes() < invalidation.traffic.total_bytes();
        let wins_load = r.server_ops() <= invalidation.server_ops();
        if wins_bw && wins_load && r.stale_pct() < 5.0 && sweet_spot.is_none() {
            sweet_spot = Some((pct, r.stale_pct()));
        }
        println!(
            "{:<18}{:>9.3} MB{:>9.2}{:>13}{:>14}",
            r.protocol,
            r.total_mb(),
            r.stale_pct(),
            r.server_ops(),
            match (wins_bw, wins_load) {
                (true, true) => "bw+load",
                (true, false) => "bw only",
                (false, true) => "load only",
                (false, false) => "no",
            }
        );
    }
    for hours in [50u64, 100, 250, 500] {
        let r = run(&workload, ProtocolSpec::Ttl(hours), &config);
        println!(
            "{:<18}{:>9.3} MB{:>9.2}{:>13}{:>14}",
            r.protocol,
            r.total_mb(),
            r.stale_pct(),
            r.server_ops(),
            if r.traffic.total_bytes() < invalidation.traffic.total_bytes() {
                "bw only"
            } else {
                "no"
            }
        );
    }
    let cern = run(
        &workload,
        ProtocolSpec::Cern {
            lm_percent: 10,
            default_ttl_hours: 24,
        },
        &config,
    );
    println!(
        "{:<18}{:>9.3} MB{:>9.2}{:>13}",
        "CERN httpd",
        cern.total_mb(),
        cern.stale_pct(),
        cern.server_ops()
    );
    let tuned = run(&workload, ProtocolSpec::SelfTuning, &config);
    println!(
        "{:<18}{:>9.3} MB{:>9.2}{:>13}",
        "self-tuning",
        tuned.total_mb(),
        tuned.stale_pct(),
        tuned.server_ops()
    );

    match sweet_spot {
        Some((pct, stale)) => println!(
            "\nPaper §7 reproduced: Alex@{pct}% beats invalidation on both\n\
             bandwidth and server load with {stale:.2}% stale hits (<5%)."
        ),
        None => println!(
            "\nNo Alex setting beat invalidation on both axes for this trace\n\
             (try another seed; the paper reports a crossover near 64%)."
        ),
    }
}
