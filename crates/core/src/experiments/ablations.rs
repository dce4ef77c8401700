//! Design-choice ablations — the extensions DESIGN.md commits to.
//!
//! Each ablation isolates one modelling decision and measures whether the
//! paper's conclusion survives flipping it:
//!
//! * [`workload_ablation`] — which §4.2 workload property (lifetime
//!   bimodality, popularity skew, the Bestavros anticorrelation) actually
//!   flips Worrell's pro-invalidation conclusion;
//! * [`costing_ablation`] — the paper's flat 43-byte message cost versus
//!   exact serialised HTTP/1.0 sizes;
//! * [`selftuning_comparison`] — the §5 self-tuning policy versus the
//!   best fixed Alex threshold.
//!
//! [`report`] runs them all, with the capacity, eviction, latency,
//! failure, severity and placement extensions, as `wcc ablations` prints
//! them.

use httpsim::MessageCosting;
use simcore::SimDuration;
use webtrace::campus::{generate_campus_trace, CampusProfile};

use crate::experiment::{Experiment, RunOutcome, Store};
use crate::experiments::{deployment, failure};
use crate::sim::{run, RunResult, SimConfig};
use crate::sweep::SweepRunner;
use crate::workload::{
    generate_synthetic, LifetimeModel, PopularityModel, Workload, WorkloadKnobs, WorrellConfig,
};
use crate::ProtocolSpec;

/// One workload-ablation step: a named knob setting and the resulting
/// weak-vs-invalidation comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Knob description.
    pub variant: &'static str,
    /// Alex (threshold 20 %) under the optimized simulator.
    pub alex: RunResult,
    /// The invalidation reference on the same workload.
    pub invalidation: RunResult,
}

impl AblationRow {
    /// Whether the weak protocol beats invalidation on bandwidth here.
    pub fn weak_wins_bandwidth(&self) -> bool {
        self.alex.traffic.total_bytes() < self.invalidation.traffic.total_bytes()
    }

    /// The stale-hit percentage the weak protocol pays for it.
    pub fn weak_stale_pct(&self) -> f64 {
        self.alex.stale_pct()
    }
}

/// Walk from Worrell's workload to the trace-informed one, one knob at a
/// time, measuring Alex-vs-invalidation at each step (one worker per
/// knob variant; each variant generates its own workload and runs both
/// protocols).
pub fn workload_ablation(
    files: usize,
    requests: usize,
    seed: u64,
    runner: &SweepRunner,
) -> Vec<AblationRow> {
    let config = SimConfig::optimized();
    let spec = ProtocolSpec::Alex(20);
    let bimodal = LifetimeModel::Bimodal {
        volatile_fraction: 0.07,
        min_hours: 2.0,
        max_hours: 120.0,
    };
    let variants: [(&'static str, WorkloadKnobs); 4] = [
        (
            "flat lifetimes + uniform popularity (Worrell)",
            WorkloadKnobs {
                lifetimes: LifetimeModel::Flat {
                    min_hours: 2.0,
                    max_hours: 280.0,
                },
                popularity: PopularityModel::Uniform,
            },
        ),
        (
            "bimodal lifetimes + uniform popularity",
            WorkloadKnobs {
                lifetimes: bimodal,
                popularity: PopularityModel::Uniform,
            },
        ),
        (
            "bimodal lifetimes + Zipf popularity (uncorrelated)",
            WorkloadKnobs {
                lifetimes: bimodal,
                popularity: PopularityModel::Zipf {
                    exponent: 1.0,
                    correlate_stability: false,
                },
            },
        ),
        (
            "bimodal + Zipf + Bestavros anticorrelation (trace-like)",
            WorkloadKnobs {
                lifetimes: bimodal,
                popularity: PopularityModel::Zipf {
                    exponent: 1.0,
                    correlate_stability: true,
                },
            },
        ),
    ];

    runner.map(&variants, |&(variant, knobs)| {
        let cfg = WorrellConfig {
            knobs,
            ..WorrellConfig::scaled(files, requests)
        };
        let wl = generate_synthetic(&cfg, seed);
        AblationRow {
            variant,
            alex: run(&wl, spec, &config),
            invalidation: run(&wl, ProtocolSpec::Invalidation, &config),
        }
    })
}

/// Compare the paper's flat 43-byte message accounting against exact
/// serialised HTTP/1.0 sizes on the same workload and protocol (the two
/// costings run as a parallel pair).
pub fn costing_ablation(
    workload: &Workload,
    spec: ProtocolSpec,
    runner: &SweepRunner,
) -> (RunResult, RunResult) {
    runner.join(
        || run(workload, spec, &SimConfig::optimized()),
        || {
            run(
                workload,
                spec,
                &SimConfig::optimized().costing(MessageCosting::SerializedHttp),
            )
        },
    )
}

/// The §5 dynamic-content scenario: run the same trace with a class
/// treated as cacheable versus dynamically generated (uncacheable).
/// Returns `(cacheable, uncacheable)` results for the given protocol
/// (the two treatments run as a parallel pair).
pub fn dynamic_content_ablation(
    workload: &Workload,
    spec: ProtocolSpec,
    dynamic_class: usize,
    runner: &SweepRunner,
) -> (RunResult, RunResult) {
    assert!(dynamic_class < 32, "class mask holds 32 classes");
    runner.join(
        || run(workload, spec, &SimConfig::optimized()),
        || {
            run(
                workload,
                spec,
                &SimConfig::optimized().uncacheable(1 << dynamic_class),
            )
        },
    )
}

/// One point of the bounded-cache capacity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPoint {
    /// Cache capacity as a fraction of the working-set bytes.
    pub capacity_fraction: f64,
    /// Result under the given protocol.
    pub result: RunResult,
    /// Evictions during the run.
    pub evictions: u64,
}

/// The bounded-cache extension: sweep cache capacity (as a fraction of
/// the working set) and measure how eviction pressure interacts with the
/// consistency protocol (evicted entries lose their validation history;
/// under invalidation they also drop their subscription). One worker
/// per capacity fraction.
pub fn capacity_sweep(
    workload: &Workload,
    spec: ProtocolSpec,
    fractions: &[f64],
    runner: &SweepRunner,
) -> Vec<CapacityPoint> {
    let working_set: u64 = workload
        .population
        .iter()
        .filter_map(|(_, r)| r.version_at(workload.start).map(|v| v.size))
        .sum();
    runner.map(fractions, |&frac| {
        assert!(frac > 0.0, "capacity fraction must be positive");
        let capacity = ((working_set as f64 * frac) as u64).max(1);
        let RunOutcome { result, evictions } = Experiment::new(workload)
            .protocol(spec)
            .store(Store::Lru(capacity))
            .run();
        CapacityPoint {
            capacity_fraction: frac,
            result,
            evictions,
        }
    })
}

/// Eviction-policy ablation: the same bounded capacity under LRU versus
/// FIFO eviction, run as a parallel pair. Returns
/// `(lru, lru_evictions, fifo, fifo_evictions)`.
pub fn eviction_policy_comparison(
    workload: &Workload,
    spec: ProtocolSpec,
    capacity_fraction: f64,
    runner: &SweepRunner,
) -> (RunResult, u64, RunResult, u64) {
    assert!(
        capacity_fraction > 0.0,
        "capacity fraction must be positive"
    );
    let working_set: u64 = workload
        .population
        .iter()
        .filter_map(|(_, r)| r.version_at(workload.start).map(|v| v.size))
        .sum();
    let capacity = ((working_set as f64 * capacity_fraction) as u64).max(1);
    let cold = |store| {
        Experiment::new(workload)
            .protocol(spec)
            .preload(false)
            .store(store)
            .run()
    };
    let (lru, fifo) = runner.join(
        || cold(Store::Lru(capacity)),
        || cold(Store::Fifo(capacity)),
    );
    (lru.result, lru.evictions, fifo.result, fifo.evictions)
}

/// The §3 latency trade, quantified: mean per-request latency for each
/// protocol under a simple link model (one RTT per origin contact plus
/// body transfer time). One worker per protocol.
pub fn latency_comparison(
    workload: &Workload,
    rtt_ms: f64,
    bytes_per_sec: f64,
    runner: &SweepRunner,
) -> Vec<(String, f64)> {
    let config = SimConfig::optimized();
    let specs = [
        ProtocolSpec::PollEveryTime,
        ProtocolSpec::Alex(10),
        ProtocolSpec::Alex(64),
        ProtocolSpec::Ttl(100),
        ProtocolSpec::Invalidation,
    ];
    runner.map(&specs, |&spec| {
        let r = run(workload, spec, &config);
        (r.protocol.clone(), r.mean_latency_ms(rtt_ms, bytes_per_sec))
    })
}

/// Staleness *severity* comparison (extension metric): the paper counts
/// stale hits; this also asks how out-of-date the served copies were.
/// Returns `(protocol label, stale %, mean stale age in hours)` rows
/// (one worker per protocol).
pub fn severity_comparison(
    workload: &Workload,
    runner: &SweepRunner,
) -> Vec<(String, f64, Option<f64>)> {
    let config = SimConfig::optimized();
    let specs = [
        ProtocolSpec::Alex(10),
        ProtocolSpec::Alex(64),
        ProtocolSpec::Ttl(100),
        ProtocolSpec::Ttl(500),
        ProtocolSpec::Invalidation,
    ];
    runner.map(&specs, |&spec| {
        let r = run(workload, spec, &config);
        (r.protocol.clone(), r.stale_pct(), r.mean_stale_age_hours())
    })
}

/// Compare the self-tuning policy against a sweep of fixed Alex
/// thresholds on one workload; the tuned run executes alongside the
/// fixed-threshold sweep. Returns `(self_tuning, fixed_sweep)`.
pub fn selftuning_comparison(
    workload: &Workload,
    thresholds: &[u32],
    runner: &SweepRunner,
) -> (RunResult, Vec<(u32, RunResult)>) {
    let config = SimConfig::optimized();
    runner.join(
        || run(workload, ProtocolSpec::SelfTuning, &config),
        || {
            runner.map(thresholds, |&pct| {
                (pct, run(workload, ProtocolSpec::Alex(pct), &config))
            })
        },
    )
}

/// One `label: bandwidth, staleness, server load` report row.
fn cost_row(label: &str, r: &RunResult) -> String {
    let (mb, stale, ops) = (r.total_mb(), r.stale_pct(), r.server_ops());
    format!("  {label}: {mb:.3} MB, stale {stale:.2}%, {ops} ops\n")
}

/// Every ablation and extension above, plus failure injection and proxy
/// placement, as the text `wcc ablations` prints (and `wcc all` ends
/// with).
pub fn report(runner: &SweepRunner) -> String {
    let mut out = String::from("== Ablation: workload properties (Worrell -> trace-like) ==\n");
    out += &format!(
        "{:<58}{:>10}{:>11}{:>8}{:>7}\n",
        "variant", "alex20 MB", "inval MB", "stale%", "wins?"
    );
    for r in workload_ablation(800, 30_000, 1996, runner) {
        out += &format!(
            "{:<58}{:>10.3}{:>11.3}{:>8.2}{:>7}\n",
            r.variant,
            r.alex.total_mb(),
            r.invalidation.total_mb(),
            r.weak_stale_pct(),
            if r.weak_wins_bandwidth() { "yes" } else { "no" }
        );
    }

    let campus = generate_campus_trace(&CampusProfile::hcs(), 1996);
    let wl = Workload::from_server_trace(campus.trace);

    out += "\n== Ablation: message costing (HCS, Alex@20%) ==\n";
    let (paper, wire) = costing_ablation(&wl, ProtocolSpec::Alex(20), runner);
    out += &format!(
        "  43-byte messages: {:.3} MB | serialised HTTP/1.0: {:.3} MB | behaviour identical: {}\n",
        paper.total_mb(),
        wire.total_mb(),
        paper.cache == wire.cache
    );

    out += "\n== Ablation: dynamic (uncacheable) cgi content (HCS, Alex@20%) ==\n";
    let cgi = webtrace::FileType::Cgi.class_index();
    let (cacheable, dynamic) = dynamic_content_ablation(&wl, ProtocolSpec::Alex(20), cgi, runner);
    out += &format!(
        "  cgi cached: {:.3} MB, {:.2}% miss | cgi forwarded: {:.3} MB, {:.2}% miss\n",
        cacheable.total_mb(),
        cacheable.miss_pct(),
        dynamic.total_mb(),
        dynamic.miss_pct()
    );

    out += "\n== Ablation: self-tuning vs fixed Alex thresholds (HCS) ==\n";
    let (tuned, fixed) = selftuning_comparison(&wl, &[5, 10, 20, 50, 100], runner);
    out += &cost_row("self-tuning ", &tuned);
    for (pct, r) in fixed {
        out += &cost_row(&format!("fixed {pct:>3}%  "), &r);
    }

    out += "\n== Ablation: bounded cache capacity (HCS, Alex@30%) ==\n";
    out += &format!(
        "  {:>10}{:>12}{:>10}{:>9}{:>9}\n",
        "capacity", "bandwidth", "evicted", "miss%", "stale%"
    );
    for p in capacity_sweep(&wl, ProtocolSpec::Alex(30), &[0.02, 0.1, 0.5, 2.0], runner) {
        out += &format!(
            "  {:>9.0}%{:>9.3} MB{:>10}{:>9.2}{:>9.2}\n",
            100.0 * p.capacity_fraction,
            p.result.total_mb(),
            p.evictions,
            p.result.miss_pct(),
            p.result.stale_pct()
        );
    }

    out += "\n== Ablation: eviction policy at 10% capacity (HCS, Alex@30%) ==\n";
    let (lru, le, fifo, fe) = eviction_policy_comparison(&wl, ProtocolSpec::Alex(30), 0.10, runner);
    out += &format!(
        "  LRU : {:.3} MB, {:.2}% miss, {le} evictions | FIFO: {:.3} MB, {:.2}% miss, {fe} evictions\n",
        lru.total_mb(),
        lru.miss_pct(),
        fifo.total_mb(),
        fifo.miss_pct()
    );

    out += "\n== Ablation: mean request latency (HCS; 150ms RTT, 28.8kbps link) ==\n";
    for (name, ms) in latency_comparison(&wl, 150.0, 3_600.0, runner) {
        out += &format!("  {name:<18}: {ms:>8.1} ms/request\n");
    }

    out += "\n== Extension: invalidation under a 12h notification partition (HCS) ==\n";
    let outages = vec![failure::Outage {
        from: wl.start + SimDuration::from_days(5),
        until: wl.start + SimDuration::from_days(5) + SimDuration::from_hours(12),
    }];
    let (part, alex) = failure::resilience_comparison(&wl, &outages, 10, runner);
    out += &format!(
        "  invalidation: {} stale hits, {} failed delivery attempts, {} late notices\n",
        part.result.cache.stale_hits, part.failed_attempts, part.late_deliveries
    );
    out += &format!(
        "  Alex@10%    : {} stale hits, no server-side retry state at all\n",
        alex.cache.stale_hits
    );

    out += "\n== Extension: staleness severity (HCS; how old is stale data?) ==\n";
    for (name, stale_pct, severity) in severity_comparison(&wl, runner) {
        out += &match severity {
            Some(hours) => {
                format!(
                    "  {name:<16}: {stale_pct:>5.2}% stale, {hours:>7.1} h mean staleness age\n"
                )
            }
            None => format!("  {name:<16}: {stale_pct:>5.2}% stale (never serves stale)\n"),
        };
    }

    out += "\n== Extension: proxy placement vs %-remote (Alex@20%) ==\n";
    out += &format!(
        "  {:<6}{:>9}{:>12}{:>12}{:>12}{:>11}{:>11}\n",
        "trace", "remote%", "no-proxy", "boundary", "universal", "bnd-red%", "uni-red%"
    );
    for row in deployment::deployment_comparison(ProtocolSpec::Alex(20), 1996, 1, runner) {
        out += &format!(
            "  {:<6}{:>8.0}%{:>12}{:>12}{:>12}{:>10.1}%{:>10.1}%\n",
            row.trace,
            100.0 * row.remote_fraction,
            row.no_proxy_ops,
            row.boundary_ops,
            row.universal_ops,
            100.0 * row.boundary_reduction(),
            100.0 * row.universal_reduction()
        );
    }

    out += "\n== Extension: per-class TTLs informed by Table 2 (HCS) ==\n";
    let class_ttl = run(&wl, ProtocolSpec::ClassTtlTable2, &SimConfig::optimized());
    out + &cost_row("class-TTL   ", &class_ttl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webtrace::campus::{generate_campus_trace, CampusProfile};

    #[test]
    fn ablation_endpoint_behaviours_differ() {
        let rows = workload_ablation(200, 8_000, 3, &SweepRunner::new(0));
        assert_eq!(rows.len(), 4);
        // The decisive move is the lifetime model: once lifetimes are
        // bimodal (few files change), the weak protocol's bandwidth no
        // longer dwarfs invalidation's, and stale rates collapse.
        let worrell = &rows[0];
        let tracelike = &rows[3];
        assert!(
            tracelike.weak_stale_pct() < worrell.weak_stale_pct(),
            "trace-like stale {:.2}% vs Worrell {:.2}%",
            tracelike.weak_stale_pct(),
            worrell.weak_stale_pct()
        );
        assert!(tracelike.weak_stale_pct() < 5.0);
    }

    #[test]
    fn anticorrelation_cuts_stale_rate_further() {
        let rows = workload_ablation(300, 12_000, 7, &SweepRunner::new(0));
        let uncorrelated = &rows[2];
        let correlated = &rows[3];
        assert!(
            correlated.weak_stale_pct() <= uncorrelated.weak_stale_pct() + 0.05,
            "correlated {:.3}% vs uncorrelated {:.3}%",
            correlated.weak_stale_pct(),
            uncorrelated.weak_stale_pct()
        );
    }

    #[test]
    fn costing_choice_does_not_change_conclusions() {
        // On the synthetic workload (file traffic dominates), swapping the
        // paper's 43-byte messages for exact HTTP/1.0 sizes changes the
        // byte count a little and the behaviour not at all.
        let wl = generate_synthetic(&WorrellConfig::scaled(150, 6_000), 5);
        let (paper, wire) = costing_ablation(&wl, ProtocolSpec::Alex(20), &SweepRunner::new(0));
        assert_eq!(paper.cache, wire.cache);
        assert_eq!(paper.server, wire.server);
        // Real HTTP exchanges are larger than 43 bytes, but still dwarfed
        // by file bodies.
        assert!(wire.traffic.message_bytes > paper.traffic.message_bytes);
        let delta = wire.traffic.message_bytes - paper.traffic.message_bytes;
        assert!(
            delta < paper.traffic.file_bytes,
            "message-size delta {delta} vs file bytes {}",
            paper.traffic.file_bytes
        );
    }

    #[test]
    fn marking_cgi_dynamic_costs_bandwidth_but_not_consistency() {
        use webtrace::FileType;
        let campus = generate_campus_trace(&CampusProfile::hcs(), 21);
        let wl = crate::workload::Workload::from_server_trace(campus.trace).subsample(8);
        let cgi = FileType::Cgi.class_index();
        let (cacheable, dynamic) =
            dynamic_content_ablation(&wl, ProtocolSpec::Alex(20), cgi, &SweepRunner::new(0));
        // Forwarding cgi uncached can only add traffic and misses...
        assert!(dynamic.traffic.total_bytes() >= cacheable.traffic.total_bytes());
        assert!(dynamic.cache.misses >= cacheable.cache.misses);
        // ...and never *increases* staleness (dynamic responses are always
        // fresh from the origin).
        assert!(dynamic.cache.stale_hits <= cacheable.cache.stale_hits);
        assert_eq!(
            dynamic.cache.requests(),
            cacheable.cache.requests(),
            "request conservation"
        );
    }

    #[test]
    fn capacity_sweep_shows_monotone_eviction_pressure() {
        let wl = generate_synthetic(&WorrellConfig::scaled(150, 6_000), 13);
        let fractions = [0.05, 0.25, 1.0, 4.0];
        let points = capacity_sweep(
            &wl,
            ProtocolSpec::Alex(30),
            &fractions,
            &SweepRunner::new(0),
        );
        assert_eq!(points.len(), 4);
        // More capacity, fewer (or equal) evictions and misses.
        for w in points.windows(2) {
            assert!(
                w[1].evictions <= w[0].evictions,
                "evictions must fall with capacity: {} then {}",
                w[0].evictions,
                w[1].evictions
            );
            assert!(w[1].result.cache.misses <= w[0].result.cache.misses);
        }
        // Ample capacity: no evictions at all.
        assert_eq!(points.last().expect("nonempty").evictions, 0);
    }

    #[test]
    fn latency_ordering_matches_protocol_aggressiveness() {
        let wl = generate_synthetic(&WorrellConfig::scaled(150, 6_000), 17);
        // 14.4k modem era
        let rows = latency_comparison(&wl, 150.0, 4_000.0, &SweepRunner::new(0));
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _)| n.contains(name))
                .map(|&(_, ms)| ms)
                .expect("protocol present")
        };
        // Poll-every-time pays a round trip per request: worst latency.
        assert!(get("Poll") > get("Alex 64%"));
        // Invalidation serves locally until a true change: best latency.
        assert!(get("Invalidation") <= get("Alex 10%"));
        assert!(rows.iter().all(|&(_, ms)| ms.is_finite() && ms >= 0.0));
    }

    #[test]
    fn severity_is_bounded_and_ordered() {
        let campus = generate_campus_trace(&CampusProfile::hcs(), 31);
        let wl = crate::workload::Workload::from_server_trace(campus.trace).subsample(4);
        let rows = severity_comparison(&wl, &SweepRunner::new(0));
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _, _)| n == name)
                .expect("protocol present")
        };
        // Invalidation: no stale data, no severity.
        assert_eq!(get("Invalidation").2, None);
        // The tight Alex threshold serves fresher stale data than the
        // long TTL.
        if let (Some(alex), Some(ttl)) = (get("Alex 10%").2, get("TTL 500h").2) {
            assert!(
                alex < ttl,
                "Alex@10% severity {alex:.1}h vs TTL@500h {ttl:.1}h"
            );
        }
        for (name, stale_pct, severity) in &rows {
            assert!(*stale_pct < 5.0, "{name}: {stale_pct}%");
            if let Some(s) = severity {
                assert!(s.is_finite() && *s >= 0.0);
            }
        }
    }

    #[test]
    fn selftuning_is_competitive_with_fixed_thresholds() {
        let campus = generate_campus_trace(&CampusProfile::hcs(), 9);
        let wl = crate::workload::Workload::from_server_trace(campus.trace).subsample(10);
        let (tuned, fixed) = selftuning_comparison(&wl, &[5, 20, 50, 100], &SweepRunner::new(0));
        assert_eq!(fixed.len(), 4);
        // Stale rate stays acceptable...
        assert!(
            tuned.stale_pct() < 5.0,
            "tuned stale {:.2}%",
            tuned.stale_pct()
        );
        // ...and server load is not worse than the most conservative fixed
        // setting (threshold 5 %).
        let conservative = &fixed[0].1;
        assert!(
            tuned.server_ops() <= conservative.server_ops(),
            "tuned {} ops vs fixed-5% {}",
            tuned.server_ops(),
            conservative.server_ops()
        );
    }
}
