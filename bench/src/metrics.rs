//! The benchmark's metric lists — the single place names, units,
//! directions and bounds are written down. `BENCHMARK.json` is
//! `wcc-benchmark manifest` printed to a file, so the two cannot drift;
//! `bench/README.md` explains each metric.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Parse [`Better::label`]'s output.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The nine end-to-end metrics. Every workload reports every one.
///
/// Every bound is about three times the spread (quartile distance over
/// median) usually seen between ten runs of the same code, each with
/// another seed, on the workload where it is widest, and about twice
/// the widest seen in any hour; `bench/README.md` has the measurements. The four timings are
/// calibrated (`crate::reference`), which is what lets their bounds sit
/// below the contract's cap of 0.25 at all. The five counts repeat
/// exactly for a seed; across seeds they move only as far as the order
/// of the requests moves them, because the file population is the
/// workload's, not the seed's (`workload::POPULATION_SEED`). `setup_s`
/// takes the largest bound, as the contract asks.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "hit_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.02,
    },
    // Stale hits / requests in percent, plus one: `stale_pct` itself is
    // 0 by design on two workloads and a bound is a share of the
    // parent's median. With the floor a doubling of stale hits fails on
    // every workload that has any (0.62 % -> 1.24 % reads +38 %).
    EndToEnd {
        name: "stale_pct_plus1",
        unit: "%",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "upstream_kb_per_req",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "origin_ops_per_req",
        unit: "ops",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// A per-layer metric: never gated, reported by the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, prefixed with the layer (crate) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, in ladder order (bottom layer first). The
/// first block times a layer's public functions from the harness
/// (median of [`crate::layers::BATCHES`] batches); the `liveserve.*`
/// counts after it, `stale_pct`, `bench.*`, `spread.*` and `env.*` come
/// from the traced and untraced reps of the workload being run, and
/// read 0 where a simulator workload has no such layer.
pub const PER_LAYER: [PerLayer; 86] = [
    // -> setup_s on all workloads.
    layer("simstats.zipf.sample_ns", "ns", Lower),
    layer("webtrace.campus.gen_ns_per_req", "ns", Lower),
    layer("webtrace.stream.next_ns", "ns", Lower),
    layer("webcache.workload.gen_ns_per_req", "ns", Lower),
    // -> req_per_s on sim-sweep.
    layer("simcore.queue.schedule_pop_ns", "ns", Lower),
    layer("simcore.queue.cancel_ns", "ns", Lower),
    layer("simcore.queue.rearm_ns", "ns", Lower),
    // -> req_per_s on sim-sweep, live-validate.
    layer("originserver.version_at_ns", "ns", Lower),
    layer("originserver.cond_get_ns", "ns", Lower),
    layer("originserver.subscribe_notify_ns", "ns", Lower),
    // -> req_per_s, hit_pct on sim-evict only.
    layer("proxycache.unbounded.op_ns", "ns", Lower),
    layer("proxycache.unbounded.hit_ratio", "ratio", Higher),
    layer("proxycache.unbounded.evictions_per_insert", "ratio", Lower),
    layer("proxycache.lru.op_ns", "ns", Lower),
    layer("proxycache.lru.hit_ratio", "ratio", Higher),
    layer("proxycache.lru.evictions_per_insert", "ratio", Lower),
    layer("proxycache.fifo.op_ns", "ns", Lower),
    layer("proxycache.fifo.hit_ratio", "ratio", Higher),
    layer("proxycache.fifo.evictions_per_insert", "ratio", Lower),
    layer("proxycache.gds.op_ns", "ns", Lower),
    layer("proxycache.gds.hit_ratio", "ratio", Higher),
    layer("proxycache.gds.evictions_per_insert", "ratio", Lower),
    layer("proxycache.lfu.op_ns", "ns", Lower),
    layer("proxycache.lfu.hit_ratio", "ratio", Higher),
    layer("proxycache.lfu.evictions_per_insert", "ratio", Lower),
    // -> req_per_s, hit_pct on sim-sweep.
    layer("consistency.ttl.decide_ns", "ns", Lower),
    layer("consistency.alex.decide_ns", "ns", Lower),
    layer("consistency.never.decide_ns", "ns", Lower),
    layer("consistency.renewable.decide_ns", "ns", Lower),
    layer("consistency.risk.decide_ns", "ns", Lower),
    layer("consistency.alex.serve_ratio", "ratio", Higher),
    // -> req_per_s on sim-sweep.
    layer("webcache.sim.ttl.ns_per_req", "ns", Lower),
    layer("webcache.sim.alex.ns_per_req", "ns", Lower),
    layer("webcache.sim.inval.ns_per_req", "ns", Lower),
    layer("webcache.sweep.jobs2_speedup", "ratio", Higher),
    // -> lat_p50_us, req_per_s on live-hit (2 messages/request; 4 on
    // live-validate); upstream_kb_per_req on live-validate.
    layer("httpsim.request.serialize_ns", "ns", Lower),
    layer("httpsim.request.parse_ns", "ns", Lower),
    layer("httpsim.response.serialize_ns", "ns", Lower),
    layer("httpsim.response.parse_ns", "ns", Lower),
    layer("httpsim.date.format_ns", "ns", Lower),
    layer("httpsim.date.parse_ns", "ns", Lower),
    layer("httpsim.response.head_bytes", "bytes", Lower),
    // -> setup_s on live-*.
    layer("liveserve.spawn_ms", "ms", Lower),
    // -> lat_p50_us on live-hit, live-validate.
    layer("liveserve.origin.direct_200_us", "us", Lower),
    layer("liveserve.origin.direct_304_us", "us", Lower),
    layer("liveserve.proxy.hit_over_origin200_us", "us", Lower),
    // Report only (wcc-load is not on any workload's path).
    layer("wcc-load.schedule.gen_ns_per_arrival", "ns", Lower),
    layer("wcc-load.open.sojourn_p50_us", "us", Lower),
    layer("wcc-load.open.sojourn_p99_us", "us", Lower),
    layer("wcc-load.open.shed_frac", "ratio", Lower),
    layer("wcc-load.open.pacer_late_p99_us", "us", Lower),
    // -> req_per_s on sim-sweep / live-hit when a probe is attached.
    layer("wcc-obs.trace.record_ns", "ns", Lower),
    layer("wcc-obs.metrics.record_ns", "ns", Lower),
    layer("wcc-obs.sim.overhead_pct", "%", Lower),
    layer("wcc-obs.live.overhead_pct", "%", Lower),
    // From the traced rep of the workload being run.
    // -> req_per_s on live-*.
    layer("liveserve.proxy.cpu_us_per_req", "us", Lower),
    layer("liveserve.proxy.ctxsw_per_req", "count", Lower),
    layer("liveserve.proxy.runq_us_per_req", "us", Lower),
    layer("liveserve.origin.cpu_us_per_req", "us", Lower),
    layer("liveserve.origin.ctxsw_per_req", "count", Lower),
    layer("liveserve.origin.runq_us_per_req", "us", Lower),
    layer("liveserve.client.cpu_us_per_req", "us", Lower),
    layer("liveserve.client.ctxsw_per_req", "count", Lower),
    layer("liveserve.client.runq_us_per_req", "us", Lower),
    // -> req_per_s on live-validate.
    layer("liveserve.pool.dials", "count", Lower),
    layer("liveserve.pool.reuses_per_req", "ratio", Higher),
    layer("liveserve.pool.saturations", "count", Lower),
    // -> req_per_s on live-inval only.
    layer("liveserve.control.publish_us", "us", Lower),
    layer("liveserve.control.invalidations_per_req", "ratio", Lower),
    layer("liveserve.proxy.evictions_per_req", "ratio", Lower),
    // -> lat_p99_us on live-*.
    layer("liveserve.proxy.lat_p999_us", "us", Lower),
    // The paper's stale-hit rate as it is (0 by design on live-validate
    // and live-inval, which is why the gated form is `stale_pct_plus1`).
    layer("stale_pct", "%", Lower),
    // Explain a noisy set.
    layer("spread.req_per_s.epoch_median", "1/s", Higher),
    layer("spread.req_per_s.epoch_iqr_pct", "%", Lower),
    layer("spread.lat_p50_us.epoch_median", "us", Lower),
    layer("spread.lat_p50_us.epoch_iqr_pct", "%", Lower),
    layer("spread.lat_p99_us.epoch_median", "us", Lower),
    layer("spread.lat_p99_us.epoch_iqr_pct", "%", Lower),
    layer("spread.setup_s.epoch_median", "s", Lower),
    layer("spread.setup_s.epoch_iqr_pct", "%", Lower),
    // The reference work's own wall time: how fast the box ran.
    layer("bench.ref_slice_ms", "ms", Lower),
    layer("bench.ref_slice_iqr_pct", "%", Lower),
    layer("bench.warmup_s", "s", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("env.steal_pct", "%", Lower),
    layer("env.loadavg1", "count", Lower),
];

/// The unit of a metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for w in crate::workload::WORKLOADS {
            assert!(valid_name(w.name));
            assert!(seen.insert(w.name), "{} collides with a metric", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
