//! `wcc trace` and `wcc metrics`: deterministic structured-event capture
//! over the figure experiments.
//!
//! [`capture`] re-runs one figure's protocol sweep with a bounded
//! [`TraceProbe`] attached to every point and renders the whole capture
//! as one JSONL document: a document header, then per point a point
//! header followed by that point's buffered events. Points are fanned
//! over the [`SweepRunner`] but *assembled in point order*, and every
//! event line has a fixed field order, so the document is byte-identical
//! at any `--jobs` setting — the property `capture_smoke` self-checks
//! and `tests/observability.rs` pins.
//!
//! [`collect_metrics`] runs the same sweep with a [`MetricsProbe`] per
//! point and merges the per-point registries (counters add, histograms
//! merge) into the tables `wcc metrics` prints.

use std::fmt::Write as _;

use wcc_obs::{MetricsProbe, MetricsRegistry, TraceProbe};
use webtrace::campus::{generate_campus_trace, CampusProfile};

use crate::experiments::Scale;
use crate::sim::SimConfig;
use crate::sweep::SweepRunner;
use crate::workload::{generate_synthetic, Workload, WorrellConfig};
use crate::Experiment;
use crate::ProtocolSpec;

/// Which figure's experiment to trace. Figures sharing a data set share
/// a capture (2/3: base simulator; 4/5: optimized; 6/7/8: campus
/// traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTarget {
    /// Figures 2–3: base simulator on the synthetic workload.
    Fig2,
    /// Figures 2–3 companion (same data set as [`TraceTarget::Fig2`]).
    Fig3,
    /// Figures 4–5: optimized simulator on the synthetic workload.
    Fig4,
    /// Figures 4–5 companion (same data set as [`TraceTarget::Fig4`]).
    Fig5,
    /// Figures 6–8: optimized simulator on the campus traces.
    Fig6,
    /// Figures 6–8 companion (same data set as [`TraceTarget::Fig6`]).
    Fig7,
    /// Figures 6–8 companion (same data set as [`TraceTarget::Fig6`]).
    Fig8,
}

impl TraceTarget {
    /// Parse `fig2`..`fig8` (or bare `2`..`8`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.strip_prefix("fig").unwrap_or(s) {
            "2" => Some(TraceTarget::Fig2),
            "3" => Some(TraceTarget::Fig3),
            "4" => Some(TraceTarget::Fig4),
            "5" => Some(TraceTarget::Fig5),
            "6" => Some(TraceTarget::Fig6),
            "7" => Some(TraceTarget::Fig7),
            "8" => Some(TraceTarget::Fig8),
            _ => None,
        }
    }

    /// The canonical name (`"fig8"`).
    pub fn label(self) -> &'static str {
        match self {
            TraceTarget::Fig2 => "fig2",
            TraceTarget::Fig3 => "fig3",
            TraceTarget::Fig4 => "fig4",
            TraceTarget::Fig5 => "fig5",
            TraceTarget::Fig6 => "fig6",
            TraceTarget::Fig7 => "fig7",
            TraceTarget::Fig8 => "fig8",
        }
    }

    /// The simulator configuration this figure runs under.
    fn config(self) -> SimConfig {
        match self {
            TraceTarget::Fig2 | TraceTarget::Fig3 => SimConfig::base(),
            _ => SimConfig::optimized(),
        }
    }

    /// The workload set this figure replays.
    fn workloads(self, scale: &Scale) -> Vec<Workload> {
        match self {
            TraceTarget::Fig2 | TraceTarget::Fig3 | TraceTarget::Fig4 | TraceTarget::Fig5 => {
                vec![generate_synthetic(&scale.worrell, scale.seed)]
            }
            TraceTarget::Fig6 | TraceTarget::Fig7 | TraceTarget::Fig8 => CampusProfile::all()
                .iter()
                .map(|p| {
                    let campus = generate_campus_trace(p, scale.seed);
                    Workload::from_server_trace(&campus.trace).subsample(scale.trace_subsample)
                })
                .collect(),
        }
    }
}

/// One `(workload, protocol)` cell of a figure's sweep.
struct TracePoint {
    workload: usize,
    label: String,
    spec: ProtocolSpec,
}

/// The figure's sweep grid in canonical order: per workload, the Alex
/// thresholds, then the TTL values, then the invalidation reference —
/// the same order the figure drivers run.
fn grid(workloads: &[Workload], scale: &Scale) -> Vec<TracePoint> {
    let mut points = Vec::new();
    for (w, wl) in workloads.iter().enumerate() {
        let specs = scale
            .alex_thresholds
            .iter()
            .map(|&pct| ProtocolSpec::Alex(pct))
            .chain(scale.ttl_hours.iter().map(|&h| ProtocolSpec::Ttl(h)))
            .chain(std::iter::once(ProtocolSpec::Invalidation));
        for spec in specs {
            points.push(TracePoint {
                workload: w,
                label: format!("{}/{}", wl.name, spec.label()),
                spec,
            });
        }
    }
    points
}

/// Capture `target`'s experiment as a deterministic JSONL document.
///
/// Line 1 is the document header; each sweep point contributes a point
/// header (`recorded`/`dropped` make ring evictions explicit) followed
/// by up to `limit` buffered event lines. Byte-identical output for
/// identical `(target, scale, limit)` at any worker count.
pub fn capture(target: TraceTarget, scale: &Scale, runner: &SweepRunner, limit: usize) -> String {
    let _span = wcc_obs::profile::global().span(&format!("trace {}", target.label()));
    let config = target.config();
    let workloads = target.workloads(scale);
    let points = grid(&workloads, scale);

    let sections = runner.map(&points, |point| {
        let mut probe = TraceProbe::new(limit);
        Experiment::new(&workloads[point.workload])
            .protocol(point.spec)
            .config(config)
            .probe(&mut probe)
            .run();
        let mut out = String::with_capacity(64 + probe.len() * 64);
        writeln!(
            out,
            "{{\"point\":\"{}\",\"recorded\":{},\"dropped\":{}}}",
            point.label,
            probe.recorded(),
            probe.dropped()
        )
        .expect("infallible");
        out.push_str(&probe.to_jsonl_string());
        out
    });

    let mut doc = format!(
        "{{\"trace\":\"{}\",\"workloads\":{},\"points\":{},\"limit\":{limit}}}\n",
        target.label(),
        workloads.len(),
        points.len(),
    );
    for section in sections {
        doc.push_str(&section);
    }
    doc
}

/// A deliberately tiny scale for the self-check and CI smoke.
fn smoke_scale() -> Scale {
    Scale {
        worrell: WorrellConfig::scaled(60, 1_500),
        alex_thresholds: vec![0, 20],
        ttl_hours: vec![0, 100],
        trace_subsample: 8,
        seed: 1996,
    }
}

/// `wcc trace --smoke`: capture a tiny figure-4 document sequentially
/// and with two workers, and demand byte equality. Returns the capture
/// on success, the differing pair on failure.
pub fn capture_smoke() -> Result<String, (String, String)> {
    let scale = smoke_scale();
    let sequential = capture(TraceTarget::Fig4, &scale, &SweepRunner::new(1), 512);
    let parallel = capture(TraceTarget::Fig4, &scale, &SweepRunner::new(2), 512);
    if sequential == parallel {
        Ok(sequential)
    } else {
        Err((sequential, parallel))
    }
}

/// Run `target`'s sweep with a [`MetricsProbe`] per point and merge the
/// registries. Deterministic for a fixed `(target, scale)`.
pub fn collect_metrics(
    target: TraceTarget,
    scale: &Scale,
    runner: &SweepRunner,
) -> MetricsRegistry {
    let _span = wcc_obs::profile::global().span(&format!("metrics {}", target.label()));
    let config = target.config();
    let workloads = target.workloads(scale);
    let points = grid(&workloads, scale);

    let registries = runner.map(&points, |point| {
        let mut probe = MetricsProbe::new();
        Experiment::new(&workloads[point.workload])
            .protocol(point.spec)
            .config(config)
            .probe(&mut probe)
            .run();
        probe.into_registry()
    });

    let mut merged = MetricsRegistry::new();
    for r in &registries {
        merged.merge(r);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_parse_both_spellings() {
        assert_eq!(TraceTarget::parse("fig8"), Some(TraceTarget::Fig8));
        assert_eq!(TraceTarget::parse("2"), Some(TraceTarget::Fig2));
        assert_eq!(TraceTarget::parse("fig1"), None);
        assert_eq!(TraceTarget::parse("nine"), None);
    }

    #[test]
    fn capture_is_identical_across_worker_counts() {
        let scale = smoke_scale();
        let a = capture(TraceTarget::Fig4, &scale, &SweepRunner::new(1), 128);
        let b = capture(TraceTarget::Fig4, &scale, &SweepRunner::new(4), 128);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"trace\":\"fig4\","));
    }

    #[test]
    fn capture_reports_ring_drops_in_point_headers() {
        let scale = smoke_scale();
        // A 1-event ring drops almost everything; the headers must say so.
        let doc = capture(TraceTarget::Fig4, &scale, &SweepRunner::new(1), 1);
        let header = doc
            .lines()
            .find(|l| l.starts_with("{\"point\":"))
            .expect("at least one point header");
        assert!(header.contains("\"dropped\":"), "{header}");
        assert!(!header.contains("\"dropped\":0,"), "tiny ring must drop");
    }

    #[test]
    fn metrics_see_the_whole_grid() {
        let scale = smoke_scale();
        let m = collect_metrics(TraceTarget::Fig4, &scale, &SweepRunner::new(2));
        // Every grid point replays every request; outcome counters must
        // sum to points × requests.
        let outcomes: u64 = [
            "request.fresh_hit",
            "request.stale_hit",
            "request.miss",
            "request.validated_fresh",
            "request.validated_stale",
            "request.uncacheable",
        ]
        .iter()
        .map(|n| m.counter(n))
        .sum();
        let wl = generate_synthetic(&scale.worrell, scale.seed);
        let points = (scale.alex_thresholds.len() + scale.ttl_hours.len() + 1) as u64;
        assert_eq!(outcomes, points * wl.requests.len() as u64);
    }
}
