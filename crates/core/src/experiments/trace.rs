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
//! merge) into the tables `wcc metrics` prints, with the heap bytes of
//! the tables the sweep held as `mem.*` gauges.

use std::fmt::Write as _;

use wcc_obs::{MetricsProbe, MetricsRegistry, Probe, TraceProbe};

use crate::experiments::{DataSet, Figure, Scale};
use crate::sweep::SweepRunner;
use crate::workload::{Workload, WorrellConfig};
use crate::Experiment;

/// A figure whose experiment can be traced: any row of the figure table
/// with a swept [`DataSet`] (Figures 2–8). Figures sharing a data set
/// share a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTarget {
    figure: u32,
    data: DataSet,
}

impl TraceTarget {
    /// The target for a figure-table row; `None` for Figure 1, which
    /// sweeps nothing.
    pub fn of(figure: Figure) -> Option<Self> {
        figure.data().map(|data| TraceTarget {
            figure: figure.number,
            data,
        })
    }

    /// Parse `fig2`..`fig8` (or bare `2`..`8`).
    pub fn parse(s: &str) -> Option<Self> {
        let number = s.strip_prefix("fig").unwrap_or(s).parse().ok()?;
        Figure::lookup(number).and_then(TraceTarget::of)
    }

    /// Figure 4's target: what the smoke check and `wcc metrics` trace.
    pub fn fig4() -> Self {
        Figure::lookup(4)
            .and_then(TraceTarget::of)
            .expect("figure 4 is a sweep figure")
    }

    /// The canonical name (`"fig8"`).
    pub fn label(self) -> String {
        format!("fig{}", self.figure)
    }
}

/// Run every `(workload, protocol)` cell of `target`'s sweep — per
/// workload, [`Scale::points`] — with a fresh probe from `probe`
/// attached, fanned over `runner`. Returns the workloads and, in grid
/// order whatever the worker count, each cell's `"workload/protocol"`
/// label with its probe and the heap bytes of the store its run left.
fn probed_sweep<P: Probe + Send>(
    phase: &str,
    target: TraceTarget,
    scale: &Scale,
    runner: &SweepRunner,
    probe: impl Fn() -> P + Sync,
) -> (Vec<Workload>, Vec<(String, P, usize)>) {
    let _span = wcc_obs::profile::global().span(&format!("{phase} {}", target.label()));
    let config = target.data.config();
    let workloads: Vec<Workload> = target.data.workloads(scale).collect();
    let points = scale.points();
    let grid: Vec<_> = workloads
        .iter()
        .flat_map(|wl| points.iter().map(move |&spec| (wl, spec)))
        .collect();
    let cells = runner.map(&grid, |&(wl, spec)| {
        let mut probe = probe();
        let (_, store_bytes) = Experiment::new(wl)
            .protocol(spec)
            .config(config)
            .probe(&mut probe)
            .run_sized();
        (format!("{}/{}", wl.name, spec.label()), probe, store_bytes)
    });
    (workloads, cells)
}

/// Capture `target`'s experiment as a deterministic JSONL document.
///
/// Line 1 is the document header; each sweep point contributes a point
/// header (`recorded`/`dropped` make ring evictions explicit) followed
/// by up to `limit` buffered event lines. Byte-identical output for
/// identical `(target, scale, limit)` at any worker count.
pub fn capture(target: TraceTarget, scale: &Scale, runner: &SweepRunner, limit: usize) -> String {
    let (workloads, cells) =
        probed_sweep("trace", target, scale, runner, || TraceProbe::new(limit));
    let mut doc = format!(
        "{{\"trace\":\"{}\",\"workloads\":{},\"points\":{},\"limit\":{limit}}}\n",
        target.label(),
        workloads.len(),
        cells.len(),
    );
    for (label, probe, _) in cells {
        writeln!(
            doc,
            "{{\"point\":\"{label}\",\"recorded\":{},\"dropped\":{}}}",
            probe.recorded(),
            probe.dropped()
        )
        .expect("infallible");
        doc.push_str(&probe.to_jsonl_string());
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
/// and with two workers. Returns whether the two are byte-equal, and the
/// sequential one.
pub fn capture_smoke() -> (bool, String) {
    let (target, scale) = (TraceTarget::fig4(), smoke_scale());
    let sequential = capture(target, &scale, &SweepRunner::new(1), 512);
    let parallel = capture(target, &scale, &SweepRunner::new(2), 512);
    (sequential == parallel, sequential)
}

/// Run `target`'s sweep with a [`MetricsProbe`] per point and merge the
/// registries, then record as `mem.*` gauges the heap bytes of the
/// tables the sweep held: each workload's population, a gauge a table
/// (`mem.population.versions`, `.paths`, `.ends`, `.modifications` —
/// every point is observed, so its replay built the modification index),
/// the workload's own tables (`mem.workload.requests`, `.classes`), and
/// the store each run left (`mem.store.unbounded`, the sweep's store). A
/// gauge keeps the largest figure. Deterministic for a fixed
/// `(target, scale)`.
pub fn collect_metrics(
    target: TraceTarget,
    scale: &Scale,
    runner: &SweepRunner,
) -> MetricsRegistry {
    let (workloads, cells) = probed_sweep("metrics", target, scale, runner, MetricsProbe::new);
    let mut merged = MetricsRegistry::new();
    let mut tables = Vec::new();
    for (_, probe, store_bytes) in &cells {
        merged.merge(probe.registry());
        tables.push(("store", "unbounded", *store_bytes));
    }
    for wl in &workloads {
        let population = wl.population.heap_tables();
        tables.extend(population.map(|(t, b)| ("population", t, b)));
        tables.extend(wl.heap_tables().map(|(t, b)| ("workload", t, b)));
    }
    for (group, table, bytes) in tables {
        let bytes = i64::try_from(bytes).unwrap_or(i64::MAX);
        merged.gauge_max(&format!("mem.{group}.{table}"), bytes);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_gauges_are_the_sweeps_tables() {
        let (target, scale) = (TraceTarget::fig4(), smoke_scale());
        let registry = collect_metrics(target, &scale, &SweepRunner::new(2));
        let [wl] = &target.data.workloads(&scale).collect::<Vec<_>>()[..] else {
            panic!("figure 4 sweeps one workload");
        };
        let gauge = |name: &str| registry.gauge(&format!("mem.{name}"));
        let mut largest_store = 0;
        for spec in scale.points() {
            let mut probe = MetricsProbe::new();
            let (_, store_bytes) = Experiment::new(wl)
                .protocol(spec)
                .config(target.data.config())
                .probe(&mut probe)
                .run_sized();
            largest_store = largest_store.max(store_bytes as i64);
        }
        assert!(largest_store > 0);
        assert_eq!(gauge("store.unbounded"), Some(largest_store));
        // The sweep's replays built the index; this copy builds it here.
        wl.population.modifications();
        for (table, bytes) in wl.population.heap_tables() {
            assert!(bytes > 0, "{table}");
            assert_eq!(gauge(&format!("population.{table}")), Some(bytes as i64));
        }
        for (table, bytes) in wl.heap_tables() {
            assert_eq!(gauge(&format!("workload.{table}")), Some(bytes as i64));
        }
    }

    #[test]
    fn targets_parse_both_spellings() {
        let fig8 = TraceTarget::parse("fig8").expect("figure 8 sweeps");
        assert_eq!(
            (fig8.label().as_str(), fig8.data),
            ("fig8", DataSet::Traced)
        );
        assert_eq!(TraceTarget::parse("2").map(|t| t.data), Some(DataSet::Base));
        assert_eq!(TraceTarget::parse("fig1"), None);
        assert_eq!(TraceTarget::parse("fig9"), None);
        assert_eq!(TraceTarget::parse("nine"), None);
    }

    #[test]
    fn capture_is_identical_across_worker_counts() {
        let scale = smoke_scale();
        let a = capture(TraceTarget::fig4(), &scale, &SweepRunner::new(1), 128);
        let b = capture(TraceTarget::fig4(), &scale, &SweepRunner::new(4), 128);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"trace\":\"fig4\","));
    }

    #[test]
    fn capture_reports_ring_drops_in_point_headers() {
        let scale = smoke_scale();
        // A 1-event ring drops almost everything; the headers must say so.
        let doc = capture(TraceTarget::fig4(), &scale, &SweepRunner::new(1), 1);
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
        let m = collect_metrics(TraceTarget::fig4(), &scale, &SweepRunner::new(2));
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
        let wl = crate::generate_synthetic(&scale.worrell, scale.seed);
        let points = (scale.alex_thresholds.len() + scale.ttl_hours.len() + 1) as u64;
        assert_eq!(outcomes, points * wl.requests.len() as u64);
    }
}
