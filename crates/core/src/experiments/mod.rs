//! One driver per paper table and figure.
//!
//! Every experiment follows the paper's protocol-sweep structure: the Alex
//! update threshold runs 0–100 %, the TTL runs 0–500 hours, and the
//! parameter-free invalidation protocol provides the reference line. Each
//! driver returns structured rows; [`report`] renders them as the textual
//! equivalent of the paper's plots.
//!
//! [`FIGURES`] is the one figure table: number → panel and [`DataSet`],
//! from which title and renderer follow. `wcc figure N`, `wcc all`,
//! `wcc trace figN` and `wcc metrics` all dispatch from it; a data set
//! states its simulator configuration, its workloads and (through
//! [`Scale::points`]) its point order once.
//!
//! | Experiment | Paper artifact | Driver |
//! |---|---|---|
//! | hierarchy collapse bias | Figure 1 | [`hierarchy_bias`] |
//! | base-simulator bandwidth / miss rates | Figures 2–3 | [`DataSet::Base`], [`base`] |
//! | optimized-simulator bandwidth / miss rates | Figures 4–5 | [`DataSet::Optimized`], [`optimized`] |
//! | trace-driven bandwidth / miss rates / server load | Figures 6–8 | [`DataSet::Traced`], [`traced`] |
//! | campus mutability statistics | Table 1 | [`tables`] |
//! | file-type access/lifetime profile | Table 2 | [`tables`] |
//! | design-choice ablations | (extensions) | [`ablations`] |
//! | invalidation under partitions | (§1/§6 resilience claim) | [`failure`] |
//! | proxy placement vs % remote | (Table 1 extension) | [`deployment`] |
//! | Figure 1 bias at trace scale | (§3 extension) | [`hierarchy_trace`] |
//! | structured-event capture / metrics | (observability) | [`trace`] |
//! | literature policies + eviction comparison | (decision-API extensions) | [`policies`] |

pub mod ablations;
pub mod base;
pub mod deployment;
pub mod failure;
pub mod hierarchy_bias;
pub mod hierarchy_trace;
pub mod optimized;
pub mod policies;
pub mod report;
pub mod tables;
pub mod trace;
pub mod traced;

use crate::sim::{RunResult, SimConfig};
use crate::sweep::SweepRunner;
use crate::workload::{generate_synthetic, Workload, WorrellConfig};
use crate::ProtocolSpec;

/// A parameter sweep of one protocol family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Family label (`"Alex"` or `"TTL"`).
    pub family: &'static str,
    /// `(parameter, result)` points. For Alex the parameter is the update
    /// threshold in percent, for TTL the TTL in hours.
    pub points: Vec<(f64, RunResult)>,
}

impl Sweep {
    /// The parameter value whose result minimises `metric`; ties take the
    /// smallest parameter.
    pub fn argmin_by<F: Fn(&RunResult) -> f64>(&self, metric: F) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| {
                metric(&a.1)
                    .partial_cmp(&metric(&b.1))
                    .expect("metrics are finite")
                    .then(a.0.partial_cmp(&b.0).expect("parameters are finite"))
            })
            .map(|&(p, _)| p)
    }

    /// The smallest parameter whose result satisfies `pred`, scanning in
    /// increasing parameter order.
    pub fn first_param_where<F: Fn(&RunResult) -> bool>(&self, pred: F) -> Option<f64> {
        self.points.iter().find(|(_, r)| pred(r)).map(|&(p, _)| p)
    }
}

/// A complete simulator report: both families swept against the
/// invalidation reference — the content of one figure pair
/// (bandwidth + miss-rate panels).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulator name for report headers.
    pub name: String,
    /// Alex threshold sweep.
    pub alex: Sweep,
    /// TTL sweep.
    pub ttl: Sweep,
    /// The invalidation-protocol reference run.
    pub invalidation: RunResult,
}

/// Experiment sizing: the full paper-scale configuration or a fast one
/// for unit tests and smoke benches.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Synthetic (Worrell) workload configuration.
    pub worrell: WorrellConfig,
    /// Alex thresholds to sweep, percent.
    pub alex_thresholds: Vec<u32>,
    /// TTL values to sweep, hours.
    pub ttl_hours: Vec<u64>,
    /// Keep every k-th trace request (1 = full trace).
    pub trace_subsample: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Paper-resolution sweeps on the paper-size workload.
    pub fn full() -> Self {
        Scale {
            worrell: WorrellConfig::paper_run(),
            alex_thresholds: (0..=100).step_by(10).collect(),
            ttl_hours: (0..=500).step_by(50).collect(),
            trace_subsample: 1,
            seed: 1996,
        }
    }

    /// A fast configuration for tests: same shapes, minutes less compute.
    pub fn quick() -> Self {
        Scale {
            worrell: WorrellConfig::scaled(150, 6_000),
            alex_thresholds: vec![0, 10, 40, 100],
            ttl_hours: vec![0, 50, 150, 300, 500],
            trace_subsample: 8,
            seed: 1996,
        }
    }

    /// The sweep's points in the order every driver runs and reports
    /// them: the Alex thresholds, the TTLs, then the invalidation
    /// reference.
    pub fn points(&self) -> Vec<ProtocolSpec> {
        let alex = self
            .alex_thresholds
            .iter()
            .map(|&pct| ProtocolSpec::Alex(pct));
        let ttl = self.ttl_hours.iter().map(|&h| ProtocolSpec::Ttl(h));
        alex.chain(ttl)
            .chain(std::iter::once(ProtocolSpec::Invalidation))
            .collect()
    }
}

/// The data set behind a sweep figure: which simulator runs which
/// workloads. Figures sharing a data set differ only in the panel they
/// render (2/3, 4/5, 6/7/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSet {
    /// Base simulator on the synthetic Worrell workload.
    Base,
    /// Optimized simulator on the same workload.
    Optimized,
    /// Optimized simulator on the DAS/FAS/HCS campus traces.
    Traced,
}

impl DataSet {
    /// The simulator configuration the data set runs under.
    pub fn config(self) -> SimConfig {
        match self {
            DataSet::Base => SimConfig::base(),
            DataSet::Optimized | DataSet::Traced => SimConfig::optimized(),
        }
    }

    /// The workloads the data set replays, in report order.
    pub fn workloads(self, scale: &Scale) -> Vec<Workload> {
        match self {
            DataSet::Base | DataSet::Optimized => {
                vec![generate_synthetic(&scale.worrell, scale.seed)]
            }
            DataSet::Traced => traced::campus_workloads(scale),
        }
    }

    /// One swept report per workload.
    pub fn sweeps(self, scale: &Scale, runner: &SweepRunner) -> Vec<SimReport> {
        let config = self.config();
        self.workloads(scale)
            .iter()
            .map(|wl| base::sweep_protocols(wl, scale, config, runner))
            .collect()
    }

    /// The report the data set's figures plot: the single synthetic
    /// sweep under the simulator's name, or the campus traces'
    /// counter-merged average.
    pub fn report(self, scale: &Scale, runner: &SweepRunner) -> SimReport {
        let mut sweeps = self.sweeps(scale, runner);
        let name = match self {
            DataSet::Base => "base simulator",
            DataSet::Optimized => "optimized simulator",
            DataSet::Traced => return traced::average(&sweeps),
        };
        SimReport {
            name: name.to_string(),
            ..sweeps.remove(0)
        }
    }
}

/// What a figure plots: Figure 1's fixed scenarios, or one panel of a
/// data set's protocol sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plot {
    /// The four hierarchy-collapse scenarios (no sweep, no scale).
    Hierarchy,
    /// Total MB exchanged per parameter setting.
    Bandwidth(DataSet),
    /// Cache-miss and stale-hit rates per parameter setting.
    MissRates(DataSet),
    /// Server operations per parameter setting.
    ServerLoad(DataSet),
}

/// The paper's Figures 1–8, in order.
pub const FIGURES: [Plot; 8] = [
    Plot::Hierarchy,
    Plot::Bandwidth(DataSet::Base),
    Plot::MissRates(DataSet::Base),
    Plot::Bandwidth(DataSet::Optimized),
    Plot::MissRates(DataSet::Optimized),
    Plot::Bandwidth(DataSet::Traced),
    Plot::MissRates(DataSet::Traced),
    Plot::ServerLoad(DataSet::Traced),
];

/// One row of the figure table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure {
    /// The paper's figure number.
    pub number: u32,
    /// What it plots.
    pub plot: Plot,
}

impl Figure {
    /// The table's rows, in paper order.
    pub fn all() -> impl Iterator<Item = Figure> {
        (1..)
            .zip(FIGURES)
            .map(|(number, plot)| Figure { number, plot })
    }

    /// The table row for figure `number`.
    pub fn lookup(number: u32) -> Option<Figure> {
        Figure::all().find(|f| f.number == number)
    }

    /// The swept data set, if the figure has one (all but Figure 1).
    pub fn data(&self) -> Option<DataSet> {
        match self.plot {
            Plot::Hierarchy => None,
            Plot::Bandwidth(data) | Plot::MissRates(data) | Plot::ServerLoad(data) => Some(data),
        }
    }

    /// Run the figure's experiment and render it.
    pub fn render(&self, scale: &Scale, runner: &SweepRunner) -> String {
        self.data()
            .and_then(|data| self.panel(&data.report(scale, runner)))
            .unwrap_or_else(|| report::render_figure1(&hierarchy_bias::run_figure1()))
    }

    /// The figure's panel of `report`, its data set's [`DataSet::report`]
    /// — computed once, it serves every figure on that data set. `None`
    /// for Figure 1, which plots fixed scenarios instead of a sweep.
    pub fn panel(&self, report: &SimReport) -> Option<String> {
        let (panel, render): (_, fn(&str, &SimReport) -> String) = match self.plot {
            Plot::Hierarchy => return None,
            Plot::Bandwidth(_) => ("bandwidth", report::render_bandwidth_figure),
            Plot::MissRates(_) => ("miss/stale rates", report::render_missrate_figure),
            Plot::ServerLoad(_) => ("server load", report::render_server_load_figure),
        };
        Some(render(&format!("Figure {}: {panel}", self.number), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::RunResult;
    use simcore::{CacheStats, ServerLoad, TrafficMeter};

    fn result(bytes: u64, stale: u64) -> RunResult {
        let mut traffic = TrafficMeter::default();
        traffic.add_file_transfer(bytes);
        RunResult {
            protocol: "t".to_string(),
            traffic,
            cache: CacheStats {
                fresh_hits: 10,
                stale_hits: stale,
                misses: 1,
                validations_not_modified: 0,
                validations_modified: 0,
            },
            server: ServerLoad::default(),
            stale_age_total: simcore::SimDuration::ZERO,
        }
    }

    #[test]
    fn argmin_finds_smallest_metric() {
        let sweep = Sweep {
            family: "Alex",
            points: vec![
                (0.0, result(300, 0)),
                (50.0, result(100, 2)),
                (100.0, result(100, 5)),
            ],
        };
        // Tie on bytes between 50 and 100: smallest parameter wins.
        assert_eq!(sweep.argmin_by(|r| r.total_mb()), Some(50.0));
    }

    #[test]
    fn first_param_where_scans_in_order() {
        let sweep = Sweep {
            family: "TTL",
            points: vec![
                (0.0, result(1, 0)),
                (100.0, result(1, 3)),
                (200.0, result(1, 6)),
            ],
        };
        assert_eq!(
            sweep.first_param_where(|r| r.cache.stale_hits >= 3),
            Some(100.0)
        );
        assert_eq!(sweep.first_param_where(|r| r.cache.stale_hits > 99), None);
    }

    #[test]
    fn every_figure_renders_non_empty_at_quick_scale() {
        let (scale, runner) = (Scale::quick(), SweepRunner::sequential());
        for figure in Figure::all() {
            let text = figure.render(&scale, &runner);
            let heading = format!("== Figure {}: ", figure.number);
            assert!(text.starts_with(&heading), "{text}");
            assert!(text.lines().count() > 2, "{text}");
        }
        assert_eq!(Figure::all().count(), 8);
        assert_eq!(Figure::lookup(1).and_then(|f| f.data()), None);
        assert_eq!(
            Figure::lookup(8).and_then(|f| f.data()),
            Some(DataSet::Traced)
        );
        assert_eq!(Figure::lookup(9), None);
        assert_eq!(Figure::lookup(0), None);
    }

    #[test]
    fn scales_differ_in_size_not_shape() {
        let full = Scale::full();
        let quick = Scale::quick();
        assert!(full.worrell.files > quick.worrell.files);
        assert!(full.alex_thresholds.len() > quick.alex_thresholds.len());
        assert_eq!(full.seed, quick.seed);
        assert!(full.alex_thresholds.contains(&0));
        assert!(full.alex_thresholds.contains(&100));
        assert!(full.ttl_hours.contains(&500));
    }
}
