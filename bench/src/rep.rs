//! One rep: set-up → one untimed warm-up epoch → `E` measured epochs of
//! equal, fixed work → teardown and checks.
//!
//! A rep is fixed *work*, not fixed time, so the counts repeat exactly
//! for a seed. Every epoch is cut into the same cells (a simulation leg,
//! or a chunk of 2 000 live requests), and a slice of the workload's
//! reference work runs before and after every cell (`crate::reference`).
//! Timing is **calibrated**: a cell's wall time, and every latency
//! sample taken inside it, is multiplied by `nominal / ref`. Then
//!
//! * `req_per_s` is an epoch's requests over the sum, over cells, of the
//!   median across epochs of the cell's calibrated wall time;
//! * `lat_p50_us` / `lat_p99_us` are taken over *all* of an epoch's
//!   calibrated samples (≥ 28 000 on a live workload, ≥ 280 beyond the
//!   p99), then the median across epochs;
//! * `setup_s` is the median of the calibrated set-ups.
//!
//! Why not the issue's quiet quartile of raw epochs: the reference box
//! does not have one quiet level that tenants only ever slow down. Its
//! speed sits on one of several levels for seconds to minutes, and the
//! levels are a quarter apart for the work a proxy does (README
//! "Noise"). Raw timings of the same code moved 7-28 % between reps
//! whatever statistic of the epochs was taken; calibrated ones move
//! 1-9 %. The raw per-epoch series ride along as the `spread.*`
//! per-layer metrics, and `bench.ref_slice_ms` says how fast the box
//! was, to explain a noisy set.

use std::io;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{unit_of, END_TO_END};
use crate::reference::{generate_slice, GENERATE_NOMINAL_S};
use crate::stats::{iqr_pct, median};
use crate::sys;
use crate::workload::{
    Cell, Checks, Counts, Epoch, GroupCosts, Instruments, Percentiles, Sizes, Spec,
};

/// Set-ups a full rep times (the median is `setup_s`).
pub const SETUP_REPEATS: usize = 9;
/// Set-ups a smoke rep times.
const SMOKE_SETUP_REPEATS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RepOptions {
    /// The workload.
    pub workload: &'static Spec,
    /// Seed its inputs are generated from.
    pub seed: u64,
    /// How much work.
    pub sizes: Sizes,
    /// How many times to time the set-up.
    pub setup_repeats: usize,
}

impl RepOptions {
    /// The standard rep of `workload` at `sizes`.
    pub fn new(workload: &'static Spec, seed: u64, sizes: Sizes) -> RepOptions {
        RepOptions {
            workload,
            seed,
            sizes,
            setup_repeats: if sizes.smoke {
                SMOKE_SETUP_REPEATS
            } else {
                SETUP_REPEATS
            },
        }
    }
}

/// The measured epochs of one rep.
///
/// Two kinds of series. The **raw** ones are what a clock read, epoch
/// by epoch; they ride along as the `spread.*` per-layer metrics, to
/// explain a noisy set. The **calibrated** ones are what the end-to-end
/// timings are built from: every cell's wall time and every latency
/// sample is multiplied by `nominal / ref`, where `ref` is the wall
/// time of the reference work run next to that cell and `nominal` the
/// reference's wall time at the reference box's usual speed
/// (`crate::reference`).
#[derive(Debug, Clone, Default)]
pub struct EpochSeries {
    /// Raw wall seconds.
    pub wall_s: Vec<f64>,
    /// Raw requests per second.
    pub req_per_s: Vec<f64>,
    /// Raw per-epoch latency percentiles, µs.
    pub raw_lat: Vec<Percentiles>,
    /// Calibrated per-epoch latency percentiles, µs, over all of an
    /// epoch's samples.
    pub cal_lat: Vec<Percentiles>,
    /// `cells[i][j]`: cell `j` of measured epoch `i`.
    pub cells: Vec<Vec<Cell>>,
    /// Requests per epoch (the same for every epoch).
    pub epoch_requests: u64,
    /// The reference's nominal wall time, seconds.
    pub nominal_ref_s: f64,
}

impl EpochSeries {
    fn new(nominal_ref_s: f64) -> EpochSeries {
        EpochSeries {
            nominal_ref_s,
            ..EpochSeries::default()
        }
    }

    /// `nominal / ref` of a cell: how much faster than now the box runs
    /// this kind of work at its usual speed.
    fn factor(&self, cell: &Cell) -> f64 {
        if cell.ref_s > 0.0 {
            self.nominal_ref_s / cell.ref_s
        } else {
            1.0
        }
    }

    fn push(&mut self, epoch: Epoch) {
        let wall_s = epoch.wall_s();
        self.wall_s.push(wall_s);
        self.req_per_s.push(if wall_s > 0.0 {
            epoch.requests as f64 / wall_s
        } else {
            0.0
        });
        let mut raw: Vec<f64> = epoch.lat_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
        let mut calibrated = Vec::with_capacity(raw.len());
        let mut next = 0;
        for cell in &epoch.cells {
            let factor = self.factor(cell);
            calibrated.extend(raw[next..next + cell.samples].iter().map(|us| us * factor));
            next += cell.samples;
        }
        self.raw_lat.push(Percentiles::of(&mut raw));
        self.cal_lat.push(Percentiles::of(&mut calibrated));
        self.epoch_requests = epoch.requests;
        self.cells.push(epoch.cells);
    }

    /// Requests per second of the typical epoch at the box's usual
    /// speed: its requests over the sum, over cells, of the median
    /// across epochs of the cell's calibrated wall time.
    pub fn req_per_s(&self) -> f64 {
        let width = self.cells.iter().map(Vec::len).min().unwrap_or(0);
        let typical_wall: f64 = (0..width)
            .map(|j| {
                median(
                    &self
                        .cells
                        .iter()
                        .map(|row| row[j].wall_s * self.factor(&row[j]))
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        if typical_wall > 0.0 {
            self.epoch_requests as f64 / typical_wall
        } else {
            0.0
        }
    }

    /// The median across epochs of `pick`ed calibrated percentile.
    pub fn lat_us(&self, pick: impl Fn(&Percentiles) -> f64) -> f64 {
        median(&self.cal_lat.iter().map(pick).collect::<Vec<_>>())
    }

    fn raw_us(&self, pick: impl Fn(&Percentiles) -> f64) -> Vec<f64> {
        self.raw_lat.iter().map(pick).collect()
    }

    /// The reference slices' wall times, milliseconds.
    pub fn ref_ms(&self) -> Vec<f64> {
        self.cells.iter().flatten().map(|c| c.ref_s * 1e3).collect()
    }
}

/// Everything one rep measured.
#[derive(Debug)]
pub struct RepReport {
    /// What ran.
    pub options: RepOptions,
    /// Whether spans and a metrics probe were attached.
    pub traced: bool,
    /// The CPU the process is pinned to.
    pub pinned_cpu: usize,
    /// Raw wall seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Calibrated seconds of each timed set-up: its wall time times
    /// `nominal / ref` of the generation slices around it.
    pub setup_cal_s: Vec<f64>,
    /// Wall seconds of the warm-up epoch.
    pub warmup_s: f64,
    /// The measured epochs.
    pub series: EpochSeries,
    /// Requests the measured epochs completed.
    pub measured_requests: u64,
    /// Exact counts over the whole replay.
    pub counts: Counts,
    /// The checks that ran.
    pub checks: Checks,
    /// `VmHWM` at the end of the rep, MiB.
    pub peak_rss_mb: f64,
    /// Steal time over the rep, percent of all CPU time.
    pub steal_pct: f64,
    /// 1-minute load average at the end of the rep.
    pub loadavg1: f64,
    /// Thread-group CPU cost over the measured epochs (traced reps).
    pub group_costs: GroupCosts,
    /// Modifications the origin published during the measured epochs.
    pub modifications_published: u64,
    /// The instruments, holding the spans and the probe (traced reps).
    pub instruments: Instruments,
}

/// Run one rep. The process must already be pinned (see
/// `commands::pin_or_refuse`); `pinned_cpu` is recorded, not applied.
pub fn run(options: RepOptions, mut ins: Instruments, pinned_cpu: usize) -> io::Result<RepReport> {
    let spec = options.workload;
    let traced = ins.tracer.is_on();
    let jiffies_before = sys::cpu_jiffies();
    // Set-up, several times over: everything from the seed to a world
    // ready for its first request. Teardown of the spares is untimed.
    // Set-up is mostly input generation on every workload, so it is
    // calibrated by the generation reference.
    let mut setup_s = Vec::with_capacity(options.setup_repeats);
    let mut setup_cal_s = Vec::with_capacity(options.setup_repeats);
    let mut world = None;
    for _ in 0..options.setup_repeats.max(1) {
        drop(world.take());
        let ref_before = generate_slice();
        ins.tracer.enter("setup", None);
        let started = Instant::now();
        let built = (spec.build)(options.seed, &options.sizes, &mut ins)?;
        let wall_s = started.elapsed().as_secs_f64();
        ins.tracer.exit();
        let ref_s = (ref_before + generate_slice()) / 2.0;
        setup_s.push(wall_s);
        setup_cal_s.push(wall_s * GENERATE_NOMINAL_S / ref_s);
        world = Some(built);
    }
    let mut world = world.expect("at least one set-up ran");

    ins.tracer.enter("warmup", None);
    let warmup_started = Instant::now();
    world.epoch(0, &mut ins)?;
    let warmup_s = warmup_started.elapsed().as_secs_f64();
    ins.tracer.exit();

    let costs_before = if traced {
        world.group_costs()
    } else {
        GroupCosts::default()
    };
    let mut series = EpochSeries::new(spec.nominal_ref_s);
    let mut measured_requests = 0;
    for index in 1..=options.sizes.epochs {
        ins.tracer.enter("epoch", None);
        let epoch = world.epoch(index, &mut ins)?;
        ins.tracer.exit();
        measured_requests += epoch.requests;
        series.push(epoch);
    }
    let group_costs = if traced {
        let after = world.group_costs();
        GroupCosts {
            proxy: after.proxy.since(&costs_before.proxy),
            origin: after.origin.since(&costs_before.origin),
            client: after.client.since(&costs_before.client),
        }
    } else {
        GroupCosts::default()
    };
    let modifications_published = world.modifications_published(1, options.sizes.epochs + 1);

    let mut checks = Checks::default();
    let counts = ins.tracer.span("teardown", || world.finish(&mut checks))?;

    Ok(RepReport {
        options,
        traced,
        pinned_cpu,
        setup_s,
        setup_cal_s,
        warmup_s,
        series,
        measured_requests,
        counts,
        checks,
        peak_rss_mb: sys::peak_rss_mib().unwrap_or(0.0),
        steal_pct: sys::steal_pct(jiffies_before, sys::cpu_jiffies()),
        loadavg1: sys::loadavg1().unwrap_or(0.0),
        group_costs,
        modifications_published,
        instruments: ins,
    })
}

impl RepReport {
    /// Whether every check passed and no request failed.
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty() && self.counts.failed == 0
    }

    /// The value of an end-to-end metric.
    pub fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "req_per_s" => self.series.req_per_s(),
            "lat_p50_us" => self.series.lat_us(|p| p.p50_us),
            "lat_p99_us" => self.series.lat_us(|p| p.p99_us),
            "setup_s" => median(&self.setup_cal_s),
            "peak_rss_mb" => self.peak_rss_mb,
            "hit_pct" => self.counts.hit_pct(),
            "stale_pct_plus1" => self.counts.stale_pct() + 1.0,
            "upstream_kb_per_req" => self.counts.upstream_kb_per_req(),
            "origin_ops_per_req" => self.counts.origin_ops_per_req(),
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    }

    /// Every end-to-end metric as the contract's `metrics` object.
    pub fn end_to_end_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &END_TO_END {
            metrics.insert(m.name, metric_json(m.name, self.end_to_end(m.name)));
        }
        metrics
    }

    /// The per-layer metrics a rep itself can supply: the spread of its
    /// timings across epochs, the warm-up, and the environment.
    pub fn own_layers(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "spread.req_per_s.epoch_median",
                median(&self.series.req_per_s),
            ),
            (
                "spread.req_per_s.epoch_iqr_pct",
                iqr_pct(&self.series.req_per_s),
            ),
            (
                "spread.lat_p50_us.epoch_median",
                median(&self.series.raw_us(|p| p.p50_us)),
            ),
            (
                "spread.lat_p50_us.epoch_iqr_pct",
                iqr_pct(&self.series.raw_us(|p| p.p50_us)),
            ),
            (
                "spread.lat_p99_us.epoch_median",
                median(&self.series.raw_us(|p| p.p99_us)),
            ),
            (
                "spread.lat_p99_us.epoch_iqr_pct",
                iqr_pct(&self.series.raw_us(|p| p.p99_us)),
            ),
            ("spread.setup_s.epoch_median", median(&self.setup_s)),
            ("spread.setup_s.epoch_iqr_pct", iqr_pct(&self.setup_s)),
            ("bench.ref_slice_ms", median(&self.series.ref_ms())),
            ("bench.ref_slice_iqr_pct", iqr_pct(&self.series.ref_ms())),
            ("bench.warmup_s", self.warmup_s),
            ("env.steal_pct", self.steal_pct),
            ("env.loadavg1", self.loadavg1),
            ("stale_pct", self.counts.stale_pct()),
        ]
    }

    /// The rep as one JSON object: what `wcc-benchmark rep` prints and
    /// `all` / `aa` collect.
    pub fn to_json(&self) -> Json {
        let c = &self.counts;
        let mut layers = Json::obj();
        for (name, value) in self.own_layers() {
            layers.insert(name, metric_json(name, value));
        }
        Json::obj()
            .set("workload", self.options.workload.name)
            .set("seed", self.options.seed)
            .set("epochs", self.options.sizes.epochs)
            .set("smoke", self.options.sizes.smoke)
            .set("traced", self.traced)
            .set("pinned_cpu", self.pinned_cpu)
            .set("correct", self.correct())
            .set("attempted", c.requests)
            .set("failed", c.failed)
            .set("checks", self.checks.run)
            .set("check_failures", self.checks.failures.clone())
            .set("measured_requests", self.measured_requests)
            .set("metrics", self.end_to_end_json())
            .set("layers", layers)
            .set(
                "epoch_series",
                Json::obj()
                    .set("wall_s", self.series.wall_s.clone())
                    .set("req_per_s", self.series.req_per_s.clone())
                    .set("lat_p50_us", self.series.raw_us(|p| p.p50_us))
                    .set("lat_p99_us", self.series.raw_us(|p| p.p99_us))
                    .set(
                        "cal_p50_us",
                        self.series
                            .cal_lat
                            .iter()
                            .map(|p| p.p50_us)
                            .collect::<Vec<_>>(),
                    )
                    .set(
                        "cal_p99_us",
                        self.series
                            .cal_lat
                            .iter()
                            .map(|p| p.p99_us)
                            .collect::<Vec<_>>(),
                    )
                    .set("setup_s", self.setup_s.clone())
                    .set("setup_cal_s", self.setup_cal_s.clone())
                    .set(
                        "cell_ref_ms",
                        Json::Arr(
                            self.series
                                .cells
                                .iter()
                                .map(|row| {
                                    Json::from(
                                        row.iter().map(|c| c.ref_s * 1e3).collect::<Vec<f64>>(),
                                    )
                                })
                                .collect(),
                        ),
                    )
                    // cell_wall_ms[i][j]: cell j of measured epoch i.
                    .set(
                        "cell_wall_ms",
                        Json::Arr(
                            self.series
                                .cells
                                .iter()
                                .map(|row| {
                                    Json::from(
                                        row.iter().map(|c| c.wall_s * 1e3).collect::<Vec<f64>>(),
                                    )
                                })
                                .collect(),
                        ),
                    ),
            )
            .set(
                "counts",
                Json::obj()
                    .set("fresh_hits", c.cache.fresh_hits)
                    .set("stale_hits", c.cache.stale_hits)
                    .set("misses", c.cache.misses)
                    .set("validations_not_modified", c.cache.validations_not_modified)
                    .set("validations_modified", c.cache.validations_modified)
                    .set("messages", c.traffic.messages)
                    .set("message_bytes", c.traffic.message_bytes)
                    .set("file_transfers", c.traffic.file_transfers)
                    .set("file_bytes", c.traffic.file_bytes)
                    .set("document_requests", c.server.document_requests)
                    .set("validation_queries", c.server.validation_queries)
                    .set("invalidations_sent", c.server.invalidations_sent)
                    .set("invalidations_delivered", c.invalidations_delivered)
                    .set("evictions", c.evictions)
                    .set("upstream_dials", c.upstream_dials)
                    .set("upstream_reuses", c.upstream_reuses)
                    .set("upstream_saturations", c.upstream_saturations),
            )
    }
}

/// `{"value": v, "unit": u}` for a named metric.
pub fn metric_json(name: &str, value: f64) -> Json {
    Json::obj()
        .set("value", value)
        .set("unit", unit_of(name).unwrap_or(""))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An epoch of two cells of two samples each.
    fn epoch(cells: [(f64, f64, [u64; 2]); 2]) -> Epoch {
        Epoch {
            requests: 1_000,
            cells: cells
                .iter()
                .map(|&(wall_ms, ref_ms, _)| Cell {
                    wall_s: wall_ms / 1e3,
                    ref_s: ref_ms / 1e3,
                    samples: 2,
                })
                .collect(),
            lat_ns: cells.iter().flat_map(|c| c.2).collect(),
        }
    }

    /// Three epochs against a nominal reference of 2 ms: the first at
    /// the usual speed, the second with everything (reference included)
    /// a quarter slower, the third with a stall the reference did not
    /// see in its second cell.
    fn series() -> EpochSeries {
        let mut s = EpochSeries::new(0.002);
        s.push(epoch([
            (40.0, 2.0, [10_000, 20_000]),
            (60.0, 2.0, [12_000, 24_000]),
        ]));
        s.push(epoch([
            (50.0, 2.5, [12_500, 25_000]),
            (75.0, 2.5, [15_000, 30_000]),
        ]));
        s.push(epoch([
            (40.0, 2.0, [10_000, 20_000]),
            (200.0, 2.0, [12_000, 900_000]),
        ]));
        s
    }

    #[test]
    fn a_slow_box_cancels_and_a_stall_is_outvoted() {
        let s = series();
        // Calibrated cells: 40 40 40 and 60 60 200 -> medians 40 + 60 ms.
        assert!((s.req_per_s() - 10_000.0).abs() < 1e-6);
        // The raw per-epoch rates they produced are all different.
        assert!((s.req_per_s[0] - 10_000.0).abs() < 1e-6);
        assert!((s.req_per_s[1] - 8_000.0).abs() < 1e-6);
        assert!(s.req_per_s[2] < 5_000.0);
    }

    #[test]
    fn latencies_are_calibrated_per_epoch_over_all_its_samples() {
        let s = series();
        // Calibrated samples of epochs 1 and 2: 10 12 20 24 µs.
        assert_eq!(s.cal_lat[0].p50_us, 12.0);
        assert_eq!(s.cal_lat[1].p50_us, 12.0);
        assert_eq!(s.cal_lat[1].p99_us, 24.0);
        // The stall is in epoch 3's tail, and the median across epochs
        // does not report it.
        assert_eq!(s.cal_lat[2].p99_us, 900.0);
        assert_eq!(s.lat_us(|p| p.p99_us), 24.0);
        // The raw series keep what the clock read.
        assert_eq!(s.raw_lat[1].p99_us, 30.0);
    }
}
