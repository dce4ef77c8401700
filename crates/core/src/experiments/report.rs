//! Text rendering of experiment results — the printable equivalent of the
//! paper's figures and tables.
//!
//! Each renderer takes the structured rows an experiment driver returns
//! and produces an aligned monospace table with the same series the paper
//! plots: bandwidth (MB, the figures use a log scale so we also print
//! log10), cache-miss and stale-hit percentages, and server operations.

use webtrace::analyze::{FileTypeRow, MutabilityRow};

use crate::experiments::{SimReport, Sweep};
use crate::hierarchy::Figure1Row;
use crate::sim::RunResult;

fn fmt_mb(bytes: u64) -> String {
    format!("{:10.3}", bytes as f64 / (1024.0 * 1024.0))
}

fn sweep_bandwidth_rows(out: &mut String, sweep: &Sweep, invalidation: &RunResult) {
    out.push_str(&format!(
        "{:>8}  {:>10}  {:>10}\n",
        "param", sweep.family, "Inval"
    ));
    for (param, res) in &sweep.points {
        out.push_str(&format!(
            "{param:>8}  {}  {}\n",
            fmt_mb(res.traffic.total_bytes()),
            fmt_mb(invalidation.traffic.total_bytes()),
        ));
    }
}

/// Render a bandwidth figure (Figures 2, 4, 6): MB exchanged per
/// parameter setting for both families, against the invalidation line.
pub fn render_bandwidth_figure(title: &str, report: &SimReport) -> String {
    let mut out = format!("== {title} — {} ==\n", report.name);
    out.push_str("(a) Alex update threshold (%), total MB exchanged\n");
    sweep_bandwidth_rows(&mut out, &report.alex, &report.invalidation);
    out.push_str("(b) TTL (hours), total MB exchanged\n");
    sweep_bandwidth_rows(&mut out, &report.ttl, &report.invalidation);
    out
}

fn sweep_rate_rows(out: &mut String, sweep: &Sweep, invalidation: &RunResult) {
    out.push_str(&format!(
        "{:>8}  {:>8}  {:>8}  {:>10}\n",
        "param", "miss%", "stale%", "inval miss%"
    ));
    for (param, res) in &sweep.points {
        out.push_str(&format!(
            "{param:>8}  {:>8.3}  {:>8.3}  {:>10.3}\n",
            res.miss_pct(),
            res.stale_pct(),
            invalidation.miss_pct(),
        ));
    }
}

/// Render a miss-rate figure (Figures 3, 5, 7): cache-miss and stale-hit
/// percentages per parameter setting.
pub fn render_missrate_figure(title: &str, report: &SimReport) -> String {
    let mut out = format!("== {title} — {} ==\n", report.name);
    out.push_str("(a) Alex update threshold (%)\n");
    sweep_rate_rows(&mut out, &report.alex, &report.invalidation);
    out.push_str("(b) TTL (hours)\n");
    sweep_rate_rows(&mut out, &report.ttl, &report.invalidation);
    out
}

/// Render the server-load figure (Figure 8): operations per parameter
/// setting against the invalidation line.
pub fn render_server_load_figure(title: &str, report: &SimReport) -> String {
    let mut out = format!("== {title} — {} ==\n", report.name);
    for sweep in [&report.alex, &report.ttl] {
        out.push_str(&format!(
            "({}) server operations\n{:>8}  {:>12}  {:>12}\n",
            sweep.family, "param", "ops", "inval ops"
        ));
        for (param, res) in &sweep.points {
            out.push_str(&format!(
                "{param:>8}  {:>12}  {:>12}\n",
                res.server_ops(),
                report.invalidation.server_ops(),
            ));
        }
    }
    out
}

/// Render Table 1 (campus mutability statistics).
pub fn render_table1(rows: &[MutabilityRow]) -> String {
    let mut out = String::from(
        "== Table 1: campus server mutability ==\n\
         server     files   requests  remote%   changes  mutable%  very-mutable%\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8}{:>8}{:>11}{:>9.1}{:>10}{:>10.2}{:>15.2}\n",
            r.server,
            r.files,
            r.requests,
            r.remote_pct,
            r.total_changes,
            r.mutable_pct,
            r.very_mutable_pct
        ));
    }
    out
}

/// Render Table 2 (file-type access and lifetime profile).
pub fn render_table2(rows: &[FileTypeRow]) -> String {
    let fmt_opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:>10.1}"),
        None => format!("{:>10}", "NA"),
    };
    let mut out = String::from(
        "== Table 2: file-type profile (Microsoft + Boston University) ==\n\
         type      access%   avg size   age(days)  lifespan(days)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8}{:>9.1}{:>11.0}{}{}\n",
            r.file_type.to_string(),
            r.access_pct,
            r.mean_size,
            fmt_opt(r.avg_age_days),
            fmt_opt(r.median_lifespan_days)
        ));
    }
    out
}

/// Render the Figure 1 scenario measurements.
pub fn render_figure1(rows: &[Figure1Row]) -> String {
    let mut out = String::from(
        "== Figure 1: hierarchy collapse bias (bytes) ==\n\
         scenario                                  hier-inval  hier-time  coll-inval  coll-time\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<42}{:>10}{:>11}{:>12}{:>11}\n",
            r.scenario,
            r.hier_invalidation,
            r.hier_time_based,
            r.collapsed_invalidation,
            r.collapsed_time_based
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tables::{table1, table2};
    use crate::experiments::{base::run_base_with, hierarchy_bias::run_figure1, Scale};
    use crate::SweepRunner;

    #[test]
    fn figures_render_every_sweep_point() {
        let report = run_base_with(&Scale::quick(), &SweepRunner::new(0));
        let bw = render_bandwidth_figure("Figure 2", &report);
        let mr = render_missrate_figure("Figure 3", &report);
        let sl = render_server_load_figure("Figure 8-style", &report);
        for text in [&bw, &mr, &sl] {
            assert!(text.contains("Alex"));
            assert!(text.contains("TTL") || text.contains("param"));
            // One line per sweep point, both families.
            let lines = text.lines().count();
            assert!(lines >= 2 * Scale::quick().alex_thresholds.len());
        }
        assert!(bw.contains("MB exchanged"));
        assert!(mr.contains("stale%"));
        assert!(sl.contains("ops"));
    }

    #[test]
    fn tables_render_all_rows() {
        let t1 = render_table1(&table1(1, &SweepRunner::new(0)));
        assert!(t1.contains("DAS") && t1.contains("FAS") && t1.contains("HCS"));
        let t2 = render_table2(&table2(1, 5_000, &SweepRunner::new(0)));
        assert!(t2.contains("gif") && t2.contains("lifespan"));
        // The NA path renders when a type has no BU sample.
        let empty_study = webtrace::bu::BuStudy { files: vec![] };
        let na_rows = webtrace::analyze::file_type_table(&[], &empty_study);
        assert!(render_table2(&na_rows).contains("NA"));
    }

    #[test]
    fn figure1_renders_four_scenarios() {
        let text = render_figure1(&run_figure1());
        assert_eq!(text.lines().count(), 2 + 4);
        assert!(text.contains("(a)"));
        assert!(text.contains("(d)"));
    }
}
