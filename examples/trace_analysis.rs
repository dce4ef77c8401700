//! Trace analysis: export a campus trace to the paper's extended log
//! format, re-parse it, and regenerate Tables 1 and 2 — showing both the
//! ground-truth statistics and what a log-only observer (like the paper's
//! authors) can see.
//!
//! ```sh
//! cargo run --release --example trace_analysis
//! ```

use wwwcache::webcache::experiments::report::{render_table1, render_table2};
use wwwcache::webcache::experiments::tables::{table1, table2};
use wwwcache::webcache::SweepRunner;
use wwwcache::webtrace::analyze::MutabilityRow;
use wwwcache::webtrace::campus::{generate_campus_trace, CampusProfile};
use wwwcache::webtrace::ServerTrace;

fn main() {
    // --- Table 1 from ground truth --------------------------------------
    let runner = SweepRunner::new(0);
    println!("{}", render_table1(&table1(1996, &runner)));

    // --- The log round trip ----------------------------------------------
    let campus = generate_campus_trace(&CampusProfile::hcs(), 1996);
    let log_text = campus.trace.to_log();
    let first_lines: Vec<&str> = log_text.lines().take(3).collect();
    println!(
        "extended log format (first 3 of {} lines):",
        campus.trace.request_count()
    );
    for l in &first_lines {
        println!("  {l}");
    }

    let observed = ServerTrace::from_log("HCS", &log_text).expect("our own log parses");
    let truth_row = MutabilityRow::from_trace(&campus.trace);
    let log_row = MutabilityRow::from_trace(&observed);
    println!(
        "\nHCS ground truth vs log-observable:\n\
         {:<22}{:>12}{:>12}\n\
         {:<22}{:>12}{:>12}\n\
         {:<22}{:>12}{:>12}\n\
         {:<22}{:>11.2}%{:>11.2}%",
        "",
        "truth",
        "from log",
        "files",
        truth_row.files,
        log_row.files,
        "observed changes",
        truth_row.total_changes,
        log_row.total_changes,
        "mutable files",
        truth_row.mutable_pct,
        log_row.mutable_pct,
    );
    println!(
        "\nA log sees only the versions that were actually served, so the\n\
         log-observable change count is a lower bound — the same limitation\n\
         the paper's modified campus servers had.\n"
    );

    // --- Table 2 ---------------------------------------------------------
    println!("{}", render_table2(&table2(1996, 150_000, &runner)));
    println!(
        "Paper values: gif 55%/7791B/85d/146d, html 22%/4786B/50d/146d,\n\
         jpg 10%/21608B/100d/72d, cgi 9%/5980B/NA/NA, other 4%/NA/NA/NA."
    );
}
