//! `wcc-benchmark` — the repo benchmark.
//!
//! ```text
//! wcc-benchmark --workload W --seed N --seconds S --trace 0|1   the driver's contract
//! wcc-benchmark rep <workload> [--seed S] [--smoke]
//! wcc-benchmark all [--seed S] [--reps N] [--smoke]
//! wcc-benchmark trace [<workload>...] [--seed S] [--smoke]
//! wcc-benchmark compare <a.json> <b.json>
//! wcc-benchmark aa [--seed S] [--reps N] [--smoke]
//! wcc-benchmark manifest
//! ```
//!
//! See `bench/README.md` for what is measured and why.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cli;
mod commands;
mod json;
mod layers;
mod metrics;
mod reference;
mod rep;
mod stats;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wcc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
