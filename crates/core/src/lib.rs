//! `webcache` — the primary contribution of the *World Wide Web Cache
//! Consistency* reproduction (Gwertzman & Seltzer, USENIX '96).
//!
//! This crate assembles the substrates (`simcore`, `httpsim`, `webtrace`,
//! `proxycache`, `originserver`, `consistency`) into the paper's
//! instrument and experiments:
//!
//! * [`workload`] — the Worrell-style synthetic workload and trace-driven
//!   workloads, with independent levers for lifetime bimodality and
//!   popularity skew;
//! * [`sim`] — the single-cache simulator in base (eager) and optimized
//!   (`If-Modified-Since`) configurations;
//! * [`hierarchy`] — the two-level hierarchical simulator behind the
//!   Figure 1 collapse-bias analysis;
//! * [`experiments`] — one driver per paper table/figure (Figures 2–8,
//!   Tables 1–2), each returning structured rows and rendering the same
//!   series the paper plots;
//! * [`scenario`] — a builder for scripted workloads (targeted
//!   experiments like the daily-news a-priori-TTL case);
//! * [`live`] — glue from simulator workloads and protocol specs to the
//!   `liveserve` TCP stack, for live-vs-simulated differential runs;
//! * [`experiment`] — the unified [`Experiment`] builder over all of the
//!   above, with `wcc-obs` probe attachment for tracing and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod experiments;
pub mod hierarchy;
pub mod live;
pub mod scenario;
pub mod sim;
pub mod sweep;
pub mod workload;

pub use consistency::ProtocolSpec;
pub use experiment::{Experiment, RunOutcome, Store as ExperimentStore};
pub use scenario::ScenarioBuilder;
pub use sim::{run, RetrievalMode, RunResult, SimConfig};
pub use sweep::SweepRunner;
// What `Experiment::run_live` / `run_open_loop` return.
pub use wcc_load::{LoadReport, OpenLoopReport};
pub use workload::{
    generate_synthetic, LifetimeModel, PopularityModel, Workload, WorkloadKnobs, WorrellConfig,
};
