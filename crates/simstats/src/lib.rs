//! `simstats` — deterministic randomness and statistics for the
//! *World Wide Web Cache Consistency* reproduction.
//!
//! Provides:
//!
//! * [`DetRng`] — a from-scratch xoshiro256++ generator with named derived
//!   streams, so every experiment is bit-reproducible from one master seed;
//! * samplers ([`UniformDist`], [`ExponentialDist`], [`BoundedParetoDist`],
//!   [`LogNormalDist`]) for the paper's workload models — flat Worrell
//!   lifetimes, memoryless gaps, heavy-tailed file sizes;
//! * popularity models ([`ZipfDist`], [`AliasTable`]) for skewed request
//!   streams and the Bestavros popularity↔mutability anticorrelation —
//!   a Zipf draw inverts the CDF through a guide table, one lookup and
//!   mostly one compare, with the answer of a full binary search;
//! * batch summaries ([`percentile`], [`median`], [`pearson`]) for trace
//!   analysis and experiment reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod rng;
mod summary;
mod zipf;

pub use dist::{BoundedParetoDist, ExponentialDist, LogNormalDist, Sampler, UniformDist};
pub use rng::DetRng;
pub use summary::{median, pearson, percentile};
pub use zipf::{AliasTable, ZipfDist};
