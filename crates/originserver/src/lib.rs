//! `originserver` — the origin (primary) server substrate for the *World
//! Wide Web Cache Consistency* reproduction.
//!
//! Web objects "can be modified only on their primary server" (§2), so the
//! origin is the single source of truth: it owns the [`FilePopulation`]
//! (pre-scheduled modification histories replayable against every
//! protocol), answers plain and conditional GETs with exact HTTP semantics,
//! keeps the invalidation-protocol subscriber registry, and accounts every
//! operation for the Figure 8 server-load comparison. [`RetryQueue`] models
//! the unreachable-cache special case the paper charges against
//! invalidation protocols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod files;
mod retry;
mod server;

pub use files::{FilePopulation, FileRecord, FileView, Version};
pub use retry::{DeliveryReport, RetryQueue};
pub use server::{CondResult, OriginServer};
