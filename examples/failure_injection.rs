//! Failure injection: the paper's robustness argument, measured.
//!
//! "Invalidation protocols must also deal with unavailable clients as a
//! special case. If a machine with data cached cannot be notified, the
//! server must continue trying to reach it" (§1), whereas with weak
//! consistency "the right thing automatically happens" (§6).
//!
//! This example partitions a cache, modifies an object during the outage,
//! and compares what each protocol family does: the invalidation server's
//! retry traffic and the cache's stale window, versus the Alex protocol's
//! bounded-by-construction staleness.
//!
//! ```sh
//! cargo run --release --example failure_injection
//! ```

use wwwcache::consistency::AdaptiveTtl;
use wwwcache::originserver::RetryQueue;
use wwwcache::proxycache::EntryMeta;
use wwwcache::simcore::{CacheId, FileId, SimDuration, SimTime};

fn main() {
    let cache = CacheId(7);
    let file = FileId(1);
    let change_at = SimTime::from_secs(0);
    let outage_ends = SimTime::from_secs(6 * 3600); // 6-hour partition

    // --- Invalidation protocol under partition ---------------------------
    let mut queue = RetryQueue::new(SimDuration::from_mins(1), SimDuration::from_hours(1));
    queue.mark_down(cache);
    let delivered = queue.send(cache, file, change_at);
    assert!(!delivered);

    let mut attempts = 0u32;
    let stale_until = loop {
        let Some(next) = queue.next_attempt() else {
            unreachable!("a notice is pending");
        };
        let t = next;
        if t >= outage_ends {
            queue.mark_up(cache);
        }
        let report = queue.sweep(t);
        attempts += 1;
        if !report.delivered.is_empty() {
            break t;
        }
    };
    println!("invalidation protocol, 6-hour partition:");
    println!("  delivery attempts (all server work): {attempts}");
    println!(
        "  stale window: change at t=0h, notice delivered at t={:.1}h",
        stale_until.as_secs() as f64 / 3600.0
    );
    println!(
        "  server kept {} failed attempts of state it must track\n",
        queue.failed_attempts()
    );

    // --- The Alex protocol under the same partition ----------------------
    // No server state: the cache's own clock bounds staleness. An object
    // last validated at t=0 with age 10 days and threshold 10% is served
    // (possibly stale) for at most 1 day, partition or not.
    let policy = AdaptiveTtl::percent(10);
    let mut entry = EntryMeta::fresh(
        8_192,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_days(10),
    );
    entry.revalidate(SimTime::ZERO + SimDuration::from_days(10));
    let expiry = policy.expiry(&entry, 0);
    let bound = expiry - (SimTime::ZERO + SimDuration::from_days(10));
    println!("Alex protocol, same partition:");
    println!("  server-side state: none; retry machinery: none");
    println!(
        "  staleness bound from the cache's own clock: {:.1}h (threshold 10% x age 10d)",
        bound.as_secs() as f64 / 3600.0
    );
    println!(
        "  after the partition heals, the next request revalidates —\n  \"the right thing automatically happens\" (§6)."
    );
}
