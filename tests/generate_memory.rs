//! A synthetic stream is drawn straight into place: generating a workload
//! costs memory in proportion to its request stream, plus a set of one
//! bit per second of its window, not a second copy of its instants to
//! sort. Measured as the process's peak resident set (`VmHWM`), reset just
//! before generating (Linux only). `VmHWM` is per process, so this test
//! has a binary of its own.
#![cfg(target_os = "linux")]

mod common;

use std::mem::size_of;

use wwwcache::simcore::{FileId, SimTime};
use wwwcache::webcache::{generate_synthetic, WorrellConfig};

use common::{peak_rss_bytes, reset_peak};

#[test]
fn generating_a_stream_does_not_sort_a_copy_of_its_instants() {
    // 2 M requests over the paper run's 56 days: the window's bit set is
    // 591 KiB, and about 360 000 draws repeat a second already drawn. That
    // grows the peak by about 1.25 x the 8-byte-a-request stream; a
    // sorted copy of the instants, 16 MB of `u64`s more, by over 2 x. The
    // bound sits between the two, so an allocator that copies a growing
    // repeat list on realloc still passes.
    let config = WorrellConfig::scaled(2085, 2_000_000);
    let stream_bytes = (config.requests * size_of::<(SimTime, FileId)>()) as u64;

    let before = reset_peak();
    let wl = generate_synthetic(&config, 31);
    let grown = peak_rss_bytes() - before;

    println!(
        "generating grew the peak by {grown} bytes, {:.2} x the {stream_bytes}-byte stream",
        grown as f64 / stream_bytes as f64
    );
    assert_eq!(wl.request_count(), 2_000_000);
    // The stream is reserved at its exact size, 8 bytes a request.
    assert_eq!(wl.heap_tables()[0], ("requests", 8 * 2_000_000));
    assert!(
        grown * 3 < stream_bytes * 4,
        "generating grew the peak by {grown} bytes ({:.2} x the {stream_bytes}-byte stream)",
        grown as f64 / stream_bytes as f64
    );
}
