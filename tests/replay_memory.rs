//! A replay holds its request stream once: walking a workload's schedule
//! costs memory in proportion to its longest run of same-instant requests,
//! not to the stream. Measured as the process's peak resident set
//! (`VmHWM`), reset just before the replay (Linux only).
#![cfg(target_os = "linux")]

use std::mem::size_of;

use wwwcache::simcore::{FileId, SimTime};
use wwwcache::webcache::{generate_synthetic, Experiment, ProtocolSpec, WorrellConfig};

/// `VmHWM` from `/proc/self/status`, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("the kernel reports VmHWM");
    let kib: u64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a number of kB");
    kib * 1024
}

#[test]
fn a_replay_does_not_copy_its_request_stream() {
    // 2 M requests over the paper run's 56 days: about 360 000 neighbours
    // share an instant, and about half of those are out of file order.
    let wl = generate_synthetic(&WorrellConfig::scaled(2085, 2_000_000), 28);
    let out_of_order = wl
        .requests
        .windows(2)
        .filter(|pair| pair[0].0 == pair[1].0 && pair[0].1 > pair[1].1)
        .count();
    assert!(
        out_of_order > 100_000,
        "{out_of_order} ties out of file order"
    );
    // The population's sorted modification list is built once, lazily,
    // for every replay; build it before the peak is reset.
    wl.population.modifications();
    let stream_bytes = (wl.requests.len() * size_of::<(SimTime, FileId)>()) as u64;

    // Writing 5 resets the peak to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
    let before = peak_rss_bytes();
    let result = Experiment::new(&wl)
        .protocol(ProtocolSpec::Alex(20))
        .run()
        .result;
    let grown = peak_rss_bytes() - before;

    assert_eq!(result.cache.requests(), 2_000_000);
    assert!(
        grown < stream_bytes / 4,
        "the replay grew the peak by {grown} bytes; the stream is {stream_bytes}"
    );
}
