//! A polling replay walks its requests alone: only invalidation acts on a
//! write, so an unobserved Alex replay never asks the population for its
//! sorted modification index, and never builds it. An invalidation replay
//! does. Measured as the process's peak resident set (`VmHWM`), reset just
//! before each replay (Linux only). `VmHWM` is per process, so this test
//! has a binary of its own.
#![cfg(target_os = "linux")]

use std::mem::size_of;

use wwwcache::simcore::{FileId, SimTime};
use wwwcache::webcache::{
    generate_synthetic, Experiment, LifetimeModel, PopularityModel, ProtocolSpec, Workload,
    WorkloadKnobs, WorrellConfig,
};

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

/// How much one replay of `wl` under `spec` grows the peak resident set.
fn peak_growth(wl: &Workload, spec: ProtocolSpec) -> u64 {
    // Writing 5 resets the peak to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
    let before = peak_rss_bytes();
    let result = Experiment::new(wl).protocol(spec).run().result;
    assert_eq!(result.cache.requests() as usize, wl.request_count());
    peak_rss_bytes() - before
}

#[test]
fn only_an_invalidation_replay_builds_the_modification_index() {
    // 2 000 files changing every 0.5-2 h for two weeks: about 540 000
    // modifications, a 6.4 MB index, against 2 000 requests.
    let config = WorrellConfig {
        files: 2_000,
        duration_days: 14,
        requests: 2_000,
        knobs: WorkloadKnobs {
            lifetimes: LifetimeModel::Flat {
                min_hours: 0.5,
                max_hours: 2.0,
            },
            popularity: PopularityModel::Uniform,
        },
        ..WorrellConfig::paper_run()
    };
    let wl = generate_synthetic(&config, 33);
    let modifications: usize = wl
        .population
        .iter()
        .map(|(_, rec)| rec.modification_count())
        .sum();
    assert!(modifications > 400_000, "{modifications} modifications");
    let index_bytes = (modifications * size_of::<(SimTime, FileId)>()) as u64;
    // The stream is reserved at its exact size, 8 bytes a request, and
    // the index is not built yet.
    assert_eq!(wl.heap_tables()[0], ("requests", 8 * 2_000));
    assert_eq!(wl.population.heap_tables()[3], ("modifications", 0));

    let alex = peak_growth(&wl, ProtocolSpec::Alex(20));
    assert!(
        alex < index_bytes / 4,
        "an Alex replay grew the peak by {alex} bytes; the index is {index_bytes}"
    );
    let invalidation = peak_growth(&wl, ProtocolSpec::Invalidation);
    assert!(
        invalidation >= index_bytes / 2,
        "an invalidation replay grew the peak by {invalidation} bytes; the index is {index_bytes}"
    );
    assert_eq!(
        wl.population.heap_tables()[3],
        ("modifications", 8 * modifications),
        "the index is built at its exact size, 8 bytes a modification"
    );
}
