//! A population is one flat table: generating a workload costs memory in
//! proportion to the population's rows — 16 bytes a version, its paths'
//! bytes, and a pair of 4-byte end offsets a file — with no allocation of
//! its own per file and no copy left behind by a growing table. Measured
//! as the process's peak resident set (`VmHWM`), reset just before
//! generating (Linux only). `VmHWM` is per process, so this test has a
//! binary of its own.
#![cfg(target_os = "linux")]

use std::mem::size_of;

use wwwcache::originserver::Version;
use wwwcache::webcache::{
    generate_synthetic, LifetimeModel, PopularityModel, WorkloadKnobs, WorrellConfig,
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

#[test]
fn a_generated_population_costs_about_its_rows() {
    // The `sim-evict` population: 20 000 files, a quarter of them changing
    // every 2-48 h for the paper run's 56 days — about 295 000 versions —
    // under Zipf(1.0) popularity, with few requests so the population is
    // what generation leaves. Stored flat, it grows the peak by about
    // 1.27 x its rows (the rest is the generator's per-file buffers and
    // its bit set of the window's seconds); as one record, path and
    // version list a file, by about 1.59 x.
    let config = WorrellConfig {
        files: 20_000,
        requests: 1_000,
        knobs: WorkloadKnobs {
            lifetimes: LifetimeModel::Bimodal {
                volatile_fraction: 0.25,
                min_hours: 2.0,
                max_hours: 48.0,
            },
            popularity: PopularityModel::Zipf {
                exponent: 1.0,
                correlate_stability: false,
            },
        },
        ..WorrellConfig::paper_run()
    };

    // Writing 5 resets the peak to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
    let before = peak_rss_bytes();
    let wl = generate_synthetic(&config, 1996);
    let grown = peak_rss_bytes() - before;

    let (mut versions, mut path_bytes) = (0, 0);
    for (_, file) in wl.population.iter() {
        versions += file.versions().len();
        path_bytes += file.path.len();
    }
    assert!(versions > 250_000, "{versions} versions");
    let rows = (versions * size_of::<Version>() + path_bytes + 8 * wl.population.len()) as u64;
    assert!(
        grown * 20 < rows * 27,
        "generating grew the peak by {grown} bytes ({:.2} x the population's {rows} bytes of rows)",
        grown as f64 / rows as f64
    );
}
