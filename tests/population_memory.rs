//! A population is one flat table: generating a workload costs memory in
//! proportion to the population's rows — 8 bytes a version (a 4-byte
//! `SimTime`, `u32` bytes), its paths' bytes, and a pair of 4-byte end
//! offsets a file — with no allocation of its own per file and no copy
//! left behind by a growing table. Measured as the process's peak
//! resident set (`VmHWM`), reset just before generating (Linux only), and
//! as the population's own account of its tables (`heap_tables`).
//! `VmHWM` is per process, so this test has a binary of its own.
#![cfg(target_os = "linux")]

mod common;

use std::mem::size_of;

use wwwcache::originserver::Version;
use wwwcache::webcache::{
    generate_synthetic, LifetimeModel, PopularityModel, WorkloadKnobs, WorrellConfig,
};

use common::{peak_rss_bytes, reset_peak};

#[test]
fn a_generated_population_costs_about_its_rows() {
    // The `sim-evict` population: 20 000 files, a quarter of them changing
    // every 2-48 h for the paper run's 56 days — about 295 000 versions —
    // under Zipf(1.0) popularity, with few requests so the population is
    // what generation leaves. The budget counts its rows at 16 bytes a
    // version, the size of a `Version`. At 8-byte rows the peak grows by
    // about 0.81 x that budget; at 16-byte rows by about 1.27 x, and as
    // one record, path and version list a file by about 1.59 x. The
    // growth beyond the rows is the generator's per-file buffers and its
    // bit set of the window's seconds.
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

    let before = reset_peak();
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

    // The tables are reserved at their exact size, the modification
    // index is not built, and a version is a row of 8 bytes.
    let files = wl.population.len();
    let tables = wl.population.heap_tables();
    println!("{versions} versions, {files} files: {tables:?}");
    let heap_bytes: usize = tables.iter().map(|t| t.1).sum();
    assert_eq!(heap_bytes, 8 * versions + path_bytes + 8 * (files + 1));
    // Less than 16-byte version rows alone would take: about 4.2 MB here
    // against 4.7 MB; 6.5 MB when a version was a 16-byte `Version`.
    let wide = (versions * size_of::<Version>()) as u64;
    assert!(
        grown < wide,
        "generating grew the peak by {grown} bytes, not less than {wide} bytes of 16-byte versions"
    );
}
