//! A day in the life of a 1996 proxy cache: replay the Microsoft-style
//! access mix through a bounded (LRU) proxy cache and watch consistency
//! metadata interact with capacity pressure — the paper assumes infinite
//! caches; this is the workspace's bounded-cache extension.
//!
//! ```sh
//! cargo run --release --example proxy_cache_sim [-- <capacity-mb>]
//! ```

use wwwcache::consistency::{CernPolicy, Effect, Engine, LinkModel, Reply, RetrievalMode};
use wwwcache::proxycache::{LruStore, Store};
use wwwcache::simcore::{FileId, SimTime};
use wwwcache::simstats::{DetRng, ZipfDist};
use wwwcache::wcc_obs::NoopProbe;
use wwwcache::webtrace::microsoft::{generate_microsoft_log, MicrosoftProfile};
use wwwcache::webtrace::FileType;

fn main() {
    let capacity_mb: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("capacity must be MB as u64"))
        .unwrap_or(16);

    // One weekday of accesses with the Table 2 mix, mapped onto a working
    // set of 20,000 distinct objects (ids drawn Zipf-popular).
    let accesses = generate_microsoft_log(&MicrosoftProfile::scaled(150_000), 1996);
    let objects = 20_000u64;
    let policy = CernPolicy::deployed_default();
    let policy_name = wwwcache::consistency::Policy::name(&policy).into_owned();
    let link = LinkModel::default();
    let mut cache = Engine::new(
        LruStore::new(capacity_mb * 1024 * 1024),
        Box::new(policy),
        RetrievalMode::Conditional,
        0,
        link,
    );

    let mut dynamic = 0u64;
    let day_start = SimTime::from_secs(0);
    let zipf = ZipfDist::new(objects as usize, 1.0);
    let mut rng = DetRng::seed_from_u64(7);
    for access in &accesses {
        let now = day_start + access.offset;
        // Zipf-popular object ids: the Web's access skew.
        let id = FileId::from_index(zipf.sample(&mut rng));
        // Dynamic (cgi) responses are never cached, as mid-90s proxies did.
        if access.file_type == FileType::Cgi {
            dynamic += 1;
            continue;
        }
        // The example is its own origin. Objects are unchanged within
        // the day, so every validation is a 304; and pretend each was
        // last modified long ago so the CERN LM-fraction rule gives a
        // sensible TTL.
        let reply = match cache.request(id, 0, now, None, &mut NoopProbe) {
            Effect::Serve(_) => continue,
            Effect::Validate(_) => Reply::NotModified {
                expires: None,
                message_bytes: 0,
                delay: link.delay_for(0),
            },
            Effect::Fetch | Effect::Forward => Reply::Body {
                size: access.size,
                last_modified: SimTime::ZERO,
                expires: None,
                conditional: false,
                message_bytes: 0,
                delay: link.delay_for(access.size),
            },
        };
        cache.apply(id, 0, now, reply, &mut NoopProbe);
    }

    let stats = *cache.stats();
    let (hits, misses) = (stats.fresh_hits, stats.misses + dynamic);
    let validations = stats.validations_not_modified;
    let total = hits + misses;
    println!(
        "proxy day: {} requests, {} distinct objects, {capacity_mb} MB cache",
        accesses.len(),
        objects
    );
    println!("  policy            : {policy_name}");
    println!(
        "  hit rate          : {:.1}%",
        100.0 * hits as f64 / total as f64
    );
    println!("  validations (304) : {validations}");
    println!("  evictions         : {}", cache.evictions());
    println!(
        "  resident          : {} objects / {:.1} MB",
        cache.store().len(),
        cache.store().resident_bytes() as f64 / 1048576.0
    );
    println!(
        "\nNetscape's 1995 claim was that a local proxy cuts internetwork\n\
         demand by up to 65% (§1); vary the capacity argument to see the\n\
         hit rate approach that bound as eviction pressure disappears."
    );
}
