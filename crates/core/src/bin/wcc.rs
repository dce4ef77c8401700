//! `wcc` — regenerate any of the paper's tables and figures from the
//! command line.
//!
//! ```text
//! wcc figure <1..8> [--quick] [--jobs N] [--obs PATH]   regenerate one figure
//! wcc figures --policies new [--quick | --smoke] [--jobs N]   literature-policy figures
//! wcc table <1|2>   [--quick] [--jobs N]     regenerate one table
//! wcc ablations               [--jobs N]     run the extension ablations
//! wcc all           [--quick] [--jobs N]     everything, in paper order
//! wcc trace <fig2..fig8 | --smoke> [--quick] [--jobs N] [--obs PATH] [--limit N]
//! wcc metrics       [--quick] [--jobs N]     event metrics + wall-clock profile
//! wcc serve   [--smoke | --listen A --control A] [workload flags]
//! wcc loadgen [--smoke] [--threads N] [--shards N] [--reactor-threads N] [workload flags]
//! wcc openloop [--smoke] [--rate RPS] [--arrivals N] [--mode poisson|fixed] [workload flags]
//! wcc replay  [--smoke] [--trace NAME] [--requests N] [--compression C]
//! wcc soak    [--smoke] [--conns N] [--processes N] [--reactor-threads N]
//! wcc analyze [--json] [--check-fixtures [DIR]]  run the invariant linter
//! ```
//!
//! `--quick` uses the reduced test-scale configuration; the default is the
//! paper-scale run (slower, but the shape checks are sharper).
//!
//! `--jobs N` sizes the sweep executor's worker pool (`0` or omitted:
//! hardware parallelism, also overridable via `WCC_JOBS`; `1`: fully
//! sequential). Results are bit-for-bit identical at every setting — the
//! executor only changes wall-clock time.
//!
//! `trace` re-runs one figure's protocol sweep with a bounded event
//! probe attached to every point and emits the capture as deterministic
//! JSONL (`--obs PATH` writes a file, otherwise stdout; `--limit N` caps
//! buffered events per point). The same `--obs PATH` on `figure N` saves
//! that figure's capture alongside the rendered figure. `trace --smoke`
//! self-checks that sequential and two-worker captures are
//! byte-identical. `metrics` aggregates the event stream into counter /
//! histogram tables and prints the sweep executor's wall-clock profile
//! (the one opt-in wall-clock reader in the simulation path).
//!
//! `serve` and `loadgen` drive the live TCP stack (`liveserve`): a real
//! HTTP/1.0 origin with invalidation callbacks, fronted by a
//! consistency-aware proxy cache. `serve --smoke` and `loadgen --smoke`
//! are self-checking loopback exercises used by CI (performance is
//! measured by the repo benchmark, `bench/README.md`, not here).
//! `--shards N` shards the proxy cache (per shard: own lock, store,
//! pooled upstream connections); with `--smoke` it additionally
//! self-checks that aggregate counters are identical at 1 and N shards.
//! `--reactor-threads N` sizes the epoll event-loop pool on each data
//! path. Workload flags: `--files N --requests N --seed S` (synthetic
//! Worrell-style workload).
//!
//! `openloop` drives the live stack open-loop: arrivals come from a
//! deterministic virtual-time schedule (`--mode poisson|fixed` at
//! `--rate` requests/s) and fire whether or not earlier requests have
//! completed; a bounded pending queue sheds what the stack cannot
//! absorb, so the report separates offered from achieved rate and
//! counts queue-full and timeout drops. `replay` streams a synthetic
//! trace (`--trace campus:das|campus:fas|campus:hcs|microsoft|bu`)
//! through the same stack without materializing it, compressed by
//! `--compression` virtual seconds per wall second. Both carry
//! self-checking `--smoke` modes (conservation of every offered shot;
//! `replay --smoke` also streams a trace through the closed-loop driver
//! and demands every record be sent exactly once).
//!
//! `soak` is the open-loop connection soak: it parks thousands of idle
//! keep-alive connections against the proxy (in child worker processes
//! at full scale, in-process for `--smoke`) while an active request mix
//! keeps latency histograms honest, then gates on the reactor's scaling
//! invariants (every connection held, zero shed accepts, request totals
//! preserved, cache self-check exact). `soak-worker` is the hidden
//! child-process entry point.

use webcache::experiments::report::{
    render_bandwidth_figure, render_figure1, render_missrate_figure, render_server_load_figure,
    render_table1, render_table2,
};
use webcache::experiments::trace::{self, TraceTarget};
use webcache::experiments::{
    ablations, base::run_base_with, hierarchy_bias::run_figure1, optimized::run_optimized_with,
    tables, traced::run_traced_with, Scale,
};
use webcache::{generate_synthetic, ProtocolSpec, SweepRunner, Workload, WorrellConfig};
use webtrace::campus::{generate_campus_trace, CampusProfile};

fn usage() -> ! {
    eprintln!(
        "usage: wcc <figure 1-8 | table 1-2 | ablations | all> [--quick] [--jobs N] [--obs PATH]\n\
         \x20      wcc figures --policies new [--quick | --smoke] [--jobs N]\n\
         \x20      wcc trace   <fig2-fig8 | --smoke> [--quick] [--jobs N] [--obs PATH] [--limit N]\n\
         \x20      wcc metrics [--quick] [--jobs N]\n\
         \x20      wcc serve   [--smoke | --listen ADDR --control ADDR] [--files N --requests N --seed S]\n\
         \x20      wcc loadgen [--smoke] [--threads N] [--shards N] [--reactor-threads N] [--files N --requests N --seed S]\n\
         \x20      wcc openloop [--smoke] [--rate RPS --arrivals N --mode poisson|fixed --jobs N --compression C] [workload flags]\n\
         \x20      wcc replay  [--smoke] [--trace campus:das|campus:fas|campus:hcs|microsoft|bu --requests N --compression C]\n\
         \x20      wcc soak    [--smoke] [--conns N] [--processes N] [--reactor-threads N] [--active N]\n\
         \x20      wcc analyze [--json] [--check-fixtures [DIR]] [--quiet]\n\
         regenerates the tables and figures of Gwertzman & Seltzer,\n\
         'World Wide Web Cache Consistency' (USENIX 1996), or runs the\n\
         live TCP origin/proxy stack (serve, loadgen, openloop, replay, soak)\n\
         --jobs N    sweep-executor workers (0 = hardware parallelism; 1 = sequential)\n\
         --obs PATH  write the deterministic JSONL event capture to PATH\n\
         --limit N   buffered events per sweep point (default 4096)"
    );
    std::process::exit(2);
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale::quick()
    } else {
        Scale::full()
    }
}

fn figure(n: u32, quick: bool, runner: &SweepRunner, obs: Option<&ObsArgs>) {
    match n {
        1 => println!("{}", render_figure1(&run_figure1())),
        2 => println!(
            "{}",
            render_bandwidth_figure("Figure 2: bandwidth", &run_base_with(&scale(quick), runner))
        ),
        3 => println!(
            "{}",
            render_missrate_figure(
                "Figure 3: miss/stale rates",
                &run_base_with(&scale(quick), runner)
            )
        ),
        4 => println!(
            "{}",
            render_bandwidth_figure(
                "Figure 4: bandwidth",
                &run_optimized_with(&scale(quick), runner)
            )
        ),
        5 => println!(
            "{}",
            render_missrate_figure(
                "Figure 5: miss/stale rates",
                &run_optimized_with(&scale(quick), runner)
            )
        ),
        6 => println!(
            "{}",
            render_bandwidth_figure(
                "Figure 6: bandwidth",
                &run_traced_with(&scale(quick), runner).averaged
            )
        ),
        7 => println!(
            "{}",
            render_missrate_figure(
                "Figure 7: miss/stale rates",
                &run_traced_with(&scale(quick), runner).averaged
            )
        ),
        8 => println!(
            "{}",
            render_server_load_figure(
                "Figure 8: server load",
                &run_traced_with(&scale(quick), runner).averaged
            )
        ),
        _ => usage(),
    }
    // `--obs PATH` on a figure saves that figure's event capture too.
    if let (Some(obs), Some(target)) = (obs, TraceTarget::parse(&n.to_string())) {
        let doc = trace::capture(target, &scale(quick), runner, obs.limit);
        write_capture(&doc, Some(&obs.path));
    }
}

/// `wcc figures --policies new`: the literature-policy extension
/// figures — RenewableTTL and UpdateRisk swept against the invalidation
/// reference, plus the eviction-policy comparison — followed by one
/// open-loop liveserve report per new policy on the real TCP stack.
/// `--smoke` is the CI entry: two-point sweeps on a small workload and
/// short open-loop runs, self-checked.
fn cmd_figures(quick: bool, smoke: bool, runner: &SweepRunner) {
    use wcc_load::ScheduleConfig;
    use webcache::experiments::policies::{render_policy_figures, run_policies_with};

    let s = if smoke {
        let mut s = Scale::quick();
        // Enough files that the bounded eviction panel actually evicts
        // (the store capacity is a fraction of the population footprint).
        s.worrell = WorrellConfig::scaled(100, 3_000);
        s.alex_thresholds = vec![5, 50];
        s.ttl_hours = vec![24, 168];
        s
    } else {
        scale(quick)
    };
    let report = run_policies_with(&s, runner);
    println!(
        "{}",
        render_policy_figures("Literature policies (decision-API extensions)", &report)
    );

    // One open-loop run per new policy: offered load against the live
    // stack at 1 shard (the delay-aware policies learn per-shard state,
    // and one shard is the configuration the differential test pins).
    let wl = generate_synthetic(&s.worrell, s.seed);
    let window = (wl.end - wl.start).as_secs() as f64;
    let (rate, arrivals) = if smoke {
        (500.0, 1_000u64)
    } else {
        (1_000.0, 5_000)
    };
    let mut ok = true;
    for spec in [ProtocolSpec::RenewableTtl(24), ProtocolSpec::UpdateRisk(5)] {
        let schedule = ScheduleConfig {
            clients: 16,
            rate_rps: rate,
            mode: wcc_load::ArrivalMode::Poisson,
            seed: s.seed,
            total: arrivals,
        };
        // Compress the workload window into the run's expected wall
        // duration so the scripted modifications play out while it lasts.
        let compression = window * rate / arrivals as f64;
        let live = webcache::Experiment::new(&wl)
            .protocol(spec)
            .shards(1)
            .run_open_loop(&schedule, 4, compression)
            .expect("open-loop policy run");
        ok &= live.conserves() && live.completed > 0;
        println!("{}", live.to_json());
    }
    if smoke && !ok {
        eprintln!("figures --smoke: open-loop acceptance checks failed (conservation/completion)");
        std::process::exit(1);
    }
}

fn table(n: u32, quick: bool, runner: &SweepRunner) {
    match n {
        1 => println!("{}", render_table1(&tables::table1_with(1996, runner))),
        2 => {
            let requests = if quick { 20_000 } else { 150_000 };
            println!(
                "{}",
                render_table2(&tables::table2_with(1996, requests, runner))
            );
        }
        _ => usage(),
    }
}

fn run_ablations(runner: &SweepRunner) {
    println!("== Ablation: workload properties (Worrell -> trace-like) ==");
    println!(
        "{:<58}{:>10}{:>11}{:>8}{:>7}",
        "variant", "alex20 MB", "inval MB", "stale%", "wins?"
    );
    for r in ablations::workload_ablation_with(800, 30_000, 1996, runner) {
        println!(
            "{:<58}{:>10.3}{:>11.3}{:>8.2}{:>7}",
            r.variant,
            r.alex.total_mb(),
            r.invalidation.total_mb(),
            r.weak_stale_pct(),
            if r.weak_wins_bandwidth() { "yes" } else { "no" }
        );
    }

    let campus = generate_campus_trace(&CampusProfile::hcs(), 1996);
    let wl = Workload::from_server_trace(&campus.trace);

    println!("\n== Ablation: message costing (HCS, Alex@20%) ==");
    let (paper, wire) = ablations::costing_ablation_with(&wl, ProtocolSpec::Alex(20), runner);
    println!(
        "  43-byte messages: {:.3} MB | serialised HTTP/1.0: {:.3} MB | behaviour identical: {}",
        paper.total_mb(),
        wire.total_mb(),
        paper.cache == wire.cache
    );

    println!("\n== Ablation: dynamic (uncacheable) cgi content (HCS, Alex@20%) ==");
    let cgi = webtrace::FileType::Cgi.class_index();
    let (cacheable, dynamic) =
        ablations::dynamic_content_ablation_with(&wl, ProtocolSpec::Alex(20), cgi, runner);
    println!(
        "  cgi cached: {:.3} MB, {:.2}% miss | cgi forwarded: {:.3} MB, {:.2}% miss",
        cacheable.total_mb(),
        cacheable.miss_pct(),
        dynamic.total_mb(),
        dynamic.miss_pct()
    );

    println!("\n== Ablation: self-tuning vs fixed Alex thresholds (HCS) ==");
    let (tuned, fixed) = ablations::selftuning_comparison_with(&wl, &[5, 10, 20, 50, 100], runner);
    println!(
        "  self-tuning : {:.3} MB, stale {:.2}%, {} ops",
        tuned.total_mb(),
        tuned.stale_pct(),
        tuned.server_ops()
    );
    for (pct, r) in fixed {
        println!(
            "  fixed {pct:>3}%  : {:.3} MB, stale {:.2}%, {} ops",
            r.total_mb(),
            r.stale_pct(),
            r.server_ops()
        );
    }

    println!("\n== Ablation: bounded cache capacity (HCS, Alex@30%) ==");
    println!(
        "  {:>10}{:>12}{:>10}{:>9}{:>9}",
        "capacity", "bandwidth", "evicted", "miss%", "stale%"
    );
    for p in
        ablations::capacity_sweep_with(&wl, ProtocolSpec::Alex(30), &[0.02, 0.1, 0.5, 2.0], runner)
    {
        println!(
            "  {:>9.0}%{:>9.3} MB{:>10}{:>9.2}{:>9.2}",
            100.0 * p.capacity_fraction,
            p.result.total_mb(),
            p.evictions,
            p.result.miss_pct(),
            p.result.stale_pct()
        );
    }

    println!("\n== Ablation: eviction policy at 10% capacity (HCS, Alex@30%) ==");
    let (lru, le, fifo, fe) =
        ablations::eviction_policy_comparison_with(&wl, ProtocolSpec::Alex(30), 0.10, runner);
    println!(
        "  LRU : {:.3} MB, {:.2}% miss, {le} evictions | FIFO: {:.3} MB, {:.2}% miss, {fe} evictions",
        lru.total_mb(),
        lru.miss_pct(),
        fifo.total_mb(),
        fifo.miss_pct()
    );

    println!("\n== Ablation: mean request latency (HCS; 150ms RTT, 28.8kbps link) ==");
    for (name, ms) in ablations::latency_comparison_with(&wl, 150.0, 3_600.0, runner) {
        println!("  {name:<18}: {ms:>8.1} ms/request");
    }

    println!("\n== Extension: invalidation under a 12h notification partition (HCS) ==");
    let outages = vec![webcache::experiments::failure::Outage {
        from: wl.start + simcore::SimDuration::from_days(5),
        until: wl.start + simcore::SimDuration::from_days(5) + simcore::SimDuration::from_hours(12),
    }];
    let (part, alex) =
        webcache::experiments::failure::resilience_comparison_with(&wl, &outages, 10, runner);
    println!(
        "  invalidation: {} stale hits, {} failed delivery attempts, {} late notices",
        part.result.cache.stale_hits, part.failed_attempts, part.late_deliveries
    );
    println!(
        "  Alex@10%    : {} stale hits, no server-side retry state at all",
        alex.cache.stale_hits
    );

    println!("\n== Extension: staleness severity (HCS; how old is stale data?) ==");
    for (name, stale_pct, severity) in ablations::severity_comparison_with(&wl, runner) {
        match severity {
            Some(hours) => {
                println!("  {name:<16}: {stale_pct:>5.2}% stale, {hours:>7.1} h mean staleness age")
            }
            None => println!("  {name:<16}: {stale_pct:>5.2}% stale (never serves stale)"),
        }
    }

    println!("\n== Extension: proxy placement vs %-remote (Alex@20%) ==");
    println!(
        "  {:<6}{:>9}{:>12}{:>12}{:>12}{:>11}{:>11}",
        "trace", "remote%", "no-proxy", "boundary", "universal", "bnd-red%", "uni-red%"
    );
    for row in webcache::experiments::deployment::deployment_comparison_with(
        ProtocolSpec::Alex(20),
        1996,
        1,
        runner,
    ) {
        println!(
            "  {:<6}{:>8.0}%{:>12}{:>12}{:>12}{:>10.1}%{:>10.1}%",
            row.trace,
            100.0 * row.remote_fraction,
            row.no_proxy_ops,
            row.boundary_ops,
            row.universal_ops,
            100.0 * row.boundary_reduction(),
            100.0 * row.universal_reduction()
        );
    }

    println!("\n== Extension: per-class TTLs informed by Table 2 (HCS) ==");
    let class_ttl = webcache::run(
        &wl,
        ProtocolSpec::ClassTtlTable2,
        &webcache::SimConfig::optimized(),
    );
    println!(
        "  class-TTL   : {:.3} MB, stale {:.2}%, {} ops",
        class_ttl.total_mb(),
        class_ttl.stale_pct(),
        class_ttl.server_ops()
    );
}

/// Flags shared by the live-stack subcommands (`serve`, `loadgen`,
/// `openloop`, `replay`).
struct LiveArgs {
    smoke: bool,
    files: usize,
    requests: usize,
    seed: u64,
    threads: usize,
    shards: usize,
    reactor_threads: usize,
    listen: String,
    control: String,
    rate: f64,
    arrivals: u64,
    mode: wcc_load::ArrivalMode,
    workers: usize,
    queue_cap: usize,
    timeout_ms: u64,
    compression: f64,
    trace: String,
}

fn parse_live_args(args: &[String]) -> LiveArgs {
    let mut parsed = LiveArgs {
        smoke: false,
        files: 120,
        requests: 4_000,
        seed: 1996,
        threads: 1,
        shards: 1,
        reactor_threads: 1,
        listen: "127.0.0.1:8080".to_string(),
        control: "127.0.0.1:8081".to_string(),
        rate: 1_000.0,
        arrivals: 5_000,
        mode: wcc_load::ArrivalMode::Poisson,
        workers: 4,
        queue_cap: 512,
        timeout_ms: 1_000,
        compression: 0.0, // 0 = pick so the workload window fits the run
        trace: "campus:das".to_string(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> String {
            it.next().cloned().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--files" => parsed.files = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--requests" => parsed.requests = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--seed" => parsed.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--threads" => parsed.threads = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--shards" => parsed.shards = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--reactor-threads" => {
                parsed.reactor_threads = value(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--listen" => parsed.listen = value(&mut it),
            "--control" => parsed.control = value(&mut it),
            "--rate" => parsed.rate = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--arrivals" => parsed.arrivals = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--mode" => {
                parsed.mode = match value(&mut it).as_str() {
                    "poisson" => wcc_load::ArrivalMode::Poisson,
                    "fixed" => wcc_load::ArrivalMode::FixedRate,
                    _ => usage(),
                }
            }
            "--jobs" | "--workers" => {
                parsed.workers = value(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--queue-cap" => parsed.queue_cap = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--timeout-ms" => {
                parsed.timeout_ms = value(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--compression" => {
                parsed.compression = value(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--trace" => parsed.trace = value(&mut it),
            _ => usage(),
        }
    }
    parsed
}

/// The paper's three mechanisms, as the live subcommands run them.
const PAPER_SPECS: [ProtocolSpec; 3] = [
    ProtocolSpec::Ttl(24),
    ProtocolSpec::Alex(20),
    ProtocolSpec::Invalidation,
];

fn live_workload(a: &LiveArgs) -> Workload {
    generate_synthetic(&WorrellConfig::scaled(a.files, a.requests), a.seed)
}

/// `wcc serve`: run the live origin. `--smoke` exercises it end to end
/// on loopback (200 with body, 304 revalidation, one delivered
/// invalidation) and self-checks; otherwise it binds the given
/// addresses on the wall clock and publishes scripted modifications as
/// their instants pass, until killed.
fn cmd_serve(a: &LiveArgs) {
    use liveserve::{HttpConn, LiveClock, LiveOrigin, OriginConfig};
    use std::io::{BufRead, BufReader, Write};

    let wl = live_workload(a);

    if a.smoke {
        let clock = LiveClock::virtual_at(wl.start);
        let mut config = OriginConfig::new(std::sync::Arc::clone(&wl.population), clock);
        config.window_start = wl.start;
        config.window_end = wl.end;
        config.reactor_threads = a.reactor_threads;
        let origin = LiveOrigin::spawn(config).expect("bind loopback origin");

        // 1) A full GET returns the body with its stamps.
        let path = wl.population.get(wl.requests[0].1).path.clone();
        let stream = std::net::TcpStream::connect(origin.data_addr()).expect("dial origin");
        let mut conn = HttpConn::new(stream).expect("wrap origin conn");
        conn.write_request(&httpsim::Request::get(path.clone()))
            .expect("send GET");
        let (resp, body) = conn.read_response().expect("read GET response");
        let got_200 = resp.status == httpsim::Status::Ok
            && body.len() as u64 == resp.content_length.unwrap_or(0);

        // 2) A conditional GET against the served Last-Modified is a 304.
        let lm = resp.last_modified.expect("200 carries Last-Modified");
        conn.write_request(&httpsim::Request::get_if_modified_since(path, lm))
            .expect("send conditional GET");
        let (resp, body) = conn.read_response().expect("read 304");
        let got_304 = resp.status == httpsim::Status::NotModified && body.is_empty();

        // 3) Subscribing to a file that is scripted to change and
        // advancing past the change delivers INVALIDATE.
        let (mod_t, mod_file) = wl
            .population
            .all_modifications()
            .into_iter()
            .find(|&(t, _)| t >= wl.start && t <= wl.end)
            .expect("synthetic workload has modifications");
        let mod_path = wl.population.get(mod_file).path.clone();
        let control = std::net::TcpStream::connect(origin.control_addr()).expect("dial control");
        let mut writer = control.try_clone().expect("clone control stream");
        let mut reader = BufReader::new(control);
        writeln!(writer, "SUBSCRIBE {mod_path}").expect("send SUBSCRIBE");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read OK");
        let subscribed = line.trim_end() == "OK";
        // advance_to blocks until we ACK, so publish from a helper.
        let invalidated = std::thread::scope(|s| {
            let h = s.spawn(|| origin.advance_to(mod_t));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read INVALIDATE");
            let ok = line.trim_end() == format!("INVALIDATE {mod_path}");
            writeln!(writer, "ACK").expect("send ACK");
            h.join().expect("publisher thread");
            ok
        });

        let load = origin.shutdown();
        println!(
            "{{\"mode\":\"serve-smoke\",\"get_200\":{got_200},\"revalidated_304\":{got_304},\
             \"subscribed\":{subscribed},\"invalidation_delivered\":{invalidated},\
             \"document_requests\":{},\"validation_queries\":{},\"invalidations_sent\":{}}}",
            load.document_requests, load.validation_queries, load.invalidations_sent
        );
        if !(got_200 && got_304 && subscribed && invalidated) {
            eprintln!("serve --smoke: live origin failed a check");
            std::process::exit(1);
        }
        return;
    }

    // Long-running wall-clock mode: scripted instants map to real time
    // from startup.
    let clock = LiveClock::wall_from(wl.start);
    let mut config = OriginConfig::new(std::sync::Arc::clone(&wl.population), clock.clone());
    config.window_start = wl.start;
    config.window_end = wl.end;
    config.data_bind = a.listen.clone();
    config.control_bind = a.control.clone();
    config.reactor_threads = a.reactor_threads;
    let origin = LiveOrigin::spawn(config).expect("bind serve addresses");
    println!(
        "{{\"mode\":\"serve\",\"data\":\"{}\",\"control\":\"{}\",\"files\":{}}}",
        origin.data_addr(),
        origin.control_addr(),
        wl.population.len()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_millis(500));
        origin.advance_to(clock.now());
    }
}

/// `wcc loadgen`: replay the synthetic workload through the live
/// origin+proxy under each of the paper's three mechanisms, printing one
/// JSON report per run. `--smoke` self-checks the acceptance conditions.
fn cmd_loadgen(a: &LiveArgs) {
    let wl = live_workload(a);
    let run = |spec: ProtocolSpec, threads: usize, shards: usize| {
        webcache::Experiment::new(&wl)
            .protocol(spec)
            .threads(threads)
            .shards(shards)
            .reactor_threads(a.reactor_threads)
            .run_live()
    };

    let mut saw_hits = true;
    let mut saw_304 = false;
    let mut saw_invalidation = false;
    let mut shards_agree = true;
    for spec in PAPER_SPECS {
        let report = run(spec, a.threads, a.shards).expect("live loadgen run");
        saw_hits &= report.cache.fresh_hits + report.cache.stale_hits > 0;
        saw_304 |= report.cache.validations_not_modified > 0;
        saw_invalidation |= report.invalidations_delivered > 0;
        println!("{}", report.to_json());
        if a.smoke && a.shards > 1 {
            // Sharding must not change what was served, only how fast:
            // replay single-threaded (where even wire byte counts are
            // deterministic) at 1 shard and at the requested count, and
            // demand identical aggregates.
            let baseline = run(spec, 1, 1).expect("1-shard baseline run");
            let sharded = run(spec, 1, a.shards).expect("sharded comparison run");
            let agrees = sharded.cache == baseline.cache
                && sharded.traffic == baseline.traffic
                && sharded.server == baseline.server
                && sharded.stale_age_total == baseline.stale_age_total
                && sharded.invalidations_delivered == baseline.invalidations_delivered;
            if !agrees {
                eprintln!(
                    "loadgen --smoke: {} aggregates changed between 1 and {} shard(s)",
                    spec.label(),
                    a.shards
                );
            }
            shards_agree &= agrees;
        }
    }
    if a.smoke && !(saw_hits && saw_304 && saw_invalidation && shards_agree) {
        eprintln!(
            "loadgen --smoke: acceptance checks failed \
             (hits in every run: {saw_hits}, any 304: {saw_304}, \
             any invalidation: {saw_invalidation}, shard-invariant counts: {shards_agree})"
        );
        std::process::exit(1);
    }
}

/// `wcc openloop`: impose load instead of negotiating it. Arrivals
/// follow a deterministic virtual-time schedule (Poisson or fixed-rate)
/// and fire regardless of completions; a bounded pending queue sheds
/// (and counts) what the stack cannot absorb, so offered and achieved
/// rate are separate, honest report fields. `--smoke` self-checks
/// conservation, completion and a delivered invalidation (that the
/// offered sequence is invariant to the worker count is pinned by
/// `crates/wcc-load/tests/openloop.rs`).
fn cmd_openloop(a: &LiveArgs) {
    use wcc_load::ScheduleConfig;

    let wl = live_workload(a);
    let window = (wl.end - wl.start).as_secs() as f64;
    let schedule = |rate: f64, total: u64| ScheduleConfig {
        clients: 16,
        rate_rps: rate,
        mode: a.mode,
        seed: a.seed,
        total,
    };
    // Unless overridden, compress the workload's whole virtual window
    // into the expected run duration (total/rate wall seconds) so the
    // scripted modification script plays out while the run lasts.
    let compression = |rate: f64, total: u64| {
        if a.compression > 0.0 {
            a.compression
        } else {
            window * rate / total as f64
        }
    };
    let run = |spec: ProtocolSpec, rate: f64, total: u64| {
        webcache::Experiment::new(&wl)
            .protocol(spec)
            .shards(a.shards)
            .reactor_threads(a.reactor_threads)
            .run_open_loop(&schedule(rate, total), a.workers, compression(rate, total))
    };
    let mut conserved = true;
    let mut completed_all = true;
    let mut saw_invalidation = false;
    for spec in PAPER_SPECS {
        let report = run(spec, a.rate, a.arrivals).expect("open-loop run");
        conserved &= report.conserves() && report.offered == a.arrivals;
        completed_all &= report.completed > 0;
        saw_invalidation |= report.invalidations_delivered > 0;
        println!("{}", report.to_json());
    }

    if a.smoke {
        println!(
            "{{\"mode\":\"openloop-smoke\",\"conserved\":{conserved},\
             \"completed_all\":{completed_all},\"invalidation_delivered\":{saw_invalidation}}}"
        );
        if !(conserved && completed_all && saw_invalidation) {
            eprintln!(
                "openloop --smoke: acceptance checks failed \
                 (conserved: {conserved}, completed in every run: {completed_all}, \
                 any invalidation: {saw_invalidation})"
            );
            std::process::exit(1);
        }
    }
}

/// `wcc replay`: stream a synthetic trace through the live stack
/// without materializing it, at `--compression` virtual seconds per
/// wall second. `--smoke` streams ≥100k records open-loop (conservation
/// self-check), then streams a short trace through the closed-loop
/// driver per policy and demands every record be sent exactly once.
fn cmd_replay(a: &LiveArgs) {
    use liveserve::StackSpec;
    use webtrace::campus::CampusProfile;
    use webtrace::microsoft::MicrosoftProfile;
    use webtrace::stream::{synthetic_stream, StreamMeta, SyntheticStreamConfig};

    let stream_config = |requests: u64| -> SyntheticStreamConfig {
        match a.trace.as_str() {
            "campus:das" => SyntheticStreamConfig::campus(&CampusProfile::das(), requests, a.seed),
            "campus:fas" => SyntheticStreamConfig::campus(&CampusProfile::fas(), requests, a.seed),
            "campus:hcs" => SyntheticStreamConfig::campus(&CampusProfile::hcs(), requests, a.seed),
            "microsoft" => SyntheticStreamConfig::microsoft(
                &MicrosoftProfile::scaled(requests as usize),
                800,
                a.seed,
            ),
            "bu" => SyntheticStreamConfig::bu(requests, a.seed),
            _ => usage(),
        }
    };
    let spec_of = |meta: &StreamMeta| StackSpec {
        population: std::sync::Arc::clone(&meta.population),
        classes: meta.classes.clone(),
        class_expires: Vec::new(),
        start: meta.start,
        end: meta.end,
    };
    let open_config = |policy: ProtocolSpec, target_rps: f64| {
        let mut run = liveserve::LiveRunConfig::new(policy);
        run.shards = a.shards;
        run.reactor_threads = a.reactor_threads;
        let mut open = wcc_load::OpenLoopConfig::new(run, target_rps);
        open.workers = a.workers;
        open.queue_cap = a.queue_cap;
        open.timeout_us = a.timeout_ms.saturating_mul(1_000);
        open
    };
    if a.smoke {
        // 1) Stream >= 100k records open-loop, never materialized, and
        // demand every record accounted for.
        let requests = (a.requests as u64).max(100_000);
        let cfg = stream_config(requests);
        let (meta, stream) = synthetic_stream(&cfg);
        let window = (meta.end - meta.start).as_secs() as f64;
        let target_wall = 15.0;
        let compression = if a.compression > 0.0 {
            a.compression
        } else {
            window / target_wall
        };
        let report = wcc_load::replay_open_loop(
            &spec_of(&meta),
            stream,
            compression,
            &open_config(ProtocolSpec::Ttl(24), requests as f64 / target_wall),
            &wcc_obs::ProbeHandle::none(),
        )
        .expect("streamed open-loop replay");
        println!("{}", report.to_json());
        let streamed_ok = report.offered == requests && report.conserves();

        // 2) The closed-loop driver takes the same stream: one thread,
        // nothing materialized, every record sent and classified once.
        let small = stream_config(5_000);
        let mut all_sent = true;
        for policy in PAPER_SPECS {
            let (meta, stream) = synthetic_stream(&small);
            let report = wcc_load::run_closed_loop(
                &spec_of(&meta),
                stream.map(|r| (r.time, r.file)),
                &liveserve::LiveRunConfig::new(policy),
                &wcc_obs::ProbeHandle::none(),
            )
            .expect("streamed closed-loop replay");
            all_sent &= report.requests == 5_000 && report.cache.requests() == 5_000;
        }
        println!(
            "{{\"mode\":\"replay-smoke\",\"streamed_records\":{requests},\
             \"conserved\":{streamed_ok},\"closed_loop_sent_every_record\":{all_sent}}}"
        );
        if !(streamed_ok && all_sent) {
            eprintln!(
                "replay --smoke: acceptance checks failed \
                 (conserved: {streamed_ok}, closed loop sent every record: {all_sent})"
            );
            std::process::exit(1);
        }
        return;
    }

    // Plain run: open-loop replay of the requested trace at the
    // requested compression (default: compress the window into ~30s).
    let cfg = stream_config(a.requests as u64);
    let (meta, stream) = synthetic_stream(&cfg);
    let window = (meta.end - meta.start).as_secs() as f64;
    let compression = if a.compression > 0.0 {
        a.compression
    } else {
        window / 30.0
    };
    let target_rps = a.requests as f64 * compression / window.max(1.0);
    let report = wcc_load::replay_open_loop(
        &spec_of(&meta),
        stream,
        compression,
        &open_config(ProtocolSpec::Ttl(24), target_rps),
        &wcc_obs::ProbeHandle::none(),
    )
    .expect("open-loop replay");
    println!("{}", report.to_json());
}

/// Flags for `wcc soak`; unset fields fall back to the profile
/// (`--smoke` or full-scale) defaults.
struct SoakArgs {
    smoke: bool,
    conns: Option<usize>,
    processes: Option<usize>,
    reactor_threads: Option<usize>,
    active: Option<usize>,
}

fn parse_soak_args(args: &[String]) -> SoakArgs {
    let mut parsed = SoakArgs {
        smoke: false,
        conns: None,
        processes: None,
        reactor_threads: None,
        active: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--conns" => parsed.conns = Some(value(&mut it)),
            "--processes" => parsed.processes = Some(value(&mut it)),
            "--reactor-threads" => parsed.reactor_threads = Some(value(&mut it)),
            "--active" => parsed.active = Some(value(&mut it)),
            _ => usage(),
        }
    }
    parsed
}

/// `wcc soak`: the open-loop connection soak (see module docs). Prints
/// the report JSON plus the wcc-obs histograms (accept backlog depth,
/// live latency) and exits nonzero if any scaling invariant fails.
fn cmd_soak(a: &SoakArgs) {
    use liveserve::{run_soak, SoakConfig};

    let mut cfg = if a.smoke {
        SoakConfig::smoke()
    } else {
        SoakConfig::full()
    };
    if let Some(conns) = a.conns {
        cfg.conns = conns;
    }
    if let Some(processes) = a.processes {
        cfg.worker_processes = processes;
    }
    if let Some(reactors) = a.reactor_threads {
        cfg.reactor_threads = reactors;
    }
    if let Some(active) = a.active {
        cfg.active = active;
    }

    // Capture the reactor's event stream (ConnAccepted/ConnClosed/
    // AcceptBacklog plus per-request latency) into a ring large enough
    // for the full 10k soak, then fold it into metrics tables.
    let handle = wcc_obs::ProbeHandle::buffered(1 << 18);
    let report = match run_soak(&cfg, &handle) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("soak: {e}");
            std::process::exit(1);
        }
    };
    let mut metrics = wcc_obs::MetricsProbe::new();
    handle.drain_into(&mut metrics);

    println!("{}", report.to_json());
    println!("\n== Soak counters ==");
    print!("{}", metrics.registry().render_counters());
    println!("\n== Soak histograms (log2 buckets) ==");
    print!("{}", metrics.registry().render_histograms());

    if let Err(problems) = report.verify() {
        eprintln!("soak: invariants violated: {problems}");
        std::process::exit(1);
    }
}

/// Observability flags: the capture destination and per-point ring size.
struct ObsArgs {
    path: String,
    limit: usize,
}

/// Write a capture document to `path`, or stdout when `None`.
fn write_capture(doc: &str, path: Option<&str>) {
    match path {
        Some(path) => {
            std::fs::write(path, doc).unwrap_or_else(|e| {
                eprintln!("wcc: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "wcc: wrote {} line(s) of event capture to {path}",
                doc.lines().count()
            );
        }
        None => print!("{doc}"),
    }
}

/// `wcc trace`: capture one figure's sweep as deterministic JSONL, or
/// (`--smoke`) self-check that worker count does not change a byte.
fn cmd_trace(
    target: Option<&str>,
    smoke: bool,
    quick: bool,
    runner: &SweepRunner,
    obs: Option<&ObsArgs>,
    limit: usize,
) {
    if smoke {
        match trace::capture_smoke() {
            Ok(doc) => {
                println!(
                    "{{\"mode\":\"trace-smoke\",\"deterministic\":true,\"lines\":{}}}",
                    doc.lines().count()
                );
            }
            Err((seq, par)) => {
                eprintln!(
                    "trace --smoke: sequential and parallel captures differ \
                     ({} vs {} bytes)",
                    seq.len(),
                    par.len()
                );
                std::process::exit(1);
            }
        }
        return;
    }
    let target = TraceTarget::parse(target.unwrap_or_else(|| usage())).unwrap_or_else(|| usage());
    let doc = trace::capture(target, &scale(quick), runner, limit);
    write_capture(&doc, obs.map(|o| o.path.as_str()));
}

/// `wcc metrics`: aggregate the event stream over a figure sweep and a
/// small live run into counter/histogram tables, plus the wall-clock
/// profile of where the time went.
fn cmd_metrics(quick: bool, runner: &SweepRunner) {
    let profiler = wcc_obs::profile::global();
    profiler.enable(true);

    let mut registry = trace::collect_metrics(TraceTarget::Fig4, &scale(quick), runner);

    // A small live loopback run feeds the live-latency histogram; the
    // simulators cannot (they have no wall-clock request path).
    {
        let _span = profiler.span("live invalidation run");
        let wl = generate_synthetic(&WorrellConfig::scaled(80, 1_500), 1996);
        let mut live = wcc_obs::MetricsProbe::new();
        match webcache::Experiment::new(&wl)
            .protocol(ProtocolSpec::Invalidation)
            .threads(2)
            .shards(2)
            .probe(&mut live)
            .run_live()
        {
            Ok(_) => registry.merge(live.registry()),
            Err(e) => eprintln!("wcc metrics: skipping live run ({e})"),
        }
    }

    println!("== Event counters ==");
    print!("{}", registry.render_counters());
    println!("\n== Histograms (log2 buckets) ==");
    print!("{}", registry.render_histograms());
    println!("\n== Wall-clock profile (phase / job) ==");
    print!("{}", profiler.take().render_table());
    profiler.enable(false);
}

/// Default per-point ring capacity for `wcc trace`.
const DEFAULT_TRACE_LIMIT: usize = 4096;

/// Split flags from positionals, consuming flag values so they are not
/// mistaken for subcommand arguments. Returns
/// `(quick, runner, obs, limit, positional)`.
fn parse_args(args: &[String]) -> (bool, SweepRunner, Option<ObsArgs>, usize, Vec<&str>) {
    let mut quick = false;
    let mut jobs: usize = 0;
    let mut obs_path: Option<String> = None;
    let mut limit: usize = DEFAULT_TRACE_LIMIT;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => positional.push("--smoke"),
            "--policies" => positional.push("--policies"),
            "--jobs" => {
                let value = it.next().unwrap_or_else(|| usage());
                jobs = value.parse().unwrap_or_else(|_| usage());
            }
            flag if flag.starts_with("--jobs=") => {
                jobs = flag["--jobs=".len()..].parse().unwrap_or_else(|_| usage());
            }
            "--obs" => obs_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            flag if flag.starts_with("--obs=") => {
                obs_path = Some(flag["--obs=".len()..].to_string());
            }
            "--limit" => {
                let value = it.next().unwrap_or_else(|| usage());
                limit = value.parse().unwrap_or_else(|_| usage());
            }
            flag if flag.starts_with("--limit=") => {
                limit = flag["--limit=".len()..].parse().unwrap_or_else(|_| usage());
            }
            flag if flag.starts_with("--") => usage(),
            p => positional.push(p),
        }
    }
    let runner = if jobs == 0 {
        SweepRunner::from_env()
    } else {
        SweepRunner::new(jobs)
    };
    let obs = obs_path.map(|path| ObsArgs { path, limit });
    (quick, runner, obs, limit, positional)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The live-stack subcommands carry their own flag set.
    match args.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&parse_live_args(&args[1..])),
        Some("loadgen") => return cmd_loadgen(&parse_live_args(&args[1..])),
        Some("openloop") => return cmd_openloop(&parse_live_args(&args[1..])),
        Some("replay") => return cmd_replay(&parse_live_args(&args[1..])),
        Some("soak") => return cmd_soak(&parse_soak_args(&args[1..])),
        // Hidden: the child-process mode `wcc soak` re-execs to hold
        // idle connections outside the parent's fd table.
        Some("soak-worker") => {
            let (addr, conns) = match (args.get(1), args.get(2).and_then(|v| v.parse().ok())) {
                (Some(addr), Some(conns)) => (addr, conns),
                _ => usage(),
            };
            if let Err(e) = liveserve::soak_worker(addr, conns) {
                eprintln!("soak-worker: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("analyze") => std::process::exit(wcc_analyze::cli::run(&args[1..])),
        _ => {}
    }
    let (quick, runner, obs, limit, positional) = parse_args(&args);
    match positional.as_slice() {
        ["figure", n] => figure(
            n.parse().unwrap_or_else(|_| usage()),
            quick,
            &runner,
            obs.as_ref(),
        ),
        ["figures", rest @ ..] => {
            if !rest.windows(2).any(|w| w == ["--policies", "new"]) {
                usage()
            }
            cmd_figures(quick, rest.contains(&"--smoke"), &runner)
        }
        ["table", n] => table(n.parse().unwrap_or_else(|_| usage()), quick, &runner),
        ["ablations"] => run_ablations(&runner),
        ["trace", "--smoke"] | ["trace", "--smoke", ..] => {
            cmd_trace(None, true, quick, &runner, obs.as_ref(), limit)
        }
        ["trace", target] => cmd_trace(Some(target), false, quick, &runner, obs.as_ref(), limit),
        ["metrics"] => cmd_metrics(quick, &runner),
        ["all"] => {
            table(1, quick, &runner);
            table(2, quick, &runner);
            for n in 1..=8 {
                figure(n, quick, &runner, None);
            }
            run_ablations(&runner);
        }
        _ => usage(),
    }
}
