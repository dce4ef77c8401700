//! `wcc` — regenerate any of the paper's tables and figures, or run the
//! live TCP origin/proxy stack, from the command line.
//!
//! [`COMMANDS`] is the whole surface: one synopsis line per subcommand
//! naming the flags it accepts. The usage text *is* those lines (`wcc`
//! with no arguments prints it; README "CLI reference" says what each
//! flag does), and [`Flags::parse`] rejects anything a line does not
//! declare. Exit codes: 0; 1 for a failed `--smoke` self-check or run;
//! 2 for bad usage.
//!
//! Two entry points are not in the table: `soak-worker ADDR N`, the
//! child process `wcc soak` re-execs to hold idle connections outside
//! the parent's fd table, and `analyze …`, whose arguments go to
//! `wcc_analyze::cli` untouched.

use std::str::FromStr;

use wcc_obs::JsonObj;
use webcache::experiments::report::{render_table1, render_table2};
use webcache::experiments::trace::{self, TraceTarget};
use webcache::experiments::{ablations, tables, DataSet, Figure, Scale, SimReport};
use webcache::{generate_synthetic, ProtocolSpec, SweepRunner, Workload, WorrellConfig};
use webtrace::campus::CampusProfile;

/// A subcommand's entry point; `Err` is a usage problem (exit 2).
type Run = fn(&Flags) -> Result<(), String>;

/// The command table: each subcommand's synopsis — its positional
/// argument, then every flag it accepts with the metavariable of its
/// value — and its entry point.
#[rustfmt::skip]
const COMMANDS: &[(&str, Run)] = &[
    ("figure <1-8> [--quick] [--jobs N] [--obs PATH] [--limit N]", cmd_figure),
    ("figures [--policies new] [--quick] [--smoke] [--jobs N]", cmd_figures),
    ("table <1|2> [--quick] [--jobs N]", |a| table(a.arg()?, a.has("quick"), &runner(a)?)),
    ("ablations [--jobs N]", |a| { print!("{}", ablations::report(&runner(a)?)); Ok(()) }),
    ("all [--quick] [--jobs N]", cmd_all),
    ("trace [fig2-fig8] [--smoke] [--quick] [--jobs N] [--obs PATH] [--limit N]", cmd_trace),
    ("metrics [--quick] [--jobs N]", cmd_metrics),
    ("serve [--smoke] [--listen ADDR] [--control ADDR] [--reactor-threads N] [--files N] [--requests N] [--seed S]", cmd_serve),
    ("loadgen [--smoke] [--threads N] [--shards N] [--reactor-threads N] [--files N] [--requests N] [--seed S]", cmd_loadgen),
    ("openloop [--smoke] [--rate RPS] [--arrivals N] [--mode poisson|fixed] [--workers N] [--jobs N] [--compression C] \
      [--shards N] [--reactor-threads N] [--files N] [--requests N] [--seed S]", cmd_openloop),
    ("replay [--smoke] [--trace campus:das|campus:fas|campus:hcs|microsoft|bu] [--requests N] [--compression C] [--seed S] \
      [--workers N] [--jobs N] [--queue-cap N] [--timeout-ms MS] [--shards N] [--reactor-threads N]", cmd_replay),
    ("soak [--smoke] [--conns N] [--processes N] [--reactor-threads N] [--active N]", cmd_soak),
];

/// The usage text: the command table's synopsis lines.
fn usage() -> String {
    let mut out = String::from("usage:");
    for (synopsis, _) in COMMANDS {
        out += &format!(" wcc {synopsis}\n      ");
    }
    out + " wcc analyze [--json] [--check-fixtures [DIR]] [--quiet]\n\
           regenerates the tables and figures of 'World Wide Web Cache Consistency' (USENIX 1996)\n\
           or runs the live TCP origin/proxy stack; `--flag VALUE` may be spelled `--flag=VALUE`"
}

/// The flags a synopsis declares, as `(name, metavariable)`; the
/// metavariable of a switch is `""`.
fn declared(synopsis: &str) -> impl Iterator<Item = (&str, &str)> {
    synopsis.split('[').filter_map(|group| {
        let flag = group.trim_end().trim_end_matches(']').strip_prefix("--")?;
        Some(flag.split_once(' ').unwrap_or((flag, "")))
    })
}

/// One subcommand's parsed command line.
#[derive(Debug)]
struct Flags {
    synopsis: &'static str,
    given: Vec<(&'static str, String)>,
    args: Vec<String>,
}

impl Flags {
    /// Split `args` into the flags `synopsis` declares (`--k v` or
    /// `--k=v`; a switch takes no value) and at most the one positional
    /// it names. An undeclared flag, a missing value, a value handed to
    /// a switch or a stray positional is an error.
    fn parse(args: &[String], synopsis: &'static str) -> Result<Flags, String> {
        let takes_arg = matches!(synopsis.split(' ').nth(1), Some(t) if !t.starts_with("[--"));
        let mut flags = Flags {
            synopsis,
            given: Vec::new(),
            args: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(body) = arg.strip_prefix("--") else {
                if !takes_arg || !flags.args.is_empty() {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                flags.args.push(arg.clone());
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (body, None),
            };
            let (name, metavar) = declared(synopsis)
                .find(|flag| flag.0 == name)
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            let value = match (metavar, inline) {
                ("", None) => String::new(),
                ("", Some(_)) => return Err(format!("--{name} takes no value")),
                (_, Some(value)) => value.to_string(),
                (_, None) => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("--{name} needs a value ({metavar})"))?,
            };
            flags.given.push((name, value));
        }
        Ok(flags)
    }

    /// The last value given for `name`. Reading a flag the synopsis does
    /// not declare is a bug in the command table.
    fn raw(&self, name: &str) -> Option<&str> {
        assert!(
            declared(self.synopsis).any(|flag| flag.0 == name),
            "--{name} is read but not declared"
        );
        let given = self.given.iter().rev().find(|g| g.0 == name);
        given.map(|g| g.1.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// `name`'s value as a `T`, if given.
    fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.raw(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: bad value '{v}'")))
            .transpose()
    }

    /// `name`'s value as a `T`, or `default`.
    fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// The positional argument.
    fn arg(&self) -> Result<&str, String> {
        let arg = self.args.first().ok_or("missing argument")?;
        Ok(arg)
    }
}

/// One field of a `--smoke` verdict: a self-check that must hold, or a
/// count reported beside the checks.
enum Smoke {
    Check(bool),
    Count(u64),
}
use Smoke::{Check, Count};

/// Print a `--smoke` verdict as one JSON line, then exit 1 naming the
/// checks that failed, if any did.
fn smoke_verdict(mode: &str, fields: &[(&str, Smoke)]) {
    let mut line = JsonObj::new();
    line.str("mode", mode);
    let mut failed = Vec::new();
    for &(name, ref field) in fields {
        match *field {
            Check(ok) => {
                failed.extend((!ok).then_some(name));
                line.bool(name, ok)
            }
            Count(n) => line.u64(name, n),
        };
    }
    println!("{}", line.finish());
    if !failed.is_empty() {
        fail(mode, format_args!("failed {}", failed.join(", ")));
    }
}

/// A run that could not proceed: say why and exit 1.
fn fail(what: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("{what}: {why}");
    std::process::exit(1);
}

fn scale(a: &Flags) -> Scale {
    if a.has("quick") {
        Scale::quick()
    } else {
        Scale::full()
    }
}

/// `--jobs N` sizes the sweep executor; 0 or absent sizes it to the
/// hardware.
fn runner(a: &Flags) -> Result<SweepRunner, String> {
    Ok(SweepRunner::new(a.get("jobs", 0)?))
}

/// Default per-point ring capacity for event captures.
const DEFAULT_TRACE_LIMIT: usize = 4096;

/// `wcc figure N`: render one row of the figure table; `--obs PATH`
/// saves that figure's event capture too.
fn cmd_figure(a: &Flags) -> Result<(), String> {
    let figure = a.arg()?.parse().ok().and_then(Figure::lookup);
    let figure = figure.ok_or("figure takes a number 1-8")?;
    let capture = match (a.raw("obs"), TraceTarget::of(figure)) {
        (Some(path), Some(target)) => Some((path, target, a.get("limit", DEFAULT_TRACE_LIMIT)?)),
        (Some(_), None) => return Err("figure 1 has no sweep to capture".to_string()),
        (None, _) if a.has("limit") => return Err("--limit needs --obs PATH".to_string()),
        (None, _) => None,
    };
    let (scale, runner) = (scale(a), runner(a)?);
    println!("{}", figure.render(&scale, &runner));
    if let Some((path, target, limit)) = capture {
        save_capture(&trace::capture(target, &scale, &runner, limit), path);
    }
    Ok(())
}

/// `wcc figures --policies new`: RenewableTTL and UpdateRisk swept
/// against the invalidation reference plus the eviction-policy panel,
/// then one open-loop live report per new policy. `--smoke` shrinks both
/// halves and self-checks the live one.
fn cmd_figures(a: &Flags) -> Result<(), String> {
    use wcc_load::ScheduleConfig;
    use webcache::experiments::policies::{render_policy_figures, run_policies};

    if a.raw("policies") != Some("new") {
        return Err("figures needs --policies new".to_string());
    }
    let smoke = a.has("smoke");
    let mut s = scale(a);
    if smoke {
        s = Scale::quick();
        // Enough files that the bounded eviction panel actually evicts
        // (the store capacity is a fraction of the population footprint).
        s.worrell = WorrellConfig::scaled(100, 3_000);
        s.alex_thresholds = vec![5, 50];
        s.ttl_hours = vec![24, 168];
    }
    let report = run_policies(&s, &runner(a)?);
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
    if smoke {
        smoke_verdict("figures-smoke", &[("conserved_and_completed", Check(ok))]);
    }
    Ok(())
}

fn table(n: &str, quick: bool, runner: &SweepRunner) -> Result<(), String> {
    match n {
        "1" => println!("{}", render_table1(&tables::table1(1996, runner))),
        "2" => {
            let requests = if quick { 20_000 } else { 150_000 };
            println!("{}", render_table2(&tables::table2(1996, requests, runner)));
        }
        _ => return Err("table takes 1 or 2".to_string()),
    }
    Ok(())
}

/// `wcc all`: everything, in paper order.
fn cmd_all(a: &Flags) -> Result<(), String> {
    let (scale, runner) = (scale(a), runner(a)?);
    for n in ["1", "2"] {
        table(n, a.has("quick"), &runner)?;
    }
    // Figures on one data set are consecutive (2/3, 4/5, 6/7/8): sweep it
    // once and render each figure's panel of that report.
    let mut swept: Option<(DataSet, SimReport)> = None;
    for figure in Figure::all() {
        if let Some(data) = figure.data() {
            if swept.as_ref().is_none_or(|(last, _)| *last != data) {
                swept = Some((data, data.report(&scale, &runner)));
            }
        }
        let panel = swept.as_ref().and_then(|(_, report)| figure.panel(report));
        println!(
            "{}",
            panel.unwrap_or_else(|| figure.render(&scale, &runner))
        );
    }
    print!("{}", ablations::report(&runner));
    Ok(())
}

/// The paper's three mechanisms, as the live subcommands run them.
const PAPER_SPECS: [ProtocolSpec; 3] = [
    ProtocolSpec::Ttl(24),
    ProtocolSpec::Alex(20),
    ProtocolSpec::Invalidation,
];

/// The synthetic Worrell-style workload `--files --requests --seed` name.
fn live_workload(a: &Flags) -> Result<Workload, String> {
    let config = WorrellConfig::scaled(a.get("files", 120)?, a.get("requests", 4_000)?);
    Ok(generate_synthetic(&config, a.get("seed", 1996)?))
}

/// `--compression C`: virtual seconds per wall second, `auto` unless given.
fn compression(a: &Flags, auto: f64) -> Result<f64, String> {
    match a.opt("compression")? {
        None => Ok(auto),
        Some(c) if c > 0.0 => Ok(c),
        Some(_) => Err("--compression must be positive".to_string()),
    }
}

/// `--workers N` (or its older spelling `--jobs N`): open-loop driver
/// worker threads.
fn workers(a: &Flags) -> Result<usize, String> {
    a.get("workers", a.get("jobs", 4)?)
}

/// `wcc serve`: run the live origin — `--smoke` on loopback under a
/// virtual clock, self-checked; otherwise on the given addresses and the
/// wall clock, publishing scripted modifications as their instants
/// pass, until killed.
fn cmd_serve(a: &Flags) -> Result<(), String> {
    use liveserve::{HttpConn, LiveClock, LiveOrigin, OriginConfig};
    use std::io::{BufRead, BufReader, Read, Write};

    let wl = live_workload(a)?;
    let reactor_threads = a.get("reactor-threads", 1)?;
    let configure = |clock: LiveClock| {
        let mut config = OriginConfig::new(std::sync::Arc::clone(&wl.population), clock);
        config.window_start = wl.start;
        config.window_end = wl.end;
        config.reactor_threads = reactor_threads;
        config
    };

    if a.has("smoke") {
        let config = configure(LiveClock::virtual_at(wl.start));
        let origin = LiveOrigin::spawn(config).expect("bind loopback origin");

        // 1) A full GET returns the body with its stamps.
        let path = wl.population.get(wl.requests[0].1).path.to_owned();
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

        // 3) Fetching a file that is scripted to change on the control
        // port subscribes to it, as a proxy shard does, and advancing
        // past the change delivers INVALIDATE.
        let &(mod_t, mod_file) = wl
            .population
            .modifications_in(wl.start, wl.end)
            .first()
            .expect("synthetic workload has modifications");
        let mod_path = wl.population.get(mod_file).path.to_owned();
        let control = std::net::TcpStream::connect(origin.control_addr()).expect("dial control");
        let mut writer = control.try_clone().expect("clone control stream");
        let mut reader = BufReader::new(control);
        writer
            .write_all(&httpsim::Request::get(mod_path.clone()).to_bytes())
            .expect("send GET on the control port");
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            let read = reader.read_line(&mut head).expect("read the fetch's reply");
            assert!(read > 0, "the origin hung up mid-reply");
        }
        let resp = httpsim::Response::parse(&head).expect("a response head");
        let mut body = vec![0; resp.content_length.unwrap_or(0) as usize];
        reader.read_exact(&mut body).expect("read the fetch's body");
        let subscribed = resp.status == httpsim::Status::Ok && origin.subscription_count() == 1;
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
        let verdict = [
            ("get_200", Check(got_200)),
            ("revalidated_304", Check(got_304)),
            ("subscribed", Check(subscribed)),
            ("invalidation_delivered", Check(invalidated)),
            ("document_requests", Count(load.document_requests)),
            ("validation_queries", Count(load.validation_queries)),
            ("invalidations_sent", Count(load.invalidations_sent)),
        ];
        smoke_verdict("serve-smoke", &verdict);
        return Ok(());
    }

    // Long-running wall-clock mode: scripted instants map to real time
    // from startup.
    let clock = LiveClock::wall_from(wl.start);
    let mut config = configure(clock.clone());
    config.data_bind = a.get("listen", "127.0.0.1:8080".to_string())?;
    config.control_bind = a.get("control", "127.0.0.1:8081".to_string())?;
    let origin = LiveOrigin::spawn(config).expect("bind serve addresses");
    let started = JsonObj::new()
        .str("mode", "serve")
        .str("data", &origin.data_addr().to_string())
        .str("control", &origin.control_addr().to_string())
        .u64("files", wl.population.len() as u64)
        .finish();
    println!("{started}");
    loop {
        std::thread::sleep(std::time::Duration::from_millis(500));
        origin.advance_to(clock.now());
    }
}

/// `wcc loadgen`: the closed-loop driver under each of the paper's
/// three mechanisms, one JSON report per run.
fn cmd_loadgen(a: &Flags) -> Result<(), String> {
    let wl = live_workload(a)?;
    let (threads, shards) = (a.get("threads", 1)?, a.get("shards", 1)?);
    let reactor_threads = a.get("reactor-threads", 1)?;
    let run = |spec: ProtocolSpec, threads: usize, shards: usize| {
        webcache::Experiment::new(&wl)
            .protocol(spec)
            .threads(threads)
            .shards(shards)
            .reactor_threads(reactor_threads)
            .run_live()
    };

    let mut saw_hits = true;
    let mut saw_304 = false;
    let mut saw_invalidation = false;
    let mut shards_agree = true;
    for spec in PAPER_SPECS {
        let report = run(spec, threads, shards).expect("live loadgen run");
        saw_hits &= report.cache.fresh_hits + report.cache.stale_hits > 0;
        saw_304 |= report.cache.validations_not_modified > 0;
        saw_invalidation |= report.invalidations_delivered > 0;
        println!("{}", report.to_json());
        if a.has("smoke") && shards > 1 {
            // Sharding must not change what was served, only how fast:
            // replay single-threaded (where even wire byte counts are
            // deterministic) at 1 shard and at the requested count, and
            // demand identical aggregates.
            let baseline = run(spec, 1, 1).expect("1-shard baseline run");
            let sharded = run(spec, 1, shards).expect("sharded comparison run");
            let agrees = sharded.cache == baseline.cache
                && sharded.traffic == baseline.traffic
                && sharded.server == baseline.server
                && sharded.stale_age_total == baseline.stale_age_total
                && sharded.invalidations_delivered == baseline.invalidations_delivered;
            if !agrees {
                eprintln!(
                    "loadgen --smoke: {} aggregates changed between 1 and {shards} shard(s)",
                    spec.label()
                );
            }
            shards_agree &= agrees;
        }
    }
    if a.has("smoke") {
        let verdict = [
            ("hits_in_every_run", Check(saw_hits)),
            ("any_304", Check(saw_304)),
            ("invalidation_delivered", Check(saw_invalidation)),
            ("shard_invariant_counts", Check(shards_agree)),
        ];
        smoke_verdict("loadgen-smoke", &verdict);
    }
    Ok(())
}

/// `wcc openloop`: the open-loop driver under each of the paper's three
/// mechanisms, arrivals from a deterministic virtual-time schedule.
fn cmd_openloop(a: &Flags) -> Result<(), String> {
    let wl = live_workload(a)?;
    let (rate, arrivals) = (a.get("rate", 1_000.0)?, a.get("arrivals", 5_000u64)?);
    let schedule = wcc_load::ScheduleConfig {
        clients: 16,
        rate_rps: rate,
        mode: match a.raw("mode") {
            None | Some("poisson") => wcc_load::ArrivalMode::Poisson,
            Some("fixed") => wcc_load::ArrivalMode::FixedRate,
            Some(_) => return Err("--mode takes poisson or fixed".to_string()),
        },
        seed: a.get("seed", 1996)?,
        total: arrivals,
    };
    // Unless overridden, compress the workload's whole virtual window
    // into the expected run duration (total/rate wall seconds) so the
    // scripted modification script plays out while the run lasts.
    let window = (wl.end - wl.start).as_secs() as f64;
    let compression = compression(a, window * rate / arrivals as f64)?;
    let (workers, shards) = (workers(a)?, a.get("shards", 1)?);
    let reactor_threads = a.get("reactor-threads", 1)?;

    let mut conserved = true;
    let mut completed_all = true;
    let mut saw_invalidation = false;
    for spec in PAPER_SPECS {
        let report = webcache::Experiment::new(&wl)
            .protocol(spec)
            .shards(shards)
            .reactor_threads(reactor_threads)
            .run_open_loop(&schedule, workers, compression)
            .expect("open-loop run");
        conserved &= report.conserves() && report.offered == arrivals;
        completed_all &= report.completed > 0;
        saw_invalidation |= report.invalidations_delivered > 0;
        println!("{}", report.to_json());
    }
    if a.has("smoke") {
        let verdict = [
            ("conserved", Check(conserved)),
            ("completed_all", Check(completed_all)),
            ("invalidation_delivered", Check(saw_invalidation)),
        ];
        smoke_verdict("openloop-smoke", &verdict);
    }
    Ok(())
}

/// `wcc replay`: stream a synthetic trace through the live stack
/// open-loop without materializing it; `--smoke` also streams a short
/// one through the closed-loop driver per policy.
fn cmd_replay(a: &Flags) -> Result<(), String> {
    use wcc_load::stack_spec;
    use webtrace::microsoft::MicrosoftProfile;
    use webtrace::stream::{synthetic_stream, SyntheticStreamConfig};

    let (seed, requests) = (a.get("seed", 1996)?, a.get("requests", 4_000u64)?);
    let stream_config = |requests: u64| {
        Ok(match a.raw("trace").unwrap_or("campus:das") {
            "campus:das" => SyntheticStreamConfig::campus(&CampusProfile::das(), requests, seed),
            "campus:fas" => SyntheticStreamConfig::campus(&CampusProfile::fas(), requests, seed),
            "campus:hcs" => SyntheticStreamConfig::campus(&CampusProfile::hcs(), requests, seed),
            "microsoft" => SyntheticStreamConfig::microsoft(
                &MicrosoftProfile::scaled(requests as usize),
                800,
                seed,
            ),
            "bu" => SyntheticStreamConfig::bu(requests, seed),
            other => return Err(format!("--trace: unknown trace '{other}'")),
        })
    };
    let mut run = liveserve::LiveRunConfig::new(ProtocolSpec::Ttl(24));
    run.shards = a.get("shards", 1)?;
    run.reactor_threads = a.get("reactor-threads", 1)?;
    let mut open = wcc_load::OpenLoopConfig::new(run, 0.0);
    open.workers = workers(a)?;
    open.queue_cap = a.get("queue-cap", 512)?;
    open.timeout_us = a.get("timeout-ms", 1_000u64)?.saturating_mul(1_000);
    // Stream `requests` records open-loop, never materialized, with the
    // trace window compressed into `target_wall` seconds unless told
    // otherwise.
    let mut open_replay = |requests: u64, target_wall: f64| -> Result<_, String> {
        let (meta, stream) = synthetic_stream(&stream_config(requests)?);
        let window = (meta.end - meta.start).as_secs() as f64;
        let compression = compression(a, window / target_wall)?;
        open.target_rps = requests as f64 * compression / window.max(1.0);
        let probe = wcc_obs::ProbeHandle::none();
        let report =
            wcc_load::replay_open_loop(&stack_spec(&meta), stream, compression, &open, &probe)
                .expect("streamed open-loop replay");
        println!("{}", report.to_json());
        Ok(report)
    };
    if !a.has("smoke") {
        open_replay(requests, 30.0)?;
        return Ok(());
    }

    // 1) Every one of >= 100k streamed records accounted for.
    let requests = requests.max(100_000);
    let report = open_replay(requests, 15.0)?;
    let streamed_ok = report.offered == requests && report.conserves();

    // 2) The closed-loop driver takes the same stream: one thread,
    // nothing materialized, every record sent and classified once.
    let small = stream_config(5_000)?;
    let mut all_sent = true;
    for policy in PAPER_SPECS {
        let (meta, stream) = synthetic_stream(&small);
        let report = wcc_load::run_closed_loop(
            &stack_spec(&meta),
            stream.map(|r| (r.time, r.file)),
            &liveserve::LiveRunConfig::new(policy),
            &wcc_obs::ProbeHandle::none(),
        )
        .expect("streamed closed-loop replay");
        all_sent &= report.requests == 5_000 && report.cache.requests() == 5_000;
    }
    let verdict = [
        ("streamed_records", Count(requests)),
        ("conserved", Check(streamed_ok)),
        ("closed_loop_sent_every_record", Check(all_sent)),
    ];
    smoke_verdict("replay-smoke", &verdict);
    Ok(())
}

/// `wcc soak`: park thousands of idle keep-alive connections against the
/// proxy while an active mix runs, and gate on the reactor's scaling
/// invariants.
fn cmd_soak(a: &Flags) -> Result<(), String> {
    use wcc_load::{run_soak, SoakConfig};

    let mut cfg = if a.has("smoke") {
        SoakConfig::smoke()
    } else {
        SoakConfig::full()
    };
    cfg.conns = a.get("conns", cfg.conns)?;
    cfg.worker_processes = a.get("processes", cfg.worker_processes)?;
    cfg.reactor_threads = a.get("reactor-threads", cfg.reactor_threads)?;
    cfg.active = a.get("active", cfg.active)?;
    // The stack's proxy admits `DEFAULT_MAX_CONNS` clients: the idle
    // ones, the active mix's, and spare for the warm-up client's and any
    // a reactor has not yet reaped.
    let (need, cap) = (cfg.conns + cfg.active + 64, liveserve::DEFAULT_MAX_CONNS);
    if need > cap {
        return Err(format!(
            "--conns {} needs {need} proxy connections, the cap is {cap}",
            cfg.conns
        ));
    }

    // Capture the reactor's event stream (ConnAccepted/ConnClosed/
    // AcceptBacklog plus per-request latency) into a ring large enough
    // for the full 10k soak, then fold it into metrics tables.
    let handle = wcc_obs::ProbeHandle::buffered(1 << 18);
    let report = run_soak(&cfg, &handle).unwrap_or_else(|e| fail("soak", e));
    let mut metrics = wcc_obs::MetricsProbe::new();
    handle.drain_into(&mut metrics);

    println!("{}", report.to_json());
    println!("\n== Soak counters ==");
    print!("{}", metrics.registry().render_counters());
    println!("\n== Soak histograms (log2 buckets) ==");
    print!("{}", metrics.registry().render_histograms());

    report
        .verify()
        .unwrap_or_else(|problems| fail("soak: invariants violated", problems));
    // This process runs nothing but the soak, so its thread count is
    // exact, not merely small.
    let (threads, expected) = (report.process_threads, report.expected_threads());
    if threads != 0 && threads != expected {
        fail(
            "soak: invariants violated",
            format_args!("{threads} OS threads, expected {expected}"),
        );
    }
    Ok(())
}

/// Write a capture document to `path`.
fn save_capture(doc: &str, path: &str) {
    std::fs::write(path, doc)
        .unwrap_or_else(|e| fail("wcc: cannot write", format_args!("{path}: {e}")));
    let lines = doc.lines().count();
    eprintln!("wcc: wrote {lines} line(s) of event capture to {path}");
}

/// `wcc trace`: capture one figure's sweep as deterministic JSONL, or
/// (`--smoke`, which stands alone) self-check that worker count does
/// not change a byte.
fn cmd_trace(a: &Flags) -> Result<(), String> {
    if a.has("smoke") {
        if a.given.len() + a.args.len() > 1 {
            return Err("trace --smoke takes nothing else".to_string());
        }
        let (deterministic, doc) = trace::capture_smoke();
        let lines = Count(doc.lines().count() as u64);
        let verdict = [("deterministic", Check(deterministic)), ("lines", lines)];
        smoke_verdict("trace-smoke", &verdict);
        return Ok(());
    }
    let target = TraceTarget::parse(a.arg()?).ok_or("trace takes fig2..fig8")?;
    let limit = a.get("limit", DEFAULT_TRACE_LIMIT)?;
    let doc = trace::capture(target, &scale(a), &runner(a)?, limit);
    match a.raw("obs") {
        Some(path) => save_capture(&doc, path),
        None => print!("{doc}"),
    }
    Ok(())
}

/// `wcc metrics`: the event stream of figure 4's sweep and a small live
/// run as counter/histogram tables, the heap bytes of the sweep's tables
/// as `mem.*` gauges, plus the wall-clock profile (the one opt-in
/// wall-clock reader in the simulation path).
fn cmd_metrics(a: &Flags) -> Result<(), String> {
    let (scale, runner) = (scale(a), runner(a)?);
    let profiler = wcc_obs::profile::global();
    profiler.enable(true);

    let mut registry = trace::collect_metrics(TraceTarget::fig4(), &scale, &runner);

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
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let rest = args.get(1..).unwrap_or_default();
    let result = match name {
        "soak-worker" => match (
            rest.first().and_then(|v| v.parse().ok()),
            rest.get(1).and_then(|v| v.parse().ok()),
        ) {
            (Some(addr), Some(conns)) => {
                wcc_load::soak_worker(addr, conns).unwrap_or_else(|e| fail("soak-worker", e));
                Ok(())
            }
            _ => Err("soak-worker takes ADDR N".to_string()),
        },
        "analyze" => std::process::exit(wcc_analyze::cli::run(rest)),
        _ => match COMMANDS
            .iter()
            .find(|c| c.0.split(' ').next() == Some(name))
        {
            Some(&(synopsis, run)) => Flags::parse(rest, synopsis)
                .and_then(|flags| run(&flags))
                .map_err(|problem| format!("{name}: {problem}")),
            None if name.is_empty() => Err("missing subcommand".to_string()),
            None => Err(format!("unknown subcommand '{name}'")),
        },
    };
    if let Err(problem) = result {
        eprintln!("wcc: {problem}\n{}", usage());
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `args` against the real table row of `command`.
    fn parse(command: &str, args: &[&str]) -> Result<Flags, String> {
        let row = COMMANDS.iter().find(|c| c.0.starts_with(command));
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&args, row.expect("a table row").0)
    }

    #[test]
    fn both_spellings_parse_to_the_same_values() {
        for args in [
            &["2", "--jobs", "3", "--quick"][..],
            &["--quick", "--jobs=3", "2"],
            &["--jobs=9", "2", "--quick", "--jobs", "3"],
        ] {
            let flags = parse("figure ", args).unwrap();
            let read = (flags.get("jobs", 0), flags.has("quick"), flags.arg());
            assert_eq!(read, (Ok(3), true, Ok("2")), "{args:?}");
            assert_eq!(flags.opt::<String>("obs"), Ok(None));
        }
    }

    #[test]
    fn bad_command_lines_are_errors_not_guesses() {
        let err = |command, args: &[&str]| parse(command, args).unwrap_err();
        assert_eq!(err("figure ", &["--bogus"]), "unknown flag --bogus");
        assert_eq!(err("table ", &["--limit", "3"]), "unknown flag --limit");
        assert_eq!(err("all ", &["--jobs"]), "--jobs needs a value (N)");
        assert_eq!(err("all ", &["--quick=1"]), "--quick takes no value");
        assert_eq!(err("all ", &["x"]), "unexpected argument 'x'");
        assert_eq!(err("table ", &["2", "3"]), "unexpected argument '3'");
        assert!(parse("table ", &[]).unwrap().arg().is_err());
        let flags = parse("all ", &["--jobs", "many"]).unwrap();
        assert!(flags.get("jobs", 0usize).is_err());
    }
}
