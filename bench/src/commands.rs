//! The subcommands.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use crate::cli::Args;
use crate::json::Json;
use crate::layers;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::rep::{self, metric_json, RepOptions, RepReport};
use crate::stats::{median, quartiles};
use crate::sys::{self, CpuSet};
use crate::workload::{self, Instruments, Sizes, Spec, WORKLOADS};

/// Seed used when none is given (the paper's year, as the repo's own
/// `Scale` uses).
const DEFAULT_SEED: u64 = 1996;
/// Epochs a traced rep, and the untraced rep it is compared with,
/// measure.
const TRACE_EPOCHS: usize = 4;
/// Set-ups the untraced comparison rep of a traced run times.
const TRACE_SETUP_REPEATS: usize = 3;

type CmdResult = Result<ExitCode, String>;

/// Exit 0 when `ok`, else 1 (2 is kept for usage and I/O errors).
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run the subcommand `raw` names.
pub fn dispatch(raw: &[String]) -> CmdResult {
    let args = Args::parse(raw)?;
    match args.positional.first().map(String::as_str) {
        None if args.has("--workload") => contract(&args),
        Some("rep") => cmd_rep(&args),
        Some("all") => cmd_all(&args),
        Some("trace") => cmd_trace(&args),
        Some("compare") => cmd_compare(&args),
        Some("aa") => cmd_aa(&args),
        Some("manifest") => {
            print!("{}", manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!(
            "usage: wcc-benchmark rep|all|trace|compare|aa|manifest ... (see bench/README.md); \
             workloads: {}",
            WORKLOADS.map(|w| w.name).join(" ")
        )),
    }
}

/// Pin the process to the first CPU it is allowed on and verify the pin
/// from `Cpus_allowed_list`; a rep that cannot be pinned is not
/// measured. Returns the mask in force before, and the CPU.
fn pin_or_refuse() -> Result<(CpuSet, usize), String> {
    let (before, cpu) = sys::pin_to_first_cpu().map_err(|e| format!("cannot pin: {e}"))?;
    let allowed = sys::proc_status("Cpus_allowed_list").unwrap_or_default();
    if allowed != cpu.to_string() {
        return Err(format!(
            "pinned to CPU {cpu} but Cpus_allowed_list reads {allowed:?}: refusing to measure"
        ));
    }
    Ok((before, cpu))
}

fn find_workload(name: &str) -> Result<&'static Spec, String> {
    workload::find(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; choose from: {}",
            WORKLOADS.map(|w| w.name).join(" ")
        )
    })
}

fn sizes_from(args: &Args) -> Sizes {
    if args.has("--smoke") {
        Sizes::smoke()
    } else {
        Sizes::full(Sizes::DEFAULT_EPOCHS)
    }
}

/// Where reports go: `bench/results/` of the checkout the command runs
/// in (from its root or from `bench/`), else of the checkout the binary
/// was built in.
fn results_dir() -> PathBuf {
    if Path::new("bench/Cargo.toml").is_file() {
        PathBuf::from("bench/results")
    } else if Path::new("src/workload/live.rs").is_file() {
        PathBuf::from("results")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
    }
}

fn write_result(name: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

// ---------------------------------------------------------------- contract

/// The driver's contract:
/// `--workload W --seed N --seconds S --trace 0|1`, one JSON object with
/// exactly `correct`, `attempted`, `failed`, `metrics` as the last line
/// of standard output.
///
/// A rep is fixed work, so `--seconds` picks the number of measured
/// epochs — one per second asked for, each sized to take a little over
/// a second on the reference box — rather than a deadline.
fn contract(args: &Args) -> CmdResult {
    args.only(&["--workload", "--seed", "--seconds", "--trace"])?;
    let spec = find_workload(args.value("--workload").unwrap_or_default())?;
    let seed = args.get("--seed", DEFAULT_SEED)?;
    let epochs = args
        .get("--seconds", Sizes::DEFAULT_EPOCHS)?
        .clamp(2, 2 * Sizes::DEFAULT_EPOCHS);
    let traced = match args.get("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let (unpinned, cpu) = pin_or_refuse()?;

    let (report, metrics) = if traced {
        let run = trace_workload(spec, seed, Sizes::full(TRACE_EPOCHS), &unpinned, cpu)?;
        let mut metrics = Json::obj();
        for (name, value) in &run.layers {
            metrics.insert(name, metric_json(name, *value));
        }
        (run.traced, metrics)
    } else {
        let options = RepOptions::new(spec, seed, Sizes::full(epochs));
        let report = Instruments::untraced(spec)
            .and_then(|ins| rep::run(options, ins, cpu))
            .map_err(|e| e.to_string())?;
        let metrics = report.end_to_end_json();
        (report, metrics)
    };
    for failure in &report.checks.failures {
        eprintln!("check failed: {failure}");
    }
    println!(
        "{}",
        Json::obj()
            .set("correct", report.correct())
            .set("attempted", report.counts.requests)
            .set("failed", report.counts.failed)
            .set("metrics", metrics)
            .render()
    );
    Ok(ExitCode::SUCCESS)
}

// --------------------------------------------------------------------- rep

/// `rep <workload>`: one rep in this (fresh, pinned) process, one JSON
/// line. Exits non-zero when a check fails.
fn cmd_rep(args: &Args) -> CmdResult {
    args.only(&["--seed", "--smoke"])?;
    let name = args.positional.get(1).ok_or("rep needs a workload name")?;
    let spec = find_workload(name)?;
    let options = RepOptions::new(spec, args.get("--seed", DEFAULT_SEED)?, sizes_from(args));
    let (_, cpu) = pin_or_refuse()?;
    let report = Instruments::untraced(spec)
        .and_then(|ins| rep::run(options, ins, cpu))
        .map_err(|e| e.to_string())?;
    println!("{}", report.to_json().render());
    for failure in &report.checks.failures {
        eprintln!("check failed: {failure}");
    }
    Ok(exit_code(report.correct()))
}

/// Run `rep` for `spec` in a fresh child process and parse its line.
fn spawn_rep(spec: &Spec, seed: u64, sizes: Sizes) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["rep", spec.name, "--seed", &seed.to_string()]);
    if sizes.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run rep {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| {
        format!(
            "rep {} (exit {:?}) printed no report: {e}\n{}",
            spec.name,
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if !out.status.success() {
        eprintln!(
            "rep {} seed {seed} failed its checks: {}",
            spec.name,
            doc.get("check_failures")
                .map(Json::render)
                .unwrap_or_default()
        );
    }
    Ok(doc)
}

// --------------------------------------------------------------------- all

/// The values of one end-to-end metric across a set's reps.
fn metric_values(reps: &[Json], metric: &str) -> Vec<f64> {
    reps.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// `{median, q1, q3, unit}` per end-to-end metric of a set of reps.
fn summarize(reps: &[Json]) -> Json {
    let mut summary = Json::obj();
    for m in &END_TO_END {
        let values = metric_values(reps, m.name);
        let q = quartiles(&values);
        summary.insert(
            m.name,
            Json::obj()
                .set("unit", m.unit)
                .set("median", q[1])
                .set("q1", q[0])
                .set("q3", q[2]),
        );
    }
    summary
}

fn all_correct(reps: &[Json]) -> bool {
    reps.iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
}

fn sum_field(reps: &[Json], field: &str) -> f64 {
    reps.iter()
        .filter_map(|r| r.get(field).and_then(Json::as_f64))
        .sum()
}

/// One workload's reps as a report section.
fn set_json(reps: Vec<Json>) -> Json {
    Json::obj()
        .set("correct", all_correct(&reps))
        .set("attempted", sum_field(&reps, "attempted"))
        .set("failed", sum_field(&reps, "failed"))
        .set("summary", summarize(&reps))
        .set("reps", Json::Arr(reps))
}

/// Print one workload's end-to-end metrics: name, unit, set median and
/// quartiles, and the quartile distance as a share of the median next
/// to the bound it has to stay within.
fn print_set(workload: &str, set: &Json) {
    let field = |name: &str| set.get(name).map(Json::render).unwrap_or_default();
    println!(
        "\n{workload}  ({} reps, attempted {}, failed {}, correct {})",
        set.get("reps").map(Json::items).unwrap_or_default().len(),
        field("attempted"),
        field("failed"),
        field("correct"),
    );
    println!(
        "  {:<22} {:>5} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "metric", "unit", "median", "q1", "q3", "iqr %", "bound %"
    );
    for m in &END_TO_END {
        let stat = |name: &str| {
            set.get("summary")
                .and_then(|s| s.get(m.name)?.get(name)?.as_f64())
                .unwrap_or(0.0)
        };
        let (q1, q2, q3) = (stat("q1"), stat("median"), stat("q3"));
        println!(
            "  {:<22} {:>5} {:>14.4} {:>14.4} {:>14.4} {:>8.3} {:>7.1}",
            m.name,
            m.unit,
            q2,
            q1,
            q3,
            if q2 == 0.0 {
                0.0
            } else {
                100.0 * (q3 - q1) / q2.abs()
            },
            100.0 * m.bound
        );
    }
}

/// What the numbers were measured on.
fn hardware_json(unpinned: &CpuSet, cpu: usize, jiffies_at_start: Option<(f64, f64)>) -> Json {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Json::obj()
        .set("nproc", unpinned.count())
        .set("cpu_model", sys::cpu_model())
        .set("kernel", sys::kernel_release())
        .set("rustc", tool("rustc", &["--version"]))
        .set("git_rev", tool("git", &["rev-parse", "--short", "HEAD"]))
        .set("pinned_cpu", cpu)
        .set("loadavg1", sys::loadavg1().unwrap_or(0.0))
        .set(
            "steal_pct",
            sys::steal_pct(jiffies_at_start, sys::cpu_jiffies()),
        )
}

/// `all`: every workload `--reps` times as fresh `rep` processes. Rep
/// `i` of every workload gets the seed `S + i`: another seed for every
/// run, which is what the driver does.
fn cmd_all(args: &Args) -> CmdResult {
    args.only(&["--seed", "--reps", "--smoke"])?;
    let seed = args.get("--seed", DEFAULT_SEED)?;
    let reps = args.get("--reps", 5usize)?.max(1);
    let sizes = sizes_from(args);
    let (unpinned, cpu) = pin_or_refuse()?;
    let jiffies = sys::cpu_jiffies();

    let mut sets = Json::obj();
    let mut ok = true;
    for spec in &WORKLOADS {
        let mut docs = Vec::with_capacity(reps);
        for i in 0..reps {
            docs.push(spawn_rep(spec, seed + i as u64, sizes)?);
        }
        let set = set_json(docs);
        ok &= set.get("correct").and_then(Json::as_bool) == Some(true);
        print_set(spec.name, &set);
        sets.insert(spec.name, set);
    }
    let doc = Json::obj()
        .set("hardware", hardware_json(&unpinned, cpu, jiffies))
        .set("seed", seed)
        .set("reps", reps)
        .set("epochs", sizes.epochs)
        .set("smoke", sizes.smoke)
        .set("sets", sets);
    let path = write_result("latest.json", &doc)?;
    println!("\nwrote {}", path.display());
    Ok(exit_code(ok))
}

// ------------------------------------------------------------------- trace

/// What a traced run of one workload produced.
struct TraceRun {
    /// Every per-layer metric, in `PER_LAYER` order.
    layers: Vec<(&'static str, f64)>,
    /// The traced rep (spans and probe inside).
    traced: RepReport,
}

/// The thread-group metrics: proxy, origin, client × CPU time, context
/// switches, run-queue wait.
const GROUP_METRICS: [[&str; 3]; 3] = [
    [
        "liveserve.proxy.cpu_us_per_req",
        "liveserve.proxy.ctxsw_per_req",
        "liveserve.proxy.runq_us_per_req",
    ],
    [
        "liveserve.origin.cpu_us_per_req",
        "liveserve.origin.ctxsw_per_req",
        "liveserve.origin.runq_us_per_req",
    ],
    [
        "liveserve.client.cpu_us_per_req",
        "liveserve.client.ctxsw_per_req",
        "liveserve.client.runq_us_per_req",
    ],
];

/// The ladder, a traced rep and the untraced rep it is compared with.
fn trace_workload(
    spec: &'static Spec,
    seed: u64,
    sizes: Sizes,
    unpinned: &CpuSet,
    cpu: usize,
) -> Result<TraceRun, String> {
    let io_err = |e: io::Error| format!("{}: {e}", spec.name);
    let mut rows = layers::run(seed, unpinned).map_err(io_err)?;

    let traced = rep::run(
        RepOptions {
            setup_repeats: 1,
            ..RepOptions::new(spec, seed, sizes)
        },
        Instruments::traced(spec).map_err(io_err)?,
        cpu,
    )
    .map_err(io_err)?;
    // End-to-end numbers always come from untraced reps; this one gives
    // the traced rep something to be compared with, and the spread.
    let untraced = rep::run(
        RepOptions {
            setup_repeats: TRACE_SETUP_REPEATS,
            ..RepOptions::new(spec, seed, sizes)
        },
        Instruments::untraced(spec).map_err(io_err)?,
        cpu,
    )
    .map_err(io_err)?;

    let n = traced.measured_requests.max(1) as f64;
    if spec.live {
        let g = &traced.group_costs;
        for (names, cost) in GROUP_METRICS.iter().zip([g.proxy, g.origin, g.client]) {
            rows.push((names[0], cost.cpu_us / n));
            rows.push((names[1], cost.ctxsw / n));
            rows.push((names[2], cost.runq_us / n));
        }
        let c = &traced.counts;
        let per_request = |v: u64| v as f64 / c.requests.max(1) as f64;
        let publish_ns = traced
            .instruments
            .tracer
            .total_ns_under("advance_to", "epoch");
        rows.extend([
            ("liveserve.pool.dials", c.upstream_dials as f64),
            (
                "liveserve.pool.reuses_per_req",
                per_request(c.upstream_reuses),
            ),
            ("liveserve.pool.saturations", c.upstream_saturations as f64),
            (
                "liveserve.control.publish_us",
                publish_ns as f64 / 1e3 / traced.modifications_published.max(1) as f64,
            ),
            (
                "liveserve.control.invalidations_per_req",
                per_request(c.invalidations_delivered),
            ),
            ("liveserve.proxy.evictions_per_req", c.evictions_per_req()),
            (
                "liveserve.proxy.lat_p999_us",
                median(
                    &untraced
                        .series
                        .raw_lat
                        .iter()
                        .map(|p| p.p999_us)
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
    }
    rows.extend(untraced.own_layers());
    let plain = untraced.end_to_end("req_per_s");
    rows.push((
        "bench.trace_overhead_pct",
        100.0 * (plain - traced.end_to_end("req_per_s")) / plain,
    ));

    // Every listed metric, in listed order; a layer the workload does
    // not have (a simulation has no proxy) reads 0.
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            let value = rows.iter().find(|(name, _)| *name == m.name).map(|r| r.1);
            (m.name, value.unwrap_or(0.0))
        })
        .collect();

    write_trace_file(&traced, &untraced)?;
    Ok(TraceRun { layers, traced })
}

/// `bench/results/trace-<workload>.json`: the spans, the probe's
/// counters, and the traced rep next to the untraced one.
fn write_trace_file(traced: &RepReport, untraced: &RepReport) -> Result<PathBuf, String> {
    let name = traced.options.workload.name;
    let mut doc = traced.instruments.tracer.to_json(name);
    if let Some(metrics) = &traced.instruments.metrics {
        doc.insert(
            "probe_counters",
            metrics.with(|p| p.registry().render_counters()),
        );
    }
    doc.insert("traced_rep", traced.to_json());
    doc.insert("untraced_rep", untraced.to_json());
    write_result(&format!("trace-{name}.json"), &doc)
}

/// `trace [<workload>...]`: the per-layer metrics and one span file per
/// workload.
fn cmd_trace(args: &Args) -> CmdResult {
    args.only(&["--seed", "--smoke"])?;
    let seed = args.get("--seed", DEFAULT_SEED)?;
    let sizes = if args.has("--smoke") {
        Sizes::smoke()
    } else {
        Sizes::full(TRACE_EPOCHS)
    };
    let specs: Vec<&'static Spec> = match &args.positional[1..] {
        [] => WORKLOADS.iter().collect(),
        names => names
            .iter()
            .map(|n| find_workload(n))
            .collect::<Result<_, _>>()?,
    };
    let (unpinned, cpu) = pin_or_refuse()?;
    let mut ok = true;
    for spec in specs {
        let run = trace_workload(spec, seed, sizes, &unpinned, cpu)?;
        ok &= run.traced.correct();
        println!(
            "\n{}  (seed {seed}, {} traced epochs)",
            spec.name, sizes.epochs
        );
        for (m, (_, value)) in PER_LAYER.iter().zip(&run.layers) {
            println!("  {:<44} {:>16.4} {}", m.name, value, m.unit);
        }
        println!("  spans by name:");
        for t in run.traced.instruments.tracer.totals() {
            println!(
                "    {:<16} count {:>8}  total {:>10.3} ms  self {:>10.3} ms",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        for failure in &run.traced.checks.failures {
            eprintln!("check failed: {failure}");
        }
        println!(
            "  wrote {}",
            results_dir()
                .join(format!("trace-{}.json", spec.name))
                .display()
        );
    }
    Ok(exit_code(ok))
}

// ----------------------------------------------------------------- compare

/// Direction and bound of every end-to-end metric, from a
/// `BENCHMARK.json`.
fn load_bounds(path: &Path) -> Result<Vec<(String, Better, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(bound)) => Ok((n.to_string(), b, bound)),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// `BENCHMARK.json` of the checkout the command runs in.
fn default_manifest() -> PathBuf {
    ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(PathBuf::from)
        .find(|p| p.is_file())
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// How far `b`'s median is worse than `a`'s, as a share of `a`'s, and
/// what that means given the two sets' spread.
///
/// * worse by more than the bound, quartile ranges apart → `worse`;
/// * worse by more than the bound, quartile ranges overlapping →
///   `unresolved` (the sets cannot tell);
/// * within the bound but either set's quartile range wider than the
///   bound → `unresolved` (a regression of the bound's size could hide
///   in it), unless every run of `b` is at least as good as every run
///   of `a`;
/// * otherwise `ok`.
fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let base = qa[1].abs().max(f64::MIN_POSITIVE);
    let worsening = match better {
        Better::Lower => (qb[1] - qa[1]) / base,
        Better::Higher => (qa[1] - qb[1]) / base,
    };
    let overlap = qa[0] <= qb[2] && qb[0] <= qa[2];
    let spread = ((qa[2] - qa[0]).max(qb[2] - qb[0])) / base;
    let b_never_worse = match better {
        Better::Lower => {
            b.iter().copied().fold(f64::MIN, f64::max) <= a.iter().copied().fold(f64::MAX, f64::min)
        }
        Better::Higher => {
            b.iter().copied().fold(f64::MAX, f64::min) >= a.iter().copied().fold(f64::MIN, f64::max)
        }
    };
    let verdict = if worsening > bound {
        if overlap {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if spread > bound && !b_never_worse {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worsening)
}

/// `compare <a.json> <b.json>`: one row per (workload, metric).
fn cmd_compare(args: &Args) -> CmdResult {
    args.only(&[])?;
    let [_, a_path, b_path] = args.positional.as_slice() else {
        return Err("compare needs two result files (as `all` writes them)".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = load_bounds(&default_manifest())?;

    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse %", "bound %"
    );
    let mut any_worse = false;
    let empty = Json::obj();
    let sets_a = a.get("sets").unwrap_or(&empty);
    let sets_b = b.get("sets").unwrap_or(&empty);
    for (workload, set_a) in sets_a.fields() {
        let Some(set_b) = sets_b.get(workload) else {
            println!("{workload:<14} missing from {b_path}");
            any_worse = true;
            continue;
        };
        let reps = |set: &Json| {
            set.get("reps")
                .map(Json::items)
                .unwrap_or_default()
                .to_vec()
        };
        let (reps_a, reps_b) = (reps(set_a), reps(set_b));
        for (metric, better, bound) in &bounds {
            let (va, vb) = (
                metric_values(&reps_a, metric),
                metric_values(&reps_b, metric),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<14} {metric:<22} missing from one side");
                any_worse = true;
                continue;
            }
            let (verdict, worsening) = judge(&va, &vb, *better, *bound);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>9.3} {:>8.1}  {}",
                workload,
                metric,
                median(&va),
                median(&vb),
                100.0 * worsening,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(exit_code(!any_worse))
}

// ---------------------------------------------------------------------- aa

/// How long `aa` waits between the interleaved sets and the third one
/// (none in a smoke run): long enough for the box to drift.
const AA_GAP: Duration = Duration::from_secs(600);

/// `aa`: the same binary against itself. Sets A and B interleaved
/// (A B B A ...), a pause, then set C; every end-to-end metric's set
/// medians must agree within **half** its bound. Rep `i` of every set
/// gets the seed `S + i`, as in `all`.
fn cmd_aa(args: &Args) -> CmdResult {
    args.only(&["--seed", "--reps", "--smoke"])?;
    let seed = args.get("--seed", DEFAULT_SEED)?;
    let reps = args.get("--reps", 5usize)?.max(1);
    let sizes = sizes_from(args);
    let gap = if sizes.smoke { Duration::ZERO } else { AA_GAP };
    let (unpinned, cpu) = pin_or_refuse()?;
    let jiffies = sys::cpu_jiffies();
    let started = Instant::now();

    // sets[workload] = [A reps, B reps, C reps]
    let mut sets: Vec<[Vec<Json>; 3]> = WORKLOADS.iter().map(|_| Default::default()).collect();
    for round in 0..reps {
        // A B, then B A, then A B ...: neither side always runs first.
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            for (spec, set) in WORKLOADS.iter().zip(&mut sets) {
                set[side].push(spawn_rep(spec, seed + round as u64, sizes)?);
            }
        }
        eprintln!("aa: round {} of {reps} done", round + 1);
    }
    let interleaved_s = started.elapsed().as_secs_f64();
    eprintln!(
        "aa: pausing {:.0} s before the third set",
        gap.as_secs_f64()
    );
    std::thread::sleep(gap);
    let third_started_s = started.elapsed().as_secs_f64();
    for round in 0..reps {
        for (spec, set) in WORKLOADS.iter().zip(&mut sets) {
            set[2].push(spawn_rep(spec, seed + round as u64, sizes)?);
        }
    }

    println!(
        "{:<14} {:<22} {:>13} {:>13} {:>13} {:>9} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "median C", "apart %", "allow %"
    );
    let mut pass = true;
    let mut out_sets = Json::obj();
    for (spec, set) in WORKLOADS.iter().zip(sets) {
        let mut agreement = Json::obj();
        for m in &END_TO_END {
            let medians: Vec<f64> = set
                .iter()
                .map(|s| median(&metric_values(s, m.name)))
                .collect();
            let lo = medians.iter().copied().fold(f64::MAX, f64::min);
            let hi = medians.iter().copied().fold(f64::MIN, f64::max);
            let apart = (hi - lo) / medians[0].abs().max(f64::MIN_POSITIVE);
            let allowed = m.bound / 2.0;
            let ok = apart <= allowed;
            pass &= ok;
            println!(
                "{:<14} {:<22} {:>13.4} {:>13.4} {:>13.4} {:>9.3} {:>8.2}  {}",
                spec.name,
                m.name,
                medians[0],
                medians[1],
                medians[2],
                100.0 * apart,
                100.0 * allowed,
                if ok { "agree" } else { "DISAGREE" }
            );
            agreement.insert(
                m.name,
                Json::obj()
                    .set("unit", m.unit)
                    .set("medians", medians)
                    .set("apart", apart)
                    .set("allowed", allowed)
                    .set("agree", ok),
            );
        }
        let all: Vec<Json> = set.iter().flatten().cloned().collect();
        pass &= all_correct(&all);
        let [a, b, c] = set;
        out_sets.insert(
            spec.name,
            Json::obj()
                .set("correct", all_correct(&all))
                .set("attempted", sum_field(&all, "attempted"))
                .set("failed", sum_field(&all, "failed"))
                .set("agreement", agreement)
                .set("A", Json::Arr(a))
                .set("B", Json::Arr(b))
                .set("C", Json::Arr(c)),
        );
    }
    let doc = Json::obj()
        .set("pass", pass)
        .set("hardware", hardware_json(&unpinned, cpu, jiffies))
        .set("seed", seed)
        .set("reps_per_set", reps)
        .set("epochs", sizes.epochs)
        .set("smoke", sizes.smoke)
        .set("interleaved_sets_took_s", interleaved_s)
        .set("third_set_started_after_s", third_started_s)
        .set("sets", out_sets);
    // A smoke run must not overwrite the committed report.
    let path = write_result(
        if sizes.smoke {
            "aa-smoke.json"
        } else {
            "aa.json"
        },
        &doc,
    )?;
    println!(
        "\n{}: every set median within half its bound: {pass}; wrote {}",
        if pass { "PASS" } else { "FAIL" },
        path.display()
    );
    Ok(exit_code(pass))
}

// ---------------------------------------------------------------- manifest

/// `BENCHMARK.json`, generated from the metric and workload lists so the
/// file and the program cannot drift apart.
fn manifest() -> Json {
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| Json::obj().set("name", w.name).set("why", w.why))
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.label())
                .set("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Json> = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.label())
        })
        .collect();
    Json::obj()
        .set(
            "command",
            vec![
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "bench/Cargo.toml",
                "--",
            ],
        )
        .set("paths", vec!["bench"])
        .set("run_seconds", Sizes::DEFAULT_EPOCHS)
        .set("workloads", Json::Arr(workloads))
        .set("end_to_end", Json::Arr(end_to_end))
        .set("per_layer", Json::Arr(per_layer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_worse_from_unresolved() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 20 % slower, no overlap: worse.
        let slow: Vec<f64> = tight.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&tight, &slow, Better::Lower, 0.10).0, Verdict::Worse);
        // The same numbers are an improvement when higher is better.
        assert_eq!(judge(&tight, &slow, Better::Higher, 0.10).0, Verdict::Ok);
        // 2 % slower with a 10 % bound: ok.
        let near: Vec<f64> = tight.iter().map(|v| v * 1.02).collect();
        assert_eq!(judge(&tight, &near, Better::Lower, 0.10).0, Verdict::Ok);
        // Median 15 % slower but the quartile ranges overlap: unresolved.
        let wide_a = [80.0, 90.0, 100.0, 130.0, 140.0];
        let wide_b = [85.0, 100.0, 115.0, 125.0, 150.0];
        assert_eq!(
            judge(&wide_a, &wide_b, Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        // Within the bound but noisier than the bound: unresolved.
        assert_eq!(
            judge(&wide_a, &wide_a, Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        // ... unless every run of b beats every run of a.
        let fast = [50.0, 60.0, 70.0, 75.0, 79.0];
        assert_eq!(judge(&wide_a, &fast, Better::Lower, 0.10).0, Verdict::Ok);
    }

    #[test]
    fn manifest_meets_the_contract_shape() {
        let m = manifest();
        let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(m.get("workloads").unwrap().items().len(), 5);
        assert_eq!(m.get("end_to_end").unwrap().items().len(), 9);
        assert!(m.render_pretty().len() < 64 * 1024);
        assert!(m.get("command").unwrap().items().len() <= 32);
    }
}
