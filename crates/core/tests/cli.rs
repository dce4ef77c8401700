//! The `wcc` binary from the outside: usage errors exit 2 with the
//! generated synopsis, the synopsis and the parser agree flag for flag,
//! output does not depend on the worker count or the flag spelling, the
//! origin smoke's verdict line is the pinned one, and `wcc all --quick`
//! prints the recorded bytes.

use std::process::{Command, Output};

/// Run `wcc args` with `env` added to the environment.
fn wcc_in(env: &[(&str, &str)], args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wcc"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run wcc")
}

fn wcc(args: &[&str]) -> Output {
    wcc_in(&[], args)
}

/// What a successful run printed.
fn printed(out: Output, args: &[&str]) -> String {
    assert!(out.status.success(), "wcc {args:?}: {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn stdout(args: &[&str]) -> String {
    printed(wcc(args), args)
}

/// The first stderr line of a run that must exit 2 with usage after it.
fn usage_error(args: &[&str]) -> String {
    let out = wcc(args);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "wcc {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "wcc {args:?} printed before failing");
    let (problem, usage) = stderr.split_once('\n').expect("a problem line, then usage");
    assert!(usage.starts_with("usage: wcc figure <1-8> "), "{usage}");
    problem.to_string()
}

#[test]
fn bad_usage_exits_2_with_the_synopsis_on_stderr() {
    assert_eq!(usage_error(&[]), "wcc: missing subcommand");
    assert_eq!(
        usage_error(&["frobnicate"]),
        "wcc: unknown subcommand 'frobnicate'"
    );
    assert_eq!(
        usage_error(&["loadgen", "--bogus"]),
        "wcc: loadgen: unknown flag --bogus"
    );
    assert_eq!(
        usage_error(&["figure", "9"]),
        "wcc: figure: figure takes a number 1-8"
    );
    assert_eq!(
        usage_error(&["all", "--jobs", "many"]),
        "wcc: all: --jobs: bad value 'many'"
    );
}

/// One proxy admits `DEFAULT_MAX_CONNS` clients; a soak that needs more
/// is refused before anything is spawned, naming the cap.
#[test]
fn a_soak_one_proxy_cannot_hold_is_a_usage_error() {
    assert_eq!(
        usage_error(&["soak", "--conns", "99999"]),
        "wcc: soak: --conns 99999 needs 100095 proxy connections, the cap is 16384"
    );
}

/// `--jobs` is the only way to size the sweep executor: the environment
/// variable older builds read is ignored, not half-honoured.
#[test]
fn the_retired_jobs_variable_changes_nothing() {
    let args = ["table", "1", "--quick"];
    let with_it = printed(wcc_in(&[("WCC_JOBS", "1")], &args), &args);
    assert_eq!(with_it, stdout(&args));
}

#[test]
fn flags_a_subcommand_does_not_use_are_rejected_not_swallowed() {
    for args in [
        &["serve", "--arrivals", "5"][..],
        &["loadgen", "--conns", "3"],
        &["openloop", "--queue-cap", "8"],
        &["all", "--obs", "x"],
        &["table", "1", "--obs", "x"],
        &["metrics", "--obs", "x"],
        &["ablations", "--quick"],
    ] {
        let flag = args.iter().find(|a| a.starts_with("--")).expect("a flag");
        let expected = format!("wcc: {}: unknown flag {flag}", args[0]);
        assert_eq!(usage_error(args), expected);
    }
    // Declared, but meaningless in these combinations.
    usage_error(&["figure", "1", "--obs", "x"]);
    usage_error(&["figure", "2", "--quick", "--limit", "5"]);
    usage_error(&["trace", "--smoke", "--limit", "5"]);
}

/// Every flag a usage line shows is one the parser accepts for that
/// subcommand with that arity, and it accepts no other: probing with a
/// missing value (or a value for a switch) gets past the "unknown flag"
/// check without running anything.
#[test]
fn the_usage_text_and_the_parser_agree_flag_for_flag() {
    let out = wcc(&[]);
    let usage = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let mut probed = 0;
    for (_, line) in usage.lines().filter_map(|l| l.split_once("wcc ")) {
        let command = line.split(' ').next().expect("a subcommand name");
        if command == "analyze" {
            continue; // parsed by wcc-analyze
        }
        for group in line.split('[').filter(|g| g.starts_with("--")) {
            let group = group.trim_end().trim_end_matches(']');
            let (flag, problem) = match group.split_once(' ') {
                Some((flag, metavar)) => (flag.to_string(), format!("needs a value ({metavar})")),
                None => (format!("{group}=1"), "takes no value".to_string()),
            };
            let said = usage_error(&[command, &flag]);
            assert!(said.ends_with(&problem), "wcc {command} {flag}: {said}");
            probed += 1;
        }
        let said = usage_error(&[command, "--not-in-the-synopsis"]);
        assert!(
            said.ends_with("unknown flag --not-in-the-synopsis"),
            "{said}"
        );
    }
    assert!(probed > 50, "only {probed} flags found in:\n{usage}");
}

#[test]
fn figures_do_not_depend_on_worker_count_or_flag_spelling() {
    let sequential = stdout(&["figure", "4", "--quick", "--jobs=1"]);
    let parallel = stdout(&["figure", "4", "--jobs", "3", "--quick"]);
    assert!(sequential.starts_with("== Figure 4: bandwidth — optimized simulator =="));
    assert_eq!(sequential, parallel);
}

#[test]
fn a_figures_saved_capture_is_the_trace_subcommands_document() {
    let path = std::env::temp_dir().join(format!("wcc-cli-{}.jsonl", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let traced = stdout(&["trace", "fig4", "--quick", "--limit", "64"]);
    stdout(&["figure", "4", "--quick", "--obs", path_arg, "--limit=64"]);
    let saved = std::fs::read_to_string(&path).expect("the capture file");
    std::fs::remove_file(&path).expect("remove the capture file");
    assert!(traced.starts_with("{\"trace\":\"fig4\",\"workloads\":1,"));
    assert_eq!(traced, saved);
}

/// The smoke subscribes the way a proxy shard does, by fetching on the
/// control port, so its data-port `GET` is one of two document requests.
#[test]
fn the_origin_smoke_prints_its_pinned_verdict() {
    assert_eq!(
        stdout(&["serve", "--smoke"]),
        "{\"mode\":\"serve-smoke\",\"get_200\":true,\"revalidated_304\":true,\
         \"subscribed\":true,\"invalidation_delivered\":true,\"document_requests\":2,\
         \"validation_queries\":1,\"invalidations_sent\":1}\n"
    );
}

/// Every table, figure and ablation at quick scale, byte for byte as
/// recorded in `tests/golden/all_quick.txt` — the "stdout identical to the
/// parent commit" check as a test. A change that means to alter the
/// output re-records the file with
/// `wcc all --quick --jobs 1 > crates/core/tests/golden/all_quick.txt`.
#[test]
fn the_whole_paper_at_quick_scale_prints_the_recorded_bytes() {
    let golden = include_str!("golden/all_quick.txt");
    for jobs in ["1", "3"] {
        let printed = stdout(&["all", "--quick", "--jobs", jobs]);
        assert!(
            printed == golden,
            "`wcc all --quick --jobs {jobs}` differs from tests/golden/all_quick.txt:\n{printed}"
        );
    }
}
