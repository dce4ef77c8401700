//! Shared CLI driver — used by both the `wcc-analyze` binary and the
//! `wcc analyze` subcommand.

use std::path::PathBuf;

const USAGE: &str =
    "usage: wcc-analyze [--root <dir>] [--json] [--check-fixtures [<dir>]] [--explain <rule>] [--quiet]

  --root <dir>            workspace root (default: auto-detected from the
                          manifest dir / cwd by walking up to [workspace])
  --json                  machine-readable JSON report on stdout
  --check-fixtures [dir]  diff the fixture corpus against its //~ markers
                          instead of analyzing the workspace
  --explain <rule>        print one rule's rationale and a minimal example
                          (r1..r9, allow), then exit
  --quiet                 suppress the per-finding listing (summary only)

exit status: 0 clean, 1 unsuppressed findings / fixture mismatch, 2 usage or IO error";

/// Run the analyzer CLI. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut quiet = false;
    let mut check_fixtures = false;
    let mut fixtures_dir: Option<PathBuf> = None;

    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return 2;
                }
            },
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--check-fixtures" => {
                check_fixtures = true;
                if let Some(next) = it.peek() {
                    if !next.starts_with("--") {
                        fixtures_dir = Some(PathBuf::from(it.next().unwrap_or(a)));
                    }
                }
            }
            "--explain" => match it.next() {
                Some(id) => return explain(id),
                None => {
                    eprintln!("--explain needs a rule id (r1..r9, allow)\n{USAGE}");
                    return 2;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return 2;
            }
        }
    }

    let root = match root.or_else(detect_root) {
        Some(r) => r,
        None => {
            eprintln!("wcc-analyze: could not locate the workspace root (use --root)");
            return 2;
        }
    };

    if check_fixtures {
        let dir = fixtures_dir.unwrap_or_else(|| root.join("crates/wcc-analyze/fixtures"));
        return run_fixtures(&dir);
    }

    let analysis = match crate::analyze_root(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wcc-analyze: {e}");
            return 2;
        }
    };

    if json {
        println!("{}", crate::to_json(&analysis));
    } else {
        if !quiet {
            for f in analysis.findings.iter().filter(|f| f.suppressed.is_none()) {
                println!(
                    "{}:{}: [{}] {} — {}",
                    f.file, f.line, f.rule, f.name, f.message
                );
            }
        }
        print_audit(&analysis);
        println!(
            "wcc-analyze: {} file(s), {} finding(s) ({} suppressed, {} unsuppressed)",
            analysis.files_scanned,
            analysis.findings.len(),
            analysis.findings.len() - analysis.unsuppressed_count(),
            analysis.unsuppressed_count()
        );
    }

    if analysis.unsuppressed_count() == 0 {
        0
    } else {
        1
    }
}

/// `--explain <rule>`: the manifest entry, human-formatted.
fn explain(id: &str) -> i32 {
    let id = id.to_ascii_lowercase();
    match crate::rules::RULES.iter().find(|r| r.id == id) {
        Some(r) => {
            println!("{} — {}", r.id, r.name);
            println!();
            println!("{}", r.summary);
            println!();
            println!("example (violating):");
            println!("    {}", r.example);
            println!();
            println!(
                "suppress a justified site with `// wcc-allow: {} <reason>` on the \
                 finding line or the line above.",
                if r.id == "allow" { "<rule>" } else { r.id }
            );
            0
        }
        None => {
            eprintln!("unknown rule `{id}` — known: r1..r9, allow");
            2
        }
    }
}

/// The `// wcc-allow` audit table — printed at the end of every text
/// run so suppressions stay visible instead of rotting.
fn print_audit(analysis: &crate::Analysis) {
    if analysis.suppressions.is_empty() {
        println!("suppression audit: none");
        return;
    }
    println!(
        "suppression audit ({} directive(s)):",
        analysis.suppressions.len()
    );
    let loc_w = analysis
        .suppressions
        .iter()
        .map(|s| s.file.len() + 1 + s.line.to_string().len())
        .max()
        .unwrap_or(8)
        .max("location".len());
    let rules_w = analysis
        .suppressions
        .iter()
        .map(|s| s.rules.len())
        .max()
        .unwrap_or(5)
        .max("rules".len());
    println!(
        "  {:<loc_w$}  {:<rules_w$}  used  reason",
        "location", "rules"
    );
    for s in &analysis.suppressions {
        let loc = format!("{}:{}", s.file, s.line);
        let reason = if s.reason.is_empty() {
            "(MISSING — this is a finding)"
        } else {
            s.reason.as_str()
        };
        println!(
            "  {loc:<loc_w$}  {:<rules_w$}  {}  {reason}",
            s.rules,
            if s.used { "yes " } else { "no  " },
        );
    }
}

fn run_fixtures(dir: &std::path::Path) -> i32 {
    match crate::check_fixtures(dir) {
        Ok(rep) => {
            for m in &rep.mismatches {
                eprintln!("fixture mismatch: {m}");
            }
            let by_rule: Vec<String> = rep
                .expected_by_rule
                .iter()
                .map(|(r, n)| format!("{r}={n}"))
                .collect();
            println!("wcc-analyze fixtures by rule: {}", by_rule.join(" "));
            println!(
                "wcc-analyze fixtures: {} file(s), {} expected finding(s), {} mismatch(es)",
                rep.files,
                rep.expected,
                rep.mismatches.len()
            );
            if rep.files == 0 || rep.expected == 0 {
                eprintln!("fixture corpus is empty — refusing to pass vacuously");
                return 1;
            }
            if rep.mismatches.is_empty() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!(
                "wcc-analyze: cannot read fixtures at {}: {e}",
                dir.display()
            );
            2
        }
    }
}

/// Root auto-detection: the manifest dir of the invoking binary (set by
/// cargo at run time), else the current directory, walked up to the
/// first `[workspace]` manifest.
fn detect_root() -> Option<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    crate::find_root(&start)
}
