//! wcc-analyze — the in-tree invariant linter.
//!
//! Token-level static analysis over the workspace's Rust sources,
//! enforcing the project rules that rustc and clippy cannot express
//! (see DESIGN.md §9 for the catalog and rationale):
//!
//! * **r1 no-wall-clock** — simulation crates never read real time;
//! * **r2 no-unordered-iter** — report-writing files never iterate
//!   `HashMap`/`HashSet` (order nondeterminism corrupts golden hashes);
//! * **r4 no-panic-in-server-path** — connection handling returns
//!   errors instead of panicking;
//! * **r5 bounded-channel-or-comment** — queues and server-loop
//!   collections are bounded or carry a justified suppression;
//! * **r8 guard-across-blocking** — no guard is live across socket IO,
//!   queue offers, channel sends or receives, or thread joins, and the
//!   files that run on reactor threads make no blocking call at all;
//! * **r9 decision-written-once** — only `consistency::Engine` calls
//!   `Policy::{decide, on_validation, on_fetch}`; every driver goes
//!   through the engine.
//!
//! Self-contained: a hand-rolled lexer ([`lexer`]), a scope pass
//! ([`scan`]), the per-file rules ([`rules`]), and the workspace-level
//! concurrency pass ([`concurrency`]); the `--json` report is written
//! with the workspace's one JSON writer, `wcc_obs::JsonObj`. No registry
//! dependencies, so the linter can gate CI without a network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod concurrency;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use wcc_obs::JsonObj;

pub use rules::Finding;

/// One `wcc-allow` directive as seen workspace-wide, for the audit table.
#[derive(Debug, Clone)]
pub struct SuppressionRecord {
    /// Workspace-relative file.
    pub file: String,
    /// Line of the directive.
    pub line: u32,
    /// Rule ids it names, comma-joined (`"r5"`, `"r2,r5"`).
    pub rules: String,
    /// The stated reason (empty = malformed, reported as a finding).
    pub reason: String,
    /// Did any finding actually rely on it this run?
    pub used: bool,
}

/// The result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Every finding, suppressed or not, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every `wcc-allow` directive encountered.
    pub suppressions: Vec<SuppressionRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Findings not covered by a valid suppression — these fail the gate.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Count of gate-failing findings.
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }
}

/// Analyze in-memory sources: `(workspace-relative path, contents)`.
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let mut out = Analysis {
        files_scanned: files.len(),
        ..Analysis::default()
    };
    // All contexts up front: the concurrency pass is workspace-level
    // (cross-file call propagation), and suppression usage flags are
    // only final once every rule has run.
    let ctxs: Vec<scan::FileCtx> = files
        .iter()
        .map(|(rel, src)| scan::FileCtx::new(rel, src))
        .collect();
    for ctx in &ctxs {
        out.findings.extend(rules::run_all(ctx));
    }
    out.findings.extend(concurrency::run_concurrency(&ctxs));
    for ctx in &ctxs {
        for s in &ctx.suppressions {
            out.suppressions.push(SuppressionRecord {
                file: ctx.rel_path.clone(),
                line: s.line,
                rules: s.rules.join(","),
                reason: s.reason.clone(),
                used: s.used.get(),
            });
        }
    }
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Enumerate the workspace's first-party `.rs` files under `root`,
/// sorted by relative path. Skips `vendor/` (stub crates are not ours
/// to lint), `target/`, and the analyzer's own `fixtures/` (those are
/// *supposed* to contain violations).
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    const TOP: [&str; 4] = ["crates", "src", "tests", "examples"];
    const SKIP_DIRS: [&str; 5] = ["target", "vendor", "fixtures", ".git", ".github"];

    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            let name = p
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_string();
            if p.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    walk(&p, out)?;
                }
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
        Ok(())
    }

    let mut files = Vec::new();
    for top in TOP {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Analyze the workspace rooted at `root`.
pub fn analyze_root(root: &Path) -> io::Result<Analysis> {
    let mut sources = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(analyze_sources(&sources))
}

/// Locate the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

// --- fixtures ------------------------------------------------------------

/// Outcome of running the analyzer over the known-bad fixture corpus.
#[derive(Debug, Default)]
pub struct FixtureReport {
    /// Fixture files checked.
    pub files: usize,
    /// Expected findings declared via `//~ <rule>` markers.
    pub expected: usize,
    /// Expected findings per rule id, sorted by id — CI asserts these
    /// counts individually so one rule silently going dark cannot hide
    /// behind another growing.
    pub expected_by_rule: Vec<(String, usize)>,
    /// Distinct rule ids the markers exercise, sorted.
    pub rules_covered: Vec<String>,
    /// Mismatches: expectations not produced, or findings not expected.
    pub mismatches: Vec<String>,
}

/// Run the rules over every fixture in `dir` and diff the unsuppressed
/// findings against the `//~ <rule>` markers embedded in each fixture.
///
/// A fixture declares its pretend workspace location with
/// `// wcc-fixture-path: crates/<crate>/src/<file>.rs` (rule scoping is
/// path-based) and marks each line expected to produce an unsuppressed
/// finding with a trailing `//~ r4` comment (several ids space- or
/// comma-separated); `//~^ <rule>` on its own line targets the line
/// above (for findings on comment-only lines, e.g. malformed
/// `wcc-allow` directives). The diff is exact in both directions, so a
/// silently-broken lexer that stops producing findings fails the check
/// rather than passing as "no findings".
pub fn check_fixtures(dir: &Path) -> io::Result<FixtureReport> {
    let mut report = FixtureReport::default();
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|e| e == "rs").unwrap_or(false))
        .collect();
    paths.sort();

    for path in paths {
        report.files += 1;
        let src = fs::read_to_string(&path)?;
        let file_label = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string();

        let ctx = scan::FileCtx::new(&format!("fixtures/{file_label}"), &src);
        // Re-analyze under the pretend path so crate/file scoping applies.
        let pretend = ctx
            .fixture_path
            .clone()
            .unwrap_or_else(|| format!("fixtures/{file_label}"));
        let ctx = scan::FileCtx::new(&pretend, &src);

        // Expectations: `//~ r4` markers, keyed (line, rule); `//~^`
        // targets the line above the marker comment.
        let mut expected: Vec<(u32, String)> = Vec::new();
        let lexed = lexer::lex(&src);
        for c in &lexed.comments {
            if let Some(rest) = c.text.trim().strip_prefix('~') {
                let (rest, line) = match rest.strip_prefix('^') {
                    Some(up) => (up, c.line.saturating_sub(1)),
                    None => (rest, c.line),
                };
                for id in rest.split(|ch: char| ch == ',' || ch.is_whitespace()) {
                    let id = id.trim().to_ascii_lowercase();
                    if !id.is_empty() {
                        report.rules_covered.push(id.clone());
                        expected.push((line, id));
                    }
                }
            }
        }
        report.expected += expected.len();
        for (_, id) in &expected {
            match report.expected_by_rule.iter_mut().find(|(r, _)| r == id) {
                Some((_, n)) => *n += 1,
                None => report.expected_by_rule.push((id.clone(), 1)),
            }
        }

        let mut findings = rules::run_all(&ctx);
        findings.extend(concurrency::run_concurrency(std::slice::from_ref(&ctx)));
        let mut actual: Vec<(u32, String)> = findings
            .into_iter()
            .filter(|f| f.suppressed.is_none())
            .map(|f| (f.line, f.rule.to_string()))
            .collect();
        expected.sort();
        actual.sort();

        for e in &expected {
            if let Some(pos) = actual.iter().position(|a| a == e) {
                actual.remove(pos);
            } else {
                report.mismatches.push(format!(
                    "{file_label}:{} expected {} but the analyzer did not report it",
                    e.0, e.1
                ));
            }
        }
        for a in &actual {
            report.mismatches.push(format!(
                "{file_label}:{} analyzer reported {} but no `//~ {}` marker declares it",
                a.0, a.1, a.1
            ));
        }
    }
    report.rules_covered.sort();
    report.rules_covered.dedup();
    report.expected_by_rule.sort();
    Ok(report)
}

// --- JSON ----------------------------------------------------------------

/// A JSON array of already-rendered values.
fn array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// Serialize an [`Analysis`] as a single JSON object (machine-readable
/// CI mode). Key order and array order are deterministic.
pub fn to_json(a: &Analysis) -> String {
    let rules = rules::RULES.iter().map(|r| {
        JsonObj::new()
            .str("id", r.id)
            .str("name", r.name)
            .str("summary", r.summary)
            .finish()
    });
    let mut by_rule = JsonObj::new();
    for r in rules::RULES {
        let n = a.unsuppressed().filter(|f| f.rule == r.id).count();
        by_rule.u64(r.id, n as u64);
    }
    let findings = a.findings.iter().map(|f| {
        let mut obj = JsonObj::new();
        obj.str("rule", f.rule)
            .str("name", f.name)
            .str("file", &f.file)
            .u64("line", f.line.into())
            .str("message", &f.message);
        match &f.suppressed {
            Some(reason) => obj.str("suppressed", reason),
            None => obj.raw("suppressed", "null"),
        };
        obj.finish()
    });
    let suppressions = a.suppressions.iter().map(|sp| {
        JsonObj::new()
            .str("file", &sp.file)
            .u64("line", sp.line.into())
            .str("rules", &sp.rules)
            .str("reason", &sp.reason)
            .bool("used", sp.used)
            .finish()
    });
    JsonObj::new()
        .u64("files_scanned", a.files_scanned as u64)
        .raw("rules", &array(rules))
        .u64("unsuppressed", a.unsuppressed_count() as u64)
        .raw("by_rule", &by_rule.finish())
        .raw("findings", &array(findings))
        .raw("suppressions", &array(suppressions))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_sources_orders_and_counts() {
        let files = vec![
            (
                "crates/simcore/src/b.rs".to_string(),
                "fn f() { let t = Instant::now(); }".to_string(),
            ),
            (
                "crates/simcore/src/a.rs".to_string(),
                "fn g() { let t = SystemTime::now(); }".to_string(),
            ),
        ];
        let a = analyze_sources(&files);
        assert_eq!(a.files_scanned, 2);
        assert_eq!(a.unsuppressed_count(), 2);
        assert_eq!(a.findings[0].file, "crates/simcore/src/a.rs");
        assert_eq!(a.findings[1].file, "crates/simcore/src/b.rs");
    }

    #[test]
    fn suppression_records_track_usage() {
        let files = vec![(
            "crates/liveserve/src/origin.rs".to_string(),
            "// wcc-allow: r5 bounded by peers\nfn f() { let c = channel(); }\n\
             // wcc-allow: r5 never triggers\nfn g() {}\n"
                .to_string(),
        )];
        let a = analyze_sources(&files);
        assert_eq!(a.unsuppressed_count(), 0);
        assert_eq!(a.suppressions.len(), 2);
        assert!(a.suppressions[0].used);
        assert!(!a.suppressions[1].used);
    }

    #[test]
    fn json_is_pinned_byte_for_byte() {
        let files = vec![(
            "crates/say\"hi\nthere\r/src/x.rs".to_string(),
            "// wcc-allow: r1 keeps \"wall\" time\\here\tand\u{1}\n\
             fn f() { let t = Instant::now(); }\n\
             fn g() { let u = Instant::now(); }\n\
             // wcc-allow: r5 never triggers\n\
             fn h() {}\n"
                .to_string(),
        )];
        // Every escape: `"`, `\\`, `\n`, `\r`, `\t` and a control character;
        // one used and one unused suppression.
        let expected = "{\"files_scanned\":1,\
            \"rules\":[{\"id\":\"r1\",\"name\":\"no-wall-clock\",\"summary\":\"simulation crates must take time from the virtual clock — a single Instant::now() breaks the golden-hash determinism tests\"},\
            {\"id\":\"r2\",\"name\":\"no-unordered-iter\",\"summary\":\"report-writing files must not iterate HashMap/HashSet — unspecified order corrupts golden-hash comparisons run-to-run\"},\
            {\"id\":\"r4\",\"name\":\"no-panic-in-server-path\",\"summary\":\"connection handling returns errors that close one connection; a panic kills a whole worker thread\"},\
            {\"id\":\"r5\",\"name\":\"bounded-channel-or-comment\",\"summary\":\"queues and server-loop collections are bounded, or carry a wcc-allow stating the protocol bound\"},\
            {\"id\":\"r8\",\"name\":\"guard-across-blocking\",\"summary\":\"no mutex guard is live across socket IO, a queue offer, a channel send or receive, or a thread join — blocking under a lock stalls every thread contending for it; on the reactor path no call blocks at all\"},\
            {\"id\":\"r9\",\"name\":\"decision-written-once\",\"summary\":\"only consistency::Engine asks a Policy to decide or feeds it back — a driver that calls decide/on_validation/on_fetch itself is a second copy of the request logic\"},\
            {\"id\":\"allow\",\"name\":\"suppression-hygiene\",\"summary\":\"every wcc-allow names a known rule and states a reason; anything else is itself a finding\"}],\
            \"unsuppressed\":1,\
            \"by_rule\":{\"r1\":1,\"r2\":0,\"r4\":0,\"r5\":0,\"r8\":0,\"r9\":0,\"allow\":0},\
            \"findings\":[{\"rule\":\"r1\",\"name\":\"no-wall-clock\",\"file\":\"crates/say\\\"hi\\nthere\\r/src/x.rs\",\"line\":2,\"message\":\"Instant::now() in `say\\\"hi\\nthere\\r` — simulation crates must take time from the virtual clock (SimTime / LiveClock) or results stop being reproducible\",\
            \"suppressed\":\"keeps \\\"wall\\\" time\\\\here\\tand\\u0001\"},\
            {\"rule\":\"r1\",\"name\":\"no-wall-clock\",\"file\":\"crates/say\\\"hi\\nthere\\r/src/x.rs\",\"line\":3,\"message\":\"Instant::now() in `say\\\"hi\\nthere\\r` — simulation crates must take time from the virtual clock (SimTime / LiveClock) or results stop being reproducible\",\
            \"suppressed\":null}],\
            \"suppressions\":[{\"file\":\"crates/say\\\"hi\\nthere\\r/src/x.rs\",\"line\":1,\
            \"rules\":\"r1\",\"reason\":\"keeps \\\"wall\\\" time\\\\here\\tand\\u0001\",\"used\":true},\
            {\"file\":\"crates/say\\\"hi\\nthere\\r/src/x.rs\",\"line\":4,\
            \"rules\":\"r5\",\"reason\":\"never triggers\",\"used\":false}]}";
        assert_eq!(to_json(&analyze_sources(&files)), expected);
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let files = vec![(
            "crates/simcore/src/x.rs".to_string(),
            "fn f() { let t = Instant::now(); }".to_string(),
        )];
        let a = analyze_sources(&files);
        let j1 = to_json(&a);
        let j2 = to_json(&analyze_sources(&files));
        assert_eq!(j1, j2);
        assert!(j1.contains("\"unsuppressed\":1"));
        assert!(j1.contains("\"rule\":\"r1\""));
        // The rules manifest and per-rule counts ride along.
        assert!(j1.contains("\"id\":\"r8\",\"name\":\"guard-across-blocking\""));
        assert!(j1.contains("\"by_rule\":{\"r1\":1,\"r2\":0"));
    }
}
