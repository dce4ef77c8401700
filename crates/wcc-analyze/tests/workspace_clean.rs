//! Self-tests: the shipped workspace is clean under the shipped
//! ruleset, every suppression is justified and load-bearing, and the
//! fixture corpus exercises every rule (so a silently-broken lexer
//! cannot pass as "no findings").

use std::path::PathBuf;

fn root() -> PathBuf {
    wcc_analyze::find_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the crate dir")
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let analysis = wcc_analyze::analyze_root(&root()).expect("analyze workspace");
    let offending: Vec<String> = analysis
        .unsuppressed()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        offending.is_empty(),
        "unsuppressed findings:\n{}",
        offending.join("\n")
    );
    // Sanity: the walker actually visited the workspace, not an empty dir.
    assert!(
        analysis.files_scanned > 50,
        "only {} files scanned — walker broken?",
        analysis.files_scanned
    );
}

#[test]
fn every_suppression_has_a_reason_and_is_load_bearing() {
    let analysis = wcc_analyze::analyze_root(&root()).expect("analyze workspace");
    for s in &analysis.suppressions {
        assert!(
            !s.reason.is_empty(),
            "reasonless wcc-allow at {}:{}",
            s.file,
            s.line
        );
        assert!(
            s.used,
            "wcc-allow at {}:{} suppresses nothing — remove it",
            s.file, s.line
        );
    }
}

#[test]
fn fixture_corpus_reproduces_every_rule() {
    let rep = wcc_analyze::check_fixtures(&root().join("crates/wcc-analyze/fixtures"))
        .expect("read fixtures");
    assert!(
        rep.mismatches.is_empty(),
        "fixture mismatches:\n{}",
        rep.mismatches.join("\n")
    );
    assert!(
        rep.files >= 5,
        "fixture corpus shrank to {} files",
        rep.files
    );
    assert!(
        rep.expected >= 10,
        "only {} expected findings",
        rep.expected
    );
    for rule in ["r1", "r2", "r4", "r5", "r8", "r9", "allow"] {
        assert!(
            rep.rules_covered.iter().any(|r| r == rule),
            "no fixture exercises {rule}"
        );
    }
    // Per-rule counts are exposed for CI's per-rule assertions; they
    // must sum to the corpus total.
    assert_eq!(
        rep.expected_by_rule.iter().map(|(_, n)| n).sum::<usize>(),
        rep.expected
    );
}

#[test]
fn json_mode_reports_the_same_counts() {
    let analysis = wcc_analyze::analyze_root(&root()).expect("analyze workspace");
    let json = wcc_analyze::to_json(&analysis);
    assert!(json.contains("\"unsuppressed\":0"));
    // A clean workspace is clean rule-by-rule, and the manifest rides
    // along for tooling that wants rule metadata without the source.
    assert!(json.contains(
        "\"by_rule\":{\"r1\":0,\"r2\":0,\"r4\":0,\"r5\":0,\"r8\":0,\"r9\":0,\"allow\":0}"
    ));
    assert!(json.contains("\"id\":\"r8\",\"name\":\"guard-across-blocking\""));
    assert!(json.contains("\"id\":\"r9\",\"name\":\"decision-written-once\""));
    assert!(json.contains(&format!("\"files_scanned\":{}", analysis.files_scanned)));
    // Every suppression that survives review appears in the audit array.
    assert_eq!(
        json.matches("\"reason\":").count(),
        analysis.suppressions.len()
    );
}
