//! Fuzz the analyzer front end.
//!
//! The lexer and scope pass sit under every rule, and the whole
//! pipeline runs in CI over arbitrary workspace sources — so "never
//! panics, always produces a structurally sane context" is a hard
//! requirement, not a nicety. These properties throw random token soup
//! (raw strings at several hash depths, nested and unterminated block
//! comments, lifetimes vs char literals, byte literals, directive
//! comments, unbalanced braces) at the full pipeline and assert the
//! invariants the rules rely on:
//!
//! * token lines are nondecreasing and within the source;
//! * `in_test`/`depth` are exactly token-parallel;
//! * every `FnSpan` is a real `{`..`}` pair at matching depth;
//! * the rules and the concurrency pass accept whatever comes out.
//!
//! The PR-4 lexer-pathology fixture is pinned as a deterministic
//! regression seed alongside the random cases.

use proptest::collection::vec;
use proptest::prelude::*;

/// Fragments chosen for their history of defeating naive scanners.
const FRAGMENTS: &[&str] = &[
    // structure
    "fn",
    "let",
    "mut",
    "impl",
    "while",
    "loop",
    "for",
    "match",
    "mod",
    "tests",
    "#[cfg(test)]",
    "#[test]",
    "#[allow(dead_code)]",
    "{",
    "}",
    "(",
    ")",
    ";",
    ":",
    "::",
    ".",
    "=",
    "=>",
    "->",
    "!",
    "?",
    "&",
    "*",
    ",",
    "#",
    "[",
    "]",
    // strings, raw strings, byte variants — terminated and not
    "\"plain\"",
    "\"escaped \\\" quote\"",
    "\"two\nlines\"",
    "\"unterminated",
    "r\"raw\"",
    "r#\"raw with \"quotes\"\"#",
    "r##\"deeper \"# still\"##",
    "r#\"unterminated raw",
    "b\"bytes\"",
    "br#\"raw bytes\"#",
    "b'x'",
    "b'\\n'",
    // chars vs lifetimes
    "'c'",
    "'\\''",
    "'a",
    "'static",
    "&'a str",
    // comments and directives
    "// plain comment",
    "/// doc",
    "//! inner",
    "// wcc-allow: r5 reason text",
    "// wcc-allow: r4",
    "// wcc-allow: r99 bogus",
    "//~ r1",
    "//~^ r2",
    "// wcc-lock-rank: a.b 10",
    "// wcc-lock-rank: broken",
    "// wcc-fixture-path: crates/x/src/y.rs",
    "/* block */",
    "/* nested /* deeper */ out */",
    "/* unterminated",
    // numbers
    "0xFFu64",
    "1_000",
    "1.5f64",
    "0b101",
    "42",
    // idents the rules key on, plus raw-string lookalikes
    "unwrap",
    "expect",
    "lock",
    "drop",
    "Instant",
    "now",
    "SystemTime",
    "HashMap",
    "channel",
    "push",
    "write_all",
    "recv",
    "wait",
    "wait_timeout",
    "notify_all",
    "notify_one",
    "send",
    "join",
    "checkout",
    "self",
    "r",
    "b",
    "br",
    "radius",
    "break_even",
    "\n",
    "\n\n",
];

const SEPS: &[&str] = &[" ", "", "\n", "\t"];

/// Assemble a source string from (fragment, separator) picks.
fn assemble(picks: &[(usize, usize)]) -> String {
    let mut src = String::new();
    for &(f, s) in picks {
        src.push_str(FRAGMENTS[f % FRAGMENTS.len()]);
        src.push_str(SEPS[s % SEPS.len()]);
    }
    src
}

/// The structural invariants every downstream rule assumes.
fn check_invariants(src: &str) {
    let lexed = wcc_analyze::lexer::lex(src);
    let line_count = src.lines().count() as u32 + 1;
    let mut prev = 1u32;
    for t in &lexed.tokens {
        assert!(t.line >= prev, "token lines regressed: {} < {prev}", t.line);
        assert!(t.line <= line_count, "token line {} beyond source", t.line);
        prev = t.line;
        assert!(!t.text.is_empty(), "empty token text");
    }
    for c in &lexed.comments {
        assert!(c.line >= 1 && c.line <= line_count);
    }

    let ctx = wcc_analyze::scan::FileCtx::new("crates/liveserve/src/fuzz.rs", src);
    assert_eq!(ctx.tokens.len(), ctx.in_test.len());
    assert_eq!(ctx.tokens.len(), ctx.depth.len());
    for f in &ctx.fns {
        assert!(f.body_open < f.body_close, "inverted fn span");
        assert!(ctx.tokens[f.body_open].is_punct('{'));
        assert!(ctx.tokens[f.body_close].is_punct('}'));
        assert_eq!(
            ctx.depth[f.body_close],
            ctx.depth[f.body_open] + 1,
            "fn body braces do not pair at matching depth"
        );
    }

    // The whole pipeline — per-file rules plus the workspace-level
    // concurrency pass — must accept whatever the front end produced.
    let _ = wcc_analyze::analyze_sources(&[(
        "crates/liveserve/src/fuzz.rs".to_string(),
        src.to_string(),
    )]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_token_soup_never_breaks_the_pipeline(
        picks in vec((0usize..FRAGMENTS.len(), 0usize..SEPS.len()), 0..120)
    ) {
        check_invariants(&assemble(&picks));
    }

    #[test]
    fn soup_inside_a_fn_keeps_scopes_balanced(
        picks in vec((0usize..FRAGMENTS.len(), 0usize..SEPS.len()), 0..60)
    ) {
        // Wrapping in a (balanced) fn exercises the guard/interval
        // scanners, which only look inside fn bodies.
        let src = format!("fn fuzz() {{ {} }}", assemble(&picks));
        check_invariants(&src);
    }
}

/// The PR-4 pathology fixture, pinned as a regression seed: every
/// construct in it once defeated a substring scanner, so it must keep
/// lexing cleanly and produce zero findings under its pretend path.
#[test]
fn lexer_pathology_fixture_stays_clean() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/fixtures/lexer_pathology.rs"
    ))
    .expect("pathology fixture present");
    check_invariants(&src);
    let analysis =
        wcc_analyze::analyze_sources(&[("crates/simcore/src/pathology.rs".to_string(), src)]);
    assert_eq!(
        analysis.unsuppressed_count(),
        0,
        "pathology fixture regressed: {:?}",
        analysis.findings
    );
}
