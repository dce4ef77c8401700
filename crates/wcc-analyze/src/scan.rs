//! Per-file analysis context: brace scopes, `#[cfg(test)]` regions,
//! function extents, and `wcc-allow` suppression directives.
//!
//! The rules operate on the raw token stream, but several need
//! structure the lexer does not provide:
//!
//! * **test regions** — `#[cfg(test)] mod ... { ... }` bodies and
//!   `#[test] fn ... { ... }` bodies are skipped by every rule (tests
//!   may `unwrap()` freely and never run in the serving path);
//! * **function extents** — R3's guard-scope analysis and R5's
//!   per-function loop markers work within one `fn` body at a time;
//! * **suppressions** — `// wcc-allow: <rule> <reason>` covers findings
//!   on its own line and on the next line that carries a token.
//!
//! All of this is computed in one pass over the token stream and handed
//! to the rules as a [`FileCtx`].

use crate::lexer::{lex, Lexed, Tok};

/// A parsed `wcc-allow` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule ids the directive names (lowercased), e.g. `["r5"]`.
    pub rules: Vec<String>,
    /// The mandatory human reason. Empty string if missing (which is
    /// itself reported as a finding).
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Lines the suppression covers: its own, and the next token line.
    pub covers: (u32, u32),
    /// Set by the engine when a finding actually used this suppression.
    pub used: std::cell::Cell<bool>,
}

/// The extent of one `fn` body, as token indices into [`FileCtx::tokens`].
#[derive(Debug, Clone, Copy)]
pub struct FnSpan {
    /// Index of the opening `{` of the body.
    pub body_open: usize,
    /// Index of the matching `}`.
    pub body_close: usize,
}

/// Everything the rules get to look at for one file.
pub struct FileCtx {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Crate the file belongs to (`simcore`, `liveserve`, ... or
    /// `wwwcache` for the root package's `src/`, `tests/`, `examples/`).
    pub crate_name: String,
    /// The token stream.
    pub tokens: Vec<Tok>,
    /// `in_test[i]` — token `i` lies inside a `#[cfg(test)]` module or a
    /// `#[test]` function.
    pub in_test: Vec<bool>,
    /// Brace depth *before* each token is consumed.
    pub depth: Vec<u32>,
    /// Every `fn` body in the file, in source order (nested fns appear
    /// after their enclosing fn).
    pub fns: Vec<FnSpan>,
    /// Parsed `wcc-allow` directives.
    pub suppressions: Vec<Suppression>,
    /// Directive-style comments other than `wcc-allow` (`wcc-fixture-path`).
    pub fixture_path: Option<String>,
}

/// Which crate a workspace-relative path belongs to.
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        Some("src") | Some("tests") | Some("examples") => "wwwcache".to_string(),
        _ => "unknown".to_string(),
    }
}

impl FileCtx {
    /// Lex and analyze one file.
    pub fn new(rel_path: &str, src: &str) -> FileCtx {
        let Lexed { tokens, comments } = lex(src);
        let (in_test, depth, fns) = scope_pass(&tokens);

        let mut suppressions = Vec::new();
        let mut fixture_path = None;
        for c in &comments {
            if let Some(rest) = c.text.strip_prefix("wcc-fixture-path:") {
                fixture_path = Some(rest.trim().to_string());
            } else if let Some(rest) = c.text.strip_prefix("wcc-allow:") {
                let rest = rest.trim();
                let (rules_part, reason) = match rest.split_once(char::is_whitespace) {
                    Some((r, why)) => (r, why.trim().to_string()),
                    None => (rest, String::new()),
                };
                let rules = rules_part
                    .split(',')
                    .map(|r| r.trim().to_ascii_lowercase())
                    .filter(|r| !r.is_empty())
                    .collect();
                let next_tok_line = tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > c.line)
                    .unwrap_or(c.line);
                suppressions.push(Suppression {
                    rules,
                    reason,
                    line: c.line,
                    covers: (c.line, next_tok_line),
                    used: std::cell::Cell::new(false),
                });
            }
        }

        FileCtx {
            crate_name: crate_of(rel_path),
            rel_path: rel_path.to_string(),
            tokens,
            in_test,
            depth,
            fns,
            suppressions,
            fixture_path,
        }
    }

    /// File name portion of the path (`origin.rs`).
    pub fn file_name(&self) -> &str {
        self.rel_path.rsplit('/').next().unwrap_or(&self.rel_path)
    }

    /// Does any suppression for `rule` cover `line`? Marks it used.
    pub fn suppressed(&self, rule: &str, line: u32) -> Option<&Suppression> {
        let hit = self.suppressions.iter().find(|s| {
            (s.covers.0 == line || s.covers.1 == line)
                && s.rules.iter().any(|r| r == rule)
                && !s.reason.is_empty()
        })?;
        hit.used.set(true);
        Some(hit)
    }
}

/// One pass over the tokens computing test regions, depths, fn extents.
fn scope_pass(tokens: &[Tok]) -> (Vec<bool>, Vec<u32>, Vec<FnSpan>) {
    let mut in_test = vec![false; tokens.len()];
    let mut depth = vec![0u32; tokens.len()];
    let mut fns: Vec<FnSpan> = Vec::new();

    // Brace-depth stack of test-region entries: the depth at which a
    // test block opened.
    let mut d: u32 = 0;
    let mut test_until: Vec<u32> = Vec::new(); // depths owning a test block
                                               // An attribute marked the *next* block as test (until a `;` or a
                                               // block actually opens).
    let mut pending_test = false;
    // `fn` seen; the next `{` at this depth opens its body.
    let mut open_fns: Vec<(u32, usize)> = Vec::new(); // (depth at fn kw, placeholder)
    let mut pending_fn: Option<u32> = None;

    let mut i = 0;
    while i < tokens.len() {
        depth[i] = d;
        in_test[i] = !test_until.is_empty() || pending_test;
        let t = &tokens[i];

        // Attributes: `#[ ... ]` — look inside for cfg(test) / test.
        if t.is_punct('#') && tokens.get(i + 1).map(|n| n.is_punct('[')).unwrap_or(false) {
            let mut j = i + 2;
            let mut bracket = 1i32;
            let mut saw_test = false;
            let mut saw_cfg_or_bare = false;
            while j < tokens.len() && bracket > 0 {
                let a = &tokens[j];
                if a.is_punct('[') {
                    bracket += 1;
                } else if a.is_punct(']') {
                    bracket -= 1;
                } else if a.is_ident("test") {
                    saw_test = true;
                } else if a.is_ident("cfg") {
                    saw_cfg_or_bare = true;
                }
                j += 1;
            }
            // `#[test]` (bare) or `#[cfg(test)]` / `#[cfg(all(test, ..))]`.
            let bare_test = saw_test && j == i + 4; // exactly `# [ test ]`
            if bare_test || (saw_cfg_or_bare && saw_test) {
                pending_test = true;
            }
            for k in i..j {
                depth[k] = d;
                in_test[k] = !test_until.is_empty() || pending_test;
            }
            i = j;
            continue;
        }

        if t.is_ident("fn") {
            pending_fn = Some(d);
        } else if t.is_punct('{') {
            if pending_test {
                test_until.push(d);
                pending_test = false;
            }
            if let Some(fd) = pending_fn.take() {
                if fd == d {
                    open_fns.push((d, i));
                } else {
                    // `{` from e.g. a where-clause default block — rare;
                    // treat as the body anyway.
                    open_fns.push((d, i));
                }
            }
            d += 1;
        } else if t.is_punct('}') {
            d = d.saturating_sub(1);
            if test_until.last() == Some(&d) {
                test_until.pop();
                // The closing brace itself is still "in test".
                in_test[i] = true;
            }
            if let Some(&(fd, open)) = open_fns.last() {
                if fd == d {
                    open_fns.pop();
                    fns.push(FnSpan {
                        body_open: open,
                        body_close: i,
                    });
                }
            }
        } else if t.is_punct(';') {
            // `fn f();` in a trait — no body follows.
            if pending_fn == Some(d) {
                pending_fn = None;
            }
            // An attribute on a statement (`#[allow] let x;`) never
            // opens a test block.
            pending_test = false;
        }
        i += 1;
    }
    fns.sort_by_key(|f| f.body_open);
    (in_test, depth, fns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn prod() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }";
        let c = ctx(src);
        let a = c.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        let b = c.tokens.iter().position(|t| t.is_ident("b")).unwrap();
        assert!(!c.in_test[a]);
        assert!(c.in_test[b]);
    }

    #[test]
    fn bare_test_attribute_marks_fn_body() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn prod() { y.unwrap(); }";
        let c = ctx(src);
        let x = c.tokens.iter().position(|t| t.is_ident("x")).unwrap();
        let y = c.tokens.iter().position(|t| t.is_ident("y")).unwrap();
        assert!(c.in_test[x]);
        assert!(!c.in_test[y]);
    }

    #[test]
    fn non_test_attributes_do_not_mark() {
        let src = "#[derive(Debug)]\nstruct S { f: u32 }\nfn g() { s.unwrap(); }";
        let c = ctx(src);
        assert!(c.in_test.iter().all(|&t| !t));
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let src = "fn a() { inner(); }\nfn b() { if x { y(); } }";
        let c = ctx(src);
        assert_eq!(c.fns.len(), 2);
        let (open, close) = (c.fns[0].body_open, c.fns[0].body_close);
        let inner = c.tokens.iter().position(|t| t.is_ident("inner")).unwrap();
        assert!(open < inner && inner < close);
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "// wcc-allow: r5 protocol guarantees one in flight\nlet (tx, rx) = channel();\nlet other = channel();";
        let c = ctx(src);
        assert_eq!(c.suppressions.len(), 1);
        assert!(c.suppressed("r5", 2).is_some());
        assert!(c.suppressed("r5", 3).is_none());
        assert!(c.suppressions[0].used.get());
    }

    #[test]
    fn suppression_without_reason_does_not_apply() {
        let src = "// wcc-allow: r4\nx.unwrap();";
        let c = ctx(src);
        assert_eq!(c.suppressions.len(), 1);
        assert!(c.suppressions[0].reason.is_empty());
        assert!(c.suppressed("r4", 2).is_none());
    }

    #[test]
    fn comma_separated_rules_all_covered() {
        let src = "foo(); // wcc-allow: r2,r5 sorted before emission\n";
        let c = ctx(src);
        assert!(c.suppressed("r2", 1).is_some());
        assert!(c.suppressed("r5", 1).is_some());
        assert!(c.suppressed("r4", 1).is_none());
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/simcore/src/time.rs"), "simcore");
        assert_eq!(crate_of("src/lib.rs"), "wwwcache");
        assert_eq!(crate_of("tests/determinism.rs"), "wwwcache");
        assert_eq!(crate_of("examples/quickstart.rs"), "wwwcache");
    }
}
