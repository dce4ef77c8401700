//! The workspace-level concurrency rule, r8 guard-across-blocking.
//!
//! Unlike the per-file rules, r8 follows calls across the live stack's
//! files:
//!
//! * no mutex guard may be live across socket IO (`write_all`, `read`,
//!   `epoll_wait`, ...), a queue offer (`try_push`), a channel
//!   `send`/`try_send`/`recv`, or a thread `join()` — directly, or
//!   through a call to a function whose own body does one of these;
//! * on the reactor path
//!   (`liveserve/{reactor,conn,proxy,upstream,control,origin}.rs`) the
//!   rule needs no guard to fire: a reactor thread holds every
//!   connection it owns, so there a blocking call is banned outright.
//!
//! Propagation is **one level** deep, and calls resolve by simple name
//! within the in-scope crates — deliberately shallow, so findings stay
//! explainable from the source. Lock *order* is not checked here: every
//! live-stack mutex is a `wcc_sync::RankedMutex`, whose debug build
//! panics on any acquisition that does not go up the rank table
//! (DESIGN.md §12), and CI runs the tests and the live smokes in debug.

use std::collections::HashMap;

use crate::lexer::TokKind;
use crate::rules::{is_call, Finding};
use crate::scan::{FileCtx, FnSpan};

/// Crates whose lock sites are in scope (the live stack).
const SCOPE_CRATES: [&str; 3] = ["liveserve", "wcc-load", "wcc-obs"];

/// Socket IO: under a guard, one slow peer stalls every thread that
/// contends for the lock.
const IO_CALLS: [&str; 15] = [
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write",
    "write_all",
    "write_fmt",
    "flush",
    "connect",
    "accept",
    "epoll_wait",
    "read_request",
    "read_response",
    "write_request",
    "write_response",
];

/// Calls that block the calling thread on another thread's progress.
const BLOCKING_CALLS: [&str; 4] = ["try_push", "send", "try_send", "recv"];

/// The `liveserve` files whose non-test code runs on reactor threads.
const REACTOR_PATH_FILES: [&str; 6] = [
    "reactor.rs",
    "conn.rs",
    "proxy.rs",
    "upstream.rs",
    "control.rs",
    "origin.rs",
];

/// Calls that park the calling thread until a peer, a timer or another
/// thread moves: banned on the reactor path, where one parked thread is
/// every connection it owns. Their nonblocking counterparts
/// (`connect_nonblocking`, `read`/`write` to `WouldBlock`, `epoll_wait`)
/// are other identifiers.
const REACTOR_BANNED: [&str; 8] = [
    "connect",
    "read_response",
    "read_request",
    "write_all",
    "recv",
    "recv_timeout",
    "wait",
    "wait_while",
];

/// Method names never treated as workspace-call propagation targets:
/// std collection/iterator vocabulary plus synchronization primitives
/// whose semantics the rules model directly. Without this list, a
/// `q.push(..)` under a guard would resolve to any workspace fn that
/// happens to be named `push`.
const CALL_DENY: &[&str] = &[
    "push",
    "push_back",
    "pop",
    "pop_front",
    "insert",
    "remove",
    "get",
    "get_mut",
    "peek",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "clear",
    "drain",
    "iter",
    "iter_mut",
    "retain",
    "drop",
    "clone",
    "new",
    "default",
    "take",
    "replace",
    "join",
    "send",
    "try_send",
    "recv",
    "recv_timeout",
    "try_recv",
    "next",
    "read",
    "write",
    "lock",
    "try_lock",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "expect",
    "ok",
    "err",
    "map",
    "and_then",
    "filter",
    "collect",
    "spawn",
    "load",
    "store",
    "swap",
    "fetch_add",
    "wait",
    "wait_timeout",
    "wait_while",
    "notify_one",
    "notify_all",
    "min",
    "max",
    "as_ref",
    "as_mut",
    "as_str",
    "to_string",
    "to_vec",
    "into",
    "from",
    "flush",
];

/// Per-function facts extracted by the scanner.
#[derive(Default)]
struct FnInfo {
    file: usize,
    name: String,
    /// Calls made while at least one named guard is live:
    /// (callee name, line, locked fields).
    guarded_calls: Vec<(String, u32, Vec<String>)>,
    /// Body performs socket IO or a blocking call directly (fuel for
    /// one-level propagation into callers).
    blocks_or_does_io: bool,
}

/// A raw finding before suppression resolution: (file idx, line,
/// message).
type Raw = (usize, u32, String);

/// Run r8 over the workspace. `ctxs` is every scanned file; only the
/// live-stack crates contribute lock sites, but the slice may hold
/// anything (fixtures run through here one file at a time under their
/// pretend paths).
pub fn run_concurrency(ctxs: &[FileCtx]) -> Vec<Finding> {
    let mut raw: Vec<Raw> = Vec::new();
    let mut fns: Vec<FnInfo> = Vec::new();
    for (fi, ctx) in ctxs.iter().enumerate() {
        if SCOPE_CRATES.contains(&ctx.crate_name.as_str()) {
            for span in &ctx.fns {
                fns.push(scan_fn(ctx, fi, span, &mut raw));
            }
        }
    }

    // Index workspace functions by simple name for one-level propagation.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        if !f.name.is_empty() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
    }
    for f in &fns {
        for (callee, line, held) in &f.guarded_calls {
            let blocks = by_name
                .get(callee.as_str())
                .is_some_and(|targets| targets.iter().any(|&t| fns[t].blocks_or_does_io));
            if blocks {
                raw.push((
                    f.file,
                    *line,
                    format!(
                        "call to `{callee}()` while MutexGuard{} [{}] live — the callee \
                         blocks or does IO, so the lock is held across it; drop the \
                         guard first or justify with `// wcc-allow: r8 <reason>`",
                        plural(held.len()),
                        held.join(", "),
                    ),
                ));
            }
        }
    }

    let mut findings: Vec<Finding> = raw
        .into_iter()
        .map(|(fi, line, message)| Finding {
            suppressed: ctxs[fi].suppressed("r8", line).map(|s| s.reason.clone()),
            rule: "r8",
            name: "guard-across-blocking",
            file: ctxs[fi].rel_path.clone(),
            line,
            message,
        })
        .collect();
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings.dedup_by(|a, b| (&a.file, a.line, &a.message) == (&b.file, b.line, &b.message));
    findings
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Scan one function body: guard intervals, guarded calls, and the r8
/// point checks.
fn scan_fn(ctx: &FileCtx, fi: usize, span: &FnSpan, raw: &mut Vec<Raw>) -> FnInfo {
    let toks = &ctx.tokens;
    let reactor_path =
        ctx.crate_name == "liveserve" && REACTOR_PATH_FILES.contains(&ctx.file_name());
    let mut info = FnInfo {
        file: fi,
        name: fn_name(ctx, span).unwrap_or_default(),
        ..FnInfo::default()
    };

    // (binding name, binding depth); pendings activate after the `let`
    // statement's own `;`, so a call in the initializer pairs only with
    // *earlier* guards.
    let mut guards: Vec<(String, u32)> = Vec::new();
    let mut pending: Vec<(String, u32, usize)> = Vec::new();

    let mut i = span.body_open + 1;
    while i < span.body_close {
        if ctx.in_test[i] {
            i += 1;
            continue;
        }
        let mut j = 0;
        while j < pending.len() {
            if pending[j].2 < i {
                let (name, depth, _) = pending.remove(j);
                guards.push((name, depth));
            } else {
                j += 1;
            }
        }
        let t = &toks[i];
        if t.is_punct('}') {
            let d = ctx.depth[i];
            guards.retain(|g| g.1 < d);
            pending.retain(|p| p.1 < d);
            i += 1;
            continue;
        }
        // drop(name) releases early.
        if is_call(ctx, i, "drop") {
            if let Some(name) = toks.get(i + 2) {
                if toks.get(i + 3).map(|t| t.is_punct(')')) == Some(true) {
                    guards.retain(|g| g.0 != name.text);
                    pending.retain(|p| p.0 != name.text);
                }
            }
        }
        // `let [mut] name = ...lock();` registers a guard (activated
        // after the statement ends).
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).map(|t| t.is_ident("mut")) == Some(true) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind == TokKind::Ident) == Some(true)
                && toks.get(j + 1).map(|t| t.is_punct('=')) == Some(true)
            {
                let bind_depth = ctx.depth[i];
                let mut end = j + 2;
                while end < span.body_close
                    && !(toks[end].is_punct(';') && ctx.depth[end] == bind_depth)
                {
                    end += 1;
                }
                if rhs_is_guard(ctx, j + 2, end, bind_depth) {
                    pending.push((toks[j].text.clone(), bind_depth, end));
                }
            }
        }
        // Socket IO or a blocking operation: a finding when a named
        // guard is live, and the fuel for propagation into callers that
        // hold one across a call to this function.
        let called =
            t.kind == TokKind::Ident && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true);
        let nullary_join = called
            && t.is_ident("join")
            && toks[i - 1].is_punct('.')
            && toks.get(i + 2).map(|t| t.is_punct(')')) == Some(true);
        let blocks = nullary_join
            || called
                && (IO_CALLS.contains(&t.text.as_str())
                    || BLOCKING_CALLS.contains(&t.text.as_str()));
        info.blocks_or_does_io |= blocks;
        let held = || guards.iter().map(|g| g.0.clone()).collect::<Vec<_>>();
        if blocks && !guards.is_empty() {
            raw.push((
                fi,
                t.line,
                format!(
                    "`{}()` while MutexGuard{} [{}] live — a blocked {} stalls every \
                     thread contending for the lock; drop the guard first",
                    t.text,
                    plural(guards.len()),
                    held().join(", "),
                    t.text,
                ),
            ));
        }
        let is_fn_decl = toks[i - 1].is_ident("fn");
        // The reactor path: a blocking call, guard or no guard.
        if reactor_path && called && REACTOR_BANNED.contains(&t.text.as_str()) && !is_fn_decl {
            raw.push((
                fi,
                t.line,
                format!(
                    "`{}()` on the reactor path — no reactor thread ever blocks: park a \
                     continuation on the socket and resume on readiness (DESIGN.md §8), or \
                     justify with `// wcc-allow: r8 <reason>`",
                    t.text
                ),
            ));
        }
        // Candidate workspace call made under a guard (one-level
        // propagation). Uppercase initials are type constructors, not
        // calls; `fn name(` is a nested declaration.
        if called
            && !guards.is_empty()
            && !CALL_DENY.contains(&t.text.as_str())
            && !t.text.starts_with(char::is_uppercase)
            && !is_fn_decl
            && !t.is_ident("drop")
        {
            info.guarded_calls.push((t.text.clone(), t.line, held()));
        }
        i += 1;
    }
    info
}

/// Does the `let` initializer `toks[start..end)` leave a lock guard in
/// the binding? True when its last `.lock()` call at the statement's
/// own depth is followed only by `.unwrap()`-family adjusters or `?`. A
/// longer method chain (`.lock().peek(..)`) is a temporary that dies at
/// the `;`, and so is a copy-out (`*m.lock()`).
fn rhs_is_guard(ctx: &FileCtx, start: usize, end: usize, bind_depth: u32) -> bool {
    let toks = &ctx.tokens;
    if toks.get(start).map(|t| t.is_punct('*')) == Some(true) {
        return false;
    }
    // The `)` that closes the `(` at `open`.
    let close = |open: usize| {
        let mut p = 0i32;
        (open..end)
            .find(|&j| {
                if toks[j].is_punct('(') {
                    p += 1;
                } else if toks[j].is_punct(')') {
                    p -= 1;
                }
                p == 0
            })
            .unwrap_or(end)
    };
    let Some(lock) = (start..end).rev().find(|&i| {
        ctx.depth[i] == bind_depth && is_call(ctx, i, "lock") && toks[i - 1].is_punct('.')
    }) else {
        return false;
    };
    const ADJUSTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];
    let mut i = close(lock + 1) + 1;
    while i < end {
        if toks[i].is_punct('?') {
            i += 1;
            continue;
        }
        let adjuster = toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| ADJUSTERS.contains(&t.text.as_str()))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('));
        if !adjuster {
            return false;
        }
        i = close(i + 2) + 1;
    }
    true
}

/// Name of the function owning `span`: the ident after the `fn`
/// keyword, found by walking back from the body's `{`.
fn fn_name(ctx: &FileCtx, span: &FnSpan) -> Option<String> {
    let toks = &ctx.tokens;
    let mut j = span.body_open;
    while j > 0 {
        j -= 1;
        if toks[j].is_ident("fn") {
            return toks
                .get(j + 1)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
        }
        // A `;` or `}` before the `fn` keyword means we left the
        // signature (previous item) — bail.
        if toks[j].is_punct(';') || toks[j].is_punct('}') {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileCtx;

    fn run_one(path: &str, src: &str) -> Vec<Finding> {
        run_concurrency(&[FileCtx::new(path, src)])
    }

    fn unsuppressed(path: &str, src: &str) -> Vec<Finding> {
        run_one(path, src)
            .into_iter()
            .filter(|f| f.suppressed.is_none())
            .collect()
    }

    #[test]
    fn r8_blocking_under_guard_direct_and_propagated() {
        let src = r#"
fn direct(&self) {
    let g = self.state.lock();
    self.tx.send(1);
}
fn caller(&self) {
    let g = self.state.lock();
    self.does_io();
}
fn does_io(&self) {
    self.conn.write_all(b"x");
}
fn fine(&self) {
    let g = self.state.lock();
    drop(g);
    self.tx.send(1);
}
"#;
        let hits = unsuppressed("crates/liveserve/src/x.rs", src);
        assert_eq!(
            hits.iter().filter(|f| f.rule == "r8").count(),
            2,
            "{hits:?}"
        );
    }

    #[test]
    fn r8_flags_io_under_named_guard() {
        let src = r#"
fn bad(&self) {
    let st = self.state.lock().unwrap();
    self.conn.write_all(b"x");
}
fn bad_through_an_accessor(&self) {
    let mut st = self.shard(file).lock();
    self.sink.flush();
}
"#;
        let hits = unsuppressed("crates/liveserve/src/proxy.rs", src);
        let under_guard: Vec<u32> = hits
            .iter()
            .filter(|f| f.rule == "r8" && f.message.contains("while MutexGuard"))
            .map(|f| f.line)
            .collect();
        assert_eq!(under_guard, [4, 8], "{hits:?}");
    }

    #[test]
    fn r8_scoped_dropped_and_temporary_guards_are_clean_across_io() {
        let src = r#"
fn good(&self) {
    let targets = { let st = self.state.lock().unwrap(); st.collect() };
    self.conn.write_all(&targets);
    let st2 = self.state.lock().unwrap();
    drop(st2);
    self.conn.flush();
    let is_new = self.state.lock().unwrap().store.peek(file).is_none();
    self.conn.write_all(b"x");
}
"#;
        let hits = unsuppressed("crates/liveserve/src/netio.rs", src);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn r8_covers_wcc_obs_but_not_other_crates() {
        let src = r#"
fn export(&self) {
    let ring = self.ring.lock().unwrap();
    self.sink.write_all(b"x");
}
"#;
        let hits = unsuppressed("crates/wcc-obs/src/trace.rs", src);
        assert!(hits.iter().any(|f| f.rule == "r8"), "{hits:?}");
        // The same pattern outside the live stack is not this rule's business.
        assert!(unsuppressed("crates/core/src/sim.rs", src)
            .iter()
            .all(|f| f.rule != "r8"));
    }

    #[test]
    fn r8_and_r4_cover_the_wcc_load_driver() {
        let src = r#"
fn worker(&self) {
    let q = self.queue.lock().unwrap();
    self.conn.write_all(b"x");
}
"#;
        let hits = unsuppressed("crates/wcc-load/src/driver.rs", src);
        assert!(hits.iter().any(|f| f.rule == "r8"), "{hits:?}");
        let per_file = |path| crate::rules::run_all(&FileCtx::new(path, src));
        assert!(per_file("crates/wcc-load/src/driver.rs")
            .iter()
            .any(|f| f.rule == "r4"));
        // The schedule is not a server path: no r4 there.
        assert!(per_file("crates/wcc-load/src/schedule.rs")
            .iter()
            .all(|f| f.rule != "r4"));
    }

    #[test]
    fn r8_bans_blocking_calls_on_the_reactor_path_only() {
        let src = r#"
fn dial(&self) {
    let s = TcpStream::connect(self.addr);
    self.stream.write_all(b"x");
    self.cond.wait_while(g, |q| q.is_empty());
}
fn fine(&self) {
    let s = connect_nonblocking(self.addr);
    let n = self.ep.epoll_wait(&mut events, 25);
}
#[cfg(test)]
mod tests { fn t() { let s = TcpStream::connect(addr); s.write_all(b"x"); } }
"#;
        let count = |path| {
            let hits = unsuppressed(path, src);
            hits.iter().filter(|f| f.rule == "r8").count()
        };
        assert_eq!(count("crates/liveserve/src/upstream.rs"), 3);
        assert_eq!(count("crates/liveserve/src/proxy.rs"), 3);
        // The origin's control plane runs on its reactor too.
        assert_eq!(count("crates/liveserve/src/control.rs"), 3);
        assert_eq!(count("crates/liveserve/src/origin.rs"), 3);
        // The blocking client-side connection lives off the path.
        assert_eq!(count("crates/liveserve/src/netio.rs"), 0);
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let src = "fn f(&self) { let g = self.state.lock(); self.tx.send(1); }";
        assert!(unsuppressed("crates/simcore/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppressions_apply_to_concurrency_rules() {
        let src = r#"
fn f(&self) {
    let g = self.state.lock();
    // wcc-allow: r8 bounded: the channel has a one-slot guarantee here
    self.tx.send(1);
}
"#;
        let all = run_one("crates/liveserve/src/x.rs", src);
        assert!(all.iter().any(|f| f.rule == "r8" && f.suppressed.is_some()));
        assert!(all.iter().all(|f| f.suppressed.is_some()));
    }
}
