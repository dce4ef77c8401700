//! The project-specific rule set.
//!
//! Every rule is a token-stream pass over one [`FileCtx`]. Rules skip
//! `#[cfg(test)]` / `#[test]` regions — tests exercise failure paths and
//! may `unwrap()` freely; none of them run in the serving path, and the
//! native `clippy.toml` `disallowed-methods` gate covers test code for
//! the rules clippy can express.
//!
//! | id | name                      | scope |
//! |----|---------------------------|-------|
//! | r1 | no-wall-clock             | every crate; `liveserve/clock.rs` + `wcc-load/{closed,driver,soak}.rs` allowlisted |
//! | r2 | no-unordered-iter         | files that write reports/stats |
//! | r3 | no-lock-across-io         | `liveserve`, `wcc-obs`, `wcc-load` |
//! | r4 | no-panic-in-server-path   | `liveserve::{origin,proxy,netio,control,upstream,...}`, `wcc-load::{closed,driver,replay}` |
//! | r5 | bounded-channel-or-comment| `liveserve`, `wcc-load` |
//! | r6 | lock-order-cycle          | `liveserve`, `wcc-obs`, `wcc-load` (workspace-wide graph; see [`crate::concurrency`]) |
//! | r7 | condvar-discipline        | `liveserve`, `wcc-obs`, `wcc-load` |
//! | r8 | guard-across-blocking     | `liveserve`, `wcc-obs`, `wcc-load`; any blocking call at all in `liveserve/{reactor,conn,proxy,upstream,control,origin}.rs` |
//! | r9 | decision-written-once     | everything outside `crates/consistency` except the repo benchmark (`bench/`) |
//!
//! Suppression: `// wcc-allow: <rule>[,<rule>] <reason>` on the finding
//! line or the line above. The reason is mandatory; a reasonless or
//! unknown-rule directive is itself a finding (id `allow`).

use crate::scan::{FileCtx, FnSpan};

/// One reported issue, before/after suppression resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`r1`..`r9`, or `allow` for malformed directives).
    pub rule: &'static str,
    /// Human rule name.
    pub name: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What went wrong, with the remedy.
    pub message: String,
    /// `Some(reason)` when a valid `wcc-allow` covered this finding.
    pub suppressed: Option<String>,
}

/// All rule ids the suppression syntax accepts.
pub const RULE_IDS: [&str; 9] = ["r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"];

/// Static metadata for one rule: drives the JSON rules manifest and
/// the `--explain` subcommand.
pub struct RuleInfo {
    /// Rule id (`r1`..`r9`, `allow`).
    pub id: &'static str,
    /// Human rule name.
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
    /// A minimal violating (or, for `allow`, malformed) example.
    pub example: &'static str,
}

/// The full rule manifest, in id order. `allow` is last: it reports
/// malformed suppression directives rather than code defects.
pub const RULES: [RuleInfo; 10] = [
    RuleInfo {
        id: "r1",
        name: "no-wall-clock",
        summary: "simulation crates must take time from the virtual clock — a single \
                  Instant::now() breaks the golden-hash determinism tests",
        example: "fn step(&mut self) { let t = Instant::now(); /* nondeterministic */ }",
    },
    RuleInfo {
        id: "r2",
        name: "no-unordered-iter",
        summary: "report-writing files must not iterate HashMap/HashSet — unspecified \
                  order corrupts golden-hash comparisons run-to-run",
        example: "for (k, v) in self.counts.iter() { println!(\"{k} {v}\"); }",
    },
    RuleInfo {
        id: "r3",
        name: "no-lock-across-io",
        summary: "state mutexes are never held across socket IO, or one slow peer \
                  stalls every worker contending for the lock",
        example: "let st = self.state.lock(); self.conn.write_all(&buf)?;",
    },
    RuleInfo {
        id: "r4",
        name: "no-panic-in-server-path",
        summary: "connection handling returns errors that close one connection; a \
                  panic kills a whole worker thread",
        example: "fn handle(&self) { let req = read_request(&mut conn).unwrap(); }",
    },
    RuleInfo {
        id: "r5",
        name: "bounded-channel-or-comment",
        summary: "queues and server-loop collections are bounded, or carry a \
                  wcc-allow stating the protocol bound",
        example: "let (tx, rx) = mpsc::channel(); // unbounded",
    },
    RuleInfo {
        id: "r6",
        name: "lock-order-cycle",
        summary: "lock acquisition order must be acyclic and must follow the declared \
                  wcc-lock-rank table — ranks strictly increase along every chain",
        example: "let hi = self.high.lock(); let lo = self.low.lock(); // rank inversion",
    },
    RuleInfo {
        id: "r7",
        name: "condvar-discipline",
        summary: "condvar waits sit in a predicate loop, wait_timeout results are \
                  checked, and notify runs under the paired guard (no lost wakeups)",
        example: "{ let mut g = self.inner.lock(); *g = true; } self.cond.notify_all();",
    },
    RuleInfo {
        id: "r8",
        name: "guard-across-blocking",
        summary: "no mutex guard is live across a queue offer, channel send, pool \
                  checkout, or thread join — blocking under a lock stalls the stack; on \
                  the reactor path no call blocks at all",
        example: "let st = self.state.lock(); self.tx.send(job)?;",
    },
    RuleInfo {
        id: "r9",
        name: "decision-written-once",
        summary: "only consistency::Engine asks a Policy to decide or feeds it back — a \
                  driver that calls decide/on_validation/on_fetch itself is a second \
                  copy of the request logic",
        example: "if self.policy.decide(&entry, &ctx).serves_locally() { /* a fork */ }",
    },
    RuleInfo {
        id: "allow",
        name: "suppression-hygiene",
        summary: "every wcc-allow names a known rule and states a reason; anything \
                  else is itself a finding",
        example: "// wcc-allow: r4   <- missing the mandatory reason",
    },
];

/// Run every rule over one analyzed file.
pub fn run_all(ctx: &FileCtx) -> Vec<Finding> {
    let mut raw: Vec<(&'static str, &'static str, u32, String)> = Vec::new();
    r1_no_wall_clock(ctx, &mut raw);
    r2_no_unordered_iter(ctx, &mut raw);
    r3_no_lock_across_io(ctx, &mut raw);
    r4_no_panic_in_server_path(ctx, &mut raw);
    r5_bounded_channel_or_comment(ctx, &mut raw);
    r9_decision_written_once(ctx, &mut raw);

    let mut findings: Vec<Finding> = raw
        .into_iter()
        .map(|(rule, name, line, message)| Finding {
            suppressed: ctx.suppressed(rule, line).map(|s| s.reason.clone()),
            rule,
            name,
            file: ctx.rel_path.clone(),
            line,
            message,
        })
        .collect();

    // Malformed directives are findings in their own right and cannot
    // themselves be suppressed.
    for s in &ctx.suppressions {
        if s.reason.is_empty() {
            findings.push(Finding {
                rule: "allow",
                name: "suppression-hygiene",
                file: ctx.rel_path.clone(),
                line: s.line,
                message: "wcc-allow directive without a reason; write \
                          `// wcc-allow: <rule> <why this is safe>`"
                    .to_string(),
                suppressed: None,
            });
        }
        for r in &s.rules {
            if !RULE_IDS.contains(&r.as_str()) {
                findings.push(Finding {
                    rule: "allow",
                    name: "suppression-hygiene",
                    file: ctx.rel_path.clone(),
                    line: s.line,
                    message: format!("wcc-allow names unknown rule `{r}` (known: r1..r9)"),
                    suppressed: None,
                });
            }
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Is token `i` an identifier immediately followed by `(`?
fn is_call(ctx: &FileCtx, i: usize, name: &str) -> bool {
    ctx.tokens[i].is_ident(name)
        && ctx
            .tokens
            .get(i + 1)
            .map(|t| t.is_punct('('))
            .unwrap_or(false)
}

/// Does the path segment `A :: B` start at token `i`?
fn is_path(ctx: &FileCtx, i: usize, a: &str, b: &str) -> bool {
    ctx.tokens[i].is_ident(a)
        && ctx.tokens.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
        && ctx.tokens.get(i + 2).map(|t| t.is_punct(':')) == Some(true)
        && ctx.tokens.get(i + 3).map(|t| t.is_ident(b)) == Some(true)
}

// --- R1 ------------------------------------------------------------------

/// Wall-clock reads make runs unreproducible: the golden-hash
/// determinism tests (`tests/determinism.rs`) hash entire sweeps, so a
/// single `Instant::now()` in a simulation crate breaks bit-exactness.
/// The live stack is real-time by design in exactly four files.
fn r1_no_wall_clock(ctx: &FileCtx, out: &mut Vec<(&'static str, &'static str, u32, String)>) {
    if ctx.crate_name == "liveserve" && ctx.file_name() == "clock.rs" {
        return; // the clock: real time is the point
    }
    // The load drivers time responses, pace arrivals and report the
    // soak's duration on the wall clock.
    let timed_driver = matches!(ctx.file_name(), "closed.rs" | "driver.rs" | "soak.rs");
    if ctx.crate_name == "wcc-load" && timed_driver {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if ctx.in_test[i] {
            continue;
        }
        for src in ["SystemTime", "Instant"] {
            if is_path(ctx, i, src, "now") {
                out.push((
                    "r1",
                    "no-wall-clock",
                    ctx.tokens[i].line,
                    format!(
                        "{src}::now() in `{}` — simulation crates must take time from \
                         the virtual clock (SimTime / LiveClock) or results stop being \
                         reproducible",
                        ctx.crate_name
                    ),
                ));
            }
        }
    }
}

// --- R2 ------------------------------------------------------------------

const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Iterating a `HashMap`/`HashSet` yields an unspecified order; feeding
/// that order into a report or stats stream corrupts golden-hash
/// comparisons run-to-run. Sort first, or use a `Vec`/`BTreeMap`.
fn r2_no_unordered_iter(ctx: &FileCtx, out: &mut Vec<(&'static str, &'static str, u32, String)>) {
    // Only files that also produce report/stat output are in scope.
    const MARKERS: [&str; 7] = [
        "println", "writeln", "eprintln", "print", "eprint", "to_json", "JsonObj",
    ];
    let writes_reports = ctx.rel_path.contains("report")
        || ctx.tokens.iter().enumerate().any(|(i, t)| {
            !ctx.in_test[i]
                && t.kind == crate::lexer::TokKind::Ident
                && MARKERS.contains(&t.text.as_str())
        });
    if !writes_reports {
        return;
    }

    // Names declared as hash containers: struct fields / typed bindings
    // (`name: HashMap<..>`) and `let [mut] name = HashMap::...`.
    let mut maps: Vec<String> = Vec::new();
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let is_hash = |t: &crate::lexer::Tok| t.is_ident("HashMap") || t.is_ident("HashSet");
        if toks[i].kind == crate::lexer::TokKind::Ident
            && toks.get(i + 1).map(|t| t.is_punct(':')) == Some(true)
            && toks.get(i + 2).map(|t| !t.is_punct(':')) == Some(true)
        {
            // `name: [std::collections::]Hash{Map,Set}<..>`
            let mut j = i + 2;
            while j < toks.len()
                && (toks[j].is_punct(':')
                    || toks[j].is_ident("std")
                    || toks[j].is_ident("collections"))
            {
                j += 1;
            }
            if toks.get(j).map(is_hash) == Some(true) {
                maps.push(toks[i].text.clone());
            }
        }
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).map(|t| t.is_ident("mut")) == Some(true) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind == crate::lexer::TokKind::Ident) == Some(true) {
                let name = toks[j].text.clone();
                // Scan the statement for a Hash{Map,Set} constructor.
                let mut k = j + 1;
                while k < toks.len() && !toks[k].is_punct(';') {
                    if is_hash(&toks[k]) {
                        maps.push(name.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    maps.sort();
    maps.dedup();
    if maps.is_empty() {
        return;
    }

    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        // `name.iter()` / `.keys()` / ...
        if toks[i].kind == crate::lexer::TokKind::Ident
            && maps.iter().any(|m| m == &toks[i].text)
            && toks.get(i + 1).map(|t| t.is_punct('.')) == Some(true)
        {
            if let Some(m) = toks.get(i + 2) {
                if ITER_METHODS.contains(&m.text.as_str())
                    && toks.get(i + 3).map(|t| t.is_punct('(')) == Some(true)
                {
                    out.push((
                        "r2",
                        "no-unordered-iter",
                        toks[i].line,
                        format!(
                            "iteration over unordered container `{}` in a report-writing \
                             file — collect and sort (or use Vec/BTreeMap) before emitting",
                            toks[i].text
                        ),
                    ));
                }
            }
        }
        // `for pat in [&[mut]] name { ... }`
        if toks[i].is_ident("for") {
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_ident("in") && !toks[j].is_punct('{') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_ident("in") {
                let mut k = j + 1;
                while k < toks.len() && !toks[k].is_punct('{') {
                    if toks[k].kind == crate::lexer::TokKind::Ident
                        && maps.iter().any(|m| m == &toks[k].text)
                        && toks.get(k + 1).map(|t| t.is_punct('.')) != Some(true)
                    {
                        out.push((
                            "r2",
                            "no-unordered-iter",
                            toks[i].line,
                            format!(
                                "`for` loop over unordered container `{}` in a \
                                 report-writing file — sort before emitting",
                                toks[k].text
                            ),
                        ));
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
}

// --- R3 ------------------------------------------------------------------

pub(crate) const IO_CALLS: [&str; 15] = [
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

/// The §8 thread-model invariant: state mutexes (`OriginServer`, the
/// proxy's `CacheState`) are never held across socket IO, or one slow
/// peer stalls every worker. Detected by scope analysis: a **named**
/// binding whose initializer ends in `.lock()` (optionally
/// `.unwrap()`-family adjusted) is live until its
/// block closes or `drop(name)`; any IO call in that live range is a
/// finding. A mutex locked as a *temporary* inside the call's own
/// arguments is intentionally exempt — such a mutex exists to serialize
/// the socket itself.
fn r3_no_lock_across_io(ctx: &FileCtx, out: &mut Vec<(&'static str, &'static str, u32, String)>) {
    // `wcc-obs` is in scope too: a probe recording under a shared lock
    // must never export (file/socket IO) inside that critical section.
    // So is `wcc-load`: its pending-queue mutex must never be held while
    // a worker talks to the stack, or one slow response stalls the pacer.
    if !matches!(
        ctx.crate_name.as_str(),
        "liveserve" | "wcc-obs" | "wcc-load"
    ) {
        return;
    }
    for span in &ctx.fns {
        r3_scan_fn(ctx, span, out);
    }
}

fn r3_scan_fn(
    ctx: &FileCtx,
    span: &FnSpan,
    out: &mut Vec<(&'static str, &'static str, u32, String)>,
) {
    let toks = &ctx.tokens;
    let mut guards: Vec<(String, u32)> = Vec::new(); // (name, binding depth)
    let mut i = span.body_open + 1;
    while i < span.body_close {
        if ctx.in_test[i] {
            i += 1;
            continue;
        }
        let t = &toks[i];
        // Scope exit kills guards bound at or below this depth.
        if t.is_punct('}') {
            let d = ctx.depth[i];
            guards.retain(|g| g.1 < d);
            i += 1;
            continue;
        }
        // drop(name) releases early.
        if is_call(ctx, i, "drop") {
            if let Some(name) = toks.get(i + 2) {
                if toks.get(i + 3).map(|t| t.is_punct(')')) == Some(true) {
                    guards.retain(|g| g.0 != name.text);
                }
            }
        }
        // `let [mut] name = ...lock()[.unwrap()...];` registers a guard.
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).map(|t| t.is_ident("mut")) == Some(true) {
                j += 1;
            }
            let name_ok = toks.get(j).map(|t| t.kind == crate::lexer::TokKind::Ident) == Some(true)
                && toks.get(j + 1).map(|t| t.is_punct('=')) == Some(true);
            if name_ok {
                let bind_depth = ctx.depth[i];
                // Find the statement's terminating `;` at binding depth.
                let mut end = j + 2;
                while end < span.body_close
                    && !(toks[end].is_punct(';') && ctx.depth[end] == bind_depth)
                {
                    end += 1;
                }
                if rhs_is_guard(ctx, j + 2, end, bind_depth) {
                    guards.push((toks[j].text.clone(), bind_depth));
                }
                // The rhs itself is scanned by the main loop for IO calls
                // made while *earlier* guards are live.
            }
        }
        // An IO call while any guard is live is the violation.
        if toks[i].kind == crate::lexer::TokKind::Ident
            && IO_CALLS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
            && !guards.is_empty()
        {
            let held: Vec<&str> = guards.iter().map(|g| g.0.as_str()).collect();
            out.push((
                "r3",
                "no-lock-across-io",
                t.line,
                format!(
                    "socket IO `{}()` while MutexGuard binding{} [{}] still in scope — \
                     collect under the lock, release, then do IO (or drop(guard) first)",
                    t.text,
                    if held.len() == 1 { "" } else { "s" },
                    held.join(", ")
                ),
            ));
        }
        i += 1;
    }
}

/// Does the initializer `toks[start..end]` leave a lock guard in the
/// binding? True when its top-level token sequence ends with a
/// `lock()` call followed only by
/// `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)` adjustments.
fn rhs_is_guard(ctx: &FileCtx, start: usize, end: usize, bind_depth: u32) -> bool {
    let toks = &ctx.tokens;
    // Locate the last lock() call at the statement's own brace
    // depth (a lock inside a nested `{ .. }` block does not escape).
    let mut last_lock_close: Option<usize> = None;
    let mut i = start;
    while i < end {
        if ctx.depth[i] == bind_depth && is_call(ctx, i, "lock") {
            // Find the matching `)` of the call.
            let mut p = 0i32;
            let mut j = i + 1;
            while j < end {
                if toks[j].is_punct('(') {
                    p += 1;
                } else if toks[j].is_punct(')') {
                    p -= 1;
                    if p == 0 {
                        break;
                    }
                }
                j += 1;
            }
            last_lock_close = Some(j);
        }
        i += 1;
    }
    let Some(mut i) = last_lock_close else {
        return false;
    };
    i += 1;
    // Allowed tail: (`.` ident `(` .. `)`)* with adjuster names, or `?`.
    const ADJUSTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];
    while i < end {
        if toks[i].is_punct('?') {
            i += 1;
            continue;
        }
        if !toks[i].is_punct('.') {
            return false;
        }
        let name = match toks.get(i + 1) {
            Some(t) if t.kind == crate::lexer::TokKind::Ident => t.text.as_str(),
            _ => return false,
        };
        if !ADJUSTERS.contains(&name) {
            return false;
        }
        // Skip the call's argument list.
        let mut j = i + 2;
        if toks.get(j).map(|t| t.is_punct('(')) != Some(true) {
            return false;
        }
        let mut p = 0i32;
        while j < end {
            if toks[j].is_punct('(') {
                p += 1;
            } else if toks[j].is_punct(')') {
                p -= 1;
                if p == 0 {
                    break;
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    true
}

// --- R4 ------------------------------------------------------------------

/// A panic in a connection handler kills its worker thread; enough of
/// them exhaust the stack's ability to serve. Server-path code returns
/// errors that close only the offending connection (logged), recovers
/// mutex poisoning inside `wcc-sync`'s `RankedMutex::lock`, and leaves
/// `unwrap` to tests.
fn r4_no_panic_in_server_path(
    ctx: &FileCtx,
    out: &mut Vec<(&'static str, &'static str, u32, String)>,
) {
    let in_liveserve = ctx.crate_name == "liveserve"
        && matches!(
            ctx.file_name(),
            "origin.rs"
                | "proxy.rs"
                | "netio.rs"
                | "control.rs"
                | "upstream.rs"
                | "reactor.rs"
                | "conn.rs"
                | "sys.rs"
        );
    // The load drivers' clients and workers are server-path too: a
    // panicked worker silently under-achieves the offered rate for the
    // whole run. `soak.rs` stays out: it spawns no thread (its clients
    // are `closed.rs`'s), so a panic there ends the run, loudly.
    let in_wcc_load = ctx.crate_name == "wcc-load"
        && matches!(ctx.file_name(), "closed.rs" | "driver.rs" | "replay.rs");
    if !(in_liveserve || in_wcc_load) {
        return;
    }
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        for m in ["unwrap", "expect"] {
            if is_call(ctx, i, m) {
                out.push((
                    "r4",
                    "no-panic-in-server-path",
                    toks[i].line,
                    format!(
                        ".{m}() in request/connection handling — return an \
                         io::Error (close only this connection) or take the lock \
                         through wcc-sync's RankedMutex, which recovers poisoning"
                    ),
                ));
            }
        }
        for m in ["panic", "unreachable", "todo", "unimplemented"] {
            if toks[i].is_ident(m) && toks.get(i + 1).map(|t| t.is_punct('!')) == Some(true) {
                out.push((
                    "r4",
                    "no-panic-in-server-path",
                    toks[i].line,
                    format!(
                        "{m}! in request/connection handling — a bad request \
                         must not kill a worker thread; return an error instead"
                    ),
                ));
            }
        }
    }
}

// --- R5 ------------------------------------------------------------------

/// Unbounded queues and per-request collections are how a slow (or
/// malicious) peer turns into unbounded memory growth. Channels need a
/// capacity (`sync_channel(n)`) and per-request `Vec` growth in server
/// loops needs a bound — or an explicit `// wcc-allow: r5 <reason>`
/// stating why the growth is bounded by the protocol.
fn r5_bounded_channel_or_comment(
    ctx: &FileCtx,
    out: &mut Vec<(&'static str, &'static str, u32, String)>,
) {
    if !matches!(ctx.crate_name.as_str(), "liveserve" | "wcc-load") {
        return;
    }
    let toks = &ctx.tokens;
    // Unbounded channels, anywhere in the crate.
    for (i, tok) in toks.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        if is_call(ctx, i, "channel") {
            out.push((
                "r5",
                "bounded-channel-or-comment",
                tok.line,
                "unbounded mpsc::channel() — use sync_channel(capacity) or justify \
                 the protocol bound with `// wcc-allow: r5 <reason>`"
                    .to_string(),
            ));
        }
    }
    // Growth calls inside functions that run accept/read loops.
    const LOOP_MARKERS: [&str; 4] = ["accept", "read", "read_request", "read_response"];
    const GROWTH: [&str; 3] = ["push", "extend_from_slice", "extend"];
    for span in &ctx.fns {
        let body = span.body_open..=span.body_close;
        let is_server_loop = body.clone().any(|i| {
            !ctx.in_test[i]
                && toks[i].kind == crate::lexer::TokKind::Ident
                && LOOP_MARKERS.contains(&toks[i].text.as_str())
                && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
        });
        if !is_server_loop {
            continue;
        }
        for i in body {
            if ctx.in_test[i] || !toks[i].is_punct('.') {
                continue;
            }
            let Some(m) = toks.get(i + 1) else { continue };
            if GROWTH.contains(&m.text.as_str())
                && toks.get(i + 2).map(|t| t.is_punct('(')) == Some(true)
            {
                out.push((
                    "r5",
                    "bounded-channel-or-comment",
                    m.line,
                    format!(
                        ".{}() grows a collection inside a server accept/read loop — \
                         bound it (cap + error, reap finished entries) or justify with \
                         `// wcc-allow: r5 <reason>`",
                        m.text
                    ),
                ));
            }
        }
    }
}

// --- R9 ------------------------------------------------------------------

/// The cache-side request decision lives in `consistency::Engine` and
/// nowhere else: the simulator, the hierarchy, the failure experiment
/// and the live proxy all drive it. A `Policy` method call anywhere
/// else is the start of another hand-kept copy. The repo benchmark
/// (`bench/`) is exempt — timing `decide` in isolation is its job.
fn r9_decision_written_once(
    ctx: &FileCtx,
    out: &mut Vec<(&'static str, &'static str, u32, String)>,
) {
    if ctx.crate_name == "consistency" || ctx.rel_path.starts_with("bench/") {
        return;
    }
    for i in 1..ctx.tokens.len() {
        if ctx.in_test[i] || !ctx.tokens[i - 1].is_punct('.') {
            continue;
        }
        for m in ["decide", "on_validation", "on_fetch"] {
            if is_call(ctx, i, m) {
                out.push((
                    "r9",
                    "decision-written-once",
                    ctx.tokens[i].line,
                    format!(
                        ".{m}() outside crates/consistency — drive consistency::Engine \
                         (request / apply / invalidate) instead of asking the policy directly"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileCtx;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        run_all(&FileCtx::new(path, src))
    }

    fn unsuppressed(path: &str, src: &str) -> Vec<Finding> {
        findings(path, src)
            .into_iter()
            .filter(|f| f.suppressed.is_none())
            .collect()
    }

    #[test]
    fn r1_flags_wall_clock_in_sim_crates_only() {
        let src = "fn f() { let t = Instant::now(); let s = std::time::SystemTime::now(); }";
        let hits = unsuppressed("crates/simcore/src/queue.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "r1").count(), 2);
        // Allowlisted files are clean.
        assert!(unsuppressed("crates/liveserve/src/clock.rs", src).is_empty());
        assert!(unsuppressed("crates/wcc-load/src/soak.rs", src).is_empty());
        // ...but other liveserve files are in scope, the stack the load
        // drivers drive included — and a soak that came back.
        for in_scope in ["origin.rs", "stack.rs", "soak.rs"] {
            assert_eq!(
                unsuppressed(&format!("crates/liveserve/src/{in_scope}"), src)
                    .iter()
                    .filter(|f| f.rule == "r1")
                    .count(),
                2
            );
        }
    }

    #[test]
    fn r1_ignores_strings_comments_and_tests() {
        let src = r#"
// Instant::now() in a comment
fn f() { let s = "Instant::now()"; }
#[cfg(test)]
mod tests { fn t() { let x = Instant::now(); } }
"#;
        assert!(unsuppressed("crates/simcore/src/lib.rs", src).is_empty());
    }

    #[test]
    fn r2_flags_map_iteration_in_report_files() {
        let src = r#"
struct S { counts: HashMap<u32, u64> }
fn emit(s: &S) {
    for (k, v) in s.counts.iter() { println!("{k} {v}"); }
}
"#;
        let hits = unsuppressed("crates/core/src/experiments/report.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "r2").count(), 1);
    }

    #[test]
    fn r2_for_loop_direct_iteration() {
        let src = "fn f() { let mut seen = HashSet::new(); for k in &seen { println!(\"{k}\"); } }";
        let hits = unsuppressed("crates/webtrace/src/analyze.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "r2").count(), 1);
    }

    #[test]
    fn r2_silent_files_and_vec_iteration_are_clean() {
        // No report markers: not in scope.
        let quiet = "struct S { m: HashMap<u32, u64> } fn f(s: &S) { for x in s.m.iter() {} }";
        assert!(unsuppressed("crates/core/src/sim.rs", quiet).is_empty());
        // Vec iteration in a report file: fine.
        let vecs = "fn f(rows: &[u64]) { for r in rows.iter() { println!(\"{r}\"); } }";
        assert!(unsuppressed("crates/core/src/experiments/report.rs", vecs).is_empty());
    }

    #[test]
    fn r3_flags_io_under_named_guard() {
        let src = r#"
fn bad(&self) {
    let st = self.state.lock().unwrap();
    self.conn.write_all(b"x");
}
"#;
        let hits = unsuppressed("crates/liveserve/src/proxy.rs", src);
        assert!(hits.iter().any(|f| f.rule == "r3"), "{hits:?}");
    }

    #[test]
    fn r3_scoped_and_dropped_guards_are_clean() {
        let src = r#"
fn good(&self) {
    let targets = { let st = self.state.lock().unwrap(); st.collect() };
    self.conn.write_all(&targets);
    let st2 = self.state.lock().unwrap();
    drop(st2);
    self.conn.flush();
}
"#;
        let hits = unsuppressed("crates/liveserve/src/proxy.rs", src);
        // (.unwrap() also trips r4 here; only r3 matters for this test.)
        assert!(!hits.iter().any(|f| f.rule == "r3"), "{hits:?}");
    }

    #[test]
    fn r3_covers_wcc_obs_but_not_other_crates() {
        let src = r#"
fn export(&self) {
    let ring = self.ring.lock().unwrap();
    self.sink.write_all(b"x");
}
"#;
        let hits = unsuppressed("crates/wcc-obs/src/trace.rs", src);
        assert!(hits.iter().any(|f| f.rule == "r3"), "{hits:?}");
        // The same pattern outside the r3 scope is not this rule's business.
        assert!(unsuppressed("crates/core/src/sim.rs", src)
            .iter()
            .all(|f| f.rule != "r3"));
    }

    #[test]
    fn r3_temporary_guard_chains_are_not_bindings() {
        let src = r#"
fn ok(&self) {
    let is_new = self.state.lock().unwrap().store.peek(file).is_none();
    self.conn.write_all(b"x");
}
"#;
        let hits = unsuppressed("crates/liveserve/src/origin.rs", src);
        assert!(!hits.iter().any(|f| f.rule == "r3"), "{hits:?}");
    }

    #[test]
    fn r4_flags_panics_outside_tests_in_server_files() {
        let src = r#"
fn serve() { x.unwrap(); y.expect("msg"); panic!("boom"); }
#[cfg(test)]
mod tests { fn t() { z.unwrap(); } }
"#;
        let hits = unsuppressed("crates/liveserve/src/origin.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "r4").count(), 3);
        // Same source in a non-server file: clean.
        assert!(unsuppressed("crates/liveserve/src/report.rs", src)
            .iter()
            .all(|f| f.rule != "r4"));
    }

    #[test]
    fn r4_unwrap_or_is_not_unwrap() {
        let src = "fn f() { let x = v.unwrap_or(0); let y = w.unwrap_or_else(|| 1); }";
        assert!(unsuppressed("crates/liveserve/src/proxy.rs", src).is_empty());
    }

    #[test]
    fn r5_flags_unbounded_channel_and_push_in_accept_loop() {
        let src = r#"
fn spawn() {
    let (tx, rx) = mpsc::channel();
    let mut workers = Vec::new();
    loop {
        match listener.accept() {
            Ok(s) => workers.push(s),
            Err(_) => break,
        }
    }
}
"#;
        let hits = unsuppressed("crates/liveserve/src/origin.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "r5").count(), 2);
    }

    #[test]
    fn r5_sync_channel_and_suppressed_push_pass() {
        let src = r#"
fn spawn() {
    let (tx, rx) = mpsc::sync_channel(8);
    let mut workers = Vec::new();
    loop {
        match listener.accept() {
            // wcc-allow: r5 reaped every tick; bounded by live connections
            Ok(s) => workers.push(s),
            Err(_) => break,
        }
    }
}
"#;
        let all = findings("crates/liveserve/src/origin.rs", src);
        assert!(all.iter().any(|f| f.rule == "r5" && f.suppressed.is_some()));
        assert!(all.iter().all(|f| f.suppressed.is_some() || f.rule != "r5"));
    }

    #[test]
    fn r1_allowlists_the_load_drivers_but_not_their_schedule() {
        let src = "fn f() { let t = Instant::now(); }";
        // The closed-loop stopwatch and the open-loop pacer run on wall
        // time by definition...
        assert!(unsuppressed("crates/wcc-load/src/closed.rs", src).is_empty());
        assert!(unsuppressed("crates/wcc-load/src/driver.rs", src).is_empty());
        // ...but the arrival schedule and the trace adapters are pure
        // virtual time.
        for in_scope in ["schedule.rs", "replay.rs"] {
            assert_eq!(
                unsuppressed(&format!("crates/wcc-load/src/{in_scope}"), src)
                    .iter()
                    .filter(|f| f.rule == "r1")
                    .count(),
                1
            );
        }
    }

    #[test]
    fn r3_and_r4_cover_the_wcc_load_driver() {
        let src = r#"
fn worker(&self) {
    let q = self.queue.lock().unwrap();
    self.conn.write_all(b"x");
}
"#;
        let hits = unsuppressed("crates/wcc-load/src/driver.rs", src);
        assert!(hits.iter().any(|f| f.rule == "r3"), "{hits:?}");
        assert!(hits.iter().any(|f| f.rule == "r4"), "{hits:?}");
        // The schedule is not a server path: no r4 there.
        assert!(unsuppressed("crates/wcc-load/src/schedule.rs", src)
            .iter()
            .all(|f| f.rule != "r4"));
    }

    #[test]
    fn r5_flags_unbounded_pending_growth_in_wcc_load() {
        let src = r#"
fn pump(conn: &mut HttpConn) {
    let (tx, rx) = mpsc::channel();
    let mut pending = Vec::new();
    loop {
        let r = conn.read_response();
        pending.push(r);
    }
}
"#;
        let hits = unsuppressed("crates/wcc-load/src/driver.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "r5").count(), 2);
    }

    #[test]
    fn r9_flags_policy_calls_outside_the_engine_and_its_benchmarks() {
        let src = "fn f(p: &mut P) { if p.decide(&e, &c).serves_locally() {} p.on_fetch(0, d); }
#[cfg(test)]
mod tests { fn t(p: &P) { p.decide(&e, &c); } }
fn decide(x: u32) {} fn g() { decide(1); }";
        let hits = unsuppressed("crates/liveserve/src/proxy.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "r9").count(), 2);
        for exempt in ["crates/consistency/src/engine.rs", "bench/src/layers.rs"] {
            assert!(unsuppressed(exempt, src).iter().all(|f| f.rule != "r9"));
        }
    }

    #[test]
    fn reasonless_or_unknown_suppressions_are_findings() {
        let src = "// wcc-allow: r4\n// wcc-allow: r99 bogus rule id\nfn f() {}";
        let hits = unsuppressed("crates/liveserve/src/origin.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "allow").count(), 2);
    }
}
