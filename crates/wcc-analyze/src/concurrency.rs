//! Workspace-level concurrency rules (r6/r7/r8).
//!
//! Unlike r1–r5, which inspect one file at a time, these rules reason
//! about the *interaction* of lock sites across the live stack:
//!
//! * **r6 lock-order-cycle** — every pair "lock B acquired while lock A
//!   is held" is an edge in a workspace-wide acquisition graph. Any
//!   cycle in that graph is a potential deadlock and a finding, as is
//!   any edge that contradicts the declared rank table (ranks must
//!   strictly increase along acquisition chains). Ground truth for lock
//!   identity is the `// wcc-lock-rank: <dotted.name> <rank>` annotation
//!   placed above each rank constant (see DESIGN.md §12); within a file
//!   a site `foo.lock()` matches the annotation whose last dotted
//!   segment is `foo`. Unannotated locks still participate in cycle
//!   detection under a `file::ident` node name.
//! * **r7 condvar-discipline** — `Condvar::wait`/`wait_timeout` must sit
//!   inside a loop (condvars wake spuriously; the predicate must be
//!   re-checked), `wait_timeout` results must be consumed, and
//!   `notify_one`/`notify_all` must run while the paired mutex guard is
//!   live — notifying after the unlock is the classic lost-wakeup race.
//! * **r8 guard-across-blocking** — generalizes r3 beyond socket IO: no
//!   mutex guard may be live across a queue offer (`try_push`), a
//!   channel `send`/`try_send`/`recv`, a pool `checkout`, or a thread
//!   `join()`. On the reactor path
//!   (`liveserve/{reactor,conn,proxy,upstream,control,origin}.rs`) the
//!   rule needs no guard to fire: a reactor thread holds every
//!   connection it owns, so there a blocking call is banned outright.
//!
//! r6 and r8 propagate **one level** through direct calls: a function
//! called while a guard is held contributes its own lock acquisitions
//! (r6) and its own blocking/IO behavior (r8) to the caller's critical
//! section. Resolution is by simple name within the in-scope crates —
//! deliberately shallow, so findings stay explainable from the source.

use std::collections::HashMap;

use crate::lexer::TokKind;
use crate::rules::{Finding, IO_CALLS};
use crate::scan::{FileCtx, FnSpan};

/// Crates whose lock sites are in scope (the live stack).
const SCOPE_CRATES: [&str; 3] = ["liveserve", "wcc-load", "wcc-obs"];

/// Calls that block the calling thread on another thread's progress
/// (beyond the socket IO that r3 already covers).
const BLOCKING_CALLS: [&str; 5] = ["try_push", "send", "try_send", "recv", "checkout"];

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
    "wait_timeout",
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

/// One lock node in the acquisition graph.
struct Node {
    /// Display label: the annotated dotted name, or `file::ident` for
    /// unannotated locks.
    label: String,
    /// Declared rank, if an annotation covers this lock.
    rank: Option<u32>,
}

/// A declared `wcc-lock-rank` annotation.
struct RankDecl {
    /// Full dotted name (`origin.peer.writer`).
    full: String,
    /// Last dotted segment — matched against the field ident at lock
    /// sites within the same file.
    last: String,
    rank: u32,
    line: u32,
    file: usize,
}

/// An acquisition-order edge: `to` acquired while `from` is held.
struct Edge {
    from: usize,
    to: usize,
    file: usize,
    line: u32,
    /// True when the edge came from one-level call propagation (named
    /// in the message so the finding stays explainable).
    via: Option<String>,
}

/// Per-function facts extracted by the scanner.
#[derive(Default)]
struct FnInfo {
    file: usize,
    name: String,
    /// Every lock node this body acquires directly.
    acquires: Vec<(usize, u32)>,
    /// Direct guard-held acquisitions: (held node, acquired node, line).
    local_edges: Vec<(usize, usize, u32)>,
    /// Calls made while at least one named guard is live:
    /// (callee name, line, held nodes).
    guarded_calls: Vec<(String, u32, Vec<usize>)>,
    /// Body performs socket IO or a blocking call directly (fuel for
    /// one-level r8 propagation into callers).
    blocks_or_does_io: bool,
}

/// A raw finding before suppression resolution: (file idx, rule, line,
/// message).
type Raw = (usize, &'static str, u32, String);

/// Run r6/r7/r8 over the workspace. `ctxs` is every scanned file; only
/// the live-stack crates contribute lock sites, but the slice may hold
/// anything (fixtures run through here one file at a time under their
/// pretend paths).
pub fn run_concurrency(ctxs: &[FileCtx]) -> Vec<Finding> {
    let scope: Vec<usize> = (0..ctxs.len())
        .filter(|&i| SCOPE_CRATES.contains(&ctxs[i].crate_name.as_str()))
        .collect();

    let mut raw: Vec<Raw> = Vec::new();
    let decls = collect_rank_decls(ctxs, &scope, &mut raw);

    let mut nodes: Vec<Node> = Vec::new();
    let mut node_ids: HashMap<String, usize> = HashMap::new();
    let mut fns: Vec<FnInfo> = Vec::new();
    for &fi in &scope {
        let ctx = &ctxs[fi];
        let ranks_here: HashMap<&str, &RankDecl> = decls
            .iter()
            .filter(|d| d.file == fi)
            .map(|d| (d.last.as_str(), d))
            .collect();
        for span in &ctx.fns {
            fns.push(scan_fn(
                ctxs,
                fi,
                span,
                &ranks_here,
                &mut nodes,
                &mut node_ids,
                &mut raw,
            ));
        }
    }

    // Index workspace functions by simple name for one-level propagation.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        if !f.name.is_empty() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
    }

    // Assemble the acquisition graph: direct edges plus one level of
    // call propagation.
    let mut edges: Vec<Edge> = Vec::new();
    for f in &fns {
        for &(from, to, line) in &f.local_edges {
            edges.push(Edge {
                from,
                to,
                file: f.file,
                line,
                via: None,
            });
        }
        for (callee, line, held) in &f.guarded_calls {
            let Some(targets) = by_name.get(callee.as_str()) else {
                continue;
            };
            for &t in targets {
                // r8: the callee blocks or does IO inside our critical
                // section.
                if fns[t].blocks_or_does_io {
                    raw.push((
                        f.file,
                        "r8",
                        *line,
                        format!(
                            "call to `{callee}()` while MutexGuard{} [{}] live — the callee \
                             blocks or does IO, so the lock is held across it; drop the \
                             guard first or justify with `// wcc-allow: r8 <reason>`",
                            plural(held.len()),
                            held_labels(held, &nodes),
                        ),
                    ));
                }
                // r6: the callee's acquisitions happen under our guards.
                for &(acq, _) in &fns[t].acquires {
                    for &h in held {
                        edges.push(Edge {
                            from: h,
                            to: acq,
                            file: f.file,
                            line: *line,
                            via: Some(callee.clone()),
                        });
                    }
                }
            }
        }
    }

    // One finding per distinct (from, to, site).
    edges.sort_by_key(|e| (e.from, e.to, e.file, e.line));
    edges.dedup_by_key(|e| (e.from, e.to, e.file, e.line));

    // Declared-rank violations: ranks must strictly increase.
    let mut in_violation: Vec<bool> = vec![false; edges.len()];
    for (i, e) in edges.iter().enumerate() {
        if let (Some(ra), Some(rb)) = (nodes[e.from].rank, nodes[e.to].rank) {
            if ra >= rb {
                in_violation[i] = true;
                raw.push((
                    e.file,
                    "r6",
                    e.line,
                    format!(
                        "lock `{}` (rank {rb}) acquired{} while `{}` (rank {ra}) is held — \
                         ranks must strictly increase along acquisition chains (DESIGN.md §12)",
                        nodes[e.to].label,
                        via_suffix(&e.via),
                        nodes[e.from].label,
                    ),
                ));
            }
        }
    }

    // Cycles among the remaining edges (catches unannotated locks too).
    // Rank-violating edges are excluded from the graph: they are already
    // reported under rank semantics, and leaving them in would tar the
    // correct-order edge of the same pair as "part of a cycle".
    let clean: Vec<(usize, usize)> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| !in_violation[*i])
        .map(|(_, e)| (e.from, e.to))
        .collect();
    let scc = condense(nodes.len(), &clean);
    let mut scc_size = vec![0usize; nodes.len()];
    for &c in &scc {
        scc_size[c] += 1;
    }
    for (i, e) in edges.iter().enumerate() {
        if in_violation[i] {
            continue; // already reported under its rank names
        }
        if scc[e.from] == scc[e.to] && (scc_size[scc[e.from]] > 1 || e.from == e.to) {
            let cycle: Vec<&str> = (0..nodes.len())
                .filter(|&n| scc[n] == scc[e.from])
                .map(|n| nodes[n].label.as_str())
                .collect();
            raw.push((
                e.file,
                "r6",
                e.line,
                format!(
                    "acquiring `{}`{} while `{}` is held closes a lock-order cycle \
                     [{}] — a deadlock once two threads interleave; fix the order or \
                     declare ranks with `// wcc-lock-rank:`",
                    nodes[e.to].label,
                    via_suffix(&e.via),
                    nodes[e.from].label,
                    cycle.join(", "),
                ),
            ));
        }
    }

    let mut findings: Vec<Finding> = raw
        .into_iter()
        .map(|(fi, rule, line, message)| Finding {
            suppressed: ctxs[fi].suppressed(rule, line).map(|s| s.reason.clone()),
            rule,
            name: match rule {
                "r6" => "lock-order-cycle",
                "r7" => "condvar-discipline",
                _ => "guard-across-blocking",
            },
            file: ctxs[fi].rel_path.clone(),
            line,
            message,
        })
        .collect();
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message) == (&b.file, b.line, b.rule, &b.message)
    });
    findings
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn held_labels(held: &[usize], nodes: &[Node]) -> String {
    held.iter()
        .map(|&h| nodes[h].label.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn via_suffix(via: &Option<String>) -> String {
    match via {
        Some(f) => format!(" (via call to `{f}()`)"),
        None => String::new(),
    }
}

/// Parse and validate every `wcc-lock-rank` annotation in scope.
fn collect_rank_decls(ctxs: &[FileCtx], scope: &[usize], raw: &mut Vec<Raw>) -> Vec<RankDecl> {
    let mut decls: Vec<RankDecl> = Vec::new();
    for &fi in scope {
        for (line, body) in &ctxs[fi].lock_ranks {
            let mut parts = body.split_whitespace();
            let (name, rank) = (
                parts.next(),
                parts.next().and_then(|r| r.parse::<u32>().ok()),
            );
            let (Some(name), Some(rank), None) = (name, rank, parts.next()) else {
                raw.push((
                    fi,
                    "r6",
                    *line,
                    "malformed wcc-lock-rank annotation — write \
                     `// wcc-lock-rank: <dotted.name> <rank>`"
                        .to_string(),
                ));
                continue;
            };
            if let Some(prev) = decls.iter().find(|d| d.full == name) {
                raw.push((
                    fi,
                    "r6",
                    *line,
                    format!(
                        "duplicate wcc-lock-rank for `{name}` (first declared at {}:{}) — \
                         one annotation per lock",
                        ctxs[prev.file].rel_path, prev.line
                    ),
                ));
                continue;
            }
            if let Some(prev) = decls.iter().find(|d| d.rank == rank) {
                raw.push((
                    fi,
                    "r6",
                    *line,
                    format!(
                        "rank {rank} assigned to both `{}` and `{name}` — ranks must be \
                         unique or the runtime checker cannot order them",
                        prev.full
                    ),
                ));
                continue;
            }
            decls.push(RankDecl {
                full: name.to_string(),
                last: name.rsplit('.').next().unwrap_or(name).to_string(),
                rank,
                line: *line,
                file: fi,
            });
        }
    }
    decls
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

/// Lexical loop bodies in a file, as token-index intervals. A `wait`
/// outside every interval has no predicate re-check around it.
fn loop_intervals(ctx: &FileCtx) -> Vec<(usize, usize)> {
    let toks = &ctx.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ctx.in_test[i]
            || !(toks[i].is_ident("loop") || toks[i].is_ident("while") || toks[i].is_ident("for"))
        {
            continue;
        }
        let d = ctx.depth[i];
        let Some(open) = (i + 1..toks.len()).find(|&j| toks[j].is_punct('{') && ctx.depth[j] == d)
        else {
            continue;
        };
        let Some(close) =
            (open + 1..toks.len()).find(|&k| toks[k].is_punct('}') && ctx.depth[k] == d + 1)
        else {
            continue;
        };
        out.push((open, close));
    }
    out
}

/// Scan one function body: guard intervals, acquisitions, guarded
/// calls, and the r7/r8 point rules.
#[allow(clippy::too_many_arguments)]
fn scan_fn(
    ctxs: &[FileCtx],
    fi: usize,
    span: &FnSpan,
    ranks_here: &HashMap<&str, &RankDecl>,
    nodes: &mut Vec<Node>,
    node_ids: &mut HashMap<String, usize>,
    raw: &mut Vec<Raw>,
) -> FnInfo {
    let ctx = &ctxs[fi];
    let toks = &ctx.tokens;
    let loops = loop_intervals(ctx);
    let reactor_path =
        ctx.crate_name == "liveserve" && REACTOR_PATH_FILES.contains(&ctx.file_name());
    let mut info = FnInfo {
        file: fi,
        name: fn_name(ctx, span).unwrap_or_default(),
        ..FnInfo::default()
    };

    // Intern a lock node for field ident `id` at this file's scope.
    let mut intern = |id: &str, nodes: &mut Vec<Node>| -> usize {
        let (key, label, rank) = match ranks_here.get(id) {
            Some(d) => (d.full.clone(), d.full.clone(), Some(d.rank)),
            None => {
                let k = format!("{}::{id}", ctx.file_name());
                (k.clone(), k, None)
            }
        };
        *node_ids.entry(key).or_insert_with(|| {
            nodes.push(Node { label, rank });
            nodes.len() - 1
        })
    };

    // (binding name, node, binding depth); pendings activate after the
    // `let` statement's own `;` so rhs acquisitions only pair with
    // *earlier* guards.
    let mut guards: Vec<(String, usize, u32)> = Vec::new();
    let mut pending: Vec<(String, usize, u32, usize)> = Vec::new();

    let mut i = span.body_open + 1;
    while i < span.body_close {
        if ctx.in_test[i] {
            i += 1;
            continue;
        }
        let mut j = 0;
        while j < pending.len() {
            if pending[j].3 < i {
                let p = pending.remove(j);
                guards.push((p.0, p.1, p.2));
            } else {
                j += 1;
            }
        }
        let t = &toks[i];
        if t.is_punct('}') {
            let d = ctx.depth[i];
            guards.retain(|g| g.2 < d);
            pending.retain(|p| p.2 < d);
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
                if let Some(id) = rhs_guard_identity(ctx, j + 2, end, bind_depth) {
                    let node = intern(&id, nodes);
                    pending.push((toks[j].text.clone(), node, bind_depth, end));
                }
            }
        }
        // A lock acquisition: `ident . lock (` — the ident names the
        // mutex field. `io::stdin().lock()` has `)` before the dot and
        // is not a mutex.
        if t.is_ident("lock")
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
        {
            let node = intern(&toks[i - 2].text.clone(), nodes);
            info.acquires.push((node, t.line));
            for g in &guards {
                info.local_edges.push((g.1, node, t.line));
            }
        }
        // r7: waits must sit in a loop. Nullary `wait()` (Child, Latch,
        // JoinHandle wrappers) is not a condvar wait and is skipped.
        let is_method = i >= 1 && toks[i - 1].is_punct('.');
        let has_args = toks.get(i + 2).map(|t| !t.is_punct(')')) == Some(true);
        if is_method
            && has_args
            && (is_call(ctx, i, "wait")
                || is_call(ctx, i, "wait_while")
                || is_call(ctx, i, "wait_timeout"))
        {
            if !loops.iter().any(|&(o, c)| o < i && i < c) {
                raw.push((
                    fi,
                    "r7",
                    t.line,
                    format!(
                        "`{}` outside a loop — condvars wake spuriously, so the \
                         predicate must be re-checked in a `while` around the wait",
                        t.text
                    ),
                ));
            }
            if t.is_ident("wait_timeout") && !wait_timeout_consumed(ctx, i, span) {
                raw.push((
                    fi,
                    "r7",
                    t.line,
                    "`wait_timeout` result ignored — destructure the (guard, timed-out) \
                     pair and check the flag, or a timeout is indistinguishable from a \
                     wakeup"
                        .to_string(),
                ));
            }
        }
        // r7: notify must run under the paired guard.
        if is_method
            && (is_call(ctx, i, "notify_one") || is_call(ctx, i, "notify_all"))
            && guards.is_empty()
        {
            raw.push((
                fi,
                "r7",
                t.line,
                format!(
                    "`{}` with no live mutex guard — notify while holding the paired \
                     lock, or a waiter between its predicate check and its wait misses \
                     the wakeup",
                    t.text
                ),
            ));
        }
        // r8 (direct): blocking operations under a named guard.
        if !guards.is_empty() {
            let nullary_join = is_call(ctx, i, "join")
                && toks.get(i + 2).map(|t| t.is_punct(')')) == Some(true)
                && is_method;
            let blocking = BLOCKING_CALLS.contains(&t.text.as_str())
                && t.kind == TokKind::Ident
                && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true);
            if nullary_join || blocking {
                let held: Vec<usize> = guards.iter().map(|g| g.1).collect();
                raw.push((
                    fi,
                    "r8",
                    t.line,
                    format!(
                        "`{}()` while MutexGuard{} [{}] live — a blocked {} stalls every \
                         thread contending for the lock; drop the guard first",
                        t.text,
                        plural(held.len()),
                        held_labels(&held, nodes),
                        t.text,
                    ),
                ));
            }
        }
        let is_fn_decl = i >= 1 && toks[i - 1].is_ident("fn");
        // r8 (reactor path): a blocking call, guard or no guard.
        if reactor_path
            && t.kind == TokKind::Ident
            && REACTOR_BANNED.contains(&t.text.as_str())
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
            && !is_fn_decl
        {
            raw.push((
                fi,
                "r8",
                t.line,
                format!(
                    "`{}()` on the reactor path — no reactor thread ever blocks: park a \
                     continuation on the socket and resume on readiness (DESIGN.md §8), or \
                     justify with `// wcc-allow: r8 <reason>`",
                    t.text
                ),
            ));
        }
        // Candidate workspace call made under a guard (r6/r8 one-level
        // propagation). Uppercase initials are type constructors, not
        // calls; `fn name(` is a nested declaration.
        if t.kind == TokKind::Ident
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true)
            && !guards.is_empty()
            && !CALL_DENY.contains(&t.text.as_str())
            && !t.text.starts_with(char::is_uppercase)
            && !is_fn_decl
            && !t.is_ident("drop")
        {
            let held: Vec<usize> = guards.iter().map(|g| g.1).collect();
            info.guarded_calls.push((t.text.clone(), t.line, held));
        }
        // Direct blocking/IO, for callers that hold guards across us.
        if t.kind == TokKind::Ident && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true) {
            let nullary_join =
                t.is_ident("join") && toks.get(i + 2).map(|t| t.is_punct(')')) == Some(true);
            if IO_CALLS.contains(&t.text.as_str())
                || BLOCKING_CALLS.contains(&t.text.as_str())
                || nullary_join
            {
                info.blocks_or_does_io = true;
            }
        }
        i += 1;
    }
    info
}

/// Does the `let` initializer `toks[start..end)` leave a lock guard in
/// the binding? Returns the mutex field ident when it does: the last
/// `ident.lock()` at the statement's own depth, followed only by
/// `.unwrap()`-family adjusters or `?`. A longer method chain
/// (`.lock().peek(..)`) is a temporary — the guard dies at the `;`.
fn rhs_guard_identity(ctx: &FileCtx, start: usize, end: usize, bind_depth: u32) -> Option<String> {
    let toks = &ctx.tokens;
    // `let v = *m.lock();` copies the value out — the guard is a
    // temporary that dies at the `;`.
    if toks.get(start).map(|t| t.is_punct('*')) == Some(true) {
        return None;
    }
    let mut last: Option<(String, usize)> = None; // (field ident, close paren idx)
    let mut i = start;
    while i < end {
        if ctx.depth[i] == bind_depth
            && is_call(ctx, i, "lock")
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
        {
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
            last = Some((toks[i - 2].text.clone(), j));
        }
        i += 1;
    }
    let (ident, mut i) = last?;
    i += 1;
    const ADJUSTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];
    while i < end {
        if toks[i].is_punct('?') {
            i += 1;
            continue;
        }
        if !toks[i].is_punct('.') {
            return None;
        }
        match toks.get(i + 1) {
            Some(t) if t.kind == TokKind::Ident && ADJUSTERS.contains(&t.text.as_str()) => {}
            _ => return None,
        }
        let mut j = i + 2;
        if toks.get(j).map(|t| t.is_punct('(')) != Some(true) {
            return None;
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
    Some(ident)
}

/// Is the `wait_timeout` call at token `i` part of a statement that
/// consumes its result? `let (g, timed_out) = ..`, an `=` assignment,
/// a surrounding `match`/`if`/`return`/`while`, or method/`?` chaining
/// all count; a bare expression statement discards the timed-out flag.
fn wait_timeout_consumed(ctx: &FileCtx, i: usize, span: &FnSpan) -> bool {
    let toks = &ctx.tokens;
    // Backward to the statement start.
    let mut j = i;
    while j > span.body_open {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_punct('=')
            || t.is_ident("let")
            || t.is_ident("match")
            || t.is_ident("if")
            || t.is_ident("while")
            || t.is_ident("return")
        {
            return true;
        }
    }
    // Forward past the call's argument list: chaining consumes too.
    let mut p = 0i32;
    let mut k = i + 1;
    while k < span.body_close {
        if toks[k].is_punct('(') {
            p += 1;
        } else if toks[k].is_punct(')') {
            p -= 1;
            if p == 0 {
                break;
            }
        }
        k += 1;
    }
    matches!(
        toks.get(k + 1),
        Some(t) if t.is_punct('.') || t.is_punct('?')
    )
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

/// Strongly connected components (Tarjan), returned as a component id
/// per node. Edges in the same nontrivial component form cycles.
fn condense(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(from, to) in edges {
        adj[from].push(to);
    }
    struct State {
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        comp: Vec<usize>,
        ncomp: usize,
    }
    fn strongconnect(v: usize, adj: &[Vec<usize>], st: &mut State) {
        st.index[v] = Some(st.next);
        st.low[v] = st.next;
        st.next += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in &adj[v] {
            if st.index[w].is_none() {
                strongconnect(w, adj, st);
                st.low[v] = st.low[v].min(st.low[w]);
            } else if st.on_stack[w] {
                st.low[v] = st.low[v].min(st.index[w].unwrap_or(0));
            }
        }
        if Some(st.low[v]) == st.index[v] {
            while let Some(w) = st.stack.pop() {
                st.on_stack[w] = false;
                st.comp[w] = st.ncomp;
                if w == v {
                    break;
                }
            }
            st.ncomp += 1;
        }
    }
    let mut st = State {
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        comp: vec![0; n],
        ncomp: 0,
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(v, &adj, &mut st);
        }
    }
    st.comp
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
    fn r6_flags_declared_rank_inversion() {
        let src = r#"
// wcc-lock-rank: a.low 10
const A: u32 = 10;
// wcc-lock-rank: b.high 20
const B: u32 = 20;
fn bad(&self) {
    let hi = self.high.lock();
    let lo = self.low.lock();
}
"#;
        let hits = unsuppressed("crates/liveserve/src/x.rs", src);
        assert_eq!(
            hits.iter().filter(|f| f.rule == "r6").count(),
            1,
            "{hits:?}"
        );
        assert!(hits[0].message.contains("rank 10"));
    }

    #[test]
    fn r6_correct_order_is_clean() {
        let src = r#"
// wcc-lock-rank: a.low 10
const A: u32 = 10;
// wcc-lock-rank: b.high 20
const B: u32 = 20;
fn good(&self) {
    let lo = self.low.lock();
    let hi = self.high.lock();
}
"#;
        assert!(unsuppressed("crates/liveserve/src/x.rs", src).is_empty());
    }

    #[test]
    fn r6_cycle_through_helper_fn() {
        let src = r#"
fn a(&self) {
    let g = self.first.lock();
    self.helper();
}
fn helper(&self) {
    let h = self.second.lock();
}
fn b(&self) {
    let g = self.second.lock();
    let f = self.first.lock();
}
"#;
        let hits = unsuppressed("crates/liveserve/src/x.rs", src);
        // Both edges of the 2-cycle are reported.
        assert_eq!(
            hits.iter().filter(|f| f.rule == "r6").count(),
            2,
            "{hits:?}"
        );
        assert!(hits
            .iter()
            .any(|f| f.message.contains("via call to `helper()`")));
    }

    #[test]
    fn r6_malformed_and_duplicate_annotations() {
        let src = r#"
// wcc-lock-rank: only_name
const A: u32 = 1;
// wcc-lock-rank: x.y 5
const B: u32 = 5;
// wcc-lock-rank: x.y 6
const C: u32 = 6;
fn f() {}
"#;
        let hits = unsuppressed("crates/liveserve/src/x.rs", src);
        assert_eq!(
            hits.iter().filter(|f| f.rule == "r6").count(),
            2,
            "{hits:?}"
        );
    }

    #[test]
    fn r7_wait_needs_a_loop_and_notify_needs_a_guard() {
        let src = r#"
fn bad_wait(&self) {
    let g = self.inner.lock();
    let g = self.cond.wait(g);
}
fn bad_notify(&self) {
    {
        let mut g = self.inner.lock();
        *g = true;
    }
    self.cond.notify_all();
}
fn good(&self) {
    let mut g = self.inner.lock();
    while !*g {
        g = self.cond.wait(g);
    }
    self.cond.notify_one(&g);
}
"#;
        let hits = unsuppressed("crates/liveserve/src/x.rs", src);
        assert_eq!(
            hits.iter().filter(|f| f.rule == "r7").count(),
            2,
            "{hits:?}"
        );
    }

    #[test]
    fn r7_unchecked_wait_timeout() {
        let src = r#"
fn bad(&self) {
    let g = self.inner.lock();
    loop {
        self.cond.wait_timeout(g, timeout);
    }
}
fn good(&self) {
    let g = self.inner.lock();
    loop {
        let (g2, timed_out) = self.cond.wait_timeout(g, timeout);
    }
}
"#;
        let hits = unsuppressed("crates/liveserve/src/x.rs", src);
        assert_eq!(
            hits.iter().filter(|f| f.rule == "r7").count(),
            1,
            "{hits:?}"
        );
        assert!(hits[0].message.contains("result ignored"));
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
    fn r8_bans_blocking_calls_on_the_reactor_path_only() {
        let src = r#"
fn dial(&self) {
    let s = TcpStream::connect(self.addr);
    self.stream.write_all(b"x");
    self.cond.wait_timeout(g, TICK);
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
