//! Harness-side spans.
//!
//! The traced run wraps every call the harness makes into a layer —
//! `generate`, `spawn`, `advance_to`, `write_request`, `read_response`,
//! one span per simulation leg — in a span: name, start, end, the span
//! that caused it, and the request it belongs to. Spans live in memory
//! in a compact form and are written out when the run ends. Spans
//! *inside* `liveserve` / `webcache` are a later change; this file is
//! the benchmark's own.
//!
//! An untraced run goes through the same call sites with the tracer
//! off, which costs one predictable branch per site.

use std::time::Instant;

use crate::json::Json;

/// "No parent" / "no request" marker in a stored span.
const NONE: u32 = u32::MAX;

/// How many spans the trace file lists one by one. The per-name totals
/// always cover every span; the listing is a readable prefix (set-up,
/// warm-up and the first few thousand requests), not tens of megabytes.
const LISTED_SPANS: usize = 40_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotals {
    /// Span name.
    pub name: &'static str,
    /// How many spans carried the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A tracer that records every span.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Open a span under the innermost open one. Pair with
    /// [`Tracer::exit`]; prefer [`Tracer::span`] where a closure fits.
    pub fn enter(&mut self, name: &'static str, request: Option<u32>) {
        if !self.on {
            return;
        }
        let name = self.name_id(name);
        let parent = self.open.last().copied().unwrap_or(NONE);
        // A span inherits its parent's request id unless it names one.
        let request =
            request.unwrap_or_else(|| self.spans.get(parent as usize).map_or(NONE, |p| p.request));
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.enter(name, None);
        let out = f();
        self.exit();
        out
    }

    /// Number of spans recorded.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name, in first-seen order.
    pub fn totals(&self) -> Vec<SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: Vec<SpanTotals> = self
            .names
            .iter()
            .map(|name| SpanTotals {
                name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            })
            .collect();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = &mut totals[s.name as usize];
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*covered);
        }
        totals
    }

    /// The totals for one name, if any span carried it.
    #[cfg(test)]
    pub fn total_for(&self, name: &str) -> Option<SpanTotals> {
        self.totals().into_iter().find(|t| t.name == name)
    }

    /// Summed duration, nanoseconds, of the spans called `name` that lie
    /// (at any depth) under a span called `under` — `advance_to` under
    /// `epoch`, say, leaving the warm-up's out.
    pub fn total_ns_under(&self, name: &str, under: &str) -> u64 {
        let id_of = |n: &str| self.names.iter().position(|x| *x == n).map(|i| i as u16);
        let (Some(name), Some(under)) = (id_of(name), id_of(under)) else {
            return 0;
        };
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                let mut at = s.parent;
                while let Some(parent) = self.spans.get(at as usize) {
                    if parent.name == under {
                        return true;
                    }
                    at = parent.parent;
                }
                false
            })
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The trace as a JSON document: per-name totals over all spans and
    /// the first [`LISTED_SPANS`] spans one by one (`id` is the index,
    /// `parent` and `request` are `null` where there is none, times are
    /// nanoseconds from the tracer's creation).
    pub fn to_json(&self, workload: &str) -> Json {
        let totals: Vec<Json> = self
            .totals()
            .into_iter()
            .map(|t| {
                Json::obj()
                    .set("name", t.name)
                    .set("count", t.count)
                    .set("total_ns", t.total_ns)
                    .set("self_ns", t.self_ns)
            })
            .collect();
        let opt = |v: u32| {
            if v == NONE {
                Json::Null
            } else {
                Json::from(u64::from(v))
            }
        };
        let listed: Vec<Json> = self
            .spans
            .iter()
            .take(LISTED_SPANS)
            .enumerate()
            .map(|(id, s)| {
                Json::obj()
                    .set("id", id)
                    .set("name", self.names[s.name as usize])
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("parent", opt(s.parent))
                    .set("request", opt(s.request))
            })
            .collect();
        Json::obj()
            .set("workload", workload)
            .set("spans_recorded", self.spans.len())
            .set("spans_listed", listed.len())
            .set("totals", Json::Arr(totals))
            .set("spans", Json::Arr(listed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::on();
        t.enter("request", Some(7));
        t.span("write_request", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("read_response", || ());
        t.exit();
        assert_eq!(t.len(), 3);
        let req = t.total_for("request").unwrap();
        let write = t.total_for("write_request").unwrap();
        assert_eq!(req.count, 1);
        assert!(write.total_ns >= 2_000_000);
        assert!(req.total_ns >= write.total_ns);
        assert!(req.self_ns <= req.total_ns - write.total_ns);
        assert_eq!(t.total_ns_under("write_request", "request"), write.total_ns);
        assert_eq!(t.total_ns_under("write_request", "read_response"), 0);
        // Children inherit the request id.
        let doc = t.to_json("x");
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans[1].get("request").and_then(Json::as_f64), Some(7.0));
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", || 5), 5);
        t.enter("y", None);
        t.exit();
        assert_eq!(t.len(), 0);
        assert!(!t.is_on());
    }
}
