//! Minimal JSON emission for load reports, plus the schema fragments
//! shared between the closed-loop and open-loop generators.
//!
//! The workspace has no serialisation crate (the build environment has
//! no registry access), so reports build their JSON by hand: objects
//! with string / integer / float / nested-object members, with proper
//! string escaping.
//!
//! Both load generators emit the same `"rates"` and `"latency"`
//! sub-objects through [`rates_json`] and [`latency_json`], so one
//! consumer can parse either report: a closed-loop run is simply the
//! degenerate case where offered equals achieved and nothing drops.

use std::fmt::Write as _;

use simcore::LatencyStats;

/// Incrementally built JSON object.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    /// An empty object (`{}` until members are added).
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write!(self.buf, "{}:", quote(name)).expect("string formatting is infallible");
    }

    /// A string member (escaped).
    pub fn str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(&quote(value));
        self
    }

    /// An unsigned integer member.
    pub fn u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        write!(self.buf, "{value}").expect("string formatting is infallible");
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        write!(self.buf, "{value}").expect("string formatting is infallible");
        self
    }

    /// A float member, emitted with enough precision for timings and
    /// rates. Non-finite values (never expected) become `null`.
    pub fn f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        if value.is_finite() {
            write!(self.buf, "{value:.6}").expect("string formatting is infallible");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// A nested object member from an already-rendered JSON string.
    pub fn raw(&mut self, name: &str, rendered: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(rendered);
        self
    }

    /// Close the object and return the rendered JSON.
    pub fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.buf);
        out.push('}');
        out
    }
}

/// JSON string literal with escaping for quotes, backslashes, and
/// control characters.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("string formatting is infallible")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The shared `"rates"` object: offered vs. achieved request rate plus
/// the drop accounting that explains any gap between them.
///
/// * `offered_rps` — arrival rate the generator *scheduled* (for a
///   closed-loop run this equals the achieved rate by construction);
/// * `achieved_rps` — completed-response rate actually measured;
/// * `drops.queue_full` — arrivals shed because the bounded pending
///   queue was full (the system fell behind the schedule);
/// * `drops.timeout` — arrivals abandoned after waiting longer than the
///   queue-delay budget.
pub fn rates_json(
    offered_rps: f64,
    achieved_rps: f64,
    dropped_queue_full: u64,
    dropped_timeout: u64,
) -> String {
    let drops = JsonObj::new()
        .u64("queue_full", dropped_queue_full)
        .u64("timeout", dropped_timeout)
        .finish();
    JsonObj::new()
        .f64("offered_rps", offered_rps)
        .f64("achieved_rps", achieved_rps)
        .raw("drops", &drops)
        .finish()
}

/// The shared `"latency"`-shaped object for one [`LatencyStats`]:
/// sample/drop counts always, percentiles and mean only when at least
/// one sample was recorded.
pub fn latency_json(stats: &LatencyStats) -> String {
    let mut obj = JsonObj::new();
    obj.u64("samples", stats.count());
    obj.u64("dropped", stats.dropped());
    if let (Some(p50), Some(p99), Some(p999), Some(mean)) = (
        stats.p50_ns(),
        stats.p99_ns(),
        stats.p999_ns(),
        stats.mean_ns(),
    ) {
        obj.u64("p50_ns", p50)
            .u64("p99_ns", p99)
            .u64("p999_ns", p999)
            .f64("mean_ns", mean);
    }
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_objects() {
        let inner = JsonObj::new().u64("a", 1).u64("b", 2).finish();
        let outer = JsonObj::new()
            .str("name", "x")
            .bool("ok", true)
            .f64("rate", 0.5)
            .raw("inner", &inner)
            .finish();
        assert_eq!(
            outer,
            r#"{"name":"x","ok":true,"rate":0.500000,"inner":{"a":1,"b":2}}"#
        );
    }

    #[test]
    fn empty_object_is_braces() {
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonObj::new().f64("x", f64::NAN).finish(), r#"{"x":null}"#);
    }

    #[test]
    fn rates_object_has_the_shared_schema() {
        let json = rates_json(1000.0, 750.5, 40, 2);
        assert_eq!(
            json,
            "{\"offered_rps\":1000.000000,\"achieved_rps\":750.500000,\
             \"drops\":{\"queue_full\":40,\"timeout\":2}}"
        );
    }

    #[test]
    fn latency_object_skips_percentiles_when_empty() {
        let empty = LatencyStats::new();
        assert_eq!(latency_json(&empty), r#"{"samples":0,"dropped":0}"#);
        let mut some = LatencyStats::new();
        some.record_ns(1_000);
        let json = latency_json(&some);
        assert!(json.contains("\"samples\":1"));
        assert!(json.contains("\"p999_ns\":"));
    }
}
