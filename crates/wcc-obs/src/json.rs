//! The workspace's one JSON writer.
//!
//! The workspace has no serialisation crate (the build environment has
//! no registry access), so every JSON line it prints — trace events,
//! capture headers, load reports, `--smoke` verdicts, the invariant
//! linter's report — is built member by member with [`JsonObj`]: string,
//! integer, boolean and float members, nested objects and arrays passed
//! in already rendered, keys in the order they are added.

use std::fmt::Write as _;

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
        quote_into(&mut self.buf, name);
        self.buf.push(':');
    }

    /// A string member (escaped).
    pub fn str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        quote_into(&mut self.buf, value);
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

    /// A member whose value is already-rendered JSON: a nested object,
    /// an array, or `null`.
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

/// Append `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
fn quote_into(out: &mut String, s: &str) {
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
        let quote = |s| {
            let mut out = String::new();
            quote_into(&mut out, s);
            out
        };
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quote("\r\t\u{1}\u{1f} é"), r#""\r\t\u0001\u001f é""#);
        let keyed = JsonObj::new().str("k\"ey", "v\\al").finish();
        assert_eq!(keyed, r#"{"k\"ey":"v\\al"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonObj::new().f64("x", f64::NAN).finish(), r#"{"x":null}"#);
    }
}
