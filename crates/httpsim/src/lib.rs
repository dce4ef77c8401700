//! `httpsim` — an HTTP/1.0 subset with wire-accurate byte accounting.
//!
//! The consistency protocols of Gwertzman & Seltzer (USENIX '96) are all
//! expressible in four HTTP/1.0 interactions: unconditional `GET`,
//! conditional `GET` with `If-Modified-Since`, `200 OK` with
//! `Last-Modified`/`Expires`, and `304 Not Modified`. This crate models
//! those messages as real wire-format text (serialisable and parseable),
//! plus RFC 1123 date handling and the bandwidth [`MessageCosting`] models
//! (the paper's flat 43-byte message versus exact serialised sizes).
//!
//! **The codec works on bytes.** The paper's case for polling is that a
//! validation is a cheap small message; a live hop writes and parses one
//! per direction, so the codec is that hop's fixed cost. Heads are
//! written as static fragments, the 29 fixed bytes of a date
//! ([`HttpDate::rfc1123`]) and decimal digits — no `core::fmt`, which
//! cost more per message than the `write` that followed it — and parsed
//! by scanning for `\n`, `:` and space, not by substring search. Dates
//! are parsed fixed-width first; whatever is not exactly the fixed
//! layout falls back to the lenient field-by-field parser, which alone
//! defines the accepted language and every error message. The `fmt` and
//! `split` implementations this replaced are kept under `#[cfg(test)]`
//! as the models the byte-level ones are property-tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod date;
mod message;

pub use cost::{MessageCosting, PAPER_MESSAGE_BYTES};
pub use date::{DateParseError, HttpDate, EPOCH_1996};
pub use message::{header_section_end, Method, ParseError, Request, Response, Status};
