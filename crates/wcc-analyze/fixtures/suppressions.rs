// wcc-fixture-path: crates/liveserve/src/bad_suppress.rs
//! Suppression hygiene: justified `wcc-allow` directives silence their
//! findings; a reasonless or unknown-rule directive is itself flagged.

use std::net::TcpListener;
use std::sync::mpsc;

fn justified(listener: TcpListener) {
    // wcc-allow: r5 command channel is strict request/reply, one message in flight
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    loop {
        match listener.accept() {
            // wcc-allow: r5 caller reaps finished handles after every tick
            Ok((s, _)) => handles.push(s),
            Err(_) => break,
        }
    }
    drop((tx, rx, handles));
}

// wcc-allow: r4
//~^ allow
fn reasonless_directive_is_flagged() {}

// wcc-allow: r99 there is no rule ninety-nine
//~^ allow
fn unknown_rule_is_flagged() {}
