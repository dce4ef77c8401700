// wcc-fixture-path: crates/liveserve/src/bad_send.rs
//! Known-bad: a channel send — or receive — while a state guard is
//! live. If the channel is full (or the other end is slow), every
//! thread contending for `state` stalls behind this one.

use std::sync::{mpsc, Mutex};

struct S {
    state: Mutex<u32>,
    tx: mpsc::SyncSender<u32>,
    acked: mpsc::Receiver<()>,
}

impl S {
    fn publish(&self) {
        let st = self.state.lock().unwrap();
        self.tx.send(*st).ok(); //~ r8
        drop(st);
    }

    fn publish_and_wait(&self) {
        let st = self.state.lock().unwrap();
        let _ = self.acked.recv(); //~ r8
        drop(st);
    }
}
