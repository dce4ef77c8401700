// wcc-fixture-path: crates/wcc-obs/src/bad_export.rs
//! Known-bad: a probe exporting its trace while still holding the ring
//! lock. Recording under a lock is fine (pure memory); export IO must
//! happen on a snapshot taken *after* the guard is released, or every
//! thread sharing the probe stalls behind one slow writer.

use std::io::Write;
use std::sync::Mutex;

struct SharedTrace {
    ring: Mutex<Vec<String>>,
}

fn export_under_ring_lock(trace: &SharedTrace, sink: &mut dyn Write) {
    let ring = trace.ring.lock().unwrap();
    for line in ring.iter() {
        sink.write_all(line.as_bytes()).unwrap(); //~ r8
    }
    sink.flush().unwrap(); //~ r8
}

fn snapshot_then_export(trace: &SharedTrace, sink: &mut dyn Write) {
    let snapshot = {
        let ring = trace.ring.lock().unwrap();
        ring.clone()
    };
    for line in &snapshot {
        sink.write_all(line.as_bytes()).unwrap(); // fine: lock released
    }
    sink.flush().unwrap(); // fine
}
