// wcc-fixture-path: crates/liveserve/src/bad_lock.rs
//! Known-bad: socket IO inside the live scope of a MutexGuard binding —
//! the §8 invariant violation. Scoped and dropped guards are fine.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

fn hold_lock_across_io(m: &Mutex<u32>, s: &mut TcpStream) {
    let guard = m.lock().unwrap();
    s.write_all(b"payload").unwrap(); //~ r8
    drop(guard);
    s.flush().unwrap(); // fine: guard dropped above
}

fn scoped_guard_is_fine(m: &Mutex<Vec<u8>>, s: &mut TcpStream) {
    let payload = {
        let g = m.lock().unwrap();
        g.clone()
    };
    s.write_all(&payload).unwrap(); // fine: guard confined to the block
}

fn temporary_chain_is_not_a_binding(m: &Mutex<Vec<u8>>, s: &mut TcpStream) {
    let empty = m.lock().unwrap().is_empty();
    if !empty {
        s.flush().unwrap(); // fine: the guard died at the end of the let
    }
}
