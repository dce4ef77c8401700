// wcc-fixture-path: crates/liveserve/src/bad_reactor.rs
//! Known-bad: holding a guard across `epoll_wait`. The reactor's event
//! loop blocks in `epoll_wait` for up to a full poll tick; a completion
//! or shard guard held across that wait stalls every dispatch worker
//! trying to deliver into the queue. Completions must be drained in a
//! scope that closes before the loop re-enters the wait.

use std::sync::Mutex;

struct Epoll;
struct EpollEvent;

impl Epoll {
    fn epoll_wait(&self, _events: &mut [EpollEvent], _timeout_ms: i32) -> usize {
        0
    }
}

fn wait_with_completion_guard(ep: &Epoll, completions: &Mutex<Vec<u32>>) {
    let mut events: Vec<EpollEvent> = Vec::new();
    let queue = completions.lock().unwrap();
    let n = ep.epoll_wait(&mut events, 25); //~ r8
    drop(queue);
    let _ = n;
}

fn wait_inside_live_guard_range(ep: &Epoll, state: &Mutex<u32>) {
    let mut events: Vec<EpollEvent> = Vec::new();
    let guard = state.lock().unwrap();
    let snapshot = *guard;
    ep.epoll_wait(&mut events, 25); //~ r8
    let _ = (snapshot, guard);
}

fn drain_then_wait_is_fine(ep: &Epoll, completions: &Mutex<Vec<u32>>) {
    let mut events: Vec<EpollEvent> = Vec::new();
    let drained = {
        let mut queue = completions.lock().unwrap();
        std::mem::take(&mut *queue)
    };
    let _ = drained;
    ep.epoll_wait(&mut events, 25); // fine: the guard's block closed above
}
