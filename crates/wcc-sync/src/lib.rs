//! Rank-checked synchronization primitives for the live stack.
//!
//! Every mutex in liveserve / wcc-load / wcc-obs carries a *rank* — a
//! position in the single global lock order that `wcc-analyze` rule r6
//! verifies statically (see DESIGN.md §12 for the rank table). This
//! crate is the runtime half of that contract:
//!
//! * [`RankedMutex`] wraps `std::sync::Mutex` and, **under
//!   `debug_assertions` only**, maintains a thread-local stack of held
//!   ranks. Acquiring a lock whose rank is not strictly greater than
//!   every rank already held panics immediately — turning a potential
//!   deadlock (which would wedge a soak run for its full timeout) into
//!   a unit-testable assertion with both lock names in the message.
//! * [`RankedCondvar`] pairs with a `RankedMutex` and makes the PR-8
//!   lost-wakeup bug *structurally* impossible: `notify_one` /
//!   `notify_all` require a live [`RankedGuard`], so a notification can
//!   never race a predicate check under the paired mutex.
//!
//! Release builds compile the rank bookkeeping away entirely; what
//! remains is a plain mutex plus one relaxed atomic add on the
//! contended path. Contention is counted per lock
//! ([`RankedMutex::contended_count`]) and exposed per acquisition
//! ([`RankedGuard::was_contended`]) so call sites that own a probe can
//! surface `LockContended` observability events without this crate
//! depending on `wcc-obs`.
//!
//! Poisoning is recovered in place (`PoisonError::into_inner`): every
//! ranked mutex guards plain bookkeeping that is consistent between
//! statements, so a poisoned lock means "another worker died", not
//! "the data is torn".

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

#[cfg(debug_assertions)]
mod rank_stack {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks (and names, for diagnostics) of every ranked lock this
        /// thread currently holds, in acquisition order. Strictly
        /// increasing by construction; guards may be dropped out of
        /// order, so release removes by value from the back.
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// Panic if acquiring `(rank, name)` would violate the global lock
    /// order, otherwise push it. Called *before* blocking on the mutex
    /// so an inversion becomes a loud panic instead of a quiet deadlock.
    pub(crate) fn acquire(rank: u32, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top, top_name)) = held.last() {
                assert!(
                    rank > top,
                    "lock rank inversion: acquiring {name} (rank {rank}) while holding \
                     {top_name} (rank {top}); see the rank table in DESIGN.md §12"
                );
            }
            held.push((rank, name));
        });
    }

    /// Remove the most recent entry for `rank`. Guards may be dropped
    /// in any order, so this searches from the back instead of assuming
    /// LIFO.
    pub(crate) fn release(rank: u32) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let idx = held
                .iter()
                .rposition(|&(r, _)| r == rank)
                .expect("released a ranked guard this thread does not hold");
            held.remove(idx);
        });
    }
}

/// A `std::sync::Mutex` bound to a position in the global lock order.
///
/// `rank` and `name` must match a `// wcc-lock-rank: <name> <rank>`
/// annotation next to the field declaration; `wcc-analyze` r6 checks
/// the static acquisition graph against the same table the debug
/// runtime enforces.
#[derive(Debug)]
pub struct RankedMutex<T> {
    rank: u32,
    name: &'static str,
    contended: AtomicU64,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Wrap `value` at position `rank` in the global lock order.
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        RankedMutex {
            rank,
            name,
            contended: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// Acquire the lock, recovering from poisoning. Panics in debug
    /// builds if a lock of equal or higher rank is already held by this
    /// thread.
    pub fn lock(&self) -> RankedGuard<'_, T> {
        #[cfg(debug_assertions)]
        rank_stack::acquire(self.rank, self.name);
        let (guard, was_contended) = match self.inner.try_lock() {
            Ok(g) => (g, false),
            Err(std::sync::TryLockError::Poisoned(e)) => (e.into_inner(), false),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                (
                    self.inner.lock().unwrap_or_else(PoisonError::into_inner),
                    true,
                )
            }
        };
        RankedGuard {
            lock: self,
            inner: Some(guard),
            was_contended,
        }
    }

    /// This lock's position in the global order.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The annotated lock name (diagnostics and observability labels).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// How many acquisitions found the lock already held (cumulative,
    /// all threads).
    pub fn contended_count(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

/// The guard returned by [`RankedMutex::lock`]. Dropping it releases
/// the mutex and (in debug builds) pops the rank from the thread-local
/// held stack.
#[derive(Debug)]
pub struct RankedGuard<'a, T> {
    lock: &'a RankedMutex<T>,
    /// `Some` for the guard's whole life; only [`RankedCondvar`] takes
    /// it out (to hand the raw guard to `Condvar::wait`) and puts a
    /// fresh one back before the `RankedGuard` is seen again.
    inner: Option<MutexGuard<'a, T>>,
    was_contended: bool,
}

impl<T> RankedGuard<'_, T> {
    /// Whether this particular acquisition had to wait for another
    /// holder. Call sites that own a probe use this to emit
    /// `LockContended` events on the slow path only.
    pub fn was_contended(&self) -> bool {
        self.was_contended
    }

    /// Rank of the mutex this guard holds.
    pub fn rank(&self) -> u32 {
        self.lock.rank
    }
}

impl<T> Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        // Release the OS mutex before un-recording the rank, so another
        // thread's acquire never observes the rank still "held" here.
        self.inner = None;
        #[cfg(debug_assertions)]
        rank_stack::release(self.lock.rank);
    }
}

/// A condition variable paired with a [`RankedMutex`].
///
/// Notifications *require* a live guard of the paired mutex, which
/// makes the notify-after-unlock lost-wakeup race (PR 8) unwritable:
/// the waiter's predicate check and the notifier's state change are
/// forced under the same critical section.
#[derive(Debug, Default)]
pub struct RankedCondvar {
    inner: Condvar,
}

impl RankedCondvar {
    /// A new condvar; pair it with exactly one [`RankedMutex`].
    pub const fn new() -> Self {
        RankedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Block until notified, releasing `guard` while parked. The rank
    /// is popped for the duration of the wait (the mutex really is
    /// unlocked) and re-checked on re-acquisition.
    pub fn wait<'a, T>(&self, mut guard: RankedGuard<'a, T>) -> RankedGuard<'a, T> {
        let raw = guard.inner.take().expect("guard present outside wait");
        #[cfg(debug_assertions)]
        rank_stack::release(guard.lock.rank);
        let raw = self.inner.wait(raw).unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        rank_stack::acquire(guard.lock.rank, guard.lock.name);
        guard.inner = Some(raw);
        guard
    }

    /// Block until notified or `timeout` elapses; the boolean is `true`
    /// when the wait timed out. Callers must consume it (`wcc-analyze`
    /// r7 flags a discarded `wait_timeout` result).
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: RankedGuard<'a, T>,
        timeout: Duration,
    ) -> (RankedGuard<'a, T>, bool) {
        let raw = guard.inner.take().expect("guard present outside wait");
        #[cfg(debug_assertions)]
        rank_stack::release(guard.lock.rank);
        let (raw, result) = self
            .inner
            .wait_timeout(raw, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        rank_stack::acquire(guard.lock.rank, guard.lock.name);
        guard.inner = Some(raw);
        (guard, result.timed_out())
    }

    /// Wake one waiter. The guard proves the paired mutex is held, so
    /// the state change this notification advertises is visible before
    /// any waiter re-checks its predicate.
    pub fn notify_one<T>(&self, _held: &RankedGuard<'_, T>) {
        self.inner.notify_one();
    }

    /// Wake every waiter (see [`RankedCondvar::notify_one`]).
    pub fn notify_all<T>(&self, _held: &RankedGuard<'_, T>) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_round_trips_data() {
        let m = RankedMutex::new(10, "test.a", 41u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.rank(), 10);
        assert_eq!(m.name(), "test.a");
    }

    #[test]
    fn in_order_acquisition_is_silent() {
        let a = RankedMutex::new(10, "test.low", ());
        let b = RankedMutex::new(20, "test.high", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
        // Out-of-order *release* is fine too; only acquisition order is
        // constrained.
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        drop(gb);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inverted_acquisition_panics_in_debug() {
        let result = thread::spawn(|| {
            let low = RankedMutex::new(10, "test.low", ());
            let high = RankedMutex::new(20, "test.high", ());
            let _gh = high.lock();
            let _gl = low.lock(); // 10 while holding 20: inversion
        })
        .join();
        let err = result.expect_err("inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock rank inversion"), "got: {msg}");
        assert!(msg.contains("test.low") && msg.contains("test.high"));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn equal_rank_reacquisition_panics_in_debug() {
        let result = thread::spawn(|| {
            let a = RankedMutex::new(10, "test.a", ());
            let b = RankedMutex::new(10, "test.b", ());
            let _ga = a.lock();
            let _gb = b.lock(); // equal rank: order between them undefined
        })
        .join();
        assert!(result.is_err(), "equal-rank nesting must panic");
    }

    #[test]
    fn contention_is_counted() {
        let m = Arc::new(RankedMutex::new(10, "test.contended", 0u32));
        let m2 = Arc::clone(&m);
        let held = m.lock();
        let waiter = thread::spawn(move || {
            let g = m2.lock();
            assert!(g.was_contended());
        });
        // Give the waiter time to hit the contended path, then release.
        thread::sleep(Duration::from_millis(20));
        drop(held);
        waiter.join().expect("waiter survives");
        assert!(m.contended_count() >= 1);
        assert!(!m.lock().was_contended());
    }

    #[test]
    fn condvar_wakes_waiter_and_rechecks_predicate() {
        let m = Arc::new(RankedMutex::new(10, "test.cv", false));
        let cv = Arc::new(RankedCondvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = thread::spawn(move || {
            let mut ready = m2.lock();
            while !*ready {
                let (guard, _timed_out) = cv2.wait_timeout(ready, Duration::from_millis(50));
                ready = guard;
            }
        });
        {
            let mut ready = m.lock();
            *ready = true;
            cv.notify_all(&ready); // notify while the guard is live
        }
        waiter.join().expect("waiter wakes");
    }

    #[test]
    fn wait_releases_the_rank_for_other_acquisitions() {
        // While parked in wait(), the thread holds nothing: another
        // thread can take the same mutex, flip the flag, and notify.
        let m = Arc::new(RankedMutex::new(10, "test.park", 0u32));
        let cv = Arc::new(RankedCondvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = thread::spawn(move || {
            let mut g = m2.lock();
            while *g == 0 {
                g = cv2.wait(g);
            }
            *g
        });
        thread::sleep(Duration::from_millis(10));
        {
            let mut g = m.lock();
            *g = 7;
            cv.notify_one(&g);
        }
        assert_eq!(waiter.join().expect("waiter returns"), 7);
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Arc::new(RankedMutex::new(10, "test.poison", 5u32));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 5);
        *m.lock() = 6;
        assert_eq!(*m.lock(), 6);
    }
}
