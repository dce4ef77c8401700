//! The parallel sweep executor.
//!
//! Every experiment in this repo has the same outer shape: one immutable
//! [`crate::workload::Workload`] replayed under many independent protocol
//! configurations — the paper's Alex-threshold and TTL sweeps. The points
//! are embarrassingly parallel (each `sim::run` owns its cache, server
//! counters, and policy state; the workload is shared read-only behind an
//! `Arc`), so [`SweepRunner::map`] fans them out over a small worker pool.
//!
//! **Determinism.** Each simulation run is a pure function of its inputs,
//! and `map` writes every worker's result into the slot indexed by its
//! input's position, so the returned vector is byte-for-byte identical to
//! the sequential loop's regardless of worker count or OS scheduling. Only
//! the *completion order* varies; the *collection order* never does. The
//! `parallel_sweep_matches_sequential` regression test in `tests/` holds
//! this invariant for every protocol family.
//!
//! The pool is built on `std::thread::scope` rather than a work-stealing
//! runtime: scoped threads may borrow the point slice and the shared
//! workload directly (no `'static` bound, no cloning into the closure),
//! and a sweep of a few dozen long-running points has no use for work
//! stealing — a shared atomic cursor balances the tail just as well.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Executes independent sweep points, optionally in parallel.
///
/// The runner is cheap to construct and holds no threads between calls;
/// each [`map`](SweepRunner::map) call spins up (at most) `jobs` scoped
/// workers and joins them before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with `jobs` workers. `0` means "use the machine": the
    /// available hardware parallelism, as many workers as sweep points at
    /// most.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            thread::available_parallelism().map_or(1, usize::from)
        } else {
            jobs
        };
        SweepRunner { jobs }
    }

    /// A single-threaded runner: `map` degenerates to a plain `for` loop
    /// on the calling thread (no pool, no locks).
    pub fn sequential() -> Self {
        SweepRunner { jobs: 1 }
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every point, returning results in *point order* —
    /// exactly what `points.iter().map(&f).collect()` returns, computed on
    /// up to [`jobs`](SweepRunner::jobs) threads.
    ///
    /// Workers pull indices from a shared cursor, so long and short points
    /// mix freely without idling the pool. A panic in `f` propagates to
    /// the caller once the scope joins.
    pub fn map<P, R, F>(&self, points: &[P], f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        if self.jobs <= 1 || points.len() <= 1 {
            return points
                .iter()
                .map(|p| {
                    let _span = wcc_obs::profile::global().job(0);
                    f(p)
                })
                .collect();
        }
        let slots: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let (slots_ref, cursor_ref, f_ref) = (&slots, &cursor, &f);
        thread::scope(|scope| {
            for worker in 0..self.jobs.min(points.len()) {
                scope.spawn(move || loop {
                    let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                    let Some(point) = points.get(i) else { break };
                    // Inert unless `wcc metrics` enabled the profiler;
                    // attributes this point's wall time to this worker.
                    let _span = wcc_obs::profile::global().job(worker);
                    let result = f_ref(point);
                    *slots_ref[i].lock().expect("sweep slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep slot poisoned")
                    .expect("every slot filled by a worker")
            })
            .collect()
    }

    /// Run two independent closures, in parallel when the runner has more
    /// than one worker, and return both results.
    pub fn join<A, B, FA, FB>(&self, fa: FA, fb: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        if self.jobs <= 1 {
            return (fa(), fb());
        }
        thread::scope(|scope| {
            let b = scope.spawn(fb);
            let a = fa();
            (a, b.join().expect("join arm panicked"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zero_jobs_resolves_to_hardware_parallelism() {
        assert!(SweepRunner::new(0).jobs() >= 1);
        assert_eq!(SweepRunner::new(3).jobs(), 3);
        assert_eq!(SweepRunner::sequential().jobs(), 1);
    }

    #[test]
    fn map_preserves_point_order() {
        let points: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = points.iter().map(|p| p * p).collect();
        for jobs in [1, 2, 4, 16] {
            let got = SweepRunner::new(jobs).map(&points, |&p| p * p);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn map_runs_every_point_exactly_once() {
        let calls = AtomicU64::new(0);
        let points: Vec<usize> = (0..37).collect();
        let results = SweepRunner::new(4).map(&points, |&p| {
            calls.fetch_add(1, Ordering::Relaxed);
            p
        });
        assert_eq!(calls.load(Ordering::Relaxed), 37);
        assert_eq!(results, points);
    }

    #[test]
    fn map_borrows_shared_state_without_cloning() {
        // The closure reads caller-local state by reference — the property
        // the sweep drivers rely on to share one workload across points.
        let shared = [10u64, 20, 30];
        let runner = SweepRunner::new(2);
        let sums = runner.map(&[0usize, 1, 2], |&i| shared[i] + 1);
        assert_eq!(sums, vec![11, 21, 31]);
    }

    #[test]
    fn map_handles_more_workers_than_points() {
        let got = SweepRunner::new(64).map(&[1u64, 2], |&p| p);
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn join_returns_both_results() {
        for jobs in [1, 4] {
            let (a, b) = SweepRunner::new(jobs).join(|| 6 * 7, || "ok");
            assert_eq!((a, b), (42, "ok"));
        }
    }

    // `thread::scope` re-raises worker panics with its own payload, so the
    // expectation matches the scope's message rather than the point's.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panics_propagate() {
        SweepRunner::new(2).map(&[1, 2, 3], |&p| {
            if p == 2 {
                panic!("sweep point panicked");
            }
            p
        });
    }
}
