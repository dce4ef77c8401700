//! The open-loop driver: fire scheduled shots at the live stack and
//! never let the stack's speed push back on the schedule.
//!
//! A single pacer thread walks the shot sequence on the wall clock —
//! sleep until each shot's deadline, advance the stack's virtual clock
//! to the shot's instant (publishing any scripted modifications due),
//! then *try* to hand the shot to a worker through a bounded pending
//! queue. If the queue is full the shot is shed and counted, never
//! blocked on: arrivals keep their schedule no matter how slow the
//! stack is, which is exactly the property that makes offered load and
//! achieved load separate, honest numbers.
//!
//! Worker threads own one proxy connection each, drain the queue, and
//! apply the second shedding point: a shot that waited in the queue
//! longer than the timeout budget is dropped at dequeue (its latency
//! would no longer measure the stack, just the backlog). Completed
//! shots record two latencies:
//!
//! * **queue delay** — enqueue to dequeue, the backlog's contribution;
//! * **sojourn** — *scheduled deadline* to response completion. Because
//!   it is anchored at the intended arrival instant rather than the
//!   moment the request happened to be sent, a stalled stack shows up
//!   as growing sojourn instead of silently stretching the gaps between
//!   samples — the coordinated-omission correction.
//!
//! Every count is conserved: `offered = completed + shed(queue_full) +
//! shed(timeout) + errors`, and [`OpenLoopReport::conserves`] checks it.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use liveserve::{HttpConn, LiveRunConfig, LiveStack, StackCounters, StackSpec};
use simcore::{FileId, LatencyStats, SimDuration, SimTime};
use wcc_obs::{JsonObj, ObsEvent, ProbeHandle, ShedReason};
use wcc_sync::{RankedCondvar, RankedMutex};

use crate::schedule::{Arrival, ArrivalSchedule, ScheduleConfig};

/// Rank of the pending-queue mutex: the open-loop pacer and workers
/// hold it before touching anything in the serving stack, so it sits at
/// the very bottom of the global lock order.
const PENDING_RANK: u32 = 10;

/// One scheduled request: when to fire on the wall clock, where the
/// virtual clock must be, and what to ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shot {
    /// Wall-clock deadline, microseconds from run start.
    pub due_us: u64,
    /// Virtual instant the stack is advanced to before firing.
    pub at: SimTime,
    /// Requested file.
    pub file: FileId,
}

/// Map an arrival schedule onto shots: wall deadlines are the schedule
/// offsets verbatim, virtual instants compress `compression` virtual
/// seconds into each wall second (so a scripted modification window
/// passes while the run lasts), and files come from `files` (cycled by
/// the caller if finite).
pub fn shots_from_arrivals(
    arrivals: impl Iterator<Item = Arrival>,
    files: impl Iterator<Item = FileId>,
    start: SimTime,
    compression: f64,
) -> impl Iterator<Item = Shot> {
    let compression = if compression.is_finite() && compression > 0.0 {
        compression
    } else {
        1.0
    };
    arrivals.zip(files).map(move |(a, file)| Shot {
        due_us: a.offset_us,
        at: start + SimDuration::from_secs((a.offset_us as f64 / 1e6 * compression) as u64),
        file,
    })
}

/// The exact shot sequence an open-loop run will offer: the arrival
/// schedule mapped onto wall deadlines, virtual instants, and a cycled
/// file mix. A function of the schedule alone — no drain-side knob
/// (worker count, queue bound) reaches it, so changing `--jobs` cannot
/// change what load is offered.
pub fn plan_shots<'a>(
    schedule: &ScheduleConfig,
    files: &'a [FileId],
    start: SimTime,
    compression: f64,
) -> impl Iterator<Item = Shot> + 'a {
    shots_from_arrivals(
        ArrivalSchedule::new(schedule),
        files.iter().copied().cycle(),
        start,
        compression,
    )
}

/// Configuration for one [`run_open_loop`] execution.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Stack shape and policy under test.
    pub run: LiveRunConfig,
    /// Worker threads draining the pending queue (0 is treated as 1).
    pub workers: usize,
    /// Pending-queue bound; an arrival finding the queue full is shed.
    pub queue_cap: usize,
    /// Queue-delay budget, microseconds; a shot that waited longer is
    /// shed at dequeue instead of fired.
    pub timeout_us: u64,
    /// The rate the schedule was built for, req/s on the wall clock —
    /// carried into the report so sweep curves can plot against it.
    pub target_rps: f64,
}

impl OpenLoopConfig {
    /// Four workers, a 512-deep queue, a one-second timeout budget.
    pub fn new(run: LiveRunConfig, target_rps: f64) -> Self {
        OpenLoopConfig {
            run,
            workers: 4,
            queue_cap: 512,
            timeout_us: 1_000_000,
            target_rps,
        }
    }
}

/// Everything one open-loop run measured. The stack-side counters are
/// reachable through `Deref` (`report.cache`, `report.server`, …).
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Policy label.
    pub policy: String,
    /// Worker threads used.
    pub workers: usize,
    /// Proxy cache shards used.
    pub shards: usize,
    /// Reactor threads used on each data path.
    pub reactor_threads: usize,
    /// Pending-queue bound used.
    pub queue_cap: usize,
    /// The rate the schedule was built for (wall req/s).
    pub target_rps: f64,
    /// Shots the pacer fired (scheduled arrivals that reached the
    /// queue-or-shed decision).
    pub offered: u64,
    /// Shots that completed with a `200` response.
    pub completed: u64,
    /// Shots shed because the pending queue was full at arrival.
    pub dropped_queue_full: u64,
    /// Shots shed because they out-waited the timeout budget.
    pub dropped_timeout: u64,
    /// Shots that failed with a transport or status error.
    pub errors: u64,
    /// Wall-clock seconds from first deadline to last completion.
    pub wall_seconds: f64,
    /// Enqueue-to-dequeue waits.
    pub queue_delay: LatencyStats,
    /// Scheduled-deadline-to-response times (coordinated-omission-free).
    pub sojourn: LatencyStats,
    /// What the proxy and the origin counted.
    pub stack: StackCounters,
    /// Bytes the proxy returned to clients.
    pub bytes_to_clients: u64,
}

impl Deref for OpenLoopReport {
    type Target = StackCounters;

    fn deref(&self) -> &StackCounters {
        &self.stack
    }
}

impl OpenLoopReport {
    /// The rate actually offered: scheduled arrivals per wall second.
    pub fn offered_rps(&self) -> f64 {
        rate(self.offered, self.wall_seconds)
    }

    /// The completed-response rate actually measured.
    pub fn achieved_rps(&self) -> f64 {
        rate(self.completed, self.wall_seconds)
    }

    /// Whether every offered shot is accounted for:
    /// `offered = completed + sheds + errors`.
    pub fn conserves(&self) -> bool {
        self.offered
            == self.completed + self.dropped_queue_full + self.dropped_timeout + self.errors
    }

    /// The report as one JSON object (single line), sharing the
    /// closed-loop report's `rates` / `latency` / stack-counter schema.
    pub fn to_json(&self) -> String {
        let rates = rates_json(
            self.offered_rps(),
            self.achieved_rps(),
            self.dropped_queue_full,
            self.dropped_timeout,
        );
        let mut obj = JsonObj::new();
        obj.str("policy", &self.policy)
            .u64("workers", self.workers as u64)
            .u64("shards", self.shards as u64)
            .u64("reactor_threads", self.reactor_threads as u64)
            .u64("queue_cap", self.queue_cap as u64)
            .f64("target_rps", self.target_rps)
            .u64("offered", self.offered)
            .u64("completed", self.completed)
            .u64("errors", self.errors)
            .f64("wall_seconds", self.wall_seconds)
            .raw("rates", &rates)
            .raw("latency", &latency_json(&self.sojourn))
            .raw("queue_delay", &latency_json(&self.queue_delay));
        self.stack.write_json(&mut obj);
        obj.u64("bytes_to_clients", self.bytes_to_clients).finish()
    }
}

pub(crate) fn rate(count: u64, wall_seconds: f64) -> f64 {
    if wall_seconds > 0.0 {
        count as f64 / wall_seconds
    } else {
        0.0
    }
}

/// The `"rates"` object every load report shares: offered vs. achieved
/// request rate plus the drop accounting that explains any gap between
/// them (`drops.queue_full`: shed at a full pending queue;
/// `drops.timeout`: abandoned past the queue-delay budget). A
/// closed-loop run is the degenerate case where offered equals achieved
/// and nothing drops.
pub(crate) fn rates_json(
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

/// The `"latency"`-shaped object for one [`LatencyStats`]: sample and
/// drop counts always, percentiles and mean only when at least one
/// sample was recorded.
pub(crate) fn latency_json(stats: &LatencyStats) -> String {
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

/// A shot waiting in the pending queue, stamped at enqueue.
struct Queued {
    shot: Shot,
    enqueued: Instant,
}

/// The bounded pending queue between the pacer and the workers.
struct PendingQueue {
    queue: RankedMutex<VecDeque<Queued>>,
    ready: RankedCondvar,
    done: AtomicBool,
    cap: usize,
}

impl PendingQueue {
    fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        PendingQueue {
            queue: RankedMutex::new(
                PENDING_RANK,
                "load.pending.queue",
                VecDeque::with_capacity(cap),
            ),
            ready: RankedCondvar::new(),
            done: AtomicBool::new(false),
            cap,
        }
    }

    /// Enqueue unless full; returns the new depth, or `None` if shed.
    fn try_push(&self, item: Queued) -> Option<u32> {
        let mut q = self.queue.lock();
        if q.len() >= self.cap {
            return None;
        }
        // Bounded by `cap`, checked on the line above.
        q.push_back(item);
        let depth = q.len() as u32;
        // Notify under the guard (`notify_one` takes it): the wakeup and
        // the push are one critical section, so a worker can never miss it.
        self.ready.notify_one(&q);
        Some(depth)
    }

    /// Blocking pop; `None` once the pacer is done and the queue drained.
    fn pop(&self) -> Option<Queued> {
        let mut q = self.ready.wait_while(self.queue.lock(), |q| {
            q.is_empty() && !self.done.load(Ordering::Acquire)
        });
        q.pop_front()
    }

    fn finish(&self) {
        // Store the flag while holding the queue mutex: a worker that
        // observed `done == false` under the lock is then guaranteed to
        // reach the condvar wait before the notification fires, so the
        // wakeup cannot be lost between its check and its wait.
        let q = self.queue.lock();
        self.done.store(true, Ordering::Release);
        self.ready.notify_all(&q);
    }
}

/// What one worker thread measured.
#[derive(Default)]
struct WorkerTally {
    completed: u64,
    timeouts: u64,
    errors: u64,
    bytes: u64,
    queue_delay: LatencyStats,
    sojourn: LatencyStats,
}

fn drain_shots(
    pending: &PendingQueue,
    spec: &StackSpec,
    proxy_addr: std::net::SocketAddr,
    run_start: Instant,
    timeout_us: u64,
    probe: &ProbeHandle,
) -> WorkerTally {
    let mut tally = WorkerTally::default();
    let mut conn: Option<HttpConn> = None;
    while let Some(item) = pending.pop() {
        let at = item.shot.at;
        let wait = item.enqueued.elapsed();
        let wait_us = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
        if wait_us > timeout_us {
            tally.timeouts += 1;
            probe.record(
                at,
                ObsEvent::OpenLoopShed {
                    reason: ShedReason::Timeout,
                },
            );
            continue;
        }
        tally
            .queue_delay
            .record_ns(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
        probe.record(at, ObsEvent::OpenLoopQueueDelay { micros: wait_us });

        if item.shot.file.index() >= spec.population.len() {
            tally.errors += 1;
            continue;
        }
        let path = spec.population.get(item.shot.file).path;
        let outcome = (|| -> io::Result<u64> {
            let c = match conn.as_mut() {
                Some(c) => c,
                None => conn.insert(HttpConn::new(TcpStream::connect(proxy_addr)?)?),
            };
            c.get_ok(path)
        })();
        match outcome {
            Ok(bytes) => {
                tally.completed += 1;
                tally.bytes += bytes;
                // Sojourn is anchored at the *scheduled* deadline, not
                // the send instant — the coordinated-omission fix.
                let elapsed_us = u64::try_from(run_start.elapsed().as_micros()).unwrap_or(u64::MAX);
                let sojourn_us = elapsed_us.saturating_sub(item.shot.due_us);
                tally.sojourn.record_ns(sojourn_us.saturating_mul(1_000));
                probe.record(at, ObsEvent::LiveLatency { micros: sojourn_us });
            }
            Err(_) => {
                tally.errors += 1;
                conn = None; // redial on the next shot
            }
        }
    }
    tally
}

/// Fire `shots` at a freshly spawned live stack under `config`,
/// open-loop, and return the aggregated report.
///
/// `shots` must be sorted by `due_us` with non-decreasing `at` (both
/// [`shots_from_arrivals`] and the replay adapters guarantee this).
pub fn run_open_loop(
    spec: &StackSpec,
    shots: impl Iterator<Item = Shot>,
    config: &OpenLoopConfig,
    probe: &ProbeHandle,
) -> io::Result<OpenLoopReport> {
    let workers = config.workers.max(1);
    let stack = LiveStack::spawn(spec, &config.run, probe)?;
    let proxy_addr = stack.proxy_addr();
    let pending = PendingQueue::new(config.queue_cap);

    let mut offered = 0u64;
    let mut dropped_queue_full = 0u64;
    let run_start = Instant::now();

    let tallies: Vec<WorkerTally> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let pending = &pending;
                let probe_ref = &*probe;
                s.spawn(move || {
                    drain_shots(
                        pending,
                        spec,
                        proxy_addr,
                        run_start,
                        config.timeout_us,
                        probe_ref,
                    )
                })
            })
            .collect();

        // The pacer runs on this thread: sleep to each deadline, move
        // the virtual clock, then enqueue-or-shed without ever blocking
        // on the workers.
        for shot in shots {
            let deadline = run_start + Duration::from_micros(shot.due_us);
            let now = Instant::now();
            if deadline > now {
                thread::sleep(deadline - now);
            }
            stack.advance_to(shot.at);
            offered += 1;
            match pending.try_push(Queued {
                shot,
                enqueued: Instant::now(),
            }) {
                Some(depth) => probe.record(shot.at, ObsEvent::OpenLoopArrival { depth }),
                None => {
                    dropped_queue_full += 1;
                    probe.record(
                        shot.at,
                        ObsEvent::OpenLoopShed {
                            reason: ShedReason::QueueFull,
                        },
                    );
                }
            }
        }
        pending.finish();
        handles
            .into_iter()
            .map(|h| {
                // A panicked worker lost an unknowable share of the
                // tally; swallowing it would silently break the
                // `offered = completed + sheds + errors` conservation
                // law, so surface the panic instead.
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    let wall_seconds = run_start.elapsed().as_secs_f64();
    stack.advance_to(spec.end);

    let mut report = OpenLoopReport {
        policy: config.run.policy.label(),
        workers,
        shards: config.run.shards.max(1),
        reactor_threads: config.run.reactor_threads.max(1),
        queue_cap: config.queue_cap.max(1),
        target_rps: config.target_rps,
        offered,
        completed: 0,
        dropped_queue_full,
        dropped_timeout: 0,
        errors: 0,
        wall_seconds,
        queue_delay: LatencyStats::new(),
        sojourn: LatencyStats::new(),
        stack: stack.shutdown(),
        bytes_to_clients: 0,
    };
    for t in tallies {
        report.completed += t.completed;
        report.dropped_timeout += t.timeouts;
        report.errors += t.errors;
        report.bytes_to_clients += t.bytes;
        report.queue_delay.merge(&t.queue_delay);
        report.sojourn.merge(&t.sojourn);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn queued(due_us: u64) -> Queued {
        Queued {
            shot: Shot {
                due_us,
                at: SimTime::ZERO,
                file: FileId(0),
            },
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn pending_queue_sheds_at_cap_and_drains_after_finish() {
        let q = PendingQueue::new(2);
        assert_eq!(q.try_push(queued(1)), Some(1));
        assert_eq!(q.try_push(queued(2)), Some(2));
        assert_eq!(q.try_push(queued(3)), None, "third push must shed");
        q.finish();
        assert_eq!(q.pop().expect("first item").shot.due_us, 1);
        assert_eq!(q.pop().expect("second item").shot.due_us, 2);
        assert!(q.pop().is_none(), "drained queue reports done");
    }

    /// The intended global order (DESIGN.md §12): the pending queue
    /// (rank 10) is the *first* lock the open-loop path takes — every
    /// serving-stack lock (reactor mailbox 40, proxy names 55 and state
    /// 60, obs 90/92/95) ranks above it. Calling `finish` while any of
    /// those is held is an inversion the debug rank checker must reject.
    #[cfg(debug_assertions)]
    #[test]
    fn finish_under_stack_lock_panics_in_debug() {
        let result = std::thread::spawn(|| {
            let q = PendingQueue::new(4);
            let stack_lock = wcc_sync::RankedMutex::new(40, "reactor.mailbox.queue", ());
            let _held = stack_lock.lock();
            q.finish(); // takes load.pending.queue (10) while holding 40
        })
        .join();
        let err = result.expect_err("inverted acquisition must panic in debug builds");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock rank inversion"), "got: {msg}");
        assert!(msg.contains("load.pending.queue") && msg.contains("reactor.mailbox.queue"));
    }
}
