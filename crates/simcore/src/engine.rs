//! The simulation driver: a virtual clock plus an event queue, executing
//! events against a user-supplied world state.
//!
//! The simulators in this workspace are sequential and deterministic: the
//! engine pops the earliest event, advances the clock to its timestamp, and
//! fires it. Events may schedule further events (invalidation callbacks,
//! retry timers, TTL expiries) through the [`Scheduler`] they receive.
//! A schedule known before the run starts — a trace — does not need the
//! queue at all: [`Simulation::run_feed`] merges it in as it goes.
//!
//! The engine is generic over the queued event payload. The default payload
//! is `Box<dyn Event<W>>`, which lets tests and examples schedule plain
//! closures, at the price of one heap allocation and one virtual call per
//! event. A simulator with a closed set of event kinds supplies a concrete
//! enum implementing [`Dispatch`] instead and pays neither cost on its hot
//! path — see `webcache::sim`.

use std::marker::PhantomData;

use crate::queue::{EventHandle, EventQueue};
use crate::time::{SimDuration, SimTime};

/// An executable simulation event acting on world state `W`, boxed.
///
/// Implemented for plain closures via a blanket impl, so simple simulations
/// can schedule `move |world, sched| { .. }` directly.
pub trait Event<W> {
    /// Execute the event. `sched` may be used to schedule follow-up events;
    /// `sched.now()` is the instant this event fires at.
    fn fire(self: Box<Self>, world: &mut W, sched: &mut Scheduler<W>);
}

impl<W, F> Event<W> for F
where
    F: FnOnce(&mut W, &mut Scheduler<W>),
{
    fn fire(self: Box<Self>, world: &mut W, sched: &mut Scheduler<W>) {
        (*self)(world, sched)
    }
}

/// How a queued event payload executes against the world.
///
/// This is the by-value, allocation-free counterpart of [`Event`]: a payload
/// type (typically a small `Copy` enum) implements it directly, and
/// [`Simulation`] dispatches with a plain `match` instead of a virtual call.
/// The boxed [`Event`] path remains available through the blanket impl for
/// `Box<dyn Event<W>>`.
pub trait Dispatch<W>: Sized {
    /// Execute the event. `sched.now()` is the instant it fires at.
    fn dispatch(self, world: &mut W, sched: &mut Scheduler<W, Self>);
}

impl<W> Dispatch<W> for Box<dyn Event<W>> {
    fn dispatch(self, world: &mut W, sched: &mut Scheduler<W, Self>) {
        self.fire(world, sched)
    }
}

/// The scheduling surface handed to firing events: the current instant and
/// the ability to enqueue or cancel future events.
///
/// `E` is the queued payload type; it defaults to boxed dynamic events, so
/// `Scheduler<World>` keeps meaning what it always did.
pub struct Scheduler<W, E = Box<dyn Event<W>>> {
    now: SimTime,
    queue: EventQueue<E>,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E> Scheduler<W, E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            _world: PhantomData,
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule the payload `event` at the absolute instant `at`, without
    /// boxing.
    ///
    /// # Panics
    /// Panics if `at` is in the past — an event cannot rewrite history.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={at}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedule the payload `event` to fire `delay` after the current
    /// instant, without boxing.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        let at = self.now.saturating_add(delay);
        self.queue.schedule(at, event)
    }

    /// Cancel a pending event. Returns `true` iff it had neither fired nor
    /// been cancelled already (the distinction is exact; see
    /// [`EventQueue::cancel`]).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Whether `handle`'s event is still pending. O(1).
    pub fn is_pending(&self, handle: EventHandle) -> bool {
        self.queue.is_pending(handle)
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<W> Scheduler<W> {
    /// Schedule `event` at the absolute instant `at` (boxing it).
    ///
    /// # Panics
    /// Panics if `at` is in the past — an event cannot rewrite history.
    pub fn schedule_at<Ev: Event<W> + 'static>(&mut self, at: SimTime, event: Ev) -> EventHandle {
        self.schedule_event_at(at, Box::new(event))
    }

    /// Schedule `event` to fire `delay` after the current instant (boxing
    /// it).
    pub fn schedule_in<Ev: Event<W> + 'static>(
        &mut self,
        delay: SimDuration,
        event: Ev,
    ) -> EventHandle {
        self.schedule_event_in(delay, Box::new(event))
    }
}

/// A complete simulation: world state plus driver.
///
/// ```
/// use simcore::{SimDuration, SimTime, Simulation, Scheduler};
///
/// let mut sim = Simulation::new(Vec::<u64>::new());
/// sim.scheduler().schedule_at(
///     SimTime::from_secs(10),
///     |log: &mut Vec<u64>, sched: &mut Scheduler<Vec<u64>>| {
///         log.push(sched.now().as_secs());
///         sched.schedule_in(SimDuration::from_secs(5), |log: &mut Vec<u64>, s: &mut Scheduler<Vec<u64>>| {
///             log.push(s.now().as_secs());
///         });
///     },
/// );
/// sim.run_to_completion();
/// assert_eq!(sim.into_world(), vec![10, 15]);
/// ```
pub struct Simulation<W, E = Box<dyn Event<W>>> {
    world: W,
    sched: Scheduler<W, E>,
    fired: u64,
}

impl<W, E: Dispatch<W>> Simulation<W, E> {
    /// Wrap `world` in a fresh simulation starting at time zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            fired: 0,
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (for seeding state between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Access the scheduler to seed the initial event set.
    pub fn scheduler(&mut self) -> &mut Scheduler<W, E> {
        &mut self.sched
    }

    /// Run until the queue is exhausted. Returns the number of events fired.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_feed(std::iter::empty(), |_, _, _| {})
    }

    /// Run `feed` and the queue dry together: each step fires the earlier
    /// of the feed's head and the queue's root, **the feed winning ties**.
    /// Returns the number of events fired.
    ///
    /// A feed is a schedule known in full before the run — a trace — handed
    /// over as a time-ordered iterator instead of being pushed through the
    /// queue, which then holds only what events schedule while the run is
    /// in progress. The order is the one scheduling the whole feed up front
    /// would give: every fed event precedes, at its instant, anything
    /// scheduled during the run (it would have had the lower sequence
    /// number), and fed events at one instant fire in feed order.
    ///
    /// After every dispatched event, `observe` receives the world, the
    /// clock, and the number of events still pending (feed remainder plus
    /// queue depth). The hook runs strictly *between* events (never during
    /// a dispatch), so it can read — and, for probes stored inside the
    /// world, borrow mutably — without ever racing the event logic.
    ///
    /// # Panics
    /// Panics if the feed steps backwards in time — like scheduling into
    /// the past, it would rewrite history.
    pub fn run_feed<I, F>(&mut self, feed: I, mut observe: F) -> u64
    where
        I: ExactSizeIterator<Item = (SimTime, E)>,
        F: FnMut(&mut W, SimTime, usize),
    {
        let start = self.fired;
        let mut feed = feed.peekable();
        while let Some((at, event)) = match (feed.peek(), self.sched.queue.peek_time()) {
            (Some(&(fed, _)), Some(queued)) if queued < fed => self.sched.queue.pop(),
            (Some(_), _) => feed.next(),
            (None, _) => self.sched.queue.pop(),
        } {
            assert!(
                at >= self.sched.now,
                "event order steps into the past: now={}, at={at}",
                self.sched.now
            );
            self.sched.now = at;
            event.dispatch(&mut self.world, &mut self.sched);
            self.fired += 1;
            observe(
                &mut self.world,
                self.sched.now,
                feed.len() + self.sched.queue.len(),
            );
        }
        self.fired - start
    }

    /// Consume the simulation and return the final world state.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn events_fire_in_time_order_with_clock_advancing() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler()
            .schedule_at(at(20), |w: &mut World, s: &mut Scheduler<World>| {
                w.log.push((s.now().as_secs(), "b"));
            });
        sim.scheduler()
            .schedule_at(at(10), |w: &mut World, s: &mut Scheduler<World>| {
                w.log.push((s.now().as_secs(), "a"));
            });
        assert_eq!(sim.run_to_completion(), 2);
        assert_eq!(sim.world().log, vec![(10, "a"), (20, "b")]);
        assert_eq!(sim.now(), at(20));
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler()
            .schedule_at(at(5), |w: &mut World, s: &mut Scheduler<World>| {
                w.log.push((s.now().as_secs(), "first"));
                s.schedule_in(
                    SimDuration::from_secs(7),
                    |w: &mut World, s: &mut Scheduler<World>| {
                        w.log.push((s.now().as_secs(), "second"));
                    },
                );
            });
        sim.run_to_completion();
        assert_eq!(sim.world().log, vec![(5, "first"), (12, "second")]);
    }

    #[test]
    fn cancellation_prevents_firing() {
        let mut sim = Simulation::new(World::default());
        let h = sim
            .scheduler()
            .schedule_at(at(10), |w: &mut World, _: &mut Scheduler<World>| {
                w.log.push((10, "never"));
            });
        assert!(sim.scheduler().cancel(h));
        sim.run_to_completion();
        assert!(sim.world().log.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler()
            .schedule_at(at(10), |_: &mut World, s: &mut Scheduler<World>| {
                s.schedule_at(at(5), |_: &mut World, _: &mut Scheduler<World>| {});
            });
        sim.run_to_completion();
    }

    #[test]
    fn typed_enum_events_run_without_boxing() {
        #[derive(Clone, Copy)]
        enum Tick {
            Mark(&'static str),
            Chain,
        }
        impl Dispatch<World> for Tick {
            fn dispatch(self, world: &mut World, sched: &mut Scheduler<World, Tick>) {
                match self {
                    Tick::Mark(label) => world.log.push((sched.now().as_secs(), label)),
                    Tick::Chain => {
                        world.log.push((sched.now().as_secs(), "chain"));
                        sched.schedule_event_in(SimDuration::from_secs(3), Tick::Mark("tail"));
                    }
                }
            }
        }

        let mut sim: Simulation<World, Tick> = Simulation::new(World::default());
        sim.scheduler().schedule_event_at(at(10), Tick::Chain);
        sim.scheduler().schedule_event_at(at(5), Tick::Mark("head"));
        assert_eq!(sim.run_to_completion(), 3);
        assert_eq!(
            sim.world().log,
            vec![(5, "head"), (10, "chain"), (13, "tail")]
        );
    }

    #[test]
    fn typed_events_can_borrow_non_static_state() {
        // The typed path has no `'static` bound: a world borrowing local
        // state is legal. This is what lets simulators share a workload by
        // reference across a sweep instead of cloning it per point.
        struct Borrowing<'a> {
            weights: &'a [u64],
            total: u64,
        }
        #[derive(Clone, Copy)]
        struct Add(usize);
        impl<'a> Dispatch<Borrowing<'a>> for Add {
            fn dispatch(self, world: &mut Borrowing<'a>, _: &mut Scheduler<Borrowing<'a>, Add>) {
                world.total += world.weights[self.0];
            }
        }

        let weights = vec![3, 5, 7];
        let mut sim: Simulation<Borrowing<'_>, Add> = Simulation::new(Borrowing {
            weights: &weights,
            total: 0,
        });
        for i in 0..weights.len() {
            sim.scheduler().schedule_event_at(at(i as u64), Add(i));
        }
        sim.run_to_completion();
        assert_eq!(sim.into_world().total, 15);
    }

    #[test]
    fn same_instant_fifo_holds_across_nesting() {
        let mut sim = Simulation::new(World::default());
        sim.scheduler()
            .schedule_at(at(10), |w: &mut World, s: &mut Scheduler<World>| {
                w.log.push((s.now().as_secs(), "outer1"));
                s.schedule_at(at(10), |w: &mut World, _: &mut Scheduler<World>| {
                    w.log.push((10, "nested"));
                });
            });
        sim.scheduler()
            .schedule_at(at(10), |w: &mut World, _: &mut Scheduler<World>| {
                w.log.push((10, "outer2"));
            });
        sim.run_to_completion();
        assert_eq!(
            sim.world().log,
            vec![(10, "outer1"), (10, "outer2"), (10, "nested")]
        );
    }

    /// A `Copy` payload for the feed tests: logs itself, and `Spawn` also
    /// schedules a `Mark` through the queue.
    #[derive(Clone, Copy)]
    enum Fed {
        Mark(&'static str),
        Spawn(&'static str, u64, &'static str),
    }

    impl Dispatch<World> for Fed {
        fn dispatch(self, world: &mut World, sched: &mut Scheduler<World, Fed>) {
            match self {
                Fed::Mark(label) => world.log.push((sched.now().as_secs(), label)),
                Fed::Spawn(label, delay, child) => {
                    world.log.push((sched.now().as_secs(), label));
                    sched.schedule_event_in(SimDuration::from_secs(delay), Fed::Mark(child));
                }
            }
        }
    }

    #[test]
    fn the_feed_wins_ties_and_the_queue_fills_the_gaps() {
        let mut sim: Simulation<World, Fed> = Simulation::new(World::default());
        sim.scheduler()
            .schedule_event_at(at(10), Fed::Mark("queued"));
        let feed = vec![
            (at(5), Fed::Spawn("a", 5, "a-child")),
            (at(10), Fed::Mark("b")),
            (at(10), Fed::Spawn("c", 2, "c-child")),
            (at(20), Fed::Mark("d")),
        ];
        let mut pending = Vec::new();
        let fired = sim.run_feed(feed.into_iter(), |_, _, left| pending.push(left));
        assert_eq!(fired, 7);
        assert_eq!(
            sim.world().log,
            vec![
                (5, "a"),
                (10, "b"),
                (10, "c"),
                (10, "queued"),
                (10, "a-child"),
                (12, "c-child"),
                (20, "d"),
            ]
        );
        // Feed remainder plus queue depth, after each dispatch.
        assert_eq!(pending, vec![5, 4, 4, 3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "steps into the past")]
    fn a_feed_that_steps_backwards_in_time_panics() {
        let mut sim: Simulation<World, Fed> = Simulation::new(World::default());
        let feed = vec![(at(10), Fed::Mark("late")), (at(5), Fed::Mark("early"))];
        sim.run_feed(feed.into_iter(), |_, _, _| {});
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Everything fired, and the handles of the follow-ups scheduled so
    /// far (the only events a handler can cancel on either path).
    #[derive(Default)]
    struct World {
        fired: Vec<(SimTime, u32)>,
        followups: Vec<EventHandle>,
    }

    #[derive(Debug, Clone, Copy)]
    struct Ev {
        id: u32,
        /// Schedule a follow-up this long after `now` (0 = at `now`).
        spawn: Option<u64>,
        /// Cancel the follow-up with this index (modulo how many exist).
        cancel: Option<usize>,
    }

    impl Dispatch<World> for Ev {
        fn dispatch(self, world: &mut World, sched: &mut Scheduler<World, Ev>) {
            world.fired.push((sched.now(), self.id));
            if let Some(delay) = self.spawn {
                let followup = Ev {
                    id: 1_000 + world.followups.len() as u32,
                    spawn: None,
                    cancel: None,
                };
                let delay = SimDuration::from_secs(delay);
                world
                    .followups
                    .push(sched.schedule_event_in(delay, followup));
            }
            if let (Some(k), false) = (self.cancel, world.followups.is_empty()) {
                sched.cancel(world.followups[k % world.followups.len()]);
            }
        }
    }

    proptest! {
        /// The feed against the path it replaces: the same events all
        /// scheduled through the queue before the run. Times collide
        /// heavily, handlers schedule at `now` and later and cancel.
        #[test]
        fn a_fed_run_fires_what_scheduling_everything_up_front_fires(
            raw in proptest::collection::vec(
                (0u64..12, proptest::option::of(0u64..4), proptest::option::of(0usize..8)),
                0..120,
            )
        ) {
            let mut times: Vec<u64> = raw.iter().map(|&(t, _, _)| t).collect();
            times.sort_unstable();
            let events: Vec<(SimTime, Ev)> = raw
                .iter()
                .zip(times)
                .enumerate()
                .map(|(i, (&(_, spawn, cancel), t))| {
                    (SimTime::from_secs(t), Ev { id: i as u32, spawn, cancel })
                })
                .collect();

            let mut queued: Simulation<World, Ev> = Simulation::new(World::default());
            for &(t, ev) in &events {
                queued.scheduler().schedule_event_at(t, ev);
            }
            queued.run_to_completion();

            let mut fed: Simulation<World, Ev> = Simulation::new(World::default());
            let mut pending_after = Vec::new();
            let count = fed.run_feed(events.iter().copied(), |_, _, left| pending_after.push(left));

            prop_assert_eq!(&fed.world().fired, &queued.world().fired);
            prop_assert_eq!(count, queued.events_fired());
            prop_assert_eq!(fed.now(), queued.now());
            prop_assert_eq!(pending_after.last().copied().unwrap_or(0), 0);
        }
    }
}
