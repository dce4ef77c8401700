//! The pending-event queue: a time-ordered priority queue with stable FIFO
//! tie-breaking and O(log n) *eager* cancellation.
//!
//! Determinism matters more than raw speed here: two events scheduled for
//! the same instant must fire in the order they were scheduled, on every
//! run, or trace replays stop being reproducible. The queue orders entries
//! by `(instant, sequence-number)` — sequence numbers are unique and
//! monotone, so the order is total and insertion-stable by construction.
//!
//! ## Structure
//!
//! The queue is an **indexed 4-ary min-heap over a slot slab**:
//!
//! * `slots` is a slab of entries; a slot owns an event's payload, its
//!   `(at, seq)` ordering key, its current heap position, and a
//!   *generation* counter bumped each time the slot is vacated;
//! * `heap` holds slot indices arranged as a 4-ary heap (shallower than a
//!   binary heap, so the schedule-side `sift_up` touches fewer levels);
//! * an [`EventHandle`] packs `(generation, slot)` and is therefore an O(1)
//!   index into the slab — liveness checks and cancellation never search.
//!
//! This replaces the previous `BinaryHeap` + tombstone-`HashSet` design,
//! whose `cancel` was an O(n) scan of the whole heap and whose `pop`/`peek`
//! paid a tombstone-skip loop. Here `cancel` removes the entry from the
//! heap *immediately* (one O(log n) sift), `pop`/`peek` look only at the
//! root, and `len` is exact without subtraction.

use crate::time::SimTime;

/// Sentinel for "slot is not in the heap".
const NIL: u32 = u32::MAX;

/// Handle to a scheduled event, usable for cancellation and liveness
/// queries. Packs the owning slot's index and generation, so the queue
/// resolves it in O(1) and can tell *exactly* whether the event is still
/// pending (a handle whose event fired or was cancelled never matches its
/// slot's current generation; slot generations only return to a previous
/// value after 2³² reuses of the same slot, far beyond any simulation's
/// pending-event churn between handle uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    fn new(generation: u32, slot: u32) -> Self {
        EventHandle((u64::from(generation) << 32) | u64::from(slot))
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }
}

struct Slot<E> {
    /// Bumped when the slot is vacated; a handle is live iff it matches.
    generation: u32,
    /// Position in `heap`, or [`NIL`] when the slot is free.
    pos: u32,
    at: SimTime,
    seq: u64,
    /// `Some` while pending (`Option` only because the crate forbids
    /// `unsafe`; `pos != NIL` implies `Some`).
    event: Option<E>,
}

/// A time-ordered queue of pending events.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    heap: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `at`. Events at the same instant fire in
    /// insertion order.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.at = at;
                s.seq = seq;
                s.event = Some(event);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("pending-event slab overflow");
                assert!(i < NIL, "pending-event slab overflow");
                self.slots.push(Slot {
                    generation: 0,
                    pos: NIL,
                    at,
                    seq,
                    event: Some(event),
                });
                i
            }
        };
        let pos = self.heap.len();
        self.heap.push(slot);
        self.slots[slot as usize].pos = pos as u32;
        self.sift_up(pos);
        EventHandle::new(self.slots[slot as usize].generation, slot)
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` iff the event was still pending, in which case it is
    /// removed from the queue immediately (O(log n), no tombstones).
    /// Returns `false` exactly when the handle's event already fired or was
    /// already cancelled — the position slab distinguishes the two cases
    /// from a pending event precisely, so callers may rely on the result.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slots.get(handle.slot()) {
            Some(s) if s.generation == handle.generation() && s.pos != NIL => {
                let pos = s.pos as usize;
                self.remove_at(pos);
                true
            }
            _ => false,
        }
    }

    /// Whether `handle`'s event is still pending (has neither fired nor
    /// been cancelled). O(1).
    pub fn is_pending(&self, handle: EventHandle) -> bool {
        matches!(
            self.slots.get(handle.slot()),
            Some(s) if s.generation == handle.generation() && s.pos != NIL
        )
    }

    /// The instant of the next pending event, if any. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&s| self.slots[s as usize].at)
    }

    /// Remove and return the next pending event together with its
    /// scheduled instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let slot = *self.heap.first()?;
        let at = self.slots[slot as usize].at;
        let event = self.remove_at(0);
        Some((at, event))
    }

    /// Number of pending events. Exact and O(1).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The `(at, seq)` ordering key of the slot at heap position `pos`.
    fn key_at(&self, pos: usize) -> (SimTime, u64) {
        let s = &self.slots[self.heap[pos] as usize];
        (s.at, s.seq)
    }

    /// Detach the entry at heap position `pos`, restore the heap, free its
    /// slot, and return the payload.
    fn remove_at(&mut self, pos: usize) -> E {
        let slot = self.heap[pos];
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos < self.heap.len() {
            self.slots[self.heap[pos] as usize].pos = pos as u32;
            // The moved entry may violate the heap property in either
            // direction relative to its new neighbourhood.
            if pos > 0 && self.key_at(pos) < self.key_at((pos - 1) / 4) {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        let s = &mut self.slots[slot as usize];
        s.pos = NIL;
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        s.event.take().expect("pending slot holds an event")
    }

    fn sift_up(&mut self, mut pos: usize) {
        let slot = self.heap[pos];
        let s = &self.slots[slot as usize];
        let key = (s.at, s.seq);
        while pos > 0 {
            let parent = (pos - 1) / 4;
            if self.key_at(parent) <= key {
                break;
            }
            let pslot = self.heap[parent];
            self.heap[pos] = pslot;
            self.slots[pslot as usize].pos = pos as u32;
            pos = parent;
        }
        self.heap[pos] = slot;
        self.slots[slot as usize].pos = pos as u32;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        if pos >= len {
            return;
        }
        let slot = self.heap[pos];
        let s = &self.slots[slot as usize];
        let key = (s.at, s.seq);
        loop {
            let first = pos * 4 + 1;
            if first >= len {
                break;
            }
            let mut min_pos = first;
            let mut min_key = self.key_at(first);
            for c in (first + 1)..(first + 4).min(len) {
                let k = self.key_at(c);
                if k < min_key {
                    min_key = k;
                    min_pos = c;
                }
            }
            if key <= min_key {
                break;
            }
            let cslot = self.heap[min_pos];
            self.heap[pos] = cslot;
            self.slots[cslot as usize].pos = pos as u32;
            pos = min_pos;
        }
        self.heap[pos] = slot;
        self.slots[slot as usize].pos = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let _a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        let _c = q.schedule(t(3), "c");
        assert!(q.cancel(b));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_of_fired_or_bogus_handle_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a));
        assert!(!q.cancel(EventHandle(999 << 32 | 999)));
    }

    #[test]
    fn cancel_is_exact_after_slot_reuse() {
        // The slab reuses a fired event's slot for the next schedule; the
        // stale handle must still report "not pending" even though the slot
        // is occupied again.
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        let b = q.schedule(t(2), "b"); // reuses a's slot
        assert!(!q.is_pending(a));
        assert!(!q.cancel(a), "stale handle must not cancel the new tenant");
        assert!(q.is_pending(b));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn double_cancel_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn is_pending_tracks_lifecycle() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        assert!(q.is_pending(a));
        assert!(q.is_pending(b));
        q.pop();
        assert!(!q.is_pending(a), "fired");
        q.cancel(b);
        assert!(!q.is_pending(b), "cancelled");
    }

    #[test]
    fn peek_time_sees_through_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn len_is_exact_under_cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_cancel_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let mut handles = Vec::new();
        for i in 0..64u64 {
            handles.push(q.schedule(t(i % 7), i));
        }
        for h in handles.iter().skip(1).step_by(3) {
            q.cancel(*h);
        }
        for i in 64..96u64 {
            q.schedule(t(i % 5), i);
        }
        let mut last = None;
        while let Some((at, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(at >= prev);
            }
            last = Some(at);
        }
        assert!(q.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping everything always yields a non-decreasing time sequence,
        /// and within equal times, increasing sequence order.
        #[test]
        fn pop_order_is_total_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &s) in times.iter().enumerate() {
                q.schedule(SimTime::from_secs(s), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((at, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(at >= lt);
                    if at == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((at, idx));
            }
            prop_assert!(q.is_empty());
        }

        /// Cancelling an arbitrary subset removes exactly that subset.
        #[test]
        fn cancellation_removes_exact_subset(
            times in proptest::collection::vec(0u64..100, 1..100),
            cancel_mask in proptest::collection::vec(any::<bool>(), 100),
        ) {
            let mut q = EventQueue::new();
            let handles: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &s)| (i, q.schedule(SimTime::from_secs(s), i)))
                .collect();
            let mut expect: Vec<usize> = Vec::new();
            for (i, h) in &handles {
                if cancel_mask[*i % cancel_mask.len()] {
                    q.cancel(*h);
                } else {
                    expect.push(*i);
                }
            }
            let mut got: Vec<usize> = Vec::new();
            while let Some((_, idx)) = q.pop() {
                got.push(idx);
            }
            got.sort_unstable();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }

        /// Differential oracle: the indexed heap against a naive
        /// sorted-`Vec` reference model under random interleavings of
        /// schedule / cancel / pop. The model keeps `(at, seq, value)`
        /// triples sorted and removes by linear search; every intermediate
        /// observation (pop results, liveness, length) must agree.
        #[test]
        fn matches_sorted_vec_reference_model(
            ops in proptest::collection::vec((0u8..8, 0u64..50), 1..300)
        ) {
            let mut q = EventQueue::new();
            // Model entry: (at, seq, value); handles map 1:1 by issue order.
            let mut model: Vec<(u64, u64, u64)> = Vec::new();
            let mut handles: Vec<(EventHandle, u64)> = Vec::new(); // (handle, seq)
            let mut next_seq = 0u64;

            for (op, arg) in ops {
                match op {
                    // schedule (weight 4/8)
                    0..=3 => {
                        let h = q.schedule(SimTime::from_secs(arg), next_seq);
                        model.push((arg, next_seq, next_seq));
                        model.sort_unstable();
                        handles.push((h, next_seq));
                        next_seq += 1;
                    }
                    // cancel an arbitrary previously issued handle (2/8)
                    4..=5 => {
                        if handles.is_empty() { continue; }
                        let (h, seq) = handles[(arg as usize) % handles.len()];
                        let in_model = model.iter().position(|&(_, s, _)| s == seq);
                        prop_assert_eq!(q.is_pending(h), in_model.is_some());
                        let cancelled = q.cancel(h);
                        prop_assert_eq!(cancelled, in_model.is_some());
                        if let Some(i) = in_model {
                            model.remove(i);
                        }
                    }
                    // pop (2/8)
                    _ => {
                        let got = q.pop();
                        if model.is_empty() {
                            prop_assert_eq!(got, None);
                        } else {
                            let (at, _, v) = model.remove(0);
                            prop_assert_eq!(got, Some((SimTime::from_secs(at), v)));
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.peek_time(), model.first().map(|&(at, _, _)| SimTime::from_secs(at)));
            }

            // Drain: remaining order must match the model exactly.
            while let Some((at, v)) = q.pop() {
                let (mat, _, mv) = model.remove(0);
                prop_assert_eq!((at, v), (SimTime::from_secs(mat), mv));
            }
            prop_assert!(model.is_empty());
        }
    }
}
