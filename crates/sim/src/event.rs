//! Reference future-event list: binary heap + tombstone set.
//!
//! This was the engine's event queue before [`crate::EventQueue`]
//! replaced it on the hot path. It is kept —
//! unchanged in behaviour — as the trusted oracle for the differential
//! proptests in `tests/wheel_differential.rs`: any schedule/cancel/pop
//! interleaving must produce the identical pop sequence on both
//! implementations. Compiled only for tests and under the `oracle` feature.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;

use crate::fxhash::FxHashSet;

use crate::time::SimTime;
use crate::wheel::EventId;

/// The future-event list of a discrete-event simulation, as a binary heap
/// with a tombstone set for cancellation.
///
/// Events scheduled for the same instant are popped in the order they were
/// scheduled (FIFO), which keeps runs deterministic. Cancellation is lazy: a
/// cancelled event stays in the heap and is skipped when it surfaces.
///
/// # Example
///
/// ```
/// use mwn_sim::{ReferenceEventQueue, SimTime};
///
/// let mut q = ReferenceEventQueue::new();
/// let a = q.schedule(SimTime::from_nanos(10), 'a');
/// q.schedule(SimTime::from_nanos(10), 'b');
/// q.cancel(a);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 'b')));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Ids of scheduled-but-not-yet-fired, not-cancelled events. An entry in
    /// the heap whose id is absent here was cancelled and is skipped on pop.
    pending: FxHashSet<EventId>,
    next_id: u64,
    last_popped: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    id: EventId,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ties broken by schedule order (id), making pops deterministic.
        self.time.cmp(&other.time).then(self.id.cmp(&other.id))
    }
}

impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            pending: FxHashSet::default(),
            next_id: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at `time` and returns a cancellation handle.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event: the simulation
    /// clock cannot run backwards.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.reserve_seqs(1);
        self.schedule_keyed(time, seq, event)
    }

    /// Sets aside the next `n` sequence numbers and returns the first,
    /// mirroring [`EventQueue::reserve_seqs`](crate::EventQueue::reserve_seqs).
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_id;
        self.next_id += n;
        first
    }

    /// Schedules under a reserved sequence number, mirroring
    /// [`EventQueue::schedule_keyed`](crate::EventQueue::schedule_keyed).
    /// The handle *is* the number here, which is why each reserved number
    /// may be used only once.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event, or if
    /// `seq` was never reserved.
    pub fn schedule_keyed(&mut self, time: SimTime, seq: u64, event: E) -> EventId {
        assert!(
            time >= self.last_popped,
            "scheduling into the past: {time} < {}",
            self.last_popped
        );
        assert!(seq < self.next_id, "sequence number {seq} was not reserved");
        // Handles are non-zero: number `seq` is handle `seq + 1`.
        let id = EventId(NonZeroU64::MIN.saturating_add(seq));
        let fresh = self.pending.insert(id);
        assert!(fresh, "sequence number {seq} already has a pending event");
        self.heap.push(Reverse(Entry { time, id, event }));
        id
    }

    /// Cancels a previously scheduled event.
    ///
    /// Cancelling an event that already fired (or was already cancelled) is a
    /// no-op; `EventId`s are never reused so this is always safe.
    pub fn cancel(&mut self, id: EventId) {
        self.pending.remove(&id);
    }

    /// Removes and returns the next live event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(time, _, event)| (time, event))
    }

    /// Like [`pop`](Self::pop), but also returns the event's schedule
    /// sequence number (the FIFO tie-break key), mirroring
    /// [`EventQueue::pop_keyed`](crate::EventQueue::pop_keyed).
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if !self.pending.remove(&entry.id) {
                continue; // cancelled
            }
            self.last_popped = entry.time;
            return Some((entry.time, entry.id.0.get() - 1, entry.event));
        }
        None
    }

    /// The timestamp of the next live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` ordering key of the next live event without
    /// removing it, mirroring
    /// [`EventQueue::peek_key`](crate::EventQueue::peek_key).
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        while let Some(Reverse(entry)) = self.heap.peek() {
            if !self.pending.contains(&entry.id) {
                self.heap.pop();
                continue;
            }
            return Some((entry.time, entry.id.0.get() - 1));
        }
        None
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = ReferenceEventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = ReferenceEventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = ReferenceEventQueue::new();
        let a = q.schedule(t(1), 'a');
        let b = q.schedule(t(2), 'b');
        q.schedule(t(3), 'c');
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(3), 'c')));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = ReferenceEventQueue::new();
        let a = q.schedule(t(1), 'a');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        q.cancel(a);
        let b = q.schedule(t(2), 'b');
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), 'b')));
        let _ = b;
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = ReferenceEventQueue::new();
        let a = q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), 'b')));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = ReferenceEventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn rescheduling_at_now_is_allowed() {
        let mut q = ReferenceEventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }
}
