//! The future-event list: one `Vec` of `(time, seq, idx)` entries kept in
//! descending `(time, seq)` order, with the payloads in a slab.
//!
//! Same API, pop order (time, then FIFO by schedule order) and panics as
//! the binary-heap `ReferenceEventQueue` it is tested against. A pop is
//! `Vec::pop`, a schedule scans back from the end past the entries due
//! earlier, and a cancel removes its entry at once.
//!
//! # Cost model
//!
//! A schedule costs one compare and one 24-byte move per pending event due
//! *earlier* than the new one. Pending events scale with active
//! contenders, not nodes (peak depth 13–185 on all `mwn bench` cases, up
//! to 50 000 nodes), and most schedules are near-future: on an 8-hop chain
//! 7 % within 1.024 µs, 34 % under 65 µs, 53 % under 4.2 ms, 6 % under
//! 268 ms. Uniform 1 µs–20 ms delays are the bad case; schedule + pop
//! under them, against the timer wheel this list replaced (one Xeon core):
//!
//! | Depth | Ordered list | Timer wheel |
//! |---|---|---|
//! | 16 | 53 ns | 93 ns |
//! | 100 | 155 ns | 74 ns |
//! | 1 000 | 1.2 µs | 74 ns |
//! | 10 000 | 14 µs | 91 ns |

use std::num::NonZeroU64;

use crate::time::SimTime;

/// Handle to a scheduled event, usable to cancel it before it fires: a
/// generation-tagged slab index, so a handle outlives its event harmlessly.
///
/// The generation is the high half and the slab index *plus one* the low
/// half, so no handle is zero and `Option<EventId>` is eight bytes: a
/// node's timer row is one word per timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) NonZeroU64);

impl EventId {
    fn new(gen: u32, idx: u32) -> Self {
        let low = u64::from(idx) + 1;
        EventId(NonZeroU64::new(u64::from(gen) << 32 | low).expect("the low half is non-zero"))
    }

    /// The generation the slot had when this handle was issued.
    fn gen(self) -> u32 {
        (self.0.get() >> 32) as u32
    }

    /// The slab index.
    fn idx(self) -> u32 {
        (self.0.get() as u32).wrapping_sub(1)
    }
}

/// A list entry, `(time_ns, seq, slab index)`; `seq` alone is unique.
type Ent = (u64, u64, u32);

/// A slab slot; its payload is `Some` while the event is pending.
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    payload: Option<E>,
}

/// The future-event list of a discrete-event simulation.
///
/// Events scheduled for the same instant are popped in the order they were
/// scheduled (FIFO), which keeps runs deterministic.
///
/// # Example
///
/// ```
/// use mwn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let a = q.schedule(SimTime::from_nanos(10), 'a');
/// q.schedule(SimTime::from_nanos(10), 'b');
/// q.cancel(a);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 'b')));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    slab: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Pending entries in descending `(time, seq)` order.
    list: Vec<Ent>,
    next_seq: u64,
    last_popped: SimTime,
    schedules: u64,
    cancels: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            list: Vec::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            schedules: 0,
            cancels: 0,
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

    /// Sets aside the next `n` sequence numbers and returns the first. A
    /// caller that stands in for `n` events with fewer entries (one cursor
    /// event walking a list, say) reserves the numbers those events would
    /// have drawn, so later schedules keep their FIFO tie-break, and files
    /// its stand-in under them with [`schedule_keyed`](Self::schedule_keyed).
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// [`schedule`](Self::schedule) under a sequence number taken from
    /// [`reserve_seqs`](Self::reserve_seqs): the event pops exactly where
    /// an event scheduled with that number at `time` would have. Each
    /// reserved number may be used once.
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
        assert!(
            seq < self.next_seq,
            "sequence number {seq} was not reserved"
        );
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Slot {
                gen: 0,
                payload: None,
            });
            // Below `u32::MAX`, so the index plus one fits a handle's low half.
            u32::try_from(self.slab.len()).expect("event slab overflow") - 1
        });
        let slot = &mut self.slab[idx as usize];
        slot.payload = Some(event);
        let id = EventId::new(slot.gen, idx);
        let ent = (time.as_nanos(), seq, idx);
        let later = self.list.iter().rposition(|e| *e > ent);
        self.list.insert(later.map_or(0, |i| i + 1), ent);
        self.schedules += 1;
        id
    }

    /// Cancels a previously scheduled event. Cancelling one that already
    /// fired or was cancelled is a no-op: its generation no longer matches.
    pub fn cancel(&mut self, id: EventId) {
        let idx = id.idx();
        match self.slab.get(idx as usize) {
            Some(slot) if slot.gen == id.gen() && slot.payload.is_some() => {}
            _ => return,
        }
        let at = self.list.iter().rposition(|e| e.2 == idx);
        self.list.remove(at.expect("pending event is in the list"));
        self.free_slot(idx);
        self.cancels += 1;
    }

    /// Removes and returns the next pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(time, _, payload)| (time, payload))
    }

    /// Like [`pop`](Self::pop), but also returns the event's sequence
    /// number, the FIFO tie-break key: `(time, seq)` totally orders every
    /// event ever scheduled, so popped events can be merged back against
    /// the queue head without losing the deterministic pop order.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let (time_ns, seq, idx) = self.list.pop()?;
        let time = SimTime::from_nanos(time_ns);
        self.last_popped = time;
        Some((time, seq, self.free_slot(idx)))
    }

    /// The timestamp of the next pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` ordering key of the next pending event without
    /// removing it (see [`pop_keyed`](Self::pop_keyed)).
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        let &(time_ns, seq, _) = self.list.last()?;
        Some((SimTime::from_nanos(time_ns), seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Events scheduled so far, keyed or not.
    pub fn schedules(&self) -> u64 {
        self.schedules
    }

    /// Pending events cancelled so far (no-op cancels not counted).
    pub fn cancels(&self) -> u64 {
        self.cancels
    }

    /// Returns a slab slot to the free list, bumping its generation so stale
    /// `EventId`s stop matching, and hands back its payload.
    fn free_slot(&mut self, idx: u32) -> E {
        let slot = &mut self.slab[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        slot.payload.take().expect("pending event has a payload")
    }
}

impl<E> Default for EventQueue<E> {
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
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn same_granule_different_nanos_pop_in_time_order() {
        // 3 and 700 ns share the 1.024 µs granule but must not be reordered.
        let mut q = EventQueue::new();
        q.schedule(t(700), 'b');
        q.schedule(t(3), 'a');
        assert_eq!(q.pop(), Some((t(3), 'a')));
        assert_eq!(q.pop(), Some((t(700), 'b')));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 'a');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        q.cancel(a);
        let b = q.schedule(t(2), 'b');
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), 'b')));
        let _ = b;
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), 'b')));
    }

    #[test]
    fn stale_handle_does_not_cancel_slab_reuser() {
        let mut q = EventQueue::new();
        // The first handle ever issued: generation 0, slab index 0.
        let a = q.schedule(t(1), 'a');
        assert_eq!((a.gen(), a.idx()), (0, 0));
        assert_eq!(q.pop(), Some((t(1), 'a')));
        // 'b' reuses a's slab slot; a's stale handle must not cancel it.
        let b = q.schedule(t(2), 'b');
        assert_eq!((b.gen(), b.idx()), (1, 0));
        q.cancel(a);
        assert_eq!(q.pop(), Some((t(2), 'b')));
        // A live generation-0 handle at index 0 still cancels its event,
        // and a later index's generation 0 is told apart from index 0's.
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 'a');
        let c = q.schedule(t(1), 'c');
        assert_eq!((c.gen(), c.idx()), (0, 1));
        assert_ne!(a, c);
        q.cancel(a);
        assert_eq!(q.pop(), Some((t(1), 'c')));
        q.cancel(c);
        // Both slots are free again; re-let, neither stale handle cancels.
        q.schedule(t(2), 'd');
        q.schedule(t(2), 'e');
        q.cancel(a);
        q.cancel(c);
        assert_eq!(q.len(), 2);
    }

    /// The niche: a timer slot holding "no event" costs no more than one
    /// holding a handle.
    #[test]
    fn optional_handle_is_one_word() {
        assert_eq!(std::mem::size_of::<Option<EventId>>(), 8);
        assert_eq!(std::mem::size_of::<EventId>(), 8);
    }

    #[test]
    fn handles_round_trip_at_the_extremes() {
        for (gen, idx) in [
            (0, 0),
            (u32::MAX, 0),
            (0, u32::MAX - 1),
            (u32::MAX, u32::MAX - 1),
        ] {
            let id = EventId::new(gen, idx);
            assert_eq!((id.gen(), id.idx()), (gen, idx));
        }
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn rescheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }

    /// A stand-in filed under a reserved number pops where an event
    /// scheduled with that number would have: before same-instant events
    /// scheduled after the reservation, however late it is filed.
    #[test]
    fn keyed_schedule_takes_the_reserved_place_in_line() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 'a');
        let base = q.reserve_seqs(2);
        q.schedule(t(5), 'd');
        q.schedule_keyed(t(5), base + 1, 'c');
        q.schedule_keyed(t(5), base, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop_keyed().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
        // Time still comes first: an old number does not jump the clock.
        let base = q.reserve_seqs(1);
        q.schedule(t(6), 'x');
        q.schedule_keyed(t(7), base, 'y');
        assert_eq!(q.pop_keyed(), Some((t(6), base + 1, 'x')));
        assert_eq!(q.pop_keyed(), Some((t(7), base, 'y')));
    }

    #[test]
    #[should_panic(expected = "was not reserved")]
    fn keyed_schedule_rejects_unreserved_numbers() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule_keyed(t(2), 1, ());
    }

    /// Times from 1 ns to past 2^46 ns (≈19.5 h), scheduled latest first.
    #[test]
    fn events_across_all_levels_pop_in_order() {
        let mut q = EventQueue::new();
        let times: [u64; 8] = [
            1,
            1_024,
            65_536,
            4_194_304,
            268_435_456,
            17_179_869_184,
            1_099_511_627_776,
            70_368_744_177_671,
        ];
        for (i, &ns) in times.iter().enumerate().rev() {
            q.schedule(t(ns), i);
        }
        for (i, &ns) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t(ns), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cascade_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let far = 12_582_912; // 12.6 ms
        for i in 0..10 {
            q.schedule(t(far), i);
        }
        // An earlier event scheduled after them pops first.
        q.schedule(t(100), 99);
        assert_eq!(q.pop(), Some((t(100), 99)));
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t(far), i)));
        }
    }

    #[test]
    fn cancel_wheel_resident_event_clears_it() {
        let mut q = EventQueue::new();
        let far = 327_680;
        let a = q.schedule(t(far), 'a');
        q.schedule(t(far), 'b');
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(far), 'b')));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_events_fire_after_the_frame_jump() {
        let mut q = EventQueue::new();
        let beyond = 70_368_744_177_664; // 2^46 ns
        q.schedule(t(beyond + 7), 'z');
        let a = q.schedule(t(beyond + 3), 'y');
        q.schedule(t(40), 'a');
        assert_eq!(q.pop(), Some((t(40), 'a')));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(beyond + 7)));
        assert_eq!(q.pop(), Some((t(beyond + 7), 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        // Schedule while draining: new events at the popped time are legal
        // and must still come out in (time, FIFO) order.
        let mut q = EventQueue::new();
        q.schedule(t(1_000), 0);
        q.schedule(t(2_000_000), 1);
        assert_eq!(q.pop(), Some((t(1_000), 0)));
        q.schedule(t(1_000), 2); // same instant as the event just popped
        q.schedule(t(500_000), 3);
        assert_eq!(q.pop(), Some((t(1_000), 2)));
        assert_eq!(q.pop(), Some((t(500_000), 3)));
        assert_eq!(q.pop(), Some((t(2_000_000), 1)));
        assert_eq!(q.pop(), None);
    }

    /// A peek commits nothing: probing past the next event leaves
    /// earlier schedules legal.
    #[test]
    fn bounded_peek_does_not_advance_the_wheel() {
        let mut q = EventQueue::new();
        q.schedule(t(5_000_000), 'z'); // 5 ms out
        assert_eq!(q.peek_time(), Some(t(5_000_000)));
        assert_eq!(q.peek_key(), Some((t(5_000_000), 0)));
        q.schedule(t(10_000), 'a');
        assert_eq!(q.peek_time(), Some(t(10_000)));
        assert_eq!(q.pop(), Some((t(10_000), 'a')));
        assert_eq!(q.pop(), Some((t(5_000_000), 'z')));
    }

    #[test]
    fn bounded_peek_finds_events_across_granules_and_levels() {
        let mut q = EventQueue::new();
        q.schedule(t(80_000), 'b');
        assert_eq!(q.peek_time(), Some(t(80_000)));
        // A nearer event wins.
        q.schedule(t(3_000), 'a');
        assert_eq!(q.peek_time(), Some(t(3_000)));
        // Cancelled events are invisible.
        let c = q.schedule(t(1_000), 'c');
        assert_eq!(q.peek_time(), Some(t(1_000)));
        q.cancel(c);
        assert_eq!(q.peek_time(), Some(t(3_000)));
        assert_eq!(q.pop(), Some((t(3_000), 'a')));
        assert_eq!(q.pop(), Some((t(80_000), 'b')));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn bounded_peek_sees_the_ready_heap_and_overflow() {
        let mut q = EventQueue::new();
        q.schedule(t(1_000), 'a');
        q.schedule(t(1_100), 'b');
        assert_eq!(q.pop(), Some((t(1_000), 'a')));
        assert_eq!(q.peek_time(), Some(t(1_100)));
        let beyond = 70_368_744_177_664; // 2^46 ns
        q.schedule(t(beyond + 3), 'z');
        assert_eq!(q.peek_time(), Some(t(1_100)));
        assert_eq!(q.pop(), Some((t(1_100), 'b')));
        assert_eq!(q.peek_time(), Some(t(beyond + 3)));
        // Peeking far ahead still lets the popped instant take new events.
        q.schedule(t(1_100), 'c');
        assert_eq!(q.peek_time(), Some(t(1_100)));
        assert_eq!(q.pop(), Some((t(1_100), 'c')));
        assert_eq!(q.pop(), Some((t(beyond + 3), 'z')));
    }

    #[test]
    fn len_tracks_schedule_cancel_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let ids: Vec<_> = (0..50).map(|i| q.schedule(t(i * 700), i)).collect();
        assert_eq!(q.len(), 50);
        for id in ids.iter().step_by(2) {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 25);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 25);
        assert!(q.is_empty());
    }

    /// The traffic counters balance: every event scheduled was cancelled,
    /// popped or is still pending, and no-op cancels count for nothing.
    #[test]
    fn schedules_minus_cancels_minus_pops_is_len() {
        let mut q = EventQueue::new();
        let mut popped = 0u64;
        let balanced = |q: &EventQueue<u64>, popped: u64| {
            q.schedules() - q.cancels() - popped == q.len() as u64
        };
        let ids: Vec<_> = (0..20).map(|i| q.schedule(t(1_000 * i), i)).collect();
        q.cancel(ids[0]); // the head
        q.cancel(ids[19]); // the tail
        assert!(balanced(&q, popped));
        for _ in 0..5 {
            q.pop();
            popped += 1;
        }
        q.cancel(ids[1]); // already fired
        q.cancel(ids[0]); // already cancelled
        assert_eq!(q.cancels(), 2);
        assert!(balanced(&q, popped));
        let base = q.reserve_seqs(2);
        q.schedule_keyed(t(7_500), base, 99);
        let tail = q.schedule(t(1 << 40), 100);
        q.cancel(tail);
        assert_eq!((q.schedules(), q.cancels()), (22, 3));
        while q.pop().is_some() {
            popped += 1;
        }
        assert!(balanced(&q, popped));
        assert_eq!(popped, 19);
    }
}
