//! Hierarchical timer-wheel future-event list.
//!
//! Drop-in replacement for the binary-heap `ReferenceEventQueue`: same API,
//! same pop order (time, then FIFO by schedule order), same panics — but tuned
//! to the event mix of an 802.11 multihop simulation, where almost every
//! pending event is a MAC-scale timer (SIFS/DIFS/slot/NAV, tens of
//! microseconds out) and only a handful are transport-scale (RTO, pacing,
//! route discovery, seconds out).
//!
//! # Design
//!
//! Time is bucketed into 1.024 µs granules (`2^GRAN_BITS` ns). Six wheel
//! levels of 64 slots each cover `2^(10+36)` ns ≈ 19.5 h from the current
//! granule; anything beyond the top-level frame waits in a small overflow
//! heap. Per-level occupancy bitmaps make "find the next non-empty slot" a
//! couple of `trailing_zeros` instructions, so an idle scan costs O(levels),
//! not O(slots).
//!
//! Payloads live in a slab indexed by a `u32`; wheel slots and heaps only
//! shuffle 24-byte `(time, seq, idx)` entries, so large event payloads are
//! moved exactly twice (in at `schedule`, out at `pop`) no matter how often
//! buckets cascade. [`EventId`]s are generation-tagged slab indices: a
//! cancel after the event fired (or a double cancel) sees a stale generation
//! and is a no-op, without keeping a tombstone set.
//!
//! Events of the granule currently being drained sit in a tiny `ready` heap
//! ordered by exact `(time, seq)`, which preserves the reference queue's
//! deterministic FIFO tie-break — the golden-trace digests in `mwn check`
//! are byte-identical on either implementation.
//!
//! Cancellation is eager for wheel-resident events (the bucket entry is
//! removed, keeping occupancy bitmaps truthful) and lazy for heap-resident
//! ones (marked and reclaimed when they surface).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Handle to a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

/// log2 of the granule width in nanoseconds: 1.024 µs, finer than a SIFS
/// (10 µs) so distinct MAC timers land in distinct granules.
const GRAN_BITS: u32 = 10;
/// log2 of the slots per wheel level.
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels. Level `l` spans `2^(GRAN_BITS + SLOT_BITS*(l+1))` ns:
/// 65 µs, 4.2 ms, 268 ms, 17 s, 18 min, 19.5 h.
const LEVELS: usize = 6;
/// Ticks above this many bits are beyond the top level and overflow.
const TOP_BITS: u32 = SLOT_BITS * LEVELS as u32;

/// A wheel/heap entry: event identity plus everything ordering needs, so the
/// slab is only touched on schedule, cancel and pop. Derived `Ord` compares
/// `(time_ns, seq, idx)`; `seq` is unique, so `idx` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ent {
    time_ns: u64,
    seq: u64,
    idx: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Pending,
    /// Cancelled while heap-resident; reclaimed when the entry surfaces.
    Cancelled,
    Free,
}

/// Where a pending event's `Ent` currently lives (needed by `cancel`).
#[derive(Debug, Clone, Copy)]
enum Loc {
    Wheel {
        level: u8,
        slot: u8,
    },
    /// In the `ready` or `overflow` heap, where eager removal is impossible.
    Heap,
}

#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    state: State,
    loc: Loc,
    payload: Option<E>,
}

/// The future-event list of a discrete-event simulation, as a hierarchical
/// timer wheel.
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
    levels: [[Vec<Ent>; SLOTS]; LEVELS],
    /// Per-level bitmap of non-empty slots.
    occ: [u64; LEVELS],
    /// Events of the granule currently being drained, plus any scheduled at
    /// the current granule while draining it. Ordered by exact `(time, seq)`.
    ready: BinaryHeap<Reverse<Ent>>,
    /// Events beyond the top-level frame (≈19.5 h out).
    overflow: BinaryHeap<Reverse<Ent>>,
    /// Granule the `ready` heap is drawn from. Pending events never have an
    /// earlier tick.
    cur_tick: u64,
    next_seq: u64,
    /// Live (non-cancelled) event count.
    live: usize,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            levels: std::array::from_fn(|_| std::array::from_fn(|_| Vec::new())),
            occ: [0; LEVELS],
            ready: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cur_tick: 0,
            next_seq: 0,
            live: 0,
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

    /// Sets aside the next `n` schedule sequence numbers and returns the
    /// first. A caller that stands in for `n` events with fewer wheel
    /// entries (one cursor event walking a list, say) reserves the
    /// numbers those events would have drawn, so everything scheduled
    /// afterwards keeps the FIFO tie-break it would have had, and files
    /// its stand-in under the reserved numbers with
    /// [`schedule_keyed`](Self::schedule_keyed).
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
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slab[idx as usize];
                slot.state = State::Pending;
                slot.payload = Some(event);
                idx
            }
            None => {
                let idx = u32::try_from(self.slab.len()).expect("event slab overflow");
                self.slab.push(Slot {
                    gen: 0,
                    state: State::Pending,
                    loc: Loc::Heap,
                    payload: Some(event),
                });
                idx
            }
        };
        self.live += 1;
        self.place(Ent {
            time_ns: time.as_nanos(),
            seq,
            idx,
        });
        EventId(u64::from(self.slab[idx as usize].gen) << 32 | u64::from(idx))
    }

    /// Cancels a previously scheduled event.
    ///
    /// Cancelling an event that already fired (or was already cancelled) is a
    /// no-op: the handle's generation no longer matches its slab slot.
    pub fn cancel(&mut self, id: EventId) {
        let idx = id.0 as u32;
        let gen = (id.0 >> 32) as u32;
        let Some(slot) = self.slab.get_mut(idx as usize) else {
            return;
        };
        if slot.gen != gen || slot.state != State::Pending {
            return;
        }
        self.live -= 1;
        match slot.loc {
            // Heap entries can't be removed from the middle of a BinaryHeap;
            // mark and reclaim when they surface.
            Loc::Heap => slot.state = State::Cancelled,
            Loc::Wheel { level, slot: s } => {
                let bucket = &mut self.levels[level as usize][s as usize];
                let pos = bucket
                    .iter()
                    .position(|e| e.idx == idx)
                    .expect("pending event is in its recorded wheel bucket");
                bucket.swap_remove(pos);
                if bucket.is_empty() {
                    self.occ[level as usize] &= !(1u64 << s);
                }
                self.free_slot(idx);
            }
        }
    }

    /// Removes and returns the next live event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(time, _, payload)| (time, payload))
    }

    /// Like [`pop`](Self::pop), but also returns the event's schedule
    /// sequence number — the FIFO tie-break key. `(time, seq)` totally
    /// orders every event ever scheduled, so callers that stage popped
    /// events in a side buffer can later merge them against the queue
    /// head without losing the deterministic pop order.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        loop {
            let Some(Reverse(ent)) = self.ready.pop() else {
                if self.refill() {
                    continue;
                }
                return None;
            };
            if self.slab[ent.idx as usize].state == State::Cancelled {
                self.free_slot(ent.idx);
                continue;
            }
            let payload = self.slab[ent.idx as usize]
                .payload
                .take()
                .expect("pending event has a payload");
            self.free_slot(ent.idx);
            self.live -= 1;
            let time = SimTime::from_nanos(ent.time_ns);
            self.last_popped = time;
            return Some((time, ent.seq, payload));
        }
    }

    /// The timestamp of the next live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, seq)` ordering key of the next live event without
    /// removing it (see [`pop_keyed`](Self::pop_keyed)).
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        loop {
            match self.ready.peek() {
                Some(&Reverse(ent)) => {
                    if self.slab[ent.idx as usize].state == State::Cancelled {
                        self.ready.pop();
                        self.free_slot(ent.idx);
                        continue;
                    }
                    return Some((SimTime::from_nanos(ent.time_ns), ent.seq));
                }
                None => {
                    if !self.refill() {
                        return None;
                    }
                }
            }
        }
    }

    /// The timestamp of the next live event, **only if** it is at or
    /// before `limit` — without advancing the wheel.
    ///
    /// [`peek_time`](Self::peek_time) commits the wheel's cursor to the
    /// next event's granule, after which nothing earlier may be
    /// scheduled. Callers that peek ahead *speculatively* — like the
    /// network loop probing whether another event falls inside a wave's
    /// skew window — must not pay that commitment for events they
    /// will not pop. This read-only scan visits only the buckets whose
    /// tick range intersects `[cur, limit]`, so with a limit a few
    /// granules out it touches a handful of slots regardless of queue
    /// size.
    pub fn peek_time_within(&self, limit: SimTime) -> Option<SimTime> {
        let limit_ns = limit.as_nanos();
        let limit_tick = limit_ns >> GRAN_BITS;
        if limit_tick < self.cur_tick {
            return None;
        }
        let mut best: Option<u64> = None;
        let mut consider = |time_ns: u64| {
            if time_ns <= limit_ns && best.is_none_or(|b| time_ns < b) {
                best = Some(time_ns);
            }
        };
        // The ready heap can hold lazily-cancelled entries; skip them.
        for &Reverse(ent) in &self.ready {
            if self.slab[ent.idx as usize].state == State::Pending {
                consider(ent.time_ns);
            }
        }
        // Wheel buckets are eagerly pruned on cancel, so every entry is
        // live. Only slots covering ticks in `[cur, limit]` within each
        // level's current frame can qualify; an occupied earlier slot
        // belongs to the level's *next* frame (see `refill`).
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let lo = self.cur_tick >> shift;
            let hi = limit_tick >> shift;
            let s_lo = (lo & SLOT_MASK) as u32;
            let s_hi = if (hi & !SLOT_MASK) == (lo & !SLOT_MASK) {
                (hi & SLOT_MASK) as u32
            } else {
                SLOT_MASK as u32
            };
            let mut occ = self.occ[level] & (!0u64 << s_lo) & (!0u64 >> (63 - s_hi));
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                for ent in &self.levels[level][slot] {
                    consider(ent.time_ns);
                }
            }
        }
        // The overflow heap starts a whole top-level frame out; scan it
        // only when the limit reaches that far.
        if (limit_tick >> TOP_BITS) != (self.cur_tick >> TOP_BITS) {
            for &Reverse(ent) in &self.overflow {
                if self.slab[ent.idx as usize].state == State::Pending {
                    consider(ent.time_ns);
                }
            }
        }
        best.map(SimTime::from_nanos)
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Files an entry into the ready heap, a wheel bucket, or the overflow
    /// heap, whichever its tick calls for.
    fn place(&mut self, ent: Ent) {
        let tick = ent.time_ns >> GRAN_BITS;
        debug_assert!(tick >= self.cur_tick, "placing an entry behind the wheel");
        if tick == self.cur_tick {
            self.slab[ent.idx as usize].loc = Loc::Heap;
            self.ready.push(Reverse(ent));
        } else if (tick >> TOP_BITS) != (self.cur_tick >> TOP_BITS) {
            self.slab[ent.idx as usize].loc = Loc::Heap;
            self.overflow.push(Reverse(ent));
        } else {
            // The highest bit where the tick differs from `cur_tick` picks
            // the level: the entry cascades down when the wheel reaches its
            // slot, and everything below that bit is still in the future.
            let diff = tick ^ self.cur_tick;
            let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
            let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            self.slab[ent.idx as usize].loc = Loc::Wheel {
                level: level as u8,
                slot: slot as u8,
            };
            self.levels[level][slot].push(ent);
            self.occ[level] |= 1 << slot;
        }
    }

    /// Advances the wheel to the next occupied granule and moves that
    /// granule's events onto the (empty) ready heap. Returns `false` if
    /// nothing is pending anywhere.
    fn refill(&mut self) -> bool {
        debug_assert!(self.ready.is_empty());
        'scan: loop {
            // A cascade or overflow jump may have fed `ready` directly
            // (entries landing exactly on `cur_tick`). Those are the earliest
            // pending events, so stop before draining a later granule on top.
            if !self.ready.is_empty() {
                return true;
            }
            for level in 0..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let pos = ((self.cur_tick >> shift) & SLOT_MASK) as u32;
                // Slots at or after the current position within this level's
                // frame. Earlier slots would belong to the next frame and are
                // filed at a higher level instead, so they can't be occupied.
                let in_frame = self.occ[level] & (!0u64 << pos);
                if in_frame == 0 {
                    continue;
                }
                let slot = in_frame.trailing_zeros() as usize;
                if level == 0 {
                    self.cur_tick = (self.cur_tick & !SLOT_MASK) | slot as u64;
                    self.occ[0] &= !(1u64 << slot);
                    for ent in self.levels[0][slot].drain(..) {
                        self.slab[ent.idx as usize].loc = Loc::Heap;
                        self.ready.push(Reverse(ent));
                    }
                    return true;
                }
                // A higher level is due first: advance to that slot's start
                // and cascade its bucket down, then rescan from level 0.
                let base = (self.cur_tick >> shift) & !SLOT_MASK;
                let slot_start = (base | slot as u64) << shift;
                if slot_start > self.cur_tick {
                    self.cur_tick = slot_start;
                }
                self.occ[level] &= !(1u64 << slot);
                let mut bucket = std::mem::take(&mut self.levels[level][slot]);
                for ent in bucket.drain(..) {
                    self.place(ent);
                }
                self.levels[level][slot] = bucket; // keep the allocation
                continue 'scan;
            }
            // Every wheel level is empty: jump to the overflow frame, if any.
            loop {
                match self.overflow.peek() {
                    None => return false,
                    Some(&Reverse(ent))
                        if self.slab[ent.idx as usize].state == State::Cancelled =>
                    {
                        self.overflow.pop();
                        self.free_slot(ent.idx);
                    }
                    Some(&Reverse(ent)) => {
                        self.cur_tick = ent.time_ns >> GRAN_BITS;
                        break;
                    }
                }
            }
            let frame = self.cur_tick >> TOP_BITS;
            while let Some(&Reverse(ent)) = self.overflow.peek() {
                if (ent.time_ns >> GRAN_BITS) >> TOP_BITS != frame {
                    break;
                }
                self.overflow.pop();
                if self.slab[ent.idx as usize].state == State::Cancelled {
                    self.free_slot(ent.idx);
                } else {
                    self.place(ent);
                }
            }
        }
    }

    /// Returns a slab slot to the free list, bumping its generation so stale
    /// `EventId`s stop matching.
    fn free_slot(&mut self, idx: u32) {
        let slot = &mut self.slab[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.state = State::Free;
        slot.payload = None;
        self.free.push(idx);
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
        let a = q.schedule(t(1), 'a');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        // 'b' reuses a's slab slot; a's stale handle must not cancel it.
        let _b = q.schedule(t(2), 'b');
        q.cancel(a);
        assert_eq!(q.pop(), Some((t(2), 'b')));
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

    /// One event per wheel level plus one in the overflow heap.
    #[test]
    fn events_across_all_levels_pop_in_order() {
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..=LEVELS as u32)
            .map(|l| 1u64 << (GRAN_BITS + SLOT_BITS * l))
            .collect();
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
        // Far enough out to start at level 2 and cascade twice.
        let far = 3u64 << (GRAN_BITS + 2 * SLOT_BITS);
        for i in 0..10 {
            q.schedule(t(far), i);
        }
        // An earlier event forces the wheel to turn before the cascade.
        q.schedule(t(100), 99);
        assert_eq!(q.pop(), Some((t(100), 99)));
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t(far), i)));
        }
    }

    #[test]
    fn cancel_wheel_resident_event_clears_it() {
        let mut q = EventQueue::new();
        let far = 5u64 << (GRAN_BITS + SLOT_BITS);
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
        let beyond = 1u64 << (GRAN_BITS + TOP_BITS); // past the top frame
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

    /// The whole point of `peek_time_within`: probing past the next
    /// event must not commit the wheel, so earlier schedules stay legal.
    #[test]
    fn bounded_peek_does_not_advance_the_wheel() {
        let mut q = EventQueue::new();
        q.schedule(t(5_000_000), 'z'); // 5 ms out
        assert_eq!(q.peek_time_within(t(100_000)), None);
        // A plain peek here would advance to the 5 ms granule and make
        // this schedule panic.
        q.schedule(t(10_000), 'a');
        assert_eq!(q.pop(), Some((t(10_000), 'a')));
        assert_eq!(q.pop(), Some((t(5_000_000), 'z')));
    }

    #[test]
    fn bounded_peek_finds_events_across_granules_and_levels() {
        let mut q = EventQueue::new();
        // Level-1 resident (beyond the 65 µs level-0 frame).
        q.schedule(t(80_000), 'b');
        assert_eq!(q.peek_time_within(t(79_999)), None);
        assert_eq!(q.peek_time_within(t(80_000)), Some(t(80_000)));
        // A nearer level-0 event wins.
        q.schedule(t(3_000), 'a');
        assert_eq!(q.peek_time_within(t(80_000)), Some(t(3_000)));
        // Cancelled events are invisible.
        let c = q.schedule(t(1_000), 'c');
        q.cancel(c);
        assert_eq!(q.peek_time_within(t(80_000)), Some(t(3_000)));
        assert_eq!(q.pop(), Some((t(3_000), 'a')));
        assert_eq!(q.pop(), Some((t(80_000), 'b')));
        assert_eq!(q.peek_time_within(t(1 << 40)), None);
    }

    #[test]
    fn bounded_peek_sees_the_ready_heap_and_overflow() {
        let mut q = EventQueue::new();
        q.schedule(t(1_000), 'a');
        q.schedule(t(1_100), 'b'); // same granule → both hit ready
        assert_eq!(q.pop(), Some((t(1_000), 'a')));
        assert_eq!(q.peek_time_within(t(1_050)), None);
        assert_eq!(q.peek_time_within(t(1_100)), Some(t(1_100)));
        let beyond = 1u64 << (GRAN_BITS + TOP_BITS);
        q.schedule(t(beyond + 3), 'z');
        assert_eq!(q.peek_time_within(t(beyond)), Some(t(1_100)));
        assert_eq!(q.pop(), Some((t(1_100), 'b')));
        assert_eq!(q.peek_time_within(t(beyond + 10)), Some(t(beyond + 3)));
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
}
