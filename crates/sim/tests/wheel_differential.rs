//! Differential test: the event queue against the reference queue.
//!
//! [`EventQueue`] (one ordered `Vec`) replaced [`ReferenceEventQueue`]
//! (binary heap + tombstones) on the engine's hot path. The two must be
//! observationally identical: for ANY interleaving
//! of schedules, cancels and pops — including cancels of ids that already
//! fired, and schedules filed under sequence numbers reserved earlier —
//! both queues must pop the exact same `(time, seq, payload)` sequence and
//! report the same live count.

use std::collections::BTreeMap;

use mwn_sim::{EventId, EventQueue, Pcg32, ReferenceEventQueue, SimTime};
use proptest::prelude::*;

/// One scripted operation on both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a payload `delta_ns` after the last popped time.
    Schedule { delta_ns: u64 },
    /// Cancel the k-th id ever handed out (possibly already fired).
    Cancel { k: usize },
    /// Reserve `n` sequence numbers for later keyed schedules.
    Reserve { n: u64 },
    /// Schedule under the k-th still-unused reserved number (a plain
    /// schedule when none is left), `delta_ns` after the last pop.
    ScheduleKeyed { delta_ns: u64, k: usize },
    /// Pop one event from both queues and compare.
    Pop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Mostly near-future times, some mid-range, and a few up to 2^50
        // ns (13 days) out.
        (0u64..2_000_000).prop_map(|delta_ns| Op::Schedule { delta_ns }),
        (0u64..500).prop_map(|delta_ns| Op::Schedule { delta_ns }),
        (0u64..(1 << 50)).prop_map(|delta_ns| Op::Schedule { delta_ns }),
        (0usize..256).prop_map(|k| Op::Cancel { k }),
        (1u64..8).prop_map(|n| Op::Reserve { n }),
        // Keyed schedules land where a wave cursor's do: a few µs out,
        // under a number older than everything scheduled since.
        (0u64..4_000, 0usize..64).prop_map(|(delta_ns, k)| Op::ScheduleKeyed { delta_ns, k }),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_reference_queue(
        ops in proptest::collection::vec(arb_op(), 1..300),
    ) {
        let mut queue = EventQueue::new();
        let mut reference = ReferenceEventQueue::new();
        let mut ids = Vec::new();
        let mut reserved: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let mut payload = 0u32;
        for op in ops {
            match op {
                Op::Schedule { delta_ns } => {
                    let at = SimTime::from_nanos(now + delta_ns);
                    ids.push((queue.schedule(at, payload), reference.schedule(at, payload)));
                    payload += 1;
                }
                Op::Reserve { n } => {
                    let first = queue.reserve_seqs(n);
                    prop_assert_eq!(first, reference.reserve_seqs(n));
                    reserved.extend(first..first + n);
                }
                Op::ScheduleKeyed { delta_ns, k } => {
                    let at = SimTime::from_nanos(now + delta_ns);
                    if reserved.is_empty() {
                        ids.push((queue.schedule(at, payload), reference.schedule(at, payload)));
                    } else {
                        let seq = reserved.swap_remove(k % reserved.len());
                        ids.push((
                            queue.schedule_keyed(at, seq, payload),
                            reference.schedule_keyed(at, seq, payload),
                        ));
                    }
                    payload += 1;
                }
                Op::Cancel { k } => {
                    if !ids.is_empty() {
                        let (w, r) = ids[k % ids.len()];
                        queue.cancel(w);
                        reference.cancel(r);
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(queue.peek_key(), reference.peek_key());
                    let got = queue.pop_keyed();
                    prop_assert_eq!(got, reference.pop_keyed());
                    if let Some((t, _, _)) = got {
                        now = t.as_nanos();
                    }
                }
            }
            prop_assert_eq!(queue.len(), reference.len());
            prop_assert_eq!(queue.is_empty(), reference.is_empty());
        }
        // Drain both to the end: the full tail must match too.
        loop {
            let got = queue.pop_keyed();
            prop_assert_eq!(got, reference.pop_keyed());
            if got.is_none() {
                break;
            }
        }
    }

    /// Same-instant events pop FIFO by schedule order on both queues.
    #[test]
    fn simultaneous_events_stay_fifo(count in 1usize..200, time_ns in 0u64..(1 << 44)) {
        let mut queue = EventQueue::new();
        let mut reference = ReferenceEventQueue::new();
        let at = SimTime::from_nanos(time_ns);
        for i in 0..count {
            queue.schedule(at, i);
            reference.schedule(at, i);
        }
        for i in 0..count {
            let got = queue.pop();
            prop_assert_eq!(got, reference.pop());
            prop_assert_eq!(got, Some((at, i)));
        }
    }
}

/// Both queues, and what the test knows about the events they hold.
struct Both {
    queue: EventQueue<u64>,
    reference: ReferenceEventQueue<u64>,
    /// Pending events by `(time, seq)`, so the head and the tail are at
    /// hand; the payload is the event's `seq`.
    pending: BTreeMap<(u64, u64), (EventId, EventId)>,
    fired: Vec<(EventId, EventId)>,
    next_seq: u64,
    now: u64,
}

impl Both {
    fn file(&mut self, at: u64, keyed: Option<u64>) {
        let t = SimTime::from_nanos(at);
        let (seq, ids) = match keyed {
            Some(seq) => (
                seq,
                (
                    self.queue.schedule_keyed(t, seq, seq),
                    self.reference.schedule_keyed(t, seq, seq),
                ),
            ),
            None => {
                let seq = self.next_seq;
                self.next_seq += 1;
                (
                    seq,
                    (self.queue.schedule(t, seq), self.reference.schedule(t, seq)),
                )
            }
        };
        self.pending.insert((at, seq), ids);
    }

    fn reserve(&mut self, n: u64) -> u64 {
        let first = self.queue.reserve_seqs(n);
        assert_eq!(first, self.reference.reserve_seqs(n));
        assert_eq!(first, self.next_seq);
        self.next_seq += n;
        first
    }

    /// Cancels the pending event at `key`, if any.
    fn cancel_pending(&mut self, key: Option<(u64, u64)>) {
        if let Some(ids) = key.and_then(|k| self.pending.remove(&k)) {
            self.queue.cancel(ids.0);
            self.reference.cancel(ids.1);
        }
    }

    /// Cancels an event that already fired: a no-op on both queues.
    fn cancel_fired(&mut self, k: usize) {
        if let Some(&(ours, theirs)) = self.fired.get(k) {
            self.queue.cancel(ours);
            self.reference.cancel(theirs);
        }
    }

    fn pop(&mut self) {
        assert_eq!(self.queue.peek_key(), self.reference.peek_key());
        let got = self.queue.pop_keyed();
        assert_eq!(got, self.reference.pop_keyed());
        if let Some((t, seq, payload)) = got {
            assert_eq!(payload, seq);
            let ids = self.pending.remove(&(t.as_nanos(), seq));
            self.fired.push(ids.expect("a popped event was pending"));
            self.now = t.as_nanos();
        }
    }

    fn check_len(&self) {
        assert_eq!(self.queue.len(), self.reference.len());
        assert_eq!(self.queue.len(), self.pending.len());
    }
}

/// A deterministic deep-queue case. The proptest above never holds more
/// than a few hundred events, so it never reaches the list's longest
/// scans and moves. This one fills both queues past 20 000 pending events
/// at uniform 1 µs–20 ms delays and keeps them there while it pops,
/// cancels the head, the tail and events that already fired, files
/// events tied with the tail, and files keyed schedules under numbers
/// reserved long before, some tied with the head. Every pop and
/// every length is compared.
#[test]
fn deep_queue_matches_reference_queue() {
    const DEPTH: usize = 20_000;
    let mut rng = Pcg32::new(38);
    let delay = |rng: &mut Pcg32| 1_000 + rng.gen_range_u64(20_000_000);
    let mut both = Both {
        queue: EventQueue::new(),
        reference: ReferenceEventQueue::new(),
        pending: BTreeMap::new(),
        fired: Vec::new(),
        next_seq: 0,
        now: 0,
    };
    let mut reserved: Vec<u64> = Vec::new();
    let mut steady_steps = 0;
    while steady_steps < DEPTH {
        let filling = both.pending.len() < DEPTH;
        if !filling {
            both.pop();
            steady_steps += 1;
        }
        match rng.gen_range_u32(10) {
            0 => both.cancel_pending(both.pending.keys().next().copied()),
            1 => both.cancel_pending(both.pending.keys().next_back().copied()),
            2 => both.cancel_fired(rng.gen_range_u64(both.fired.len() as u64 + 1) as usize),
            3 => {
                let n = 1 + rng.gen_range_u64(4);
                let first = both.reserve(n);
                reserved.extend(first..first + n);
            }
            4 if !reserved.is_empty() => {
                // Like a wave cursor: a few µs out, under an old number —
                // or tied with the head, which it may then overtake.
                let seq = reserved.swap_remove(rng.gen_range_u64(reserved.len() as u64) as usize);
                let at = match both.pending.keys().next() {
                    Some(&(head, _)) if rng.gen_range_u32(2) == 0 => head,
                    _ => both.now + rng.gen_range_u64(4_000),
                };
                both.file(at, Some(seq));
            }
            5 if filling => both.pop(),
            6 => {
                // Tied with the tail: the longest scan, ending on a tie.
                let at = both
                    .pending
                    .keys()
                    .next_back()
                    .map_or(both.now, |&(t, _)| t);
                both.file(at, None);
            }
            _ => {
                let at = both.now + delay(&mut rng);
                both.file(at, None);
            }
        }
        both.check_len();
    }
    // Still deep at the end: one pop and one cancel below the mark at most.
    assert!(both.pending.len() >= DEPTH - 2);
    while !both.pending.is_empty() {
        both.pop();
        both.check_len();
    }
    both.pop();
    assert!(both.queue.is_empty() && both.reference.is_empty());
}
