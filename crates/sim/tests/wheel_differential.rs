//! Differential test: the timer wheel against the reference queue.
//!
//! [`EventQueue`] (hierarchical timer wheel) replaced
//! [`ReferenceEventQueue`] (binary heap + tombstones) on the engine's hot
//! path. The two must be observationally identical: for ANY interleaving
//! of schedules, cancels and pops — including cancels of ids that already
//! fired, and schedules filed under sequence numbers reserved earlier —
//! both queues must pop the exact same `(time, seq, payload)` sequence and
//! report the same live count.

use mwn_sim::{EventQueue, ReferenceEventQueue, SimTime};
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
        // Mostly near-future times (exercises the ready heap and the low
        // wheel levels), some mid-range (higher levels), and a few far
        // enough out to land in the overflow heap beyond the wheel span.
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
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceEventQueue::new();
        let mut ids = Vec::new();
        let mut reserved: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let mut payload = 0u32;
        for op in ops {
            match op {
                Op::Schedule { delta_ns } => {
                    let at = SimTime::from_nanos(now + delta_ns);
                    ids.push((wheel.schedule(at, payload), reference.schedule(at, payload)));
                    payload += 1;
                }
                Op::Reserve { n } => {
                    let first = wheel.reserve_seqs(n);
                    prop_assert_eq!(first, reference.reserve_seqs(n));
                    reserved.extend(first..first + n);
                }
                Op::ScheduleKeyed { delta_ns, k } => {
                    let at = SimTime::from_nanos(now + delta_ns);
                    if reserved.is_empty() {
                        ids.push((wheel.schedule(at, payload), reference.schedule(at, payload)));
                    } else {
                        let seq = reserved.swap_remove(k % reserved.len());
                        ids.push((
                            wheel.schedule_keyed(at, seq, payload),
                            reference.schedule_keyed(at, seq, payload),
                        ));
                    }
                    payload += 1;
                }
                Op::Cancel { k } => {
                    if !ids.is_empty() {
                        let (w, r) = ids[k % ids.len()];
                        wheel.cancel(w);
                        reference.cancel(r);
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.peek_key(), reference.peek_key());
                    let got = wheel.pop_keyed();
                    prop_assert_eq!(got, reference.pop_keyed());
                    if let Some((t, _, _)) = got {
                        now = t.as_nanos();
                    }
                }
            }
            prop_assert_eq!(wheel.len(), reference.len());
            prop_assert_eq!(wheel.is_empty(), reference.is_empty());
        }
        // Drain both to the end: the full tail must match too.
        loop {
            let got = wheel.pop_keyed();
            prop_assert_eq!(got, reference.pop_keyed());
            if got.is_none() {
                break;
            }
        }
    }

    /// Same-instant events pop FIFO by schedule order on both queues.
    #[test]
    fn simultaneous_events_stay_fifo(count in 1usize..200, time_ns in 0u64..(1 << 44)) {
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceEventQueue::new();
        let at = SimTime::from_nanos(time_ns);
        for i in 0..count {
            wheel.schedule(at, i);
            reference.schedule(at, i);
        }
        for i in 0..count {
            let got = wheel.pop();
            prop_assert_eq!(got, reference.pop());
            prop_assert_eq!(got, Some((at, i)));
        }
    }
}
