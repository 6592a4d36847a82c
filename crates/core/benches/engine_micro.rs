//! Criterion micro-benchmarks of the simulation engine itself: event
//! queue, RNG, and end-to-end events-per-second of a realistic scenario.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mwn::{Scenario, SimDuration, SimTime, Transport};
use mwn_phy::DataRate;
use mwn_sim::{EventQueue, Pcg32, SimTime as T};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_1k", |b| {
        let mut rng = Pcg32::new(7);
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                for i in 0..1000u64 {
                    q.schedule(T::from_nanos(rng.next_u64() % 1_000_000), i);
                }
                q
            },
            |mut q| {
                while q.pop().is_some() {}
                q
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("event_queue_cancel_heavy", |b| {
        let mut rng = Pcg32::new(9);
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                let ids: Vec<_> = (0..1000u64)
                    .map(|i| q.schedule(T::from_nanos(rng.next_u64() % 1_000_000), i))
                    .collect();
                (q, ids)
            },
            |(mut q, ids)| {
                for id in ids.iter().step_by(2) {
                    q.cancel(*id);
                }
                while q.pop().is_some() {}
                q
            },
            BatchSize::SmallInput,
        )
    });

    // The hold model at a chain's depth: pop the next event, schedule one
    // at a delay from the mix an 8-hop chain schedules, 1 000 times.
    c.bench_function("event_queue_hold_chain_mix_100", |b| {
        let mut rng = Pcg32::new(11);
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(T::from_nanos(chain_mix_delay(&mut rng)), i);
        }
        b.iter(|| {
            for _ in 0..1000 {
                let (now, i) = q.pop().expect("the hold model never drains");
                q.schedule(T::from_nanos(now.as_nanos() + chain_mix_delay(&mut rng)), i);
            }
        })
    });
}

/// A delay in ns drawn from the schedule mix of an 8-hop chain: 7 % within
/// 1.024 µs, 34 % under 65 µs, 53 % under 4.2 ms and 6 % under 268 ms.
fn chain_mix_delay(rng: &mut Pcg32) -> u64 {
    let (lo, hi) = match rng.gen_range_u32(100) {
        0..=6 => (0, 1_024),
        7..=40 => (1_024, 65_536),
        41..=93 => (65_536, 4_194_304),
        _ => (4_194_304, 268_435_456),
    };
    lo + rng.gen_range_u64(hi - lo)
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("pcg32_next_u32_x1k", |b| {
        let mut rng = Pcg32::new(3);
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u32());
            }
            acc
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.bench_function("chain4_newreno_200pkts", |b| {
        b.iter(|| {
            let s = Scenario::chain(4, DataRate::MBPS_2, Transport::newreno(), 11);
            let mut net = s.build();
            net.run_until_delivered(200, SimTime::ZERO + SimDuration::from_secs(300));
            net.total_delivered()
        })
    });
    g.bench_function("grid6_vegas_200pkts", |b| {
        b.iter(|| {
            let s = Scenario::grid6(DataRate::MBPS_11, Transport::vegas(2), 11);
            let mut net = s.build();
            net.run_until_delivered(200, SimTime::ZERO + SimDuration::from_secs(300));
            net.total_delivered()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_event_queue, bench_rng, bench_end_to_end);
criterion_main!(benches);
