//! Tier-1 tests for the open-loop traffic engine: slab reuse, FlowId
//! generation safety, and workload determinism across worker threads and
//! deadline subdivision.

use mwn::{
    topology, Arrival, DataRate, Scenario, SimDuration, SimTime, SizeDist, StepOutcome,
    TrafficClass, TrafficModel, TrafficSpec, Transport,
};
use std::collections::HashSet;

fn deadline(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// A chain scenario whose arrivals are paced well apart from transfer
/// times, so slots genuinely recycle.
fn paced_scenario(max_flows: u64, seed: u64) -> Scenario {
    let model = TrafficModel {
        classes: vec![TrafficClass {
            name: "short".into(),
            arrival: Arrival::Poisson { rate_fps: 4.0 },
            size: SizeDist::Fixed { packets: 3 },
            response: None,
        }],
        max_flows,
        zipf_skew: 0.5,
        diurnal: None,
    };
    let mut s = Scenario::new(topology::chain(3), Vec::new(), DataRate::MBPS_2, seed);
    s.traffic = Some(TrafficSpec {
        model,
        transport: Transport::newreno(),
    });
    s
}

#[test]
fn slab_recycles_slots_without_steady_state_growth() {
    let mut net = paced_scenario(120, 3).build();
    // Warm up through the first quarter of the workload, then record the
    // slab's high-water mark.
    net.run_until(deadline(10));
    let warm_slots = net.flow_count();
    assert!(warm_slots >= 1, "no flows spawned during warmup");
    assert_eq!(
        net.run_until_traffic_done(deadline(10_000)),
        StepOutcome::TargetReached
    );
    // Steady state: the remaining ~90 flows churned through recycled
    // slots. Allow a little growth for overlap jitter, but the slab must
    // not scale with the number of flows.
    assert!(
        net.flow_count() <= warm_slots + 6,
        "slab kept growing: {} slots at warmup, {} at the end",
        warm_slots,
        net.flow_count()
    );
    assert!(
        net.flow_count() < 30,
        "{} slots for 120 paced flows is not reuse",
        net.flow_count()
    );
    assert_eq!(net.live_flow_count(), 0);
}

#[test]
fn live_flow_ids_are_never_aliased() {
    let mut net = paced_scenario(80, 11).build();
    let mut seen: HashSet<u32> = HashSet::new();
    let mut current: Vec<Option<u32>> = Vec::new();
    while !net.traffic_done() {
        // Every step: one step can carry a whole wave, so a short flow
        // may open and close within a handful of them.
        net.step();
        current.resize(net.flow_count().max(current.len()), None);
        for (slot, cur) in current.iter_mut().enumerate() {
            let tenant = net.flow_at(slot).map(mwn::FlowId::raw);
            if tenant != *cur {
                if let Some(id) = tenant {
                    assert!(
                        seen.insert(id),
                        "flow id {id:#x} (slot {slot}) was issued twice"
                    );
                }
                *cur = tenant;
            }
        }
    }
    // Generations actually advanced: more distinct ids than slots.
    assert!(seen.len() as u64 >= 80, "only saw {} tenants", seen.len());
}

#[test]
fn traffic_digest_identical_across_worker_threads() {
    // The CLI's --jobs fan-out runs scenarios on arbitrary worker
    // threads; the workload must be a pure function of the seed.
    let digests: Vec<_> = std::thread::scope(|scope| {
        (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut net = paced_scenario(60, 17).build();
                    assert_eq!(
                        net.run_until_traffic_done(deadline(10_000)),
                        StepOutcome::TargetReached
                    );
                    (
                        net.traffic_digest().unwrap(),
                        net.traffic_arrival_digest().unwrap(),
                    )
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for d in &digests[1..] {
        assert_eq!(*d, digests[0], "digest diverged across threads");
    }
}

#[test]
fn digests_survive_deadline_subdivision() {
    let run_chunked = |chunks: u64| {
        let mut net = paced_scenario(50, 29).build();
        for c in 1..=chunks {
            net.run_until(deadline(20 * c / chunks));
        }
        assert_eq!(
            net.run_until_traffic_done(deadline(10_000)),
            StepOutcome::TargetReached
        );
        (
            net.traffic_arrival_digest().unwrap(),
            net.traffic_digest().unwrap(),
        )
    };
    let whole = run_chunked(1);
    assert_eq!(whole, run_chunked(4));
    assert_eq!(whole, run_chunked(13));
}

#[test]
fn open_loop_run_reports_per_class_percentiles() {
    // The acceptance-path shape in miniature: a web workload (with
    // response legs) over a connected random topology, driven to
    // completion, reporting non-degenerate FCT percentiles.
    let s = Scenario::open_loop(
        10,
        TrafficModel::web(150),
        Transport::newreno(),
        DataRate::MBPS_2,
        7,
    );
    let mut net = s.build();
    assert_eq!(
        net.run_until_traffic_done(deadline(20_000)),
        StepOutcome::TargetReached
    );
    let sum = net.traffic_summary().expect("open-loop run has a summary");
    assert_eq!(sum.arrivals(), 150);
    assert_eq!(sum.completions(), 150);
    let class = &sum.classes()[0];
    let p50 = class.fct().p50().expect("completions recorded");
    let p99 = class.fct().p99().expect("completions recorded");
    assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} p99 {p99}");
    // web always sends a response leg: every transaction journals a
    // request spawn, a response spawn and one completion.
    let (records, _) = net.traffic_digest().unwrap();
    assert_eq!(records, 3 * 150);
    assert_eq!(net.traffic_spawned(), 2 * 150);
}

/// Completing a flow recycles its slot and with it the per-flow TCP
/// counters; `retired_tcp_stats` is where they go. On a lossy run the
/// timeouts and retransmissions of finished flows must survive there.
#[test]
fn completed_flows_keep_their_tcp_statistics() {
    // Lossy: 10 nodes of web traffic at nominal load on 2 Mbit/s.
    let s = Scenario::open_loop(
        10,
        TrafficModel::web(150),
        Transport::newreno(),
        DataRate::MBPS_2,
        7,
    );
    let mut net = s.build();
    assert_eq!(net.retired_tcp_stats(), Some(Default::default()));
    assert_eq!(
        net.run_until_traffic_done(deadline(20_000)),
        StepOutcome::TargetReached
    );
    // Everything has completed: no live flow holds statistics any more.
    assert_eq!(net.live_flow_count(), 0);
    assert!((0..net.flow_count()).all(|slot| net.flow_at(slot).is_none()));

    let sum = net.traffic_summary().unwrap();
    let budgets: u64 = sum.classes().iter().map(|c| c.packets_completed()).sum();
    let (sender, sink) = net.retired_tcp_stats().unwrap();
    assert!(budgets > 150, "web flows carry more than a packet each");
    // Every completed leg delivered exactly its budget, in order…
    assert_eq!(sink.delivered, budgets);
    // …and sent each of those packets at least once as new data. (Not
    // exactly once: after a timeout's go-back-N, a late cumulative ACK
    // lets the sender re-send acknowledged sequence numbers as new.)
    let first_sends = sender.data_packets_sent - sender.retransmissions;
    assert!(first_sends >= budgets, "{first_sends} < {budgets}");
    assert!(
        sender.timeouts > 0 && sender.retransmissions > 0,
        "{sender:?}"
    );
    assert!(sink.acks_sent >= budgets / 2);

    // Without losses the identity is exact: one flow, one hop, nobody to
    // collide with.
    let mut quiet = paced_scenario(1, 3).build();
    assert_eq!(
        quiet.run_until_traffic_done(deadline(1_000)),
        StepOutcome::TargetReached
    );
    let (sender, sink) = quiet.retired_tcp_stats().unwrap();
    assert_eq!(sender.timeouts, 0);
    assert_eq!(sender.data_packets_sent - sender.retransmissions, 3);
    assert_eq!(sink.delivered, 3);

    // Scenarios without a workload have nothing to retire.
    let persistent = Scenario::chain(1, DataRate::MBPS_2, Transport::newreno(), 1).build();
    assert_eq!(persistent.retired_tcp_stats(), None);
}
