//! End-to-end integration tests: every transport variant over every
//! topology family, driven through the full PHY / MAC / AODV / TCP stack.

use mwn::{experiment, ExperimentScale, FlowId, NodeId, Scenario, SimDuration, SimTime, Transport};
use mwn_phy::DataRate;

fn deadline(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

fn smoke() -> ExperimentScale {
    ExperimentScale::smoke()
}

#[test]
fn every_variant_delivers_on_the_chain() {
    for (name, t) in [
        ("vegas", Transport::vegas(2)),
        ("vegas-thin", Transport::vegas_thinning(2)),
        ("newreno", Transport::newreno()),
        ("newreno-thin", Transport::newreno_thinning()),
        ("optwin", Transport::newreno_optimal_window(3)),
        ("udp", Transport::paced_udp(SimDuration::from_millis(40))),
    ] {
        let mut net = Scenario::chain(5, DataRate::MBPS_2, t, 7).build();
        let outcome = net.run_until_delivered(100, deadline(300));
        assert_eq!(
            outcome,
            mwn::StepOutcome::TargetReached,
            "{name} failed to deliver 100 packets on a 5-hop chain"
        );
    }
}

#[test]
fn every_bandwidth_works() {
    for bw in [DataRate::MBPS_2, DataRate::MBPS_5_5, DataRate::MBPS_11] {
        let r = experiment::run(&Scenario::chain(3, bw, Transport::vegas(2), 3), smoke());
        assert!(
            r.aggregate_goodput_kbps.mean > 50.0,
            "goodput at {bw} too low: {}",
            r.aggregate_goodput_kbps.mean
        );
    }
}

#[test]
fn grid_all_flows_progress() {
    let mut net = Scenario::grid6(DataRate::MBPS_11, Transport::vegas_thinning(2), 5).build();
    net.run_until_delivered(1500, deadline(900));
    let progressing = (0..6)
        .filter(|&i| net.flow_delivered(FlowId(i)) > 0)
        .count();
    assert!(
        progressing >= 5,
        "with ACK thinning at least 5 of 6 grid flows must progress, got {progressing}"
    );
}

#[test]
fn random_topology_aggregate_progress() {
    let mut net = Scenario::random10(DataRate::MBPS_11, Transport::vegas(2), 11).build();
    let outcome = net.run_until_delivered(300, deadline(900));
    assert_eq!(outcome, mwn::StepOutcome::TargetReached);
    // At least half the flows should see traffic even in an unfair run.
    let progressing = (0..10)
        .filter(|&i| net.flow_delivered(FlowId(i)) > 0)
        .count();
    assert!(progressing >= 5, "only {progressing}/10 flows progressed");
}

#[test]
fn long_chain_works() {
    let mut net = Scenario::chain(20, DataRate::MBPS_2, Transport::vegas(2), 9).build();
    let outcome = net.run_until_delivered(60, deadline(600));
    assert_eq!(outcome, mwn::StepOutcome::TargetReached);
}

#[test]
fn route_replies_cannot_livelock_the_chain() {
    // Two neighbours whose reverse routes point at each other must not
    // pass one route reply back and forth forever: without a TTL on the
    // reply, this seed's flow stalls after about 7 100 packets.
    let mut net = Scenario::chain(8, DataRate::MBPS_2, Transport::newreno(), 4).build();
    let outcome = net.run_until_delivered(8000, deadline(1500));
    assert_eq!(outcome, mwn::StepOutcome::TargetReached);
}

#[test]
fn experiment_results_are_reproducible() {
    let run = || {
        let r = experiment::run(
            &Scenario::chain(4, DataRate::MBPS_2, Transport::newreno(), 17),
            smoke(),
        );
        (
            r.aggregate_goodput_kbps.mean.to_bits(),
            r.per_flow[0].retx_per_packet.mean.to_bits(),
            r.false_route_failures,
            r.packets_measured,
        )
    };
    assert_eq!(
        run(),
        run(),
        "same scenario + seed must give identical results"
    );
}

#[test]
fn seeds_change_results() {
    let gp = |seed| {
        experiment::run(
            &Scenario::chain(4, DataRate::MBPS_2, Transport::newreno(), seed),
            smoke(),
        )
        .aggregate_goodput_kbps
        .mean
    };
    assert_ne!(gp(1).to_bits(), gp(2).to_bits());
}

#[test]
fn two_way_tcp_traffic_on_shared_chain() {
    let topology = mwn::topology::chain(6);
    let flows = vec![
        mwn::FlowSpec {
            src: NodeId(0),
            dst: NodeId(6),
            transport: Transport::vegas(2),
        },
        mwn::FlowSpec {
            src: NodeId(6),
            dst: NodeId(0),
            transport: Transport::vegas(2),
        },
    ];
    let mut net = Scenario::new(topology, flows, DataRate::MBPS_2, 23).build();
    net.run_until_delivered(200, deadline(600));
    assert!(net.flow_delivered(FlowId(0)) > 20);
    assert!(net.flow_delivered(FlowId(1)) > 20);
}

#[test]
fn udp_goodput_tracks_offered_load_when_underloaded() {
    // 100 ms gap on a short chain: everything should arrive.
    let gap = SimDuration::from_millis(100);
    let mut net = Scenario::chain(3, DataRate::MBPS_2, Transport::paced_udp(gap), 3).build();
    net.run_until(deadline(20));
    let delivered = net.flow_delivered(FlowId(0));
    assert!(
        (150..=200).contains(&delivered),
        "expected ~195 of 200 offered packets, got {delivered}"
    );
}

#[test]
fn deadline_truncates_infeasible_runs() {
    let scale = ExperimentScale {
        batch_packets: 1_000_000,
        batches: 2,
        deadline: SimDuration::from_secs(2),
    };
    let r = experiment::run(
        &Scenario::chain(3, DataRate::MBPS_2, Transport::vegas(2), 5),
        scale,
    );
    assert!(matches!(r.outcome, mwn::RunOutcome::Truncated { .. }));
}

#[test]
fn mobile_network_delivers_and_elfn_freezes_instead_of_backing_off() {
    use mwn::mobility::RandomWaypoint;

    let build = |elfn: bool| {
        let topo = mwn::topology::random(20, 1200.0, 300.0, 250.0, 9);
        let flows = vec![mwn::FlowSpec {
            src: NodeId(0),
            dst: NodeId(11),
            transport: Transport::newreno(),
        }];
        let mut sc = Scenario::new(topo, flows, DataRate::MBPS_2, 9);
        sc.mobility = Some(RandomWaypoint::strip(10.0, SimDuration::from_secs(0)));
        sc.aodv.elfn = elfn;
        sc
    };

    // Both variants must make progress under mobility.
    for elfn in [false, true] {
        let mut net = build(elfn).build();
        net.run_until(deadline(120));
        assert!(
            net.flow_delivered(FlowId(0)) > 50,
            "elfn={elfn}: only {} packets in 120 s of a mobile run",
            net.flow_delivered(FlowId(0))
        );
    }
}

#[test]
fn mobility_changes_outcomes_but_stays_deterministic() {
    use mwn::mobility::RandomWaypoint;

    let run = |mobile: bool| {
        let topo = mwn::topology::random(15, 1000.0, 300.0, 250.0, 4);
        let flows = vec![mwn::FlowSpec {
            src: NodeId(0),
            dst: NodeId(9),
            transport: Transport::vegas(2),
        }];
        let mut sc = Scenario::new(topo, flows, DataRate::MBPS_2, 4);
        if mobile {
            sc.mobility = Some(RandomWaypoint::strip(15.0, SimDuration::from_secs(0)));
        }
        let mut net = sc.build();
        net.run_until(deadline(60));
        net.flow_delivered(FlowId(0))
    };
    assert_eq!(run(true), run(true), "mobile runs must be deterministic");
    assert_ne!(run(true), run(false), "mobility must change the outcome");
}
