//! Node records built on first write against records built up front.
//!
//! A node's protocol state (radio, MAC, router, energy meter, timer row,
//! parked NAV) is built when a signal first reaches it, its random
//! streams drawn from the root by jump-ahead. `Network::set_eager_nodes`
//! builds every record at set-up instead, in node order, as the
//! sequential build did. The claim is that nothing observable depends on
//! which: trace, counter totals, the whole-network snapshot and the
//! energy sum agree bit for bit, on static, mobile and open-loop runs.

use mwn::mobility::RandomWaypoint;
use mwn::{
    topology, DataRate, MetricsSnapshot, Network, NetworkTotals, Scenario, SimDuration, SimTime,
    StepOutcome, TrafficModel, Transport,
};

/// Everything two equivalent runs must agree on.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: StepOutcome,
    now: SimTime,
    delivered: u64,
    trace: Vec<String>,
    totals: NetworkTotals,
    metrics: MetricsSnapshot,
    energy_bits: u64,
    traffic: Option<(u64, u64)>,
}

fn run(scenario: &Scenario, eager: bool, target: u64, secs: u64) -> (Observation, usize) {
    let mut net: Network = scenario.build();
    net.enable_trace(1 << 20);
    net.set_eager_nodes(eager);
    let deadline = SimTime::ZERO + SimDuration::from_secs(secs);
    let outcome = if scenario.traffic.is_some() {
        net.run_until_traffic_done(deadline)
    } else {
        net.run_until_delivered(target, deadline)
    };
    assert_eq!(net.trace_dropped(), 0, "trace buffer overflowed");
    assert!(net.total_delivered() > 0, "the run proved nothing");
    let observation = Observation {
        outcome,
        now: net.now(),
        delivered: net.total_delivered(),
        trace: net.trace().iter().map(|r| format!("{r:?}")).collect(),
        totals: net.totals(),
        metrics: net.collect_metrics(),
        energy_bits: net.total_energy_joules().to_bits(),
        traffic: net.traffic_digest(),
    };
    (observation, net.node_records())
}

/// Runs `scenario` both ways; returns the lazy run's record count.
fn assert_identical(name: &str, scenario: &Scenario, target: u64, secs: u64) -> usize {
    let (lazy, records) = run(scenario, false, target, secs);
    let (eager, all) = run(scenario, true, target, secs);
    assert_eq!(all, scenario.topology.len(), "{name}: eager built them all");
    assert!(
        lazy == eager,
        "{name}: lazy and eager node records diverged"
    );
    records
}

#[test]
fn chain8_is_identical_with_eager_records() {
    let s = Scenario::chain(8, DataRate::MBPS_2, Transport::newreno(), 3);
    let records = assert_identical("chain8", &s, 300, 120);
    assert_eq!(records, 9, "every chain node hears its neighbours");
}

#[test]
fn grid_is_identical_with_eager_records() {
    let s = Scenario::grid6(DataRate::MBPS_11, Transport::vegas(2), 5);
    assert_identical("grid6", &s, 300, 120);
}

#[test]
fn random200_mobility_is_identical_with_eager_records() {
    let mut s = Scenario::random_large(200, DataRate::MBPS_2, Transport::newreno(), 4242);
    let (width, height) = topology::random_large_dims(200);
    s.mobility = Some(RandomWaypoint {
        width,
        height,
        ..RandomWaypoint::strip(10.0, SimDuration::from_secs(2))
    });
    assert_identical("random200-mobility", &s, 200, 120);
}

#[test]
fn open_loop_churn_is_identical_with_eager_records() {
    let s = Scenario::open_loop(
        20,
        TrafficModel::web(60).with_load(0.2),
        Transport::newreno(),
        DataRate::MBPS_11,
        2,
    );
    assert_identical("churn", &s, 0, 3_000);
}
