//! Node records built when a MAC or router first acts, against records
//! built up front and against MACs handed every radio batch.
//!
//! Every node has its radio state from set-up on (transceiver, energy
//! meter); its protocol state (MAC, router, timer row, parked NAV) is
//! built when its MAC or router first acts, its random streams drawn
//! from the root by jump-ahead. Until then — and whenever its MAC has
//! nothing to do — a batch of radio events without an intact reception
//! stops at the radio. `Network::set_eager_nodes` builds every record at
//! set-up instead, in node order, as the sequential build did;
//! `Network::set_eager_mac` hands every batch to the MAC. The claim is
//! that nothing observable but the record count depends on either:
//! trace, counter totals, the whole-network snapshot, the drop report
//! and the energy sum agree bit for bit, on static, mobile and
//! open-loop runs.

use mwn::mobility::RandomWaypoint;
use mwn::{
    topology, DataRate, FlowSpec, MetricsSnapshot, Network, NetworkTotals, NodeId, Position,
    Scenario, SimDuration, SimTime, StepOutcome, TrafficModel, Transport,
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
    drops: String,
    energy_bits: u64,
    traffic: Option<(u64, u64)>,
}

/// Which oracle a run switches on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Engine {
    Default,
    EagerNodes,
    EagerMac,
}

fn run(scenario: &Scenario, engine: Engine, target: u64, secs: u64) -> (Observation, usize) {
    let mut net: Network = scenario.build();
    net.enable_trace(1 << 20);
    net.set_eager_nodes(engine == Engine::EagerNodes);
    net.set_eager_mac(engine == Engine::EagerMac);
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
        drops: net.drop_report().to_json(),
        energy_bits: net.total_energy_joules().to_bits(),
        traffic: net.traffic_digest(),
    };
    (observation, net.node_records())
}

/// Runs `scenario` under all three engines; returns the record counts of
/// the default and the eager-MAC runs.
fn assert_identical(name: &str, scenario: &Scenario, target: u64, secs: u64) -> (usize, usize) {
    let (lazy, records) = run(scenario, Engine::Default, target, secs);
    let (eager, all) = run(scenario, Engine::EagerNodes, target, secs);
    let (batched, reached) = run(scenario, Engine::EagerMac, target, secs);
    assert_eq!(all, scenario.topology.len(), "{name}: eager built them all");
    assert!(
        lazy == eager,
        "{name}: lazy and eager node records diverged"
    );
    assert!(
        lazy == batched,
        "{name}: absorbed and delivered batches diverged"
    );
    assert!(records <= reached, "{name}: {records} records > {reached}");
    (records, reached)
}

#[test]
fn chain8_is_identical_with_eager_records() {
    let s = Scenario::chain(8, DataRate::MBPS_2, Transport::newreno(), 3);
    let records = assert_identical("chain8", &s, 300, 120);
    assert_eq!(records, (9, 9), "every chain node forwards");
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

/// A node that only ever senses (500 m from the source, 300 m from the
/// sink: inside the 550 m carrier-sense range, outside the 250 m decode
/// range of both) gets no record, yet its radio still counts every
/// undecodable frame it locked onto and its meter still runs: the
/// snapshot, the drop report and the energy sum carry both, as they do
/// when its MAC is handed every batch.
#[test]
fn a_sense_only_node_has_no_record_but_counts_and_meters() {
    let at = |x| Position::new(x, 0.0);
    let topology = mwn::topology::Topology::from_positions(vec![at(0.0), at(200.0), at(500.0)]);
    let flows = vec![FlowSpec {
        src: NodeId(0),
        dst: NodeId(1),
        transport: Transport::newreno(),
    }];
    let s = Scenario::new(topology, flows, DataRate::MBPS_2, 7);
    let (records, reached) = assert_identical("sense-only", &s, 100, 60);
    assert_eq!((records, reached), (2, 3), "the sensing node acted never");

    let (lazy, _) = run(&s, Engine::Default, 100, 60);
    let phy = lazy.metrics.nodes[2].phy;
    assert!(phy.undecoded > 0, "node 2 locked onto nothing: {phy:?}");
    let mut net = s.build();
    net.run_until_delivered(100, SimTime::ZERO + SimDuration::from_secs(60));
    let idle = 0.74 * net.now().as_secs_f64();
    let energy = net.node_energy_joules(NodeId(2));
    assert!(
        (energy - idle).abs() < 1e-9,
        "sensing draws idle power only"
    );
    assert!(net.total_energy_joules() > 3.0 * idle);
    let ledger = net.drop_report();
    let undecodable = mwn_obs::DropReason::PhyUndecodable;
    assert_eq!(ledger.node_counts(2)[undecodable.index()], phy.undecoded);
}
