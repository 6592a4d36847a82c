//! City-scale expanding-ring behavior on the 5000-node field.
//!
//! The headline claim of the expanding-ring search: on a city-scale
//! topology where traffic is local (a few hops), TTL-staged discovery
//! spares almost the whole network from every RREQ flood. This test pins
//! the claim with the router counters — same topology, same local flows,
//! naive flooding vs [`AodvConfig::city`] — and asserts at least a 5×
//! reduction in RREQ rebroadcasts.
//!
//! Beside it, what a city costs per node: the radio state and record-table
//! entry every node occupies, the heap a freshly built network holds (none
//! beyond the medium's per-node arrays), which nodes hold a record
//! after a round (those whose MAC or router acted), and that the radios'
//! overflow store holds overlapping signals only while they overlap.

use mwn::trace::TraceEvent;
use mwn::{
    topology, AodvConfig, DataRate, FlowSpec, Network, NodeId, Scenario, SimDuration, SimTime,
    Transport,
};
use mwn_phy::{Medium, RangeModel};
use std::collections::BTreeSet;

/// What every node costs whatever it does: its radio state (32-byte
/// radio slot, energy-meter slot, two MAC bits) and its record-table
/// entry (`Network::fixed_bytes_per_node`).
const FIXED_BYTES: u64 = 46;

/// Picks `count` flows with endpoints exactly 3 hops apart, sources
/// spread across the node-id space. Expanding rings help when routes are
/// near — the city-locality case.
fn local_flows(t: &topology::Topology, count: usize) -> Vec<FlowSpec> {
    let n = t.len();
    let positions = t.positions();
    let mut flows = Vec::new();
    'src: for s in 0..count {
        let src = (s * n / count) as u32;
        for d in 0..n as u32 {
            // Geometric prefilter: 2.2–2.8 radio ranges away is almost
            // always 3 hops; confirm with BFS before accepting.
            let dist = positions[src as usize].distance_to(positions[d as usize]);
            if (550.0..700.0).contains(&dist)
                && t.hop_distance(NodeId(src), NodeId(d), 250.0) == Some(3)
            {
                flows.push(FlowSpec {
                    src: NodeId(src),
                    dst: NodeId(d),
                    transport: Transport::newreno(),
                });
                continue 'src;
            }
        }
    }
    assert_eq!(flows.len(), count, "every source found a 3-hop partner");
    flows
}

#[test]
fn expanding_ring_cuts_rreq_rebroadcasts_5x_on_random5k() {
    let topology = topology::random_large(5000, 42);
    let flows = local_flows(&topology, 3);
    let target = 30; // a few delivered packets per flow: discovery-dominated
    let deadline = SimTime::ZERO + SimDuration::from_secs(20);

    let run = |aodv: AodvConfig| {
        let mut scenario = Scenario::new(topology.clone(), flows.clone(), DataRate::MBPS_11, 42);
        scenario.aodv = aodv;
        let mut net = scenario.build();
        net.run_until_delivered(target, deadline);
        assert!(
            net.total_delivered() >= target,
            "only {} of {target} packets delivered",
            net.total_delivered()
        );
        net.totals().aodv
    };

    let flood = run(AodvConfig::default());
    let ring = run(AodvConfig::city());

    // Flooding forwards each RREQ through essentially all 5000 nodes;
    // ring searches stop at TTL 3 for these 3-hop destinations.
    assert!(
        flood.rreqs_forwarded >= 5 * ring.rreqs_forwarded.max(1),
        "expected ≥5× reduction: flood forwarded {}, ring forwarded {}",
        flood.rreqs_forwarded,
        ring.rreqs_forwarded
    );
    // The ring search is what suppressed the rebroadcasts (the flood
    // also clips a little: this field's diameter is comparable to the
    // 64-hop default TTL), and a flood really did sweep the city.
    assert!(
        ring.rreq_rebroadcasts_suppressed > flood.rreq_rebroadcasts_suppressed,
        "ring boundaries fired less than the flood's TTL clipping ({} vs {})",
        ring.rreq_rebroadcasts_suppressed,
        flood.rreq_rebroadcasts_suppressed
    );
    assert!(
        flood.rreqs_forwarded > 1000,
        "flood only forwarded {} RREQs — not city scale",
        flood.rreqs_forwarded
    );
}

/// The network's medium stores an effect list when its node transmits a
/// second time, not at set-up nor on its first transmission: a
/// 5000-node field starts with no list, and a static run (one epoch)
/// fills one one-shot list per node that put a frame on the air and
/// stores lists only for the nodes that put two or more there. The
/// expanding-ring discoveries make many nodes transmit exactly once
/// (a route request they forward), and those hold no list at the end.
#[test]
fn effect_lists_are_stored_on_second_transmission() {
    let topology = topology::random_large_giant(5000, 4242);
    let eager = Medium::new(topology.positions().to_vec(), RangeModel::paper());
    let flows = local_flows(&topology, 3);
    let mut scenario = Scenario::new(topology, flows, DataRate::MBPS_11, 4242);
    scenario.aodv = AodvConfig::city();
    let mut net = scenario.build();
    let c = net.medium_counters();
    assert_eq!((c.builds, c.rebuilds, c.queries), (0, 0, 0), "{c:?}");
    assert_eq!(net.medium_memory_bytes(), 0);

    net.enable_trace(1 << 20);
    net.run_until_delivered(20, SimTime::ZERO + SimDuration::from_secs(10));
    assert!(net.total_delivered() > 0, "the run proved nothing");
    assert_eq!(net.trace_dropped(), 0, "trace buffer overflowed");
    let mut transmissions = std::collections::BTreeMap::<NodeId, u64>::new();
    for r in net.trace() {
        if matches!(r.event, mwn::trace::TraceEvent::MacTx { .. }) {
            *transmissions.entry(r.node).or_default() += 1;
        }
    }
    let repeaters: Vec<NodeId> = transmissions
        .iter()
        .filter(|&(_, &count)| count >= 2)
        .map(|(&node, _)| node)
        .collect();
    let once = transmissions.len() - repeaters.len();
    let c = net.medium_counters();
    assert_eq!(c.one_shots, transmissions.len() as u64, "{c:?}");
    assert_eq!(c.builds, repeaters.len() as u64, "{c:?}");
    assert_eq!(c.rebuilds, 0, "{c:?}");
    assert!(
        once >= repeaters.len(),
        "the run lost its point: {once} nodes transmitted once, {} repeatedly",
        repeaters.len()
    );
    assert!(
        transmissions.len() < 5000 / 2,
        "most of the city never transmitted: {c:?}"
    );
    // The stored lists hold at least the repeaters' effects, and all of
    // them with the ring still fall short of what storing every
    // transmitter's list would take.
    let bytes = |nodes: &mut dyn Iterator<Item = &NodeId>| -> usize {
        nodes
            .map(|&n| std::mem::size_of_val(eager.effects_of(n)))
            .sum()
    };
    let held = net.medium_memory_bytes();
    assert!(held >= bytes(&mut repeaters.iter()), "{held} B");
    assert!(held < bytes(&mut transmissions.keys()), "{held} B");
}

/// Every node holds its radio state (radio slot, meter slot, two bits)
/// and one record-table entry. Its protocol state — MAC, router, timer
/// row — is built when its MAC or router first acts, and every per-node
/// table, queue and list allocates on first use: a freshly built
/// 20 000-node city holds no node record, and no per-node heap beyond the
/// medium's positions, list headers, epoch stamps and grid.
#[test]
fn city_network_starts_with_no_per_node_heap() {
    let fixed = Network::fixed_bytes_per_node();
    assert_eq!(fixed, FIXED_BYTES, "radio state and record-table entry");
    let topology = topology::random_large(20_000, 4242);
    let index = Medium::lazy(topology.positions().to_vec(), RangeModel::paper()).index_bytes();
    let flows = vec![FlowSpec {
        src: NodeId(0),
        dst: NodeId(19_999),
        transport: Transport::newreno(),
    }];
    let net = Scenario::new(topology, flows, DataRate::MBPS_11, 4242).build();
    assert_eq!(net.node_count(), 20_000);
    assert_eq!(net.node_records(), 0, "records at set-up");
    assert_eq!(
        net.bytes_per_node(),
        fixed + (index / 20_000) as u64,
        "per-node heap at set-up"
    );
}

/// After a round, the built records are exactly the nodes whose MAC or
/// router acted: the flow sources, whose routers sent, and every node
/// that received a frame intact. Every other node a signal reached — a
/// receiver of a transmission whose leading edge arrived by the end of the
/// round, or a decodable receiver at once (its energy meter counts the
/// whole frame) — holds only its radio state.
#[test]
fn node_records_are_the_nodes_whose_mac_or_router_acted() {
    let topology = topology::random_large_giant(20_000, 4242);
    let mut lists = Medium::lazy(topology.positions().to_vec(), RangeModel::paper());
    let flows = local_flows(&topology, 2);
    let sources: BTreeSet<NodeId> = flows.iter().map(|f| f.src).collect();
    let mut reached = sources.clone();
    let mut acted = sources;
    let mut scenario = Scenario::new(topology, flows, DataRate::MBPS_11, 4242);
    scenario.aodv = AodvConfig::city();
    let mut net = scenario.build();
    net.enable_trace(1 << 20);
    let end = SimTime::ZERO + SimDuration::from_millis(300);
    net.run_until(end);
    assert_eq!(net.trace_dropped(), 0, "trace buffer overflowed");
    for r in net.trace() {
        match r.event {
            TraceEvent::PhyRxOk => {
                acted.insert(r.node);
            }
            // Static field: the list is the one the frame went out with.
            TraceEvent::MacTx { .. } => {
                for e in lists.refresh(r.node) {
                    if e.class.decodable || r.time + e.delay <= end {
                        reached.insert(e.node);
                    }
                }
            }
            _ => {}
        }
    }
    assert!(acted.len() > 10, "the round proved nothing: {acted:?}");
    assert!(acted.is_subset(&reached));
    assert!(
        reached.len() < 20_000 / 4,
        "{} nodes reached",
        reached.len()
    );
    assert_eq!(net.node_records(), acted.len());
    assert!(
        3 * acted.len() < reached.len(),
        "{} of {} reached nodes acted",
        acted.len(),
        reached.len()
    );
}

/// A flood round — every node of the city rebroadcasts each route
/// request — puts many overlapping signals on the air at once. They live
/// in the radios' one overflow store only while they overlap: once no
/// frame is on the air, the store is empty.
#[test]
fn a_drained_flood_round_leaves_the_overflow_store_empty() {
    let topology = topology::random_large_giant(20_000, 4242);
    let flows = local_flows(&topology, 2);
    let mut net = Scenario::new(topology, flows, DataRate::MBPS_11, 3).build();
    net.enable_profiling();
    net.run_until_delivered(5, SimTime::ZERO + SimDuration::from_secs(10));
    assert!(net.total_delivered() >= 5, "the round proved nothing");
    let report = net.report();
    let forwarded = report.totals.node_totals().aodv.rreqs_forwarded;
    assert!(forwarded > 1000, "no city-scale flood: {forwarded} RREQs");
    let peak = report.profile.radio_overflow_peak;
    assert!(peak >= 100, "the flood overlapped only {peak} signals");
    let mut steps = 0;
    while net.frames_on_air() > 0 {
        assert!(steps < 1_000_000, "the air never drained");
        net.step();
        steps += 1;
    }
    assert_eq!(net.radio_overflow_len(), 0);
}
