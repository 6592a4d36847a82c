//! Multi-router integration tests over ideal links.
//!
//! Wires several [`Router`]s together with an instantaneous, lossless
//! link layer so the protocol logic — discovery across several hops, RREP
//! forwarding, RERR cascades, rediscovery after failures — can be tested
//! without the 802.11 stack.

use std::collections::VecDeque;

use mwn_aodv::{AodvAction, AodvConfig, Router};
use mwn_pkt::{Body, FlowId, NodeId, Packet, TcpSegment};
use mwn_sim::{Pcg32, SimDuration, SimTime};

/// A little world of routers on a line: node i hears nodes i−1 and i+1.
struct Line {
    routers: Vec<Router>,
    now: SimTime,
    /// Packets delivered to each node's transport layer.
    delivered: Vec<Vec<Packet>>,
    /// Work queue of (receiving node, transmitting neighbor, packet).
    in_flight: VecDeque<(usize, usize, Packet)>,
    /// Pending discovery timers (node, dst, fire time).
    timers: Vec<(usize, NodeId, SimTime)>,
}

impl Line {
    fn new(n: usize) -> Self {
        let routers = (0..n)
            .map(|i| {
                Router::new(
                    NodeId(i as u32),
                    AodvConfig::default(),
                    Pcg32::new(i as u64),
                    (i as u64) << 32,
                )
            })
            .collect();
        Line {
            routers,
            now: SimTime::ZERO,
            delivered: vec![Vec::new(); n],
            in_flight: VecDeque::new(),
            timers: Vec::new(),
        }
    }

    fn chain_neighbors(&self, i: usize) -> Vec<usize> {
        let mut v = Vec::new();
        if i > 0 {
            v.push(i - 1);
        }
        if i + 1 < self.routers.len() {
            v.push(i + 1);
        }
        v
    }

    fn apply(&mut self, node: usize, actions: Vec<AodvAction>) {
        for a in actions {
            match a {
                AodvAction::Send {
                    packet, next_hop, ..
                } => {
                    if next_hop.is_broadcast() {
                        for n in self.chain_neighbors(node) {
                            self.in_flight.push_back((n, node, packet.clone()));
                        }
                    } else {
                        let hop = next_hop.index();
                        assert!(
                            self.chain_neighbors(node).contains(&hop),
                            "n{node} routed to non-neighbor {next_hop}"
                        );
                        self.in_flight.push_back((hop, node, packet));
                    }
                }
                AodvAction::Deliver(p) => self.delivered[node].push(p),
                AodvAction::SetDiscoveryTimer { dst, delay } => {
                    self.timers.retain(|(n, d, _)| !(*n == node && *d == dst));
                    self.timers.push((node, dst, self.now + delay));
                }
                AodvAction::CancelDiscoveryTimer { dst } => {
                    self.timers.retain(|(n, d, _)| !(*n == node && *d == dst));
                }
                AodvAction::Drop { .. }
                | AodvAction::NotifyRouteFailure { .. }
                | AodvAction::RouteInstalled { .. }
                | AodvAction::RouteLost { .. } => {}
            }
        }
    }

    /// Processes all in-flight packets until the network settles.
    fn settle(&mut self) {
        let mut budget = 100_000;
        while let Some((to, from, packet)) = self.in_flight.pop_front() {
            budget -= 1;
            assert!(budget > 0, "message storm never settled");
            let mut actions = Vec::new();
            self.routers[to].on_received(self.now, NodeId(from as u32), packet, &mut actions);
            self.apply(to, actions);
        }
    }

    /// Fires the earliest pending discovery timer, if any.
    fn fire_next_timer(&mut self) -> bool {
        self.timers.sort_by_key(|&(_, _, t)| t);
        if self.timers.is_empty() {
            return false;
        }
        let (node, dst, at) = self.timers.remove(0);
        self.now = self.now.max(at);
        let mut actions = Vec::new();
        self.routers[node].on_discovery_timeout(self.now, dst, &mut actions);
        self.apply(node, actions);
        self.settle();
        true
    }

    fn send_data(&mut self, from: usize, to: usize, uid: u64) {
        let p = Packet::new(
            uid,
            NodeId(from as u32),
            NodeId(to as u32),
            Body::Tcp(TcpSegment::data(FlowId(0), uid)),
        );
        let mut actions = Vec::new();
        self.routers[from].send(self.now, p, &mut actions);
        self.apply(from, actions);
        self.settle();
    }
}

#[test]
fn five_hop_discovery_and_delivery() {
    let mut line = Line::new(6);
    line.send_data(0, 5, 1);
    assert_eq!(
        line.delivered[5].len(),
        1,
        "packet must reach node 5 after discovery"
    );
    // Forward route installed everywhere along the path.
    for i in 0..5 {
        let r = line.routers[i]
            .table()
            .active(NodeId(5), line.now)
            .expect("route to 5");
        assert_eq!(r.next_hop, NodeId(i as u32 + 1));
    }
    // Reverse routes to the originator exist too (from the RREQ flood).
    for i in 1..6 {
        let r = line.routers[i]
            .table()
            .active(NodeId(0), line.now)
            .expect("route to 0");
        assert_eq!(r.next_hop, NodeId(i as u32 - 1));
    }
}

#[test]
fn second_packet_needs_no_flood() {
    let mut line = Line::new(5);
    line.send_data(0, 4, 1);
    let floods_after_first = line.routers[0].counters().rreqs_originated;
    line.send_data(0, 4, 2);
    assert_eq!(line.delivered[4].len(), 2);
    assert_eq!(
        line.routers[0].counters().rreqs_originated,
        floods_after_first,
        "an established route must be reused"
    );
}

#[test]
fn reply_path_works_immediately() {
    let mut line = Line::new(6);
    line.send_data(0, 5, 1);
    // Node 5 answers without any discovery: the reverse route from the
    // RREQ flood carries it.
    let floods_before = line.routers[5].counters().rreqs_originated;
    line.send_data(5, 0, 2);
    assert_eq!(line.delivered[0].len(), 1);
    assert_eq!(line.routers[5].counters().rreqs_originated, floods_before);
}

#[test]
fn link_failure_invalidates_and_rediscovers() {
    let mut line = Line::new(5);
    line.send_data(0, 4, 1);
    // The MAC reports node 1 unreachable from node 0.
    let victim = Packet::new(
        9,
        NodeId(0),
        NodeId(4),
        Body::Tcp(TcpSegment::data(FlowId(0), 9)),
    );
    let mut actions = Vec::new();
    line.routers[0].on_tx_confirm(line.now, NodeId(1), victim, false, &mut actions);
    line.apply(0, actions);
    line.settle();
    assert_eq!(line.routers[0].counters().false_route_failures, 1);
    assert!(
        line.routers[0]
            .table()
            .active(NodeId(4), line.now)
            .is_none(),
        "route through the failed hop must be invalidated"
    );
    // The next send triggers a fresh discovery and succeeds (the static
    // line is intact; the failure was false).
    line.send_data(0, 4, 2);
    while line.delivered[4].len() < 2 && line.fire_next_timer() {}
    assert_eq!(
        line.delivered[4].len(),
        2,
        "rediscovery must repair the path"
    );
}

#[test]
fn rerr_from_midpath_reaches_the_source() {
    let mut line = Line::new(6);
    line.send_data(0, 5, 1);
    // Node 3 loses its link towards node 4.
    let victim = Packet::new(
        9,
        NodeId(0),
        NodeId(5),
        Body::Tcp(TcpSegment::data(FlowId(0), 9)),
    );
    let mut actions = Vec::new();
    line.routers[3].on_tx_confirm(line.now, NodeId(4), victim, false, &mut actions);
    line.apply(3, actions);
    line.settle();
    // The RERR cascade must invalidate the stale route at the source.
    assert!(
        line.routers[0]
            .table()
            .active(NodeId(5), line.now)
            .is_none(),
        "source must learn about the broken path"
    );
}

#[test]
fn unreachable_destination_gives_up_after_retries() {
    // Node 9 does not exist: discovery must exhaust its retries and stop.
    let mut line = Line::new(3);
    let p = Packet::new(
        1,
        NodeId(0),
        NodeId(9),
        Body::Tcp(TcpSegment::data(FlowId(0), 0)),
    );
    let mut actions = Vec::new();
    line.routers[0].send(line.now, p, &mut actions);
    line.apply(0, actions);
    line.settle();
    let mut fired = 0;
    while line.fire_next_timer() {
        fired += 1;
        assert!(fired < 10, "discovery retries must terminate");
    }
    assert_eq!(line.routers[0].counters().no_route_drops, 1);
    assert_eq!(
        line.routers[0].counters().rreqs_originated,
        3,
        "initial flood plus two retries"
    );
}

#[test]
fn concurrent_discoveries_do_not_interfere() {
    let mut line = Line::new(7);
    line.send_data(0, 6, 1);
    line.send_data(6, 0, 2);
    line.send_data(3, 0, 3);
    line.send_data(3, 6, 4);
    assert_eq!(line.delivered[6].len(), 2);
    assert_eq!(line.delivered[0].len(), 2);
}

#[test]
fn ttl_limits_flood_depth() {
    // With the default TTL of 64 and only 6 nodes, floods always reach;
    // this checks the forwarded RREQ count stays linear in nodes (each
    // node rebroadcasts a given RREQ at most once).
    let mut line = Line::new(6);
    line.send_data(0, 5, 1);
    let total_forwards: u64 = line
        .routers
        .iter()
        .map(|r| r.counters().rreqs_forwarded)
        .sum();
    assert!(
        total_forwards <= 5,
        "each intermediate node forwards the flood at most once, got {total_forwards}"
    );
}

#[test]
fn routes_expire_without_traffic() {
    let mut line = Line::new(4);
    line.send_data(0, 3, 1);
    assert!(line.routers[0]
        .table()
        .active(NodeId(3), line.now)
        .is_some());
    // Idle past the active-route lifetime.
    line.now += SimDuration::from_secs(11);
    assert!(
        line.routers[0]
            .table()
            .active(NodeId(3), line.now)
            .is_none(),
        "route must expire after 10 s idle"
    );
    // A new send rediscovers.
    line.send_data(0, 3, 2);
    assert_eq!(line.delivered[3].len(), 2);
}
