//! The event cascade: one event's fan-out through the layers.
//!
//! Handling one event (a signal edge, a timer, a delivered packet) fans
//! out PHY → MAC → AODV → transport → back down to the MAC. Each layer is
//! a state machine that returns *actions*; the methods here apply them —
//! to the next layer up or down, to the event queue and the timer tables,
//! and to the side-band records (trace, probes, ledger, audit, flight
//! recorder). A cascade only ever touches the *current node's* protocol
//! state plus flow halves anchored at that node.
//!
//! # Signal edges arrive as waves
//!
//! A transmission reaches every node within interference range, each a
//! propagation delay later. [`Network::start_tx`] does not schedule
//! those arrivals one by one: it snapshots the receivers into the
//! transmission's frame-slab slot in arrival order
//! ([`FrameSlab::insert`](super::frames::FrameSlab::insert)) and
//! schedules one `Event::Wave` for the leading edge and one for the
//! trailing edge. The network loop walks the snapshot in place,
//! advancing the clock per receiver and calling
//! [`Network::signal_edge`] — the same per-receiver cascade as ever.
//!
//! The global order is *exactly* what per-receiver events would give.
//! `start_tx` reserves the `2 · n` sequence numbers those events would
//! have drawn, a wave event is always queued under its next receiver's
//! own `(time, seq)` key, and the walk only continues to a receiver
//! without going back through the queue when nothing else is pending at
//! or before that receiver's time ([`Network::walk_wave`] picks the
//! segment and walks it, and carries the lookahead argument for why one
//! peek covers it).

use mwn_aodv::{AodvAction, AodvDropReason};
use mwn_mac80211::{MacAction, MacDropReason, MacTimer};
use mwn_obs::flight::{FlightKind, FlightRecord, NO_REASON};
use mwn_obs::{DropReason, ProbeKind};
use mwn_phy::{RadioEvent, SignalClass, TxId};
use mwn_pkt::{Body, FlowId, MacFrame, NodeId, Packet};
use mwn_sim::stats::TimeWeightedAverage;
use mwn_sim::SimTime;
use mwn_tcp::{TcpSender, TcpSink, TransportAction, TransportTimer};

use crate::scenario::Transport;
use crate::trace::{TraceEvent, TraceRecord};

use super::flows::{FlowDst, FlowMeta, FlowSrc};
use super::frames::WaveRx;
use super::{
    fnv_mix, transport_flow, Event, Network, Role, SinkAgent, SourceAgent, JOURNAL_ARRIVAL,
    JOURNAL_COMPLETION, PERSISTENT,
};

/// Recycled action/event buffers. Dispatch re-enters (a delivered frame
/// can trigger a new send), so each taker pops its own buffer and the
/// apply path returns it once drained — the steady state allocates
/// nothing.
#[derive(Debug, Default)]
pub(super) struct Pools {
    pub mac: Vec<Vec<MacAction>>,
    pub aodv: Vec<Vec<AodvAction>>,
    pub transport: Vec<Vec<TransportAction>>,
    pub radio: Vec<Vec<RadioEvent>>,
    /// Scratch for the ELFN route-failure fanout.
    pub flow_scratch: Vec<FlowId>,
}

impl Network {
    /// Dispatch for every event kind except the two the network loop
    /// handles itself: `MobilityTick` (it moves the medium) and `Wave`
    /// (it walks the receiver list, calling [`Self::signal_edge`]).
    pub(super) fn handle_event(&mut self, event: Event) {
        match event {
            Event::TxEnd { node } => self.tx_end(node),
            Event::Mac { node, timer } => {
                // The id just fired: forget it, nothing to cancel.
                self.mac_timers[node.index()][timer.index()] = None;
                let mut actions = self.pools.mac.pop().unwrap_or_default();
                self.macs[node.index()].on_timer(self.now, timer, &mut actions);
                self.apply_mac_actions(node, actions);
            }
            Event::AodvSend {
                node,
                next_hop,
                packet,
            } => {
                let mut actions = self.pools.mac.pop().unwrap_or_default();
                self.macs[node.index()].enqueue(self.now, next_hop, packet, &mut actions);
                self.apply_mac_actions(node, actions);
            }
            Event::AodvDiscovery { node, dst } => {
                self.discovery_timers[node.index()].remove(dst);
                let mut actions = self.pools.aodv.pop().unwrap_or_default();
                self.routers[node.index()].on_discovery_timeout(self.now, dst, &mut actions);
                self.apply_aodv_actions(node, actions);
            }
            Event::Transport { flow, role, timer } => {
                // A completed traffic flow cancels its timers, so a stale
                // generation firing here should be impossible — but if one
                // ever slipped through, clearing the slot would wipe the
                // next tenant's timer id, so guard anyway.
                if self.flows.meta(flow).is_some() {
                    let timers = &mut self.transport_timers[flow.slot() as usize];
                    timers[role.index()][timer.index()] = None;
                    self.dispatch_transport_timer(flow, role, timer);
                }
            }
            Event::FlowStart { flow } => self.flow_start(flow),
            Event::TrafficArrival { class } => self.handle_traffic_arrival(class),
            Event::Wave { .. } | Event::MobilityTick => {
                unreachable!("waves and mobility ticks are handled by the network loop")
            }
        }
    }

    /// One receiver's share of a wave: the leading (`end = false`) or
    /// trailing edge of transmission `tx` arriving at `rx.node`. The
    /// caller has already set [`Self::now`] to the arrival time.
    pub(super) fn signal_edge(&mut self, rx: &WaveRx, tx: TxId, end: bool) {
        if end {
            self.signal_end(rx.node, tx);
        } else {
            self.signal_start(rx.node, tx, rx.class);
        }
    }

    fn signal_start(&mut self, node: NodeId, tx: TxId, class: SignalClass) {
        let mut evs = self.pools.radio.pop().unwrap_or_default();
        self.transceivers[node.index()].signal_start(tx, class, &mut evs);
        self.process_radio_events(node, evs);
    }

    fn signal_end(&mut self, node: NodeId, tx: TxId) {
        let mut evs = self.pools.radio.pop().unwrap_or_default();
        self.transceivers[node.index()].signal_end(tx, &mut evs);
        self.process_radio_events(node, evs);
        self.frames.release(tx);
    }

    fn tx_end(&mut self, node: NodeId) {
        let mut evs = self.pools.radio.pop().unwrap_or_default();
        self.transceivers[node.index()].tx_end(&mut evs);
        let mut actions = self.pools.mac.pop().unwrap_or_default();
        self.macs[node.index()].on_tx_done(self.now, &mut actions);
        self.apply_mac_actions(node, actions);
        self.process_radio_events(node, evs);
    }

    /// One open-loop arrival: draw the flow, reschedule the class's next
    /// arrival, and spawn the request leg.
    fn handle_traffic_arrival(&mut self, class: usize) {
        let Some(t) = self.traffic.as_mut() else {
            return;
        };
        if t.engine.exhausted() {
            return;
        }
        let draw = t.engine.draw(class);
        let response = t.engine.response_packets(class);
        let next =
            (!t.engine.exhausted()).then(|| t.engine.next_gap(class, self.now.as_secs_f64()));
        t.fct.class_mut(class).record_arrival();
        if let Some(gap) = next {
            self.queue
                .schedule(self.now + gap, Event::TrafficArrival { class });
        }
        self.spawn_traffic_flow(
            class as u32,
            NodeId(draw.src),
            NodeId(draw.dst),
            draw.packets,
            response,
            self.now,
            0,
        );
    }

    /// Admits one traffic leg into the slab: reuses a vacated slot (or
    /// grows the slab and its timer table once, at the high-water mark),
    /// builds the TCP pair with an app-limited budget, journals the
    /// spawn and starts the sender immediately.
    #[allow(clippy::too_many_arguments)]
    fn spawn_traffic_flow(
        &mut self,
        class: u32,
        src: NodeId,
        dst: NodeId,
        packets: u64,
        response: Option<u64>,
        started: SimTime,
        carried: u64,
    ) -> FlowId {
        let (slot, generation) = self.flows.spawn_slot();
        // The timer table grows alongside the flow slab.
        while self.transport_timers.len() <= slot as usize {
            self.transport_timers
                .push([[None; TransportTimer::COUNT]; 2]);
        }
        let flow_id = FlowId::from_parts(slot, generation);

        let now = self.now;
        let t = self
            .traffic
            .as_mut()
            .expect("traffic flows need a traffic state");
        let k = t.spawn_counter;
        assert!(
            k < 1 << 21,
            "traffic spawn counter exhausted its uid namespace"
        );
        t.spawn_counter += 1;
        t.live += 1;
        let transport = t.transport;
        let t_ns = started.as_nanos();
        fnv_mix(&mut t.journal_hash, JOURNAL_ARRIVAL);
        fnv_mix(&mut t.journal_hash, k);
        fnv_mix(&mut t.journal_hash, u64::from(class));
        fnv_mix(&mut t.journal_hash, u64::from(src.raw()));
        fnv_mix(&mut t.journal_hash, u64::from(dst.raw()));
        fnv_mix(&mut t.journal_hash, packets);
        fnv_mix(&mut t.journal_hash, t_ns);
        t.journal_count += 1;
        if carried == 0 {
            // First legs only: response legs spawn at completion times,
            // which depend on how the network is coping.
            fnv_mix(&mut t.arrival_hash, u64::from(class));
            fnv_mix(&mut t.arrival_hash, u64::from(src.raw()));
            fnv_mix(&mut t.arrival_hash, u64::from(dst.raw()));
            fnv_mix(&mut t.arrival_hash, packets);
            fnv_mix(&mut t.arrival_hash, t_ns);
            t.arrival_count += 1;
        }

        let uid_base = (3 << 61) | (k << 40);
        let Transport::Tcp {
            flavor,
            config,
            ack_policy,
        } = transport
        else {
            unreachable!("build() rejects non-TCP traffic transports");
        };
        let mut sender = TcpSender::new(config, flavor, flow_id, src, dst, uid_base);
        sender.set_budget(packets);
        let sink = TcpSink::new(ack_policy, flow_id, dst, src, uid_base | (1 << 39));
        self.flows.fill_slot(
            slot,
            FlowMeta {
                src,
                dst,
                class,
                started,
                carried,
                response,
            },
            FlowSrc {
                source: SourceAgent::Tcp(sender),
                cwnd_twa: TimeWeightedAverage::new(now, 1.0),
            },
            FlowDst {
                sink: SinkAgent::Tcp(sink),
                delivered: 0,
                last_delivery: None,
            },
        );
        self.trace_event(src, || TraceEvent::FlowOpen {
            flow: flow_id,
            src,
            dst,
            packets,
        });
        self.flight_note(src, FlightKind::FlowOpen, u64::from(flow_id.raw()));

        let mut actions = self.pools.transport.pop().unwrap_or_default();
        let fs = self.flows.src_mut(flow_id).expect("slot was just filled");
        let SourceAgent::Tcp(s) = &mut fs.source else {
            unreachable!("traffic flows are TCP");
        };
        s.start(now, &mut actions);
        self.note_window(flow_id);
        self.apply_transport_actions(flow_id, Role::Source, src, actions);
        flow_id
    }

    /// Retires a completed traffic leg: cancels its remaining timers,
    /// vacates and generation-bumps the slot, then either spawns the
    /// response leg or journals the finished transaction.
    fn complete_traffic_flow(&mut self, flow: FlowId) {
        self.cancel_all_transport_timers(flow);
        let (meta, src_half, _dst_half) = self.flows.vacate(flow);

        let budget = match &src_half.source {
            SourceAgent::Tcp(s) => s.budget().expect("traffic sender has a budget"),
            SourceAgent::Udp(_) => unreachable!("traffic flows are TCP"),
        };
        let total = meta.carried + budget;
        let now = self.now;
        let t = self.traffic.as_mut().expect("traffic flow without state");
        t.live -= 1;
        if let Some(resp) = meta.response {
            // Response leg runs the other way; the transaction's clock
            // and packet tally keep running.
            self.spawn_traffic_flow(
                meta.class,
                meta.dst,
                meta.src,
                resp,
                None,
                meta.started,
                total,
            );
            return;
        }
        let fct = now.saturating_duration_since(meta.started);
        fnv_mix(&mut t.journal_hash, JOURNAL_COMPLETION);
        fnv_mix(&mut t.journal_hash, u64::from(flow.raw()));
        fnv_mix(&mut t.journal_hash, u64::from(meta.class));
        fnv_mix(&mut t.journal_hash, total);
        fnv_mix(&mut t.journal_hash, now.as_nanos());
        t.journal_count += 1;
        t.fct
            .class_mut(meta.class as usize)
            .record_completion(fct, total);
        self.trace_event(meta.src, || TraceEvent::FlowClose {
            flow,
            packets: total,
            fct_nanos: fct.as_nanos(),
        });
        self.flight_note(meta.src, FlightKind::FlowClose, u64::from(flow.raw()));
    }

    fn flow_start(&mut self, flow: FlowId) {
        let mut actions = self.pools.transport.pop().unwrap_or_default();
        let Some(meta) = self.flows.meta(flow) else {
            self.pools.transport.push(actions);
            return;
        };
        let node = meta.src;
        let Some(fs) = self.flows.src_mut(flow) else {
            self.pools.transport.push(actions);
            return;
        };
        match &mut fs.source {
            SourceAgent::Tcp(s) => s.start(self.now, &mut actions),
            SourceAgent::Udp(s) => s.start(self.now, &mut actions),
        }
        self.note_window(flow);
        self.apply_transport_actions(flow, Role::Source, node, actions);
    }

    fn dispatch_transport_timer(&mut self, flow: FlowId, role: Role, timer: TransportTimer) {
        let mut actions = self.pools.transport.pop().unwrap_or_default();
        let Some(meta) = self.flows.meta(flow) else {
            self.pools.transport.push(actions);
            return;
        };
        let (src, dst) = (meta.src, meta.dst);
        let mut note = false;
        let node = match (role, timer) {
            (Role::Source, TransportTimer::Rtx) => {
                let Some(FlowSrc {
                    source: SourceAgent::Tcp(s),
                    ..
                }) = self.flows.src_mut(flow)
                else {
                    self.pools.transport.push(actions);
                    return;
                };
                s.on_rtx_timeout(self.now, &mut actions);
                note = true;
                src
            }
            (Role::Source, TransportTimer::Probe) => {
                let Some(FlowSrc {
                    source: SourceAgent::Tcp(s),
                    ..
                }) = self.flows.src_mut(flow)
                else {
                    self.pools.transport.push(actions);
                    return;
                };
                s.on_probe_timer(self.now, &mut actions);
                src
            }
            (Role::Source, TransportTimer::Pace) => {
                let Some(FlowSrc {
                    source: SourceAgent::Udp(s),
                    ..
                }) = self.flows.src_mut(flow)
                else {
                    self.pools.transport.push(actions);
                    return;
                };
                s.on_pace_timer(self.now, &mut actions);
                src
            }
            (Role::Sink, TransportTimer::DelayedAck) => {
                let Some(FlowDst {
                    sink: SinkAgent::Tcp(s),
                    ..
                }) = self.flows.dst_mut(flow)
                else {
                    self.pools.transport.push(actions);
                    return;
                };
                s.on_delayed_ack_timer(self.now, &mut actions);
                dst
            }
            _ => {
                self.pools.transport.push(actions);
                return;
            }
        };
        if note {
            self.note_window(flow);
        }
        self.apply_transport_actions(flow, role, node, actions);
    }

    // ---- PHY plumbing ----------------------------------------------------

    fn process_radio_events(&mut self, node: NodeId, mut events: Vec<RadioEvent>) {
        for ev in events.drain(..) {
            let mut actions = self.pools.mac.pop().unwrap_or_default();
            match ev {
                RadioEvent::CarrierBusy => {
                    self.macs[node.index()].on_carrier_busy(self.now, &mut actions);
                }
                RadioEvent::CarrierIdle => {
                    self.macs[node.index()].on_carrier_idle(self.now, &mut actions);
                }
                RadioEvent::RxStart(_) => {}
                RadioEvent::UndecodedEnd => {
                    self.trace_event(node, || TraceEvent::PhyCorrupt);
                    self.macs[node.index()].on_rx_corrupt(self.now);
                }
                RadioEvent::RxEnd { tx, ok } => {
                    if ok {
                        self.trace_event(node, || TraceEvent::PhyRxOk);
                        let frame = self.frames.get(tx).expect("RxEnd for unknown transmission");
                        self.macs[node.index()].on_rx_frame(self.now, frame, &mut actions);
                    } else {
                        self.trace_event(node, || TraceEvent::PhyCorrupt);
                        self.macs[node.index()].on_rx_corrupt(self.now);
                    }
                }
            }
            self.apply_mac_actions(node, actions);
        }
        self.pools.radio.push(events);
    }

    // ---- action application ----------------------------------------------

    fn apply_mac_actions(&mut self, node: NodeId, mut actions: Vec<MacAction>) {
        for action in actions.drain(..) {
            match action {
                MacAction::StartTx(frame) => {
                    let mut evs = self.pools.radio.pop().unwrap_or_default();
                    self.start_tx(node, frame, &mut evs);
                    self.process_radio_events(node, evs);
                }
                MacAction::SetTimer { timer, delay } => {
                    if timer == MacTimer::Defer {
                        self.trace_event(node, || TraceEvent::MacDefer {
                            nanos: delay.as_nanos(),
                        });
                    }
                    self.set_mac_timer(self.now + delay, node, timer);
                }
                MacAction::CancelTimer(timer) => {
                    self.cancel_mac_timer(node, timer);
                }
                MacAction::Deliver { from, packet } => {
                    self.trace_event(node, || TraceEvent::MacRx {
                        uid: packet.uid,
                        from,
                    });
                    // Custody: this node now holds a fresh copy.
                    if let (Some(a), Some(flow)) = (&mut self.audit, transport_flow(&packet)) {
                        a.deliver_up(node.index(), flow);
                    }
                    let mut aodv = self.pools.aodv.pop().unwrap_or_default();
                    self.routers[node.index()].on_received(self.now, from, packet, &mut aodv);
                    self.apply_aodv_actions(node, aodv);
                }
                MacAction::TxConfirm {
                    next_hop,
                    packet,
                    success,
                } => {
                    if success {
                        // Custody: the next hop's deliver-up created its
                        // own copy; this node's copy is done.
                        if let (Some(a), Some(flow)) = (&mut self.audit, transport_flow(&packet)) {
                            a.handoff(node.index(), flow);
                        }
                    } else {
                        self.trace_event(node, || TraceEvent::MacRetryExhausted {
                            uid: packet.uid,
                            next_hop,
                        });
                        // Frame-level loss: the router still holds the
                        // packet and decides its terminal fate (always a
                        // `RouteError` drop), so no custody event here.
                        if transport_flow(&packet).is_some() {
                            let class = self.packet_class(&packet);
                            self.ledger
                                .record(node.index(), class, DropReason::MacRetryExhausted);
                        }
                        self.flight_note(node, FlightKind::TxFail, packet.uid);
                    }
                    let mut aodv = self.pools.aodv.pop().unwrap_or_default();
                    self.routers[node.index()]
                        .on_tx_confirm(self.now, next_hop, packet, success, &mut aodv);
                    self.apply_aodv_actions(node, aodv);
                }
                MacAction::Dropped { ref packet, reason } => {
                    let uid = packet.uid;
                    self.trace_event(node, || TraceEvent::MacQueueDrop { uid });
                    let reason = match reason {
                        MacDropReason::QueueFull => DropReason::IfqOverflow,
                        MacDropReason::EarlyDrop => DropReason::MacEarlyDrop,
                    };
                    self.record_drop(node, packet, reason);
                }
            }
        }
        let depth = self.macs[node.index()].queue_len();
        self.probe(ProbeKind::IfqDepth, node.raw(), depth as f64);
        self.pools.mac.push(actions);
    }

    fn apply_aodv_actions(&mut self, node: NodeId, mut actions: Vec<AodvAction>) {
        for action in actions.drain(..) {
            match action {
                AodvAction::Send {
                    packet,
                    next_hop,
                    delay,
                } => {
                    if delay.is_zero() {
                        let mut mac = self.pools.mac.pop().unwrap_or_default();
                        self.macs[node.index()].enqueue(self.now, next_hop, packet, &mut mac);
                        self.apply_mac_actions(node, mac);
                    } else {
                        self.queue.schedule(
                            self.now + delay,
                            Event::AodvSend {
                                node,
                                next_hop,
                                packet,
                            },
                        );
                    }
                }
                AodvAction::Deliver(packet) => {
                    self.trace_event(node, || TraceEvent::RouteDeliver { uid: packet.uid });
                    self.deliver_to_transport(node, packet)
                }
                AodvAction::SetDiscoveryTimer { dst, delay } => {
                    self.set_discovery_timer(self.now + delay, node, dst);
                }
                AodvAction::CancelDiscoveryTimer { dst } => {
                    self.cancel_discovery_timer(node, dst);
                }
                AodvAction::NotifyRouteFailure { dst } => {
                    self.trace_event(node, || TraceEvent::RouteFailure { dst });
                    self.flight_note(node, FlightKind::RouteFail, u64::from(dst.raw()));
                    self.notify_route_failure(node, dst);
                }
                AodvAction::RouteInstalled {
                    dst,
                    next_hop,
                    hop_count,
                    dst_seq,
                } => {
                    self.trace_event(node, || TraceEvent::RouteUpdate {
                        dst,
                        next_hop,
                        hop_count,
                        dst_seq,
                    });
                }
                AodvAction::RouteLost { dst, dst_seq } => {
                    self.trace_event(node, || TraceEvent::RouteInvalidate { dst, dst_seq });
                }
                AodvAction::Drop { ref packet, reason } => {
                    let uid = packet.uid;
                    self.trace_event(node, || TraceEvent::RouteDrop { uid, reason });
                    let reason = match reason {
                        AodvDropReason::NoRoute => DropReason::NoRoute,
                        AodvDropReason::LinkFailure => DropReason::RouteError,
                        AodvDropReason::TtlExpired => DropReason::TtlExpired,
                        AodvDropReason::BufferFull => DropReason::RouteBufferFull,
                    };
                    self.record_drop(node, packet, reason);
                }
            }
        }
        self.pools.aodv.push(actions);
    }

    fn deliver_to_transport(&mut self, node: NodeId, packet: Packet) {
        match &packet.body {
            Body::Tcp(seg) => {
                let flow_id = seg.flow;
                let flow_raw = flow_id.raw();
                let (seq, ack, is_data) = (seg.seq, seg.ack, seg.is_data());
                let mut actions = self.pools.transport.pop().unwrap_or_default();
                let Some(meta) = self.flows.meta(flow_id) else {
                    // Stale generation: a straggler from a finished flow.
                    self.pools.transport.push(actions);
                    self.record_drop(node, &packet, DropReason::FlowTeardown);
                    return;
                };
                let (src, dst, class) = (meta.src, meta.dst, meta.class);
                if is_data && node == dst {
                    let Some(fd) = self.flows.dst_mut(flow_id) else {
                        self.pools.transport.push(actions);
                        return;
                    };
                    let SinkAgent::Tcp(sink) = &mut fd.sink else {
                        self.pools.transport.push(actions);
                        return;
                    };
                    let before = sink.stats().delivered;
                    sink.on_data(self.now, seq, &mut actions);
                    let after = sink.stats().delivered;
                    if after > before {
                        fd.last_delivery = Some(self.now);
                    }
                    fd.delivered += after - before;
                    self.total_delivered += after - before;
                    // Custody: the endpoint consumed this copy (duplicate
                    // or not).
                    if let Some(a) = &mut self.audit {
                        a.consume(node.index(), flow_raw);
                    }
                    self.apply_transport_actions(flow_id, Role::Sink, dst, actions);
                } else if !is_data && node == src {
                    let Some(fs) = self.flows.src_mut(flow_id) else {
                        self.pools.transport.push(actions);
                        return;
                    };
                    let SourceAgent::Tcp(sender) = &mut fs.source else {
                        self.pools.transport.push(actions);
                        return;
                    };
                    sender.on_ack(self.now, ack, &mut actions);
                    if let Some(a) = &mut self.audit {
                        a.consume(node.index(), flow_raw);
                    }
                    self.note_window(flow_id);
                    self.apply_transport_actions(flow_id, Role::Source, src, actions);
                    // The ACK may have been the flow's last: an app-limited
                    // sender with its whole budget acknowledged retires.
                    let done = class != PERSISTENT
                        && self.flows.src_mut(flow_id).is_some_and(
                            |fs| matches!(&fs.source, SourceAgent::Tcp(s) if s.is_complete()),
                        );
                    if done {
                        self.complete_traffic_flow(flow_id);
                    }
                } else {
                    self.pools.transport.push(actions);
                    // Wrong node or wrong direction: nothing consumes it.
                    self.record_drop(node, &packet, DropReason::SinkDiscard);
                }
            }
            Body::Udp(d) => {
                let flow_id = d.flow;
                let flow_raw = flow_id.raw();
                let Some(meta) = self.flows.meta(flow_id) else {
                    self.record_drop(node, &packet, DropReason::FlowTeardown);
                    return;
                };
                if node == meta.dst {
                    let Some(fd) = self.flows.dst_mut(flow_id) else {
                        return;
                    };
                    let SinkAgent::Udp(sink) = &mut fd.sink else {
                        return;
                    };
                    sink.on_data(d.seq);
                    fd.delivered += 1;
                    fd.last_delivery = Some(self.now);
                    self.total_delivered += 1;
                    if let Some(a) = &mut self.audit {
                        a.consume(node.index(), flow_raw);
                    }
                } else {
                    self.record_drop(node, &packet, DropReason::SinkDiscard);
                }
            }
            Body::Aodv(_) => {
                // Routing messages never reach the transport layer.
            }
        }
    }

    /// ELFN: tells every local TCP sender whose flow targets `dst` that
    /// its route just failed. Strictly node-local: only flows sourced at
    /// `node` are touched.
    fn notify_route_failure(&mut self, node: NodeId, dst: NodeId) {
        let mut ids = std::mem::take(&mut self.pools.flow_scratch);
        ids.clear();
        self.flows.collect_tcp_src_flows(node, &mut ids);
        for flow_id in ids.drain(..) {
            let Some(meta) = self.flows.meta(flow_id) else {
                continue;
            };
            if meta.dst != dst {
                continue;
            }
            let mut actions = self.pools.transport.pop().unwrap_or_default();
            let Some(FlowSrc {
                source: SourceAgent::Tcp(sender),
                ..
            }) = self.flows.src_mut(flow_id)
            else {
                unreachable!("collected flows are TCP and sourced here");
            };
            sender.on_route_failure(self.now, &mut actions);
            self.apply_transport_actions(flow_id, Role::Source, node, actions);
        }
        self.pools.flow_scratch = ids;
    }

    fn note_window(&mut self, flow: FlowId) {
        let Some(meta) = self.flows.meta(flow) else {
            return;
        };
        let node = meta.src;
        let Some(fs) = self.flows.src_mut(flow) else {
            return;
        };
        let SourceAgent::Tcp(s) = &fs.source else {
            return;
        };
        let cwnd = s.cwnd();
        let srtt = s.srtt();
        let diff = s.vegas_diff();
        fs.cwnd_twa.record(self.now, cwnd);
        // Fixed-point milli-packets keep the trace event `Eq`/hashable.
        self.trace_event(node, || TraceEvent::TcpCwnd {
            flow,
            cwnd_milli: (cwnd * 1000.0).round() as u64,
        });
        if let Some(diff) = diff {
            self.trace_event(node, || TraceEvent::TcpVegasDiff {
                flow,
                diff_milli: (diff * 1000.0).round() as i64,
            });
        }
        self.probe(ProbeKind::Cwnd, flow.raw(), cwnd);
        if let Some(srtt) = srtt {
            self.probe(ProbeKind::Srtt, flow.raw(), srtt.as_secs_f64());
        }
        if let Some(diff) = diff {
            self.probe(ProbeKind::VegasDiff, flow.raw(), diff);
        }
    }

    fn apply_transport_actions(
        &mut self,
        flow: FlowId,
        role: Role,
        node: NodeId,
        mut actions: Vec<TransportAction>,
    ) {
        for action in actions.drain(..) {
            match action {
                TransportAction::SendPacket(packet) => {
                    self.trace_event(node, || match &packet.body {
                        Body::Tcp(seg) if seg.is_data() => {
                            TraceEvent::TcpData { flow, seq: seg.seq }
                        }
                        Body::Tcp(seg) => TraceEvent::TcpAck { flow, ack: seg.ack },
                        Body::Udp(d) => TraceEvent::UdpData { flow, seq: d.seq },
                        Body::Aodv(_) => unreachable!("transport never sends AODV"),
                    });
                    // Custody: a fresh copy enters the network here.
                    if let (Some(a), Some(flow_raw)) = (&mut self.audit, transport_flow(&packet)) {
                        a.originate(node.index(), flow_raw);
                    }
                    let mut aodv = self.pools.aodv.pop().unwrap_or_default();
                    self.routers[node.index()].send(self.now, packet, &mut aodv);
                    self.apply_aodv_actions(node, aodv);
                }
                TransportAction::SetTimer { timer, delay } => {
                    self.set_transport_timer(self.now + delay, flow, role, timer);
                }
                TransportAction::CancelTimer(timer) => {
                    self.cancel_transport_timer(flow, role, timer);
                }
            }
        }
        self.pools.transport.push(actions);
    }

    /// The ledger class a packet's losses are attributed to: its flow's
    /// traffic class, the `persistent` class for scenario-listed flows,
    /// or the trailing `unattributed` class when no live flow matches.
    fn packet_class(&self, packet: &Packet) -> usize {
        let unattributed = self.unattributed;
        let flow_id = match &packet.body {
            Body::Tcp(seg) => seg.flow,
            Body::Udp(d) => d.flow,
            Body::Aodv(_) => return unattributed,
        };
        match self.flows.meta(flow_id) {
            Some(m) if m.class == PERSISTENT => unattributed - 1,
            Some(m) => m.class as usize,
            None => unattributed,
        }
    }

    /// Records a drop in the flight recorder and — for transport-bodied
    /// packets — in the ledger (the ledger is a *data-plane* account;
    /// dropped AODV control messages would muddy the per-cause tables)
    /// and, when the reason ends custody, in the audit.
    fn record_drop(&mut self, node: NodeId, packet: &Packet, reason: DropReason) {
        if let Some(flow) = transport_flow(packet) {
            let class = self.packet_class(packet);
            self.ledger.record(node.index(), class, reason);
            if reason.is_terminal() {
                if let Some(a) = &mut self.audit {
                    a.terminal_drop(node.index(), flow);
                }
            }
        }
        self.flight_record(FlightRecord {
            t_nanos: self.now.as_nanos(),
            id: packet.uid,
            node: node.raw(),
            kind: FlightKind::Drop,
            reason: reason.index() as u8,
        });
    }

    /// Appends a non-drop record to the flight recorder.
    fn flight_note(&mut self, node: NodeId, kind: FlightKind, id: u64) {
        self.flight_record(FlightRecord {
            t_nanos: self.now.as_nanos(),
            id,
            node: node.raw(),
            kind,
            reason: NO_REASON,
        });
    }
}

// ---- queue, timer tables and side-band records ----------------------------

impl Network {
    fn set_mac_timer(&mut self, time: SimTime, node: NodeId, timer: MacTimer) {
        let slot = &mut self.mac_timers[node.index()][timer.index()];
        if let Some(old) = slot.take() {
            self.queue.cancel(old);
        }
        *slot = Some(self.queue.schedule(time, Event::Mac { node, timer }));
    }

    fn cancel_mac_timer(&mut self, node: NodeId, timer: MacTimer) {
        if let Some(old) = self.mac_timers[node.index()][timer.index()].take() {
            self.queue.cancel(old);
        }
    }

    fn set_transport_timer(
        &mut self,
        time: SimTime,
        flow: FlowId,
        role: Role,
        timer: TransportTimer,
    ) {
        let slot = &mut self.transport_timers[flow.slot() as usize][role.index()][timer.index()];
        if let Some(old) = slot.take() {
            self.queue.cancel(old);
        }
        *slot = Some(
            self.queue
                .schedule(time, Event::Transport { flow, role, timer }),
        );
    }

    fn cancel_transport_timer(&mut self, flow: FlowId, role: Role, timer: TransportTimer) {
        if let Some(old) =
            self.transport_timers[flow.slot() as usize][role.index()][timer.index()].take()
        {
            self.queue.cancel(old);
        }
    }

    /// Cancels every timer of a completing flow (both roles).
    fn cancel_all_transport_timers(&mut self, flow: FlowId) {
        for role in &mut self.transport_timers[flow.slot() as usize] {
            for timer in role {
                if let Some(old) = timer.take() {
                    self.queue.cancel(old);
                }
            }
        }
    }

    fn set_discovery_timer(&mut self, time: SimTime, node: NodeId, dst: NodeId) {
        if let Some(old) = self.discovery_timers[node.index()].remove(dst) {
            self.queue.cancel(old);
        }
        let id = self
            .queue
            .schedule(time, Event::AodvDiscovery { node, dst });
        self.discovery_timers[node.index()].insert(dst, id);
    }

    fn cancel_discovery_timer(&mut self, node: NodeId, dst: NodeId) {
        if let Some(old) = self.discovery_timers[node.index()].remove(dst) {
            self.queue.cancel(old);
        }
    }

    /// Records a trace event; the closure does not run when tracing is
    /// disabled.
    fn trace_event(&mut self, node: NodeId, event: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = self.trace.as_mut() {
            buf.push(TraceRecord {
                time: self.now,
                node,
                event: event(),
            });
        }
    }

    fn probe(&mut self, kind: ProbeKind, id: u32, value: f64) {
        if let Some(p) = self.probes.as_mut() {
            p.record(self.now, kind, id, value);
        }
    }

    fn flight_record(&mut self, record: FlightRecord) {
        self.flight.lock().unwrap().record(record);
    }

    /// Puts `frame` on the air from `node`: schedules the wave that
    /// carries its signal edges to every receiver, meters energy, and
    /// starts the local transceiver (whose radio events land in `evs`
    /// for the cascade to process).
    fn start_tx(&mut self, node: NodeId, frame: MacFrame, evs: &mut Vec<RadioEvent>) {
        let now = self.now;
        let duration = self.params.airtime(&frame);
        let (kind, dst, bytes, nav) = (frame.kind(), frame.dst(), frame.size_bytes(), frame.nav());
        self.trace_event(node, || TraceEvent::MacTx {
            kind,
            dst,
            bytes,
            airtime: duration,
            nav,
        });
        self.energy[node.index()].add_tx(duration);
        // Transmission time is where lazy medium staleness resolves:
        // `refresh` rebuilds the effect list only if this node's 3×3
        // neighborhood changed since the list was built. The returned
        // borrow lives in place while the slab copies it; everything
        // touched meanwhile (queue, frames, energy) is a disjoint field.
        let effects = self.medium.refresh(node);
        if !effects.is_empty() {
            // The numbers the per-receiver start/end events would have
            // drawn, so everything scheduled from here on keeps its
            // tie-break (`TxEnd` below is number `base + 2n`, as ever).
            let seq_base = self.queue.reserve_seqs(2 * effects.len() as u64);
            let tx = self.frames.insert(frame, now, duration, seq_base, effects);
            for e in effects {
                if e.class.decodable {
                    self.energy[e.node.index()].add_rx(duration);
                }
            }
            let wave = self.frames.wave(tx);
            for end in [false, true] {
                let (time, seq) = wave.key(0, end);
                self.queue
                    .schedule_keyed(time, seq, Event::Wave { tx, end });
            }
        }
        self.queue.schedule(now + duration, Event::TxEnd { node });
        self.transceivers[node.index()].tx_start(evs);
    }
}
