//! The event cascade, written once and instantiated twice.
//!
//! Handling one event (a signal edge, a timer, a delivered packet) fans
//! out through the layers: PHY → MAC → AODV → transport → back down to
//! the MAC. These cascades run both *sequentially* (the oracle path) and
//! *inside a parallel burst* on worker threads. Maintaining two
//! hand-mirrored copies of ~500 lines of ordering-sensitive dispatch
//! would make digest equality a permanent debugging exercise, so the
//! cascade is generic over three capability traits instead:
//!
//! * [`Effects`] — every *global* side effect (scheduling, timer tables,
//!   trace/probe/ledger/audit/flight records, frame-slab access, the
//!   delivered counter). The sequential impl ([`SeqEffects`]) applies
//!   them immediately; the worker impl captures them as replayable ops.
//! * [`FlowStore`](super::flows::FlowStore) — flow state, either the real
//!   store or a worker's ownership-checked view.
//! * [`NodeStates`] — per-node protocol state (transceiver, MAC, router),
//!   either plain slices or disjoint shared slices.
//!
//! A cascade only ever touches the *current node's* state plus flow
//! halves anchored at that node — the locality fact the batch engine's
//! safety argument rests on (see `EXPERIMENTS.md`).
//!
//! # Signal edges arrive as waves
//!
//! A transmission reaches every node within interference range, each a
//! propagation delay later. [`SeqEffects::start_tx`] does not schedule
//! those arrivals one by one: it snapshots the receivers into the
//! transmission's frame-slab slot in arrival order
//! ([`FrameSlab::insert`]) and schedules one `Event::Wave` for the
//! leading edge and one for the trailing edge. The network loop walks
//! the snapshot in place, advancing the clock per receiver and calling
//! [`Cascade::signal_edge`] — the same per-receiver cascade as ever.
//!
//! The global order is *exactly* what per-receiver events would give.
//! `start_tx` reserves the `2 · n` sequence numbers those events would
//! have drawn, a wave event is always queued under its next receiver's
//! own `(time, seq)` key, and the walk only continues to a receiver
//! without going back through the queue when nothing else is pending at
//! or before that receiver's time (`Network::walk_wave` picks the
//! segment, [`SeqCascade::walk`] walks it).

use std::sync::{Arc, Mutex};

use mwn_aodv::{AodvAction, AodvDropReason, Router};
use mwn_mac80211::{Dcf, MacAction, MacDropReason, MacParams, MacTimer};
use mwn_obs::flight::{FlightKind, FlightRecord, FlightRecorder, NO_REASON};
use mwn_obs::{ConservationAudit, DropLedger, DropReason, ProbeBuffer, ProbeKind};
use mwn_phy::{EnergyMeter, Medium, RadioEvent, SignalClass, Transceiver, TxId};
use mwn_pkt::{Body, FlowId, MacFrame, NodeId, Packet};
use mwn_sim::stats::TimeWeightedAverage;
use mwn_sim::{EventId, EventQueue, SimTime};
use mwn_tcp::{TcpSender, TcpSink, TransportAction, TransportTimer};

use crate::scenario::Transport;
use crate::trace::{TraceBuffer, TraceEvent, TraceRecord};

use super::flows::{FlowDst, FlowMeta, FlowSrc, FlowStore};
use super::frames::{FrameSlab, WaveRx};
use super::{
    fnv_mix, transport_flow, Event, Role, SinkAgent, SourceAgent, TrafficState, JOURNAL_ARRIVAL,
    JOURNAL_COMPLETION, PERSISTENT,
};

/// Per-node protocol state, indexed by node. The sequential impl hands
/// out slice elements; the worker impl checks shard ownership first.
pub(super) trait NodeStates {
    fn tr(&mut self, node: NodeId) -> &mut Transceiver;
    fn mac(&mut self, node: NodeId) -> &mut Dcf;
    fn router(&mut self, node: NodeId) -> &mut Router;
}

/// Every side effect a cascade can have outside node-local protocol
/// state. Times are absolute (the cascade adds `now` before calling), so
/// a captured op replays without re-deriving the clock.
pub(super) trait Effects {
    fn schedule(&mut self, time: SimTime, event: Event);
    fn set_mac_timer(&mut self, time: SimTime, node: NodeId, timer: MacTimer);
    fn cancel_mac_timer(&mut self, node: NodeId, timer: MacTimer);
    /// Forgets a MAC timer id whose event just fired (no cancellation).
    fn clear_mac_timer(&mut self, node: NodeId, timer: MacTimer);
    fn set_transport_timer(
        &mut self,
        time: SimTime,
        flow: FlowId,
        role: Role,
        timer: TransportTimer,
    );
    fn cancel_transport_timer(&mut self, flow: FlowId, role: Role, timer: TransportTimer);
    /// Forgets a transport timer id whose event just fired.
    fn clear_transport_timer(&mut self, flow: FlowId, role: Role, timer: TransportTimer);
    /// Cancels every timer of a completing flow (both roles).
    fn cancel_all_transport_timers(&mut self, flow: FlowId);
    /// Grows the transport timer table alongside the flow slab.
    fn ensure_transport_timer_capacity(&mut self, len: usize);
    fn set_discovery_timer(&mut self, time: SimTime, node: NodeId, dst: NodeId);
    fn cancel_discovery_timer(&mut self, node: NodeId, dst: NodeId);
    /// Forgets a discovery timer id whose event just fired.
    fn clear_discovery_timer(&mut self, node: NodeId, dst: NodeId);
    /// Records a trace event; the closure must not run when tracing is
    /// disabled (the sequential digests depend on that laziness only for
    /// speed — the closure is pure).
    fn trace(&mut self, now: SimTime, node: NodeId, event: impl FnOnce() -> TraceEvent);
    fn probe(&mut self, now: SimTime, kind: ProbeKind, id: u32, value: f64);
    fn flight(&mut self, record: FlightRecord);
    fn ledger_drop(&mut self, node: usize, class: usize, reason: DropReason);
    fn audit_deliver_up(&mut self, node: usize, flow: u32);
    fn audit_handoff(&mut self, node: usize, flow: u32);
    fn audit_consume(&mut self, node: usize, flow: u32);
    fn audit_originate(&mut self, node: usize, flow: u32);
    fn audit_terminal_drop(&mut self, node: usize, flow: u32);
    fn add_delivered(&mut self, n: u64);
    /// The shared payload of transmission `tx`, if still on the air.
    fn frame(&self, tx: TxId) -> Option<&MacFrame>;
    /// Drops one receiver's claim on `tx` (the slab frees at zero).
    fn release_frame(&mut self, tx: TxId);
    /// Puts `frame` on the air from `node`: schedules the wave that
    /// carries its signal edges to every receiver, meters energy, and
    /// starts the local transceiver
    /// (whose radio events land in `evs` for the cascade to process).
    /// Worker cascades never transmit — see the batch safety argument.
    fn start_tx(
        &mut self,
        now: SimTime,
        node: NodeId,
        frame: MacFrame,
        tr: &mut Transceiver,
        evs: &mut Vec<RadioEvent>,
    );
}

/// Recycled action/event buffers. Dispatch re-enters (a delivered frame
/// can trigger a new send), so each taker pops its own buffer and the
/// apply path returns it once drained — the steady state allocates
/// nothing. One `Pools` exists per execution lane (the sequential loop,
/// and one per batch worker).
#[derive(Debug, Default)]
pub(super) struct Pools {
    pub mac: Vec<Vec<MacAction>>,
    pub aodv: Vec<Vec<AodvAction>>,
    pub transport: Vec<Vec<TransportAction>>,
    pub radio: Vec<Vec<RadioEvent>>,
    /// Scratch for the ELFN route-failure fanout.
    pub flow_scratch: Vec<FlowId>,
}

/// One event's fan-out through the layers, over abstract state/effects.
pub(super) struct Cascade<'a, E, F, S> {
    pub now: SimTime,
    pub states: &'a mut S,
    pub flows: &'a mut F,
    /// Open-loop workload state; `None` on worker cascades (traffic
    /// scenarios never batch) and for scenarios without a workload.
    pub traffic: Option<&'a mut TrafficState>,
    pub eff: &'a mut E,
    pub pools: &'a mut Pools,
    /// Index of the trailing `unattributed` ledger class.
    pub unattributed: usize,
}

impl<E: Effects, F: FlowStore, S: NodeStates> Cascade<'_, E, F, S> {
    /// Dispatch for every event kind except the two the network loop
    /// handles itself: `MobilityTick` (it moves the medium) and `Wave`
    /// (it walks the receiver list, calling [`Self::signal_edge`]).
    pub(super) fn handle_event(&mut self, event: Event) {
        match event {
            Event::TxEnd { node } => self.tx_end(node),
            Event::Mac { node, timer } => {
                self.eff.clear_mac_timer(node, timer);
                let mut actions = self.pools.mac.pop().unwrap_or_default();
                self.states
                    .mac(node)
                    .on_timer(self.now, timer, &mut actions);
                self.apply_mac_actions(node, actions);
            }
            Event::AodvSend {
                node,
                next_hop,
                packet,
            } => {
                let mut actions = self.pools.mac.pop().unwrap_or_default();
                self.states
                    .mac(node)
                    .enqueue(self.now, next_hop, packet, &mut actions);
                self.apply_mac_actions(node, actions);
            }
            Event::AodvDiscovery { node, dst } => {
                self.eff.clear_discovery_timer(node, dst);
                let mut actions = self.pools.aodv.pop().unwrap_or_default();
                self.states
                    .router(node)
                    .on_discovery_timeout(self.now, dst, &mut actions);
                self.apply_aodv_actions(node, actions);
            }
            Event::Transport { flow, role, timer } => {
                // A completed traffic flow cancels its timers, so a stale
                // generation firing here should be impossible — but if one
                // ever slipped through, clearing the slot would wipe the
                // next tenant's timer id, so guard anyway.
                if self.flows.meta(flow).is_some() {
                    self.eff.clear_transport_timer(flow, role, timer);
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
        self.states.tr(node).signal_start(tx, class, &mut evs);
        self.process_radio_events(node, evs);
    }

    fn signal_end(&mut self, node: NodeId, tx: TxId) {
        let mut evs = self.pools.radio.pop().unwrap_or_default();
        self.states.tr(node).signal_end(tx, &mut evs);
        self.process_radio_events(node, evs);
        self.eff.release_frame(tx);
    }

    fn tx_end(&mut self, node: NodeId) {
        let mut evs = self.pools.radio.pop().unwrap_or_default();
        self.states.tr(node).tx_end(&mut evs);
        let mut actions = self.pools.mac.pop().unwrap_or_default();
        self.states.mac(node).on_tx_done(self.now, &mut actions);
        self.apply_mac_actions(node, actions);
        self.process_radio_events(node, evs);
    }

    /// One open-loop arrival: draw the flow, reschedule the class's next
    /// arrival, and spawn the request leg.
    fn handle_traffic_arrival(&mut self, class: usize) {
        let Some(t) = self.traffic.as_deref_mut() else {
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
            self.eff
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
        self.eff.ensure_transport_timer_capacity(slot as usize + 1);
        let flow_id = FlowId::from_parts(slot, generation);

        let now = self.now;
        let t = self
            .traffic
            .as_deref_mut()
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
        self.eff.trace(now, src, || TraceEvent::FlowOpen {
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
        self.eff.cancel_all_transport_timers(flow);
        let (meta, src_half, _dst_half) = self.flows.vacate(flow);

        let budget = match &src_half.source {
            SourceAgent::Tcp(s) => s.budget().expect("traffic sender has a budget"),
            SourceAgent::Udp(_) => unreachable!("traffic flows are TCP"),
        };
        let total = meta.carried + budget;
        let now = self.now;
        let t = self
            .traffic
            .as_deref_mut()
            .expect("traffic flow without state");
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
        self.eff.trace(now, meta.src, || TraceEvent::FlowClose {
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
                    self.states
                        .mac(node)
                        .on_carrier_busy(self.now, &mut actions);
                }
                RadioEvent::CarrierIdle => {
                    self.states
                        .mac(node)
                        .on_carrier_idle(self.now, &mut actions);
                }
                RadioEvent::RxStart(_) => {}
                RadioEvent::UndecodedEnd => {
                    self.eff.trace(self.now, node, || TraceEvent::PhyCorrupt);
                    self.states.mac(node).on_rx_corrupt(self.now);
                }
                RadioEvent::RxEnd { tx, ok } => {
                    if ok {
                        assert!(
                            self.eff.frame(tx).is_some(),
                            "RxEnd for unknown transmission"
                        );
                        self.eff.trace(self.now, node, || TraceEvent::PhyRxOk);
                        let now = self.now;
                        self.states.mac(node).on_rx_frame(
                            now,
                            self.eff.frame(tx).expect("checked above"),
                            &mut actions,
                        );
                    } else {
                        self.eff.trace(self.now, node, || TraceEvent::PhyCorrupt);
                        self.states.mac(node).on_rx_corrupt(self.now);
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
                    self.eff
                        .start_tx(self.now, node, frame, self.states.tr(node), &mut evs);
                    self.process_radio_events(node, evs);
                }
                MacAction::SetTimer { timer, delay } => {
                    if timer == MacTimer::Defer {
                        self.eff.trace(self.now, node, || TraceEvent::MacDefer {
                            nanos: delay.as_nanos(),
                        });
                    }
                    self.eff.set_mac_timer(self.now + delay, node, timer);
                }
                MacAction::CancelTimer(timer) => {
                    self.eff.cancel_mac_timer(node, timer);
                }
                MacAction::Deliver { from, packet } => {
                    self.eff.trace(self.now, node, || TraceEvent::MacRx {
                        uid: packet.uid,
                        from,
                    });
                    // Custody: this node now holds a fresh copy.
                    if let Some(flow) = transport_flow(&packet) {
                        self.eff.audit_deliver_up(node.index(), flow);
                    }
                    let mut aodv = self.pools.aodv.pop().unwrap_or_default();
                    self.states
                        .router(node)
                        .on_received(self.now, from, packet, &mut aodv);
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
                        if let Some(flow) = transport_flow(&packet) {
                            self.eff.audit_handoff(node.index(), flow);
                        }
                    } else {
                        self.eff
                            .trace(self.now, node, || TraceEvent::MacRetryExhausted {
                                uid: packet.uid,
                                next_hop,
                            });
                        // Frame-level loss: the router still holds the
                        // packet and decides its terminal fate (always a
                        // `RouteError` drop), so no custody event here.
                        if transport_flow(&packet).is_some() {
                            let class = self.packet_class(&packet);
                            self.eff.ledger_drop(
                                node.index(),
                                class,
                                DropReason::MacRetryExhausted,
                            );
                        }
                        self.flight_note(node, FlightKind::TxFail, packet.uid);
                    }
                    let mut aodv = self.pools.aodv.pop().unwrap_or_default();
                    self.states
                        .router(node)
                        .on_tx_confirm(self.now, next_hop, packet, success, &mut aodv);
                    self.apply_aodv_actions(node, aodv);
                }
                MacAction::Dropped { ref packet, reason } => {
                    let uid = packet.uid;
                    self.eff
                        .trace(self.now, node, || TraceEvent::MacQueueDrop { uid });
                    let reason = match reason {
                        MacDropReason::QueueFull => DropReason::IfqOverflow,
                        MacDropReason::EarlyDrop => DropReason::MacEarlyDrop,
                    };
                    self.record_drop(node, packet, reason);
                }
            }
        }
        let depth = self.states.mac(node).queue_len();
        self.eff
            .probe(self.now, ProbeKind::IfqDepth, node.raw(), depth as f64);
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
                        self.states
                            .mac(node)
                            .enqueue(self.now, next_hop, packet, &mut mac);
                        self.apply_mac_actions(node, mac);
                    } else {
                        self.eff.schedule(
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
                    self.eff.trace(self.now, node, || TraceEvent::RouteDeliver {
                        uid: packet.uid,
                    });
                    self.deliver_to_transport(node, packet)
                }
                AodvAction::SetDiscoveryTimer { dst, delay } => {
                    self.eff.set_discovery_timer(self.now + delay, node, dst);
                }
                AodvAction::CancelDiscoveryTimer { dst } => {
                    self.eff.cancel_discovery_timer(node, dst);
                }
                AodvAction::NotifyRouteFailure { dst } => {
                    self.eff
                        .trace(self.now, node, || TraceEvent::RouteFailure { dst });
                    self.flight_note(node, FlightKind::RouteFail, u64::from(dst.raw()));
                    self.notify_route_failure(node, dst);
                }
                AodvAction::RouteInstalled {
                    dst,
                    next_hop,
                    hop_count,
                    dst_seq,
                } => {
                    self.eff.trace(self.now, node, || TraceEvent::RouteUpdate {
                        dst,
                        next_hop,
                        hop_count,
                        dst_seq,
                    });
                }
                AodvAction::RouteLost { dst, dst_seq } => {
                    self.eff
                        .trace(self.now, node, || TraceEvent::RouteInvalidate {
                            dst,
                            dst_seq,
                        });
                }
                AodvAction::Drop { ref packet, reason } => {
                    let uid = packet.uid;
                    self.eff
                        .trace(self.now, node, || TraceEvent::RouteDrop { uid, reason });
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
                    self.eff.add_delivered(after - before);
                    // Custody: the endpoint consumed this copy (duplicate
                    // or not).
                    self.eff.audit_consume(node.index(), flow_raw);
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
                    self.eff.audit_consume(node.index(), flow_raw);
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
                    self.eff.add_delivered(1);
                    self.eff.audit_consume(node.index(), flow_raw);
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
        self.eff.trace(self.now, node, || TraceEvent::TcpCwnd {
            flow,
            cwnd_milli: (cwnd * 1000.0).round() as u64,
        });
        if let Some(diff) = diff {
            self.eff.trace(self.now, node, || TraceEvent::TcpVegasDiff {
                flow,
                diff_milli: (diff * 1000.0).round() as i64,
            });
        }
        self.eff.probe(self.now, ProbeKind::Cwnd, flow.raw(), cwnd);
        if let Some(srtt) = srtt {
            self.eff
                .probe(self.now, ProbeKind::Srtt, flow.raw(), srtt.as_secs_f64());
        }
        if let Some(diff) = diff {
            self.eff
                .probe(self.now, ProbeKind::VegasDiff, flow.raw(), diff);
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
                    self.eff.trace(self.now, node, || match &packet.body {
                        Body::Tcp(seg) if seg.is_data() => {
                            TraceEvent::TcpData { flow, seq: seg.seq }
                        }
                        Body::Tcp(seg) => TraceEvent::TcpAck { flow, ack: seg.ack },
                        Body::Udp(d) => TraceEvent::UdpData { flow, seq: d.seq },
                        Body::Aodv(_) => unreachable!("transport never sends AODV"),
                    });
                    // Custody: a fresh copy enters the network here.
                    if let Some(flow_raw) = transport_flow(&packet) {
                        self.eff.audit_originate(node.index(), flow_raw);
                    }
                    let mut aodv = self.pools.aodv.pop().unwrap_or_default();
                    self.states.router(node).send(self.now, packet, &mut aodv);
                    self.apply_aodv_actions(node, aodv);
                }
                TransportAction::SetTimer { timer, delay } => {
                    self.eff
                        .set_transport_timer(self.now + delay, flow, role, timer);
                }
                TransportAction::CancelTimer(timer) => {
                    self.eff.cancel_transport_timer(flow, role, timer);
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
            self.eff.ledger_drop(node.index(), class, reason);
            if reason.is_terminal() {
                self.eff.audit_terminal_drop(node.index(), flow);
            }
        }
        self.eff.flight(FlightRecord {
            t_nanos: self.now.as_nanos(),
            id: packet.uid,
            node: node.raw(),
            kind: FlightKind::Drop,
            reason: reason.index() as u8,
        });
    }

    /// Appends a non-drop record to the flight recorder.
    fn flight_note(&mut self, node: NodeId, kind: FlightKind, id: u64) {
        self.eff.flight(FlightRecord {
            t_nanos: self.now.as_nanos(),
            id,
            node: node.raw(),
            kind,
            reason: NO_REASON,
        });
    }
}

// ---- sequential implementations -------------------------------------------

/// Plain slices: the whole network's node state, owned by one thread.
pub(super) struct SeqStates<'a> {
    pub transceivers: &'a mut [Transceiver],
    pub macs: &'a mut [Dcf],
    pub routers: &'a mut [Router],
}

impl NodeStates for SeqStates<'_> {
    fn tr(&mut self, node: NodeId) -> &mut Transceiver {
        &mut self.transceivers[node.index()]
    }

    fn mac(&mut self, node: NodeId) -> &mut Dcf {
        &mut self.macs[node.index()]
    }

    fn router(&mut self, node: NodeId) -> &mut Router {
        &mut self.routers[node.index()]
    }
}

/// The sequential instantiation of the cascade.
pub(super) type SeqCascade<'a, 'b> =
    Cascade<'a, SeqEffects<'b>, super::flows::Flows, SeqStates<'b>>;

impl SeqCascade<'_, '_> {
    /// Everything a run loop's stop condition reads, folded into one
    /// number that only ever grows: packets delivered, plus traffic legs
    /// spawned and completed.
    fn stop_mark(&self) -> u64 {
        *self.eff.total_delivered + self.traffic.as_ref().map_or(0, |t| t.journal_count)
    }

    /// Walks receivers `lo..hi` of `tx`'s wave, advancing the clock per
    /// receiver, and stops after the first whose cascade moved the
    /// [stop mark](Self::stop_mark) — so `run_until_delivered` and
    /// `run_until_traffic_done` regain control after the very receiver
    /// that satisfied them. Returns the first receiver *not* visited.
    pub(super) fn walk(&mut self, tx: TxId, end: bool, lo: usize, hi: usize) -> usize {
        let mark = self.stop_mark();
        for i in lo..hi {
            let wave = self.eff.frames.wave(tx);
            let rx = wave.receivers()[i];
            self.now = wave.time(i, end);
            self.signal_edge(&rx, tx, end);
            if i + 1 < hi {
                if self.stop_mark() != mark {
                    return i + 1;
                }
                self.debug_assert_lookahead(tx, end, i + 1);
            }
        }
        hi
    }

    /// Debug builds: nothing the cascades so far scheduled is due at or
    /// before receiver `next`'s edge — the lookahead fact that lets one
    /// peek (or one burst) cover a whole segment (`network/batch.rs`).
    pub(super) fn debug_assert_lookahead(&self, tx: TxId, end: bool, next: usize) {
        debug_assert!(
            self.eff
                .queue
                .peek_time_within(self.eff.frames.wave(tx).time(next, end))
                .is_none(),
            "a signal-edge cascade scheduled inside its wave's skew window"
        );
    }
}

/// The oracle path: every effect applied immediately to the network's
/// own structures, in exactly the order the pre-sharding engine did.
pub(super) struct SeqEffects<'a> {
    pub queue: &'a mut EventQueue<Event>,
    pub mac_timers: &'a mut Vec<[Option<EventId>; MacTimer::COUNT]>,
    pub discovery_timers: &'a mut Vec<mwn_aodv::NodeMap<EventId>>,
    pub transport_timers: &'a mut Vec<[[Option<EventId>; TransportTimer::COUNT]; 2]>,
    pub trace: &'a mut Option<TraceBuffer>,
    pub probes: &'a mut Option<ProbeBuffer>,
    pub ledger: &'a mut DropLedger,
    pub audit: &'a mut Option<ConservationAudit>,
    pub flight: &'a Arc<Mutex<FlightRecorder>>,
    pub total_delivered: &'a mut u64,
    pub frames: &'a mut FrameSlab,
    pub medium: &'a mut Medium,
    pub energy: &'a mut [EnergyMeter],
    pub params: &'a MacParams,
}

impl Effects for SeqEffects<'_> {
    fn schedule(&mut self, time: SimTime, event: Event) {
        self.queue.schedule(time, event);
    }

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

    fn clear_mac_timer(&mut self, node: NodeId, timer: MacTimer) {
        self.mac_timers[node.index()][timer.index()] = None;
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

    fn clear_transport_timer(&mut self, flow: FlowId, role: Role, timer: TransportTimer) {
        self.transport_timers[flow.slot() as usize][role.index()][timer.index()] = None;
    }

    fn cancel_all_transport_timers(&mut self, flow: FlowId) {
        for role in &mut self.transport_timers[flow.slot() as usize] {
            for timer in role {
                if let Some(old) = timer.take() {
                    self.queue.cancel(old);
                }
            }
        }
    }

    fn ensure_transport_timer_capacity(&mut self, len: usize) {
        while self.transport_timers.len() < len {
            self.transport_timers
                .push([[None; TransportTimer::COUNT]; 2]);
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

    fn clear_discovery_timer(&mut self, node: NodeId, dst: NodeId) {
        self.discovery_timers[node.index()].remove(dst);
    }

    fn trace(&mut self, now: SimTime, node: NodeId, event: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = self.trace.as_mut() {
            buf.push(TraceRecord {
                time: now,
                node,
                event: event(),
            });
        }
    }

    fn probe(&mut self, now: SimTime, kind: ProbeKind, id: u32, value: f64) {
        if let Some(p) = self.probes.as_mut() {
            p.record(now, kind, id, value);
        }
    }

    fn flight(&mut self, record: FlightRecord) {
        self.flight.lock().unwrap().record(record);
    }

    fn ledger_drop(&mut self, node: usize, class: usize, reason: DropReason) {
        self.ledger.record(node, class, reason);
    }

    fn audit_deliver_up(&mut self, node: usize, flow: u32) {
        if let Some(a) = self.audit.as_mut() {
            a.deliver_up(node, flow);
        }
    }

    fn audit_handoff(&mut self, node: usize, flow: u32) {
        if let Some(a) = self.audit.as_mut() {
            a.handoff(node, flow);
        }
    }

    fn audit_consume(&mut self, node: usize, flow: u32) {
        if let Some(a) = self.audit.as_mut() {
            a.consume(node, flow);
        }
    }

    fn audit_originate(&mut self, node: usize, flow: u32) {
        if let Some(a) = self.audit.as_mut() {
            a.originate(node, flow);
        }
    }

    fn audit_terminal_drop(&mut self, node: usize, flow: u32) {
        if let Some(a) = self.audit.as_mut() {
            a.terminal_drop(node, flow);
        }
    }

    fn add_delivered(&mut self, n: u64) {
        *self.total_delivered += n;
    }

    fn frame(&self, tx: TxId) -> Option<&MacFrame> {
        self.frames.get(tx)
    }

    fn release_frame(&mut self, tx: TxId) {
        self.frames.release(tx);
    }

    fn start_tx(
        &mut self,
        now: SimTime,
        node: NodeId,
        frame: MacFrame,
        tr: &mut Transceiver,
        evs: &mut Vec<RadioEvent>,
    ) {
        let duration = self.params.airtime(&frame);
        let (kind, dst, bytes, nav) = (frame.kind(), frame.dst(), frame.size_bytes(), frame.nav());
        self.trace(now, node, || TraceEvent::MacTx {
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
        tr.tx_start(evs);
    }
}
