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
//! Each layer is entered through one method, which pops a pooled action
//! buffer, finds the agent, calls it, applies its actions and returns the
//! buffer: [`Network::mac_input`] (a MAC timer, a queued packet, the end
//! of a transmission), [`Network::deliver_radio_events`] (a radio batch,
//! the one input that hands the MAC several events in a row),
//! [`Network::router_input`] (a discovery timeout, a delivered or
//! confirmed frame, a transport send) and [`Network::transport_input`]
//! (a start, a data segment, an ACK, a timer, a route failure). The
//! `apply_*_actions` methods only drain a borrowed buffer.
//!
//! Signal edges arrive as *waves*: [`Network::start_tx`] snapshots a
//! transmission's receivers into its frame-slab slot and schedules one
//! `Event::Wave` per edge kind; [`Network::walk_wave`] (which carries the
//! exactness argument) walks the snapshot in place, one
//! [`Network::signal_edge`] per receiver. Most receivers are bystanders and
//! pay for their radio state only: the batch of a MAC with nothing to do
//! stops at its node's transceiver ([`Network::process_radio_events`]), a
//! MAC that answers with no action skips the apply path, and a NAV it has
//! no use for is parked, not queued.

use std::num::NonZeroU64;
use std::ops::Range;

use mwn_aodv::{AodvAction, AodvDropReason, Router};
use mwn_mac80211::{Dcf, MacAction, MacDropReason, MacTimer};
use mwn_obs::flight::{FlightKind, FlightRecord, NO_REASON};
use mwn_obs::{CounterBlock, DropReason, ProbeKind};
use mwn_phy::{Effect, RadioEvent, TxId};
use mwn_pkt::{Body, FlowId, MacFrame, NodeId, Packet};
use mwn_sim::stats::TimeWeightedAverage;
use mwn_sim::SimTime;
use mwn_tcp::{TcpSender, TcpSink, TransportAction, TransportTimer};

use crate::scenario::Transport;
use crate::trace::{TraceEvent, TraceRecord};

use super::flows::{FlowDst, FlowMeta, FlowSrc};
use super::{
    fnv_mix, transport_flow, Event, Network, Role, SinkAgent, SourceAgent, JOURNAL_ARRIVAL,
    JOURNAL_COMPLETION, PERSISTENT,
};

/// A parked NAV: the `(time, seq)` it would have been queued under. The
/// number is kept plus one, so `Option<ParkedNav>` is 16 bytes.
#[derive(Debug, Clone, Copy)]
pub(super) struct ParkedNav {
    time: SimTime,
    seq_plus_one: NonZeroU64,
}

impl ParkedNav {
    fn new(time: SimTime, seq: u64) -> Self {
        let seq_plus_one = NonZeroU64::MIN.saturating_add(seq);
        ParkedNav { time, seq_plus_one }
    }

    /// The `(time, seq)` to queue the NAV under.
    fn key(self) -> (SimTime, u64) {
        (self.time, self.seq_plus_one.get() - 1)
    }
}

/// Recycled action buffers, one stack per layer. Dispatch re-enters (a
/// delivered frame can trigger a new send), so each layer's entry method
/// ([`Network::mac_input`], [`Network::router_input`],
/// [`Network::transport_input`], and [`Network::deliver_radio_events`] for
/// a radio batch) pops its own buffer, has the apply path drain it and
/// pushes it back — the steady state allocates nothing.
#[derive(Debug, Default)]
pub(super) struct Pools {
    pub mac: Vec<Vec<MacAction>>,
    pub aodv: Vec<Vec<AodvAction>>,
    pub transport: Vec<Vec<TransportAction>>,
    /// Radio events as a stack: a transceiver call pushes its ≤ 2 above
    /// the caller's `base`; [`Network::process_radio_events`] pops them.
    pub edge_scratch: Vec<RadioEvent>,
    /// Scratch for the ELFN route-failure fanout.
    pub flow_scratch: Vec<FlowId>,
}

/// What a transport agent is handed by [`Network::transport_input`].
#[derive(Debug, Clone, Copy)]
enum TransportInput {
    /// The source starts sending.
    Start,
    /// A data segment or datagram reached the sink.
    Data { seq: u64 },
    /// An ACK reached the source.
    Ack { ack: u64 },
    /// One of the agent's timers fired.
    Timer(TransportTimer),
    /// ELFN: the source's route failed.
    RouteFailure,
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
                self.nodes[node].mac_timers[timer.index()] = None;
                self.mac_input(node, |mac, now, out| mac.on_timer(now, timer, out));
            }
            Event::AodvSend {
                node,
                next_hop,
                packet,
            } => self.mac_input(node, |mac, now, out| {
                mac.enqueue(now, next_hop, packet, out);
            }),
            Event::AodvDiscovery { node, dst } => {
                self.discovery_timers.remove(&(node, dst));
                self.router_input(node, |router, now, out| {
                    router.on_discovery_timeout(now, dst, out);
                });
            }
            Event::Transport { flow, role, timer } => {
                self.transport_input(flow, role, TransportInput::Timer(timer));
            }
            Event::FlowStart { flow } => {
                self.transport_input(flow, Role::Source, TransportInput::Start);
            }
            Event::TrafficArrival { class } => self.handle_traffic_arrival(class),
            Event::Wave { .. } | Event::MobilityTick => {
                unreachable!("waves and mobility ticks are handled by the network loop")
            }
        }
    }

    /// One receiver's share of a wave: the leading (`end = false`) or
    /// trailing edge of transmission `tx` arriving at `rx.node`. The
    /// caller has already set [`Self::now`] to the arrival time, and
    /// releases the receivers of a trailing edge once its segment is
    /// walked.
    pub(super) fn signal_edge(&mut self, rx: &Effect, tx: TxId, end: bool) {
        let base = self.pools.edge_scratch.len();
        let radios = self.nodes.radios_mut();
        if end {
            radios.signal_end(rx.node, tx, &mut self.pools.edge_scratch);
        } else {
            radios.signal_start(rx.node, tx, rx.class, &mut self.pools.edge_scratch);
        }
        self.process_radio_events(rx.node, base);
    }

    fn tx_end(&mut self, node: NodeId) {
        // (No `StartTx` in there: the DCF only sends from timer handlers.)
        self.mac_input(node, |mac, now, out| mac.on_tx_done(now, out));
        let base = self.pools.edge_scratch.len();
        self.nodes
            .radios_mut()
            .tx_end(node, &mut self.pools.edge_scratch);
        self.process_radio_events(node, base);
    }

    /// Every input to `node`'s MAC goes through here: a radio batch it
    /// cannot be spared (the events in `batch` of the edge stack), a
    /// timer, a queued packet, the end of its own transmission. A MAC
    /// marked quiet wakes — its batches stop being absorbed, and the MAC
    /// gets the carrier state from before `batch` (the batch itself brings
    /// it the rest) and any EIFS absorbed meanwhile — and its record is
    /// built if this is the first time it acts. Returns the MAC.
    pub(super) fn enter_mac(&mut self, node: NodeId, batch: Range<usize>) -> &mut Dcf {
        let rest = self.nodes.rest_mut(node);
        let resume = rest.quiet.then(|| {
            rest.quiet = false;
            std::mem::take(&mut rest.eifs)
        });
        let resume = resume.map(|eifs| {
            let busy = self.nodes.radios().carrier_busy(node);
            let before =
                self.pools.edge_scratch[batch]
                    .iter()
                    .fold(busy, |busy, event| match event {
                        RadioEvent::CarrierBusy => false,
                        RadioEvent::CarrierIdle => true,
                        _ => busy,
                    });
            (before, eifs)
        });
        let mac = &mut self.nodes.touch(node).mac;
        if let Some((busy, eifs)) = resume {
            mac.resume(busy, eifs);
        }
        mac
    }

    /// `true` if `node`'s MAC may sit out a radio batch: it is marked
    /// quiet, or it has been handed every batch so far and has nothing to
    /// do ([`Dcf::is_quiet`]), and is marked now. Asked only before a batch
    /// is handed over, never in the middle of one — a batch nested in
    /// another is a transmitting MAC's, which is not quiet — so a marked
    /// MAC is in step with its radio as of the batch that marked it.
    fn mac_sits_out(&mut self, node: NodeId) -> bool {
        #[cfg(any(test, feature = "oracle"))]
        if self.eager_mac {
            return false;
        }
        if self.nodes.rest(node).quiet {
            return true;
        }
        let quiet = self.nodes[node].mac.is_quiet();
        self.nodes.rest_mut(node).quiet = quiet;
        quiet
    }

    // ---- layer entries ---------------------------------------------------

    /// The MAC's entry for an input that is not a radio batch (those go
    /// through [`Self::deliver_radio_events`]): a timer, a queued packet,
    /// the end of its own transmission. `input` is handed `node`'s DCF,
    /// woken and built by [`Self::enter_mac`], the clock and an action
    /// buffer; the actions are applied.
    fn mac_input(
        &mut self,
        node: NodeId,
        input: impl FnOnce(&mut Dcf, SimTime, &mut Vec<MacAction>),
    ) {
        let mut actions = self.pools.mac.pop().unwrap_or_default();
        let now = self.now;
        input(self.enter_mac(node, 0..0), now, &mut actions);
        self.apply_mac_actions(node, &mut actions);
        self.pools.mac.push(actions);
    }

    /// The router's entry: a discovery timeout, a packet its MAC delivered
    /// or confirmed, a packet a local transport agent sends (a flow
    /// source's first send builds its node's record). `input` is handed
    /// `node`'s router, the clock and an action buffer; the actions are
    /// applied.
    fn router_input(
        &mut self,
        node: NodeId,
        input: impl FnOnce(&mut Router, SimTime, &mut Vec<AodvAction>),
    ) {
        let mut actions = self.pools.aodv.pop().unwrap_or_default();
        let now = self.now;
        input(&mut self.nodes.touch(node).router, now, &mut actions);
        self.apply_aodv_actions(node, &mut actions);
        self.pools.aodv.push(actions);
    }

    /// A transport agent's entry: hands `input` to `flow`'s `role` end,
    /// counts what a sink delivers, notes the sender's window after a
    /// start, an ACK or a retransmission timeout, and applies the actions.
    /// A stale flow id does nothing (a completed traffic flow cancels its
    /// timers, so none should fire; if one slipped through, clearing its
    /// slot would wipe the next tenant's timer id), and so does an input
    /// the agent has no handler for.
    fn transport_input(&mut self, flow: FlowId, role: Role, input: TransportInput) {
        let Some(meta) = self.flows.meta(flow) else {
            return;
        };
        let node = match role {
            Role::Source => meta.src,
            Role::Sink => meta.dst,
        };
        if let TransportInput::Timer(timer) = input {
            // The id just fired: forget it, nothing to cancel.
            self.transport_timers[flow.slot() as usize][role.index()][timer.index()] = None;
        }
        let now = self.now;
        let mut actions = self.pools.transport.pop().unwrap_or_default();
        let out = &mut actions;
        match role {
            Role::Source => {
                let fs = self.flows.src_mut(flow).expect("a live flow has both ends");
                match (&mut fs.source, input) {
                    (SourceAgent::Tcp(s), TransportInput::Start) => s.start(now, out),
                    (SourceAgent::Udp(s), TransportInput::Start) => s.start(now, out),
                    (SourceAgent::Tcp(s), TransportInput::Ack { ack }) => s.on_ack(now, ack, out),
                    (SourceAgent::Tcp(s), TransportInput::Timer(TransportTimer::Rtx)) => {
                        s.on_rtx_timeout(now, out);
                    }
                    (SourceAgent::Tcp(s), TransportInput::Timer(TransportTimer::Probe)) => {
                        s.on_probe_timer(now, out);
                    }
                    (SourceAgent::Udp(s), TransportInput::Timer(TransportTimer::Pace)) => {
                        s.on_pace_timer(now, out);
                    }
                    (SourceAgent::Tcp(s), TransportInput::RouteFailure) => {
                        s.on_route_failure(now, out)
                    }
                    _ => {}
                }
            }
            Role::Sink => {
                let fd = self.flows.dst_mut(flow).expect("a live flow has both ends");
                let delivered = match (&mut fd.sink, input) {
                    (SinkAgent::Tcp(s), TransportInput::Data { seq }) => {
                        let before = s.stats().delivered;
                        s.on_data(now, seq, out);
                        s.stats().delivered - before
                    }
                    (SinkAgent::Udp(s), TransportInput::Data { seq }) => {
                        s.on_data(seq);
                        1
                    }
                    (SinkAgent::Tcp(s), TransportInput::Timer(TransportTimer::DelayedAck)) => {
                        s.on_delayed_ack_timer(now, out);
                        0
                    }
                    _ => 0,
                };
                if delivered > 0 {
                    fd.last_delivery = Some(now);
                }
                fd.delivered += delivered;
                self.total_delivered += delivered;
            }
        }
        if matches!(
            input,
            TransportInput::Start
                | TransportInput::Ack { .. }
                | TransportInput::Timer(TransportTimer::Rtx)
        ) {
            self.note_window(flow);
        }
        self.apply_transport_actions(flow, role, node, &mut actions);
        self.pools.transport.push(actions);
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
        self.transport_input(flow_id, Role::Source, TransportInput::Start);
        flow_id
    }

    /// Retires a completed traffic leg: cancels its remaining timers,
    /// vacates and generation-bumps the slot, then either spawns the
    /// response leg or journals the finished transaction.
    fn complete_traffic_flow(&mut self, flow: FlowId) {
        self.cancel_all_transport_timers(flow);
        let (meta, src_half, dst_half) = self.flows.vacate(flow);

        let (SourceAgent::Tcp(sender), SinkAgent::Tcp(sink)) = (&src_half.source, &dst_half.sink)
        else {
            unreachable!("traffic flows are TCP");
        };
        let budget = sender.budget().expect("traffic sender has a budget");
        let total = meta.carried + budget;
        let now = self.now;
        let t = self.traffic.as_mut().expect("traffic flow without state");
        t.live -= 1;
        let (tx, rx) = t.retired;
        t.retired = (tx.plus(sender.stats()), rx.plus(sink.stats()));
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

    // ---- PHY plumbing ----------------------------------------------------

    /// Feeds the events a transceiver call pushed above `base` to `node`'s
    /// MAC in the order reported, reading them in place, and pops them. A
    /// call nested inside the batch (none is: the DCF only sends from timer
    /// handlers) pops back to its own base. Only a non-empty batch is applied.
    ///
    /// A quiet MAC ([`mwn_mac80211::Dcf::is_quiet`]) is not called for a
    /// batch without an intact reception: it would answer with no action
    /// and change only its carrier flag, which the radio holds already, and
    /// its EIFS debt, which its `MacRest` keeps ([`Self::absorb_radio_events`]).
    #[inline]
    fn process_radio_events(&mut self, node: NodeId, base: usize) {
        let top = self.pools.edge_scratch.len();
        debug_assert!(top - base <= 2, "{} events from one radio call", top - base);
        if top == base {
            return;
        }
        let intact = self.pools.edge_scratch[base..top]
            .iter()
            .any(|e| matches!(e, RadioEvent::RxEnd { ok: true, .. }));
        if !intact && self.mac_sits_out(node) {
            self.absorb_radio_events(node, base);
        } else {
            self.deliver_radio_events(node, base);
        }
    }

    /// [`Self::process_radio_events`]'s MAC path: the batch above `base`
    /// goes to `node`'s MAC, which is woken first if it was quiet.
    #[inline(never)]
    fn deliver_radio_events(&mut self, node: NodeId, base: usize) {
        let top = self.pools.edge_scratch.len();
        self.enter_mac(node, base..top);
        let mut actions = self.pools.mac.pop().unwrap_or_default();
        let mut quiet = true;
        for k in base..top {
            match self.pools.edge_scratch[k] {
                RadioEvent::CarrierBusy => {
                    self.nodes[node].mac.on_carrier_busy(self.now, &mut actions);
                }
                RadioEvent::CarrierIdle => {
                    self.nodes[node].mac.on_carrier_idle(self.now, &mut actions);
                }
                RadioEvent::RxStart(_) => {}
                RadioEvent::RxEnd { tx, ok: true } => {
                    self.trace_event(node, || TraceEvent::PhyRxOk);
                    let frame = self.frames.get(tx).expect("RxEnd for unknown transmission");
                    let mac = &mut self.nodes[node].mac;
                    mac.on_rx_frame(self.now, frame, &mut actions);
                }
                RadioEvent::RxEnd { ok: false, .. } | RadioEvent::UndecodedEnd => {
                    self.trace_event(node, || TraceEvent::PhyCorrupt);
                    self.nodes[node].mac.on_rx_corrupt(self.now);
                }
            }
            if actions.is_empty() {
                // An empty apply still ran the probe, which dates first samples.
                let depth = self.nodes[node].mac.queue_len();
                self.probe(ProbeKind::IfqDepth, node.raw(), depth as f64);
            } else {
                quiet = false;
                self.apply_mac_actions(node, &mut actions);
            }
            debug_assert_eq!(self.pools.edge_scratch.len(), top, "nested batch left");
        }
        self.pools.edge_scratch.truncate(base);
        self.pools.mac.push(actions);
        if let Some(p) = self.profile.as_mut().filter(|_| quiet) {
            p.mac_batches_without_actions += 1;
        }
    }

    /// [`Self::process_radio_events`] for a quiet MAC's batch without an
    /// intact reception: what the MAC path leaves behind, without the MAC.
    /// A corrupt or undecoded end is traced and owes an EIFS; each event
    /// takes the queue-depth sample the MAC path takes (0: a quiet MAC's
    /// queue is empty).
    #[inline]
    fn absorb_radio_events(&mut self, node: NodeId, base: usize) {
        let top = self.pools.edge_scratch.len();
        let corrupt =
            |e: &RadioEvent| matches!(e, RadioEvent::RxEnd { .. } | RadioEvent::UndecodedEnd);
        if self.trace.is_some() || self.probes.is_some() {
            for k in base..top {
                if corrupt(&self.pools.edge_scratch[k]) {
                    self.trace_event(node, || TraceEvent::PhyCorrupt);
                }
                self.probe(ProbeKind::IfqDepth, node.raw(), 0.0);
            }
        }
        if self.pools.edge_scratch[base..top].iter().any(corrupt) {
            self.nodes.rest_mut(node).eifs = true;
        }
        self.pools.edge_scratch.truncate(base);
        if let Some(p) = &mut self.profile {
            p.mac_batches_without_actions += 1;
            p.radio_batches_absorbed += 1;
        }
    }

    // ---- action application ----------------------------------------------

    fn apply_mac_actions(&mut self, node: NodeId, actions: &mut Vec<MacAction>) {
        for action in actions.drain(..) {
            match action {
                MacAction::StartTx(frame) => self.start_tx(node, frame),
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
                    self.router_input(node, |router, now, out| {
                        router.on_received(now, from, packet, out);
                    });
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
                    self.router_input(node, |router, now, out| {
                        router.on_tx_confirm(now, next_hop, packet, success, out);
                    });
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
        let depth = self.nodes[node].mac.queue_len();
        self.probe(ProbeKind::IfqDepth, node.raw(), depth as f64);
        self.wake_parked_nav(node);
    }

    fn apply_aodv_actions(&mut self, node: NodeId, actions: &mut Vec<AodvAction>) {
        for action in actions.drain(..) {
            match action {
                AodvAction::Send {
                    packet,
                    next_hop,
                    delay,
                } => {
                    if delay.is_zero() {
                        self.mac_input(node, |mac, now, out| {
                            mac.enqueue(now, next_hop, packet, out);
                        });
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
    }

    /// Hands a packet the router delivered here to its flow's end: data to
    /// the sink, an ACK to the source. A finished flow's straggler and a
    /// packet at the wrong node or going the wrong way are dropped; an
    /// ACK that completes a traffic leg retires it.
    fn deliver_to_transport(&mut self, node: NodeId, packet: Packet) {
        let (flow, input) = match &packet.body {
            Body::Tcp(seg) if seg.is_data() => (seg.flow, TransportInput::Data { seq: seg.seq }),
            Body::Tcp(seg) => (seg.flow, TransportInput::Ack { ack: seg.ack }),
            Body::Udp(d) => (d.flow, TransportInput::Data { seq: d.seq }),
            // Routing messages never reach the transport layer.
            Body::Aodv(_) => return,
        };
        let Some(&meta) = self.flows.meta(flow) else {
            // Stale generation: a straggler from a finished flow.
            self.record_drop(node, &packet, DropReason::FlowTeardown);
            return;
        };
        let ack = matches!(input, TransportInput::Ack { .. });
        let (role, end) = if ack {
            (Role::Source, meta.src)
        } else {
            (Role::Sink, meta.dst)
        };
        if node != end {
            // Wrong node or wrong direction: nothing consumes it.
            self.record_drop(node, &packet, DropReason::SinkDiscard);
            return;
        }
        // Custody: the endpoint consumed this copy (duplicate or not).
        if let Some(a) = &mut self.audit {
            a.consume(node.index(), flow.raw());
        }
        self.transport_input(flow, role, input);
        // The ACK may have been the flow's last: an app-limited sender
        // with its whole budget acknowledged retires.
        let done = ack
            && meta.class != PERSISTENT
            && self
                .flows
                .src_ref(flow)
                .is_some_and(|fs| matches!(&fs.source, SourceAgent::Tcp(s) if s.is_complete()));
        if done {
            self.complete_traffic_flow(flow);
        }
    }

    /// ELFN: tells every local TCP sender whose flow targets `dst` that
    /// its route just failed. Strictly node-local: only flows sourced at
    /// `node` are touched.
    fn notify_route_failure(&mut self, node: NodeId, dst: NodeId) {
        let mut ids = std::mem::take(&mut self.pools.flow_scratch);
        ids.clear();
        self.flows.collect_tcp_src_flows(node, &mut ids);
        for flow in ids.drain(..) {
            if self.flows.meta(flow).is_some_and(|m| m.dst == dst) {
                self.transport_input(flow, Role::Source, TransportInput::RouteFailure);
            }
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
        actions: &mut Vec<TransportAction>,
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
                    self.router_input(node, |router, now, out| router.send(now, packet, out));
                }
                TransportAction::SetTimer { timer, delay } => {
                    self.set_transport_timer(self.now + delay, flow, role, timer);
                }
                TransportAction::CancelTimer(timer) => {
                    self.cancel_transport_timer(flow, role, timer);
                }
            }
        }
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
    /// Arms `timer` — except a NAV whose expiry would do nothing
    /// (`!Dcf::wants_medium`): that one is *parked*, out of the queue, with the
    /// sequence number it would have drawn so later events keep their tie-break.
    fn set_mac_timer(&mut self, time: SimTime, node: NodeId, timer: MacTimer) {
        self.cancel_mac_timer(node, timer);
        let park = timer == MacTimer::Nav && !self.nodes[node].mac.wants_medium();
        #[cfg(any(test, feature = "oracle"))]
        let park = park && !self.eager_nav;
        if park {
            let parked = ParkedNav::new(time, self.queue.reserve_seqs(1));
            self.nodes[node].nav_parked = Some(parked);
        } else {
            let id = self.queue.schedule(time, Event::Mac { node, timer });
            self.nodes[node].mac_timers[timer.index()] = Some(id);
        }
        if let Some(p) = self.profile.as_mut().filter(|_| timer == MacTimer::Nav) {
            p.nav_parked += u64::from(park);
            p.nav_armed += u64::from(!park);
        }
    }

    fn cancel_mac_timer(&mut self, node: NodeId, timer: MacTimer) {
        let record = &mut self.nodes[node];
        if let Some(old) = record.mac_timers[timer.index()].take() {
            self.queue.cancel(old);
        }
        if timer == MacTimer::Nav {
            record.nav_parked = None;
        }
    }

    /// Ends [`Self::apply_mac_actions`], which every input that can give a MAC
    /// something to send passes through: a parked NAV whose MAC now wants the
    /// medium is queued under its own `(time, seq)` and pops where it always did
    /// (one already due fired unnoticed, a no-op); a walked wave yields to it.
    fn wake_parked_nav(&mut self, node: NodeId) {
        let record = &mut self.nodes[node];
        let Some((time, seq)) = record
            .nav_parked
            .filter(|_| record.mac.wants_medium())
            .map(ParkedNav::key)
        else {
            return;
        };
        record.nav_parked = None;
        if time > self.now {
            let timer = MacTimer::Nav;
            let nav = Event::Mac { node, timer };
            let id = self.queue.schedule_keyed(time, seq, nav);
            record.mac_timers[timer.index()] = Some(id);
            self.wave_floor = self.wave_floor.min(time);
            if let Some(p) = &mut self.profile {
                p.nav_materialised += 1;
            }
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
        self.cancel_discovery_timer(node, dst);
        let id = self
            .queue
            .schedule(time, Event::AodvDiscovery { node, dst });
        self.discovery_timers.insert((node, dst), id);
    }

    fn cancel_discovery_timer(&mut self, node: NodeId, dst: NodeId) {
        if let Some(old) = self.discovery_timers.remove(&(node, dst)) {
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
    /// starts the local transceiver.
    fn start_tx(&mut self, node: NodeId, frame: MacFrame) {
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
        self.nodes.radios_mut().energy_mut(node).add_tx(duration);
        // Transmission time is where lazy medium staleness resolves:
        // `refresh` serves the stored list if no move batch came since
        // it was built, else fills it one-shot (this node's first
        // transmission in the epoch) or stores it anew. The returned
        // borrow lives in place while the slab copies it; everything
        // touched meanwhile (queue, frames, node records) is a disjoint
        // field.
        let effects = self.medium.refresh(node);
        if !effects.is_empty() {
            // The numbers the per-receiver start/end events would have
            // drawn, so everything scheduled from here on keeps its
            // tie-break (`TxEnd` below is number `base + 2n`, as ever).
            let seq_base = self.queue.reserve_seqs(2 * effects.len() as u64);
            let tx = self.frames.insert(frame, now, duration, seq_base, effects);
            for e in effects {
                if e.class.decodable {
                    self.nodes.radios_mut().energy_mut(e.node).add_rx(duration);
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
        let base = self.pools.edge_scratch.len();
        self.nodes
            .radios_mut()
            .tx_start(node, &mut self.pools.edge_scratch);
        self.process_radio_events(node, base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::topology::Topology;
    use crate::StepOutcome;
    use mwn_phy::{DataRate, Position};
    use mwn_pkt::AodvMessage;
    use mwn_sim::SimDuration;

    const S: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);
    const F: NodeId = NodeId(2);

    /// Three idle nodes on a line, no flows: S, a bystander B 100 m
    /// (333 ns) from it and F 240 m (800 ns) from it, so S's wave passes
    /// B 467 ns before F. The clock is set to `t0`.
    fn line(t0: SimTime, eager_nav: bool) -> Network {
        let at = |x| Position::new(x, 0.0);
        let topology = Topology::from_positions(vec![at(0.0), at(100.0), at(240.0)]);
        let mut net = Scenario::new(topology, Vec::new(), DataRate::MBPS_2, 1).build();
        net.enable_trace(10_000);
        net.enable_probes(10_000);
        net.enable_profiling();
        net.set_eager_nav(eager_nav);
        net.now = t0;
        net
    }

    /// B overhears an RTS (F → S) whose NAV runs until `until`.
    fn overhear_rts(net: &mut Network, until: SimTime) {
        let rts = MacFrame::Rts {
            src: F,
            dst: S,
            nav: until.duration_since(net.now),
        };
        net.mac_input(B, |mac, now, out| mac.on_rx_frame(now, &rts, out));
    }

    fn trace_lines(net: &Network) -> Vec<String> {
        net.trace().iter().map(|r| format!("{r:?}")).collect()
    }

    /// A radio batch the MAC has no answer to costs one buffer round trip
    /// and no `apply_mac_actions` — but still dates the node's first
    /// queue-depth sample, as the empty apply it replaces did. A quiet MAC
    /// is not even called: its batches stop at the radio, its `MacRest` keeps
    /// the EIFS they owe, and no record is built for it. Both paths leave
    /// the same trace, probes and profile.
    #[test]
    fn quiet_radio_batch_balances_the_pool_and_dates_the_first_ifq_sample() {
        let t0 = SimTime::from_nanos(5_000);
        let run = |eager_mac: bool| {
            let mut net = line(t0, false);
            net.set_eager_mac(eager_mac);
            let batch = |net: &mut Network, evs: &[RadioEvent]| {
                net.pools.edge_scratch.extend_from_slice(evs);
                net.process_radio_events(B, 0);
                assert!(net.pools.edge_scratch.is_empty());
            };
            let locked = [RadioEvent::CarrierBusy, RadioEvent::RxStart(TxId(7))];
            batch(&mut net, &locked);
            let pooled = net.pools.mac.len();
            assert_eq!(pooled, usize::from(eager_mac), "the buffer taken went back");
            net.now = SimTime::from_nanos(9_000);
            batch(
                &mut net,
                &[RadioEvent::UndecodedEnd, RadioEvent::CarrierIdle],
            );
            batch(&mut net, &[]);
            assert_eq!(net.pools.mac.len(), pooled);
            assert!(net.pools.mac.iter().all(Vec::is_empty));
            assert_eq!(net.node_records(), usize::from(eager_mac));
            let rest = net.nodes.rest(B);
            assert_eq!(rest.eifs, !eager_mac, "EIFS kept beside the radio");
            assert_eq!(rest.quiet, !eager_mac);

            let profile = net.profile().unwrap();
            assert_eq!(
                profile.mac_batches_without_actions, 2,
                "empty batches don't count"
            );
            let absorbed = if eager_mac { 0 } else { 2 };
            assert_eq!(profile.radio_batches_absorbed, absorbed);
            let samples: Vec<_> = net.probes().unwrap().samples().copied().collect();
            assert_eq!(samples.len(), 1, "on-change: depth never moved");
            assert_eq!(
                (
                    samples[0].time,
                    samples[0].kind,
                    samples[0].id,
                    samples[0].value
                ),
                (t0, ProbeKind::IfqDepth, B.raw(), 0.0)
            );
            trace_lines(&net)
        };
        let trace = run(false);
        assert_eq!(trace.len(), 1, "{trace:?}");
        assert!(trace[0].contains("PhyCorrupt"), "{trace:?}");
        assert_eq!(trace, run(true));
    }

    /// A MAC that wakes for a batch is handed the carrier state from
    /// before it and the EIFS its absorbed batches owe — the state it
    /// would hold had it been handed every batch — and is marked quiet
    /// again at the next batch it has no use for.
    #[test]
    fn a_woken_mac_resumes_where_every_batch_would_have_left_it() {
        let t0 = SimTime::from_nanos(5_000);
        let mut net = line(t0, false);
        net.pools
            .edge_scratch
            .extend_from_slice(&[RadioEvent::UndecodedEnd]);
        net.process_radio_events(B, 0);
        assert_eq!(net.node_records(), 0);
        // The radio reads busy; the batch that wakes the MAC turned it so.
        let mut ignored = Vec::new();
        net.nodes.radios_mut().tx_start(B, &mut ignored);
        net.pools.edge_scratch.push(RadioEvent::CarrierBusy);
        let mut expected = line(t0, false);
        expected.nodes.touch(B).mac.resume(false, true);
        net.enter_mac(B, 0..1);
        let woken = format!("{:?}", net.nodes[B].mac);
        assert_eq!(woken, format!("{:?}", expected.nodes[B].mac));
        let rest = net.nodes.rest(B);
        assert!(!rest.quiet && !rest.eifs, "the debt moved to the MAC");
        net.pools.edge_scratch.clear();
        // With nothing to do, the MAC sits out the next batch again.
        net.pools.edge_scratch.push(RadioEvent::UndecodedEnd);
        net.process_radio_events(B, 0);
        let rest = net.nodes.rest(B);
        assert!(rest.quiet && rest.eifs, "owing an EIFS again");
        assert_eq!(net.profile().unwrap().radio_batches_absorbed, 2);
    }

    /// The radio-event buffer is a stack: a batch pushed above a non-zero
    /// `base` (as by a transceiver call made while an outer batch is still
    /// being handled) is read in place in the order reported and popped
    /// back to `base`, leaving the entries below it as they were.
    #[test]
    fn radio_batch_above_a_base_is_handled_in_order_and_popped_to_it() {
        let t0 = SimTime::from_nanos(5_000);
        let mut net = line(t0, false);
        // F's RTS to S is on the air; B, 140 m from F, decodes it.
        let rts = MacFrame::Rts {
            src: F,
            dst: S,
            nav: SimDuration::from_micros(300),
        };
        let effects = net.medium.refresh(F).to_vec();
        let airtime = SimDuration::from_micros(200);
        let tx = net.frames.insert(rts, t0, airtime, 0, &effects);
        let below = [RadioEvent::CarrierBusy, RadioEvent::RxStart(TxId(7))];
        net.pools.edge_scratch.extend_from_slice(&below);
        let reported = [RadioEvent::UndecodedEnd, RadioEvent::RxEnd { tx, ok: true }];
        net.pools.edge_scratch.extend_from_slice(&reported);
        net.nodes.touch(B);
        net.process_radio_events(B, below.len());

        assert_eq!(net.pools.edge_scratch, below);
        let phy: Vec<TraceEvent> = net
            .trace()
            .iter()
            .filter(|r| r.node == B)
            .map(|r| r.event)
            .filter(|e| matches!(e, TraceEvent::PhyCorrupt | TraceEvent::PhyRxOk))
            .collect();
        assert_eq!(phy, [TraceEvent::PhyCorrupt, TraceEvent::PhyRxOk]);
        assert!(net.nodes[B].nav_parked.is_some(), "the RTS set B's NAV");
        assert_eq!(net.profile().unwrap().mac_batches_without_actions, 0);
    }

    /// A NAV at a MAC with nothing to send is parked, never queued: the
    /// queue of an otherwise idle network stays empty, so a run ends
    /// `Quiescent` on the spot with the clock where it was — where the
    /// eager schedule runs on to pop the timer and do nothing.
    #[test]
    fn parked_nav_neither_keeps_the_queue_alive_nor_moves_the_clock() {
        let t0 = SimTime::from_nanos(1_000_000);
        let until = t0 + SimDuration::from_micros(700);
        let deadline = t0 + SimDuration::from_secs(1);
        for (eager, end) in [(false, t0), (true, until)] {
            let mut net = line(t0, eager);
            overhear_rts(&mut net, until);
            assert_eq!(net.nodes[B].nav_parked.is_some(), !eager);
            assert_eq!(net.queue.len(), usize::from(eager));
            assert_eq!(net.run_until_delivered(1, deadline), StepOutcome::Quiescent);
            assert_eq!(net.now(), end, "eager = {eager}");
            let p = net.profile().unwrap();
            assert_eq!(
                (p.nav_parked, p.nav_armed),
                (u64::from(!eager), u64::from(eager))
            );
            assert_eq!(p.nav_materialised, 0);
        }
    }

    /// The one way a signal-edge cascade puts an event inside its own
    /// wave's skew window: S floods a route request for B; B — a
    /// bystander whose parked NAV expires 233 ns after the request's
    /// trailing edge reaches it — answers at once, so its MAC suddenly
    /// wants the medium and the NAV enters the queue *between* B's edge
    /// and F's. The walk must yield before F. Without the floor check in
    /// `walk_segment` the debug build trips `debug_assert_lookahead` and
    /// the release build runs the clock backwards (both assertions below
    /// fail).
    #[test]
    fn nav_woken_inside_a_walked_segment_pops_before_the_later_receivers() {
        let t0 = SimTime::from_nanos(1_000_000);
        let rreq = Packet::new(
            77,
            S,
            NodeId::BROADCAST,
            Body::Aodv(AodvMessage::Rreq {
                rreq_id: 1,
                orig: S,
                orig_seq: 1,
                dst: B,
                dst_seq: None,
                hop_count: 0,
            }),
        );
        let run = |eager: bool| {
            let mut net = line(t0, eager);
            // An idle MAC sends a broadcast one DIFS after it is queued.
            let on_air = t0 + net.params.difs();
            let airtime = net.params.airtime(&MacFrame::Data {
                src: S,
                dst: NodeId::BROADCAST,
                seq: 0,
                retry: false,
                nav: SimDuration::ZERO,
                packet: rreq.clone(),
            });
            let delay = |net: &mut Network, to: NodeId| {
                let effects = net.medium.refresh(S);
                effects.iter().find(|e| e.node == to).unwrap().delay
            };
            let edge_at_b = on_air + airtime + delay(&mut net, B);
            let edge_at_f = on_air + airtime + delay(&mut net, F);
            let nav_until = edge_at_b + SimDuration::from_nanos(233);
            assert!(nav_until < edge_at_f);

            overhear_rts(&mut net, nav_until);
            net.handle_event(Event::AodvSend {
                node: S,
                next_hop: NodeId::BROADCAST,
                packet: rreq.clone(),
            });
            net.run_until(edge_at_f + SimDuration::from_micros(5));
            (net, nav_until, edge_at_f)
        };

        let (net, nav_until, edge_at_f) = run(false);
        let p = net.profile().unwrap();
        assert_eq!((p.nav_parked, p.nav_materialised), (1, 1));
        assert!(
            p.wave_yields() >= 1,
            "the trailing edge went back to the queue"
        );
        let times: Vec<SimTime> = net.trace().iter().map(|r| r.time).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "clock ran backwards"
        );
        // B's NAV expiry (it arms a DIFS) precedes F's reception.
        let position = |node, time, what: fn(&TraceEvent) -> bool| {
            net.trace()
                .iter()
                .position(|r| r.node == node && r.time == time && what(&r.event))
                .expect("record present")
        };
        let expiry = position(B, nav_until, |e| matches!(e, TraceEvent::MacDefer { .. }));
        let reception = position(F, edge_at_f, |e| matches!(e, TraceEvent::PhyRxOk));
        assert!(expiry < reception);

        let (oracle, ..) = run(true);
        assert_eq!(trace_lines(&net), trace_lines(&oracle));
        assert_eq!(net.totals(), oracle.totals());
    }
}
