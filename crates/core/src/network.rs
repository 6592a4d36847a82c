//! The network: every protocol layer wired to one event loop.
//!
//! This module owns the state and the run loop — including the walk that
//! carries one transmission's signal edge across its receivers
//! ([`Network::walk_wave`]). What handling one event *does* — its fan-out
//! through the layers — is more `impl Network`, in [`cascade`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mwn_aodv::AodvCounters;
use mwn_mac80211::{MacCounters, MacParams, MacTimer};
use mwn_obs::flight::{self, FlightRecorder};
use mwn_obs::{
    ConservationAudit, ConservationReport, CounterBlock, DropLedger, DropReason, FctSummary,
    FlowCounters, MetricsReport, MetricsSnapshot, NodeCounters, ProbeBuffer,
};
use mwn_phy::{EnergyParams, Medium, TxId};
use mwn_pkt::{Body, FlowId, NodeId, Packet};
use mwn_sim::stats::TimeWeightedAverage;
use mwn_sim::{EngineProfile, EventId, EventQueue, FxHashMap, Pcg32, SimDuration, SimTime};
use mwn_tcp::{
    PacedUdpSource, TcpSender, TcpSenderStats, TcpSink, TcpSinkStats, TransportTimer, UdpSink,
};
use mwn_traffic::TrafficEngine;

use crate::mobility::MobilityModel;
use crate::scenario::{Scenario, Transport};
use crate::trace::{TraceBuffer, TraceRecord};

mod cascade;
mod flows;
mod frames;
mod nodes;

use cascade::Pools;
use flows::{FlowDst, FlowMeta, FlowSrc, Flows};
use frames::FrameSlab;
use nodes::NodeTable;

/// Which end of a flow a transport timer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Role {
    Source,
    Sink,
}

impl Role {
    /// Dense index into the per-flow timer table.
    fn index(self) -> usize {
        match self {
            Role::Source => 0,
            Role::Sink => 1,
        }
    }
}

#[derive(Debug)]
enum Event {
    /// The leading (`end = false`) or trailing edge of transmission `tx`
    /// reaches the receiver under its wave's cursor — and, walked in
    /// place, the receivers after it (see [`Network::walk_wave`]).
    Wave { tx: TxId, end: bool },
    /// `node`'s own transmission ends.
    TxEnd { node: NodeId },
    /// A MAC timer fires at `node`.
    Mac { node: NodeId, timer: MacTimer },
    /// A jittered AODV transmission is due.
    AodvSend {
        node: NodeId,
        next_hop: NodeId,
        packet: Packet,
    },
    /// An AODV route-discovery timer fires.
    AodvDiscovery { node: NodeId, dst: NodeId },
    /// A transport timer fires.
    Transport {
        flow: FlowId,
        role: Role,
        timer: TransportTimer,
    },
    /// A flow opens.
    FlowStart { flow: FlowId },
    /// The next open-loop traffic flow of `class` arrives.
    TrafficArrival { class: usize },
    /// Mobility model tick: reposition nodes and recompute the medium.
    MobilityTick,
}

/// Stable event-kind name for the engine profile's histogram. The two
/// signal kinds count wave *segments* (queue pops), not receivers; the
/// receivers are [`EngineProfile::signal_edges`].
fn event_kind(event: &Event) -> &'static str {
    match event {
        Event::Wave { end: false, .. } => "signal_start",
        Event::Wave { end: true, .. } => "signal_end",
        Event::TxEnd { .. } => "tx_end",
        Event::Mac { .. } => "mac_timer",
        Event::AodvSend { .. } => "aodv_send",
        Event::AodvDiscovery { .. } => "aodv_discovery",
        Event::Transport { .. } => "transport_timer",
        Event::FlowStart { .. } => "flow_start",
        Event::TrafficArrival { .. } => "traffic_arrival",
        Event::MobilityTick => "mobility_tick",
    }
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one agent per flow; size is irrelevant
enum SourceAgent {
    Tcp(TcpSender),
    Udp(PacedUdpSource),
}

#[derive(Debug)]
enum SinkAgent {
    Tcp(TcpSink),
    Udp(UdpSink),
}

/// Class marker for persistent (scenario-listed) flows, which never
/// complete and never free their slot.
const PERSISTENT: u32 = u32::MAX;

/// The flow a transport-bodied packet belongs to (`FlowId::raw`); `None`
/// for AODV control traffic, which the custody audit excludes.
fn transport_flow(packet: &Packet) -> Option<u32> {
    match &packet.body {
        Body::Tcp(seg) => Some(seg.flow.raw()),
        Body::Udp(d) => Some(d.flow.raw()),
        Body::Aodv(_) => None,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds one value into an FNV-1a64 running hash, byte by byte.
fn fnv_mix(hash: &mut u64, value: u64) {
    for b in value.to_le_bytes() {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// Journal-record tags for the traffic digest (distinct so an arrival
/// and a completion can never hash alike).
const JOURNAL_ARRIVAL: u64 = 0xA5;
const JOURNAL_COMPLETION: u64 = 0xC7;

/// Everything the network tracks for an open-loop workload: the
/// generator, per-class FCT accounting and two streaming digests.
///
/// The *journal* digest folds every spawn and completion (with times),
/// so two runs agree iff their whole traffic histories agree. The
/// *arrival* digest folds only first-leg arrivals, whose times and
/// draws are a pure function of the scenario seed — it is invariant
/// across deadline subdivision and worker counts by construction.
struct TrafficState {
    engine: TrafficEngine,
    transport: Transport,
    /// Legs spawned so far (requests and responses); names the uid
    /// namespace of each leg.
    spawn_counter: u64,
    /// Flows currently occupying slots.
    live: u64,
    fct: FctSummary,
    journal_count: u64,
    journal_hash: u64,
    arrival_count: u64,
    arrival_hash: u64,
    /// Summed TCP statistics of completed legs (their slots are recycled).
    retired: (TcpSenderStats, TcpSinkStats),
}

/// Network-wide aggregate counters (sums over nodes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkTotals {
    /// Sum of per-node MAC counters.
    pub mac: MacCounters,
    /// Sum of per-node AODV counters.
    pub aodv: AodvCounters,
}

/// Outcome of a bounded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The delivery target was reached.
    TargetReached,
    /// The simulated-time deadline passed first.
    DeadlineExpired,
    /// The event queue drained (network dead — indicates a bug or an
    /// unreachable destination with no retry source). Parked NAV timers are
    /// not in the queue: they neither keep a run alive nor move its clock.
    Quiescent,
}

/// A fully wired multihop wireless network.
///
/// Build one from a [`Scenario`] via [`Scenario::build`], then drive it
/// with [`Network::run_until_delivered`].
pub struct Network {
    now: SimTime,
    queue: EventQueue<Event>,
    medium: Medium,
    /// The one MAC parameter set every DCF shares.
    params: Arc<MacParams>,
    /// Every node's radio state, and its protocol state once its MAC or
    /// router first acts.
    nodes: NodeTable,
    /// The one power draw every energy meter is read at.
    energy_params: EnergyParams,
    /// Flow slab: persistent flows occupy slots `0..n` forever; traffic
    /// flows churn through the remainder via the free list.
    flows: Flows,
    /// Open-loop workload state, if the scenario has one.
    traffic: Option<TrafficState>,
    /// Frames on the air, keyed by generation-tagged [`TxId`].
    frames: FrameSlab,
    /// Earliest NAV woken during the segment [`Network::walk_segment`] walks.
    wave_floor: SimTime,
    /// AODV discovery timers, keyed by `(node, destination)`: one map for
    /// the network, since only the few nodes running a discovery hold one.
    discovery_timers: FxHashMap<(NodeId, NodeId), EventId>,
    /// Flat per-flow transport timer table, `[role][timer]`.
    transport_timers: Vec<[[Option<EventId>; TransportTimer::COUNT]; 2]>,
    total_delivered: u64,
    trace: Option<TraceBuffer>,
    probes: Option<ProbeBuffer>,
    profile: Option<EngineProfile>,
    /// Always-on loss ledger: one array increment per drop event.
    ledger: DropLedger,
    /// Index of the ledger's trailing `unattributed` class.
    unattributed: usize,
    /// Opt-in custody tracking for the conservation audit.
    audit: Option<ConservationAudit>,
    /// Always-on flight recorder of the rare events, shared with the
    /// panic hook via [`mwn_obs::flight::register`]. `Arc<Mutex<_>>`
    /// (not `Rc<RefCell<_>>`) so the network stays `Send`.
    flight: Arc<Mutex<FlightRecorder>>,
    mobility: Option<MobilityModel>,
    /// Reused moved-node batch for the mobility tick: only nodes whose
    /// position actually changed (paused nodes don't) are handed to the
    /// medium's incremental update.
    moved: Vec<(NodeId, mwn_phy::Position)>,
    /// Recycled action/event buffers for the cascade.
    pools: Pools,
    /// Test oracles, each documented at its setter.
    #[cfg(any(test, feature = "oracle"))]
    eager_medium: bool,
    #[cfg(any(test, feature = "oracle"))]
    yield_every_receiver: bool,
    #[cfg(any(test, feature = "oracle"))]
    eager_nav: bool,
    #[cfg(any(test, feature = "oracle"))]
    eager_mac: bool,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("total_delivered", &self.total_delivered)
            .finish_non_exhaustive()
    }
}

impl Network {
    pub(crate) fn build(scenario: &Scenario) -> Network {
        let n = scenario.topology.len();
        let params = Arc::new(scenario.mac_params());
        // Lists are stored when their node transmits twice in an
        // epoch: a mobile field's first tick would make any list built
        // here stale.
        let medium = Medium::lazy(scenario.topology.positions().to_vec(), scenario.ranges);
        // The root's forks: DCF i is fork i, router i fork n + i (each
        // drawn when its record is built), mobility fork 2n.
        let mut root = Pcg32::new(scenario.seed);
        let nodes = NodeTable::new(
            n,
            Arc::clone(&params),
            scenario.ranges.capture_threshold,
            scenario.aodv,
            root.clone(),
        );

        let mut queue = EventQueue::new();
        let mut flows = Flows::default();
        for (i, spec) in scenario.flows.iter().enumerate() {
            let flow_id = FlowId(i as u32);
            let uid_base = (2 << 61) | ((i as u64) << 40);
            let (source, sink) = match spec.transport {
                Transport::Tcp {
                    flavor,
                    config,
                    ack_policy,
                } => (
                    SourceAgent::Tcp(TcpSender::new(
                        config, flavor, flow_id, spec.src, spec.dst, uid_base,
                    )),
                    SinkAgent::Tcp(TcpSink::new(
                        ack_policy,
                        flow_id,
                        spec.dst,
                        spec.src,
                        uid_base | (1 << 39),
                    )),
                ),
                Transport::PacedUdp { gap } => (
                    SourceAgent::Udp(PacedUdpSource::new(
                        flow_id, spec.src, spec.dst, gap, uid_base,
                    )),
                    SinkAgent::Udp(UdpSink::new()),
                ),
            };
            flows.push_persistent(
                FlowMeta {
                    src: spec.src,
                    dst: spec.dst,
                    class: PERSISTENT,
                    started: SimTime::ZERO,
                    carried: 0,
                    response: None,
                },
                FlowSrc {
                    source,
                    cwnd_twa: TimeWeightedAverage::new(SimTime::ZERO, 1.0),
                },
                FlowDst {
                    sink,
                    delivered: 0,
                    last_delivery: None,
                },
            );
            // Stagger flow starts slightly to de-synchronise discoveries.
            let start = SimTime::ZERO + SimDuration::from_millis(10 * i as u64);
            queue.schedule(start, Event::FlowStart { flow: flow_id });
        }

        let mobility = scenario.mobility.map(|params| {
            let positions = scenario.topology.positions().to_vec();
            MobilityModel::new(params, positions, root.fork_at(2 * n as u64))
        });
        root.advance(4 * (2 * n as u64 + u64::from(mobility.is_some())));
        if let Some(m) = &mobility {
            queue.schedule(SimTime::ZERO + m.tick(), Event::MobilityTick);
        }

        // The traffic fork comes after every other consumer of `root`, so
        // scenarios without traffic draw exactly the pre-traffic stream
        // (golden traces stay bit-identical).
        let mut traffic = scenario.traffic.as_ref().map(|spec| {
            assert!(
                matches!(spec.transport, Transport::Tcp { .. }),
                "open-loop traffic needs a TCP transport (completion is ACK-driven)"
            );
            let engine = TrafficEngine::new(spec.model.clone(), n as u32, &mut root);
            let fct = FctSummary::new(&spec.model.class_names());
            TrafficState {
                engine,
                transport: spec.transport,
                spawn_counter: 0,
                live: 0,
                fct,
                journal_count: 0,
                journal_hash: FNV_OFFSET,
                arrival_count: 0,
                arrival_hash: FNV_OFFSET,
                retired: Default::default(),
            }
        });
        if let Some(t) = &mut traffic {
            for class in 0..t.engine.class_count() {
                let gap = t.engine.next_gap(class, 0.0);
                queue.schedule(SimTime::ZERO + gap, Event::TrafficArrival { class });
            }
        }

        // Ledger classes: the workload's traffic classes, then a class for
        // the scenario's persistent flows, then a catch-all for losses that
        // cannot be attributed to a live flow (stale generations, PHY
        // frame-level tallies).
        let mut class_names: Vec<String> = scenario
            .traffic
            .as_ref()
            .map(|spec| {
                spec.model
                    .class_names()
                    .iter()
                    .map(|n| n.to_string())
                    .collect()
            })
            .unwrap_or_default();
        class_names.push("persistent".into());
        class_names.push("unattributed".into());
        let unattributed = class_names.len() - 1;
        let ledger = DropLedger::new(n, class_names);
        let flight = Arc::new(Mutex::new(FlightRecorder::new(
            mwn_obs::flight::DEFAULT_CAPACITY,
        )));
        flight::register(&flight);

        let flow_count = scenario.flows.len();
        Network {
            now: SimTime::ZERO,
            queue,
            medium,
            params,
            nodes,
            energy_params: EnergyParams::wavelan(),
            flows,
            traffic,
            frames: FrameSlab::new(),
            wave_floor: SimTime::MAX,
            discovery_timers: FxHashMap::default(),
            transport_timers: vec![[[None; TransportTimer::COUNT]; 2]; flow_count],
            total_delivered: 0,
            trace: None,
            probes: None,
            profile: None,
            ledger,
            unattributed,
            audit: None,
            flight,
            mobility,
            moved: Vec::new(),
            pools: Pools::default(),
            #[cfg(any(test, feature = "oracle"))]
            eager_medium: false,
            #[cfg(any(test, feature = "oracle"))]
            yield_every_receiver: false,
            #[cfg(any(test, feature = "oracle"))]
            eager_nav: false,
            #[cfg(any(test, feature = "oracle"))]
            eager_mac: false,
        }
    }

    /// Enables structured event tracing into a ring buffer of `capacity`
    /// records. See [`crate::trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// The retained trace records (empty unless tracing was enabled).
    pub fn trace(&self) -> Vec<&TraceRecord> {
        self.trace
            .as_ref()
            .map(|t| t.records().collect())
            .unwrap_or_default()
    }

    /// Trace records evicted because the ring buffer was full (zero means
    /// the retained trace is complete).
    pub fn trace_dropped(&self) -> u64 {
        self.trace
            .as_ref()
            .map_or(0, mwn_obs::trace::TraceBuffer::dropped)
    }

    /// Enables on-change time-series probes (cwnd, srtt, Vegas diff,
    /// interface-queue depth) into a ring buffer of `capacity` samples.
    pub fn enable_probes(&mut self, capacity: usize) {
        self.probes = Some(ProbeBuffer::new(capacity));
    }

    /// The probe buffer, if probes were enabled.
    pub fn probes(&self) -> Option<&ProbeBuffer> {
        self.probes.as_ref()
    }

    /// Enables event-loop self-profiling (events processed, histogram by
    /// kind, peak pending-event depth).
    pub fn enable_profiling(&mut self) {
        self.profile = Some(EngineProfile::new());
    }

    /// The engine profile, if profiling was enabled.
    pub fn profile(&self) -> Option<&EngineProfile> {
        self.profile.as_ref()
    }

    /// Enables custody tracking so [`Network::conservation_report`] can
    /// verify `created = destroyed + residual` per node and per flow.
    /// Call before running; the equations only balance when every custody
    /// event since time zero was seen.
    pub fn enable_audit(&mut self) {
        self.audit = Some(ConservationAudit::new(self.nodes.len()));
    }

    /// The loss ledger with PHY frame-level tallies synthesized from the
    /// transceiver counters (collision, capture loss, undecodable). PHY
    /// losses are per frame, not per packet, so they land in the
    /// `unattributed` class.
    pub fn drop_report(&self) -> DropLedger {
        let mut ledger = self.ledger.clone();
        let unattributed = self.unattributed;
        for i in 0..self.nodes.len() {
            let c = self.nodes.radios().counters(NodeId(i as u32));
            ledger.add(i, unattributed, DropReason::PhyCollision, c.collisions);
            ledger.add(i, unattributed, DropReason::PhyCaptureLoss, c.captures);
            ledger.add(i, unattributed, DropReason::PhyUndecodable, c.undecoded);
        }
        ledger
    }

    /// Verifies packet conservation: for every node and every flow,
    /// packets created (originated + delivered up) must equal packets
    /// destroyed (handed off + consumed + terminally dropped) plus the
    /// copies still buffered in interface queues, in-service MAC slots
    /// and AODV discovery buffers. `None` unless
    /// [`Network::enable_audit`] was called before the run.
    pub fn conservation_report(&self) -> Option<ConservationReport> {
        let audit = self.audit.as_ref()?;
        let mut node_residual = vec![0u64; self.nodes.len()];
        let mut flow_residual: HashMap<u32, u64> = HashMap::new();
        {
            let mut count = |i: usize, p: &Packet| {
                if let Some(flow) = transport_flow(p) {
                    node_residual[i] += 1;
                    *flow_residual.entry(flow).or_insert(0) += 1;
                }
            };
            for (i, record) in self.nodes.iter() {
                let mac = &record.mac;
                for p in mac.queued_packets().chain(mac.current_packet()) {
                    count(i, p);
                }
                for p in record.router.buffered_packets() {
                    count(i, p);
                }
            }
        }
        Some(audit.verify(&node_residual, &flow_residual))
    }

    /// The flight recorder's ring rendered as display lines (header plus
    /// the retained events, oldest first).
    pub fn flight_dump(&self) -> Vec<String> {
        self.flight.lock().unwrap().dump_lines()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total in-order packets delivered across all flows.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Transmissions currently on the air (live frame-slab slots).
    pub fn frames_in_flight(&self) -> usize {
        self.frames.live()
    }

    /// Frame releases that named a dead or recycled [`TxId`] — each one a
    /// dropped straggler the generation check caught.
    pub fn stale_frame_releases(&self) -> u64 {
        self.frames.stale_releases()
    }

    /// Number of flow *slots* (persistent flows plus the churn slab's
    /// high-water mark — not all slots are occupied).
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of currently occupied flow slots.
    pub fn live_flow_count(&self) -> usize {
        self.flows.live()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes whose protocol state has been built: those whose
    /// MAC or router has acted (the rest read as pristine).
    pub fn node_records(&self) -> usize {
        self.nodes.records()
    }

    /// Transmissions on the air: those whose signal edges have not all
    /// reached their receivers.
    pub fn frames_on_air(&self) -> usize {
        self.frames.live()
    }

    /// Signals in the radios' overflow store now: every signal on the air
    /// at a node beside the one its slot holds.
    pub fn radio_overflow_len(&self) -> usize {
        self.nodes.radios().overflow_len()
    }

    /// Tracked estimate of per-node engine state, in bytes: the radio state
    /// and record-table entry every node holds
    /// ([`Network::fixed_bytes_per_node`]) plus, averaged over the node
    /// count, the radios' overflow store, the energy meters added,
    /// the built node records and
    /// what they hold (routing/duplicate tables, discovery buffers,
    /// interface queue, receive-dedup cache), the network's
    /// discovery-timer map and moved-node batch, the medium's per-node
    /// arrays and effect lists ([`Network::medium_memory_bytes`]) and the
    /// mobility model's per-node streams, positions and phases — each
    /// array by capacity.
    ///
    /// This is an accounting estimate of what the per-node layouts
    /// charge — not an allocator measurement; pair it with the bench's
    /// peak-RSS column for ground truth.
    pub fn bytes_per_node(&self) -> u64 {
        use std::mem::size_of;
        let n = self.nodes.len().max(1);
        let shared = self.nodes.memory_bytes()
            + self.discovery_timers.capacity() * size_of::<((NodeId, NodeId), EventId)>()
            + self.moved.capacity() * size_of::<(NodeId, mwn_phy::Position)>()
            + self.medium.memory_bytes()
            + self.medium.index_bytes()
            + self
                .mobility
                .as_ref()
                .map_or(0, MobilityModel::memory_bytes);
        Self::fixed_bytes_per_node() + (shared / n) as u64
    }

    /// The radio part of [`Network::bytes_per_node`]: one node's radio
    /// state plus, averaged over the node count, the radios' overflow
    /// store and energy meters.
    fn radio_bytes_per_node(&self) -> u64 {
        let n = self.nodes.len().max(1);
        (NodeTable::radio_bytes() + self.nodes.radios().memory_bytes() / n) as u64
    }

    /// The fixed part of [`Network::bytes_per_node`]: one node's radio
    /// state (radio slot, energy-meter slot, quiet and EIFS bits) and its
    /// entry in the record table, whatever the node does. A node's energy
    /// meter is charged once added, its record once built.
    pub fn fixed_bytes_per_node() -> u64 {
        let entry = std::mem::size_of::<Option<Box<nodes::NodeRecord>>>();
        (NodeTable::radio_bytes() + entry) as u64
    }

    /// The live flow id occupying `slot`, if any (traffic churn means a
    /// slot's generation moves on; callers must re-key per batch).
    pub fn flow_at(&self, slot: usize) -> Option<FlowId> {
        let s = self.flows.slots.get(slot)?;
        s.meta
            .as_ref()
            .map(|_| FlowId::from_parts(slot as u32, s.generation))
    }

    /// In-order packets delivered by `flow`'s sink (0 once the flow has
    /// completed and its slot was vacated).
    pub fn flow_delivered(&self, flow: FlowId) -> u64 {
        self.flows.dst_ref(flow).map_or(0, |d| d.delivered)
    }

    /// Sender statistics for a TCP flow (`None` for paced UDP or a
    /// vacated slot — see [`MetricsReport::retired_tcp`]).
    pub fn flow_sender_stats(&self, flow: FlowId) -> Option<&TcpSenderStats> {
        match &self.flows.src_ref(flow)?.source {
            SourceAgent::Tcp(s) => Some(s.stats()),
            SourceAgent::Udp(_) => None,
        }
    }

    /// Sink statistics for a TCP flow (`None` for paced UDP or a vacated
    /// slot).
    pub fn flow_sink_stats(&self, flow: FlowId) -> Option<&TcpSinkStats> {
        match &self.flows.dst_ref(flow)?.sink {
            SinkAgent::Tcp(s) => Some(s.stats()),
            SinkAgent::Udp(_) => None,
        }
    }

    /// When `flow`'s sink last advanced, if it ever did.
    pub fn flow_last_delivery(&self, flow: FlowId) -> Option<SimTime> {
        self.flows.dst_ref(flow)?.last_delivery
    }

    /// Time-weighted average congestion window of `flow` since the last
    /// [`Network::reset_window_averages`] (1.0 for paced UDP or a
    /// vacated slot).
    pub fn flow_avg_window(&self, flow: FlowId) -> f64 {
        self.flows
            .src_ref(flow)
            .map_or(1.0, |s| s.cwnd_twa.average(self.now))
    }

    /// Restarts the per-flow window averages (called at batch boundaries).
    pub fn reset_window_averages(&mut self) {
        let now = self.now;
        for src in self.flows.srcs.iter_mut().flatten() {
            src.cwnd_twa.reset(now);
        }
    }

    /// Aggregate MAC and AODV counters over all nodes.
    pub fn totals(&self) -> NetworkTotals {
        let mut t = NetworkTotals::default();
        for (_, record) in self.nodes.iter() {
            t.mac = t.mac.plus(record.mac.counters());
            t.aodv = t.aodv.plus(record.router.counters());
        }
        t
    }

    /// A whole-network counter snapshot (every layer, every node, every
    /// flow) at the current instant, for [`mwn_obs::MetricsRegistry`]
    /// batch-boundary deltas.
    pub fn collect_metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            time: self.now,
            nodes: (0..self.nodes.len())
                .map(|i| {
                    let node = NodeId(i as u32);
                    let r = self.nodes.get(node);
                    NodeCounters {
                        phy: self.nodes.radios().counters(node),
                        mac: *r.mac.counters(),
                        aodv: *r.router.counters(),
                        route_table_size: r.router.table().len() as u64,
                        ifq_depth: r.mac.queue_len() as u64,
                    }
                })
                .collect(),
            flows: (0..self.flows.len())
                .map(|slot| match self.flow_at(slot) {
                    Some(flow) => FlowCounters {
                        tenant: Some(flow),
                        delivered: self.flow_delivered(flow),
                        sender: self.flow_sender_stats(flow).copied(),
                        sink: self.flow_sink_stats(flow).copied(),
                    },
                    None => FlowCounters::default(),
                })
                .collect(),
        }
    }

    /// The run report at the current instant: counter totals, probes,
    /// profile, medium counters, deliveries, the drop ledger and, for
    /// open-loop traffic, the FCT summary and retired TCP totals. Its
    /// `batches` are empty; `experiment::run_instrumented` adds them.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            batches: Vec::new(),
            totals: self.collect_metrics(),
            probes: self
                .probes
                .as_ref()
                .map(|p| p.samples().copied().collect())
                .unwrap_or_default(),
            profile: self
                .profile
                .clone()
                .map(|mut p| {
                    p.queue_schedules = self.queue.schedules();
                    p.queue_cancels = self.queue.cancels();
                    p.node_records = self.nodes.records() as u64;
                    p.radio_overflow_peak = self.nodes.radios().overflow_peak() as u64;
                    p.radio_bytes_per_node = self.radio_bytes_per_node();
                    p
                })
                .unwrap_or_default(),
            medium: self.medium_counters(),
            delivered: self.total_delivered,
            drops: Some(self.drop_report()),
            fct: self.traffic_summary().cloned(),
            retired_tcp: self.traffic.as_ref().map(|t| FlowCounters {
                sender: Some(t.retired.0),
                sink: Some(t.retired.1),
                ..FlowCounters::default()
            }),
        }
    }

    /// Total radio energy consumed by `node` so far, in joules.
    pub fn node_energy_joules(&self, node: NodeId) -> f64 {
        let meter = self.nodes.radios().energy(node);
        meter.consumed(&self.energy_params, self.now)
    }

    /// Total radio energy over all nodes, in joules.
    pub fn total_energy_joules(&self) -> f64 {
        (0..self.nodes.len())
            .map(|i| self.node_energy_joules(NodeId(i as u32)))
            .sum()
    }

    /// The run loop: steps until `done` says so (checked before every
    /// event), the next event lies past `deadline`, or the queue drains.
    fn run_loop(&mut self, deadline: SimTime, done: impl Fn(&Network) -> bool) -> StepOutcome {
        let outcome = loop {
            if done(self) {
                break StepOutcome::TargetReached;
            }
            match self.queue.peek_time() {
                None => break StepOutcome::Quiescent,
                Some(t) if t > deadline => break StepOutcome::DeadlineExpired,
                Some(_) => self.step_bounded(deadline),
            }
        };
        self.flush_medium_profile();
        outcome
    }

    /// Runs until `target` total packets are delivered, the simulated-time
    /// `deadline` passes, or the event queue drains.
    pub fn run_until_delivered(&mut self, target: u64, deadline: SimTime) -> StepOutcome {
        self.run_loop(deadline, |net| net.total_delivered >= target)
    }

    /// `true` once the open-loop workload has spawned its whole arrival
    /// budget and every flow has completed (vacuously true without a
    /// workload).
    pub fn traffic_done(&self) -> bool {
        self.traffic
            .as_ref()
            .is_none_or(|t| t.engine.exhausted() && t.live == 0)
    }

    /// Runs until [`Network::traffic_done`], the simulated-time
    /// `deadline` passes, or the event queue drains.
    pub fn run_until_traffic_done(&mut self, deadline: SimTime) -> StepOutcome {
        self.run_loop(deadline, Network::traffic_done)
    }

    /// Streaming per-class FCT/goodput accounting for the open-loop
    /// workload, if the scenario has one.
    pub fn traffic_summary(&self) -> Option<&FctSummary> {
        self.traffic.as_ref().map(|t| &t.fct)
    }

    /// `(records, fnv1a64)` digest of the full traffic journal — every
    /// spawn and completion with its time. Two runs of the same scenario
    /// match iff their traffic histories are identical.
    pub fn traffic_digest(&self) -> Option<(u64, u64)> {
        self.traffic
            .as_ref()
            .map(|t| (t.journal_count, t.journal_hash))
    }

    /// `(arrivals, fnv1a64)` digest of first-leg arrivals only. A pure
    /// function of the scenario seed: invariant across deadline
    /// subdivision and `--jobs` worker counts.
    pub fn traffic_arrival_digest(&self) -> Option<(u64, u64)> {
        self.traffic
            .as_ref()
            .map(|t| (t.arrival_count, t.arrival_hash))
    }

    /// Traffic legs spawned so far (requests plus response legs).
    pub fn traffic_spawned(&self) -> u64 {
        self.traffic.as_ref().map_or(0, |t| t.spawn_counter)
    }

    /// Runs until simulated time `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_loop(deadline, |_| false);
        self.now = self.now.max(deadline);
    }

    /// Processes a single event. No-op if the queue is empty.
    ///
    /// One step is one event popped from the queue, which is not always
    /// one node's worth of work: a wave event delivers a signal edge to
    /// every receiver it can reach before something else is due, so
    /// [`Network::now`] may advance by up to the propagation skew across
    /// the interference range within a single step.
    pub fn step(&mut self) {
        self.step_bounded(SimTime::MAX);
    }

    /// [`Network::step`] for the run loops: a wave walk stops short of
    /// `deadline`.
    fn step_bounded(&mut self, deadline: SimTime) {
        let Some((t, event)) = self.queue.pop() else {
            return;
        };
        self.now = t;
        if let Some(p) = &mut self.profile {
            p.record(event_kind(&event), self.queue.len());
        }
        match event {
            Event::MobilityTick => self.mobility_tick(),
            Event::Wave { tx, end } => self.walk_wave(tx, end, deadline),
            event => self.handle_event(event),
        }
    }

    /// Handles one popped wave event: carries `tx`'s leading or trailing
    /// edge to the receiver under the wave's cursor and on to the
    /// receivers after it for as long as that is *exactly* what popping
    /// one event per receiver would have done, then files the wave back
    /// under its next receiver's own `(time, seq)` key.
    ///
    /// The walk may pass to the next receiver without consulting the
    /// queue iff no other pending event is due at or before that
    /// receiver's time (on a tie the queue decides, by sequence number,
    /// as it always did). One peek at the queue's next event answers that
    /// for the whole segment, because nothing a signal-edge
    /// cascade does lands inside the wave's own skew window:
    ///
    /// * A wave spans at most the propagation skew across the
    ///   interference range (550 m: 1.83 µs). The earliest thing a
    ///   signal-edge cascade can *schedule* is a SIFS response timer
    ///   (10 µs) or a jittered AODV forward ([`mwn_aodv::MIN_JITTER`],
    ///   16 µs), so every new event lands strictly after every receiver
    ///   in the segment.
    /// * The DCF only emits `StartTx` from timer handlers, and a segment
    ///   holds signal edges only — so no new transmission, whose wave
    ///   would reach its nearest receivers within nanoseconds, starts
    ///   mid-segment.
    ///
    /// * The one exception is checked, not assumed: a cascade that hands a
    ///   bystander a packet wakes its parked NAV, perhaps inside the window.
    ///   [`Network::walk_segment`] yields at the first receiver at or after it.
    ///
    /// Debug builds re-check the rest after every receiver
    /// (`Network::debug_assert_lookahead`).
    ///
    /// Two more things end a segment early, so that every run loop stops
    /// on the same event and nanosecond it always did: a receiver past
    /// `deadline`, and a receiver whose cascade moved what the loops'
    /// stop conditions read ([`Network::walk_segment`]).
    fn walk_wave(&mut self, tx: TxId, end: bool, deadline: SimTime) {
        let slot = self.frames.live_slot(tx);
        let wave = self.frames.wave_in(slot);
        let (lo, len) = (wave.cursor, wave.receivers().len());
        let mut hi = lo + 1;
        let horizon = self.queue.peek_time();
        while hi < len {
            let t = wave.time(hi, end);
            if t > deadline || horizon.is_some_and(|h| t >= h) {
                break;
            }
            hi += 1;
        }
        #[cfg(any(test, feature = "oracle"))]
        if self.yield_every_receiver {
            hi = lo + 1;
        }

        let hi = self.walk_segment(tx, slot, end, lo, hi);

        // The trailing edge's last receiver released the slot: only a
        // wave with receivers left (or a leading edge) is touched again.
        if hi < len {
            self.frames.set_cursor(slot, hi);
            let (time, seq) = self.frames.wave_in(slot).key(hi, end);
            self.queue
                .schedule_keyed(time, seq, Event::Wave { tx, end });
        } else if !end {
            self.frames.set_cursor(slot, 0);
        }
        if let Some(p) = &mut self.profile {
            p.record_wave((hi - lo) as u64, hi < len);
        }
    }

    /// Everything a run loop's stop condition reads, folded into one
    /// number that only ever grows: packets delivered, plus traffic legs
    /// spawned and completed.
    fn stop_mark(&self) -> u64 {
        self.total_delivered + self.traffic.as_ref().map_or(0, |t| t.journal_count)
    }

    /// Walks receivers `lo..hi` of `tx`'s wave, which lives in frame-slab
    /// `slot`, advancing the clock per receiver. Stops early after a
    /// receiver whose cascade moved the [stop mark](Self::stop_mark) — the
    /// run loops regain control at the very receiver that satisfied them —
    /// and before one due at or after a NAV an earlier cascade woke. A
    /// trailing edge's visited receivers release their claims on the frame
    /// together, once the last of them has read it. Returns the first
    /// receiver *not* visited.
    fn walk_segment(&mut self, tx: TxId, slot: usize, end: bool, lo: usize, hi: usize) -> usize {
        let mark = self.stop_mark();
        self.wave_floor = SimTime::MAX;
        let mut i = lo;
        while i < hi {
            let wave = self.frames.wave_in(slot);
            let (rx, time) = (wave.receivers()[i], wave.time(i, end));
            if i > lo {
                if self.stop_mark() != mark || time >= self.wave_floor {
                    break;
                }
                #[cfg(debug_assertions)]
                self.debug_assert_lookahead(tx, end, i);
            }
            self.now = time;
            self.signal_edge(&rx, tx, end);
            i += 1;
        }
        if end {
            self.frames.release(tx, i - lo);
        }
        i
    }

    /// Debug builds: nothing the cascades so far scheduled is due at or
    /// before receiver `next`'s edge — the lookahead fact that lets
    /// [`Network::walk_wave`]'s one peek cover a whole segment. Compiled
    /// out of release builds, whose slab lookup would still run.
    #[cfg(debug_assertions)]
    fn debug_assert_lookahead(&self, tx: TxId, end: bool, next: usize) {
        let edge = self.frames.wave(tx).time(next, end);
        debug_assert!(
            self.queue.peek_time().is_none_or(|t| t > edge),
            "a signal-edge cascade scheduled inside its wave's skew window"
        );
    }

    fn mobility_tick(&mut self) {
        if let Some(m) = &mut self.mobility {
            let started = std::time::Instant::now();
            // Only nodes that moved enter the batch (paused nodes hold
            // their position across ticks).
            self.moved.clear();
            m.step_into(&mut self.moved);
            // O(moved): positions, grid relocation and an epoch bump only.
            // Effect-list builds and rebuilds happen at transmission time
            // and are accounted separately (the `medium_lazy` bucket).
            self.medium.move_nodes(&self.moved);
            if let Some(p) = &mut self.profile {
                p.record_timed("medium_tick", started.elapsed().as_secs_f64());
            }
            #[cfg(any(test, feature = "oracle"))]
            if self.eager_medium {
                self.medium.refresh_all();
            }
            let next = self.now + m.tick();
            self.queue.schedule(next, Event::MobilityTick);
            self.flush_medium_profile();
        }
    }

    /// Drains what `Medium::refresh` accrued into the profile's timed
    /// `medium_lazy` bucket (no-op without profiling): every scan and
    /// sort of a one-shot fill, build or rebuild. Called once per mobility
    /// tick and at the end of every run loop, so the bucket is complete
    /// whenever a caller reads the profile.
    fn flush_medium_profile(&mut self) {
        if let Some(p) = &mut self.profile {
            let (calls, secs) = self.medium.take_lazy_profile();
            p.record_timed_n("medium_lazy", calls, secs);
        }
    }

    /// Cumulative lazy-medium statistics (epoch, queries, one-shot
    /// fills, builds, rebuilds) since construction.
    pub fn medium_counters(&self) -> mwn_phy::MediumCounters {
        self.medium.counters()
    }

    /// Heap bytes of the medium's effect lists: the stored lists plus
    /// the one-shot ring (see `Medium::memory_bytes`).
    pub fn medium_memory_bytes(&self) -> usize {
        self.medium.memory_bytes()
    }

    /// Test oracle: forces the pre-lazy eager behaviour — every mobility
    /// tick refreshes all effect lists immediately. Observables are
    /// identical to the default lazy mode (effect lists are pure functions
    /// of current positions at query time); the lazy-vs-eager differential
    /// in `mwn-check` holds the lazy medium to that.
    #[cfg(any(test, feature = "oracle"))]
    pub fn set_eager_medium(&mut self, eager: bool) {
        self.eager_medium = eager;
    }

    /// Test oracle: builds every node's record now, in node order, as the
    /// set-up of a network without the record slab did. Every observable
    /// but the record count is identical either way
    /// (`tests/eager_nodes.rs`).
    #[cfg(any(test, feature = "oracle"))]
    pub fn set_eager_nodes(&mut self, eager: bool) {
        if eager {
            for i in 0..self.nodes.len() {
                self.nodes.touch(NodeId(i as u32));
            }
        }
    }

    /// Test oracle: queues every NAV timer, parks none. A run that reaches
    /// its target is identical either way (`mwn-check`, `wave_walk.rs`).
    #[cfg(any(test, feature = "oracle"))]
    pub fn set_eager_nav(&mut self, eager: bool) {
        self.eager_nav = eager;
    }

    /// Test oracle: hands every radio batch to the node's MAC, absorbing
    /// none beside the radio, so a record is built at the first batch
    /// that reaches its node. Every observable but the record count is
    /// identical either way (`mwn-check`, `wave_walk.rs`;
    /// `tests/eager_nodes.rs`). Set it before the run.
    #[cfg(any(test, feature = "oracle"))]
    pub fn set_eager_mac(&mut self, eager: bool) {
        self.eager_mac = eager;
    }

    /// Test oracle: makes every wave yield to the queue after each
    /// receiver, which *is* the one-event-per-receiver schedule. Every
    /// observable must be identical either way; the differential tests
    /// in `mwn-check` hold the in-place walk to that.
    #[cfg(any(test, feature = "oracle"))]
    pub fn set_yield_every_receiver(&mut self, on: bool) {
        self.yield_every_receiver = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FlowSpec, Transport};
    use crate::topology;
    use mwn_phy::DataRate;

    fn deadline(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// No `Rc`/`RefCell` anywhere in the state: a whole network can be
    /// built on one thread and run on another.
    #[test]
    fn network_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Network>();
    }

    #[test]
    fn one_hop_tcp_delivers_packets() {
        let s = Scenario::chain(1, DataRate::MBPS_2, Transport::newreno(), 1);
        let mut net = s.build();
        let outcome = net.run_until_delivered(50, deadline(60));
        assert_eq!(outcome, StepOutcome::TargetReached);
        assert!(net.flow_delivered(FlowId(0)) >= 50);
        assert!(net.now() > SimTime::ZERO);
    }

    #[test]
    fn three_hop_vegas_delivers_packets() {
        let s = Scenario::chain(3, DataRate::MBPS_2, Transport::vegas(2), 2);
        let mut net = s.build();
        let outcome = net.run_until_delivered(50, deadline(120));
        assert_eq!(outcome, StepOutcome::TargetReached);
    }

    #[test]
    fn paced_udp_delivers_at_configured_rate() {
        let gap = SimDuration::from_millis(40);
        let s = Scenario::chain(2, DataRate::MBPS_2, Transport::paced_udp(gap), 3);
        let mut net = s.build();
        net.run_until(deadline(10));
        let got = net.flow_delivered(FlowId(0));
        // 10 s / 40 ms = 250 packets offered; expect most delivered.
        assert!(got > 200, "only {got} of ~250 CBR packets arrived");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let s = Scenario::chain(4, DataRate::MBPS_2, Transport::newreno(), 42);
            let mut net = s.build();
            net.run_until_delivered(100, deadline(120));
            (net.now(), net.total_delivered(), net.totals())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seed_different_trace() {
        let run = |seed| {
            let s = Scenario::chain(4, DataRate::MBPS_2, Transport::newreno(), seed);
            let mut net = s.build();
            net.run_until_delivered(100, deadline(120));
            net.now()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn higher_bandwidth_is_faster() {
        let time_for = |rate| {
            let s = Scenario::chain(2, rate, Transport::newreno(), 7);
            let mut net = s.build();
            net.run_until_delivered(200, deadline(300));
            net.now()
        };
        assert!(time_for(DataRate::MBPS_11) < time_for(DataRate::MBPS_2));
    }

    #[test]
    fn energy_accumulates_with_traffic() {
        let s = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 5);
        let mut net = s.build();
        net.run_until_delivered(20, deadline(60));
        let idle_only = 0.74 * net.now().as_secs_f64();
        assert!(net.node_energy_joules(NodeId(0)) > idle_only);
        assert!(net.total_energy_joules() > 3.0 * idle_only);
    }

    #[test]
    fn two_flow_cross_traffic_makes_progress() {
        let t = topology::chain(4);
        let flows = vec![
            FlowSpec {
                src: NodeId(0),
                dst: NodeId(4),
                transport: Transport::vegas(2),
            },
            FlowSpec {
                src: NodeId(4),
                dst: NodeId(0),
                transport: Transport::vegas(2),
            },
        ];
        let s = Scenario::new(t, flows, DataRate::MBPS_2, 11);
        let mut net = s.build();
        net.run_until_delivered(100, deadline(240));
        assert!(net.flow_delivered(FlowId(0)) > 0);
        assert!(net.flow_delivered(FlowId(1)) > 0);
    }

    fn traffic_scenario(max_flows: u64, seed: u64) -> Scenario {
        use crate::scenario::TrafficSpec;
        use mwn_traffic::{Arrival, SizeDist, TrafficClass, TrafficModel};
        // Arrivals paced well apart from completions (0.5 s mean gap vs
        // ~0.1 s transfers), so slots genuinely churn instead of piling
        // up concurrently.
        let model = TrafficModel {
            classes: vec![TrafficClass {
                name: "short".into(),
                arrival: Arrival::Poisson { rate_fps: 2.0 },
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
    fn open_loop_traffic_completes_with_slot_churn() {
        let mut net = traffic_scenario(60, 21).build();
        let out = net.run_until_traffic_done(deadline(4000));
        assert_eq!(out, StepOutcome::TargetReached);
        let sum = net
            .traffic_summary()
            .expect("traffic scenario has a summary");
        assert_eq!(sum.arrivals(), 60);
        assert_eq!(sum.completions(), 60);
        assert_eq!(net.live_flow_count(), 0);
        // 60 flows churned through a handful of recycled slots.
        assert!(
            net.flow_count() < 30,
            "slab grew to {} slots for 60 sequentially-completing flows",
            net.flow_count()
        );
        // heavy has no response legs: one spawn + one completion each.
        let (records, _) = net.traffic_digest().unwrap();
        assert_eq!(records, 120);
        let fct = sum.classes()[0].fct();
        assert!(fct.p99().expect("completions recorded") > 0.0);
        // Slab invariants: free slots are unique and genuinely vacant,
        // and every recycled slot's generation moved past zero.
        let mut fs = net.flows.free.clone();
        fs.sort_unstable();
        fs.dedup();
        assert_eq!(fs.len(), net.flows.free.len(), "free list has duplicates");
        for &slot in &net.flows.free {
            assert!(net.flows.slots[slot as usize].meta.is_none());
            assert!(net.flows.slots[slot as usize].generation > 0);
        }
    }

    #[test]
    fn traffic_digest_is_deterministic_and_seed_sensitive() {
        let digest = |seed| {
            let mut net = traffic_scenario(40, seed).build();
            assert_eq!(
                net.run_until_traffic_done(deadline(4000)),
                StepOutcome::TargetReached
            );
            net.traffic_digest().unwrap()
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }

    #[test]
    fn traffic_digests_are_invariant_across_deadline_subdivision() {
        let run_chunked = |chunks: u64| {
            let mut net = traffic_scenario(40, 9).build();
            for c in 1..=chunks {
                net.run_until(deadline(40 * c / chunks));
            }
            assert_eq!(
                net.run_until_traffic_done(deadline(100_000)),
                StepOutcome::TargetReached
            );
            (
                net.traffic_arrival_digest().unwrap(),
                net.traffic_digest().unwrap(),
            )
        };
        assert_eq!(run_chunked(1), run_chunked(7));
    }

    #[test]
    fn scenarios_without_traffic_are_vacuously_done() {
        let s = Scenario::chain(1, DataRate::MBPS_2, Transport::newreno(), 1);
        let mut net = s.build();
        assert!(net.traffic_done());
        assert!(net.traffic_digest().is_none());
        assert!(net.traffic_summary().is_none());
        assert_eq!(
            net.run_until_traffic_done(deadline(60)),
            StepOutcome::TargetReached
        );
        assert_eq!(net.live_flow_count(), 1);
    }

    #[test]
    fn window_average_tracks_tcp_only() {
        let s = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 9);
        let mut net = s.build();
        net.run_until_delivered(100, deadline(120));
        assert!(net.flow_avg_window(FlowId(0)) >= 1.0);
        net.reset_window_averages();
        // After a reset with no elapsed time, the average equals current.
        let w = net.flow_avg_window(FlowId(0));
        assert!(w >= 1.0);
    }
}
