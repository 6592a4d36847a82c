//! Unified typed metrics: counter blocks per layer, per-node/per-flow
//! snapshots, and batch-boundary deltas.
//!
//! Every protocol layer already keeps a plain counter struct
//! ([`MacCounters`], [`AodvCounters`], [`PhyCounters`], the TCP stats).
//! [`CounterBlock`] gives them one shared shape — named `u64` fields with
//! element-wise `plus`/`minus` — so aggregation, batch deltas and JSON
//! serialization are written once instead of once per struct.
//!
//! A [`MetricsRegistry`] turns whole-network [`MetricsSnapshot`]s taken at
//! batch boundaries into per-batch deltas: the paper's batch boundary,
//! from which `mwn::experiment` folds every batch-means measure.

use mwn_aodv::AodvCounters;
use mwn_mac80211::MacCounters;
use mwn_phy::{MediumCounters, PhyCounters};
use mwn_pkt::FlowId;
use mwn_sim::profile::EngineProfile;
use mwn_sim::stats::{BatchMeans, Estimate};
use mwn_sim::{Pcg32, SimTime};
use mwn_tcp::{TcpSenderStats, TcpSinkStats};

use crate::fct::FctSummary;
use crate::json::{arr, Obj};
use crate::probe::ProbeSample;

/// Streaming p50/p95/p99 over a bounded sample reservoir.
///
/// Keeps at most `capacity` samples. While the input fits, quantiles are
/// exact; beyond that, Algorithm R reservoir sampling keeps a uniform
/// subsample, driven by a *fixed-stream* internal [`Pcg32`] so two
/// `Quantiles` fed the same value sequence retain byte-identical
/// reservoirs — quantile summaries stay a pure function of the input
/// stream, independent of wall clock, worker count or global RNG state.
///
/// Memory is `O(capacity)` regardless of how many values are recorded,
/// which is what lets per-class flow-completion summaries survive
/// million-flow open-loop runs without per-event retention.
///
/// # Example
///
/// ```
/// use mwn_obs::metrics::Quantiles;
///
/// let mut q = Quantiles::new(64);
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     q.record(v);
/// }
/// assert_eq!(q.quantile(0.5), Some(2.5));
/// assert!((q.p99().unwrap() - 3.97).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Quantiles {
    capacity: usize,
    samples: Vec<f64>,
    seen: u64,
    rng: Pcg32,
}

impl Quantiles {
    /// Reservoir stream constants: every `Quantiles` starts from the same
    /// RNG state, so reservoir contents depend only on the value sequence.
    const SEED: u64 = 0x005E_ED0F_9A17;
    const STREAM: u64 = 0x95EA;

    /// A reservoir holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "quantile reservoir needs capacity");
        Quantiles {
            capacity,
            samples: Vec::new(),
            seen: 0,
            rng: Pcg32::with_stream(Self::SEED, Self::STREAM),
        }
    }

    /// Records one sample. Non-finite values are counted but excluded
    /// from the reservoir (a NaN would poison the sort).
    pub fn record(&mut self, value: f64) {
        let index = self.seen;
        self.seen += 1;
        if !value.is_finite() {
            return;
        }
        if self.samples.len() < self.capacity {
            if self.samples.capacity() < self.capacity {
                // One up-front allocation; `record` never reallocates.
                self.samples.reserve_exact(self.capacity);
            }
            self.samples.push(value);
        } else {
            // Algorithm R: keep the i-th value with probability cap/(i+1).
            let j = self.rng.gen_range_u64(index + 1);
            if (j as usize) < self.capacity {
                self.samples[j as usize] = value;
            }
        }
    }

    /// Values recorded so far (including any discarded by the reservoir).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// `true` while every recorded value is still retained, i.e. the
    /// quantiles are exact rather than sampled.
    pub fn is_exact(&self) -> bool {
        self.seen <= self.capacity as u64
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) with linear interpolation between
    /// order statistics; `None` until a sample exists.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("reservoir holds no NaN"));
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
    }

    /// Median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A block of named monotonic `u64` counters.
///
/// Implemented by each layer's statistics struct so that summation over
/// nodes, batch-boundary deltas and serialization are uniform.
pub trait CounterBlock: Copy {
    /// Field names, in declaration order.
    fn field_names() -> &'static [&'static str];

    /// Field values, in the same order as [`CounterBlock::field_names`].
    fn values(&self) -> Vec<u64>;

    /// Element-wise difference `self - earlier`. Counters are monotonic:
    /// callers pass a snapshot of the same node or flow taken earlier in
    /// the same run.
    fn minus(&self, earlier: &Self) -> Self;

    /// Element-wise sum.
    fn plus(&self, other: &Self) -> Self;

    /// The block as a JSON object with fields in declaration order.
    fn to_json(&self) -> String {
        let mut o = Obj::new();
        for (name, v) in Self::field_names().iter().zip(self.values()) {
            o = o.u64(name, v);
        }
        o.finish()
    }
}

macro_rules! counter_block {
    ($ty:ty, [$($field:ident),+ $(,)?]) => {
        impl CounterBlock for $ty {
            fn field_names() -> &'static [&'static str] {
                &[$(stringify!($field)),+]
            }

            fn values(&self) -> Vec<u64> {
                vec![$(self.$field),+]
            }

            fn minus(&self, earlier: &Self) -> Self {
                Self { $($field: self.$field - earlier.$field),+ }
            }

            fn plus(&self, other: &Self) -> Self {
                Self { $($field: self.$field + other.$field),+ }
            }
        }
    };
}

counter_block!(PhyCounters, [captures, collisions, undecoded]);

counter_block!(
    MacCounters,
    [
        unicast_accepted,
        broadcast_accepted,
        queue_drops,
        rts_retry_drops,
        data_retry_drops,
        unicast_delivered,
        rts_sent,
        data_sent,
        cts_timeouts,
        ack_timeouts,
        duplicates_suppressed,
        early_drops,
    ]
);

counter_block!(
    AodvCounters,
    [
        false_route_failures,
        rreqs_originated,
        rreqs_forwarded,
        rreps_generated,
        rerrs_sent,
        no_route_drops,
        link_failure_drops,
        rreq_rebroadcasts_suppressed,
        gratuitous_rreps,
    ]
);

counter_block!(
    TcpSenderStats,
    [
        data_packets_sent,
        retransmissions,
        timeouts,
        fast_retransmits,
        dup_acks,
    ]
);

counter_block!(
    TcpSinkStats,
    [
        delivered,
        acks_sent,
        duplicates,
        out_of_order,
        acks_suppressed
    ]
);

/// One node's counters (all layers) plus point-in-time gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Radio counters (capture, collision, EIFS).
    pub phy: PhyCounters,
    /// 802.11 DCF counters.
    pub mac: MacCounters,
    /// AODV counters (RREQ/RREP/RERR, route breaks, drops).
    pub aodv: AodvCounters,
    /// Gauge: routing-table entries at snapshot time.
    pub route_table_size: u64,
    /// Gauge: interface-queue depth at snapshot time.
    pub ifq_depth: u64,
}

impl NodeCounters {
    /// Counter deltas since `earlier`; gauges keep the *later* (current)
    /// value, since a gauge difference is meaningless.
    pub fn delta_since(&self, earlier: &Self) -> Self {
        NodeCounters {
            phy: self.phy.minus(&earlier.phy),
            mac: self.mac.minus(&earlier.mac),
            aodv: self.aodv.minus(&earlier.aodv),
            route_table_size: self.route_table_size,
            ifq_depth: self.ifq_depth,
        }
    }

    /// Element-wise sum of counters; gauges add too (callers summing over
    /// nodes get totals: total table entries, total queued packets).
    pub fn plus(&self, other: &Self) -> Self {
        NodeCounters {
            phy: self.phy.plus(&other.phy),
            mac: self.mac.plus(&other.mac),
            aodv: self.aodv.plus(&other.aodv),
            route_table_size: self.route_table_size + other.route_table_size,
            ifq_depth: self.ifq_depth + other.ifq_depth,
        }
    }

    fn to_json(self) -> String {
        Obj::new()
            .raw("phy", &self.phy.to_json())
            .raw("mac", &self.mac.to_json())
            .raw("aodv", &self.aodv.to_json())
            .u64("route_table_size", self.route_table_size)
            .u64("ifq_depth", self.ifq_depth)
            .finish()
    }
}

/// One flow slot's counters: its tenant, deliveries and transport stats
/// (`None` at the non-TCP end of UDP flows and in a vacant slot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// The flow occupying the slot (`None` when vacant or summed). Not
    /// serialized.
    pub tenant: Option<FlowId>,
    /// In-order packets the tenant's sink delivered, TCP or paced UDP.
    /// Not serialized.
    pub delivered: u64,
    /// Sender-side TCP stats.
    pub sender: Option<TcpSenderStats>,
    /// Sink-side TCP stats.
    pub sink: Option<TcpSinkStats>,
}

impl FlowCounters {
    /// Counter deltas since `earlier`, the same slot at an earlier
    /// boundary. A slot re-let since then holds a new tenant whose
    /// counters started from zero, so it is measured against zero.
    pub fn delta_since(&self, earlier: &Self) -> Self {
        let earlier = if self.tenant == earlier.tenant {
            *earlier
        } else {
            FlowCounters::default()
        };
        FlowCounters {
            tenant: self.tenant,
            delivered: self.delivered - earlier.delivered,
            sender: match (self.sender, earlier.sender) {
                (Some(a), Some(b)) => Some(a.minus(&b)),
                (s, _) => s,
            },
            sink: match (self.sink, earlier.sink) {
                (Some(a), Some(b)) => Some(a.minus(&b)),
                (s, _) => s,
            },
        }
    }

    fn to_json(self) -> String {
        Obj::new()
            .raw(
                "sender",
                &self.sender.map_or("null".into(), |s| s.to_json()),
            )
            .raw("sink", &self.sink.map_or("null".into(), |s| s.to_json()))
            .finish()
    }
}

/// The whole network's counters at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// When the snapshot was taken.
    pub time: SimTime,
    /// Per-node counters, indexed by node id.
    pub nodes: Vec<NodeCounters>,
    /// Per-slot flow counters, indexed by flow slot.
    pub flows: Vec<FlowCounters>,
}

impl MetricsSnapshot {
    /// A snapshot with no nodes or flows (tests, placeholders).
    pub fn empty(time: SimTime) -> Self {
        MetricsSnapshot {
            time,
            nodes: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Sum of all nodes' counters (gauges sum too).
    pub fn node_totals(&self) -> NodeCounters {
        self.nodes
            .iter()
            .fold(NodeCounters::default(), |acc, n| acc.plus(n))
    }

    fn to_json(&self) -> String {
        Obj::new()
            .f64("t_secs", self.time.as_secs_f64())
            .raw("nodes", &arr(self.nodes.iter().map(|n| n.to_json())))
            .raw("flows", &arr(self.flows.iter().map(|f| f.to_json())))
            .finish()
    }
}

/// Per-node and per-flow counter deltas over one batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Batch start time.
    pub start: SimTime,
    /// Batch end time.
    pub end: SimTime,
    /// Per-node deltas (gauges: value at batch end).
    pub nodes: Vec<NodeCounters>,
    /// Per-slot deltas; a slot re-let mid-batch holds its new tenant's
    /// counts since it started, and a slot vacated mid-batch holds none.
    pub flows: Vec<FlowCounters>,
}

impl BatchMetrics {
    /// Sum of all nodes' deltas.
    pub fn node_totals(&self) -> NodeCounters {
        self.nodes
            .iter()
            .fold(NodeCounters::default(), |acc, n| acc.plus(n))
    }

    /// The paper's link-layer dropping probability over this batch
    /// (Figure 14): contention drops per unicast packet entering service.
    pub fn drop_probability(&self) -> f64 {
        self.node_totals().mac.drop_probability()
    }

    /// The paper's steady-state link-layer dropping probability (Figure
    /// 14) over a run's `batches`: the batch means of
    /// [`BatchMetrics::drop_probability`], the transient (index 0)
    /// excluded.
    pub fn steady_drop_probability(batches: &[BatchMetrics]) -> Estimate {
        let measured = batches.iter().skip(1);
        let means: BatchMeans = measured.map(BatchMetrics::drop_probability).collect();
        means.estimate()
    }

    fn to_json(&self) -> String {
        Obj::new()
            .f64("start_secs", self.start.as_secs_f64())
            .f64("end_secs", self.end.as_secs_f64())
            .raw("nodes", &arr(self.nodes.iter().map(|n| n.to_json())))
            .raw("flows", &arr(self.flows.iter().map(|f| f.to_json())))
            .finish()
    }
}

/// Differences batch-boundary snapshots into per-batch deltas.
///
/// Call [`MetricsRegistry::begin`] with the run's initial snapshot, then
/// [`MetricsRegistry::end_batch`] at each batch boundary; each call returns
/// one [`BatchMetrics`] covering the interval since the previous boundary.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    baseline: Option<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry; call [`MetricsRegistry::begin`] before the first
    /// batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the baseline snapshot the first batch is measured against.
    pub fn begin(&mut self, snapshot: MetricsSnapshot) {
        self.baseline = Some(snapshot);
    }

    /// Closes a batch: returns the deltas since the previous boundary and
    /// makes `snapshot` the new baseline.
    ///
    /// # Panics
    ///
    /// As [`MetricsRegistry::open_batch`].
    pub fn end_batch(&mut self, snapshot: MetricsSnapshot) -> BatchMetrics {
        let batch = self.open_batch(&snapshot);
        self.baseline = Some(snapshot);
        batch
    }

    /// The deltas of the batch still open at `snapshot`: what
    /// [`MetricsRegistry::end_batch`] would return, without closing it.
    ///
    /// The *node* population is fixed for the life of a run, but the flow
    /// table churns under open-loop traffic: slots are added, vacated and
    /// re-let to new tenants between boundaries. A slot is measured
    /// against its baseline only while the same tenant holds it (see
    /// [`FlowCounters::delta_since`]); a slot absent from the baseline is
    /// measured against [`FlowCounters::default`]. So a flow born
    /// mid-batch contributes its whole lifetime so far, and a flow that
    /// completed contributes nothing further.
    ///
    /// # Panics
    ///
    /// Panics if [`MetricsRegistry::begin`] was never called, or if the
    /// snapshot's node count changed mid-run.
    pub fn open_batch(&self, snapshot: &MetricsSnapshot) -> BatchMetrics {
        let base = self
            .baseline
            .as_ref()
            .expect("MetricsRegistry::begin before end_batch");
        assert_eq!(base.nodes.len(), snapshot.nodes.len(), "node count changed");
        let empty = FlowCounters::default();
        let flow_slots = base.flows.len().max(snapshot.flows.len());
        BatchMetrics {
            start: base.time,
            end: snapshot.time,
            nodes: snapshot
                .nodes
                .iter()
                .zip(&base.nodes)
                .map(|(now, then)| now.delta_since(then))
                .collect(),
            flows: (0..flow_slots)
                .map(|i| {
                    let now = snapshot.flows.get(i).unwrap_or(&empty);
                    let then = base.flows.get(i).unwrap_or(&empty);
                    now.delta_since(then)
                })
                .collect(),
        }
    }
}

/// The one run report: everything the observability layer collected over
/// one run. `mwn::Network::report` builds it; sweep rows and `mwn traffic
/// --json` serialize it with [`MetricsReport::to_json`], `mwn stats` and
/// `mwn traffic` render it with [`MetricsReport::text`], and `mwn bench`
/// reads its rows from it.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Per-batch counter deltas (index 0 is the discarded transient;
    /// empty unless the run was split into batches).
    pub batches: Vec<BatchMetrics>,
    /// Cumulative whole-run snapshot at the end.
    pub totals: MetricsSnapshot,
    /// Time-series probe samples (empty unless probes were enabled).
    pub probes: Vec<ProbeSample>,
    /// Engine self-profiling (zeroed unless profiling was enabled).
    pub profile: EngineProfile,
    /// The medium's lazy-path counters at the end of the run (list
    /// builds, rebuilds, sorts). Not serialized.
    pub medium: MediumCounters,
    /// Packets delivered in order to every sink, TCP or paced UDP, live
    /// or retired: the denominator of
    /// [`MetricsReport::events_per_packet`]. Not serialized.
    pub delivered: u64,
    /// The drop ledger (loss counts per reason, node and traffic
    /// class), when loss accounting was collected.
    pub drops: Option<crate::drop::DropLedger>,
    /// Per-class flow-completion summary, for open-loop traffic runs.
    pub fct: Option<FctSummary>,
    /// Summed TCP counters of completed open-loop flows, whose slots (and
    /// the per-flow counters in [`MetricsReport::totals`]) were recycled.
    pub retired_tcp: Option<FlowCounters>,
}

impl MetricsReport {
    /// Serializes the report as one deterministic JSON object (the
    /// optional `metrics` field of a sweep result row, the `report` of an
    /// `mwn traffic --json` line).
    ///
    /// Wall-clock rates are deliberately absent: everything here is a
    /// pure function of the job spec, preserving the store's
    /// byte-determinism across worker counts and machines.
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .raw("profile", &profile_json(&self.profile))
            .raw("totals", &self.totals.to_json())
            .raw(
                "batches",
                &arr(self.batches.iter().map(BatchMetrics::to_json)),
            )
            .raw("probes", &arr(self.probes.iter().map(ProbeSample::to_json)));
        // Optional sections append after the fixed prefix, so readers
        // pinned to the `profile`-first shape keep working.
        if let Some(drops) = &self.drops {
            obj = obj.raw("drops", &drops.to_json());
        }
        if let Some(fct) = &self.fct {
            obj = obj.raw("fct", &fct.to_json(self.totals.time));
        }
        if let Some(retired) = self.retired_tcp {
            obj = obj.raw("retired_tcp", &retired.to_json());
        }
        obj.finish()
    }

    /// Events popped per packet delivered to a sink (0 without a
    /// delivery).
    pub fn events_per_packet(&self) -> f64 {
        ratio(self.profile.events_processed() as f64, self.delivered)
    }

    /// Events scheduled per packet delivered to a sink (0 without a
    /// delivery).
    pub fn schedules_per_packet(&self) -> f64 {
        ratio(self.profile.queue_schedules as f64, self.delivered)
    }

    /// Pending events cancelled per packet delivered to a sink (0 without
    /// a delivery).
    pub fn cancels_per_packet(&self) -> f64 {
        ratio(self.profile.queue_cancels as f64, self.delivered)
    }

    /// Receptions (decodable or carrier-sense only) per frame put on the
    /// air: signal edges, halved, per transmission — every transmission
    /// ends in exactly one `tx_end`.
    pub fn rx_per_tx(&self) -> f64 {
        ratio(
            self.profile.signal_edges() as f64 / 2.0,
            self.events_of("tx_end"),
        )
    }

    /// Share of wave segments that ended by going back through the queue
    /// instead of reaching the wave's last receiver.
    pub fn wave_yield_share(&self) -> f64 {
        let segments = self.events_of("signal_start") + self.events_of("signal_end");
        ratio(self.profile.wave_yields() as f64, segments)
    }

    /// The paper's steady-state link-layer dropping probability (Figure
    /// 14): the batch mean over the measured batches, the transient
    /// excluded.
    pub fn drop_probability(&self) -> f64 {
        BatchMetrics::steady_drop_probability(&self.batches).mean
    }

    fn events_of(&self, kind: &str) -> u64 {
        let by_kind = self.profile.by_kind();
        by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, n)| n)
    }
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Serializes an [`EngineProfile`] as a JSON object (histogram keys
/// sorted, so output is deterministic).
///
/// Timed sections (e.g. `medium_tick`, `medium_lazy`) are exported as invocation
/// *counts* only: their wall-clock seconds vary across machines, which
/// would break the sweep store's byte-determinism, so seconds stay
/// API-only (`EngineProfile::timed_secs`) for `mwn stats` / `mwn bench`.
/// The radios' overflow-store peak closes the object.
pub fn profile_json(p: &EngineProfile) -> String {
    let mut hist = Obj::new();
    for (kind, count) in p.by_kind() {
        hist = hist.u64(kind, count);
    }
    let mut timed = Obj::new();
    for (kind, invocations, _secs) in p.timed() {
        timed = timed.u64(kind, invocations);
    }
    Obj::new()
        .u64("events", p.events_processed())
        .usize("peak_queue", p.peak_queue_depth())
        .raw("by_kind", &hist.finish())
        .raw("timed_counts", &timed.finish())
        .u64("radio_overflow_peak", p.radio_overflow_peak)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(t_ns: u64, accepted: u64, drops: u64, table: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            time: SimTime::from_nanos(t_ns),
            nodes: vec![NodeCounters {
                mac: MacCounters {
                    unicast_accepted: accepted,
                    rts_retry_drops: drops,
                    ..Default::default()
                },
                route_table_size: table,
                ..Default::default()
            }],
            flows: vec![FlowCounters {
                sender: Some(TcpSenderStats {
                    data_packets_sent: accepted,
                    ..Default::default()
                }),
                ..Default::default()
            }],
        }
    }

    #[test]
    fn registry_deltas_across_batch_boundaries() {
        let mut reg = MetricsRegistry::new();
        reg.begin(snap(0, 10, 1, 3));
        let b = [
            reg.end_batch(snap(1_000, 110, 5, 4)),
            reg.end_batch(snap(2_000, 310, 5, 2)),
        ];
        // First batch: counters are deltas, gauges are end-of-batch values.
        assert_eq!(b[0].nodes[0].mac.unicast_accepted, 100);
        assert_eq!(b[0].nodes[0].mac.rts_retry_drops, 4);
        assert_eq!(b[0].nodes[0].route_table_size, 4);
        assert_eq!(b[0].flows[0].sender.unwrap().data_packets_sent, 100);
        assert_eq!(b[0].start, SimTime::from_nanos(0));
        assert_eq!(b[0].end, SimTime::from_nanos(1_000));
        // Second batch measures against the first boundary, not the start.
        assert_eq!(b[1].nodes[0].mac.unicast_accepted, 200);
        assert_eq!(b[1].nodes[0].mac.rts_retry_drops, 0);
        assert_eq!(b[1].nodes[0].route_table_size, 2);
        assert!((b[0].drop_probability() - 0.04).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "begin before end_batch")]
    fn end_batch_without_begin_panics() {
        MetricsRegistry::new().end_batch(snap(0, 0, 0, 0));
    }

    #[test]
    fn counter_block_roundtrip_sum_and_difference() {
        let a = MacCounters {
            unicast_accepted: 7,
            data_sent: 9,
            ..Default::default()
        };
        let b = MacCounters {
            unicast_accepted: 3,
            data_sent: 4,
            ..Default::default()
        };
        let sum = a.plus(&b);
        assert_eq!(sum.unicast_accepted, 10);
        assert_eq!(sum.minus(&b), a);
        assert_eq!(MacCounters::field_names().len(), sum.values().len());
    }

    #[test]
    fn node_totals_sum_over_nodes() {
        let mut s = snap(0, 5, 0, 2);
        s.nodes.push(NodeCounters {
            mac: MacCounters {
                unicast_accepted: 7,
                ..Default::default()
            },
            route_table_size: 3,
            ..Default::default()
        });
        let t = s.node_totals();
        assert_eq!(t.mac.unicast_accepted, 12);
        assert_eq!(t.route_table_size, 5);
    }

    #[test]
    fn end_batch_tolerates_flow_churn() {
        // Two flows at the baseline, three at the boundary (one born
        // mid-batch), then back to one (two completed and freed).
        let flow = |sent| FlowCounters {
            sender: Some(TcpSenderStats {
                data_packets_sent: sent,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut reg = MetricsRegistry::new();
        reg.begin(MetricsSnapshot {
            time: SimTime::ZERO,
            nodes: vec![],
            flows: vec![flow(10), flow(20)],
        });
        let b = [
            reg.end_batch(MetricsSnapshot {
                time: SimTime::from_nanos(1_000),
                nodes: vec![],
                flows: vec![flow(15), flow(26), flow(4)],
            }),
            reg.end_batch(MetricsSnapshot {
                time: SimTime::from_nanos(2_000),
                nodes: vec![],
                flows: vec![flow(18)],
            }),
        ];
        assert_eq!(b[0].flows.len(), 3);
        assert_eq!(b[0].flows[0].sender.unwrap().data_packets_sent, 5);
        // Born mid-batch: measured against an empty baseline.
        assert_eq!(b[0].flows[2].sender.unwrap().data_packets_sent, 4);
        assert_eq!(b[1].flows.len(), 3);
        assert_eq!(b[1].flows[0].sender.unwrap().data_packets_sent, 3);
        // Completed mid-batch: no further contribution.
        assert_eq!(b[1].flows[1].sender, None);
    }

    #[test]
    fn end_batch_measures_relet_slot_from_zero() {
        // Slot 0 is re-let between two boundaries: its old tenant had sent
        // 100 segments at the baseline, the new one 3 since it started.
        // The batch holds the new tenant's 3, not a clamp against the old.
        let tenant = |generation, sent, delivered| FlowCounters {
            tenant: Some(FlowId::from_parts(0, generation)),
            delivered,
            sender: Some(TcpSenderStats {
                data_packets_sent: sent,
                retransmissions: sent / 10,
                ..Default::default()
            }),
            sink: None,
        };
        let at = |t_ns, flow| MetricsSnapshot {
            time: SimTime::from_nanos(t_ns),
            nodes: vec![],
            flows: vec![flow],
        };
        let mut reg = MetricsRegistry::new();
        reg.begin(at(0, tenant(0, 100, 90)));
        let b = [
            reg.end_batch(at(1_000, tenant(1, 3, 2))),
            reg.end_batch(at(2_000, tenant(1, 25, 20))),
        ];
        assert_eq!(b[0].flows[0], tenant(1, 3, 2));
        // The same tenant at both ends: an ordinary difference.
        let d = b[1].flows[0];
        assert_eq!(d.tenant, Some(FlowId::from_parts(0, 1)));
        assert_eq!(d.delivered, 18);
        assert_eq!(d.sender.unwrap().data_packets_sent, 22);
        assert_eq!(d.sender.unwrap().retransmissions, 2);
    }

    #[test]
    fn quantiles_exact_small_n() {
        let mut q = Quantiles::new(16);
        assert_eq!(q.quantile(0.5), None);
        q.record(42.0);
        assert_eq!(q.p50(), Some(42.0));
        assert_eq!(q.p99(), Some(42.0));

        let mut q = Quantiles::new(16);
        for v in [4.0, 1.0, 3.0, 2.0] {
            q.record(v);
        }
        assert!(q.is_exact());
        assert_eq!(q.count(), 4);
        // Linear interpolation between order statistics (type-7):
        // positions 0..3, p50 at 1.5 → 2.5, p95 at 2.85 → 3.85.
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(4.0));
        assert_eq!(q.p50(), Some(2.5));
        assert!((q.p95().unwrap() - 3.85).abs() < 1e-12);
        assert!((q.p99().unwrap() - 3.97).abs() < 1e-12);
    }

    #[test]
    fn quantiles_reservoir_is_deterministic_and_bounded() {
        let feed = |n: u64| {
            let mut q = Quantiles::new(32);
            for i in 0..n {
                // A fixed pseudo-arbitrary sequence, not sorted.
                q.record(((i * 2_654_435_761) % 1_000) as f64);
            }
            q
        };
        let a = feed(10_000);
        let b = feed(10_000);
        assert_eq!(a.count(), 10_000);
        assert!(!a.is_exact());
        assert_eq!(a.samples, b.samples, "same input stream, same reservoir");
        assert!(a.samples.len() <= 32);
        assert!(a.samples.capacity() <= 32, "reservoir never outgrows cap");
        // The subsample still spans the population: quantiles land inside
        // the recorded value range and are ordered.
        let (p50, p95, p99) = (a.p50().unwrap(), a.p95().unwrap(), a.p99().unwrap());
        assert!((0.0..1000.0).contains(&p50));
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn quantiles_skip_non_finite() {
        let mut q = Quantiles::new(8);
        q.record(1.0);
        q.record(f64::NAN);
        q.record(f64::INFINITY);
        q.record(3.0);
        assert_eq!(q.count(), 4);
        assert_eq!(q.p50(), Some(2.0));
    }

    #[test]
    fn report_json_shape_is_stable() {
        let report = MetricsReport {
            totals: MetricsSnapshot::empty(SimTime::from_nanos(1_000_000_000)),
            ..MetricsReport::default()
        };
        assert_eq!(
            report.to_json(),
            r#"{"profile":{"events":0,"peak_queue":0,"by_kind":{},"timed_counts":{},"radio_overflow_peak":0},"totals":{"t_secs":1,"nodes":[],"flows":[]},"batches":[],"probes":[]}"#
        );
    }

    #[test]
    fn report_json_appends_optional_sections_after_fixed_prefix() {
        let mut fct = FctSummary::new(&["web"]);
        fct.class_mut(0).record_arrival();
        let report = MetricsReport {
            totals: MetricsSnapshot::empty(SimTime::from_nanos(2_500_000_000)),
            drops: Some(crate::drop::DropLedger::new(1, vec!["all".into()])),
            fct: Some(fct),
            retired_tcp: Some(FlowCounters {
                sender: Some(TcpSenderStats {
                    data_packets_sent: 7,
                    ..Default::default()
                }),
                ..Default::default()
            }),
            ..MetricsReport::default()
        };
        let json = report.to_json();
        assert!(json.starts_with(r#"{"profile":{"events":0"#));
        assert!(json.contains(r#","drops":{"total":0,"#));
        // The typed sections serialize last, the summary stamped with the
        // report's end time.
        assert!(
            json.ends_with(concat!(
                r#","fct":{"t_secs":2.5,"arrivals":1,"completions":0,"classes":[{"class":"web","arrivals":1,"completions":0,"packets":0,"#,
                r#""fct_mean_secs":null,"fct_p50_secs":null,"fct_p95_secs":null,"fct_p99_secs":null,"goodput_p50_kbps":null,"goodput_p99_kbps":null}]},"#,
                r#""retired_tcp":{"sender":{"data_packets_sent":7,"retransmissions":0,"timeouts":0,"fast_retransmits":0,"dup_acks":0},"sink":null}}"#
            )),
            "{json}"
        );
    }

    #[test]
    fn quantiles_empty_and_single_sample_edges() {
        let q = Quantiles::new(4);
        assert_eq!(q.count(), 0);
        assert!(q.is_exact());
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(q.quantile(p), None);
        }
        let mut q = Quantiles::new(4);
        q.record(7.5);
        // With one sample every quantile is that sample, clamp included.
        for p in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(q.quantile(p), Some(7.5));
        }
    }

    #[test]
    fn quantiles_capacity_boundary_is_exact_then_sampled() {
        let mut q = Quantiles::new(3);
        q.record(1.0);
        q.record(2.0);
        q.record(3.0);
        // Exactly at capacity: still exact, nothing discarded.
        assert!(q.is_exact());
        assert_eq!(q.samples.len(), 3);
        assert_eq!(q.p50(), Some(2.0));
        // One past capacity: the estimator turns sampled, the reservoir
        // stays at capacity, and the count keeps the true total.
        q.record(4.0);
        assert!(!q.is_exact());
        assert_eq!(q.samples.len(), 3);
        assert_eq!(q.count(), 4);
        // Every retained sample came from the input stream.
        for s in &q.samples {
            assert!([1.0, 2.0, 3.0, 4.0].contains(s));
        }
    }

    #[test]
    fn quantiles_all_non_finite_stream_has_no_quantiles() {
        let mut q = Quantiles::new(2);
        q.record(f64::NAN);
        q.record(f64::NEG_INFINITY);
        assert_eq!(q.count(), 2);
        assert_eq!(q.p50(), None);
    }
}
