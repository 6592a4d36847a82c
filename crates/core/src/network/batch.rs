//! The sharded batch engine: one wave segment's receivers handled in
//! parallel, replayed in walk order.
//!
//! # Model
//!
//! The sequential loop carries a transmission's signal edge across its
//! receivers in place (`Network::walk_wave`): one popped wave event
//! covers a *segment* — the run of consecutive receivers that can be
//! visited before any other pending event is due. With `--shards n`, a
//! segment of at least [`MIN_BATCH`] receivers becomes a *burst*. Those
//! cascades are node-local (a signal edge at node X touches only X's
//! transceiver, MAC, router, and flow halves anchored at X) and a wave
//! lists every receiver once, so the segment is partitioned by
//! `node % shards` and handled on worker threads running the *same*
//! generic cascade code as the sequential oracle ([`super::cascade`]).
//! Every global side effect a worker cascade would have — schedules,
//! timer table changes, trace/probe/ledger/audit/flight records, frame
//! releases, the delivered counter — is captured as a [`BatchOp`]
//! instead of applied, then replayed on the driving thread in walk order
//! through the sequential [`SeqEffects`]. Observables are therefore
//! byte-identical to the oracle by construction; the differential suite
//! in `mwn-check` holds the construction to it.
//!
//! # Why a segment is safe
//!
//! Handling receiver `j` after receiver `i` without first applying
//! `i`'s effects is sound because nothing `i` does can affect `j`, and
//! nothing either does can land between them:
//!
//! * A segment spans at most the propagation skew across the
//!   interference range (550 m: 1.83 µs). The earliest thing a
//!   signal-edge cascade can *schedule* is a SIFS response timer (10 µs)
//!   or a jittered AODV forward ([`mwn_aodv::MIN_JITTER`], 16 µs), so
//!   every new event lands strictly after every receiver in the segment
//!   — which is also why the walk's single up-front peek bounds the
//!   whole segment. Debug builds re-check this after every receiver,
//!   sequential or replayed.
//! * The DCF only emits `StartTx` from timer handlers, and a segment
//!   holds signal edges only — so no new transmission (no new wave, no
//!   frame-slab allocation, no energy metering) happens mid-burst.
//!   [`WorkerEffects::start_tx`] is `unreachable!` and would loudly say
//!   so if the invariant ever broke.
//! * Wave events are never the target of a timer cancel (only MAC,
//!   transport and discovery timers are cancellable), so nothing in a
//!   burst can invalidate the wave being walked.
//! * Frame-slab releases are deferred as ops: the slab — payload and
//!   wave snapshot both — is read-only while workers run, so a `TxId`
//!   can never be recycled mid-burst.
//!
//! # Stopping exactly on target
//!
//! `run_until_delivered(target, ..)` must stop after the very receiver
//! whose cascade reaches `target`. The sequential walk does that by
//! ending its segment at any receiver that delivers; a burst cannot, so
//! the driver refuses to *start* one that could overshoot: each trailing
//! edge can deliver at most [`Network::delivery_bound`] packets (the
//! largest receive window can release a whole reassembly buffer at
//! once), so a trailing-edge segment of `ends` receivers is only batched
//! while `target - delivered > ends * bound`. Near the stop point
//! execution degrades to the sequential walk and lands on the identical
//! event.
//!
//! Open-loop traffic scenarios (`traffic.is_some()`) always take the
//! sequential path: flow churn re-keys slots mid-run, which would
//! invalidate the workers' slot-ownership reasoning. `--shards` is
//! accepted and simply has no effect there (documented in
//! `EXPERIMENTS.md`).

use mwn_mac80211::MacTimer;
use mwn_obs::flight::FlightRecord;
use mwn_obs::{DropReason, ProbeKind};
use mwn_phy::TxId;
use mwn_pkt::{FlowId, NodeId};
use mwn_sim::{SharedSlice, SimTime, WorkerPool};
use mwn_tcp::TransportTimer;

use crate::trace::TraceRecord;

use super::cascade::{Cascade, Effects, NodeStates, Pools, SeqEffects};
use super::flows::{FlowDst, FlowMeta, FlowSlot, FlowSrc, FlowStore};
use super::frames::FrameSlab;
use super::{Event, Network, Role, SourceAgent};

/// Segments shorter than this run sequentially — the barrier costs more
/// than it buys.
pub(super) const MIN_BATCH: usize = 4;

/// One captured global side effect, replayed through [`SeqEffects`] in
/// event order. Times are absolute — the cascade already added `now`.
#[derive(Debug)]
pub(super) enum BatchOp {
    Schedule {
        time: SimTime,
        event: Event,
    },
    SetMacTimer {
        time: SimTime,
        node: NodeId,
        timer: MacTimer,
    },
    CancelMacTimer {
        node: NodeId,
        timer: MacTimer,
    },
    SetTransportTimer {
        time: SimTime,
        flow: FlowId,
        role: Role,
        timer: TransportTimer,
    },
    CancelTransportTimer {
        flow: FlowId,
        role: Role,
        timer: TransportTimer,
    },
    SetDiscoveryTimer {
        time: SimTime,
        node: NodeId,
        dst: NodeId,
    },
    CancelDiscoveryTimer {
        node: NodeId,
        dst: NodeId,
    },
    Trace(TraceRecord),
    Probe {
        time: SimTime,
        kind: ProbeKind,
        id: u32,
        value: f64,
    },
    Flight(FlightRecord),
    Ledger {
        node: usize,
        class: usize,
        reason: DropReason,
    },
    AuditDeliverUp {
        node: usize,
        flow: u32,
    },
    AuditHandoff {
        node: usize,
        flow: u32,
    },
    AuditConsume {
        node: usize,
        flow: u32,
    },
    AuditOriginate {
        node: usize,
        flow: u32,
    },
    AuditTerminalDrop {
        node: usize,
        flow: u32,
    },
    Delivered(u64),
    ReleaseFrame(TxId),
}

/// Replays one op through the sequential effects — the same code the
/// oracle path runs, so replay cannot drift from it.
fn apply_op(eff: &mut SeqEffects<'_>, op: BatchOp) {
    match op {
        BatchOp::Schedule { time, event } => eff.schedule(time, event),
        BatchOp::SetMacTimer { time, node, timer } => eff.set_mac_timer(time, node, timer),
        BatchOp::CancelMacTimer { node, timer } => eff.cancel_mac_timer(node, timer),
        BatchOp::SetTransportTimer {
            time,
            flow,
            role,
            timer,
        } => {
            eff.set_transport_timer(time, flow, role, timer);
        }
        BatchOp::CancelTransportTimer { flow, role, timer } => {
            eff.cancel_transport_timer(flow, role, timer);
        }
        BatchOp::SetDiscoveryTimer { time, node, dst } => eff.set_discovery_timer(time, node, dst),
        BatchOp::CancelDiscoveryTimer { node, dst } => eff.cancel_discovery_timer(node, dst),
        BatchOp::Trace(rec) => eff.trace(rec.time, rec.node, || rec.event),
        BatchOp::Probe {
            time,
            kind,
            id,
            value,
        } => eff.probe(time, kind, id, value),
        BatchOp::Flight(record) => eff.flight(record),
        BatchOp::Ledger {
            node,
            class,
            reason,
        } => eff.ledger_drop(node, class, reason),
        BatchOp::AuditDeliverUp { node, flow } => eff.audit_deliver_up(node, flow),
        BatchOp::AuditHandoff { node, flow } => eff.audit_handoff(node, flow),
        BatchOp::AuditConsume { node, flow } => eff.audit_consume(node, flow),
        BatchOp::AuditOriginate { node, flow } => eff.audit_originate(node, flow),
        BatchOp::AuditTerminalDrop { node, flow } => eff.audit_terminal_drop(node, flow),
        BatchOp::Delivered(n) => eff.add_delivered(n),
        BatchOp::ReleaseFrame(tx) => eff.release_frame(tx),
    }
}

// ---- worker-side trait instantiations --------------------------------------

/// Disjoint shared node state: worker `w` may only touch nodes with
/// `index % shards == w`. The assertion is the ownership safety net —
/// if a cascade ever reached across nodes, it fails loudly instead of
/// racing.
struct WorkerStates<'a> {
    transceivers: SharedSlice<'a, mwn_phy::Transceiver>,
    macs: SharedSlice<'a, mwn_mac80211::Dcf>,
    routers: SharedSlice<'a, mwn_aodv::Router>,
    shards: usize,
    worker: usize,
}

impl WorkerStates<'_> {
    #[inline]
    fn check(&self, node: NodeId) -> usize {
        assert_eq!(
            node.index() % self.shards,
            self.worker,
            "worker cascade touched a node it does not own"
        );
        node.index()
    }
}

impl NodeStates for WorkerStates<'_> {
    fn tr(&mut self, node: NodeId) -> &mut mwn_phy::Transceiver {
        let i = self.check(node);
        // SAFETY: ownership assert above; disjoint `node % shards`
        // partition means no other worker holds this index.
        unsafe { self.transceivers.get_mut(i) }
    }

    fn mac(&mut self, node: NodeId) -> &mut mwn_mac80211::Dcf {
        let i = self.check(node);
        // SAFETY: as above.
        unsafe { self.macs.get_mut(i) }
    }

    fn router(&mut self, node: NodeId) -> &mut mwn_aodv::Router {
        let i = self.check(node);
        // SAFETY: as above.
        unsafe { self.routers.get_mut(i) }
    }
}

/// A worker's view of the flow store: shared immutable slots/metas,
/// mutable access to the src/dst halves *anchored at nodes this worker
/// owns*. Flow churn (spawn/vacate) is sequential-only and unreachable
/// here — batched scenarios have no open-loop traffic.
struct WorkerFlows<'a> {
    slots: &'a [FlowSlot],
    srcs: SharedSlice<'a, Option<FlowSrc>>,
    dsts: SharedSlice<'a, Option<FlowDst>>,
    shards: usize,
    worker: usize,
}

impl WorkerFlows<'_> {
    fn meta_of(&self, flow: FlowId) -> Option<&FlowMeta> {
        let slot = self.slots.get(flow.slot() as usize)?;
        if slot.generation != flow.generation() {
            return None;
        }
        slot.meta.as_ref()
    }

    #[inline]
    fn check_owned(&self, node: NodeId) {
        assert_eq!(
            node.index() % self.shards,
            self.worker,
            "worker cascade touched a flow half it does not own"
        );
    }
}

impl FlowStore for WorkerFlows<'_> {
    fn meta(&self, flow: FlowId) -> Option<&FlowMeta> {
        self.meta_of(flow)
    }

    fn src_mut(&mut self, flow: FlowId) -> Option<&mut FlowSrc> {
        let src = self.meta_of(flow)?.src;
        self.check_owned(src);
        // SAFETY: the src half is only ever mutated by cascades at
        // `meta.src`, and that node belongs to this worker (assert).
        unsafe { self.srcs.get_mut(flow.slot() as usize) }.as_mut()
    }

    fn dst_mut(&mut self, flow: FlowId) -> Option<&mut FlowDst> {
        let dst = self.meta_of(flow)?.dst;
        self.check_owned(dst);
        // SAFETY: as above, for the dst half.
        unsafe { self.dsts.get_mut(flow.slot() as usize) }.as_mut()
    }

    fn collect_tcp_src_flows(&self, node: NodeId, out: &mut Vec<FlowId>) {
        // Same slot order as the sequential store. The `meta.src == node`
        // filter comes *first*: only then is the src half read, and that
        // half belongs to this worker — no cross-worker reads.
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(meta) = &slot.meta else { continue };
            if meta.src != node {
                continue;
            }
            self.check_owned(node);
            // SAFETY: src half owned by this worker (assert above).
            let src = unsafe { self.srcs.get_mut(i) };
            if matches!(src.as_ref().map(|s| &s.source), Some(SourceAgent::Tcp(_))) {
                out.push(FlowId::from_parts(i as u32, slot.generation));
            }
        }
    }

    fn spawn_slot(&mut self) -> (u32, u32) {
        unreachable!("flow churn is sequential-only (traffic scenarios never batch)")
    }

    fn fill_slot(&mut self, _: u32, _: FlowMeta, _: FlowSrc, _: FlowDst) {
        unreachable!("flow churn is sequential-only (traffic scenarios never batch)")
    }

    fn vacate(&mut self, _: FlowId) -> (FlowMeta, FlowSrc, FlowDst) {
        unreachable!("flow churn is sequential-only (traffic scenarios never batch)")
    }
}

/// Captures every global side effect as a [`BatchOp`]. The observability
/// gates mirror the sequential path exactly: a disabled trace buffer
/// must not evaluate the (pure) record closure, and disabled probes /
/// audit must not grow the op list.
struct WorkerEffects<'a> {
    ops: &'a mut Vec<BatchOp>,
    frames: &'a FrameSlab,
    trace_on: bool,
    probes_on: bool,
    audit_on: bool,
}

impl Effects for WorkerEffects<'_> {
    fn schedule(&mut self, time: SimTime, event: Event) {
        self.ops.push(BatchOp::Schedule { time, event });
    }

    fn set_mac_timer(&mut self, time: SimTime, node: NodeId, timer: MacTimer) {
        self.ops.push(BatchOp::SetMacTimer { time, node, timer });
    }

    fn cancel_mac_timer(&mut self, node: NodeId, timer: MacTimer) {
        self.ops.push(BatchOp::CancelMacTimer { node, timer });
    }

    fn clear_mac_timer(&mut self, _node: NodeId, _timer: MacTimer) {
        unreachable!("MAC timer events are never batched")
    }

    fn set_transport_timer(
        &mut self,
        time: SimTime,
        flow: FlowId,
        role: Role,
        timer: TransportTimer,
    ) {
        self.ops.push(BatchOp::SetTransportTimer {
            time,
            flow,
            role,
            timer,
        });
    }

    fn cancel_transport_timer(&mut self, flow: FlowId, role: Role, timer: TransportTimer) {
        self.ops
            .push(BatchOp::CancelTransportTimer { flow, role, timer });
    }

    fn clear_transport_timer(&mut self, _: FlowId, _: Role, _: TransportTimer) {
        unreachable!("transport timer events are never batched")
    }

    fn cancel_all_transport_timers(&mut self, _: FlowId) {
        unreachable!("flow completion is sequential-only (traffic scenarios never batch)")
    }

    fn ensure_transport_timer_capacity(&mut self, _: usize) {
        unreachable!("flow churn is sequential-only (traffic scenarios never batch)")
    }

    fn set_discovery_timer(&mut self, time: SimTime, node: NodeId, dst: NodeId) {
        self.ops
            .push(BatchOp::SetDiscoveryTimer { time, node, dst });
    }

    fn cancel_discovery_timer(&mut self, node: NodeId, dst: NodeId) {
        self.ops.push(BatchOp::CancelDiscoveryTimer { node, dst });
    }

    fn clear_discovery_timer(&mut self, _node: NodeId, _dst: NodeId) {
        unreachable!("discovery timer events are never batched")
    }

    fn trace(
        &mut self,
        now: SimTime,
        node: NodeId,
        event: impl FnOnce() -> crate::trace::TraceEvent,
    ) {
        if self.trace_on {
            self.ops.push(BatchOp::Trace(TraceRecord {
                time: now,
                node,
                event: event(),
            }));
        }
    }

    fn probe(&mut self, now: SimTime, kind: ProbeKind, id: u32, value: f64) {
        if self.probes_on {
            self.ops.push(BatchOp::Probe {
                time: now,
                kind,
                id,
                value,
            });
        }
    }

    fn flight(&mut self, record: FlightRecord) {
        self.ops.push(BatchOp::Flight(record));
    }

    fn ledger_drop(&mut self, node: usize, class: usize, reason: DropReason) {
        self.ops.push(BatchOp::Ledger {
            node,
            class,
            reason,
        });
    }

    fn audit_deliver_up(&mut self, node: usize, flow: u32) {
        if self.audit_on {
            self.ops.push(BatchOp::AuditDeliverUp { node, flow });
        }
    }

    fn audit_handoff(&mut self, node: usize, flow: u32) {
        if self.audit_on {
            self.ops.push(BatchOp::AuditHandoff { node, flow });
        }
    }

    fn audit_consume(&mut self, node: usize, flow: u32) {
        if self.audit_on {
            self.ops.push(BatchOp::AuditConsume { node, flow });
        }
    }

    fn audit_originate(&mut self, node: usize, flow: u32) {
        if self.audit_on {
            self.ops.push(BatchOp::AuditOriginate { node, flow });
        }
    }

    fn audit_terminal_drop(&mut self, node: usize, flow: u32) {
        if self.audit_on {
            self.ops.push(BatchOp::AuditTerminalDrop { node, flow });
        }
    }

    fn add_delivered(&mut self, n: u64) {
        self.ops.push(BatchOp::Delivered(n));
    }

    fn frame(&self, tx: TxId) -> Option<&mwn_pkt::MacFrame> {
        // Shared read: the slab is frozen while workers run (releases
        // are deferred ops; allocations only happen in `start_tx`).
        self.frames.get(tx)
    }

    fn release_frame(&mut self, tx: TxId) {
        self.ops.push(BatchOp::ReleaseFrame(tx));
    }

    fn start_tx(
        &mut self,
        _now: SimTime,
        _node: NodeId,
        _frame: mwn_pkt::MacFrame,
        _tr: &mut mwn_phy::Transceiver,
        _evs: &mut Vec<mwn_phy::RadioEvent>,
    ) {
        unreachable!(
            "a batched cascade tried to transmit: the DCF must only emit \
             StartTx from timer handlers, which are never batched"
        )
    }
}

// ---- the runtime -----------------------------------------------------------

/// Per-worker reusable context: cascade buffer pools and the captured
/// op lists of the current burst.
struct WorkerCtx {
    pools: Pools,
    /// `(wave position, captured ops)`, ascending in position.
    out: Vec<(u32, Vec<BatchOp>)>,
    /// Recycled op vectors.
    spare: Vec<Vec<BatchOp>>,
}

/// Everything the batch path keeps between bursts: the persistent
/// worker pool and per-worker contexts. Lives on [`Network`] as an
/// `Option` (absent means pure sequential execution).
pub(super) struct BatchRuntime {
    shards: usize,
    pool: WorkerPool,
    workers: Vec<WorkerCtx>,
    /// Bursts executed so far — the engagement observable `mwn bench`
    /// reports and the differential tests assert on (a sharded run that
    /// never bursts would match the oracle vacuously).
    bursts: u64,
}

impl std::fmt::Debug for BatchRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRuntime")
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

impl BatchRuntime {
    pub(super) fn new(shards: usize) -> Self {
        assert!(shards > 1, "a 1-shard runtime is the sequential path");
        BatchRuntime {
            shards,
            pool: WorkerPool::new(shards),
            workers: (0..shards)
                .map(|_| WorkerCtx {
                    pools: Pools::default(),
                    out: Vec::new(),
                    spare: Vec::new(),
                })
                .collect(),
            bursts: 0,
        }
    }

    pub(super) fn shards(&self) -> usize {
        self.shards
    }

    pub(super) fn bursts(&self) -> u64 {
        self.bursts
    }
}

impl Network {
    /// Whether a wave segment of `run` receivers may run as a parallel
    /// burst. `target` is the delivery stop bound of the enclosing run
    /// loop, if it has one — see the module docs on stopping exactly on
    /// target.
    pub(super) fn burst_allowed(&self, end: bool, run: usize, target: Option<u64>) -> bool {
        if self.batch.is_none() || self.traffic.is_some() || run < MIN_BATCH {
            return false;
        }
        let could_overshoot = end
            && target.is_some_and(|t| {
                t.saturating_sub(self.total_delivered)
                    <= (run as u64).saturating_mul(self.delivery_bound)
            });
        !could_overshoot
    }

    /// Runs receivers `lo..hi` of `tx`'s wave as one burst: parallel
    /// capture on the shard workers, then an in-order replay of every
    /// captured op on this thread.
    pub(super) fn run_burst(&mut self, tx: TxId, end: bool, lo: usize, hi: usize) {
        let mut rt = self.batch.take().expect("run_burst without a runtime");
        rt.bursts += 1;
        let shards = rt.shards;
        let unattributed = self.ledger.class_names().len() - 1;
        let trace_on = self.trace.is_some();
        let probes_on = self.probes.is_some();
        let audit_on = self.audit.is_some();

        {
            let (slots, srcs, dsts) = self.flows.split_for_batch();
            let slots: &[FlowSlot] = slots;
            let transceivers = SharedSlice::new(&mut self.transceivers);
            let macs = SharedSlice::new(&mut self.macs);
            let routers = SharedSlice::new(&mut self.routers);
            let srcs = SharedSlice::new(srcs);
            let dsts = SharedSlice::new(dsts);
            let ctxs = SharedSlice::new(&mut rt.workers);
            let frames: &FrameSlab = &self.frames;
            let wave = frames.wave(tx);
            let job = move |w: usize| {
                // SAFETY: worker w exclusively owns context w.
                let ctx = unsafe { ctxs.get_mut(w) };
                ctx.out.clear();
                for (idx, rx) in wave.receivers()[..hi].iter().enumerate().skip(lo) {
                    if rx.node.index() % shards != w {
                        continue;
                    }
                    let mut ops = ctx.spare.pop().unwrap_or_default();
                    let mut states = WorkerStates {
                        transceivers,
                        macs,
                        routers,
                        shards,
                        worker: w,
                    };
                    let mut flows = WorkerFlows {
                        slots,
                        srcs,
                        dsts,
                        shards,
                        worker: w,
                    };
                    let mut eff = WorkerEffects {
                        ops: &mut ops,
                        frames,
                        trace_on,
                        probes_on,
                        audit_on,
                    };
                    let mut cascade = Cascade {
                        now: wave.time(idx, end),
                        states: &mut states,
                        flows: &mut flows,
                        traffic: None,
                        eff: &mut eff,
                        pools: &mut ctx.pools,
                        unattributed,
                    };
                    cascade.signal_edge(rx, tx, end);
                    ctx.out.push((idx as u32, ops));
                }
            };
            rt.pool.run(&job);
        }

        // Replay: walk the segment in order; each receiver's ops come
        // from its owner's list, whose entries are already ascending in
        // wave position (workers walked the segment in order).
        let mut cursors = vec![0usize; shards];
        self.with_cascade(|c| {
            for idx in lo..hi {
                let wave = c.eff.frames.wave(tx);
                let w = wave.receivers()[idx].node.index() % shards;
                c.now = wave.time(idx, end);
                let entry = &mut rt.workers[w].out[cursors[w]];
                assert_eq!(entry.0 as usize, idx, "replay cursor out of step");
                cursors[w] += 1;
                let mut ops = std::mem::take(&mut entry.1);
                for op in ops.drain(..) {
                    apply_op(c.eff, op);
                }
                rt.workers[w].spare.push(ops);
                if idx + 1 < hi {
                    c.debug_assert_lookahead(tx, end, idx + 1);
                }
            }
        });
        self.batch = Some(rt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, Transport};
    use mwn_phy::DataRate;
    use mwn_pkt::FlowId;
    use mwn_sim::{SimDuration, SimTime};

    fn deadline(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// FNV-1a64 over every retained trace record's rendered form — a
    /// strict observable for digest-equality assertions.
    fn trace_fingerprint(net: &Network) -> u64 {
        let mut hash = super::super::FNV_OFFSET;
        for rec in net.trace() {
            for b in rec.to_string().bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(super::super::FNV_PRIME);
            }
        }
        hash
    }

    fn traffic_scenario(max_flows: u64, seed: u64) -> Scenario {
        use crate::scenario::TrafficSpec;
        use crate::topology;
        use mwn_traffic::{Arrival, SizeDist, TrafficClass, TrafficModel};
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

    /// The core PR-8 contract, in-crate: a sharded run of a non-trivial
    /// scenario reaches the same state as the sequential oracle.
    #[test]
    fn sharded_run_matches_sequential_oracle() {
        let fingerprint = |shards: usize| {
            let s = Scenario::chain(4, DataRate::MBPS_2, Transport::newreno(), 42);
            let mut net = s.build();
            net.enable_trace(1 << 16);
            net.enable_audit();
            net.set_shards(shards);
            let out = net.run_until_delivered(150, deadline(240));
            let trace_hash = trace_fingerprint(&net);
            (
                out,
                net.now(),
                net.total_delivered(),
                net.totals(),
                trace_hash,
                net.drop_report().grand_total(),
                net.conservation_report().expect("audit on").is_balanced(),
                net.flight_written(),
            )
        };
        let seq = fingerprint(1);
        assert_eq!(seq, fingerprint(2));
        assert_eq!(seq, fingerprint(3));
        assert_eq!(seq, fingerprint(8));
    }

    /// Stops land on the identical event even when the target is reached
    /// mid-burst — the overshoot gate degrades to sequential in time.
    #[test]
    fn sharded_stop_point_is_exact() {
        for target in [1u64, 7, 50, 121] {
            let run = |shards: usize| {
                let s = Scenario::chain(3, DataRate::MBPS_2, Transport::vegas(2), 9);
                let mut net = s.build();
                net.set_shards(shards);
                net.run_until_delivered(target, deadline(240));
                (net.now(), net.total_delivered())
            };
            assert_eq!(run(1), run(4), "divergent stop for target {target}");
        }
    }

    /// Deadline-bounded runs (no delivery target) batch without a gate
    /// and still match.
    #[test]
    fn sharded_deadline_run_matches() {
        let run = |shards: usize| {
            let s = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 5);
            let mut net = s.build();
            net.enable_trace(1 << 14);
            net.set_shards(shards);
            net.run_until(deadline(20));
            (net.total_delivered(), net.totals(), trace_fingerprint(&net))
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }

    /// Traffic scenarios take the sequential path under any shard count:
    /// identical digests, no panics from the churn-is-sequential asserts.
    #[test]
    fn traffic_scenarios_fall_back_to_sequential() {
        let run = |shards: usize| {
            let mut net = traffic_scenario(40, 9).build();
            net.set_shards(shards);
            net.run_until_traffic_done(deadline(4000));
            net.traffic_digest().unwrap()
        };
        assert_eq!(run(1), run(4));
    }

    /// Mobility scenarios interleave `MobilityTick` (a non-batch kind)
    /// with signal bursts; the carry path must keep global order.
    #[test]
    fn sharded_mobility_run_matches() {
        let run = |shards: usize| {
            let mut s = Scenario::chain(3, DataRate::MBPS_2, Transport::newreno(), 17);
            s.mobility = Some(crate::mobility::RandomWaypoint::strip(
                1.0,
                SimDuration::from_secs(1),
            ));
            let mut net = s.build();
            net.enable_trace(1 << 14);
            net.set_shards(shards);
            net.run_until_delivered(80, deadline(240));
            (
                net.now(),
                net.total_delivered(),
                net.totals(),
                trace_fingerprint(&net),
            )
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn set_shards_one_restores_the_pure_oracle() {
        let s = Scenario::chain(1, DataRate::MBPS_2, Transport::newreno(), 1);
        let mut net = s.build();
        net.set_shards(4);
        net.set_shards(1);
        net.run_until_delivered(20, deadline(60));
        assert!(net.total_delivered() >= 20);
        assert!(net.flow_delivered(FlowId(0)) >= 20);
    }
}
