//! The flow store: a generation-checked slab of flows.
//!
//! Each flow's state is kept in three parallel vectors, by who touches
//! it:
//!
//! * [`FlowMeta`] — endpoints, class, transaction bookkeeping. Never
//!   changes while the flow is live.
//! * [`FlowSrc`] — the sender agent and its window average. Mutated only
//!   by cascades at `meta.src`.
//! * [`FlowDst`] — the sink agent and delivery accounting. Mutated only
//!   by cascades at `meta.dst`.

use mwn_pkt::{FlowId, NodeId};
use mwn_sim::stats::TimeWeightedAverage;
use mwn_sim::SimTime;

use super::{SinkAgent, SourceAgent};

/// Per-flow facts that never change while the flow is live.
#[derive(Debug, Clone, Copy)]
pub(super) struct FlowMeta {
    pub src: NodeId,
    pub dst: NodeId,
    /// Traffic class index, or [`super::PERSISTENT`].
    pub class: u32,
    /// When the transaction this leg belongs to started (the request
    /// arrival, even for a response leg).
    pub started: SimTime,
    /// Packets completed by earlier legs of the same transaction.
    pub carried: u64,
    /// Response-leg size to spawn once this leg completes.
    pub response: Option<u64>,
}

/// Source-side state: mutated only by cascades at `meta.src`.
#[derive(Debug)]
pub(super) struct FlowSrc {
    pub source: SourceAgent,
    /// Time-weighted congestion window (TCP only).
    pub cwnd_twa: TimeWeightedAverage,
}

/// Sink-side state: mutated only by cascades at `meta.dst`.
#[derive(Debug)]
pub(super) struct FlowDst {
    pub sink: SinkAgent,
    /// Packets delivered in order at the sink (goodput numerator).
    pub delivered: u64,
    /// When the sink last advanced (for latency measurements).
    pub last_delivery: Option<SimTime>,
}

/// One slot of the flow slab. The generation counter increments every
/// time the slot is vacated, so a stale [`FlowId`] (packets or timers
/// from a finished flow) can never reach the slot's next tenant.
#[derive(Debug)]
pub(super) struct FlowSlot {
    pub generation: u32,
    pub meta: Option<FlowMeta>,
}

/// The flow store: parallel slot/src/dst vectors plus the free list.
/// Persistent flows occupy slots `0..n` forever; traffic flows churn
/// through the remainder.
#[derive(Debug, Default)]
pub(super) struct Flows {
    pub slots: Vec<FlowSlot>,
    pub srcs: Vec<Option<FlowSrc>>,
    pub dsts: Vec<Option<FlowDst>>,
    /// Vacated slot indices, reused LIFO.
    pub free: Vec<u32>,
}

impl Flows {
    /// Appends a live flow at build time (persistent scenario flows).
    pub(super) fn push_persistent(&mut self, meta: FlowMeta, src: FlowSrc, dst: FlowDst) {
        self.slots.push(FlowSlot {
            generation: 0,
            meta: Some(meta),
        });
        self.srcs.push(Some(src));
        self.dsts.push(Some(dst));
    }

    /// Slots allocated so far (not all occupied).
    pub(super) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots.
    pub(super) fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.meta.is_some()).count()
    }

    /// Generation-checked lookup of a flow's immutable half.
    pub(super) fn meta(&self, flow: FlowId) -> Option<&FlowMeta> {
        let slot = self.slots.get(flow.slot() as usize)?;
        if slot.generation != flow.generation() {
            return None;
        }
        slot.meta.as_ref()
    }

    /// Generation-checked read access to the source half.
    pub(super) fn src_ref(&self, flow: FlowId) -> Option<&FlowSrc> {
        self.meta(flow)?;
        self.srcs[flow.slot() as usize].as_ref()
    }

    /// Generation-checked read access to the sink half.
    pub(super) fn dst_ref(&self, flow: FlowId) -> Option<&FlowDst> {
        self.meta(flow)?;
        self.dsts[flow.slot() as usize].as_ref()
    }

    /// Generation-checked lookup of the source half.
    pub(super) fn src_mut(&mut self, flow: FlowId) -> Option<&mut FlowSrc> {
        self.meta(flow)?;
        self.srcs[flow.slot() as usize].as_mut()
    }

    /// Generation-checked lookup of the sink half.
    pub(super) fn dst_mut(&mut self, flow: FlowId) -> Option<&mut FlowDst> {
        self.meta(flow)?;
        self.dsts[flow.slot() as usize].as_mut()
    }

    /// Appends (in slot order) every live TCP flow whose source is `node`
    /// — the ELFN route-failure fanout set.
    pub(super) fn collect_tcp_src_flows(&self, node: NodeId, out: &mut Vec<FlowId>) {
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(meta) = &slot.meta else { continue };
            if meta.src != node {
                continue;
            }
            let is_tcp = matches!(
                self.srcs[i].as_ref().map(|s| &s.source),
                Some(SourceAgent::Tcp(_))
            );
            if is_tcp {
                out.push(FlowId::from_parts(i as u32, slot.generation));
            }
        }
    }

    /// Claims a slot for a new traffic flow: `(slot, generation)`.
    pub(super) fn spawn_slot(&mut self) -> (u32, u32) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(FlowSlot {
                    generation: 0,
                    meta: None,
                });
                self.srcs.push(None);
                self.dsts.push(None);
                s
            }
        };
        (slot, self.slots[slot as usize].generation)
    }

    /// Fills a slot claimed by [`spawn_slot`](Self::spawn_slot).
    pub(super) fn fill_slot(&mut self, slot: u32, meta: FlowMeta, src: FlowSrc, dst: FlowDst) {
        let i = slot as usize;
        debug_assert!(self.slots[i].meta.is_none(), "filling an occupied slot");
        self.slots[i].meta = Some(meta);
        self.srcs[i] = Some(src);
        self.dsts[i] = Some(dst);
    }

    /// Vacates a completed flow's slot (bumping its generation) and
    /// returns the evicted state.
    pub(super) fn vacate(&mut self, flow: FlowId) -> (FlowMeta, FlowSrc, FlowDst) {
        let i = flow.slot() as usize;
        let entry = &mut self.slots[i];
        debug_assert_eq!(entry.generation, flow.generation(), "stale completion");
        let meta = entry.meta.take().expect("completing an empty slot");
        entry.generation = (entry.generation + 1) % FlowId::GENERATIONS;
        let src = self.srcs[i]
            .take()
            .expect("vacating a slot without a source");
        let dst = self.dsts[i].take().expect("vacating a slot without a sink");
        self.free.push(flow.slot());
        (meta, src, dst)
    }
}
