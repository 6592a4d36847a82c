//! On-change time-series probes.
//!
//! A probe samples one scalar protocol signal — congestion window,
//! smoothed RTT, the Vegas `diff`, interface-queue depth — every time the
//! event loop touches it. The buffer stores a sample only when the value
//! actually changed, so a cwnd that sits at 4.0 for a thousand ACKs costs
//! one record, and Figs. 3–4-style cwnd-vs-time series come out exactly
//! as step functions.

use std::collections::VecDeque;

use mwn_pkt::FlowId;
use mwn_sim::SimTime;

use crate::json::Obj;

/// Which signal a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// Congestion window, packets (per flow).
    Cwnd,
    /// Coarse smoothed RTT, seconds (per flow).
    Srtt,
    /// Vegas `diff = W·(1 − baseRTT/RTT)`, packets (per flow).
    VegasDiff,
    /// Interface-queue depth, packets (per node).
    IfqDepth,
}

/// Number of [`ProbeKind`] variants (the change-detection array size).
const KIND_COUNT: usize = 4;

impl ProbeKind {
    /// Stable machine-readable name (the JSONL `kind` field).
    pub fn name(&self) -> &'static str {
        match self {
            ProbeKind::Cwnd => "cwnd",
            ProbeKind::Srtt => "srtt",
            ProbeKind::VegasDiff => "vegas_diff",
            ProbeKind::IfqDepth => "ifq_depth",
        }
    }

    fn index(self) -> usize {
        match self {
            ProbeKind::Cwnd => 0,
            ProbeKind::Srtt => 1,
            ProbeKind::VegasDiff => 2,
            ProbeKind::IfqDepth => 3,
        }
    }

    /// Where series `id` of this kind keeps its last value. Per-flow ids
    /// pack a reuse generation above the flow-table slot; only one flow
    /// per slot is ever live, so the table is dense by *slot* — indexing
    /// by the packed id would grow it by 2²⁰ entries per slot reuse.
    fn series_index(self, id: u32) -> usize {
        match self {
            ProbeKind::Cwnd | ProbeKind::Srtt | ProbeKind::VegasDiff => FlowId(id).slot() as usize,
            ProbeKind::IfqDepth => id as usize,
        }
    }
}

/// One probe sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// When the signal changed to this value.
    pub time: SimTime,
    /// Which signal.
    pub kind: ProbeKind,
    /// Flow id for per-flow signals, node id for per-node signals.
    pub id: u32,
    /// The new value.
    pub value: f64,
}

impl ProbeSample {
    /// Serializes the sample as a compact JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .f64("t", self.time.as_secs_f64())
            .str("kind", self.kind.name())
            .u64("id", u64::from(self.id))
            .f64("v", self.value)
            .finish()
    }
}

/// Bounded ring buffer of probe samples with on-change deduplication.
#[derive(Debug, Default)]
pub struct ProbeBuffer {
    samples: VecDeque<ProbeSample>,
    capacity: usize,
    dropped: u64,
    /// Last stored `(id, value)` per series, for change detection —
    /// flat: one dense `Vec` per kind, indexed by
    /// [`ProbeKind::series_index`] (`NaN` = never recorded, which a `==`
    /// change check treats as always-changed, exactly what we want).
    /// The id rides along so a flow slot's next tenant reads as changed
    /// even when its first value equals the previous tenant's last.
    last: [Vec<(u32, f64)>; KIND_COUNT],
}

impl ProbeBuffer {
    /// Creates a buffer holding at most `capacity` samples (oldest
    /// evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "probe buffer needs capacity");
        ProbeBuffer {
            samples: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            last: Default::default(),
        }
    }

    /// Records `value` for the `(kind, id)` series at `time`, unless it
    /// equals the series' previous value.
    pub fn record(&mut self, time: SimTime, kind: ProbeKind, id: u32, value: f64) {
        let series = &mut self.last[kind.index()];
        let idx = kind.series_index(id);
        if series.len() <= idx {
            series.resize(idx + 1, (0, f64::NAN));
        }
        if series[idx] == (id, value) {
            return;
        }
        series[idx] = (id, value);
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(ProbeSample {
            time,
            kind,
            id,
            value,
        });
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &ProbeSample> {
        self.samples.iter()
    }

    /// Retained samples of one series, oldest first.
    pub fn series(&self, kind: ProbeKind, id: u32) -> impl Iterator<Item = &ProbeSample> {
        self.samples
            .iter()
            .filter(move |s| s.kind == kind && s.id == id)
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if nothing was recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Heap bytes held by the buffer (ring plus change-detection state),
    /// for the engine's `bytes_per_node` accounting.
    pub fn memory_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<ProbeSample>()
            + self
                .last
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<(u32, f64)>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn unchanged_values_are_not_stored() {
        let mut b = ProbeBuffer::new(16);
        b.record(t(1), ProbeKind::Cwnd, 0, 1.0);
        b.record(t(2), ProbeKind::Cwnd, 0, 1.0);
        b.record(t(3), ProbeKind::Cwnd, 0, 2.0);
        b.record(t(4), ProbeKind::Cwnd, 0, 2.0);
        let vals: Vec<f64> = b.samples().map(|s| s.value).collect();
        assert_eq!(vals, vec![1.0, 2.0]);
    }

    #[test]
    fn series_are_independent() {
        let mut b = ProbeBuffer::new(16);
        b.record(t(1), ProbeKind::Cwnd, 0, 1.0);
        b.record(t(2), ProbeKind::Cwnd, 1, 1.0); // other flow: stored
        b.record(t(3), ProbeKind::IfqDepth, 0, 1.0); // other kind: stored
        assert_eq!(b.len(), 3);
        assert_eq!(b.series(ProbeKind::Cwnd, 0).count(), 1);
        assert_eq!(b.series(ProbeKind::Cwnd, 1).count(), 1);
    }

    /// Flow churn: 10 000 generations through 8 slots must not grow the
    /// change table past the slots, and every tenant's first sample is
    /// stored even though it repeats the previous tenant's last value.
    #[test]
    fn slot_reuse_keeps_the_table_dense_and_every_first_sample() {
        let mut b = ProbeBuffer::new(1 << 17);
        for generation in 0..10_000u32 {
            for slot in 0..8u32 {
                let id = FlowId::from_parts(slot, generation).raw();
                b.record(t(u64::from(generation)), ProbeKind::Cwnd, id, 1.0);
                b.record(t(u64::from(generation)), ProbeKind::Cwnd, id, 1.0);
            }
        }
        assert_eq!(b.len(), 80_000, "one sample per tenant, duplicates folded");
        assert_eq!(b.dropped(), 0);
        let table = b.memory_bytes() - b.samples.capacity() * std::mem::size_of::<ProbeSample>();
        assert!(
            table <= 64 * std::mem::size_of::<(u32, f64)>(),
            "change table grew to {table} bytes for 8 slots"
        );
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let mut b = ProbeBuffer::new(2);
        b.record(t(1), ProbeKind::Cwnd, 0, 1.0);
        b.record(t(2), ProbeKind::Cwnd, 0, 2.0);
        b.record(t(3), ProbeKind::Cwnd, 0, 3.0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 1);
        let vals: Vec<f64> = b.samples().map(|s| s.value).collect();
        assert_eq!(vals, vec![2.0, 3.0]);
    }

    #[test]
    fn json_is_compact_and_stable() {
        let s = ProbeSample {
            time: t(1_500_000_000),
            kind: ProbeKind::Cwnd,
            id: 0,
            value: 3.5,
        };
        assert_eq!(s.to_json(), r#"{"t":1.5,"kind":"cwnd","id":0,"v":3.5}"#);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        ProbeBuffer::new(0);
    }
}
