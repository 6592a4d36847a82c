//! `mwn-obs` — the observability layer of the multihop-wireless TCP study.
//!
//! The paper's evaluation hinges on *internal* protocol signals: the
//! congestion-window evolution of Figures 3–4, the link-layer dropping
//! probability of Figure 14, per-flow goodput fairness. This crate gives
//! every layer of the simulator one way to expose those signals, with
//! zero cost when disabled:
//!
//! * [`metrics`] — typed counter blocks ([`CounterBlock`]) unifying the
//!   PHY, MAC, AODV and TCP statistics structs, a [`MetricsRegistry`]
//!   that differences them per node and flow slot at batch boundaries,
//!   and the bounded-reservoir [`Quantiles`] estimator;
//! * [`fct`] — streaming per-class flow-completion summaries (p50/p95/p99
//!   FCT and goodput) for open-loop traffic, no per-event retention;
//! * [`mod@drop`] — the cross-layer [`DropReason`] loss taxonomy, the always-on
//!   [`DropLedger`] (drops per reason × node × class), and the opt-in
//!   [`ConservationAudit`] proving `created = destroyed + residual` per
//!   node and per flow;
//! * [`flight`] — an always-on [`FlightRecorder`] ring of 24-byte records
//!   of the rare events, dumped when an invariant trips or a run panics;
//! * [`trace`] — a [`TraceEvent`] enum replacing pre-formatted strings,
//!   recorded into a bounded ring buffer and exportable as JSONL;
//! * [`probe`] — on-change time-series sampling of cwnd, srtt, the Vegas
//!   `diff` signal and interface-queue depth;
//! * [`text`] — the one text rendering of a [`MetricsReport`];
//! * [`json`] — the hand-rolled, byte-deterministic JSON emitter shared
//!   with the results store (no serde: the workspace builds offline).
//!
//! # Example
//!
//! ```
//! use mwn_obs::metrics::{MetricsRegistry, MetricsSnapshot};
//! use mwn_sim::SimTime;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.begin(MetricsSnapshot::empty(SimTime::ZERO));
//! let batch = reg.end_batch(MetricsSnapshot::empty(SimTime::from_nanos(1_000)));
//! assert_eq!(batch.end, SimTime::from_nanos(1_000));
//! ```

pub mod drop;
pub mod fct;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod text;
pub mod trace;

pub use drop::{ConservationAudit, ConservationReport, Custody, DropLedger, DropReason, Imbalance};
pub use fct::{ClassFct, FctSummary};
pub use flight::{FlightKind, FlightRecord, FlightRecorder};
pub use metrics::{
    BatchMetrics, CounterBlock, FlowCounters, MetricsRegistry, MetricsReport, MetricsSnapshot,
    NodeCounters, Quantiles,
};
pub use probe::{ProbeBuffer, ProbeKind, ProbeSample};
pub use trace::{TraceBuffer, TraceEvent, TraceLayer, TraceRecord};
