//! Full-stack simulator and study harness for *Improving TCP Performance
//! for Multihop Wireless Networks* (ElRakabawy, Lindemann & Vernon,
//! DSN 2005).
//!
//! This crate composes the workspace's substrate crates — discrete-event
//! engine ([`mwn_sim`]), range-based PHY ([`mwn_phy`]), IEEE 802.11 DCF MAC
//! ([`mwn_mac80211`]), AODV routing ([`mwn_aodv`]) and packet-granularity
//! transport ([`mwn_tcp`]) — into runnable network scenarios, and provides
//! the batch-means experiment harness that regenerates every figure and
//! table of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use mwn::{ExperimentScale, Scenario, Transport, topology};
//! use mwn_phy::DataRate;
//!
//! // A 3-hop chain with one TCP Vegas (α = 2) flow at 2 Mbit/s.
//! let scenario = Scenario::chain(3, DataRate::MBPS_2, Transport::vegas(2), 1);
//! let results = mwn::experiment::run(&scenario, ExperimentScale::smoke());
//! assert!(results.aggregate_goodput_kbps.mean > 0.0);
//! ```
//!
//! # Structure
//!
//! * [`topology`] — chain / grid / random node placements (paper Figures 1
//!   and 15, Section 4.4.2);
//! * [`Scenario`] — a topology plus flows, bandwidth and seed;
//! * [`Network`] — the event loop gluing all protocol layers together;
//! * [`experiment`] — steady-state batch-means runner (Section 4.1);
//! * [`experiments`] — one entry point per paper figure/table.

pub mod experiment;
pub mod experiments;
pub mod jobs;
pub mod mobility;
mod network;
mod scenario;
pub mod topology;
pub mod trace;

pub use experiment::{ExperimentScale, FlowResult, ObsConfig, RunOutcome, RunResults};
pub use network::{Network, NetworkTotals, StepOutcome};
pub use scenario::{FlowSpec, Scenario, TrafficSpec, Transport};

// Re-export the open-loop workload vocabulary so callers can describe
// traffic without naming the `mwn-traffic` crate.
pub use mwn_obs::{ClassFct, FctSummary};
pub use mwn_traffic::{Arrival, Diurnal, SizeDist, TrafficClass, TrafficModel};

// Re-export the observability layer's vocabulary so downstream users
// (runner, CLI) see one coherent API.
pub use mwn_obs::{
    BatchMetrics, MetricsReport, MetricsSnapshot, ProbeKind, ProbeSample, TraceEvent,
};
pub use mwn_sim::EngineProfile;

// Re-export the pieces users need to build scenarios.
pub use mwn_aodv::{AodvConfig, ACTIVE_ROUTE_LIFETIME};
pub use mwn_mac80211::MacParams;
pub use mwn_phy::{DataRate, Position, RangeModel};
pub use mwn_pkt::{FlowId, NodeId};
pub use mwn_sim::stats::Estimate;
pub use mwn_sim::{SimDuration, SimTime};
pub use mwn_tcp::{AckPolicy, Flavor, TcpConfig};
