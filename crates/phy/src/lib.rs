//! Wireless physical layer for the multihop 802.11 simulator.
//!
//! Models the paper's radio configuration: a transmission range of 250 m and
//! a carrier-sensing / interference range of 550 m (ns-2's two-ray-ground
//! setup degenerates to exactly these three radii), data rates of 2, 5.5 and
//! 11 Mbit/s with PLCP preamble and all control frames at the 1 Mbit/s basic
//! rate, and a per-node transceiver state machine that decides which
//! overlapping transmissions collide.
//!
//! The crate is *sans-IO*: [`Medium`] answers the static question "who hears
//! a transmission from node X, and how", and [`RadioTable`] (every node's
//! radio; a [`Transceiver`] is a table of one) consumes
//! signal-start/-end notifications in time order and emits radio events
//! (carrier busy/idle, reception start/end). The event scheduling itself
//! lives in the `mwn` composition crate.

mod counters;
mod energy;
mod grid;
mod medium;
mod position;
mod radio;
mod rate;
mod transceiver;

pub use counters::{MediumCounters, PhyCounters};
pub use energy::{EnergyMeter, EnergyParams};
pub use grid::{CellTable, SpatialGrid};
#[cfg(any(test, feature = "oracle"))]
pub use medium::ReferenceMedium;
pub use medium::{Effect, Medium, RangeModel, SignalClass};
pub use position::Position;
pub use radio::RadioTable;
pub use rate::{DataRate, PhyTiming};
#[cfg(any(test, feature = "oracle"))]
pub use transceiver::ReferenceTransceiver;
pub use transceiver::{RadioEvent, Transceiver, TxId};
