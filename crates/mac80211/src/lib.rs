//! IEEE 802.11 distributed coordination function (DCF) MAC layer.
//!
//! Implements the MAC the paper's simulations rely on: CSMA/CA with
//! physical and virtual (NAV) carrier sensing, DIFS/EIFS deference, binary
//! exponential backoff, the RTS/CTS/DATA/ACK exchange for unicast frames,
//! plain DATA for broadcast, a 50-packet drop-tail interface queue, and the
//! standard retry limits — 7 attempts for RTS, 4 for DATA — whose exhaustion
//! is reported upward and drives AODV's (false) route failures.
//!
//! Timing follows IEEE 802.11b DSSS: 20 µs slots, 10 µs SIFS, 50 µs DIFS,
//! long PLCP preamble, control frames at the 1 Mbit/s basic rate.
//!
//! The implementation is *sans-IO*: [`Dcf`] is a state machine that consumes
//! inputs (frames, carrier transitions, timer expirations) and returns
//! [`MacAction`]s. The composition layer (`mwn`) owns the event queue and
//! maps `SetTimer`/`StartTx` actions onto it, which keeps this crate
//! unit-testable with scripted inputs.

mod backoff;
mod counters;
mod dcf;
mod params;

pub use backoff::Backoff;
pub use counters::MacCounters;
pub use dcf::{Dcf, MacAction, MacDropReason, MacTimer};
pub use params::{
    LinkRedParams, MacParams, CW_MAX, LONG_RETRY_LIMIT, QUEUE_CAPACITY, SHORT_RETRY_LIMIT,
};
