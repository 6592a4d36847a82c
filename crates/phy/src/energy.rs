//! Per-node radio energy accounting.
//!
//! The paper argues that TCP Vegas' reduced retransmission count "directly
//! translates in a reduction of power consumption". This module quantifies
//! that claim: the composition layer reports transmit/receive airtime here
//! and the meter integrates power over time.

use mwn_sim::{SimDuration, SimTime};

/// Radio power draw in each state, in watts.
///
/// Defaults are typical IEEE 802.11b WaveLAN card figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Power while transmitting.
    pub tx_watts: f64,
    /// Power while receiving or overhearing.
    pub rx_watts: f64,
    /// Power while idle.
    pub idle_watts: f64,
}

impl EnergyParams {
    /// Typical 802.11b card: 1.4 W transmit, 0.9 W receive, 0.74 W idle.
    pub fn wavelan() -> Self {
        EnergyParams {
            tx_watts: 1.4,
            rx_watts: 0.9,
            idle_watts: 0.74,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::wavelan()
    }
}

/// Accumulates radio airtime for one node and converts it to joules.
///
/// The meter holds only the node's two airtimes; the power draw is one
/// [`EnergyParams`] for the whole network, passed to
/// [`EnergyMeter::consumed`].
///
/// # Example
///
/// ```
/// use mwn_phy::{EnergyMeter, EnergyParams};
/// use mwn_sim::{SimDuration, SimTime};
///
/// let mut m = EnergyMeter::new();
/// m.add_tx(SimDuration::from_secs(1));
/// m.add_rx(SimDuration::from_secs(2));
/// let joules = m.consumed(&EnergyParams::wavelan(), SimTime::ZERO + SimDuration::from_secs(10));
/// // 1s tx + 2s rx + 7s idle
/// assert!((joules - (1.4 + 2.0 * 0.9 + 7.0 * 0.74)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    tx_time: SimDuration,
    rx_time: SimDuration,
}

impl EnergyMeter {
    /// Creates a meter with no airtime recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records transmit airtime.
    pub fn add_tx(&mut self, d: SimDuration) {
        self.tx_time += d;
    }

    /// Records receive/overhear airtime.
    pub fn add_rx(&mut self, d: SimDuration) {
        self.rx_time += d;
    }

    /// Total transmit airtime so far.
    pub fn tx_time(&self) -> SimDuration {
        self.tx_time
    }

    /// Total receive airtime so far.
    pub fn rx_time(&self) -> SimDuration {
        self.rx_time
    }

    /// Total energy consumed (joules) by time `now` at power draw
    /// `params`, counting all non-tx/rx time as idle.
    ///
    /// If recorded airtime exceeds `now` (overlapping receive intervals),
    /// idle time is clamped to zero rather than going negative.
    pub fn consumed(&self, params: &EnergyParams, now: SimTime) -> f64 {
        let total = now.saturating_duration_since(SimTime::ZERO);
        let busy = self.tx_time + self.rx_time;
        let idle = total.saturating_sub(busy);
        self.tx_time.as_secs_f64() * params.tx_watts
            + self.rx_time.as_secs_f64() * params.rx_watts
            + idle.as_secs_f64() * params.idle_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_only_node_draws_idle_power() {
        let m = EnergyMeter::new();
        let j = m.consumed(
            &EnergyParams::wavelan(),
            SimTime::ZERO + SimDuration::from_secs(100),
        );
        assert!((j - 74.0).abs() < 1e-9);
    }

    #[test]
    fn idle_clamped_when_airtime_overlaps() {
        let mut m = EnergyMeter::new();
        m.add_rx(SimDuration::from_secs(10)); // more than elapsed
        let j = m.consumed(
            &EnergyParams::wavelan(),
            SimTime::ZERO + SimDuration::from_secs(5),
        );
        assert!((j - 9.0).abs() < 1e-9); // 10s rx, no negative idle
    }

    #[test]
    fn accumulates() {
        let mut m = EnergyMeter::new();
        m.add_tx(SimDuration::from_millis(500));
        m.add_tx(SimDuration::from_millis(500));
        assert_eq!(m.tx_time(), SimDuration::from_secs(1));
        assert_eq!(m.rx_time(), SimDuration::ZERO);
    }
}
