//! Transport configuration.

use mwn_sim::SimDuration;

/// Initial window used in slow start and after a timeout (Table 1: 1).
pub const WINIT: u32 = 1;

/// Coarse timer granularity (ns-2 `tcpTick_`).
pub const TICK: SimDuration = SimDuration::from_millis(100);

/// Lower bound on the retransmission timeout.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// RTO used before the first RTT sample.
pub const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

/// Upper bound on the (backed-off) retransmission timeout.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(64);

/// Interval between ELFN probes while a route-failure notice has the
/// sender frozen (extension; Holland & Vaidya use seconds-scale probing).
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// The TCP parameters an experiment varies (paper Table 1); the rest are
/// constants of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Maximum window advertised by the receiver (Table 1: 64 packets).
    pub wmax: u32,
    /// Vegas throughput threshold α in packets (Table 1: 2). The paper
    /// sets the upper threshold β = α for fairness and the slow-start
    /// exit threshold γ = α, so α is all three.
    pub alpha: u32,
    /// Fault-injection hook for the invariant checker: when set, the
    /// sender's window-growth paths clamp `cwnd` to `4 × wmax` instead of
    /// `wmax`, so slow start overshoots the receiver's advertised window.
    /// Exists only so `mwn check` can demonstrate that the cwnd-bound
    /// invariant catches the bug; never set in real experiments.
    #[cfg(any(test, feature = "oracle"))]
    pub fault_cwnd_overshoot: bool,
}

impl TcpConfig {
    /// The paper's base parameter setting with Vegas `α = β = γ`.
    pub fn paper(alpha: u32) -> Self {
        TcpConfig {
            wmax: 64,
            alpha,
            #[cfg(any(test, feature = "oracle"))]
            fault_cwnd_overshoot: false,
        }
    }

    /// The paper's setting with an artificially bounded window
    /// ("NewReno with optimal window", Fu et al.'s `MaxWin`).
    pub fn with_max_window(mut self, wmax: u32) -> Self {
        self.wmax = wmax;
        self
    }
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self::paper(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = TcpConfig::default();
        assert_eq!((c.wmax, c.alpha), (64, 2));
        assert!(!c.fault_cwnd_overshoot);
    }

    #[test]
    fn optimal_window_variant() {
        let c = TcpConfig::paper(2).with_max_window(3);
        assert_eq!(c.wmax, 3);
    }
}
