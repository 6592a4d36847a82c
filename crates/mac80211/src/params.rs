//! MAC-layer timing and policy parameters.

use mwn_phy::{DataRate, PhyTiming};
use mwn_pkt::{sizes, MacFrame};
use mwn_sim::SimDuration;

/// Maximum contention window (1023), the same for the 802.11b DSSS and
/// 802.11g OFDM PHYs.
pub const CW_MAX: u32 = 1023;

/// Attempts for frames preceded by RTS before giving up (7). The paper:
/// "after seven unsuccessful transmissions for RTS control packets".
pub const SHORT_RETRY_LIMIT: u32 = 7;

/// Attempts for DATA frames before giving up (4).
pub const LONG_RETRY_LIMIT: u32 = 4;

/// Interface queue capacity in packets (paper §4.1: 50).
pub const QUEUE_CAPACITY: usize = 50;

/// IEEE 802.11 DCF parameters.
///
/// Defaults (via [`MacParams::ieee80211b`]) follow the 802.11b DSSS PHY
/// used by ns-2 and the paper.
///
/// # Example
///
/// ```
/// use mwn_mac80211::MacParams;
/// use mwn_phy::DataRate;
/// use mwn_sim::SimDuration;
///
/// let p = MacParams::ieee80211b(DataRate::MBPS_2);
/// assert_eq!(p.difs(), SimDuration::from_micros(50));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacParams {
    /// Slot time (20 µs for DSSS).
    pub slot: SimDuration,
    /// Short interframe space (10 µs).
    pub sifs: SimDuration,
    /// Minimum contention window (31); the window grows to [`CW_MAX`].
    pub cw_min: u32,
    /// PHY timing (PLCP overhead, basic rate).
    pub timing: PhyTiming,
    /// Rate for data frame bodies.
    pub data_rate: DataRate,
    /// Link-layer adaptive pacing in the spirit of Fu et al. (the paper's
    /// reference \[5\]): after every successful unicast exchange the sender
    /// extends its post-transmission backoff by roughly one data-frame
    /// transmission time, yielding the medium so downstream hops can
    /// drain. Off by default (the paper's own configuration).
    pub adaptive_pacing: bool,
    /// Link-layer RED in the spirit of Fu et al.: probabilistically drop
    /// head-of-line data packets when the average MAC retry count — a
    /// proxy for contention — runs high, signalling TCP before the
    /// retry limits do. `None` disables (the paper's configuration).
    pub link_red: Option<LinkRedParams>,
    /// Fault-injection hook for the invariant checker: when set, the DCF
    /// uses DIFS even when EIFS deference is required after a corrupted
    /// reception. Exists only so `mwn check` can demonstrate that the
    /// EIFS invariant catches the bug; never set in real experiments.
    #[cfg(any(test, feature = "oracle"))]
    pub fault_skip_eifs: bool,
    /// Fault-injection hook for the conservation audit: when set, the DCF
    /// silently discards the first data (non-AODV) packet it accepts —
    /// no `Dropped` action, no `TxConfirm` — planting a custody leak
    /// that the `conservation` rule must catch. Never set in real
    /// experiments.
    #[cfg(any(test, feature = "oracle"))]
    pub fault_leak_packet: bool,
}

/// Parameters of the link-layer RED extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRedParams {
    /// Average retry count below which nothing is dropped.
    pub min_th: f64,
    /// Average retry count at which the drop probability saturates.
    pub max_th: f64,
    /// Maximum drop probability.
    pub max_p: f64,
    /// EWMA weight for the retry-count average.
    pub weight: f64,
}

impl Default for LinkRedParams {
    fn default() -> Self {
        LinkRedParams {
            min_th: 1.0,
            max_th: 3.0,
            max_p: 0.05,
            weight: 0.05,
        }
    }
}

impl MacParams {
    /// IEEE 802.11g (OFDM, greenfield) parameters at the given data rate:
    /// 9 µs slots, 16 µs SIFS, 20 µs preamble, CWmin 15, control at the
    /// 6 Mbit/s basic rate. Used by the 802.11g extension study — the
    /// paper's introduction motivates exactly this "bandwidths higher
    /// than 2 Mbit/s" future.
    pub fn ieee80211g(data_rate: DataRate) -> Self {
        MacParams {
            slot: SimDuration::from_micros(9),
            sifs: SimDuration::from_micros(16),
            cw_min: 15,
            timing: PhyTiming::ieee80211g(),
            ..Self::ieee80211b(data_rate)
        }
    }

    /// Standard 802.11b parameters at the given data rate.
    pub fn ieee80211b(data_rate: DataRate) -> Self {
        MacParams {
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            cw_min: 31,
            timing: PhyTiming::ieee80211b(),
            data_rate,
            adaptive_pacing: false,
            link_red: None,
            #[cfg(any(test, feature = "oracle"))]
            fault_skip_eifs: false,
            #[cfg(any(test, feature = "oracle"))]
            fault_leak_packet: false,
        }
    }

    /// DCF interframe space: SIFS + 2 slots (50 µs for DSSS).
    pub fn difs(&self) -> SimDuration {
        self.sifs + self.slot * 2
    }

    /// Extended interframe space used after a corrupted reception:
    /// SIFS + ACK airtime at the basic rate + DIFS.
    pub fn eifs(&self) -> SimDuration {
        self.sifs + self.ack_airtime() + self.difs()
    }

    /// Airtime of a frame: control frames at the basic rate, data frames at
    /// the configured data rate, PLCP overhead always at 1 Mbit/s.
    pub fn airtime(&self, frame: &MacFrame) -> SimDuration {
        match frame {
            MacFrame::Rts { .. } | MacFrame::Cts { .. } | MacFrame::Ack { .. } => {
                self.timing.control_airtime(frame.size_bytes())
            }
            MacFrame::Data { .. } => self
                .timing
                .frame_airtime(frame.size_bytes(), self.data_rate),
        }
    }

    /// Airtime of an RTS frame.
    pub fn rts_airtime(&self) -> SimDuration {
        self.timing.control_airtime(sizes::RTS)
    }

    /// Airtime of a CTS frame.
    pub fn cts_airtime(&self) -> SimDuration {
        self.timing.control_airtime(sizes::CTS)
    }

    /// Airtime of a MAC ACK frame.
    pub fn ack_airtime(&self) -> SimDuration {
        self.timing.control_airtime(sizes::MAC_ACK)
    }

    /// Airtime of a data frame carrying `packet_bytes` of network payload.
    pub fn data_airtime(&self, packet_bytes: u32) -> SimDuration {
        self.timing
            .frame_airtime(sizes::MAC_DATA_OVERHEAD + packet_bytes, self.data_rate)
    }

    /// How long an RTS reserves the medium after the RTS itself ends:
    /// SIFS + CTS + SIFS + DATA + SIFS + ACK.
    pub fn rts_nav(&self, packet_bytes: u32) -> SimDuration {
        self.sifs * 3 + self.cts_airtime() + self.data_airtime(packet_bytes) + self.ack_airtime()
    }

    /// Time to wait for a CTS after our RTS ends before declaring the
    /// attempt failed.
    pub fn cts_timeout(&self) -> SimDuration {
        self.sifs + self.cts_airtime() + self.slot * 2
    }

    /// Time to wait for a MAC ACK after our DATA ends.
    pub fn ack_timeout(&self) -> SimDuration {
        self.sifs + self.ack_airtime() + self.slot * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsss_interframe_spaces() {
        let p = MacParams::ieee80211b(DataRate::MBPS_2);
        assert_eq!(p.difs(), SimDuration::from_micros(50));
        // EIFS = 10 + 304 + 50 = 364 us.
        assert_eq!(p.eifs(), SimDuration::from_micros(364));
    }

    #[test]
    fn airtimes_at_2mbps() {
        let p = MacParams::ieee80211b(DataRate::MBPS_2);
        assert_eq!(p.rts_airtime(), SimDuration::from_micros(352));
        assert_eq!(p.cts_airtime(), SimDuration::from_micros(304));
        assert_eq!(p.ack_airtime(), SimDuration::from_micros(304));
        // 1500-byte packet: 192 PLCP + 1528*8/2 = 6304 us.
        assert_eq!(p.data_airtime(1500), SimDuration::from_micros(6304));
    }

    #[test]
    fn control_rate_fixed_as_bandwidth_grows() {
        let p2 = MacParams::ieee80211b(DataRate::MBPS_2);
        let p11 = MacParams::ieee80211b(DataRate::MBPS_11);
        assert_eq!(p2.rts_airtime(), p11.rts_airtime());
        assert!(p11.data_airtime(1500) < p2.data_airtime(1500));
    }

    #[test]
    fn rts_nav_covers_whole_exchange() {
        let p = MacParams::ieee80211b(DataRate::MBPS_2);
        let nav = p.rts_nav(1500);
        assert_eq!(nav, SimDuration::from_micros(10 * 3 + 304 + 6304 + 304));
    }

    #[test]
    fn timeouts_cover_response_airtime() {
        let p = MacParams::ieee80211b(DataRate::MBPS_2);
        assert!(p.cts_timeout() > p.sifs + p.cts_airtime());
        assert!(p.ack_timeout() > p.sifs + p.ack_airtime());
    }
}

#[cfg(test)]
mod ofdm_tests {
    use super::*;

    #[test]
    fn ofdm_interframe_spaces() {
        let p = MacParams::ieee80211g(DataRate::MBPS_54);
        // DIFS = 16 + 2*9 = 34 us.
        assert_eq!(p.difs(), SimDuration::from_micros(34));
        assert!(p.eifs() > p.difs());
    }

    #[test]
    fn ofdm_frames_are_much_faster() {
        let b = MacParams::ieee80211b(DataRate::MBPS_11);
        let g = MacParams::ieee80211g(DataRate::MBPS_54);
        assert!(g.data_airtime(1500) < b.data_airtime(1500) / 3);
        assert!(g.rts_airtime() < b.rts_airtime() / 5);
    }
}
