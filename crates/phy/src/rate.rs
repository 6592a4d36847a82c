//! Data rates and frame airtime computation.

use std::fmt;

use mwn_sim::SimDuration;

/// A PHY data rate in bits per second.
///
/// # Example
///
/// ```
/// use mwn_phy::DataRate;
///
/// assert_eq!(DataRate::MBPS_2.bits_per_sec(), 2_000_000);
/// assert_eq!(format!("{}", DataRate::MBPS_5_5), "5.5Mbit/s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataRate(u64);

impl DataRate {
    /// 1 Mbit/s — the 802.11 basic rate used for PLCP and control frames.
    pub const MBPS_1: DataRate = DataRate(1_000_000);
    /// 2 Mbit/s (paper's baseline bandwidth).
    pub const MBPS_2: DataRate = DataRate(2_000_000);
    /// 5.5 Mbit/s (802.11b).
    pub const MBPS_5_5: DataRate = DataRate(5_500_000);
    /// 11 Mbit/s (802.11b).
    pub const MBPS_11: DataRate = DataRate(11_000_000);
    /// 24 Mbit/s (802.11g OFDM — the paper's intro motivates bandwidths
    /// beyond 802.11b).
    pub const MBPS_24: DataRate = DataRate(24_000_000);
    /// 54 Mbit/s (802.11g OFDM).
    pub const MBPS_54: DataRate = DataRate(54_000_000);

    /// Creates a rate from raw bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub fn from_bits_per_sec(bps: u64) -> Self {
        assert!(bps > 0, "data rate must be positive");
        DataRate(bps)
    }

    /// The rate in bits per second.
    pub fn bits_per_sec(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` at this rate (no PLCP overhead).
    pub fn serialize(self, bytes: u32) -> SimDuration {
        SimDuration::for_bits(u64::from(bytes) * 8, self.0)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mbps = self.0 as f64 / 1e6;
        if (mbps - mbps.round()).abs() < 1e-9 {
            write!(f, "{}Mbit/s", mbps.round() as u64)
        } else {
            write!(f, "{mbps}Mbit/s")
        }
    }
}

/// PHY timing parameters shared by every frame.
///
/// Per IEEE 802.11b with long preamble: the PLCP preamble and header take
/// 192 µs at 1 Mbit/s and precede every frame regardless of the payload
/// rate. This fixed overhead (plus control frames pinned at the basic rate)
/// is what makes goodput grow sub-linearly with bandwidth in the paper's
/// Figures 4 and 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhyTiming {
    /// PLCP preamble + header duration (sent at 1 Mbit/s).
    pub plcp_overhead: SimDuration,
    /// Rate for control frames (RTS/CTS/ACK): always 1 Mbit/s for
    /// compatibility across 802.11 versions (paper §4.3). Exposed so the
    /// `ablation-basic-rate` study (`mwn repro`) can override it.
    pub basic_rate: DataRate,
}

impl PhyTiming {
    /// IEEE 802.11b long-preamble timing.
    pub fn ieee80211b() -> Self {
        PhyTiming {
            plcp_overhead: SimDuration::from_micros(192),
            basic_rate: DataRate::MBPS_1,
        }
    }

    /// IEEE 802.11g OFDM timing: 20 µs preamble + signal field, control
    /// frames at the 6 Mbit/s OFDM basic rate.
    pub fn ieee80211g() -> Self {
        PhyTiming {
            plcp_overhead: SimDuration::from_micros(20),
            basic_rate: DataRate::from_bits_per_sec(6_000_000),
        }
    }

    /// Airtime of a `bytes`-long frame whose body is sent at `rate`.
    pub fn frame_airtime(&self, bytes: u32, rate: DataRate) -> SimDuration {
        self.plcp_overhead + rate.serialize(bytes)
    }

    /// Airtime of a control frame (sent at the basic rate).
    pub fn control_airtime(&self, bytes: u32) -> SimDuration {
        self.frame_airtime(bytes, self.basic_rate)
    }
}

impl Default for PhyTiming {
    fn default() -> Self {
        Self::ieee80211b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_times() {
        // 1528 bytes at 2 Mbit/s = 6112 us
        assert_eq!(
            DataRate::MBPS_2.serialize(1528),
            SimDuration::from_micros(6112)
        );
        // at 11 Mbit/s = 12224/11 us, rounded up
        assert_eq!(DataRate::MBPS_11.serialize(1528).as_nanos(), 1_111_273);
    }

    #[test]
    fn control_frames_use_basic_rate() {
        let t = PhyTiming::ieee80211b();
        // RTS: 192us PLCP + 160 bits at 1 Mbit/s = 352 us.
        assert_eq!(t.control_airtime(20), SimDuration::from_micros(352));
        // CTS/ACK: 192 + 112 = 304 us.
        assert_eq!(t.control_airtime(14), SimDuration::from_micros(304));
    }

    #[test]
    fn data_frame_airtime_at_2mbps() {
        let t = PhyTiming::ieee80211b();
        // 192us PLCP + 6112us body = 6304us.
        assert_eq!(
            t.frame_airtime(1528, DataRate::MBPS_2),
            SimDuration::from_micros(6304)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", DataRate::MBPS_2), "2Mbit/s");
        assert_eq!(format!("{}", DataRate::MBPS_5_5), "5.5Mbit/s");
        assert_eq!(format!("{}", DataRate::MBPS_11), "11Mbit/s");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        DataRate::from_bits_per_sec(0);
    }
}
