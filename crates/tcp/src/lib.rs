//! Packet-granularity transport protocols, in the style of ns-2's agents
//! (and therefore of the paper): TCP sequence numbers count MSS-sized
//! packets, the congestion window is measured in packets, and connections
//! need no handshake.
//!
//! Provided agents:
//!
//! * [`TcpSender`] running either [`Flavor::NewReno`] (reactive,
//!   loss-driven congestion control with fast retransmit/recovery and
//!   partial-ACK handling) or [`Flavor::Vegas`] (proactive, delay-driven
//!   congestion control with `α = β` thresholds, `γ` slow-start exit and
//!   fine-grained retransmission checks) feeding from an unbounded FTP
//!   backlog;
//! * [`TcpSink`] with per-packet ACKs or the dynamic ACK-thinning policy of
//!   Altman & Jiménez (`d` growing 1→4 at sequence thresholds 2/5/9, with a
//!   100 ms flush timeout);
//! * [`PacedUdpSource`]/[`UdpSink`] — the paper's optimally paced UDP
//!   reference transport.
//!
//! All agents are sans-IO: they consume ACKs/segments/timer expirations and
//! return [`TransportAction`]s for the host to apply.

mod config;
mod paced_udp;
mod rto;
mod sender;
mod sink;
pub mod vegas_model;

pub use config::{TcpConfig, INITIAL_RTO, MAX_RTO, MIN_RTO, PROBE_INTERVAL, TICK, WINIT};
pub use paced_udp::{PacedUdpSource, UdpSink};
pub use rto::RtoEstimator;
pub use sender::{Flavor, TcpSender, TcpSenderStats};
pub use sink::{AckPolicy, TcpSink, TcpSinkStats};

use mwn_pkt::Packet;
use mwn_sim::SimDuration;

/// Timers a transport agent may arm. Each `(flow, timer)` pair has at most
/// one outstanding instance; `SetTimer` replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportTimer {
    /// Sender retransmission timeout.
    Rtx,
    /// Receiver delayed-ACK flush (ACK thinning).
    DelayedAck,
    /// Paced-UDP inter-packet gap.
    Pace,
    /// ELFN probe while the route is down (extension; Holland & Vaidya).
    Probe,
}

impl TransportTimer {
    /// Number of timer kinds; hosts can keep per-flow timer state in a
    /// flat `[_; TransportTimer::COUNT]` array instead of a hash map.
    pub const COUNT: usize = 4;

    /// Dense index of this timer kind, in `0..Self::COUNT`.
    pub fn index(self) -> usize {
        match self {
            TransportTimer::Rtx => 0,
            TransportTimer::DelayedAck => 1,
            TransportTimer::Pace => 2,
            TransportTimer::Probe => 3,
        }
    }
}

/// Effects requested by a transport agent.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportAction {
    /// Hand a packet to the routing layer.
    SendPacket(Packet),
    /// Arm (or re-arm) a timer.
    SetTimer {
        /// Which timer.
        timer: TransportTimer,
        /// Delay from now.
        delay: SimDuration,
    },
    /// Cancel a timer if armed.
    CancelTimer(TransportTimer),
}
