//! Shared packet model for the multihop-wireless-network simulator.
//!
//! Defines the identifiers, network-layer packets and link-layer frames that
//! flow between the PHY (`mwn-phy`), MAC (`mwn-mac80211`), routing
//! (`mwn-aodv`) and transport (`mwn-tcp`) crates, together with the exact
//! wire sizes used to compute frame airtimes, and [`NodeMap`], the
//! per-node map the MAC and routing tables are keyed by.
//!
//! The transport layer is *packet-granularity*, exactly like ns-2's TCP
//! agents (and therefore like the paper): a TCP sequence number counts
//! MSS-sized packets, not bytes, and the congestion window is measured in
//! packets.
//!
//! # Example
//!
//! ```
//! use mwn_pkt::{Body, NodeId, Packet, TcpSegment, FlowId, sizes};
//!
//! let seg = TcpSegment::data(FlowId(0), 5);
//! let pkt = Packet::new(7, NodeId(0), NodeId(3), Body::Tcp(seg));
//! // 20 (IP) + 20 (TCP) + 1460 (payload)
//! assert_eq!(pkt.size_bytes(), sizes::IP_HEADER + sizes::TCP_HEADER + sizes::TCP_PAYLOAD);
//! ```

mod aodv;
mod ids;
mod mac;
mod nodemap;
mod packet;
pub mod sizes;
mod tcp;
mod udp;

pub use aodv::AodvMessage;
pub use ids::{FlowId, NodeId};
pub use mac::{MacFrame, MacFrameKind};
pub use nodemap::NodeMap;
pub use packet::{Body, Packet};
pub use tcp::TcpSegment;
pub use udp::UdpDatagram;
