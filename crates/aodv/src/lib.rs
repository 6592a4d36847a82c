//! Ad hoc On-Demand Distance Vector (AODV) routing.
//!
//! Implements the RFC 3561 subset that ns-2's AODV agent uses for *static*
//! networks (no HELLO messages — link failures are detected through MAC
//! feedback, exactly as the paper describes):
//!
//! * on-demand route discovery with network-wide RREQ floods, duplicate
//!   suppression, reverse-route setup and binary-exponential retry;
//! * RREP generation by the destination or by intermediate nodes with a
//!   fresh-enough route;
//! * RERR propagation when a next hop is declared unreachable;
//! * packet buffering while discovery is in progress;
//! * **expanding-ring search** (RFC 3561 §6.4, off by default): TTL-staged
//!   RREQ rings with gratuitous-RREP route caching, so city-scale
//!   discoveries stop flooding every node per connection — see
//!   [`AodvConfig::city`];
//! * **false route failure accounting**: when the 802.11 MAC gives up on a
//!   frame after its retry limit, the routing layer declares the link broken
//!   and tears the route down. In a static network every such event is
//!   spurious — the paper's Figure 9 counts them.
//!
//! Like the other protocol crates, this one is sans-IO: [`Router`] consumes
//! inputs and returns [`AodvAction`]s; the composition layer owns timers and
//! the MAC.

mod config;
mod router;
mod table;

pub use config::{
    AodvConfig, ACTIVE_ROUTE_LIFETIME, BROADCAST_JITTER, BUFFER_CAPACITY, RREQ_WAIT, TTL_INCREMENT,
    TTL_START, TTL_THRESHOLD,
};
pub use router::{AodvAction, AodvCounters, AodvDropReason, Router, MIN_JITTER};
pub use table::{Route, RoutingTable};
