//! AODV protocol parameters.

use mwn_sim::SimDuration;

/// How long an unused route stays valid; refreshed every time the route
/// forwards a packet.
pub const ACTIVE_ROUTE_LIFETIME: SimDuration = SimDuration::from_secs(10);

/// Base time to wait for an RREP after originating an RREQ; each
/// network-wide attempt after the first doubles it (binary backoff).
pub const RREQ_WAIT: SimDuration = SimDuration::from_secs(1);

/// Maximum random delay applied to every broadcast transmission to
/// de-synchronise flooded RREQs/RERRs.
pub const BROADCAST_JITTER: SimDuration = SimDuration::from_millis(10);

/// Maximum packets buffered per destination while discovery runs.
pub const BUFFER_CAPACITY: usize = 64;

/// First ring radius (RREQ TTL of discovery attempt 1) under
/// expanding-ring search (TTL_START, RFC 3561 §6.4).
pub const TTL_START: u8 = 1;

/// Ring growth per retry (TTL_INCREMENT, RFC 3561 §6.4).
pub const TTL_INCREMENT: u8 = 2;

/// Largest staged ring; the next attempt jumps straight to a
/// network-wide TTL (TTL_THRESHOLD, RFC 3561 §6.4).
pub const TTL_THRESHOLD: u8 = 7;

// A jittered RREQ goes out well inside its own wait, and a route
// outlives a discovery round.
const _: () = assert!(RREQ_WAIT.as_nanos() > BROADCAST_JITTER.as_nanos());
const _: () = assert!(ACTIVE_ROUTE_LIFETIME.as_nanos() > RREQ_WAIT.as_nanos());
// The rings are well formed: the first ring is staged, and each retry
// widens the search.
const _: () = assert!(TTL_START >= 1 && TTL_START <= TTL_THRESHOLD);
const _: () = assert!(TTL_INCREMENT >= 1);

/// The AODV parameters an experiment varies; every other parameter is a
/// constant of this module.
///
/// The default follows ns-2's AODV agent as used in the paper's era,
/// scaled for static multihop networks (no HELLO messages; link failures
/// come from MAC feedback). Intermediate nodes with a fresh-enough route
/// always answer an RREQ themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AodvConfig {
    /// Expanding-ring RREQ search (RFC 3561 §6.4): stage discovery TTLs
    /// from [`TTL_START`] upward instead of flooding the whole network on
    /// the first attempt, and let intermediate repliers send gratuitous
    /// RREPs (§6.6.3) so the destination caches the route back to the
    /// originator. Off by default — the paper's configuration floods —
    /// and enabled by the city-scale presets ([`AodvConfig::city`]).
    pub expanding_ring: bool,
    /// Explicit link failure notification (extension; Holland & Vaidya):
    /// when a route is invalidated, notify local transport senders whose
    /// destination just became unreachable so they freeze instead of
    /// backing off. Off by default (the paper's configuration).
    pub elfn: bool,
    /// Fault-injection hook for the conservation audit: when set, the
    /// first buffered packet flushed after route discovery is handed to
    /// the MAC *twice* — a custody double-free/duplication the
    /// `conservation` rule must catch. Never set in real experiments.
    #[cfg(any(test, feature = "oracle"))]
    pub fault_double_flush: bool,
    /// Fault-injection hook for the expanding-ring TTL path: data
    /// packets are originated with the first-ring TTL, and a forwarder
    /// whose TTL check fires swallows the packet *silently* instead of
    /// emitting the `TtlExpired` drop — the classic mishandled-TTL bug.
    /// The custody audit (`mwn check`'s `conservation` rule) must catch
    /// the unaccounted copy. Never set in real experiments.
    #[cfg(any(test, feature = "oracle"))]
    pub fault_ttl_mishandle: bool,
}

impl AodvConfig {
    /// The city-scale discovery configuration: expanding-ring search
    /// with the RFC 3561 §6.4 staging constants and enough retries that
    /// an escalating discovery still reaches a network-wide flood twice
    /// (rings 1, 3, 5, 7, then two full-TTL attempts). Used by the
    /// `metro` scenario preset and the `random5k`/`random20k`/`random50k`
    /// bench scenarios; canonical paper scenarios keep the flooding
    /// default so their golden digests are untouched.
    pub fn city() -> Self {
        AodvConfig {
            expanding_ring: true,
            ..AodvConfig::default()
        }
    }

    /// RREQ retries after the first attempt before giving up on a
    /// destination: two when flooding, five under expanding-ring search
    /// (six attempts: the four staged rings, then two network-wide
    /// floods).
    pub(crate) fn rreq_retries(&self) -> u32 {
        if self.expanding_ring {
            5
        } else {
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        // Canonical scenarios flood: the ring search stays dormant. The
        // relations between the timing and ring constants are checked at
        // compile time beside them.
        let c = AodvConfig::default();
        assert!(!c.expanding_ring);
        assert!(!c.fault_ttl_mishandle);
        assert_eq!(c.rreq_retries(), 2);
    }

    #[test]
    fn city_preset_stages_rings() {
        let c = AodvConfig::city();
        assert!(c.expanding_ring);
        assert_eq!(c.rreq_retries(), 5);
        // Everything else inherits the paper defaults.
        assert_eq!(
            c,
            AodvConfig {
                expanding_ring: true,
                ..AodvConfig::default()
            }
        );
        assert!(!c.fault_double_flush && !c.fault_ttl_mishandle);
    }
}
