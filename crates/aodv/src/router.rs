//! The AODV router state machine.

use std::collections::VecDeque;

use mwn_pkt::{AodvMessage, Body, NodeId, NodeMap, Packet};
use mwn_sim::{Pcg32, SimDuration, SimTime};

use crate::config::{
    AodvConfig, ACTIVE_ROUTE_LIFETIME, BROADCAST_JITTER, BUFFER_CAPACITY, RREQ_WAIT, TTL_INCREMENT,
    TTL_START, TTL_THRESHOLD,
};
use crate::table::RoutingTable;

/// Floor on every non-zero broadcast-jitter draw. This is the *only*
/// sub-SIFS delay any protocol cascade can request, so flooring it gives
/// the network loop's wave walk a hard lookahead: every event a cascade
/// schedules lands at least `min(SIFS, MIN_JITTER)` after the cascade's
/// own timestamp — past the ≤ 1.83 µs propagation skew a wave spans, so
/// one queue peek covers a whole walk. 16 µs sits five orders of
/// magnitude below the default 10 ms jitter window, so route-discovery
/// de-synchronisation is unaffected.
pub const MIN_JITTER: SimDuration = SimDuration::from_micros(16);

/// The first discovery attempt that floods at the network-wide TTL under
/// expanding-ring search (attempts before it walk the rings 1, 3, 5, 7).
const FIRST_FULL_TTL_ATTEMPT: u32 = ((TTL_THRESHOLD - TTL_START) / TTL_INCREMENT) as u32 + 2;

/// Why the router dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AodvDropReason {
    /// Route discovery failed (or an intermediate node lost the route).
    NoRoute,
    /// The per-destination discovery buffer was full.
    BufferFull,
    /// The IP TTL expired.
    TtlExpired,
    /// The link layer gave up on the packet (retry limit).
    LinkFailure,
}

/// Effects requested by the router; the host must apply all, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum AodvAction {
    /// Hand a packet to the MAC for `next_hop` (possibly broadcast), after
    /// an optional delay (broadcast jitter).
    Send {
        /// The packet to transmit.
        packet: Packet,
        /// Next hop or [`NodeId::BROADCAST`].
        next_hop: NodeId,
        /// Delay before handing to the MAC (used to jitter broadcasts).
        delay: SimDuration,
    },
    /// The packet reached its destination: hand to the transport layer.
    Deliver(Packet),
    /// Arm the route-discovery retry timer for `dst` (replaces any
    /// previous timer for the same destination).
    SetDiscoveryTimer {
        /// Destination being discovered.
        dst: NodeId,
        /// Delay from now.
        delay: SimDuration,
    },
    /// Cancel the discovery timer for `dst`.
    CancelDiscoveryTimer {
        /// Destination whose timer to cancel.
        dst: NodeId,
    },
    /// A packet was dropped.
    Drop {
        /// The packet.
        packet: Packet,
        /// Why.
        reason: AodvDropReason,
    },
    /// ELFN (extension): the route to `dst` was just invalidated; local
    /// transport senders targeting `dst` should freeze. Emitted only when
    /// [`crate::AodvConfig::elfn`] is set.
    NotifyRouteFailure {
        /// The destination that became unreachable.
        dst: NodeId,
    },
    /// Informational: a sequence-numbered route was installed or improved
    /// (reverse route from an RREQ, forward route from an RREP). Hosts
    /// may trace it; no state change is requested.
    RouteInstalled {
        /// Route destination.
        dst: NodeId,
        /// Neighbor the route forwards through.
        next_hop: NodeId,
        /// Hops to the destination.
        hop_count: u8,
        /// Destination sequence number the route carries.
        dst_seq: u32,
    },
    /// Informational: a route was invalidated (link failure or RERR) and
    /// its destination sequence number bumped to `dst_seq`.
    RouteLost {
        /// Route destination.
        dst: NodeId,
        /// The sequence number after the invalidation bump.
        dst_seq: u32,
    },
}

/// Routing-layer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AodvCounters {
    /// Link-layer transmission failures reported by the MAC. In a static
    /// network every one of these is a *false* route failure (Figure 9).
    pub false_route_failures: u64,
    /// RREQ floods originated (including retries).
    pub rreqs_originated: u64,
    /// RREQs rebroadcast for other nodes.
    pub rreqs_forwarded: u64,
    /// RREPs generated (as destination or intermediate).
    pub rreps_generated: u64,
    /// RERRs broadcast.
    pub rerrs_sent: u64,
    /// Data packets dropped because discovery failed.
    pub no_route_drops: u64,
    /// Data packets dropped because the link layer gave up on them.
    pub link_failure_drops: u64,
    /// RREQ rebroadcasts suppressed because the ring TTL ran out — the
    /// nodes an expanding-ring search (RFC 3561 §6.4) spared from the
    /// flood. Zero under the default full-TTL flooding configuration.
    pub rreq_rebroadcasts_suppressed: u64,
    /// Gratuitous RREPs (RFC 3561 §6.6.3) sent toward the flow
    /// destination by intermediate repliers, so it caches the route back
    /// to the originator. Only emitted with expanding-ring enabled.
    pub gratuitous_rreps: u64,
}

#[derive(Debug, Clone)]
struct Discovery {
    attempts: u32,
    buffered: VecDeque<Packet>,
}

/// The AODV routing agent for one node.
///
/// Inputs:
///
/// * [`Router::send`] — the local transport layer originates a packet;
/// * [`Router::on_received`] — the MAC delivered a packet from a neighbor;
/// * [`Router::on_tx_confirm`] — MAC feedback for a unicast transmission
///   (failures tear routes down);
/// * [`Router::on_discovery_timeout`] — a previously requested discovery
///   timer fired.
#[derive(Debug, Clone)]
pub struct Router {
    me: NodeId,
    config: AodvConfig,
    rng: Pcg32,
    table: RoutingTable,
    /// Own destination sequence number.
    seq: u32,
    /// Next RREQ id.
    next_rreq_id: u32,
    /// Highest RREQ id seen per originator (ids increase monotonically, so
    /// this suffices for duplicate suppression). Flat sorted map: at city
    /// scale the per-router hash maps dominated the footprint.
    seen_rreqs: NodeMap<u32>,
    pending: NodeMap<Discovery>,
    next_uid: u64,
    counters: AodvCounters,
    /// `true` once the `fault_double_flush` hook has fired.
    #[cfg(any(test, feature = "oracle"))]
    fault_flushed: bool,
}

impl Router {
    /// Creates a router for node `me`. `uid_base` namespaces the uids of
    /// packets this router originates (AODV control messages).
    pub fn new(me: NodeId, config: AodvConfig, rng: Pcg32, uid_base: u64) -> Self {
        Router {
            me,
            config,
            rng,
            table: RoutingTable::new(),
            seq: 0,
            // Ids start at 1: `seen_rreqs` uses 0 as "none seen yet".
            next_rreq_id: 1,
            seen_rreqs: NodeMap::new(),
            pending: NodeMap::new(),
            next_uid: uid_base,
            counters: AodvCounters::default(),
            #[cfg(any(test, feature = "oracle"))]
            fault_flushed: false,
        }
    }

    /// Routing statistics so far.
    pub fn counters(&self) -> &AodvCounters {
        &self.counters
    }

    /// Read access to the routing table (for tests and inspection).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Packets buffered while route discoveries run, for residual custody
    /// enumeration by the conservation audit.
    pub fn buffered_packets(&self) -> impl Iterator<Item = &Packet> {
        self.pending.values().flat_map(|d| d.buffered.iter())
    }

    /// Approximate heap bytes held by this router's per-destination state
    /// (routing table, RREQ duplicate-suppression table, discovery
    /// buffers), for the engine's `bytes_per_node` accounting.
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
            + self.seen_rreqs.memory_bytes()
            + self.pending.memory_bytes()
            + self
                .pending
                .values()
                .map(|d| d.buffered.capacity() * std::mem::size_of::<Packet>())
                .sum::<usize>()
    }

    /// The transport layer sends `packet` (with `packet.src == me`);
    /// resulting actions are appended to `out`.
    pub fn send(&mut self, now: SimTime, packet: Packet, out: &mut Vec<AodvAction>) {
        #[cfg(any(test, feature = "oracle"))]
        let packet = {
            let mut packet = packet;
            if self.config.fault_ttl_mishandle {
                // Planted TTL bug: originate data with the first-ring TTL
                // so an intermediate forwarder's TTL check fires (and,
                // with the same flag set there, swallows the packet
                // unaccounted).
                packet.ttl = TTL_START;
            }
            packet
        };
        let dst = packet.dst;
        if dst == self.me {
            out.push(AodvAction::Deliver(packet));
            return;
        }
        if let Some(route) = self.table.active(dst, now) {
            let next_hop = route.next_hop;
            self.table.refresh(dst, now, ACTIVE_ROUTE_LIFETIME);
            out.push(AodvAction::Send {
                packet,
                next_hop,
                delay: SimDuration::ZERO,
            });
        } else {
            self.buffer_and_discover(now, packet, out);
        }
    }

    /// The MAC delivered `packet`, transmitted by neighbor `from`.
    pub fn on_received(
        &mut self,
        now: SimTime,
        from: NodeId,
        packet: Packet,
        out: &mut Vec<AodvAction>,
    ) {
        // Hearing any frame from a neighbor establishes/refreshes the
        // 1-hop route to it (without sequence information, seq 0 suffices
        // to fill a hole but never downgrades a real entry).
        self.table
            .update(from, from, 1, 0, now, ACTIVE_ROUTE_LIFETIME);

        // Copy the message fields out first so the packet itself can move
        // into the handlers without cloning the message body.
        match &packet.body {
            Body::Aodv(AodvMessage::Rreq {
                rreq_id,
                orig,
                orig_seq,
                dst,
                dst_seq,
                hop_count,
            }) => {
                let (rreq_id, orig, orig_seq, dst, dst_seq, hop_count) =
                    (*rreq_id, *orig, *orig_seq, *dst, *dst_seq, *hop_count);
                self.handle_rreq(
                    now, from, packet, rreq_id, orig, orig_seq, dst, dst_seq, hop_count, out,
                );
            }
            Body::Aodv(AodvMessage::Rrep {
                orig,
                dst,
                dst_seq,
                hop_count,
            }) => {
                let (orig, dst, dst_seq, hop_count) = (*orig, *dst, *dst_seq, *hop_count);
                self.handle_rrep(now, from, packet, orig, dst, dst_seq, hop_count, out);
            }
            Body::Aodv(AodvMessage::Rerr { unreachable }) => {
                self.handle_rerr(now, from, unreachable, out);
            }
            _ => self.forward_data(now, from, packet, out),
        }
    }

    /// MAC feedback for a unicast packet previously handed over with
    /// [`AodvAction::Send`].
    pub fn on_tx_confirm(
        &mut self,
        now: SimTime,
        next_hop: NodeId,
        packet: Packet,
        success: bool,
        out: &mut Vec<AodvAction>,
    ) {
        if success {
            return;
        }
        // Link-layer failure: the route through this neighbor is declared
        // broken. In a static network this is by construction a *false*
        // route failure (the paper's Figure 9).
        self.counters.false_route_failures += 1;
        let mut broken = self.table.invalidate_via(next_hop);
        if let Some(r) = self.table.get(next_hop) {
            if !r.valid && !broken.iter().any(|(d, _)| *d == next_hop) {
                broken.push((next_hop, r.dst_seq));
            }
        }
        if !broken.is_empty() {
            for &(dst, dst_seq) in &broken {
                out.push(AodvAction::RouteLost { dst, dst_seq });
            }
            if self.config.elfn {
                for &(dst, _) in &broken {
                    out.push(AodvAction::NotifyRouteFailure { dst });
                }
            }
            self.broadcast_rerr(now, broken, out);
        }
        // The packet itself is lost; the transport layer recovers
        // end-to-end (for TCP: timeout, retransmission, new discovery) —
        // or, with ELFN, freezes until a probe confirms a fresh route.
        if packet.is_transport_data() || matches!(packet.body, Body::Tcp(_) | Body::Udp(_)) {
            self.counters.link_failure_drops += 1;
        }
        out.push(AodvAction::Drop {
            packet,
            reason: AodvDropReason::LinkFailure,
        });
    }

    /// The discovery timer for `dst` fired.
    pub fn on_discovery_timeout(&mut self, now: SimTime, dst: NodeId, out: &mut Vec<AodvAction>) {
        // The route may have appeared independently (e.g. via an
        // overheard RREP) between timer arming and expiry.
        if self.table.active(dst, now).is_some() {
            self.flush_buffered(now, dst, out);
            return;
        }
        let Some(d) = self.pending.get_mut(dst) else {
            return; // stale timer
        };
        if d.attempts > self.config.rreq_retries() {
            let d = self.pending.remove(dst).expect("checked above");
            for packet in d.buffered {
                self.counters.no_route_drops += 1;
                out.push(AodvAction::Drop {
                    packet,
                    reason: AodvDropReason::NoRoute,
                });
            }
            return;
        }
        d.attempts += 1;
        let attempts = d.attempts;
        self.originate_rreq(now, dst, attempts, out);
    }

    // ---- internals -----------------------------------------------------

    fn alloc_uid(&mut self) -> u64 {
        let uid = self.next_uid;
        self.next_uid += 1;
        uid
    }

    fn jitter(&mut self) -> SimDuration {
        // Clamp to MIN_JITTER so a jittered rebroadcast is the only
        // event a cascade can schedule closer than a SIFS: the network
        // loop's wave walk relies on every in-cascade schedule landing at
        // least min(SIFS, MIN_JITTER) in the future. One draw in ~625
        // lands below 16 µs with the 10 ms jitter, so the clamp is not a
        // behavioural change at protocol timescales.
        let draw = self.rng.gen_range_u64(BROADCAST_JITTER.as_nanos());
        SimDuration::from_nanos(draw.max(MIN_JITTER.as_nanos()))
    }

    /// The RREQ TTL for discovery attempt `attempt` (1-based) under
    /// expanding-ring search: [`TTL_START`], growing by [`TTL_INCREMENT`]
    /// per retry up to [`TTL_THRESHOLD`]; past the threshold, attempts
    /// flood network-wide.
    fn ring_ttl(attempt: u32) -> u8 {
        if attempt >= FIRST_FULL_TTL_ATTEMPT {
            mwn_pkt::sizes::DEFAULT_TTL
        } else {
            TTL_START + (attempt - 1) as u8 * TTL_INCREMENT
        }
    }

    fn buffer_and_discover(&mut self, now: SimTime, packet: Packet, actions: &mut Vec<AodvAction>) {
        let dst = packet.dst;
        let discovery_needed = !self.pending.contains_key(dst);
        let d = self.pending.or_insert_with(dst, || Discovery {
            attempts: 1,
            buffered: VecDeque::new(),
        });
        if d.buffered.len() >= BUFFER_CAPACITY {
            actions.push(AodvAction::Drop {
                packet,
                reason: AodvDropReason::BufferFull,
            });
            return;
        }
        d.buffered.push_back(packet);
        if discovery_needed {
            self.originate_rreq(now, dst, 1, actions);
        }
    }

    fn originate_rreq(
        &mut self,
        _now: SimTime,
        dst: NodeId,
        attempt: u32,
        actions: &mut Vec<AodvAction>,
    ) {
        self.seq = self.seq.wrapping_add(1);
        let rreq_id = self.next_rreq_id;
        self.next_rreq_id += 1;
        self.counters.rreqs_originated += 1;
        let dst_seq = self.table.get(dst).map(|r| r.dst_seq);
        let msg = AodvMessage::Rreq {
            rreq_id,
            orig: self.me,
            orig_seq: self.seq,
            dst,
            dst_seq,
            hop_count: 0,
        };
        let mut packet = Packet::new(
            self.alloc_uid(),
            self.me,
            NodeId::BROADCAST,
            Body::Aodv(msg),
        );
        let wait = if self.config.expanding_ring {
            packet.ttl = Self::ring_ttl(attempt);
            // Ring attempts wait a constant RREQ round trip (RFC 3561
            // §6.4's ring traversal time); binary backoff only starts
            // once attempts flood network-wide.
            if attempt < FIRST_FULL_TTL_ATTEMPT {
                RREQ_WAIT
            } else {
                RREQ_WAIT * (1u64 << (attempt - FIRST_FULL_TTL_ATTEMPT).min(16))
            }
        } else {
            // Binary exponential wait: 1x, 2x, 4x, ...
            RREQ_WAIT * (1u64 << (attempt - 1).min(16))
        };
        let delay = self.jitter();
        actions.push(AodvAction::Send {
            packet,
            next_hop: NodeId::BROADCAST,
            delay,
        });
        actions.push(AodvAction::SetDiscoveryTimer { dst, delay: wait });
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_rreq(
        &mut self,
        now: SimTime,
        from: NodeId,
        mut packet: Packet,
        rreq_id: u32,
        orig: NodeId,
        orig_seq: u32,
        dst: NodeId,
        dst_seq: Option<u32>,
        hop_count: u8,
        actions: &mut Vec<AodvAction>,
    ) {
        if orig == self.me {
            return; // our own flood echoed back
        }
        // Duplicate suppression first (RFC 3561 §6.5): a copy already
        // seen leaves the reverse route alone, or a forwarder hearing
        // its successor's echo would point the route at that successor.
        // Ids increase monotonically per originator, so remembering the
        // highest seen id suffices.
        let newest = self.seen_rreqs.or_insert_with(orig, || 0);
        if rreq_id <= *newest {
            return;
        }
        *newest = rreq_id;
        // Reverse route towards the originator.
        if self.table.update(
            orig,
            from,
            hop_count.saturating_add(1),
            orig_seq,
            now,
            ACTIVE_ROUTE_LIFETIME,
        ) {
            actions.push(AodvAction::RouteInstalled {
                dst: orig,
                next_hop: from,
                hop_count: hop_count.saturating_add(1),
                dst_seq: orig_seq,
            });
        }
        // A reverse route may satisfy a discovery we have pending.
        if self.pending.contains_key(orig) {
            self.flush_buffered(now, orig, actions);
            actions.push(AodvAction::CancelDiscoveryTimer { dst: orig });
        }

        if dst == self.me {
            // We are the destination: reply.
            if let Some(requested) = dst_seq {
                self.seq = self.seq.max(requested);
            }
            self.send_rrep(now, from, orig, self.me, self.seq, 0, actions);
        } else {
            // Intermediate reply if we know a fresh-enough route.
            let fresh = self
                .table
                .active(dst, now)
                .copied()
                .filter(|r| r.next_hop != from && dst_seq.is_none_or(|req| r.dst_seq >= req));
            if let Some(route) = fresh {
                self.send_rrep(
                    now,
                    from,
                    orig,
                    dst,
                    route.dst_seq,
                    route.hop_count,
                    actions,
                );
                if self.config.expanding_ring {
                    // Gratuitous RREP (RFC 3561 §6.6.3): the destination
                    // never hears a ring-limited RREQ we answered, so
                    // push it the route back to the originator — sent
                    // along our forward route, advertising `orig` at our
                    // reverse-route distance.
                    self.counters.gratuitous_rreps += 1;
                    self.send_rrep(
                        now,
                        route.next_hop,
                        dst,
                        orig,
                        orig_seq,
                        hop_count.saturating_add(1),
                        actions,
                    );
                }
            } else {
                self.rebroadcast_rreq(
                    now,
                    &mut packet,
                    rreq_id,
                    orig,
                    orig_seq,
                    dst,
                    dst_seq,
                    hop_count,
                    actions,
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rebroadcast_rreq(
        &mut self,
        _now: SimTime,
        packet: &mut Packet,
        rreq_id: u32,
        orig: NodeId,
        orig_seq: u32,
        dst: NodeId,
        dst_seq: Option<u32>,
        hop_count: u8,
        actions: &mut Vec<AodvAction>,
    ) {
        if packet.ttl <= 1 {
            // The ring boundary: under expanding-ring search this is
            // where the flood stops — count the nodes it spared.
            self.counters.rreq_rebroadcasts_suppressed += 1;
            return;
        }
        self.counters.rreqs_forwarded += 1;
        let msg = AodvMessage::Rreq {
            rreq_id,
            orig,
            orig_seq,
            dst,
            dst_seq,
            hop_count: hop_count.saturating_add(1),
        };
        let fwd = Packet {
            uid: self.alloc_uid(),
            src: packet.src,
            dst: NodeId::BROADCAST,
            ttl: packet.ttl - 1,
            body: Body::Aodv(msg),
        };
        let delay = self.jitter();
        actions.push(AodvAction::Send {
            packet: fwd,
            next_hop: NodeId::BROADCAST,
            delay,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn send_rrep(
        &mut self,
        _now: SimTime,
        to: NodeId,
        orig: NodeId,
        dst: NodeId,
        dst_seq: u32,
        hop_count: u8,
        actions: &mut Vec<AodvAction>,
    ) {
        self.counters.rreps_generated += 1;
        let msg = AodvMessage::Rrep {
            orig,
            dst,
            dst_seq,
            hop_count,
        };
        let packet = Packet::new(self.alloc_uid(), self.me, orig, Body::Aodv(msg));
        actions.push(AodvAction::Send {
            packet,
            next_hop: to,
            delay: SimDuration::ZERO,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_rrep(
        &mut self,
        now: SimTime,
        from: NodeId,
        packet: Packet,
        orig: NodeId,
        dst: NodeId,
        dst_seq: u32,
        hop_count: u8,
        actions: &mut Vec<AodvAction>,
    ) {
        // Forward route to the destination.
        if self.table.update(
            dst,
            from,
            hop_count.saturating_add(1),
            dst_seq,
            now,
            ACTIVE_ROUTE_LIFETIME,
        ) {
            actions.push(AodvAction::RouteInstalled {
                dst,
                next_hop: from,
                hop_count: hop_count.saturating_add(1),
                dst_seq,
            });
        }

        if orig == self.me {
            // Discovery complete.
            actions.push(AodvAction::CancelDiscoveryTimer { dst });
            self.flush_buffered(now, dst, actions);
        } else if packet.ttl <= 1 {
            // Two neighbours whose reverse routes point at each other
            // would otherwise pass one RREP back and forth forever.
            actions.push(AodvAction::Drop {
                packet,
                reason: AodvDropReason::TtlExpired,
            });
        } else if let Some(route) = self.table.active(orig, now) {
            // Forward the RREP along the reverse path.
            let next_hop = route.next_hop;
            self.table.refresh(orig, now, ACTIVE_ROUTE_LIFETIME);
            let fwd = AodvMessage::Rrep {
                orig,
                dst,
                dst_seq,
                hop_count: hop_count.saturating_add(1),
            };
            let packet = Packet {
                ttl: packet.ttl - 1,
                ..Packet::new(self.alloc_uid(), self.me, orig, Body::Aodv(fwd))
            };
            actions.push(AodvAction::Send {
                packet,
                next_hop,
                delay: SimDuration::ZERO,
            });
        }
        // No reverse route: the RREP dies here.
    }

    fn handle_rerr(
        &mut self,
        now: SimTime,
        from: NodeId,
        unreachable: &[(NodeId, u32)],
        actions: &mut Vec<AodvAction>,
    ) {
        let mut propagate = Vec::new();
        for &(dst, dst_seq) in unreachable {
            if let Some(new_seq) = self.table.invalidate_from_rerr(dst, dst_seq, from) {
                propagate.push((dst, new_seq));
            }
        }
        if !propagate.is_empty() {
            for &(dst, dst_seq) in &propagate {
                actions.push(AodvAction::RouteLost { dst, dst_seq });
            }
            if self.config.elfn {
                for &(dst, _) in &propagate {
                    actions.push(AodvAction::NotifyRouteFailure { dst });
                }
            }
            self.broadcast_rerr(now, propagate, actions);
        }
    }

    fn broadcast_rerr(
        &mut self,
        _now: SimTime,
        unreachable: Vec<(NodeId, u32)>,
        actions: &mut Vec<AodvAction>,
    ) {
        self.counters.rerrs_sent += 1;
        let msg = AodvMessage::Rerr { unreachable };
        let packet = Packet::new(
            self.alloc_uid(),
            self.me,
            NodeId::BROADCAST,
            Body::Aodv(msg),
        );
        let delay = self.jitter();
        actions.push(AodvAction::Send {
            packet,
            next_hop: NodeId::BROADCAST,
            delay,
        });
    }

    fn forward_data(
        &mut self,
        now: SimTime,
        from: NodeId,
        mut packet: Packet,
        actions: &mut Vec<AodvAction>,
    ) {
        // Forwarding refreshes the route back to the source (RFC 3561
        // §6.2) — this keeps the TCP-ACK return path alive.
        self.table.refresh(packet.src, now, ACTIVE_ROUTE_LIFETIME);
        self.table.refresh(from, now, ACTIVE_ROUTE_LIFETIME);

        if packet.dst == self.me {
            actions.push(AodvAction::Deliver(packet));
            return;
        }
        if packet.ttl <= 1 {
            #[cfg(any(test, feature = "oracle"))]
            if self.config.fault_ttl_mishandle {
                // Planted TTL bug: the packet vanishes without a Drop
                // action — an unaccounted copy the conservation audit
                // must flag as leaked custody.
                return;
            }
            actions.push(AodvAction::Drop {
                packet,
                reason: AodvDropReason::TtlExpired,
            });
            return;
        }
        packet.ttl -= 1;
        if let Some(route) = self.table.active(packet.dst, now) {
            let next_hop = route.next_hop;
            self.table.refresh(packet.dst, now, ACTIVE_ROUTE_LIFETIME);
            actions.push(AodvAction::Send {
                packet,
                next_hop,
                delay: SimDuration::ZERO,
            });
        } else {
            // Mid-path hole: report back and drop; the source rediscovers.
            let seq = self.table.get(packet.dst).map_or(0, |r| r.dst_seq);
            self.broadcast_rerr(now, vec![(packet.dst, seq)], actions);
            self.counters.no_route_drops += 1;
            actions.push(AodvAction::Drop {
                packet,
                reason: AodvDropReason::NoRoute,
            });
        }
    }

    fn flush_buffered(&mut self, now: SimTime, dst: NodeId, actions: &mut Vec<AodvAction>) {
        let Some(d) = self.pending.remove(dst) else {
            return;
        };
        for packet in d.buffered {
            if let Some(route) = self.table.active(dst, now) {
                let next_hop = route.next_hop;
                self.table.refresh(dst, now, ACTIVE_ROUTE_LIFETIME);
                #[cfg(any(test, feature = "oracle"))]
                if self.config.fault_double_flush && !self.fault_flushed {
                    // Planted custody double-free: the same buffered packet
                    // is handed to the MAC twice, for the
                    // conservation-audit tests.
                    self.fault_flushed = true;
                    actions.push(AodvAction::Send {
                        packet: packet.clone(),
                        next_hop,
                        delay: SimDuration::ZERO,
                    });
                }
                actions.push(AodvAction::Send {
                    packet,
                    next_hop,
                    delay: SimDuration::ZERO,
                });
            } else {
                self.counters.no_route_drops += 1;
                actions.push(AodvAction::Drop {
                    packet,
                    reason: AodvDropReason::NoRoute,
                });
            }
        }
    }
}

/// Test shim for the out-param API: `act!(r.method(args...))` calls the
/// method with a fresh action buffer appended and returns the buffer.
#[cfg(test)]
macro_rules! act {
    ($m:ident.$meth:ident($($arg:expr),* $(,)?)) => {{
        let mut out = Vec::new();
        $m.$meth($($arg,)* &mut out);
        out
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_pkt::{FlowId, TcpSegment};

    fn router(id: u32) -> Router {
        Router::new(
            NodeId(id),
            AodvConfig::default(),
            Pcg32::new(u64::from(id)),
            u64::from(id) << 32,
        )
    }

    fn data(uid: u64, src: u32, dst: u32) -> Packet {
        Packet::new(
            uid,
            NodeId(src),
            NodeId(dst),
            Body::Tcp(TcpSegment::data(FlowId(0), 0)),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sends(actions: &[AodvAction]) -> Vec<(&Packet, NodeId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                AodvAction::Send {
                    packet, next_hop, ..
                } => Some((packet, *next_hop)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn send_without_route_originates_rreq() {
        let mut r = router(0);
        let a = act!(r.send(t(0), data(1, 0, 5)));
        let s = sends(&a);
        assert_eq!(s.len(), 1);
        assert!(s[0].1.is_broadcast());
        assert!(matches!(
            s[0].0.body,
            Body::Aodv(AodvMessage::Rreq { dst: NodeId(5), .. })
        ));
        assert!(a
            .iter()
            .any(|x| matches!(x, AodvAction::SetDiscoveryTimer { dst: NodeId(5), .. })));
        assert_eq!(r.counters().rreqs_originated, 1);
    }

    #[test]
    fn second_packet_buffers_without_new_rreq() {
        let mut r = router(0);
        act!(r.send(t(0), data(1, 0, 5)));
        let a = act!(r.send(t(1), data(2, 0, 5)));
        assert!(sends(&a).is_empty());
        assert_eq!(r.counters().rreqs_originated, 1);
    }

    #[test]
    fn rrep_completes_discovery_and_flushes() {
        let mut r = router(0);
        act!(r.send(t(0), data(1, 0, 5)));
        act!(r.send(t(1), data(2, 0, 5)));
        let rrep = Packet::new(
            100,
            NodeId(1),
            NodeId(0),
            Body::Aodv(AodvMessage::Rrep {
                orig: NodeId(0),
                dst: NodeId(5),
                dst_seq: 3,
                hop_count: 4,
            }),
        );
        let a = act!(r.on_received(t(50), NodeId(1), rrep));
        assert!(a.contains(&AodvAction::CancelDiscoveryTimer { dst: NodeId(5) }));
        let s = sends(&a);
        assert_eq!(s.len(), 2, "both buffered packets flushed");
        assert!(s.iter().all(|(_, nh)| *nh == NodeId(1)));
        // Subsequent sends go straight through.
        let a = act!(r.send(t(60), data(3, 0, 5)));
        assert_eq!(sends(&a), vec![(&data(3, 0, 5), NodeId(1))]);
    }

    #[test]
    fn destination_replies_to_rreq() {
        let mut r = router(5);
        let rreq = Packet::new(
            100,
            NodeId(0),
            NodeId::BROADCAST,
            Body::Aodv(AodvMessage::Rreq {
                rreq_id: 1,
                orig: NodeId(0),
                orig_seq: 1,
                dst: NodeId(5),
                dst_seq: None,
                hop_count: 3,
            }),
        );
        let a = act!(r.on_received(t(10), NodeId(4), rreq));
        let s = sends(&a);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].1, NodeId(4), "RREP unicast to the previous hop");
        assert!(matches!(
            s[0].0.body,
            Body::Aodv(AodvMessage::Rrep {
                orig: NodeId(0),
                dst: NodeId(5),
                ..
            })
        ));
        // Reverse route to the originator installed.
        assert_eq!(
            r.table().active(NodeId(0), t(10)).unwrap().next_hop,
            NodeId(4)
        );
        assert_eq!(r.table().active(NodeId(0), t(10)).unwrap().hop_count, 4);
    }

    #[test]
    fn intermediate_rebroadcasts_rreq_once() {
        let mut r = router(2);
        let mk = |uid| {
            Packet::new(
                uid,
                NodeId(0),
                NodeId::BROADCAST,
                Body::Aodv(AodvMessage::Rreq {
                    rreq_id: 1,
                    orig: NodeId(0),
                    orig_seq: 1,
                    dst: NodeId(5),
                    dst_seq: None,
                    hop_count: 1,
                }),
            )
        };
        let a = act!(r.on_received(t(10), NodeId(1), mk(100)));
        let s = sends(&a);
        assert_eq!(s.len(), 1);
        assert!(s[0].1.is_broadcast());
        assert_eq!(r.counters().rreqs_forwarded, 1);
        // Duplicate from another neighbor: suppressed.
        let a = act!(r.on_received(t(11), NodeId(3), mk(101)));
        assert!(sends(&a).is_empty());
        assert_eq!(r.counters().rreqs_forwarded, 1);
    }

    #[test]
    fn rreq_ttl_exhaustion_stops_flood() {
        let mut r = router(2);
        let mut p = Packet::new(
            100,
            NodeId(0),
            NodeId::BROADCAST,
            Body::Aodv(AodvMessage::Rreq {
                rreq_id: 1,
                orig: NodeId(0),
                orig_seq: 1,
                dst: NodeId(5),
                dst_seq: None,
                hop_count: 10,
            }),
        );
        p.ttl = 1;
        let a = act!(r.on_received(t(10), NodeId(1), p));
        assert!(sends(&a).is_empty());
    }

    #[test]
    fn data_forwarding_and_delivery() {
        let mut r = router(2);
        // Install route to 5 via 3.
        r.table
            .update(NodeId(5), NodeId(3), 2, 1, t(0), SimDuration::from_secs(10));
        let a = act!(r.on_received(t(1), NodeId(1), data(7, 0, 5)));
        let s = sends(&a);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].1, NodeId(3));
        assert_eq!(s[0].0.ttl, mwn_pkt::sizes::DEFAULT_TTL - 1);

        // Packet addressed to us is delivered.
        let a = act!(r.on_received(t(2), NodeId(1), data(8, 0, 2)));
        assert!(a.iter().any(|x| matches!(x, AodvAction::Deliver(_))));
    }

    #[test]
    fn forwarding_without_route_drops_and_rerrs() {
        let mut r = router(2);
        let a = act!(r.on_received(t(1), NodeId(1), data(7, 0, 5)));
        assert!(a.iter().any(|x| matches!(
            x,
            AodvAction::Drop {
                reason: AodvDropReason::NoRoute,
                ..
            }
        )));
        let s = sends(&a);
        assert_eq!(s.len(), 1);
        assert!(matches!(s[0].0.body, Body::Aodv(AodvMessage::Rerr { .. })));
        assert_eq!(r.counters().rerrs_sent, 1);
    }

    #[test]
    fn link_failure_counts_false_route_failure_and_invalidates() {
        let mut r = router(0);
        r.table
            .update(NodeId(5), NodeId(1), 3, 2, t(0), SimDuration::from_secs(10));
        r.table
            .update(NodeId(6), NodeId(1), 4, 2, t(0), SimDuration::from_secs(10));
        let a = act!(r.on_tx_confirm(t(1), NodeId(1), data(7, 0, 5), false));
        assert_eq!(r.counters().false_route_failures, 1);
        assert!(r.table().active(NodeId(5), t(2)).is_none());
        assert!(r.table().active(NodeId(6), t(2)).is_none());
        // RERR broadcast + packet dropped.
        assert!(sends(&a).iter().any(|(p, nh)| {
            nh.is_broadcast() && matches!(p.body, Body::Aodv(AodvMessage::Rerr { .. }))
        }));
        assert!(a.iter().any(|x| matches!(
            x,
            AodvAction::Drop {
                reason: AodvDropReason::LinkFailure,
                ..
            }
        )));
    }

    #[test]
    fn successful_confirm_changes_nothing() {
        let mut r = router(0);
        r.table
            .update(NodeId(5), NodeId(1), 3, 2, t(0), SimDuration::from_secs(10));
        let a = act!(r.on_tx_confirm(t(1), NodeId(1), data(7, 0, 5), true));
        assert!(a.is_empty());
        assert_eq!(r.counters().false_route_failures, 0);
        assert!(r.table().active(NodeId(5), t(2)).is_some());
    }

    #[test]
    fn rerr_propagates_only_when_route_matches() {
        let mut r = router(2);
        r.table
            .update(NodeId(5), NodeId(3), 2, 1, t(0), SimDuration::from_secs(10));
        // RERR from a node we do not route through: ignored.
        let rerr = |from: u32| {
            Packet::new(
                200 + u64::from(from),
                NodeId(from),
                NodeId::BROADCAST,
                Body::Aodv(AodvMessage::Rerr {
                    unreachable: vec![(NodeId(5), 9)],
                }),
            )
        };
        let a = act!(r.on_received(t(1), NodeId(1), rerr(1)));
        assert!(sends(&a).is_empty());
        assert!(r.table().active(NodeId(5), t(2)).is_some());
        // RERR from our actual next hop: invalidate + propagate.
        let a = act!(r.on_received(t(2), NodeId(3), rerr(3)));
        assert!(r.table().active(NodeId(5), t(3)).is_none());
        assert_eq!(sends(&a).len(), 1);
    }

    #[test]
    fn discovery_retries_then_gives_up() {
        let mut r = router(0);
        act!(r.send(t(0), data(1, 0, 5)));
        // Retry 1 and 2 re-flood with doubled waits.
        let a = act!(r.on_discovery_timeout(t(1000), NodeId(5)));
        assert_eq!(sends(&a).len(), 1);
        let a = act!(r.on_discovery_timeout(t(3000), NodeId(5)));
        assert_eq!(sends(&a).len(), 1);
        assert_eq!(r.counters().rreqs_originated, 3);
        // Third timeout: give up, drop buffered packets.
        let a = act!(r.on_discovery_timeout(t(7000), NodeId(5)));
        assert!(a.iter().any(|x| matches!(
            x,
            AodvAction::Drop {
                reason: AodvDropReason::NoRoute,
                ..
            }
        )));
        assert_eq!(r.counters().no_route_drops, 1);
        // A later send restarts discovery from scratch.
        let a = act!(r.send(t(8000), data(2, 0, 5)));
        assert_eq!(sends(&a).len(), 1);
    }

    #[test]
    fn ttl_expiry_drops_packet() {
        let mut r = router(2);
        r.table
            .update(NodeId(5), NodeId(3), 2, 1, t(0), SimDuration::from_secs(10));
        let mut p = data(7, 0, 5);
        p.ttl = 1;
        let a = act!(r.on_received(t(1), NodeId(1), p));
        assert!(a.iter().any(|x| matches!(
            x,
            AodvAction::Drop {
                reason: AodvDropReason::TtlExpired,
                ..
            }
        )));
    }

    #[test]
    fn buffer_overflow_drops_excess() {
        let mut r = router(0);
        for i in 0..64 {
            act!(r.send(t(0), data(i, 0, 5)));
        }
        let a = act!(r.send(t(1), data(99, 0, 5)));
        assert!(a.iter().any(|x| matches!(
            x,
            AodvAction::Drop {
                reason: AodvDropReason::BufferFull,
                ..
            }
        )));
    }

    #[test]
    fn intermediate_with_fresh_route_replies() {
        let mut r = router(2);
        r.table
            .update(NodeId(5), NodeId(3), 2, 7, t(0), SimDuration::from_secs(10));
        let rreq = Packet::new(
            100,
            NodeId(0),
            NodeId::BROADCAST,
            Body::Aodv(AodvMessage::Rreq {
                rreq_id: 1,
                orig: NodeId(0),
                orig_seq: 1,
                dst: NodeId(5),
                dst_seq: Some(3),
                hop_count: 1,
            }),
        );
        let a = act!(r.on_received(t(1), NodeId(1), rreq));
        let s = sends(&a);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].1, NodeId(1));
        assert!(matches!(
            s[0].0.body,
            Body::Aodv(AodvMessage::Rrep {
                dst: NodeId(5),
                dst_seq: 7,
                ..
            })
        ));
        assert_eq!(r.counters().rreqs_forwarded, 0);
    }

    #[test]
    fn rrep_forwarded_along_reverse_route() {
        let mut r = router(2);
        // Reverse route to originator 0 via 1.
        r.table
            .update(NodeId(0), NodeId(1), 2, 1, t(0), SimDuration::from_secs(10));
        let rrep = Packet::new(
            100,
            NodeId(3),
            NodeId(0),
            Body::Aodv(AodvMessage::Rrep {
                orig: NodeId(0),
                dst: NodeId(5),
                dst_seq: 3,
                hop_count: 1,
            }),
        );
        let a = act!(r.on_received(t(1), NodeId(3), rrep.clone()));
        let s = sends(&a);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].1, NodeId(1));
        assert!(matches!(
            s[0].0.body,
            Body::Aodv(AodvMessage::Rrep { hop_count: 2, .. })
        ));
        assert_eq!(s[0].0.ttl, mwn_pkt::sizes::DEFAULT_TTL - 1);
        // Forward route to 5 installed via 3.
        assert_eq!(
            r.table().active(NodeId(5), t(2)).unwrap().next_hop,
            NodeId(3)
        );
        // An RREP that arrives on its last hop is dropped, not forwarded:
        // reverse routes pointing at each other cannot bounce it forever.
        let mut last_hop = rrep;
        last_hop.ttl = 1;
        let a = act!(r.on_received(t(2), NodeId(3), last_hop));
        assert!(sends(&a).is_empty());
        assert!(a.iter().any(|x| matches!(
            x,
            AodvAction::Drop {
                reason: AodvDropReason::TtlExpired,
                ..
            }
        )));
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;
    use mwn_pkt::sizes::DEFAULT_TTL;
    use mwn_pkt::{FlowId, TcpSegment};

    fn city_router(id: u32) -> Router {
        Router::new(
            NodeId(id),
            AodvConfig::city(),
            Pcg32::new(u64::from(id)),
            u64::from(id) << 32,
        )
    }

    fn data(uid: u64, src: u32, dst: u32) -> Packet {
        Packet::new(
            uid,
            NodeId(src),
            NodeId(dst),
            Body::Tcp(TcpSegment::data(FlowId(0), 0)),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// The (RREQ TTL, discovery-timer wait) of one originate burst.
    fn rreq_shape(actions: &[AodvAction]) -> (u8, SimDuration) {
        let ttl = actions
            .iter()
            .find_map(|a| match a {
                AodvAction::Send { packet, .. }
                    if matches!(packet.body, Body::Aodv(AodvMessage::Rreq { .. })) =>
                {
                    Some(packet.ttl)
                }
                _ => None,
            })
            .expect("an RREQ send");
        let wait = actions
            .iter()
            .find_map(|a| match a {
                AodvAction::SetDiscoveryTimer { delay, .. } => Some(*delay),
                _ => None,
            })
            .expect("a discovery timer");
        (ttl, wait)
    }

    #[test]
    fn expanding_ring_stages_ttls_then_escalates() {
        let mut r = city_router(0);
        let wait = RREQ_WAIT;
        let mut shapes = vec![rreq_shape(&act!(r.send(t(0), data(1, 0, 5))))];
        for i in 1..=5 {
            shapes.push(rreq_shape(&act!(
                r.on_discovery_timeout(t(10_000 * i), NodeId(5))
            )));
        }
        let (ttls, waits): (Vec<u8>, Vec<SimDuration>) = shapes.into_iter().unzip();
        // Rings 1, 3, 5, 7 (RFC 3561 §6.4 staging), then network-wide.
        assert_eq!(ttls, vec![1, 3, 5, 7, DEFAULT_TTL, DEFAULT_TTL]);
        // Constant ring wait; binary backoff only once flooding starts.
        assert_eq!(waits, vec![wait, wait, wait, wait, wait, wait * 2]);
        assert_eq!(r.counters().rreqs_originated, 6);
        // The next timeout gives up (retries exhausted).
        let a = act!(r.on_discovery_timeout(t(100_000), NodeId(5)));
        assert!(a.iter().any(|x| matches!(
            x,
            AodvAction::Drop {
                reason: AodvDropReason::NoRoute,
                ..
            }
        )));
    }

    #[test]
    fn default_config_floods_network_wide_with_backoff() {
        // Digest guard: the paper configuration must keep flooding at
        // DEFAULT_TTL with binary backoff from the first retry.
        let mut r = Router::new(NodeId(0), AodvConfig::default(), Pcg32::new(0), 0);
        let wait = RREQ_WAIT;
        let (ttl, w1) = rreq_shape(&act!(r.send(t(0), data(1, 0, 5))));
        assert_eq!((ttl, w1), (DEFAULT_TTL, wait));
        let (ttl, w2) = rreq_shape(&act!(r.on_discovery_timeout(t(10_000), NodeId(5))));
        assert_eq!((ttl, w2), (DEFAULT_TTL, wait * 2));
    }

    #[test]
    fn ring_boundary_suppression_is_counted() {
        let mut r = city_router(2);
        let mut p = Packet::new(
            100,
            NodeId(0),
            NodeId::BROADCAST,
            Body::Aodv(AodvMessage::Rreq {
                rreq_id: 1,
                orig: NodeId(0),
                orig_seq: 1,
                dst: NodeId(5),
                dst_seq: None,
                hop_count: 0,
            }),
        );
        p.ttl = 1; // we sit on the first ring's boundary
        let a = act!(r.on_received(t(10), NodeId(0), p));
        assert!(!a.iter().any(|x| matches!(x, AodvAction::Send { .. })));
        assert_eq!(r.counters().rreq_rebroadcasts_suppressed, 1);
        assert_eq!(r.counters().rreqs_forwarded, 0);
    }

    #[test]
    fn intermediate_reply_sends_gratuitous_rrep() {
        let mut r = city_router(2);
        // Forward route to the flow destination 5 via 3, two hops away.
        r.table
            .update(NodeId(5), NodeId(3), 2, 7, t(0), SimDuration::from_secs(10));
        let rreq = Packet::new(
            100,
            NodeId(0),
            NodeId::BROADCAST,
            Body::Aodv(AodvMessage::Rreq {
                rreq_id: 1,
                orig: NodeId(0),
                orig_seq: 4,
                dst: NodeId(5),
                dst_seq: Some(3),
                hop_count: 1,
            }),
        );
        let a = act!(r.on_received(t(1), NodeId(1), rreq));
        let sends: Vec<(&Packet, NodeId)> = a
            .iter()
            .filter_map(|x| match x {
                AodvAction::Send {
                    packet, next_hop, ..
                } => Some((packet, *next_hop)),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 2, "normal RREP plus gratuitous RREP");
        // Normal RREP back toward the originator.
        assert_eq!(sends[0].1, NodeId(1));
        assert!(matches!(
            sends[0].0.body,
            Body::Aodv(AodvMessage::Rrep {
                orig: NodeId(0),
                dst: NodeId(5),
                dst_seq: 7,
                ..
            })
        ));
        // Gratuitous RREP toward the destination, advertising the
        // originator at our reverse-route distance (1 RREQ hop + us).
        assert_eq!(sends[1].1, NodeId(3));
        assert_eq!(sends[1].0.dst, NodeId(5));
        assert!(matches!(
            sends[1].0.body,
            Body::Aodv(AodvMessage::Rrep {
                orig: NodeId(5),
                dst: NodeId(0),
                dst_seq: 4,
                hop_count: 2,
            })
        ));
        assert_eq!(r.counters().gratuitous_rreps, 1);
        assert_eq!(r.counters().rreps_generated, 2);
    }

    #[test]
    fn memory_bytes_tracks_per_destination_state() {
        let mut r = city_router(0);
        let before = r.memory_bytes();
        act!(r.send(t(0), data(1, 0, 5)));
        assert!(
            r.memory_bytes() > before,
            "a pending discovery with a buffered packet must show up"
        );
    }
}

#[cfg(test)]
mod dup_tests {
    use super::*;
    use mwn_pkt::{AodvMessage, Body};

    #[test]
    fn first_flood_id_is_suppressed_on_duplicate() {
        let mut r = Router::new(NodeId(2), AodvConfig::default(), Pcg32::new(2), 2 << 16);
        let mk = |uid| {
            Packet::new(
                uid,
                NodeId(0),
                NodeId::BROADCAST,
                Body::Aodv(AodvMessage::Rreq {
                    rreq_id: 1, // the very first id a router allocates
                    orig: NodeId(0),
                    orig_seq: 1,
                    dst: NodeId(5),
                    dst_seq: None,
                    hop_count: 1,
                }),
            )
        };
        let a = act!(r.on_received(SimTime::ZERO, NodeId(1), mk(1)));
        assert!(a.iter().any(|x| matches!(x, AodvAction::Send { .. })));
        let a = act!(r.on_received(SimTime::ZERO, NodeId(3), mk(2)));
        assert!(!a.iter().any(|x| matches!(x, AodvAction::Send { .. })));
        assert_eq!(r.counters().rreqs_forwarded, 1);
    }

    /// RFC 3561 §6.5: a duplicate RREQ is discarded before it touches the
    /// reverse route. Node 3 forwards O = node 0's request (heard from
    /// node 2), then loses its route to O (sequence number bumped), then
    /// hears its own rebroadcast echoed by its successor, node 4. Taking
    /// the echo's reverse route would point 3 at 4 while 4 points at 3:
    /// a routing loop.
    #[test]
    fn duplicate_rreq_leaves_an_invalidated_reverse_route_alone() {
        let mut r = Router::new(NodeId(3), AodvConfig::default(), Pcg32::new(3), 3 << 16);
        let rreq = |uid, hop_count| {
            Packet::new(
                uid,
                NodeId(0),
                NodeId::BROADCAST,
                Body::Aodv(AodvMessage::Rreq {
                    rreq_id: 1,
                    orig: NodeId(0),
                    orig_seq: 4,
                    dst: NodeId(9),
                    dst_seq: None,
                    hop_count,
                }),
            )
        };
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let a = act!(r.on_received(t(0), NodeId(2), rreq(1, 2)));
        assert!(a.iter().any(|x| matches!(x, AodvAction::Send { .. })));
        assert_eq!(
            r.table().active(NodeId(0), t(0)).unwrap().next_hop,
            NodeId(2)
        );

        let lost = Packet::new(
            7,
            NodeId(3),
            NodeId(0),
            Body::Tcp(mwn_pkt::TcpSegment::data(mwn_pkt::FlowId(0), 0)),
        );
        act!(r.on_tx_confirm(t(10), NodeId(2), lost, false));
        let route = *r.table().get(NodeId(0)).unwrap();
        assert!(!route.valid);
        assert_eq!(route.dst_seq, 5, "invalidation bumps the sequence number");

        let a = act!(r.on_received(t(20), NodeId(4), rreq(2, 3)));
        assert!(a.is_empty(), "a duplicate does nothing: {a:?}");
        assert_eq!(*r.table().get(NodeId(0)).unwrap(), route);
        assert_eq!(
            r.table().active(NodeId(4), t(20)).unwrap().next_hop,
            NodeId(4)
        );
    }
}

#[cfg(test)]
mod elfn_tests {
    use super::*;
    use mwn_pkt::{Body, FlowId, TcpSegment};

    fn elfn_router(id: u32) -> Router {
        let config = AodvConfig {
            elfn: true,
            ..AodvConfig::default()
        };
        Router::new(
            NodeId(id),
            config,
            Pcg32::new(u64::from(id)),
            u64::from(id) << 32,
        )
    }

    fn data(uid: u64, src: u32, dst: u32) -> Packet {
        Packet::new(
            uid,
            NodeId(src),
            NodeId(dst),
            Body::Tcp(TcpSegment::data(FlowId(0), 0)),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn link_failure_notifies_broken_destinations() {
        let mut r = elfn_router(0);
        r.table
            .update(NodeId(5), NodeId(1), 3, 2, t(0), SimDuration::from_secs(10));
        r.table
            .update(NodeId(6), NodeId(1), 4, 2, t(0), SimDuration::from_secs(10));
        let a = act!(r.on_tx_confirm(t(1), NodeId(1), data(7, 0, 5), false));
        let notified: Vec<NodeId> = a
            .iter()
            .filter_map(|x| match x {
                AodvAction::NotifyRouteFailure { dst } => Some(*dst),
                _ => None,
            })
            .collect();
        assert!(notified.contains(&NodeId(5)));
        assert!(notified.contains(&NodeId(6)));
    }

    #[test]
    fn rerr_also_notifies() {
        let mut r = elfn_router(2);
        r.table
            .update(NodeId(5), NodeId(3), 2, 1, t(0), SimDuration::from_secs(10));
        let rerr = Packet::new(
            200,
            NodeId(3),
            NodeId::BROADCAST,
            Body::Aodv(AodvMessage::Rerr {
                unreachable: vec![(NodeId(5), 9)],
            }),
        );
        let a = act!(r.on_received(t(2), NodeId(3), rerr));
        assert!(a
            .iter()
            .any(|x| matches!(x, AodvAction::NotifyRouteFailure { dst: NodeId(5) })));
    }

    #[test]
    fn disabled_by_default() {
        let mut r = Router::new(NodeId(0), AodvConfig::default(), Pcg32::new(0), 0);
        r.table
            .update(NodeId(5), NodeId(1), 3, 2, t(0), SimDuration::from_secs(10));
        let a = act!(r.on_tx_confirm(t(1), NodeId(1), data(7, 0, 5), false));
        assert!(!a
            .iter()
            .any(|x| matches!(x, AodvAction::NotifyRouteFailure { .. })));
    }
}
