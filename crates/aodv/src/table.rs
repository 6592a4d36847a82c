//! The sequence-numbered routing table.

use mwn_pkt::{NodeId, NodeMap};
use mwn_sim::{SimDuration, SimTime};

/// One routing table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Neighbor to forward through.
    pub next_hop: NodeId,
    /// Hops to the destination.
    pub hop_count: u8,
    /// Destination sequence number the route was learned with.
    pub dst_seq: u32,
    /// `false` after an RERR or link failure invalidated the entry (the
    /// sequence number is retained for freshness comparisons).
    pub valid: bool,
    /// Entry expiry; refreshed whenever the route carries traffic.
    pub expires: SimTime,
}

/// AODV routing table: destination → [`Route`], stored flat.
///
/// Backed by a sorted-`Vec` [`NodeMap`] rather than a hash map: a router
/// only learns routes its traffic touches, so tables stay small and a
/// binary search over one contiguous allocation beats hashing — and at
/// city scale (50 000 routers) the saved per-map overhead is most of the
/// routing layer's footprint.
///
/// # Example
///
/// ```
/// use mwn_aodv::RoutingTable;
/// use mwn_pkt::NodeId;
/// use mwn_sim::{SimDuration, SimTime};
///
/// let mut t = RoutingTable::new();
/// let now = SimTime::ZERO;
/// let life = SimDuration::from_secs(10);
/// t.update(NodeId(5), NodeId(1), 3, 7, now, life);
/// assert_eq!(t.active(NodeId(5), now).unwrap().next_hop, NodeId(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    routes: NodeMap<Route>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `dst` regardless of validity or expiry.
    pub fn get(&self, dst: NodeId) -> Option<&Route> {
        self.routes.get(dst)
    }

    /// The entry for `dst` if it is valid and unexpired.
    pub fn active(&self, dst: NodeId, now: SimTime) -> Option<&Route> {
        self.routes.get(dst).filter(|r| r.valid && r.expires > now)
    }

    /// Installs or refreshes a route to `dst` if the new information is
    /// fresher (higher sequence number) or equally fresh but shorter, or if
    /// the existing entry is invalid/expired. Returns `true` if the table
    /// changed.
    pub fn update(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        hop_count: u8,
        dst_seq: u32,
        now: SimTime,
        lifetime: SimDuration,
    ) -> bool {
        let fresh = Route {
            next_hop,
            hop_count,
            dst_seq,
            valid: true,
            expires: now + lifetime,
        };
        match self.routes.get_mut(dst) {
            Some(old) => {
                let stale = !old.valid || old.expires <= now;
                let better = dst_seq > old.dst_seq
                    || (dst_seq == old.dst_seq && hop_count < old.hop_count)
                    || (dst_seq == old.dst_seq && next_hop == old.next_hop);
                if stale || better {
                    *old = fresh;
                    true
                } else {
                    false
                }
            }
            None => {
                self.routes.insert(dst, fresh);
                true
            }
        }
    }

    /// Extends the lifetime of the route to `dst`, if present and valid.
    pub fn refresh(&mut self, dst: NodeId, now: SimTime, lifetime: SimDuration) {
        if let Some(r) = self.routes.get_mut(dst) {
            if r.valid {
                r.expires = r.expires.max(now + lifetime);
            }
        }
    }

    /// Invalidates every valid route using `next_hop`, bumping each
    /// destination's sequence number (per RFC 3561 §6.11). Returns the
    /// `(destination, new sequence number)` pairs for the RERR.
    pub fn invalidate_via(&mut self, next_hop: NodeId) -> Vec<(NodeId, u32)> {
        let mut broken = Vec::new();
        // NodeMap iterates in ascending NodeId order, so `broken` comes
        // out in the deterministic order the RERR wire format needs.
        for (dst, route) in self.routes.iter_mut() {
            if route.valid && route.next_hop == next_hop {
                route.valid = false;
                route.dst_seq = route.dst_seq.wrapping_add(1);
                broken.push((dst, route.dst_seq));
            }
        }
        broken
    }

    /// Invalidates the route to `dst` if it currently goes through `via`
    /// and is valid; adopts `dst_seq` if it is newer. Returns `true` if a
    /// route was invalidated (so the RERR should propagate).
    pub fn invalidate_from_rerr(&mut self, dst: NodeId, dst_seq: u32, via: NodeId) -> Option<u32> {
        let r = self.routes.get_mut(dst)?;
        if r.valid && r.next_hop == via {
            r.valid = false;
            r.dst_seq = r.dst_seq.max(dst_seq);
            Some(r.dst_seq)
        } else {
            None
        }
    }

    /// Number of entries (valid or not).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Heap bytes held by the table, for `bytes_per_node` accounting.
    pub fn memory_bytes(&self) -> usize {
        self.routes.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIFE: SimDuration = SimDuration::from_secs(10);

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn install_and_lookup() {
        let mut rt = RoutingTable::new();
        assert!(rt.update(NodeId(5), NodeId(1), 3, 7, t(0), LIFE));
        let r = rt.active(NodeId(5), t(1)).unwrap();
        assert_eq!(r.next_hop, NodeId(1));
        assert_eq!(r.hop_count, 3);
    }

    #[test]
    fn expired_route_is_not_active() {
        let mut rt = RoutingTable::new();
        rt.update(NodeId(5), NodeId(1), 3, 7, t(0), LIFE);
        assert!(rt.active(NodeId(5), t(11)).is_none());
        assert!(rt.get(NodeId(5)).is_some());
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut rt = RoutingTable::new();
        rt.update(NodeId(5), NodeId(1), 3, 7, t(0), LIFE);
        rt.refresh(NodeId(5), t(8), LIFE);
        assert!(rt.active(NodeId(5), t(15)).is_some());
    }

    #[test]
    fn newer_sequence_replaces_route() {
        let mut rt = RoutingTable::new();
        rt.update(NodeId(5), NodeId(1), 3, 7, t(0), LIFE);
        // Older seq: rejected.
        assert!(!rt.update(NodeId(5), NodeId(2), 1, 6, t(0), LIFE));
        // Same seq, longer: rejected.
        assert!(!rt.update(NodeId(5), NodeId(2), 5, 7, t(0), LIFE));
        // Same seq, shorter: accepted.
        assert!(rt.update(NodeId(5), NodeId(2), 2, 7, t(0), LIFE));
        // Newer seq, longer: accepted.
        assert!(rt.update(NodeId(5), NodeId(3), 9, 8, t(0), LIFE));
        assert_eq!(rt.active(NodeId(5), t(1)).unwrap().next_hop, NodeId(3));
    }

    #[test]
    fn same_next_hop_same_seq_refreshes() {
        let mut rt = RoutingTable::new();
        rt.update(NodeId(5), NodeId(1), 3, 7, t(0), LIFE);
        assert!(rt.update(NodeId(5), NodeId(1), 3, 7, t(5), LIFE));
        assert!(rt.active(NodeId(5), t(12)).is_some());
    }

    #[test]
    fn invalidate_via_bumps_sequences() {
        let mut rt = RoutingTable::new();
        rt.update(NodeId(5), NodeId(1), 3, 7, t(0), LIFE);
        rt.update(NodeId(6), NodeId(1), 4, 2, t(0), LIFE);
        rt.update(NodeId(7), NodeId(2), 1, 9, t(0), LIFE);
        let broken = rt.invalidate_via(NodeId(1));
        assert_eq!(broken, vec![(NodeId(5), 8), (NodeId(6), 3)]);
        assert!(rt.active(NodeId(5), t(1)).is_none());
        assert!(rt.active(NodeId(7), t(1)).is_some());
    }

    #[test]
    fn stale_entry_always_replaceable() {
        let mut rt = RoutingTable::new();
        rt.update(NodeId(5), NodeId(1), 3, 7, t(0), LIFE);
        rt.invalidate_via(NodeId(1));
        // Even an older seq may reinstall over an invalid entry.
        assert!(rt.update(NodeId(5), NodeId(2), 4, 1, t(1), LIFE));
        assert!(rt.active(NodeId(5), t(2)).is_some());
    }

    #[test]
    fn rerr_invalidation_only_matches_via() {
        let mut rt = RoutingTable::new();
        rt.update(NodeId(5), NodeId(1), 3, 7, t(0), LIFE);
        assert_eq!(rt.invalidate_from_rerr(NodeId(5), 9, NodeId(2)), None);
        assert_eq!(rt.invalidate_from_rerr(NodeId(5), 9, NodeId(1)), Some(9));
        assert!(rt.active(NodeId(5), t(1)).is_none());
    }

    mod differential {
        //! The flat table against the hash-map implementation it replaced.

        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// The pre-flattening `RoutingTable`, verbatim except for the
        /// container: the behavioral oracle for the proptest below.
        #[derive(Default)]
        struct ReferenceTable {
            routes: HashMap<NodeId, Route>,
        }

        impl ReferenceTable {
            fn active(&self, dst: NodeId, now: SimTime) -> Option<&Route> {
                self.routes.get(&dst).filter(|r| r.valid && r.expires > now)
            }

            fn update(
                &mut self,
                dst: NodeId,
                next_hop: NodeId,
                hop_count: u8,
                dst_seq: u32,
                now: SimTime,
                lifetime: SimDuration,
            ) -> bool {
                let fresh = Route {
                    next_hop,
                    hop_count,
                    dst_seq,
                    valid: true,
                    expires: now + lifetime,
                };
                match self.routes.get_mut(&dst) {
                    Some(old) => {
                        let stale = !old.valid || old.expires <= now;
                        let better = dst_seq > old.dst_seq
                            || (dst_seq == old.dst_seq && hop_count < old.hop_count)
                            || (dst_seq == old.dst_seq && next_hop == old.next_hop);
                        if stale || better {
                            *old = fresh;
                            true
                        } else {
                            false
                        }
                    }
                    None => {
                        self.routes.insert(dst, fresh);
                        true
                    }
                }
            }

            fn refresh(&mut self, dst: NodeId, now: SimTime, lifetime: SimDuration) {
                if let Some(r) = self.routes.get_mut(&dst) {
                    if r.valid {
                        r.expires = r.expires.max(now + lifetime);
                    }
                }
            }

            fn invalidate_via(&mut self, next_hop: NodeId) -> Vec<(NodeId, u32)> {
                let mut broken = Vec::new();
                for (&dst, route) in &mut self.routes {
                    if route.valid && route.next_hop == next_hop {
                        route.valid = false;
                        route.dst_seq = route.dst_seq.wrapping_add(1);
                        broken.push((dst, route.dst_seq));
                    }
                }
                broken.sort_by_key(|(d, _)| *d);
                broken
            }

            fn invalidate_from_rerr(
                &mut self,
                dst: NodeId,
                dst_seq: u32,
                via: NodeId,
            ) -> Option<u32> {
                let r = self.routes.get_mut(&dst)?;
                if r.valid && r.next_hop == via {
                    r.valid = false;
                    r.dst_seq = r.dst_seq.max(dst_seq);
                    Some(r.dst_seq)
                } else {
                    None
                }
            }
        }

        /// One step of the table op language; node ids and times stay
        /// small so operations collide the way real routing churn does.
        #[derive(Debug, Clone)]
        enum Op {
            Update {
                dst: u32,
                next_hop: u32,
                hop_count: u8,
                dst_seq: u32,
                at: u64,
            },
            Refresh {
                dst: u32,
                at: u64,
            },
            InvalidateVia {
                next_hop: u32,
            },
            Rerr {
                dst: u32,
                dst_seq: u32,
                via: u32,
            },
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                ((0u32..12, 0u32..12), (1u8..8, 0u32..6, 0u64..40)).prop_map(
                    |((dst, next_hop), (hop_count, dst_seq, at))| Op::Update {
                        dst,
                        next_hop,
                        hop_count,
                        dst_seq,
                        at,
                    }
                ),
                (0u32..12, 0u64..40).prop_map(|(dst, at)| Op::Refresh { dst, at }),
                (0u32..12).prop_map(|next_hop| Op::InvalidateVia { next_hop }),
                (0u32..12, 0u32..6, 0u32..12).prop_map(|(dst, dst_seq, via)| Op::Rerr {
                    dst,
                    dst_seq,
                    via
                }),
            ]
        }

        proptest! {
            /// Differential: random route churn must leave the flat table
            /// and the hash-map oracle observably identical — same return
            /// values, same active-route answers, same entries.
            #[test]
            fn flat_table_matches_hashmap_oracle(
                ops in proptest::collection::vec(op_strategy(), 0..150),
            ) {
                let mut flat = RoutingTable::new();
                let mut oracle = ReferenceTable::default();
                for op in ops {
                    match op {
                        Op::Update { dst, next_hop, hop_count, dst_seq, at } => {
                            prop_assert_eq!(
                                flat.update(
                                    NodeId(dst), NodeId(next_hop),
                                    hop_count, dst_seq, t(at), LIFE,
                                ),
                                oracle.update(
                                    NodeId(dst), NodeId(next_hop),
                                    hop_count, dst_seq, t(at), LIFE,
                                ),
                            );
                        }
                        Op::Refresh { dst, at } => {
                            flat.refresh(NodeId(dst), t(at), LIFE);
                            oracle.refresh(NodeId(dst), t(at), LIFE);
                        }
                        Op::InvalidateVia { next_hop } => {
                            prop_assert_eq!(
                                flat.invalidate_via(NodeId(next_hop)),
                                oracle.invalidate_via(NodeId(next_hop)),
                            );
                        }
                        Op::Rerr { dst, dst_seq, via } => {
                            prop_assert_eq!(
                                flat.invalidate_from_rerr(NodeId(dst), dst_seq, NodeId(via)),
                                oracle.invalidate_from_rerr(NodeId(dst), dst_seq, NodeId(via)),
                            );
                        }
                    }
                    prop_assert_eq!(flat.len(), oracle.routes.len());
                }
                // Full-content and active-view equality at a few probe times.
                for dst in 0..12 {
                    prop_assert_eq!(
                        flat.get(NodeId(dst)),
                        oracle.routes.get(&NodeId(dst)),
                    );
                    for at in [0, 20, 45] {
                        prop_assert_eq!(
                            flat.active(NodeId(dst), t(at)),
                            oracle.active(NodeId(dst), t(at)),
                        );
                    }
                }
            }
        }
    }
}
