//! A flat, sorted per-node map keyed by [`NodeId`].
//!
//! The router's destination-keyed tables (routes, RREQ duplicate
//! suppression, pending discoveries) and the MAC's receive-dedup cache
//! used to be hash maps. At city scale
//! (50 000 routers) the per-map overhead — heap-sparse buckets, hasher
//! state, worst-case iteration order — dominates the entries themselves,
//! and hash iteration order is a determinism hazard. `NodeMap` stores
//! entries in one dense `Vec` sorted by key: lookups are binary searches
//! over cache-contiguous memory, iteration is ordered by `NodeId` (so
//! anything derived from it is deterministic for free), and the memory
//! footprint is exactly `len × (key + value)` plus one allocation.
//!
//! Typical tables hold a handful of destinations (a router only learns
//! routes its traffic touches), where a sorted vec also beats a hash map
//! on constants. Most hold one: a route-request flood leaves every
//! forwarder with one reverse route and one seen-request entry and
//! nothing more, so a map's first allocation is exactly one entry, and
//! growth is amortised from the second insert on (capacity 1 → 4 → 8).

use crate::NodeId;

/// A sorted-`Vec` map from [`NodeId`] to `V`.
#[derive(Debug, Clone)]
pub struct NodeMap<V> {
    entries: Vec<(NodeId, V)>,
}

impl<V> Default for NodeMap<V> {
    fn default() -> Self {
        NodeMap {
            entries: Vec::new(),
        }
    }
}

impl<V> NodeMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, key: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |(k, _)| *k)
    }

    /// Inserts a new entry at `i`: the first allocation holds exactly
    /// one, later ones grow as `Vec` does.
    fn insert_at(&mut self, i: usize, key: NodeId, value: V) {
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(1);
        }
        self.entries.insert(i, (key, value));
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: NodeId) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value for `key`, if present.
    pub fn get_mut(&mut self, key: NodeId) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// `true` if `key` has a value.
    pub fn contains_key(&self, key: NodeId) -> bool {
        self.position(key).is_ok()
    }

    /// Inserts `value` for `key`, returning the previous value if any.
    pub fn insert(&mut self, key: NodeId, value: V) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// The value for `key`, inserting `default()` first if absent.
    pub fn or_insert_with(&mut self, key: NodeId, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(key) {
            Ok(i) => i,
            Err(i) => {
                self.insert_at(i, key, default());
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Removes and returns the value for `key`, if present.
    pub fn remove(&mut self, key: NodeId) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Mutable entries in ascending key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (*k, v))
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes held by the entry storage (capacity, not just length —
    /// what the allocator actually charged us), for the engine's
    /// `bytes_per_node` accounting.
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(NodeId, V)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn basic_operations() {
        let mut m = NodeMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(NodeId(5), "five"), None);
        assert_eq!(m.insert(NodeId(2), "two"), None);
        assert_eq!(m.insert(NodeId(5), "FIVE"), Some("five"));
        assert_eq!(m.get(NodeId(5)), Some(&"FIVE"));
        assert_eq!(m.get(NodeId(3)), None);
        assert!(m.contains_key(NodeId(2)));
        assert_eq!(m.len(), 2);
        *m.or_insert_with(NodeId(9), || "nine") = "NINE";
        assert_eq!(m.remove(NodeId(9)), Some("NINE"));
        assert_eq!(m.remove(NodeId(9)), None);
        // Iteration is ordered by key.
        let keys: Vec<NodeId> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![NodeId(2), NodeId(5)]);
        assert!(m.memory_bytes() >= 2 * std::mem::size_of::<(NodeId, &str)>());
    }

    /// A map that is never written allocates nothing; the first insert
    /// reserves one entry, and growth is amortised after it.
    #[test]
    fn first_insert_reserves_exactly_one_entry() {
        let mut m: NodeMap<u32> = NodeMap::new();
        assert_eq!(m.memory_bytes(), 0);
        let entry = std::mem::size_of::<(NodeId, u32)>();
        let mut capacities = Vec::new();
        for k in 0..5 {
            m.insert(NodeId(k), k);
            capacities.push(m.memory_bytes() / entry);
        }
        assert_eq!(capacities, vec![1, 4, 4, 4, 8]);
        let mut m: NodeMap<u32> = NodeMap::new();
        *m.or_insert_with(NodeId(3), || 0) += 1;
        assert_eq!(m.memory_bytes(), entry);
    }

    /// One step of the map-differential op language.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u64),
        Remove(u32),
        OrInsert(u32, u64),
        GetMutAdd(u32, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Keys drawn from a small range so operations collide like a
        // router's tables do (few destinations, many touches).
        prop_oneof![
            (0u32..24, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u32..24).prop_map(Op::Remove),
            (0u32..24, any::<u64>()).prop_map(|(k, v)| Op::OrInsert(k, v)),
            (0u32..24, 0u64..1000).prop_map(|(k, v)| Op::GetMutAdd(k, v)),
        ]
    }

    proptest! {
        /// Differential: the flat sorted map must behave exactly like the
        /// hash map it replaced, under random router-shaped op sequences.
        #[test]
        fn matches_hashmap_reference(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut flat: NodeMap<u64> = NodeMap::new();
            let mut reference: HashMap<NodeId, u64> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(flat.insert(NodeId(k), v), reference.insert(NodeId(k), v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(flat.remove(NodeId(k)), reference.remove(&NodeId(k)));
                    }
                    Op::OrInsert(k, v) => {
                        let a = *flat.or_insert_with(NodeId(k), || v);
                        let b = *reference.entry(NodeId(k)).or_insert(v);
                        prop_assert_eq!(a, b);
                    }
                    Op::GetMutAdd(k, v) => {
                        if let Some(x) = flat.get_mut(NodeId(k)) { *x += v; }
                        if let Some(x) = reference.get_mut(&NodeId(k)) { *x += v; }
                    }
                }
                prop_assert_eq!(flat.len(), reference.len());
            }
            // Full-content equality, and sorted iteration.
            let mut expect: Vec<(NodeId, u64)> = reference.into_iter().collect();
            expect.sort_by_key(|(k, _)| *k);
            let got: Vec<(NodeId, u64)> = flat.iter().map(|(k, v)| (k, *v)).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
