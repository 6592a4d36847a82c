//! Per-node protocol state, built when a signal first reaches its node.
//!
//! Most nodes of a large field never hear a thing: a round's signals
//! reach a tenth of a city, a route-request flood about half. So a node's
//! [`NodeRecord`] is built the first time anything writes to it — a
//! wave's signal edge, a decodable reception's energy meter, a flow
//! source's first send — exactly as a set-up-time build would have built
//! it. Each record's random streams come from the root by jump-ahead
//! ([`Pcg32::fork_at`]): fork *i* for DCF *i*, fork *n + i* for router
//! *i*, the streams the sequential set-up forks drew, so runs do not
//! depend on the order records are built in.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

use mwn_aodv::{AodvConfig, Router};
use mwn_mac80211::{Dcf, MacParams, MacTimer};
use mwn_phy::{EnergyMeter, Transceiver};
use mwn_pkt::NodeId;
use mwn_sim::{EventId, Pcg32};

use super::cascade::ParkedNav;

/// One node's protocol state: radio, MAC, router, energy meter, MAC
/// timer row and parked NAV.
#[derive(Debug)]
pub(super) struct NodeRecord {
    pub radio: Transceiver,
    pub mac: Dcf,
    pub router: Router,
    pub energy: EnergyMeter,
    /// Queued MAC timers, indexed by [`MacTimer::index`].
    pub mac_timers: [Option<EventId>; MacTimer::COUNT],
    /// The parked NAV, if any (`cascade::set_mac_timer`).
    pub nav_parked: Option<ParkedNav>,
}

/// What a record is built from: the scenario's constants and its root
/// stream before any fork.
#[derive(Debug)]
struct Recipe {
    nodes: u64,
    params: Arc<MacParams>,
    capture: Option<f64>,
    aodv: AodvConfig,
    root: Pcg32,
}

impl Recipe {
    /// Node `i`'s record as a set-up-time build makes it.
    fn build(&self, i: usize) -> NodeRecord {
        let id = NodeId(i as u32);
        NodeRecord {
            radio: Transceiver::with_capture(self.capture),
            mac: Dcf::new(id, Arc::clone(&self.params), self.root.fork_at(i as u64)),
            router: Router::new(
                id,
                self.aodv,
                self.root.fork_at(self.nodes + i as u64),
                // uid namespace: top bit set, node id in the next bits.
                (1 << 63) | ((i as u64) << 40),
            ),
            energy: EnergyMeter::new(),
            mac_timers: [None; MacTimer::COUNT],
            nav_parked: None,
        }
    }
}

/// Every node's [`NodeRecord`], built on first write and indexed by node
/// id.
///
/// Each record is its own allocation behind an 8-byte entry (a null
/// entry is a node no record was built for), so the table never grows
/// and a record never moves. A 4-byte slot table into a slab of
/// fixed-size chunks holds the same records, but puts one more dependent
/// load in front of every access: on the 8-hop chain it cost about 5 %
/// more CPU per packet than this layout.
#[derive(Debug)]
pub(super) struct NodeTable {
    records: Vec<Option<Box<NodeRecord>>>,
    built: usize,
    /// What an untouched node reads as.
    pristine: Box<NodeRecord>,
    recipe: Recipe,
}

impl NodeTable {
    /// A table for `n` nodes holding no record; `root` is the scenario's
    /// root stream before any fork.
    pub fn new(
        n: usize,
        params: Arc<MacParams>,
        capture: Option<f64>,
        aodv: AodvConfig,
        root: Pcg32,
    ) -> Self {
        let recipe = Recipe {
            nodes: n as u64,
            params,
            capture,
            aodv,
            root,
        };
        NodeTable {
            records: (0..n).map(|_| None).collect(),
            built: 0,
            pristine: Box::new(recipe.build(0)),
            recipe,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Number of records built.
    pub fn records(&self) -> usize {
        self.built
    }

    /// `node`'s record, building it first if it has none.
    #[inline]
    pub fn touch(&mut self, node: NodeId) -> &mut NodeRecord {
        if self.records[node.index()].is_none() {
            self.insert(node.index());
        }
        &mut self[node]
    }

    #[cold]
    #[inline(never)]
    fn insert(&mut self, i: usize) {
        self.records[i] = Some(Box::new(self.recipe.build(i)));
        self.built += 1;
    }

    /// `node`'s record, or the pristine record every node starts as.
    pub fn get(&self, node: NodeId) -> &NodeRecord {
        self.records[node.index()]
            .as_deref()
            .unwrap_or(&self.pristine)
    }

    /// Heap bytes of the built records: each record itself plus what it
    /// holds (active signals, interface queue, receive-dedup cache,
    /// routing and duplicate tables, discovery buffers).
    pub fn memory_bytes(&self) -> usize {
        self.iter()
            .map(|(_, r)| {
                std::mem::size_of::<NodeRecord>()
                    + r.radio.memory_bytes()
                    + r.mac.memory_bytes()
                    + r.router.memory_bytes()
            })
            .sum()
    }

    /// The built records with their node indices, in node order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &NodeRecord)> {
        let records = self.records.iter().enumerate();
        records.filter_map(|(i, r)| Some((i, r.as_deref()?)))
    }
}

/// The record of a node that is acting: a signal or its flow's start
/// reached it before, so its record exists. Indexing a node without one
/// panics.
impl Index<NodeId> for NodeTable {
    type Output = NodeRecord;

    #[inline]
    fn index(&self, node: NodeId) -> &NodeRecord {
        self.records[node.index()]
            .as_deref()
            .expect("a node acts only once its record is built")
    }
}

impl IndexMut<NodeId> for NodeTable {
    #[inline]
    fn index_mut(&mut self, node: NodeId) -> &mut NodeRecord {
        self.records[node.index()]
            .as_deref_mut()
            .expect("a node acts only once its record is built")
    }
}
