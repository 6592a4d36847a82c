//! Per-node state: a dense radio table for every node, and protocol
//! state built when its node's MAC or router first acts.
//!
//! Every node has its radio state from set-up on, in dense node-indexed
//! arrays: a 32-byte slot of the [`RadioTable`] (the signal on the air,
//! the lock, the transmitting bit, the `undecoded` count; overlapping
//! signals go to the table's one overflow store while they overlap), a
//! 4-byte slot for the energy meter it gets at its first transmission or
//! decodable reception (with its capture and collision counts beside it),
//! and two [`MacRest`] bits that let a signal edge at a node whose MAC
//! has nothing to do stop at the radio (see
//! `cascade::process_radio_events`): 38 B a node.
//! Most receivers of a large field are such bystanders: a transmission
//! reaches about 45 nodes inside its 550 m carrier-sense range, and
//! most of them only sense it. So a node's [`NodeRecord`] (MAC, router,
//! timer row, parked NAV) is built the first time its MAC or router
//! acts — an intact reception, a queued send, a flow source's first
//! send — exactly as a set-up-time build would have built it. Each
//! record's random streams come from the root by jump-ahead
//! ([`Pcg32::fork_at`]): fork *i* for DCF *i*, fork *n + i* for router
//! *i*, the streams the sequential set-up forks drew, so runs do not
//! depend on the order records are built in.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

use mwn_aodv::{AodvConfig, Router};
use mwn_mac80211::{Dcf, MacParams, MacTimer};
use mwn_phy::RadioTable;
use mwn_pkt::NodeId;
use mwn_sim::{EventId, Pcg32};

use super::cascade::ParkedNav;

/// What the host keeps for a node's MAC while the MAC sits out radio
/// batches, held for every node.
#[derive(Debug, Clone, Copy)]
pub(super) struct MacRest {
    /// The node's MAC is quiet ([`Dcf::is_quiet`]) and sits out radio
    /// batches it has no answer to; the radio tracks the carrier for it.
    pub quiet: bool,
    /// A corrupt or undecoded end reached the node while it was quiet:
    /// its MAC owes an EIFS.
    pub eifs: bool,
}

/// One node's protocol state: MAC, router, MAC timer row and parked NAV.
#[derive(Debug)]
pub(super) struct NodeRecord {
    pub mac: Dcf,
    pub router: Router,
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
    aodv: AodvConfig,
    root: Pcg32,
}

impl Recipe {
    /// Node `i`'s record as a set-up-time build makes it.
    fn build(&self, i: usize) -> NodeRecord {
        let id = NodeId(i as u32);
        NodeRecord {
            mac: Dcf::new(id, Arc::clone(&self.params), self.root.fork_at(i as u64)),
            router: Router::new(
                id,
                self.aodv,
                self.root.fork_at(self.nodes + i as u64),
                // uid namespace: top bit set, node id in the next bits.
                (1 << 63) | ((i as u64) << 40),
            ),
            mac_timers: [None; MacTimer::COUNT],
            nav_parked: None,
        }
    }
}

/// Every node's radio (its energy meter once charged) and [`MacRest`],
/// and its [`NodeRecord`] once built, all by node id.
///
/// The radio state is arrays, not one array of cells: a bystander's
/// signal edge reads its rest bits (2 B a node, so a 20 000-node field's
/// fit in the cache) and updates its radio slot, and never touches the
/// energy meters, which only a decodable reception's start and a
/// transmission charge. Those are kept only for the nodes they charged
/// (a round of a 20 000-node field charges about one in twenty), behind
/// a 4-byte slot per node.
///
/// Each record is its own allocation behind an 8-byte entry (a null
/// entry is a node no record was built for), so the table never grows
/// and a record never moves. A 4-byte slot table into a slab of
/// fixed-size chunks holds the same records, but puts one more dependent
/// load in front of every access: on the 8-hop chain it cost about 5 %
/// more CPU per packet than this layout.
#[derive(Debug)]
pub(super) struct NodeTable {
    radios: RadioTable,
    rest: Vec<MacRest>,
    records: Vec<Option<Box<NodeRecord>>>,
    built: usize,
    /// What an untouched node reads as.
    pristine: Box<NodeRecord>,
    recipe: Recipe,
}

impl NodeTable {
    /// A table for `n` nodes holding `n` idle radios with quiet MACs, no
    /// energy meter and no record; `root` is the scenario's root stream
    /// before any fork.
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
            aodv,
            root,
        };
        let rest = MacRest {
            quiet: true,
            eifs: false,
        };
        NodeTable {
            radios: RadioTable::new(n, capture),
            rest: vec![rest; n],
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

    /// Every node's radio.
    #[inline]
    pub fn radios(&self) -> &RadioTable {
        &self.radios
    }

    /// Every node's radio, mutably.
    #[inline]
    pub fn radios_mut(&mut self) -> &mut RadioTable {
        &mut self.radios
    }

    /// What the host keeps for `node`'s MAC.
    #[inline]
    pub fn rest(&self, node: NodeId) -> MacRest {
        self.rest[node.index()]
    }

    /// What the host keeps for `node`'s MAC, mutably.
    #[inline]
    pub fn rest_mut(&mut self, node: NodeId) -> &mut MacRest {
        &mut self.rest[node.index()]
    }

    /// The radio state every node holds, in bytes: radio slot,
    /// energy-meter slot and [`MacRest`].
    pub const fn radio_bytes() -> usize {
        RadioTable::BYTES_PER_NODE + std::mem::size_of::<MacRest>()
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

    /// Heap bytes of the radios' overflow store and energy meters (by
    /// capacity) and of the built records: each record itself plus what
    /// it holds (interface queue, receive-dedup cache, routing and
    /// duplicate tables, discovery buffers).
    pub fn memory_bytes(&self) -> usize {
        let radios = self.radios.memory_bytes();
        let records: usize = self
            .iter()
            .map(|(_, r)| {
                std::mem::size_of::<NodeRecord>() + r.mac.memory_bytes() + r.router.memory_bytes()
            })
            .sum();
        radios + records
    }

    /// The built records with their node indices, in node order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &NodeRecord)> {
        let records = self.records.iter().enumerate();
        records.filter_map(|(i, r)| Some((i, r.as_deref()?)))
    }
}

/// The record of a node that is acting: its MAC or router acted before,
/// so its record exists. Indexing a node without one panics.
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
