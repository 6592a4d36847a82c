//! The shared wireless medium: who hears whom, and how.

use std::time::Instant;

use mwn_pkt::NodeId;
use mwn_sim::SimDuration;

use crate::counters::MediumCounters;
use crate::grid::SpatialGrid;
use crate::position::Position;

/// Speed of light, m/s, for propagation delays.
const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// The three-radius propagation model of the paper.
///
/// ns-2's two-ray-ground configuration with the paper's parameters yields
/// exactly three fixed radii: frames decode within `tx_range`, raise carrier
/// sense within `cs_range`, and corrupt concurrent receptions within
/// `interference_range`.
///
/// # Example
///
/// ```
/// use mwn_phy::RangeModel;
///
/// let m = RangeModel::paper();
/// assert_eq!(m.tx_range, 250.0);
/// assert_eq!(m.cs_range, 550.0);
/// assert_eq!(m.interference_range, 550.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeModel {
    /// Distance within which frames are decodable (m).
    pub tx_range: f64,
    /// Distance within which energy is sensed (physical carrier sense) (m).
    pub cs_range: f64,
    /// Distance within which a transmission corrupts a concurrent
    /// reception (m).
    pub interference_range: f64,
    /// Friis → two-ray-ground crossover distance (m); received power falls
    /// as d⁻² below it and d⁻⁴ beyond, matching ns-2's default antennas.
    pub crossover: f64,
    /// Capture threshold (ns-2's `CPThresh_`, a linear power ratio): a
    /// locked reception survives interference at least this much weaker.
    /// `None` disables capture — any overlap corrupts.
    pub capture_threshold: Option<f64>,
}

impl RangeModel {
    /// The paper's configuration: 250 m transmission range, 550 m carrier
    /// sensing and interference range, two-ray-ground propagation with a
    /// 226 m crossover and 10× capture (ns-2 defaults).
    pub fn paper() -> Self {
        RangeModel {
            tx_range: 250.0,
            cs_range: 550.0,
            interference_range: 550.0,
            crossover: 226.0,
            capture_threshold: Some(10.0),
        }
    }

    /// The same ranges with capture disabled (every overlapping
    /// transmission within interference range corrupts) — the
    /// conservative model, used by the capture ablation bench.
    pub fn without_capture() -> Self {
        RangeModel {
            capture_threshold: None,
            ..Self::paper()
        }
    }

    /// Checks the geometric invariants every consumer of the model relies
    /// on. [`Medium::new`] calls this, so a custom model that would
    /// silently produce inconsistent [`RangeModel::classify`] results
    /// (e.g. frames decodable beyond carrier sense, so a transmission is
    /// received where it was never sensed) is rejected up front.
    ///
    /// # Panics
    ///
    /// Panics unless all ranges are positive and finite,
    /// `tx_range ≤ min(cs_range, interference_range)`, `crossover > 0`,
    /// and `capture_threshold > 1` when set (a ratio ≤ 1 would let a
    /// signal capture over interference at least as strong as itself).
    pub fn validate(&self) {
        assert!(
            self.tx_range.is_finite() && self.tx_range > 0.0,
            "tx_range must be positive and finite"
        );
        assert!(
            self.cs_range.is_finite() && self.interference_range.is_finite(),
            "cs/interference ranges must be finite"
        );
        assert!(
            self.tx_range <= self.cs_range && self.tx_range <= self.interference_range,
            "tx_range ({}) must not exceed cs_range ({}) or interference_range ({}): \
             frames would decode where they are neither sensed nor interfering",
            self.tx_range,
            self.cs_range,
            self.interference_range
        );
        assert!(
            self.crossover.is_finite() && self.crossover > 0.0,
            "crossover must be positive and finite"
        );
        if let Some(c) = self.capture_threshold {
            assert!(
                c.is_finite() && c > 1.0,
                "capture_threshold must be a ratio > 1 (got {c})"
            );
        }
    }

    /// The largest distance at which a transmission has any effect — the
    /// cell size of the medium's spatial grid.
    pub fn max_range(&self) -> f64 {
        self.tx_range
            .max(self.cs_range)
            .max(self.interference_range)
    }

    /// Relative received power at distance `d` (arbitrary linear units):
    /// Friis `d⁻²` up to the crossover, two-ray-ground `d⁻⁴` beyond,
    /// continuous at the crossover.
    pub fn rel_power(&self, d: f64) -> f64 {
        let d = d.max(1.0); // clamp: co-located nodes saturate
        if d <= self.crossover {
            d.powi(-2)
        } else {
            self.crossover.powi(2) * d.powi(-4)
        }
    }

    /// Classifies a signal crossing distance `d`, or `None` if the signal
    /// is too weak to matter at all.
    pub fn classify(&self, d: f64) -> Option<SignalClass> {
        let decodable = d <= self.tx_range;
        let senses = d <= self.cs_range || decodable;
        let interferes = d <= self.interference_range || decodable;
        if decodable || senses || interferes {
            Some(SignalClass {
                decodable,
                senses,
                interferes,
                power: self.rel_power(d),
            })
        } else {
            None
        }
    }
}

impl Default for RangeModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// How a signal from a particular transmitter appears at a particular
/// receiver. Fixed per node pair in a static network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalClass {
    /// The receiver can decode the frame (absent collisions).
    pub decodable: bool,
    /// The receiver's physical carrier sense reports the medium busy.
    pub senses: bool,
    /// The signal may corrupt a concurrent reception at this receiver
    /// (subject to the capture threshold).
    pub interferes: bool,
    /// Relative received power (see [`RangeModel::rel_power`]).
    pub power: f64,
}

/// The shared wireless medium: node positions plus the range model, with
/// per-transmitter effect lists built and rebuilt *lazily*.
///
/// Effect lists are derived through a [`SpatialGrid`] with cell size
/// [`RangeModel::max_range`] — a flat cell table over the initial
/// positions' bounding box — so one list costs O(k) for k = nodes per
/// 3×3 cell neighborhood (instead of the dense O(n)).
///
/// # Epoch-stamped laziness
///
/// [`Medium::move_nodes`] is O(moved): it only updates positions,
/// relocates grid occupants and bumps a global **epoch**. Effect lists
/// are *not* recomputed at move time. Instead each node carries the epoch
/// its stored list was built at, and [`Medium::refresh`] serves that list
/// iff it is the current one: a list built at epoch *e* is exact iff no
/// move batch happened since. [`Medium::lazy`] stores no list at all: it
/// stamps every node with an epoch no list can reach. At city scale most
/// nodes move every tick but transmit rarely, so almost all build and
/// recompute work vanishes; correctness is unchanged because link sets
/// depend only on *current* positions at query time (pinned by the
/// lazy-vs-eager differentials against the dense all-pairs
/// `ReferenceMedium` oracle).
///
/// # Admission: a list is stored on its node's second refresh in an epoch
///
/// A node's first [`Medium::refresh`] in an epoch without a current
/// stored list fills the list into a small ring of one-shot buffers and
/// stores nothing; its second stores the list in the node's own slot,
/// adopting it from the ring if the ring still holds it, else building
/// (never stored) or rebuilding (stored before a move batch) it in
/// place. A node whose list was ever stored stores at its first
/// refresh: it already holds the slot, and a repeat transmitter is the
/// likeliest to send again before the ring wraps. So
/// a route-request flood, where most forwarders transmit once, pins no
/// list per forwarder, while a node that transmits repeatedly pays one
/// scan per epoch. A one-shot list and a stored list at the
/// same epoch are the same pure function of the positions, so what a
/// refresh returns does not depend on the rule. [`Medium::new`] and
/// [`Medium::refresh_all`] store every list through the same scan and
/// sort.
///
/// The grid is a pure acceleration structure: candidate receivers still
/// pass the exact [`RangeModel::classify`] distance tests, and every list
/// is in *arrival order* — by propagation delay, ties by node id — so it
/// is bit-identical to the dense scan's (a differential proptest checks
/// this).
///
/// [`Medium::new`] is [`Medium::lazy`] with every list stored, for
/// callers that read lists through `&self` ([`Medium::effects_of`])
/// right away; a host that reads through [`Medium::refresh`] uses
/// [`Medium::lazy`].
///
/// # Example
///
/// ```
/// use mwn_phy::{Medium, Position, RangeModel};
/// use mwn_pkt::NodeId;
///
/// // 3-node chain, 200 m spacing: node 0 decodes at node 1, senses at 2.
/// let positions = vec![
///     Position::new(0.0, 0.0),
///     Position::new(200.0, 0.0),
///     Position::new(400.0, 0.0),
/// ];
/// let mut medium = Medium::new(positions, RangeModel::paper());
/// let fx = medium.refresh(NodeId(0));
/// assert_eq!(fx.len(), 2);
/// assert!(fx[0].class.decodable);   // node 1
/// assert!(!fx[1].class.decodable);  // node 2: senses only
/// assert!(fx[1].class.senses);
/// assert!(fx[0].delay < fx[1].delay);
/// ```
#[derive(Debug, Clone)]
pub struct Medium {
    positions: Vec<Position>,
    ranges: RangeModel,
    /// `effects[tx]` lists every node a transmission from `tx` affects, exact
    /// as of epoch `node_epoch[tx]`, in arrival order.
    effects: Vec<Vec<Effect>>,
    /// Node index per cell; cell size = `ranges.max_range()`.
    grid: SpatialGrid,
    /// Reusable candidate-id buffer (steady state allocates nothing).
    scratch: Vec<u32>,
    /// Global move epoch: bumped once per non-empty [`Medium::move_nodes`]
    /// batch.
    epoch: u64,
    /// Epoch at which each node's effect list was stored; [`NEVER_BUILT`]
    /// before its first.
    node_epoch: Vec<u64>,
    /// Epoch of each node's latest one-shot list ([`NEVER_BUILT`] before
    /// its first): a refresh that finds the current epoch here is the
    /// node's second in this epoch, and stores its list.
    one_shot_epoch: Vec<u64>,
    /// The latest one-shot lists, filled round robin from `ring_next`.
    ring: Vec<OneShot>,
    ring_next: usize,
    /// Cumulative lazy-path statistics (see [`MediumCounters`]).
    counters: MediumCounters,
    /// Scan-and-sort calls and their wall seconds since the last
    /// [`Medium::take_lazy_profile`] drain.
    pending: (u64, f64),
}

/// The `node_epoch` of a list never built: an epoch the move counter
/// never reaches, so [`Medium::refresh`]'s one staleness rule builds it.
const NEVER_BUILT: u64 = u64::MAX;

/// One-shot buffers kept for a second refresh to adopt. On a flooding
/// `city-mobile` round 91 % of stored lists were adopted at 16 (79 % at
/// 8, 96 % at 32) before lists stored earlier skipped the ring, and 16 lists of ≈ 2 KB cost next to nothing beside the stored
/// ones.
const ONE_SHOT_RING: usize = 16;

/// A one-shot list and whose it is: `node`'s list at `epoch`
/// ([`NEVER_BUILT`] once adopted, or before the slot is first filled).
#[derive(Debug, Clone)]
struct OneShot {
    node: usize,
    epoch: u64,
    list: Vec<Effect>,
}

/// One receiver affected by a given transmitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effect {
    /// The affected node.
    pub node: NodeId,
    /// How the signal appears there.
    pub class: SignalClass,
    /// Propagation delay from transmitter to this node.
    pub delay: SimDuration,
}

impl Medium {
    /// [`Medium::lazy`] with every effect list stored, for callers that
    /// read lists through [`Medium::effects_of`] without refreshing them
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty or `ranges` is geometrically
    /// inconsistent (see [`RangeModel::validate`]).
    pub fn new(positions: Vec<Position>, ranges: RangeModel) -> Self {
        let mut medium = Self::lazy(positions, ranges);
        for i in 0..medium.len() {
            medium.store(i);
        }
        medium
    }

    /// Builds the grid and the positions but no effect list: each list is
    /// stored by the second [`Medium::refresh`] of its node in one epoch
    /// (see [`Medium`]), through the same scan and sort [`Medium::new`]
    /// and a rebuild use.
    ///
    /// # Panics
    ///
    /// As [`Medium::new`].
    pub fn lazy(positions: Vec<Position>, ranges: RangeModel) -> Self {
        assert!(!positions.is_empty(), "medium needs at least one node");
        ranges.validate();
        let grid = SpatialGrid::build(ranges.max_range(), &positions);
        let n = positions.len();
        Medium {
            positions,
            ranges,
            effects: vec![Vec::new(); n],
            grid,
            scratch: Vec::new(),
            epoch: 0,
            node_epoch: vec![NEVER_BUILT; n],
            one_shot_epoch: vec![NEVER_BUILT; n],
            ring: vec![
                OneShot {
                    node: 0,
                    epoch: NEVER_BUILT,
                    list: Vec::new(),
                };
                ONE_SHOT_RING
            ],
            ring_next: 0,
            counters: MediumCounters::default(),
            pending: (0, 0.0),
        }
    }

    /// Applies a batch of position updates lazily, in O(moved): the epoch
    /// is bumped, each mover is relocated in the grid, and *no* effect
    /// list is recomputed — stale lists are rebuilt on demand by
    /// [`Medium::refresh`] when a transmission (or carrier-sense fan-out)
    /// actually reads them.
    ///
    /// Duplicate ids in `moves` are applied in order (last position
    /// wins). Signals already in flight keep the classification they
    /// were launched with — an accepted approximation for node speeds far
    /// below frame airtimes.
    ///
    /// # Panics
    ///
    /// Panics if a move references a node outside the medium.
    pub fn move_nodes(&mut self, moves: &[(NodeId, Position)]) {
        if moves.is_empty() {
            return;
        }
        self.epoch += 1;
        for &(id, new) in moves {
            assert!(
                id.index() < self.positions.len(),
                "move references node {id:?} outside the medium"
            );
            self.grid
                .relocate(id.raw(), self.positions[id.index()], new);
            self.positions[id.index()] = new;
        }
    }

    /// Returns `tx`'s current effect list in arrival order — the hot-path
    /// accessor for transmission-time fan-out. A list stored at this
    /// epoch returns at once. Otherwise the node's first refresh in this
    /// epoch fills a one-shot list and stores nothing, and its second
    /// stores the list; a node that ever stored its list stores at once
    /// (see [`Medium`]).
    pub fn refresh(&mut self, tx: NodeId) -> &[Effect] {
        self.refresh_admitting(tx.index(), false)
    }

    /// [`Medium::refresh`], storing the list at once if `store`.
    fn refresh_admitting(&mut self, i: usize, store: bool) -> &[Effect] {
        self.counters.queries += 1;
        if self.node_epoch[i] != self.epoch {
            let second = self.one_shot_epoch[i] == self.epoch;
            let stored_before = self.node_epoch[i] != NEVER_BUILT;
            if !(store || second || stored_before) {
                return self.fill_one_shot(i);
            }
            self.store(i);
        }
        &self.effects[i]
    }

    /// Fills node `i`'s list at this epoch into the next ring slot, in
    /// arrival order, and returns it without storing it.
    fn fill_one_shot(&mut self, i: usize) -> &[Effect] {
        self.one_shot_epoch[i] = self.epoch;
        self.counters.one_shots += 1;
        let slot = self.ring_next;
        self.ring_next = (slot + 1) % ONE_SHOT_RING;
        let mut list = std::mem::take(&mut self.ring[slot].list);
        self.fill_sorted(i, &mut list);
        self.ring[slot] = OneShot {
            node: i,
            epoch: self.epoch,
            list,
        };
        &self.ring[slot].list
    }

    /// Stores node `i`'s list at this epoch: adopted from the ring if a
    /// one-shot fill left it there, else built or rebuilt in place.
    fn store(&mut self, i: usize) {
        if self.node_epoch[i] == NEVER_BUILT {
            self.counters.builds += 1;
        } else {
            self.counters.rebuilds += 1;
        }
        self.node_epoch[i] = self.epoch;
        let epoch = self.epoch;
        if let Some(shot) = self
            .ring
            .iter_mut()
            .find(|s| s.node == i && s.epoch == epoch)
        {
            std::mem::swap(&mut self.effects[i], &mut shot.list);
            shot.epoch = NEVER_BUILT;
            return;
        }
        let mut list = std::mem::take(&mut self.effects[i]);
        self.fill_sorted(i, &mut list);
        self.effects[i] = list;
    }

    /// Scans node `i`'s neighborhood into `list` and sorts it, timing
    /// both as one call.
    fn fill_sorted(&mut self, i: usize, list: &mut Vec<Effect>) {
        let mark = Instant::now();
        self.fill_effects(i, list);
        sort_into_arrival_order(list);
        self.pending.0 += 1;
        self.pending.1 += mark.elapsed().as_secs_f64();
    }

    /// Brings every effect list up to date and stores it, whatever the
    /// admission rule would do (the eager mode of the lazy-vs-eager
    /// differential, and the escape hatch for callers that want to
    /// iterate lists through `&self` after moves).
    pub fn refresh_all(&mut self) {
        for i in 0..self.positions.len() {
            self.refresh_admitting(i, true);
        }
    }

    /// `true` if `tx`'s effect list was stored at the current epoch —
    /// i.e. [`Medium::effects_of`] may be read without a
    /// [`Medium::refresh`]. A list never built, or only filled one-shot,
    /// is not fresh.
    pub fn is_fresh(&self, tx: NodeId) -> bool {
        self.node_epoch[tx.index()] == self.epoch
    }

    /// The current move epoch (0 until the first [`Medium::move_nodes`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative lazy-path statistics since construction.
    pub fn counters(&self) -> MediumCounters {
        MediumCounters {
            epoch: self.epoch,
            ..self.counters
        }
    }

    /// Drains the `(calls, wall seconds)` of the scans and sorts since
    /// the last drain: one call per one-shot fill, build and rebuild (a
    /// list adopted from the ring costs none) — the host feeds this into
    /// a timed bucket of its engine profile.
    pub fn take_lazy_profile(&mut self) -> (u64, f64) {
        std::mem::take(&mut self.pending)
    }

    /// Heap bytes of the effect lists: every stored list plus the
    /// one-shot ring, by capacity.
    pub fn memory_bytes(&self) -> usize {
        let lists = self.effects.iter().chain(self.ring.iter().map(|s| &s.list));
        lists.map(Vec::capacity).sum::<usize>() * std::mem::size_of::<Effect>()
    }

    /// Heap bytes of the per-node arrays, by capacity: positions,
    /// effect-list headers, the two epoch stamps and the spatial grid's
    /// entries — what a node costs the medium whether
    /// or not it ever transmits. The lists themselves are
    /// [`Medium::memory_bytes`].
    pub fn index_bytes(&self) -> usize {
        use std::mem::size_of;
        self.positions.capacity() * size_of::<Position>()
            + self.effects.capacity() * size_of::<Vec<Effect>>()
            + (self.node_epoch.capacity() + self.one_shot_epoch.capacity()) * size_of::<u64>()
            + self.grid.memory_bytes()
    }

    /// Recomputes `tx`'s effect list into `bucket` from its grid neighborhood.
    /// Candidates beyond `max_range` (plus a 1 µm guard for the
    /// inclusive boundary) are rejected on the squared distance, skipping
    /// the sqrt for the ~⅔ of each 3×3 neighborhood that lies outside the
    /// range circle; survivors pass the exact [`RangeModel::classify`]
    /// test on `sqrt(d²)` — bit-identical to [`Position::distance_to`],
    /// which evaluates the same expression. The list is left in candidate
    /// order.
    fn fill_effects(&mut self, tx: usize, bucket: &mut Vec<Effect>) {
        let pos = self.positions[tx];
        let scratch = &mut self.scratch;
        bucket.clear();
        scratch.clear();
        self.grid.candidates_near(pos, scratch);
        let limit = self.ranges.max_range() + 1e-6;
        let limit2 = limit * limit;
        for &rx in scratch.iter() {
            if rx as usize == tx {
                continue;
            }
            let other = self.positions[rx as usize];
            let d2 = (pos.x - other.x).powi(2) + (pos.y - other.y).powi(2);
            if d2 > limit2 {
                continue;
            }
            let d = d2.sqrt();
            if let Some(class) = self.ranges.classify(d) {
                bucket.push(Effect {
                    node: NodeId(rx),
                    class,
                    delay: SimDuration::from_secs_f64(d / SPEED_OF_LIGHT),
                });
            }
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the medium has no nodes (never: `new` requires one).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Node positions.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// The configured range model.
    pub fn ranges(&self) -> RangeModel {
        self.ranges
    }

    /// Every node affected by a transmission from `tx`, with classification
    /// and propagation delay.
    ///
    /// Reads the stored list, in arrival order, without refreshing it:
    /// exact for a static [`Medium::new`] medium (no moves ever), or after
    /// [`Medium::refresh`] / [`Medium::refresh_all`]. Hosts driving
    /// mobility, and any [`Medium::lazy`] medium, use [`Medium::refresh`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the list is stale or was never built (not
    /// [`Medium::is_fresh`]), in release builds too.
    pub fn effects_of(&self, tx: NodeId) -> &[Effect] {
        assert!(
            self.is_fresh(tx),
            "effects_of({tx:?}) on a stale list; call refresh() after move_nodes()"
        );
        &self.effects[tx.index()]
    }
}

/// Puts an effect list into arrival order: by propagation delay, ties by
/// node id — the one order every list is read in.
fn sort_into_arrival_order(list: &mut [Effect]) {
    list.sort_unstable_by_key(|e| (e.delay, e.node));
}

/// The dense all-pairs medium the spatial grid replaced, kept as the
/// oracle for differential tests (mirroring `ReferenceEventQueue` in
/// `mwn-sim`): every refreshed [`Medium`] list must be bit-identical to
/// this O(n²) implementation's for any position set and move sequence.
///
/// Test-only (the `oracle` feature): construction and updates cost O(n²).
#[cfg(any(test, feature = "oracle"))]
#[derive(Debug, Clone)]
pub struct ReferenceMedium {
    positions: Vec<Position>,
    ranges: RangeModel,
    effects: Vec<Vec<Effect>>,
}

#[cfg(any(test, feature = "oracle"))]
impl ReferenceMedium {
    /// Builds the reference medium with a dense all-pairs scan.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty or `ranges` is invalid, exactly as
    /// [`Medium::new`].
    pub fn new(positions: Vec<Position>, ranges: RangeModel) -> Self {
        assert!(!positions.is_empty(), "medium needs at least one node");
        ranges.validate();
        let mut medium = ReferenceMedium {
            positions,
            ranges,
            effects: Vec::new(),
        };
        medium.recompute();
        medium
    }

    /// Moves nodes and recomputes all pairwise effects densely; the
    /// oracle counterpart of [`Medium::move_nodes`].
    ///
    /// # Panics
    ///
    /// Panics if a move references a node outside the medium.
    pub fn move_nodes(&mut self, moves: &[(NodeId, Position)]) {
        for &(id, new) in moves {
            assert!(
                id.index() < self.positions.len(),
                "move references node {id:?} outside the medium"
            );
            self.positions[id.index()] = new;
        }
        self.recompute();
    }

    /// Dense single-transmitter scan over arbitrary positions — the
    /// per-node oracle for large-field lazy differentials, where a full
    /// O(n²) recompute after every move batch would dominate the test.
    /// Produces exactly what [`ReferenceMedium::effects_of`] would hold
    /// for `tx` (in arrival order) if rebuilt at these positions.
    pub fn effects_from(positions: &[Position], ranges: RangeModel, tx: NodeId) -> Vec<Effect> {
        let mut bucket = Vec::new();
        for rx in 0..positions.len() {
            if rx == tx.index() {
                continue;
            }
            let d = positions[tx.index()].distance_to(positions[rx]);
            if let Some(class) = ranges.classify(d) {
                bucket.push(Effect {
                    node: NodeId(rx as u32),
                    class,
                    delay: SimDuration::from_secs_f64(d / SPEED_OF_LIGHT),
                });
            }
        }
        sort_into_arrival_order(&mut bucket);
        bucket
    }

    fn recompute(&mut self) {
        let n = self.positions.len();
        self.effects.resize_with(n, Vec::new);
        for tx in 0..n {
            self.effects[tx] = Self::effects_from(&self.positions, self.ranges, NodeId(tx as u32));
        }
    }

    /// Every node affected by a transmission from `tx`, in arrival order.
    pub fn effects_of(&self, tx: NodeId) -> &[Effect] {
        &self.effects[tx.index()]
    }

    /// Node positions.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize, spacing: f64) -> Medium {
        let positions = (0..n)
            .map(|i| Position::new(i as f64 * spacing, 0.0))
            .collect();
        Medium::new(positions, RangeModel::paper())
    }

    #[test]
    fn classify_ranges() {
        let m = RangeModel::paper();
        let c = m.classify(100.0).unwrap();
        assert!(c.decodable && c.senses && c.interferes);
        let c = m.classify(400.0).unwrap();
        assert!(!c.decodable && c.senses && c.interferes);
        assert!(m.classify(600.0).is_none());
        // Boundary cases are inclusive.
        assert!(m.classify(250.0).unwrap().decodable);
        assert!(!m.classify(250.1).unwrap().decodable);
        assert!(m.classify(550.0).unwrap().senses);
    }

    #[test]
    fn paper_chain_hidden_terminal_geometry() {
        // 8 nodes, 200 m apart: the canonical chain of Fig 1.
        let mut m = chain(8, 200.0);
        // Node 3 (600 m from node 0) cannot sense node 0's transmission...
        assert!(!m.effects_of(NodeId(0)).iter().any(|e| e.node == NodeId(3)));
        // ...but interferes at node 1 (400 m away): the hidden terminal.
        let e = m
            .effects_of(NodeId(3))
            .iter()
            .find(|e| e.node == NodeId(1))
            .expect("node 3 reaches node 1");
        assert!(e.class.interferes && !e.class.decodable);
        // Adjacent nodes decode each other; two-hop nodes (400 m) sense
        // but cannot decode.
        assert_eq!(decoders(&mut m, 0), [NodeId(1)]);
        assert_eq!(decoders(&mut m, 1), [NodeId(0), NodeId(2)]);
    }

    /// The nodes that decode `tx`'s frames, in arrival order.
    pub(super) fn decoders(m: &mut Medium, tx: u32) -> Vec<NodeId> {
        m.refresh(NodeId(tx))
            .iter()
            .filter(|e| e.class.decodable)
            .map(|e| e.node)
            .collect()
    }

    #[test]
    fn decodable_effects_in_chain() {
        let mut m = chain(5, 200.0);
        // Equidistant receivers arrive together; ties go by node id.
        assert_eq!(decoders(&mut m, 2), [NodeId(1), NodeId(3)]);
        assert_eq!(decoders(&mut m, 0), [NodeId(1)]);
    }

    #[test]
    fn propagation_delay_is_positive_and_small() {
        let m = chain(2, 200.0);
        let e = &m.effects_of(NodeId(0))[0];
        // 200 m at light speed ≈ 667 ns.
        assert!(e.delay.as_nanos() > 600 && e.delay.as_nanos() < 700);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_medium_rejected() {
        Medium::new(vec![], RangeModel::paper());
    }

    #[test]
    fn effects_exclude_self() {
        let m = chain(3, 200.0);
        for i in 0..3u32 {
            assert!(m.effects_of(NodeId(i)).iter().all(|e| e.node != NodeId(i)));
        }
    }
}

#[cfg(test)]
mod mobility_tests {
    use super::tests::decoders;
    use super::*;

    #[test]
    fn moves_recompute_effects() {
        let mut m = Medium::new(
            vec![Position::new(0.0, 0.0), Position::new(200.0, 0.0)],
            RangeModel::paper(),
        );
        assert_eq!(decoders(&mut m, 0), [NodeId(1)]);
        // Node 1 walks out of decode range but stays sensed.
        m.move_nodes(&[(NodeId(1), Position::new(400.0, 0.0))]);
        assert!(decoders(&mut m, 0).is_empty());
        assert!(m.refresh(NodeId(0)).iter().any(|e| e.class.senses));
        // And fully out of range.
        m.move_nodes(&[(NodeId(1), Position::new(900.0, 0.0))]);
        assert!(m.refresh(NodeId(0)).is_empty());
    }

    #[test]
    fn move_nodes_matches_a_fresh_build() {
        let initial = vec![
            Position::new(0.0, 0.0),
            Position::new(200.0, 0.0),
            Position::new(400.0, 0.0),
            Position::new(600.0, 0.0),
        ];
        let mut incremental = Medium::new(initial.clone(), RangeModel::paper());
        // Node 1 leaves decode range of 0; node 3 walks next to 0.
        let moves = [
            (NodeId(1), Position::new(200.0, 500.0)),
            (NodeId(3), Position::new(100.0, 0.0)),
        ];
        incremental.move_nodes(&moves);
        let mut positions = initial;
        for &(id, p) in &moves {
            positions[id.index()] = p;
        }
        let mut rebuilt = Medium::new(positions, RangeModel::paper());
        for tx in 0..4u32 {
            assert_eq!(
                incremental.refresh(NodeId(tx)).to_vec(),
                rebuilt.refresh(NodeId(tx)),
                "effect lists diverged for tx {tx}"
            );
        }
    }

    #[test]
    fn move_nodes_applies_duplicate_ids_in_order() {
        let mut m = Medium::new(
            vec![Position::new(0.0, 0.0), Position::new(200.0, 0.0)],
            RangeModel::paper(),
        );
        m.move_nodes(&[
            (NodeId(1), Position::new(5000.0, 0.0)),
            (NodeId(1), Position::new(100.0, 0.0)),
        ]);
        assert_eq!(m.positions()[1], Position::new(100.0, 0.0));
        assert_eq!(decoders(&mut m, 0), [NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "outside the medium")]
    fn move_of_unknown_node_rejected() {
        let mut m = Medium::new(vec![Position::new(0.0, 0.0)], RangeModel::paper());
        m.move_nodes(&[(NodeId(3), Position::new(1.0, 1.0))]);
    }

    #[test]
    fn co_located_nodes_have_full_mutual_effects() {
        let p = Position::new(123.0, 456.0);
        let m = Medium::new(vec![p, p, p], RangeModel::paper());
        for tx in 0..3u32 {
            let fx = m.effects_of(NodeId(tx));
            assert_eq!(fx.len(), 2);
            for e in fx {
                assert!(e.class.decodable);
                // Distance clamps to 1 m for power, so capture math stays
                // finite even for co-located nodes.
                assert!(e.class.power.is_finite() && e.class.power > 0.0);
                assert_eq!(e.delay, SimDuration::from_secs_f64(0.0));
            }
        }
    }

    #[test]
    fn inclusive_range_boundaries_match_classify() {
        // Receivers exactly at the 250 m and 550 m boundaries: both
        // inclusive, and both must survive the grid's candidate pass.
        let m = Medium::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(250.0, 0.0),
                Position::new(550.0, 0.0),
                Position::new(550.0000001, 100000.0), // far out: no effect
            ],
            RangeModel::paper(),
        );
        let fx = m.effects_of(NodeId(0));
        assert_eq!(fx.len(), 2);
        assert!(fx[0].class.decodable);
        assert!(!fx[1].class.decodable && fx[1].class.senses);
    }

    #[test]
    fn nodes_exactly_on_cell_boundaries_are_not_lost() {
        // Cell size is 550 m: place nodes exactly on multiples of the
        // cell size, where floor() assigns them to the higher cell.
        let mut m = Medium::new(
            vec![
                Position::new(550.0, 550.0),
                Position::new(1100.0, 550.0),
                Position::new(1100.0, 1100.0),
                Position::new(825.0, 825.0),
            ],
            RangeModel::paper(),
        );
        // Every pairwise distance ≤ 550√2; check against a dense oracle.
        let r = ReferenceMedium::new(m.positions().to_vec(), m.ranges());
        for tx in 0..4u32 {
            assert_eq!(m.refresh(NodeId(tx)), r.effects_of(NodeId(tx)));
        }
        assert!(m.effects_of(NodeId(3)).iter().all(|e| e.class.senses));
    }
}

#[cfg(test)]
mod lazy_tests {
    use super::*;

    /// Two nodes 200 m apart at the origin plus one node 5 km away,
    /// beyond every range of the cluster.
    fn cluster_and_far() -> Medium {
        Medium::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(200.0, 0.0),
                Position::new(5000.0, 0.0),
            ],
            RangeModel::paper(),
        )
    }

    #[test]
    fn epoch_bumps_once_per_batch() {
        let mut m = cluster_and_far();
        assert_eq!(m.epoch(), 0);
        m.move_nodes(&[
            (NodeId(0), Position::new(0.0, 100.0)),
            (NodeId(1), Position::new(200.0, 100.0)),
        ]);
        assert_eq!(m.epoch(), 1);
        m.move_nodes(&[]);
        assert_eq!(m.epoch(), 1, "empty batch must not invalidate anything");
        m.move_nodes(&[(NodeId(0), Position::new(0.0, 0.0))]);
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn refresh_tiers_and_counters() {
        let mut m = cluster_and_far();
        m.move_nodes(&[(NodeId(0), Position::new(0.0, 100.0))]);
        m.move_nodes(&[(NodeId(2), Position::new(5000.0, 100.0))]);
        // One move batch makes every list stale, near the mover or not.
        for i in 0..3u32 {
            assert!(!m.is_fresh(NodeId(i)));
        }
        // A list stored before, even two epochs ago, is stored again at
        // its first read.
        let fx = m.refresh(NodeId(0));
        assert_eq!(fx.len(), 1, "node 1 is ~224 m away");
        assert!(fx[0].class.decodable);
        m.refresh(NodeId(2));
        // Later queries at the same epoch are no-ops.
        m.refresh(NodeId(2));
        m.refresh(NodeId(2));
        assert!(m.is_fresh(NodeId(2)) && m.is_fresh(NodeId(0)) && !m.is_fresh(NodeId(1)));
        let c = m.counters();
        assert_eq!((c.epoch, c.queries, c.one_shots, c.rebuilds), (2, 4, 0, 2));
        assert_eq!(c.revalidations, 0);
        // One batch later both are stored at their first read again.
        m.move_nodes(&[(NodeId(1), Position::new(200.0, 0.0))]);
        m.refresh(NodeId(2));
        m.refresh(NodeId(0));
        assert!(m.is_fresh(NodeId(2)) && m.is_fresh(NodeId(0)));
        let c = m.counters();
        assert_eq!((c.epoch, c.queries, c.one_shots, c.rebuilds), (3, 6, 0, 4));
    }

    #[test]
    fn take_lazy_profile_drains_rebuild_costs() {
        let mut m = cluster_and_far();
        assert_eq!(m.take_lazy_profile().0, 3, "new scans every list");
        m.refresh(NodeId(2)); // a hit: no scan
        m.move_nodes(&[(NodeId(0), Position::new(0.0, 100.0))]);
        m.move_nodes(&[(NodeId(2), Position::new(5000.0, 100.0))]);
        m.refresh(NodeId(0)); // stored again: one scan and sort
        m.refresh(NodeId(0)); // a hit
        m.refresh(NodeId(0)); // another
        let (calls, secs) = m.take_lazy_profile();
        assert_eq!(calls, 1);
        assert!(secs >= 0.0);
        assert_eq!(m.take_lazy_profile(), (0, 0.0), "drain must reset");
        // A lazy medium's first refresh (a one-shot) is timed alike.
        let mut lazy = Medium::lazy(m.positions().to_vec(), m.ranges());
        lazy.refresh(NodeId(1));
        assert_eq!(lazy.take_lazy_profile().0, 1);
    }

    /// Bit-level view of a list: node, delay and the power's exact bits.
    fn bits(list: &[Effect]) -> Vec<(NodeId, SimDuration, u64)> {
        list.iter()
            .map(|e| (e.node, e.delay, e.class.power.to_bits()))
            .collect()
    }

    /// `Medium::lazy` builds nothing up front; each node's first refresh
    /// fills its list one-shot and its second stores it, both through
    /// the rebuild's scan and sort, bit for bit what the eager
    /// `Medium::new` serves.
    #[test]
    fn lazy_medium_stores_each_list_on_second_refresh() {
        let mut eager = cluster_and_far();
        let mut lazy = Medium::lazy(eager.positions().to_vec(), eager.ranges());
        assert_eq!(lazy.counters(), MediumCounters::default());
        assert!((0..3).all(|i| !lazy.is_fresh(NodeId(i))), "nothing built");
        assert_eq!(eager.counters().builds, 3, "the eager build counts");
        for i in 0..3u32 {
            let k = i as u64;
            let want = eager.refresh(NodeId(i)).to_vec();
            let once = lazy.refresh(NodeId(i)).to_vec();
            assert!(
                !lazy.is_fresh(NodeId(i)),
                "tx {i}: a one-shot is not stored"
            );
            let c = lazy.counters();
            assert_eq!((c.queries, c.one_shots, c.builds), (3 * k + 1, k + 1, k));
            let stored = lazy.refresh(NodeId(i)).to_vec();
            assert!(lazy.is_fresh(NodeId(i)));
            for got in [&once, &stored] {
                assert_eq!(got, &want, "tx {i}");
                assert_eq!(bits(got), bits(&want), "tx {i}");
            }
            // A third refresh at the same epoch is a fast hit.
            lazy.refresh(NodeId(i));
            let c = lazy.counters();
            assert_eq!(
                (c.queries, c.one_shots, c.builds),
                (3 * k + 3, k + 1, k + 1)
            );
        }
        assert_eq!(eager.counters().builds, 3, "refreshing built nothing new");
    }

    /// A node first stored after move batches is a build: staleness is
    /// about lists that exist, and this one never did.
    #[test]
    fn first_store_after_moves_counts_a_build_not_a_rebuild() {
        let mut m = Medium::lazy(cluster_and_far().positions().to_vec(), RangeModel::paper());
        m.move_nodes(&[(NodeId(1), Position::new(150.0, 0.0))]);
        m.move_nodes(&[(NodeId(2), Position::new(5000.0, 50.0))]);
        m.refresh(NodeId(0));
        let fx = m.refresh(NodeId(0)).to_vec();
        let c = m.counters();
        assert_eq!((c.epoch, c.one_shots, c.builds, c.rebuilds), (2, 1, 1, 0));
        assert_eq!(
            fx,
            ReferenceMedium::effects_from(m.positions(), m.ranges(), NodeId(0))
        );
        // The same list stored after the next batch is a rebuild, at its
        // first read: it was stored before.
        m.move_nodes(&[(NodeId(2), Position::new(5000.0, 0.0))]);
        m.refresh(NodeId(0));
        assert!(m.is_fresh(NodeId(0)));
        let c = m.counters();
        assert_eq!((c.one_shots, c.builds, c.rebuilds), (1, 1, 1));
    }

    /// The admission rule's carry-over: a node that stored its list in
    /// the previous epoch — or in any earlier one — stores it at its first
    /// refresh of this one, so however many one-shots come before its
    /// next refresh it pays one scan per epoch.
    #[test]
    fn list_stored_last_epoch_is_stored_at_first_refresh() {
        let mut m = Medium::lazy(line(ONE_SHOT_RING + 4), RangeModel::paper());
        m.refresh(NodeId(0));
        m.refresh(NodeId(0));
        assert!(m.is_fresh(NodeId(0)));
        m.move_nodes(&[(NodeId(5), Position::new(500.0, 10.0))]);
        let _ = m.take_lazy_profile();
        let want = ReferenceMedium::effects_from(m.positions(), m.ranges(), NodeId(0));
        assert_eq!(m.refresh(NodeId(0)), want);
        assert!(m.is_fresh(NodeId(0)), "stored at the first refresh");
        for tx in 1..=ONE_SHOT_RING as u32 + 1 {
            m.refresh(NodeId(tx));
        }
        m.refresh(NodeId(0));
        let c = m.counters();
        assert_eq!(
            (c.one_shots, c.builds, c.rebuilds),
            (ONE_SHOT_RING as u64 + 2, 1, 1)
        );
        let (scans, _) = m.take_lazy_profile();
        assert_eq!(scans, ONE_SHOT_RING as u64 + 2, "node 0 scanned once");
        // Two batches with no refresh between them: still stored at once.
        m.move_nodes(&[(NodeId(5), Position::new(500.0, 0.0))]);
        m.move_nodes(&[(NodeId(5), Position::new(500.0, 10.0))]);
        m.refresh(NodeId(0));
        assert!(m.is_fresh(NodeId(0)));
        let c = m.counters();
        assert_eq!((c.one_shots, c.rebuilds), (ONE_SHOT_RING as u64 + 2, 2));
    }

    /// `n` nodes 100 m apart on a line: every list is non-empty.
    fn line(n: usize) -> Vec<Position> {
        (0..n)
            .map(|i| Position::new(i as f64 * 100.0, 0.0))
            .collect()
    }

    /// The admission rule's first half: a node's first refresh in an
    /// epoch serves its list and keeps nothing but the ring's buffer —
    /// however many nodes transmit once, the stored lists stay empty.
    #[test]
    fn first_refresh_in_an_epoch_stores_nothing() {
        let positions = line(4 * ONE_SHOT_RING);
        let n = positions.len();
        let mut m = Medium::lazy(positions, RangeModel::paper());
        assert_eq!(m.memory_bytes(), 0);
        for tx in 0..n as u32 {
            let fx = m.refresh(NodeId(tx)).to_vec();
            assert_eq!(
                fx,
                ReferenceMedium::effects_from(m.positions(), m.ranges(), NodeId(tx))
            );
            assert!(!m.is_fresh(NodeId(tx)), "tx {tx}");
        }
        let c = m.counters();
        assert_eq!((c.one_shots, c.builds, c.rebuilds), (n as u64, 0, 0));
        assert!(
            m.effects.iter().all(|l| l.capacity() == 0),
            "no list stored"
        );
        let ring: usize = m.ring.iter().map(|s| s.list.capacity()).sum();
        assert!(ring > 0);
        assert_eq!(m.memory_bytes(), ring * std::mem::size_of::<Effect>());
    }

    /// The admission rule's second half: a node's second refresh in an
    /// epoch stores its list, adopted from the ring when the ring still
    /// holds it (no scan) and scanned in place when later one-shots have
    /// pushed it out — the same list either way.
    #[test]
    fn second_refresh_adopts_from_the_ring_or_builds_in_place() {
        let mut m = Medium::lazy(line(ONE_SHOT_RING + 4), RangeModel::paper());
        let want = |m: &Medium, tx: u32| {
            ReferenceMedium::effects_from(m.positions(), m.ranges(), NodeId(tx))
        };
        // Adopted: the list moves from the ring into node 0's slot.
        m.refresh(NodeId(0));
        let _ = m.take_lazy_profile();
        let expected = want(&m, 0);
        assert_eq!(m.refresh(NodeId(0)), expected);
        assert!(m.is_fresh(NodeId(0)));
        assert_eq!(m.take_lazy_profile(), (0, 0.0), "adoption scans nothing");
        // Pushed out: a full ring of other one-shots comes between node
        // 1's two refreshes.
        m.refresh(NodeId(1));
        for tx in 2..=ONE_SHOT_RING as u32 + 1 {
            m.refresh(NodeId(tx));
        }
        let _ = m.take_lazy_profile();
        let expected = want(&m, 1);
        assert_eq!(m.refresh(NodeId(1)), expected);
        assert!(m.is_fresh(NodeId(1)));
        let (scans, _) = m.take_lazy_profile();
        assert_eq!(scans, 1, "an evicted list is scanned again");
        let c = m.counters();
        assert_eq!((c.one_shots, c.builds), (ONE_SHOT_RING as u64 + 2, 2));
        // The next batch makes both stale: stored again at their first
        // refresh (both stored before), as rebuilds.
        m.move_nodes(&[(NodeId(5), Position::new(500.0, 10.0))]);
        for tx in [0, 1, 0, 1] {
            let expected = want(&m, tx);
            assert_eq!(m.refresh(NodeId(tx)), expected);
        }
        let c = m.counters();
        assert_eq!((c.builds, c.rebuilds), (2, 2));
    }

    /// `Medium::new` and `refresh_all` store every list, whatever the
    /// admission rule would do; `new` counts one build per node and
    /// nothing else.
    #[test]
    fn new_and_refresh_all_store_every_list() {
        let positions = line(6);
        let mut eager = Medium::new(positions.clone(), RangeModel::paper());
        assert!((0..6).all(|i| eager.is_fresh(NodeId(i))));
        let c = eager.counters();
        assert_eq!((c.queries, c.one_shots, c.builds, c.rebuilds), (0, 0, 6, 0));
        let stored = eager.memory_bytes();
        assert!(stored > 0);
        eager.move_nodes(&[(NodeId(5), Position::new(500.0, 10.0))]);
        eager.refresh_all();
        assert!((0..6).all(|i| eager.is_fresh(NodeId(i))));
        let c = eager.counters();
        assert_eq!((c.one_shots, c.builds, c.rebuilds), (0, 6, 6));
        let mut lazy = Medium::lazy(positions, RangeModel::paper());
        lazy.refresh(NodeId(3)); // a one-shot, then stored all the same
        lazy.refresh_all();
        assert!((0..6).all(|i| lazy.is_fresh(NodeId(i))));
        let c = lazy.counters();
        assert_eq!((c.queries, c.one_shots, c.builds), (7, 1, 6));
        for tx in 0..6u32 {
            let want = ReferenceMedium::effects_from(lazy.positions(), lazy.ranges(), NodeId(tx));
            assert_eq!(lazy.effects_of(NodeId(tx)), want);
        }
    }

    /// `effects_of` serves no list it cannot vouch for — in release too:
    /// a never-built list would read as empty.
    #[test]
    #[should_panic(expected = "on a stale list")]
    fn effects_of_a_never_built_list_panics() {
        let m = Medium::lazy(
            vec![Position::new(0.0, 0.0), Position::new(200.0, 0.0)],
            RangeModel::paper(),
        );
        let _ = m.effects_of(NodeId(0));
    }

    /// The one staleness rule: a move batch rebuilds every list read
    /// after it, even one nothing moved near — and the one-shot fill and
    /// the rebuild run the same exact scan and sort, so the list comes
    /// back bit for bit.
    #[test]
    fn far_move_rebuilds_an_unchanged_list_bit_for_bit() {
        let mut m = cluster_and_far();
        let before = m.refresh(NodeId(0)).to_vec();
        m.move_nodes(&[(NodeId(2), Position::new(5000.0, 100.0))]);
        m.move_nodes(&[(NodeId(2), Position::new(5000.0, 50.0))]);
        assert!(!m.is_fresh(NodeId(0)));
        // Stored before, so stored again at the first refresh; the
        // second is a hit.
        let first = m.refresh(NodeId(0)).to_vec();
        let after = m.refresh(NodeId(0)).to_vec();
        let c = m.counters();
        assert_eq!((c.one_shots, c.rebuilds, c.revalidations), (0, 1, 0));
        for list in [&first, &after] {
            assert_eq!(list, &before);
            assert_eq!(bits(list), bits(&before));
        }
    }

    #[test]
    fn stale_accumulation_refreshes_to_reference() {
        // Many epochs of movement with no intervening refresh: lists must
        // still come back exact against the dense oracle.
        let mut positions: Vec<Position> = (0..25)
            .map(|i| Position::new((i % 5) as f64 * 260.0, (i / 5) as f64 * 260.0))
            .collect();
        let mut m = Medium::new(positions.clone(), RangeModel::paper());
        // Deterministic pseudo-random walk (LCG), 8 ticks.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for _ in 0..8 {
            let moves: Vec<(NodeId, Position)> = (0..25u32)
                .step_by(3)
                .map(|i| {
                    let p = positions[i as usize];
                    let np = Position::new(p.x + rng() * 300.0, p.y + rng() * 300.0);
                    positions[i as usize] = np;
                    (NodeId(i), np)
                })
                .collect();
            m.move_nodes(&moves);
        }
        let r = ReferenceMedium::new(positions, m.ranges());
        for tx in 0..25u32 {
            assert_eq!(
                m.refresh(NodeId(tx)).to_vec(),
                r.effects_of(NodeId(tx)),
                "lazy refresh diverged from dense oracle for tx {tx}"
            );
        }
    }

    #[test]
    fn refresh_all_matches_per_node_refresh() {
        let mut a = cluster_and_far();
        let mut b = a.clone();
        let moves = [
            (NodeId(0), Position::new(100.0, 100.0)),
            (NodeId(2), Position::new(300.0, 0.0)),
        ];
        a.move_nodes(&moves);
        b.move_nodes(&moves);
        a.refresh_all();
        for tx in 0..3u32 {
            assert_eq!(a.effects_of(NodeId(tx)), b.refresh(NodeId(tx)));
        }
    }
}

#[cfg(test)]
mod range_model_validation_tests {
    use super::*;

    #[test]
    fn builtin_models_validate() {
        RangeModel::paper().validate();
        RangeModel::without_capture().validate();
    }

    #[test]
    #[should_panic(expected = "must not exceed cs_range")]
    fn decode_beyond_carrier_sense_rejected() {
        let m = RangeModel {
            tx_range: 600.0,
            ..RangeModel::paper()
        };
        Medium::new(vec![Position::new(0.0, 0.0)], m);
    }

    #[test]
    #[should_panic(expected = "must not exceed cs_range")]
    fn decode_beyond_interference_rejected() {
        RangeModel {
            interference_range: 200.0,
            ..RangeModel::paper()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "crossover must be positive")]
    fn non_positive_crossover_rejected() {
        RangeModel {
            crossover: 0.0,
            ..RangeModel::paper()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "capture_threshold must be a ratio > 1")]
    fn capture_threshold_at_or_below_one_rejected() {
        RangeModel {
            capture_threshold: Some(1.0),
            ..RangeModel::paper()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "tx_range must be positive")]
    fn non_finite_tx_range_rejected() {
        RangeModel {
            tx_range: f64::NAN,
            ..RangeModel::paper()
        }
        .validate();
    }

    #[test]
    fn max_range_is_the_largest_radius() {
        assert_eq!(RangeModel::paper().max_range(), 550.0);
        let m = RangeModel {
            interference_range: 700.0,
            ..RangeModel::paper()
        };
        assert_eq!(m.max_range(), 700.0);
    }
}
