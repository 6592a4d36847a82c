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
/// per-transmitter effect lists rebuilt *lazily*.
///
/// Effect lists are derived through a uniform [`SpatialGrid`] with cell
/// size [`RangeModel::max_range`], so construction costs O(n·k) for k =
/// nodes per 3×3 cell neighborhood (instead of the dense O(n²)).
///
/// # Epoch-stamped laziness
///
/// [`Medium::move_nodes`] is O(moved): it only updates positions,
/// relocates grid occupants and bumps a global **epoch**. Effect lists
/// are *not* recomputed at move time. Instead each node carries the epoch
/// its list was built at, and [`Medium::refresh`] rebuilds a list iff
/// that epoch is not the current one: a list built at epoch *e* is exact
/// iff no move batch happened since. At city scale most nodes move every
/// tick but transmit rarely, so almost all recompute work vanishes;
/// correctness is unchanged because link sets depend only on *current*
/// positions at query time (pinned by the lazy-vs-eager differentials
/// against the dense all-pairs `ReferenceMedium` oracle).
///
/// The grid is a pure acceleration structure: candidate receivers still
/// pass the exact [`RangeModel::classify`] distance tests, and a refreshed
/// list is in *arrival order* — by propagation delay, ties by node id — so
/// it is bit-identical to the dense scan's (a differential proptest checks
/// this). Builds and rebuilds leave lists unsorted; [`Medium::refresh`]
/// sorts each such list once.
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
    /// as of epoch `node_epoch[tx]`, in arrival order unless `unsorted[tx]`.
    effects: Vec<Vec<Effect>>,
    /// Lists a build or rebuild left for [`Medium::refresh`] to sort.
    unsorted: Vec<bool>,
    /// Node index per cell; cell size = `ranges.max_range()`.
    grid: SpatialGrid,
    /// Reusable candidate-id buffer (steady state allocates nothing).
    scratch: Vec<u32>,
    /// Global move epoch: bumped once per non-empty [`Medium::move_nodes`]
    /// batch.
    epoch: u64,
    /// Epoch at which each node's effect list was built.
    node_epoch: Vec<u64>,
    /// Cumulative lazy-path statistics (see [`MediumCounters`]).
    counters: MediumCounters,
    /// Calls and wall seconds per lazy tier — rebuilds, sorts — since the
    /// last [`Medium::take_lazy_profile`] drain.
    pending: [(u64, f64); 2],
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
    /// Builds the medium and precomputes all effect lists through the
    /// spatial grid.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty or `ranges` is geometrically
    /// inconsistent (see [`RangeModel::validate`]).
    pub fn new(positions: Vec<Position>, ranges: RangeModel) -> Self {
        assert!(!positions.is_empty(), "medium needs at least one node");
        ranges.validate();
        let grid = SpatialGrid::build(ranges.max_range(), &positions);
        let n = positions.len();
        let mut medium = Medium {
            positions,
            ranges,
            effects: vec![Vec::new(); n],
            unsorted: vec![true; n],
            grid,
            scratch: Vec::new(),
            epoch: 0,
            node_epoch: vec![0; n],
            counters: MediumCounters::default(),
            pending: [(0, 0.0); 2],
        };
        medium.build_all();
        medium
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

    /// Brings `tx`'s effect list up to date and returns it in arrival order
    /// — the hot-path accessor for transmission-time fan-out. A list built
    /// at this epoch returns at once; any other is rebuilt in O(k). A list
    /// a build or rebuild left unsorted is sorted.
    pub fn refresh(&mut self, tx: NodeId) -> &[Effect] {
        let i = tx.index();
        self.counters.queries += 1;
        if self.node_epoch[i] == self.epoch && !self.unsorted[i] {
            return &self.effects[i];
        }
        let mut mark = Instant::now();
        if self.node_epoch[i] != self.epoch {
            self.fill_effects(i);
            self.node_epoch[i] = self.epoch;
            self.unsorted[i] = true;
            self.counters.rebuilds += 1;
            mark = self.accrue(0, mark);
        }
        if self.unsorted[i] {
            sort_into_arrival_order(&mut self.effects[i]);
            self.unsorted[i] = false;
            self.counters.sorts += 1;
            self.accrue(1, mark);
        }
        &self.effects[i]
    }

    /// Charges the time since `since` to lazy tier `tier`; returns "now".
    fn accrue(&mut self, tier: usize, since: Instant) -> Instant {
        let now = Instant::now();
        let (calls, secs) = &mut self.pending[tier];
        *calls += 1;
        *secs += (now - since).as_secs_f64();
        now
    }

    /// Brings every effect list up to date (the eager mode of the
    /// lazy-vs-eager differential, and the escape hatch for callers that
    /// want to iterate lists through `&self` after moves).
    pub fn refresh_all(&mut self) {
        for i in 0..self.positions.len() {
            self.refresh(NodeId(i as u32));
        }
    }

    /// `true` if `tx`'s effect list was built at the current epoch — i.e.
    /// [`Medium::effects_of`] may be read without a [`Medium::refresh`].
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

    /// Drains the `(calls, wall seconds)` [`Medium::refresh`] spent per
    /// lazy tier since the last drain: `[rebuilds, sorts]` — the host
    /// feeds these into its engine profile's timed buckets.
    pub fn take_lazy_profile(&mut self) -> [(u64, f64); 2] {
        std::mem::take(&mut self.pending)
    }

    /// Builds every per-transmitter effect list via the grid, visiting
    /// each unordered pair once: distance, class and delay are symmetric
    /// (squaring the coordinate deltas erases their sign), so one exact
    /// test feeds both directions' effect lists — bit-identical to two
    /// independent per-transmitter scans at half the distance work, once
    /// sorted.
    fn build_all(&mut self) {
        let n = self.positions.len();
        let scratch = &mut self.scratch;
        let limit = self.ranges.max_range() + 1e-6;
        let limit2 = limit * limit;
        for a in 0..n {
            let pa = self.positions[a];
            scratch.clear();
            self.grid.candidates_near(pa, scratch);
            for &rx in scratch.iter() {
                let b = rx as usize;
                if b <= a {
                    continue; // each unordered pair exactly once
                }
                let pb = self.positions[b];
                let d2 = (pa.x - pb.x).powi(2) + (pa.y - pb.y).powi(2);
                if d2 > limit2 {
                    continue;
                }
                let d = d2.sqrt();
                if let Some(class) = self.ranges.classify(d) {
                    let delay = SimDuration::from_secs_f64(d / SPEED_OF_LIGHT);
                    self.effects[a].push(Effect {
                        node: NodeId(rx),
                        class,
                        delay,
                    });
                    self.effects[b].push(Effect {
                        node: NodeId(a as u32),
                        class,
                        delay,
                    });
                }
            }
        }
    }

    /// Recomputes `tx`'s effect list in place from its grid neighborhood.
    /// Candidates beyond `max_range` (plus a 1 µm guard for the
    /// inclusive boundary) are rejected on the squared distance, skipping
    /// the sqrt for the ~⅔ of each 3×3 neighborhood that lies outside the
    /// range circle; survivors pass the exact [`RangeModel::classify`]
    /// test on `sqrt(d²)` — bit-identical to [`Position::distance_to`],
    /// which evaluates the same expression. The list is left in candidate
    /// order for [`Medium::refresh`] to sort.
    fn fill_effects(&mut self, tx: usize) {
        let pos = self.positions[tx];
        let (bucket, scratch) = (&mut self.effects[tx], &mut self.scratch);
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
    /// Reads the stored list without refreshing it: exact for a static
    /// medium (no moves ever), or after [`Medium::refresh`] /
    /// [`Medium::refresh_all`], and in arrival order only once refreshed.
    /// Hosts driving mobility use [`Medium::refresh`] instead; a stale
    /// read trips a debug assertion.
    pub fn effects_of(&self, tx: NodeId) -> &[Effect] {
        debug_assert!(
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
        assert!(m.effects_of(NodeId(0)).iter().any(|e| e.class.senses));
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
        // One move batch makes every list stale, near the mover or not.
        for i in 0..3u32 {
            assert!(!m.is_fresh(NodeId(i)));
        }
        // A stale list pays a rebuild.
        let fx = m.refresh(NodeId(0));
        assert_eq!(fx.len(), 1, "node 1 is ~224 m away");
        assert!(fx[0].class.decodable);
        m.refresh(NodeId(2));
        // A second query at the same epoch is a no-op.
        m.refresh(NodeId(2));
        assert!(m.is_fresh(NodeId(2)) && !m.is_fresh(NodeId(1)));
        let c = m.counters();
        assert_eq!((c.epoch, c.queries, c.rebuilds), (1, 3, 2));
        assert_eq!(c.revalidations, 0);
    }

    #[test]
    fn take_lazy_profile_drains_rebuild_costs() {
        let mut m = cluster_and_far();
        m.refresh(NodeId(2)); // only the sort the build left
        m.move_nodes(&[(NodeId(0), Position::new(0.0, 100.0))]);
        m.refresh(NodeId(0)); // rebuild, then sort
        m.refresh(NodeId(0)); // neither
        let [rebuilds, sorts] = m.take_lazy_profile();
        assert_eq!((rebuilds.0, sorts.0), (1, 2));
        assert!(rebuilds.1 >= 0.0 && sorts.1 >= 0.0);
        assert_eq!(m.take_lazy_profile(), [(0, 0.0); 2], "drain must reset");
    }

    /// The one staleness rule: a move batch rebuilds every list read
    /// after it, even one nothing moved near — and the rebuild runs the
    /// same exact scan and sort, so the list comes back bit for bit.
    #[test]
    fn far_move_rebuilds_an_unchanged_list_bit_for_bit() {
        let mut m = cluster_and_far();
        let before = m.refresh(NodeId(0)).to_vec();
        m.move_nodes(&[(NodeId(2), Position::new(5000.0, 100.0))]);
        assert!(!m.is_fresh(NodeId(0)));
        let after = m.refresh(NodeId(0)).to_vec();
        let c = m.counters();
        assert_eq!((c.rebuilds, c.revalidations), (1, 0));
        let bits = |list: &[Effect]| -> Vec<_> {
            list.iter()
                .map(|e| (e.node, e.delay, e.class.power.to_bits()))
                .collect()
        };
        assert_eq!(after, before);
        assert_eq!(bits(&after), bits(&before));
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
