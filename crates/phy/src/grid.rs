//! Uniform spatial hash grid over node positions.
//!
//! [`Medium`](crate::Medium) and the topology generators need one query,
//! millions of times: "which nodes lie within distance *r* of this
//! point?". A [`SpatialGrid`] with cell size ≥ *r* answers it by scanning
//! only the 3×3 cell neighborhood of the query point — every node within
//! *r* of a point in cell (cx, cy) lies in cells (cx±1, cy±1), because a
//! single cell already spans *r* in each axis. That turns the dense
//! all-pairs effect computation into O(n·k) for k = nodes per
//! neighborhood, and an incremental position update into O(k).
//!
//! The grid is purely an *acceleration structure*: it returns candidate
//! supersets, never answers distance predicates itself, so callers apply
//! the exact same distance tests they would against a dense scan and
//! results stay bit-identical.

use mwn_sim::FxHashMap;

use crate::position::Position;

/// A uniform hash grid of node indices, keyed by cell coordinate.
///
/// Cells are square with side [`SpatialGrid::cell_size`]; a node at
/// position `p` lives in cell `(floor(p.x / cell), floor(p.y / cell))`.
/// Coordinates may be negative; cells exist only while occupied.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    cells: FxHashMap<(i64, i64), Vec<u32>>,
}

impl SpatialGrid {
    /// An empty grid with the given cell side length (meters).
    ///
    /// # Panics
    ///
    /// Panics unless `cell_size` is finite and positive.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "grid cell size must be positive and finite"
        );
        SpatialGrid {
            cell: cell_size,
            cells: FxHashMap::default(),
        }
    }

    /// Builds a grid containing `positions`, node `i` at `positions[i]`.
    pub fn build(cell_size: f64, positions: &[Position]) -> Self {
        let mut grid = Self::new(cell_size);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i as u32, p);
        }
        grid
    }

    /// Heap bytes, by capacity: the cell map's buckets and each cell's
    /// node list.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cells.capacity() * size_of::<((i64, i64), Vec<u32>)>()
            + self.cells.values().map(Vec::capacity).sum::<usize>() * size_of::<u32>()
    }

    /// The configured cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// The cell coordinate containing `p`.
    pub fn cell_of(&self, p: Position) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    /// Inserts node `id` at position `p`.
    pub fn insert(&mut self, id: u32, p: Position) {
        self.cells.entry(self.cell_of(p)).or_default().push(id);
    }

    /// Removes node `id`, which must currently be registered at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `p`'s cell — that means the caller's
    /// position bookkeeping and the grid have diverged.
    pub fn remove(&mut self, id: u32, p: Position) {
        let key = self.cell_of(p);
        let bucket = self
            .cells
            .get_mut(&key)
            .unwrap_or_else(|| panic!("node {id} not in grid cell {key:?}"));
        let at = bucket
            .iter()
            .position(|&x| x == id)
            .unwrap_or_else(|| panic!("node {id} not in grid cell {key:?}"));
        bucket.swap_remove(at);
        if bucket.is_empty() {
            self.cells.remove(&key);
        }
    }

    /// Moves node `id` from `old` to `new`, touching the grid only when
    /// the cell actually changes.
    pub fn relocate(&mut self, id: u32, old: Position, new: Position) {
        if self.cell_of(old) != self.cell_of(new) {
            self.remove(id, old);
            self.insert(id, new);
        }
    }

    /// Appends to `out` every node id in the 3×3 cell neighborhood of
    /// `p` — a superset of all nodes within `cell_size` of `p` (including
    /// any node registered at `p` itself). Order is unspecified; callers
    /// needing determinism sort the result.
    pub fn candidates_near(&self, p: Position, out: &mut Vec<u32>) {
        let (cx, cy) = self.cell_of(p);
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
    }

    /// The node ids registered in exactly `cell` (empty if unoccupied).
    /// Order is unspecified, but every node lives in exactly one cell, so
    /// occupant lists of distinct cells never overlap.
    pub fn occupants(&self, cell: (i64, i64)) -> &[u32] {
        self.cells.get(&cell).map_or(&[], Vec::as_slice)
    }

    /// Number of nodes currently registered.
    pub fn len(&self) -> usize {
        self.cells.values().map(Vec::len).sum()
    }

    /// `true` if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_candidates(g: &SpatialGrid, p: Position) -> Vec<u32> {
        let mut v = Vec::new();
        g.candidates_near(p, &mut v);
        v.sort_unstable();
        v
    }

    #[test]
    fn neighborhood_covers_everything_within_cell_size() {
        // 100 deterministic pseudo-random points; every pair within the
        // cell size must appear in each other's candidate set.
        let mut rng = mwn_sim::Pcg32::new(99);
        let positions: Vec<Position> = (0..100)
            .map(|_| {
                Position::new(
                    rng.gen_range_f64(-2000.0, 2000.0),
                    rng.gen_range_f64(-2000.0, 2000.0),
                )
            })
            .collect();
        let grid = SpatialGrid::build(550.0, &positions);
        assert_eq!(grid.len(), 100);
        for (i, &a) in positions.iter().enumerate() {
            let cands = sorted_candidates(&grid, a);
            for (j, &b) in positions.iter().enumerate() {
                if a.distance_to(b) <= 550.0 {
                    assert!(
                        cands.binary_search(&(j as u32)).is_ok(),
                        "node {j} within range of node {i} but not a candidate"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_cell_boundary_stays_covered() {
        // A node exactly `cell` away sits in the adjacent cell, which the
        // 3×3 scan includes; a node just past 2*cell does not matter
        // (distance > cell), but one *at* the far corner of the adjacent
        // cell is still returned as a candidate.
        let grid = SpatialGrid::build(
            550.0,
            &[
                Position::new(0.0, 0.0),
                Position::new(550.0, 0.0),
                Position::new(1099.9, 0.0),
                Position::new(1650.0, 0.0),
            ],
        );
        let c = sorted_candidates(&grid, Position::new(0.0, 0.0));
        // Node 3 is two cells over: excluded. Node 2 is a candidate
        // (adjacent cell) even though it is out of range — the caller's
        // distance test rejects it.
        assert_eq!(c, vec![0, 1, 2]);
    }

    #[test]
    fn negative_coordinates_hash_to_distinct_cells() {
        let grid = SpatialGrid::build(
            100.0,
            &[Position::new(-50.0, -50.0), Position::new(50.0, 50.0)],
        );
        assert_eq!(grid.cell_of(Position::new(-50.0, -50.0)), (-1, -1));
        assert_eq!(grid.cell_of(Position::new(50.0, 50.0)), (0, 0));
        // Still mutual candidates: adjacent cells.
        assert_eq!(
            sorted_candidates(&grid, Position::new(-50.0, -50.0)),
            vec![0, 1]
        );
    }

    #[test]
    fn relocate_moves_between_cells_only_when_needed() {
        let mut grid = SpatialGrid::build(100.0, &[Position::new(10.0, 10.0)]);
        // Same cell: candidates unchanged.
        grid.relocate(0, Position::new(10.0, 10.0), Position::new(90.0, 90.0));
        assert_eq!(sorted_candidates(&grid, Position::new(50.0, 50.0)), vec![0]);
        // New cell far away: no longer a candidate near the origin.
        grid.relocate(0, Position::new(90.0, 90.0), Position::new(1000.0, 1000.0));
        assert!(sorted_candidates(&grid, Position::new(50.0, 50.0)).is_empty());
        assert_eq!(
            sorted_candidates(&grid, Position::new(1000.0, 1000.0)),
            vec![0]
        );
        assert_eq!(grid.len(), 1);
    }

    #[test]
    fn co_located_nodes_share_a_cell() {
        let p = Position::new(7.0, 7.0);
        let grid = SpatialGrid::build(550.0, &[p, p, p]);
        assert_eq!(sorted_candidates(&grid, p), vec![0, 1, 2]);
    }

    #[test]
    fn occupants_partition_the_nodes() {
        let grid = SpatialGrid::build(
            100.0,
            &[
                Position::new(10.0, 10.0),
                Position::new(20.0, 20.0),
                Position::new(150.0, 10.0),
            ],
        );
        let mut cell0 = grid.occupants((0, 0)).to_vec();
        cell0.sort_unstable();
        assert_eq!(cell0, vec![0, 1]);
        assert_eq!(grid.occupants((1, 0)), &[2]);
        assert!(grid.occupants((5, 5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "not in grid cell")]
    fn remove_at_wrong_position_panics() {
        let mut grid = SpatialGrid::build(100.0, &[Position::new(10.0, 10.0)]);
        grid.remove(0, Position::new(500.0, 500.0));
    }

    #[test]
    fn repeated_relocations_of_one_node_in_a_batch_chain_correctly() {
        // A mobility tick may move the same node more than once when the
        // caller coalesces sub-steps; each relocate hands the grid the
        // node's *previous* position, so the chain must stay consistent
        // even when intermediate hops land in fresh cells.
        let a = Position::new(10.0, 10.0);
        let b = Position::new(250.0, 10.0); // cell (2, 0)
        let c = Position::new(910.0, 10.0); // cell (9, 0)
        let mut grid = SpatialGrid::build(100.0, &[a, a]);
        // Node 0 moves twice within one batch; node 1 stays put.
        grid.relocate(0, a, b);
        grid.relocate(0, b, c);
        assert_eq!(grid.len(), 2, "no duplicate registrations");
        assert_eq!(grid.occupants(grid.cell_of(a)), &[1]);
        assert!(grid.occupants(grid.cell_of(b)).is_empty());
        assert_eq!(grid.occupants(grid.cell_of(c)), &[0]);
    }

    #[test]
    fn relocate_onto_exact_cell_boundary_lands_in_the_upper_cell() {
        // floor() semantics: a coordinate exactly on a cell edge belongs
        // to the higher-indexed cell, and relocating onto the edge must
        // agree with where a fresh insert would put the node.
        let mut grid = SpatialGrid::build(100.0, &[Position::new(50.0, 50.0)]);
        let edge = Position::new(100.0, 100.0);
        assert_eq!(grid.cell_of(edge), (1, 1));
        grid.relocate(0, Position::new(50.0, 50.0), edge);
        assert_eq!(grid.occupants((1, 1)), &[0]);
        assert!(grid.occupants((0, 0)).is_empty(), "old cell vacated");
        // The negative edge mirrors it: exactly -100.0 is cell -1, and a
        // move from -100.0 to -99.9 (cell -1 both) is a no-op relocate.
        grid.relocate(0, edge, Position::new(-100.0, -100.0));
        assert_eq!(grid.cell_of(Position::new(-100.0, -100.0)), (-1, -1));
        grid.relocate(
            0,
            Position::new(-100.0, -100.0),
            Position::new(-99.9, -99.9),
        );
        assert_eq!(grid.occupants((-1, -1)), &[0]);
        assert_eq!(grid.len(), 1);
    }

    #[test]
    fn node_returning_to_its_original_cell_within_a_tick_round_trips() {
        // Leave and re-enter the starting cell inside one batch: the net
        // grid state must equal never having moved, including the case
        // where the swap_remove in `remove` reordered the bucket.
        let home = Position::new(10.0, 10.0);
        let away = Position::new(510.0, 10.0);
        let mut grid = SpatialGrid::build(100.0, &[home, home, home]);
        grid.relocate(1, home, away);
        grid.relocate(1, away, Position::new(20.0, 30.0)); // back home, new offset
        assert_eq!(sorted_candidates(&grid, home), vec![0, 1, 2]);
        assert!(grid.occupants(grid.cell_of(away)).is_empty());
        assert_eq!(grid.len(), 3);
    }
}
