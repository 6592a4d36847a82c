//! A flat table of square cells over node positions.
//!
//! [`Medium`](crate::Medium) and the topology checks need one query,
//! millions of times: "which nodes lie within distance *r* of this
//! point?". A [`SpatialGrid`] with cell size ≥ *r* answers it by scanning
//! only the 3×3 cell neighborhood of the query point — every node within
//! *r* of a point in cell (cx, cy) lies in cells (cx±1, cy±1), because a
//! single cell already spans *r* in each axis. That turns the dense
//! all-pairs effect computation into O(n·k) for k = nodes per
//! neighborhood, and an incremental position update into O(k).
//!
//! The cells form a row-major [`CellTable`] over the bounding box of the
//! positions the grid is built from, so a cell is found by arithmetic,
//! never by hashing, and the three cells of one neighborhood row are
//! consecutive. A position outside that box is clamped to the nearest
//! border cell: clamping is monotone and never moves two positions in
//! neighboring cells more than one cell apart, so the 3×3 neighborhood
//! stays a superset of everything within *r*.
//!
//! The grid is purely an *acceleration structure*: it returns candidate
//! supersets, never answers distance predicates itself, so callers apply
//! the exact same distance tests they would against a dense scan and
//! results stay bit-identical.

use std::ops::Range;

use crate::position::Position;

/// The geometry of a row-major table of square cells: which cell holds a
/// position, and which cells neighbor it.
///
/// A position `p` lies in cell `(floor(p.x / side), floor(p.y / side))`,
/// clamped to the table; cell `(origin.0 + c, origin.1 + r)` is table
/// index `r * cols + c`. A table covering `n` positions holds at most
/// `4n + 64` cells: on a sparser box the side is doubled until it does,
/// which keeps it ≥ the requested size, so the neighborhood property
/// holds at any side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTable {
    side: f64,
    origin: (i64, i64),
    cols: usize,
    rows: usize,
}

impl CellTable {
    /// The table over the bounding box of `positions`, with cells of side
    /// `cell_size` (or a power-of-two multiple of it, see [`CellTable`]).
    /// No positions give one cell at the origin.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_size` is finite and positive.
    pub fn covering(cell_size: f64, positions: &[Position]) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "grid cell size must be positive and finite"
        );
        let (lo, hi) = match positions.first() {
            None => (Position::default(), Position::default()),
            Some(&first) => positions.iter().fold((first, first), |(lo, hi), p| {
                (
                    Position::new(lo.x.min(p.x), lo.y.min(p.y)),
                    Position::new(hi.x.max(p.x), hi.y.max(p.y)),
                )
            }),
        };
        let max_cells = 4 * positions.len() as u128 + 64;
        let mut side = cell_size;
        loop {
            let span = |lo: f64, hi: f64| {
                let first = floor_i64(lo / side);
                (
                    first,
                    (i128::from(floor_i64(hi / side)) - i128::from(first) + 1) as u128,
                )
            };
            let ((x0, cols), (y0, rows)) = (span(lo.x, hi.x), span(lo.y, hi.y));
            if cols.saturating_mul(rows) <= max_cells {
                return CellTable {
                    side,
                    origin: (x0, y0),
                    cols: cols as usize,
                    rows: rows as usize,
                };
            }
            side *= 2.0;
        }
    }

    /// Number of cells.
    fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// `p`'s (column, row) in the table, clamped to its border.
    fn col_row(&self, p: Position) -> (usize, usize) {
        let clamp = |v: f64, origin: i64, len: usize| {
            floor_i64(v / self.side)
                .saturating_sub(origin)
                .clamp(0, len as i64 - 1) as usize
        };
        (
            clamp(p.x, self.origin.0, self.cols),
            clamp(p.y, self.origin.1, self.rows),
        )
    }

    /// The table index of the cell holding `p`.
    fn index_of(&self, p: Position) -> usize {
        let (c, r) = self.col_row(p);
        r * self.cols + c
    }

    /// The indices of `positions` in cell order, by counting sort: cell
    /// `c` holds `order[start[c]..start[c + 1]]`, ascending. Returns
    /// `(start, order)`.
    pub fn sort(&self, positions: &[Position]) -> (Vec<usize>, Vec<u32>) {
        let cell: Vec<usize> = positions.iter().map(|&p| self.index_of(p)).collect();
        // `start[c]` holds cell c's count, then the end of its run, and
        // after the scatter its beginning.
        let mut start = vec![0; self.cell_count() + 1];
        for &c in &cell {
            start[c] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut order = vec![0; positions.len()];
        for (i, &c) in cell.iter().enumerate().rev() {
            start[c] -= 1;
            order[start[c]] = i as u32;
        }
        (start, order)
    }

    /// The cells of `p`'s 3×3 neighborhood, clipped to the table: one run
    /// of consecutive indices per row.
    pub fn neighborhood(&self, p: Position) -> impl Iterator<Item = Range<usize>> {
        let (c, r) = self.col_row(p);
        let (first, end, cols) = (c.saturating_sub(1), (c + 2).min(self.cols), self.cols);
        (r.saturating_sub(1)..(r + 2).min(self.rows))
            .map(move |row| row * cols + first..row * cols + end)
    }
}

/// `floor(v)` as an integer without a libm call: truncate, then step
/// down where truncation rounded a negative fraction up. Saturates
/// outside the `i64` range.
fn floor_i64(v: f64) -> i64 {
    let t = v as i64;
    t.saturating_sub(i64::from(t as f64 > v))
}

/// Node indices bucketed by the cell of a [`CellTable`] they lie in.
///
/// Built over the bounding box of its initial positions; a node later
/// moved outside it lives in the nearest border cell (see the module
/// docs). Every node lives in exactly one cell.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    table: CellTable,
    cells: Vec<Vec<u32>>,
}

impl SpatialGrid {
    /// Builds a grid containing `positions`, node `i` at `positions[i]`.
    ///
    /// # Panics
    ///
    /// Panics unless `cell_size` is finite and positive.
    pub fn build(cell_size: f64, positions: &[Position]) -> Self {
        let table = CellTable::covering(cell_size, positions);
        let (start, order) = table.sort(positions);
        let cells = start
            .windows(2)
            .map(|run| order[run[0]..run[1]].to_vec())
            .collect();
        SpatialGrid { table, cells }
    }

    /// Heap bytes, by capacity: the cell table and each cell's node list.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cells.capacity() * size_of::<Vec<u32>>()
            + self.cells.iter().map(Vec::capacity).sum::<usize>() * size_of::<u32>()
    }

    /// Moves node `id` from `old` to `new`, touching the grid only when
    /// the cell actually changes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `old`'s cell — that means the caller's
    /// position bookkeeping and the grid have diverged.
    pub fn relocate(&mut self, id: u32, old: Position, new: Position) {
        let (from, to) = (self.table.index_of(old), self.table.index_of(new));
        if from != to {
            let bucket = &mut self.cells[from];
            let Some(at) = bucket.iter().position(|&x| x == id) else {
                panic!("node {id} not in grid cell {from}");
            };
            bucket.swap_remove(at);
            self.cells[to].push(id);
        }
    }

    /// Appends to `out` every node id in the 3×3 cell neighborhood of
    /// `p` — a superset of all nodes within `cell_size` of `p` (including
    /// any node registered at `p` itself). Order is unspecified; callers
    /// needing determinism sort the result.
    pub fn candidates_near(&self, p: Position, out: &mut Vec<u32>) {
        for run in self.table.neighborhood(p) {
            for bucket in &self.cells[run] {
                out.extend_from_slice(bucket);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Introspection for the tests.
    impl SpatialGrid {
        fn cell_size(&self) -> f64 {
            self.table.side
        }

        /// The cell coordinate holding `p`, clamped to the table.
        fn cell_of(&self, p: Position) -> (i64, i64) {
            let (c, r) = self.table.col_row(p);
            (
                self.table.origin.0 + c as i64,
                self.table.origin.1 + r as i64,
            )
        }

        /// The node ids registered in exactly `cell` (empty outside the
        /// table).
        fn occupants(&self, cell: (i64, i64)) -> &[u32] {
            let t = &self.table;
            let (c, r) = (cell.0 - t.origin.0, cell.1 - t.origin.1);
            if (0..t.cols as i64).contains(&c) && (0..t.rows as i64).contains(&r) {
                &self.cells[r as usize * t.cols + c as usize]
            } else {
                &[]
            }
        }

        /// Number of nodes registered.
        fn len(&self) -> usize {
            self.cells.iter().map(Vec::len).sum()
        }
    }

    fn sorted_candidates(g: &SpatialGrid, p: Position) -> Vec<u32> {
        let mut v = Vec::new();
        g.candidates_near(p, &mut v);
        v.sort_unstable();
        v
    }

    /// Every pair of `positions` within the cell size appears in each
    /// other's candidate set.
    fn assert_covers(grid: &SpatialGrid, positions: &[Position], range: f64) {
        for (i, &a) in positions.iter().enumerate() {
            let cands = sorted_candidates(grid, a);
            for (j, &b) in positions.iter().enumerate() {
                if a.distance_to(b) <= range {
                    assert!(
                        cands.binary_search(&(j as u32)).is_ok(),
                        "node {j} within range of node {i} but not a candidate"
                    );
                }
            }
        }
    }

    #[test]
    fn neighborhood_covers_everything_within_cell_size() {
        // 100 deterministic pseudo-random points, plus co-located nodes
        // and pairs exactly one cell apart; every pair within the cell
        // size must appear in each other's candidate set, before and
        // after half the nodes move, most of them outside the box the
        // grid was built over.
        let mut rng = mwn_sim::Pcg32::new(99);
        let mut positions: Vec<Position> = (0..100)
            .map(|_| {
                Position::new(
                    rng.gen_range_f64(-2000.0, 2000.0),
                    rng.gen_range_f64(-2000.0, 2000.0),
                )
            })
            .collect();
        let (p, q) = (positions[0], positions[1]);
        positions.extend([
            p,
            Position::new(p.x + 550.0, p.y),
            Position::new(q.x, q.y - 550.0),
        ]);
        let n = positions.len();
        let mut grid = SpatialGrid::build(550.0, &positions);
        assert_eq!(grid.cell_size(), 550.0);
        assert_eq!(grid.len(), n);
        assert_covers(&grid, &positions, 550.0);
        // The box's edges.
        let t = grid.table;
        let (x0, y0) = (t.origin.0 as f64 * 550.0, t.origin.1 as f64 * 550.0);
        let (x1, y1) = (x0 + t.cols as f64 * 550.0, y0 + t.rows as f64 * 550.0);
        for i in (0..n).step_by(2) {
            let far = Position::new(
                positions[i].x * 3.0 + rng.gen_range_f64(-9000.0, 9000.0),
                positions[i].y * 3.0 - 5000.0,
            );
            grid.relocate(i as u32, positions[i], far);
            positions[i] = far;
        }
        // Two movers far outside the box, 300 m apart: one border cell.
        // Then a pair straddling each side of the box, 400 m apart: the
        // outer node clamps into the border cell of the inner one.
        let p = Position::new;
        let movers = [
            (p(-1e7, 3e7), p(-1e7 + 300.0, 3e7)),
            (p(x0 + 100.0, 0.0), p(x0 - 300.0, 0.0)),
            (p(x1 - 100.0, 0.0), p(x1 + 300.0, 0.0)),
            (p(0.0, y0 + 100.0), p(0.0, y0 - 300.0)),
            (p(0.0, y1 - 100.0), p(0.0, y1 + 300.0)),
        ];
        for (k, (inner, outer)) in movers.into_iter().enumerate() {
            for (i, to) in [(4 * k, inner), (4 * k + 2, outer)] {
                grid.relocate(i as u32, positions[i], to);
                positions[i] = to;
            }
        }
        assert_eq!(grid.len(), n);
        assert_covers(&grid, &positions, 550.0);
    }

    #[test]
    fn moves_outside_the_box_clamp_to_border_cells() {
        let mut grid = SpatialGrid::build(
            100.0,
            &[Position::new(0.0, 0.0), Position::new(250.0, 150.0)],
        );
        // The box spans cells (0..=2, 0..=1); beyond it, positions clamp.
        assert_eq!(grid.cell_of(Position::new(-5000.0, 40.0)), (0, 0));
        assert_eq!(grid.cell_of(Position::new(1e12, 1e12)), (2, 1));
        assert_eq!(grid.cell_of(Position::new(150.0, -1.0)), (1, 0));
        grid.relocate(0, Position::new(0.0, 0.0), Position::new(-700.0, 90.0));
        grid.relocate(1, Position::new(250.0, 150.0), Position::new(-650.0, 120.0));
        // 50 m apart, both far outside: still mutual candidates.
        assert_eq!(
            sorted_candidates(&grid, Position::new(-700.0, 90.0)),
            vec![0, 1]
        );
        assert_eq!(grid.occupants((0, 0)), &[0]);
        assert_eq!(grid.occupants((0, 1)), &[1]);
        assert!(grid.occupants((-7, 0)).is_empty(), "outside the table");
    }

    #[test]
    fn far_apart_nodes_allocate_o_n_cells() {
        // 10⁹ m apart on both axes: a table at the requested side would
        // hold ~3·10¹² cells; the side doubles until it holds ≤ 4n + 64.
        let positions = [Position::new(0.0, 0.0), Position::new(1e9, -1e9)];
        let grid = SpatialGrid::build(250.0, &positions);
        assert!(
            grid.table.cell_count() <= 4 * 2 + 64,
            "{} cells",
            grid.table.cell_count()
        );
        assert!(grid.cell_size() >= 250.0);
        assert!(grid.memory_bytes() <= 72 * 24 + 64);
        assert_eq!(grid.len(), 2);
        assert_eq!(sorted_candidates(&grid, positions[0]), vec![0]);
        // Extremes of the finite range stay bounded too.
        let extreme = [
            Position::new(f64::MIN, f64::MAX),
            Position::new(f64::MAX, 0.0),
        ];
        let grid = SpatialGrid::build(550.0, &extreme);
        assert!(grid.table.cell_count() <= 4 * 2 + 64);
        assert_eq!(grid.len(), 2);
        // A dense field keeps the requested side.
        let dense: Vec<Position> = (0..100)
            .map(|i| Position::new(f64::from(i % 10) * 100.0, f64::from(i / 10) * 100.0))
            .collect();
        assert_eq!(SpatialGrid::build(250.0, &dense).cell_size(), 250.0);
    }

    #[test]
    fn integer_floor_matches_f64_floor() {
        for v in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            2.999,
            -2.999,
            -3.0,
            1e15 + 0.5,
            -1e15 - 0.5,
            4503599627370497.0,
            -4503599627370497.0,
        ] {
            assert_eq!(floor_i64(v), v.floor() as i64, "{v}");
        }
        assert_eq!(floor_i64(1e300), i64::MAX);
        assert_eq!(floor_i64(-1e300), i64::MIN);
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
        // Node 1 anchors the table's far corner.
        let far = Position::new(1000.0, 1000.0);
        let mut grid = SpatialGrid::build(100.0, &[Position::new(10.0, 10.0), far]);
        // Same cell: candidates unchanged.
        grid.relocate(0, Position::new(10.0, 10.0), Position::new(90.0, 90.0));
        assert_eq!(sorted_candidates(&grid, Position::new(50.0, 50.0)), vec![0]);
        // New cell far away: no longer a candidate near the origin.
        grid.relocate(0, Position::new(90.0, 90.0), far);
        assert!(sorted_candidates(&grid, Position::new(50.0, 50.0)).is_empty());
        assert_eq!(sorted_candidates(&grid, far), vec![0, 1]);
        assert_eq!(grid.len(), 2);
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
        let mut grid = SpatialGrid::build(
            100.0,
            &[Position::new(10.0, 10.0), Position::new(600.0, 600.0)],
        );
        grid.relocate(0, Position::new(500.0, 500.0), Position::new(10.0, 10.0));
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
                                            // Node 2 (cell (9, 1)) stretches the table over b and c.
        let mut grid = SpatialGrid::build(100.0, &[a, a, Position::new(910.0, 110.0)]);
        // Node 0 moves twice within one batch; node 1 stays put.
        grid.relocate(0, a, b);
        grid.relocate(0, b, c);
        assert_eq!(grid.len(), 3, "no duplicate registrations");
        assert_eq!(grid.occupants(grid.cell_of(a)), &[1]);
        assert!(grid.occupants(grid.cell_of(b)).is_empty());
        assert_eq!(grid.occupants(grid.cell_of(c)), &[0]);
    }

    #[test]
    fn relocate_onto_exact_cell_boundary_lands_in_the_upper_cell() {
        // floor() semantics: a coordinate exactly on a cell edge belongs
        // to the higher-indexed cell, and relocating onto the edge must
        // agree with where a fresh insert would put the node. Nodes 1
        // and 2 stretch the table over cells (-1..=1, -1..=1).
        let mut grid = SpatialGrid::build(
            100.0,
            &[
                Position::new(50.0, 50.0),
                Position::new(-100.0, 150.0),
                Position::new(150.0, -100.0),
            ],
        );
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
        assert_eq!(grid.len(), 3);
    }

    #[test]
    fn node_returning_to_its_original_cell_within_a_tick_round_trips() {
        // Leave and re-enter the starting cell inside one batch: the net
        // grid state must equal never having moved, including the case
        // where the swap_remove in `relocate` reordered the bucket. Node 3
        // (cell (6, 0)) stretches the table over `away`.
        let home = Position::new(10.0, 10.0);
        let away = Position::new(510.0, 10.0);
        let mut grid = SpatialGrid::build(100.0, &[home, home, home, Position::new(610.0, 10.0)]);
        grid.relocate(1, home, away);
        grid.relocate(1, away, Position::new(20.0, 30.0)); // back home, new offset
        assert_eq!(sorted_candidates(&grid, home), vec![0, 1, 2]);
        assert!(grid.occupants(grid.cell_of(away)).is_empty());
        assert_eq!(grid.len(), 4);
    }
}
