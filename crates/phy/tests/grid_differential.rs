//! Differential test: the spatial-grid medium against the dense oracle.
//!
//! [`Medium`] derives effect lists from a spatial hash grid and, since
//! the lazy epoch-stamped refactor, defers rebuilding them from
//! [`Medium::move_nodes`] to the first [`Medium::refresh`] of a list built
//! before the latest move batch; [`ReferenceMedium`] is the dense all-pairs
//! implementation it replaced. For ANY initial placement and ANY
//! sequence of move batches — including co-located nodes, nodes exactly
//! on cell boundaries, and distances exactly at the inclusive
//! 250 m / 550 m classification boundaries — both media must agree on
//! every refreshed effect list bit for bit: same receivers in the same
//! arrival order (delay, then node id), same signal class, same power,
//! same delay.

use mwn_phy::{Effect, Medium, Position, RangeModel, ReferenceMedium};
use mwn_pkt::NodeId;
use proptest::prelude::*;

/// Snap some coordinates onto multiples of interesting distances so the
/// inclusive boundaries (250 m decode, 550 m sense = the grid cell size)
/// and exact cell edges are actually hit, not just approached.
fn snap(v: f64, lattice: u32) -> f64 {
    match lattice % 4 {
        0 => v,
        1 => (v / 250.0).round() * 250.0,
        2 => (v / 550.0).round() * 550.0,
        _ => (v / 137.5).round() * 137.5,
    }
}

fn arb_point() -> impl Strategy<Value = (f64, f64, u32)> {
    (0.0f64..2200.0, 0.0f64..1100.0, 0u32..8)
}

fn positions_of(raw: &[(f64, f64, u32)]) -> Vec<Position> {
    raw.iter()
        .map(|&(x, y, lat)| Position::new(snap(x, lat), snap(y, lat / 4 + lat % 4)))
        .collect()
}

/// A list as a multiset: node ids are unique within one, so ordering by
/// id is canonical.
fn as_multiset(list: &[Effect]) -> Vec<Effect> {
    let mut v = list.to_vec();
    v.sort_by_key(|e| e.node);
    v
}

/// One move batch taking every node to the drawn `next` positions,
/// trimmed to the node count or padded with the first node's position.
fn every_node_to(next: &[(f64, f64, u32)], current: &[Position]) -> Vec<(NodeId, Position)> {
    let mut next = positions_of(next);
    next.resize(current.len(), current[0]);
    next.into_iter()
        .enumerate()
        .map(|(i, p)| (NodeId(i as u32), p))
        .collect()
}

fn in_arrival_order(list: &[Effect]) -> bool {
    list.windows(2)
        .all(|w| (w[0].delay, w[0].node) < (w[1].delay, w[1].node))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn grid_medium_matches_dense_reference(
        initial in proptest::collection::vec(arb_point(), 1..32),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..32, arb_point()), 1..8),
            0..6,
        ),
    ) {
        let initial = positions_of(&initial);
        let n = initial.len();
        let mut grid = Medium::new(initial.clone(), RangeModel::paper());
        let mut dense = ReferenceMedium::new(initial, RangeModel::paper());

        let assert_equal = |grid: &mut Medium, dense: &ReferenceMedium, when: &str| {
            for tx in 0..n {
                let id = NodeId(tx as u32);
                prop_assert_eq!(
                    grid.refresh(id),
                    dense.effects_of(id),
                    "effect lists diverged for tx {tx} {when}"
                );
            }
            prop_assert_eq!(grid.positions(), dense.positions());
        };
        assert_equal(&mut grid, &dense, "after construction");

        for (b, batch) in batches.iter().enumerate() {
            let moves: Vec<(NodeId, Position)> = positions_of(
                &batch.iter().map(|&(_, p)| p).collect::<Vec<_>>(),
            )
            .into_iter()
            .zip(batch.iter().map(|&(i, _)| NodeId((i % n) as u32)))
            .map(|(p, id)| (id, p))
            .collect();
            grid.move_nodes(&moves);
            dense.move_nodes(&moves);
            assert_equal(&mut grid, &dense, &format!("after move batch {b}"));
        }
    }

    /// A full reposition — every node moved in one batch — against the
    /// dense oracle.
    #[test]
    fn set_positions_matches_dense_reference(
        initial in proptest::collection::vec(arb_point(), 1..24),
        next in proptest::collection::vec(arb_point(), 1..24),
    ) {
        let initial = positions_of(&initial);
        let n = initial.len();
        let mut grid = Medium::new(initial.clone(), RangeModel::paper());
        let mut dense = ReferenceMedium::new(initial, RangeModel::paper());
        let moves = every_node_to(&next, grid.positions());
        grid.move_nodes(&moves);
        dense.move_nodes(&moves);
        for tx in 0..n {
            let id = NodeId(tx as u32);
            prop_assert_eq!(grid.refresh(id), dense.effects_of(id));
        }
        prop_assert_eq!(grid.positions(), dense.positions());
    }

    /// The order contract. Whatever moves came before, `refresh` returns
    /// a list strictly sorted by `(delay, node)` that equals the dense
    /// per-transmitter scan; a list a full build left for `refresh` to
    /// sort already holds the same effects, in some order.
    #[test]
    fn refreshed_lists_are_in_arrival_order(
        initial in proptest::collection::vec(arb_point(), 1..32),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..32, arb_point()), 1..8),
            0..6,
        ),
        next in proptest::collection::vec(arb_point(), 1..32),
    ) {
        let initial = positions_of(&initial);
        let n = initial.len();
        let ranges = RangeModel::paper();
        let mut grid = Medium::new(initial, ranges);
        let check = |grid: &mut Medium, when: &str| {
            for tx in 0..n {
                let id = NodeId(tx as u32);
                let dense = ReferenceMedium::effects_from(grid.positions(), ranges, id);
                let list = grid.refresh(id);
                prop_assert!(in_arrival_order(list), "tx {tx} {when}: {list:?}");
                prop_assert_eq!(list, dense.as_slice(), "tx {tx} {when}");
            }
        };
        let unrefreshed = |grid: &Medium| {
            for tx in 0..n {
                let id = NodeId(tx as u32);
                let dense = ReferenceMedium::effects_from(grid.positions(), ranges, id);
                prop_assert_eq!(as_multiset(grid.effects_of(id)), as_multiset(&dense));
            }
        };
        unrefreshed(&grid);
        for (b, batch) in batches.iter().enumerate() {
            let points: Vec<_> = batch.iter().map(|&(_, p)| p).collect();
            let moves: Vec<(NodeId, Position)> = batch
                .iter()
                .map(|&(i, _)| NodeId((i % n) as u32))
                .zip(positions_of(&points))
                .collect();
            grid.move_nodes(&moves);
            check(&mut grid, &format!("after move batch {b}"));
        }
        grid.move_nodes(&every_node_to(&next, grid.positions()));
        check(&mut grid, "after repositioning every node");
        let c = grid.counters();
        prop_assert!(c.sorts <= c.rebuilds + n as u64, "{c:?}");
    }
}
