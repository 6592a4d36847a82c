//! Differential test: the spatial-grid medium against the dense oracle.
//!
//! [`Medium`] derives effect lists from a flat spatial grid and, since
//! the lazy epoch-stamped refactor, defers rebuilding them from
//! [`Medium::move_nodes`] to the [`Medium::refresh`] that reads them
//! (storing a list only on its node's second refresh in an epoch;
//! [`Medium::lazy`] defers even the first build); [`ReferenceMedium`] is
//! the dense all-pairs implementation it replaced. For ANY initial placement and ANY
//! sequence of move batches — including co-located nodes, nodes exactly
//! on cell boundaries, moves outside the box the grid was built over,
//! and distances exactly at the inclusive
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

/// A move target: mostly inside the initial field, sometimes well
/// outside the box the grid was built over (negative coordinates
/// included), sometimes to one of two spots 10⁹ m away, within range of
/// each other there. Outside the box a node clamps to the nearest
/// border cell.
fn arb_move() -> impl Strategy<Value = (f64, f64, u32)> {
    prop_oneof![
        arb_point(),
        arb_point(),
        (-3000.0f64..6000.0, -2500.0f64..4000.0, 0u32..8),
        (
            prop_oneof![Just(-1e9f64), Just(1e9f64)],
            1e9f64 - 600.0..1e9,
            0u32..1
        ),
    ]
}

fn positions_of(raw: &[(f64, f64, u32)]) -> Vec<Position> {
    raw.iter()
        .map(|&(x, y, lat)| Position::new(snap(x, lat), snap(y, lat / 4 + lat % 4)))
        .collect()
}

/// A list as a multiset: node ids are unique within one, so ordering by
/// id is canonical.
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
            proptest::collection::vec((0usize..32, arb_move()), 1..8),
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

    /// `Medium::lazy` against the dense oracle under the admission rule:
    /// each epoch reads a drawn sequence of nodes, some once, some
    /// repeatedly, some not at all, so lists are filled one-shot, adopted
    /// from the ring, pushed out of it and built or rebuilt in place.
    /// Every read must equal the oracle's list; a node's first read in an
    /// epoch counts a one-shot and stores nothing, its second stores the
    /// list (a build if it never had one, else a rebuild), later ones are
    /// hits — except that a node whose list was ever stored stores
    /// (rebuilds) it at its first read.
    #[test]
    fn lazy_medium_matches_dense_reference(
        initial in proptest::collection::vec(arb_point(), 1..32),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..32, arb_move()), 1..8),
            0..6,
        ),
        reads in proptest::collection::vec(
            proptest::collection::vec(0usize..32, 0..24),
            7..8,
        ),
    ) {
        let initial = positions_of(&initial);
        let n = initial.len();
        let mut lazy = Medium::lazy(initial.clone(), RangeModel::paper());
        let mut dense = ReferenceMedium::new(initial, RangeModel::paper());
        prop_assert_eq!(lazy.counters().builds, 0);
        // The rule, modelled: the epoch of each node's stored list and of
        // its latest one-shot, and what every read should have counted.
        let (mut stored, mut once) = (vec![None; n], vec![None; n]);
        let (mut one_shots, mut built, mut rebuilt) = (0u64, 0u64, 0u64);
        for epoch in 0..=batches.len() {
            if epoch > 0 {
                let batch = &batches[epoch - 1];
                let points: Vec<_> = batch.iter().map(|&(_, p)| p).collect();
                let moves: Vec<(NodeId, Position)> = batch
                    .iter()
                    .map(|&(i, _)| NodeId((i % n) as u32))
                    .zip(positions_of(&points))
                    .collect();
                lazy.move_nodes(&moves);
                dense.move_nodes(&moves);
            }
            let now = Some(lazy.epoch());
            for tx in reads[epoch].iter().map(|&i| i % n) {
                let id = NodeId(tx as u32);
                prop_assert_eq!(lazy.is_fresh(id), stored[tx] == now, "tx {} before its read", tx);
                if stored[tx] != now {
                    if once[tx] != now && stored[tx].is_none() {
                        once[tx] = now;
                        one_shots += 1;
                    } else {
                        if stored[tx].is_none() { built += 1 } else { rebuilt += 1 }
                        stored[tx] = now;
                    }
                }
                prop_assert_eq!(lazy.refresh(id), dense.effects_of(id), "tx {} at epoch {}", tx, epoch);
                prop_assert_eq!(lazy.is_fresh(id), stored[tx] == now, "tx {} after its read", tx);
                let c = lazy.counters();
                prop_assert_eq!((c.one_shots, c.builds, c.rebuilds), (one_shots, built, rebuilt));
            }
        }
        prop_assert_eq!(lazy.positions(), dense.positions());
    }

    /// A full reposition — every node moved in one batch — against the
    /// dense oracle.
    #[test]
    fn set_positions_matches_dense_reference(
        initial in proptest::collection::vec(arb_point(), 1..24),
        next in proptest::collection::vec(arb_move(), 1..24),
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
    /// per-transmitter scan, and so does `effects_of` on every list
    /// `Medium::new` stored, before any refresh.
    #[test]
    fn refreshed_lists_are_in_arrival_order(
        initial in proptest::collection::vec(arb_point(), 1..32),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..32, arb_move()), 1..8),
            0..6,
        ),
        next in proptest::collection::vec(arb_move(), 1..32),
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
        for tx in 0..n {
            let id = NodeId(tx as u32);
            let dense = ReferenceMedium::effects_from(grid.positions(), ranges, id);
            prop_assert_eq!(grid.effects_of(id), dense.as_slice(), "tx {} as built", tx);
        }
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
        prop_assert_eq!(grid.counters().builds, n as u64);
    }
}
