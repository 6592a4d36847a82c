//! Differential test: the cell-ordered component sweep behind
//! [`Topology::is_connected`] and [`Topology::largest_component_fraction`]
//! against a brute-force union-find over every pair of nodes.
//!
//! Fields are drawn at densities around the paper's (one node per
//! 20 800 m²), placed anywhere on the plane (negative coordinates
//! included), and decorated with co-located nodes, pairs at exactly the
//! link range, and a shifted copy of the whole field (two equal
//! components). Component sizes do not depend on the order the sweep
//! visits nodes in, so both sides must agree exactly.

use mwn::topology::Topology;
use mwn_phy::Position;
use mwn_sim::Pcg32;
use proptest::prelude::*;

/// Field sizes. Debug builds stop at 500 nodes; `scripts/ci.sh` runs
/// this test in release, where the 5000-node field checks the sweep at
/// city density (the O(n²) oracle costs ~0.1 s per case there).
fn field_sizes() -> Vec<usize> {
    if cfg!(debug_assertions) {
        vec![1, 2, 9, 60, 500]
    } else {
        vec![1, 2, 9, 60, 500, 5000]
    }
}

/// Size of the largest component, by union-find over all n² pairs.
fn union_find_largest(positions: &[Position], range: f64) -> usize {
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let n = positions.len();
    let mut parent: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in i + 1..n {
            if positions[i].distance_to(positions[j]) <= range {
                let (a, b) = (root(&mut parent, i), root(&mut parent, j));
                parent[a] = b;
            }
        }
    }
    let mut size = vec![0usize; n];
    for i in 0..n {
        size[root(&mut parent, i)] += 1;
    }
    size.into_iter().max().unwrap_or(0)
}

/// Checks both sweeps against the oracle; returns the largest size.
fn assert_sweep_matches(positions: Vec<Position>, range: f64) -> usize {
    let n = positions.len();
    let best = union_find_largest(&positions, range);
    let t = Topology::from_positions(positions);
    assert_eq!(
        t.largest_component_fraction(range),
        best as f64 / n as f64,
        "largest component of {n} nodes at range {range}"
    );
    assert_eq!(
        t.is_connected(range),
        best == n,
        "{n} nodes at range {range}"
    );
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn component_sweep_matches_union_find(
        seed in any::<u64>(),
        size in 0usize..6,
        density in 0.25f64..4.0,
        range in prop_oneof![Just(250.0f64), Just(550.0f64), 20.0f64..900.0],
        origin in (-1e5f64..1e5, -1e5f64..1e5),
        co_located in 0usize..6,
        at_range in 0usize..6,
        twin in 0u32..3,
    ) {
        let sizes = field_sizes();
        let n = sizes[size % sizes.len()];
        let mut rng = Pcg32::new(seed);
        let area = n as f64 * 20_800.0 / density;
        let (w, h) = ((area * 2.5).sqrt(), (area / 2.5).sqrt());
        let mut positions: Vec<Position> = (0..n)
            .map(|_| {
                Position::new(
                    origin.0 + rng.gen_range_f64(0.0, w),
                    origin.1 + rng.gen_range_f64(0.0, h),
                )
            })
            .collect();
        for _ in 0..co_located {
            let p = positions[rng.gen_range_u32(n as u32) as usize];
            positions.push(p);
        }
        // Whole-metre anchors and a 3-4-5 offset keep the distances at
        // exactly `range` where `range` is a multiple of 5 m.
        for _ in 0..at_range {
            let p = positions[rng.gen_range_u32(n as u32) as usize];
            let p = Position::new(p.x.round(), p.y.round());
            positions.extend([
                p,
                Position::new(p.x + range, p.y),
                Position::new(p.x, p.y - range),
                Position::new(p.x - 0.6 * range, p.y + 0.8 * range),
            ]);
        }
        if twin == 0 {
            let shift = w + 10.0 * range;
            let copy: Vec<Position> = positions
                .iter()
                .map(|p| Position::new(p.x + shift, p.y))
                .collect();
            positions.extend(copy);
        }
        assert_sweep_matches(positions, range);
    }
}

#[test]
fn hand_built_fields_match_union_find() {
    let p = Position::new;
    // A single node is connected.
    assert_eq!(assert_sweep_matches(vec![p(-3.0, 7.0)], 250.0), 1);
    // Pairs at exactly the range are linked, on both axes and diagonally.
    let exact = vec![p(0.0, 0.0), p(250.0, 0.0), p(250.0, -250.0)];
    assert_eq!(assert_sweep_matches(exact, 250.0), 3);
    let diagonal = vec![p(-400.0, -300.0), p(-250.0, -100.0)];
    assert_eq!(assert_sweep_matches(diagonal, 250.0), 2);
    // Co-located nodes, and a pair 10⁹ m from a third node (a sparse box).
    assert_eq!(assert_sweep_matches(vec![p(5.0, 5.0); 4], 250.0), 4);
    let sparse = vec![p(0.0, 0.0), p(1e9, -1e9), p(1e9, -1e9 + 100.0)];
    assert_eq!(assert_sweep_matches(sparse, 250.0), 2);
    // Two equal chains far apart: fraction 1/2, not connected.
    let chain = |x0: f64| (0..6).map(move |i| p(x0 + 200.0 * f64::from(i), -50.0));
    let twins: Vec<Position> = chain(-3000.0).chain(chain(4000.0)).collect();
    assert_eq!(assert_sweep_matches(twins, 250.0), 6);
}
