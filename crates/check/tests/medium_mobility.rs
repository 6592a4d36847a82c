//! Differential check of the lazy epoch-stamped medium under *realistic*
//! mobility: random-waypoint trajectories (the exact workload of the
//! `random200-mobility` / `random500-mobility` benches and the ELFN
//! extension study) driven through both [`Medium::move_nodes`] and the
//! dense [`ReferenceMedium`] oracle, asserting bit-identical effect
//! lists on every refresh.
//!
//! The proptest differential in `mwn-phy` covers adversarial positions
//! (cell boundaries, co-location, inclusive range edges); this test
//! covers the integration path: `MobilityModel::step` → changed-position
//! diff → lazy epoch-stamped update, tick after tick. Queries are
//! deliberately *sparse* — only a rotating subset of nodes is refreshed
//! each tick, so staleness accumulates across many epochs before a node
//! is read, exactly the transmission pattern the lazy medium optimizes
//! for. A list served without the rebuild a move batch demands would
//! surface here as a divergent refresh, and a rebuild the staleness rule
//! does not call for as a counter mismatch.

use mwn::mobility::{MobilityModel, RandomWaypoint};
use mwn::{topology, SimDuration};
use mwn_phy::{Medium, Position, RangeModel, ReferenceMedium};
use mwn_pkt::NodeId;
use mwn_sim::Pcg32;

/// The medium's staleness rule, modelled outside it: the epoch each
/// node's list was last built at (0 = the construction build), and the
/// queries that found their list built at the current epoch.
struct Staleness {
    built: Vec<u64>,
    hits: u64,
}

impl Staleness {
    fn new(nodes: usize) -> Self {
        Staleness {
            built: vec![0; nodes],
            hits: 0,
        }
    }

    /// Every query either hits or rebuilds, and it rebuilds iff a move
    /// batch happened since the list was built.
    fn assert_matches(&self, c: &mwn_phy::MediumCounters) {
        assert_eq!(c.queries, self.hits + c.rebuilds, "{c:?}");
        assert_eq!(c.revalidations, 0);
    }
}

/// Refreshes `grid`'s list for every node satisfying `pick` and compares
/// it against the dense oracle, which is recomputed eagerly every tick.
fn assert_media_agree(
    grid: &mut Medium,
    dense: &ReferenceMedium,
    tick: usize,
    pick: impl Fn(usize) -> bool,
    model: &mut Staleness,
) {
    assert_eq!(
        grid.positions(),
        dense.positions(),
        "positions at tick {tick}"
    );
    for tx in (0..grid.positions().len()).filter(|&tx| pick(tx)) {
        let id = NodeId(tx as u32);
        if model.built[tx] == grid.epoch() {
            model.hits += 1;
        }
        model.built[tx] = grid.epoch();
        assert_eq!(
            grid.refresh(id),
            dense.effects_of(id),
            "effect lists diverged for tx {tx} at tick {tick}"
        );
    }
}

/// Random-waypoint trajectories over the paper-density 1500 × 500 m²
/// field: every node moves every tick, so each epoch invalidates almost
/// every neighborhood, while only a rotating third of the nodes is
/// queried per tick (all of them every 25th tick and at the end).
#[test]
fn waypoint_trajectories_keep_lazy_and_dense_media_identical() {
    let topo = topology::random(40, 1500.0, 500.0, 250.0, 7);
    let params = RandomWaypoint {
        width: 1500.0,
        height: 500.0,
        min_speed: 1.0,
        max_speed: 20.0,
        pause: SimDuration::from_millis(500),
        tick: SimDuration::from_millis(100),
    };
    let mut model = MobilityModel::new(params, topo.positions().to_vec(), Pcg32::new(99));
    let mut grid = Medium::new(topo.positions().to_vec(), RangeModel::paper());
    let mut dense = ReferenceMedium::new(topo.positions().to_vec(), RangeModel::paper());
    let mut staleness = Staleness::new(40);
    assert_media_agree(&mut grid, &dense, 0, |_| true, &mut staleness);

    let mut moves: Vec<(NodeId, Position)> = Vec::new();
    for tick in 1..=300 {
        let old: Vec<Position> = grid.positions().to_vec();
        let new = model.step();
        moves.clear();
        for (i, (&n, &o)) in new.iter().zip(&old).enumerate() {
            if n != o {
                moves.push((NodeId(i as u32), n));
            }
        }
        grid.move_nodes(&moves);
        dense.move_nodes(&moves);
        let full = tick % 25 == 0 || tick == 300;
        assert_media_agree(
            &mut grid,
            &dense,
            tick,
            |tx| full || (tx + tick) % 3 == 0,
            &mut staleness,
        );
    }
    let c = grid.counters();
    assert!(c.epoch > 0, "trajectories never moved anything");
    staleness.assert_matches(&c);
}

/// Long pauses make the per-tick moved set *sparse* (most nodes paused,
/// a few in flight): most queried lists saw nothing move near them, and
/// a refresh that skipped a genuinely changed neighborhood would get
/// away with it for many ticks before diverging. The field is a 150-node
/// paper-density draw (~2800 × 1100 m²), wider than one node's 3×3 grid
/// cell neighborhood (1650 m at the 550 m cell size).
#[test]
fn sparse_moves_under_long_pauses_stay_identical() {
    let (width, height) = topology::random_large_dims(150);
    let topo = topology::random_large(150, 3);
    // Fast walkers, long pauses: legs take ~30–150 s, then 120 s parked,
    // so once first arrivals stagger, most ticks see only a few movers.
    let params = RandomWaypoint {
        width,
        height,
        min_speed: 10.0,
        max_speed: 30.0,
        pause: SimDuration::from_secs(120),
        tick: SimDuration::from_millis(200),
    };
    let mut model = MobilityModel::new(params, topo.positions().to_vec(), Pcg32::new(5));
    let mut grid = Medium::new(topo.positions().to_vec(), RangeModel::paper());
    let mut dense = ReferenceMedium::new(topo.positions().to_vec(), RangeModel::paper());
    let mut staleness = Staleness::new(150);

    let mut moves: Vec<(NodeId, Position)> = Vec::new();
    let mut saw_sparse_tick = false;
    for tick in 1..=2000 {
        let old: Vec<Position> = grid.positions().to_vec();
        let new = model.step();
        moves.clear();
        for (i, (&n, &o)) in new.iter().zip(&old).enumerate() {
            if n != o {
                moves.push((NodeId(i as u32), n));
            }
        }
        // "Sparse" = at most 10% of the field in flight this tick.
        saw_sparse_tick |= !moves.is_empty() && moves.len() <= 15;
        grid.move_nodes(&moves);
        dense.move_nodes(&moves);
        let full = tick % 200 == 0 || tick == 2000;
        assert_media_agree(
            &mut grid,
            &dense,
            tick,
            |tx| full || (tx * 7 + tick) % 5 == 0,
            &mut staleness,
        );
    }
    assert!(
        saw_sparse_tick,
        "pause regime never produced a sparse move batch; test lost its point"
    );
    staleness.assert_matches(&grid.counters());
}
