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
//! for — and a fixed subset is refreshed twice per tick, as repeat
//! transmitters are, so lists are both filled one-shot and stored. A
//! list served without the rebuild a move batch demands would surface
//! here as a divergent refresh, and a one-shot, build or rebuild the
//! rules do not call for as a counter mismatch.

use mwn::mobility::{MobilityModel, RandomWaypoint};
use mwn::{topology, SimDuration};
use mwn_phy::{Medium, Position, RangeModel, ReferenceMedium};
use mwn_pkt::NodeId;
use mwn_sim::Pcg32;

/// The medium's staleness and admission rules, modelled outside it: the
/// epoch each node's list was last stored at (`None` = never stored)
/// and of its latest one-shot fill, the lists built up front, and what
/// each query found.
struct Staleness {
    built: Vec<Option<u64>>,
    once: Vec<Option<u64>>,
    up_front: u64,
    hits: u64,
    one_shots: u64,
    builds: u64,
    rebuilds: u64,
}

impl Staleness {
    /// The model of a `Medium::new` medium (every list built at epoch
    /// 0) or, with `eager` false, of a `Medium::lazy` one (none built).
    fn new(nodes: usize, eager: bool) -> Self {
        Staleness {
            built: vec![eager.then_some(0); nodes],
            once: vec![None; nodes],
            up_front: if eager { nodes as u64 } else { 0 },
            hits: 0,
            one_shots: 0,
            builds: 0,
            rebuilds: 0,
        }
    }

    /// Every query hits, fills a one-shot list or stores one: it hits iff
    /// the stored list is current; otherwise a node's first query in the
    /// epoch is a one-shot, unless its list was ever stored, and the
    /// query that stores builds iff the list was never stored and
    /// rebuilds iff a move batch happened since it was.
    fn assert_matches(&self, c: &mwn_phy::MediumCounters) {
        let stored = self.builds + self.rebuilds;
        assert_eq!(c.queries, self.hits + self.one_shots + stored, "{c:?}");
        assert_eq!(c.one_shots, self.one_shots, "{c:?}");
        assert_eq!(c.builds, self.up_front + self.builds, "{c:?}");
        assert_eq!(c.rebuilds, self.rebuilds, "{c:?}");
        assert_eq!(c.revalidations, 0);
    }
}

/// Refreshes `grid`'s list for every node satisfying `pick` — twice for
/// those satisfying `repeat`, the nodes that transmit more than once in
/// an epoch — and compares it against the dense oracle, which is
/// recomputed eagerly every tick.
fn assert_media_agree(
    grid: &mut Medium,
    dense: &ReferenceMedium,
    tick: usize,
    pick: impl Fn(usize) -> bool,
    repeat: impl Fn(usize) -> bool,
    model: &mut Staleness,
) {
    assert_eq!(
        grid.positions(),
        dense.positions(),
        "positions at tick {tick}"
    );
    let reads = (0..grid.positions().len())
        .filter(|&tx| pick(tx))
        .flat_map(|tx| std::iter::repeat_n(tx, 1 + repeat(tx) as usize));
    for tx in reads {
        let id = NodeId(tx as u32);
        let now = Some(grid.epoch());
        if model.built[tx] == now {
            model.hits += 1;
        } else if model.once[tx] != now && model.built[tx].is_none() {
            model.one_shots += 1;
            model.once[tx] = now;
        } else {
            match model.built[tx] {
                Some(_) => model.rebuilds += 1,
                None => model.builds += 1,
            }
            model.built[tx] = now;
        }
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
    let mut staleness = Staleness::new(40, true);
    assert_media_agree(&mut grid, &dense, 0, |_| true, |_| false, &mut staleness);

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
            |tx| tx % 4 == 0,
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
/// cell neighborhood (1650 m at the 550 m cell size). The medium is a
/// `Medium::lazy` one, so each list is first built whenever its node is
/// first queried, after any number of move batches.
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
    let mut grid = Medium::lazy(topo.positions().to_vec(), RangeModel::paper());
    let mut dense = ReferenceMedium::new(topo.positions().to_vec(), RangeModel::paper());
    let mut staleness = Staleness::new(150, false);

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
            |tx| tx % 3 == 0,
            &mut staleness,
        );
    }
    assert!(
        saw_sparse_tick,
        "pause regime never produced a sparse move batch; test lost its point"
    );
    assert!(staleness.one_shots > 0 && staleness.builds > 0 && staleness.rebuilds > 0);
    staleness.assert_matches(&grid.counters());
}
