//! Lazy-vs-eager differentials for the epoch-stamped medium.
//!
//! Two layers of evidence that deferring effect-list rebuilds from
//! movement time to transmission time changes *nothing observable*:
//!
//! 1. A proptest over random-waypoint trajectories at 50–5000 nodes
//!    (the city-scale regime the laziness exists for): after every move
//!    batch, a sampled set of lazy [`Medium::refresh`] results must be
//!    bit-identical to [`ReferenceMedium::effects_from`], the dense
//!    per-transmitter oracle evaluated at the *current* positions. The
//!    per-node oracle keeps the check O(n) per sample, so the 5000-node
//!    field is tested directly instead of being trusted by induction.
//! 2. A whole-network differential: the same mobile scenario run with
//!    the default lazy medium and with [`Network::set_eager_medium`]
//!    (refresh everything on every mobility tick, the pre-lazy
//!    behaviour) must produce byte-identical trace digests — while the
//!    medium counters prove the lazy run actually skipped rebuilds.

use mwn::mobility::{MobilityModel, RandomWaypoint};
use mwn::{topology, Scenario, SimDuration, SimTime, Transport};
use mwn_check::golden::trace_digest;
use mwn_phy::{DataRate, Medium, Position, RangeModel, ReferenceMedium};
use mwn_pkt::NodeId;
use mwn_sim::Pcg32;
use proptest::prelude::*;

/// Field sizes for the trajectory differential. Debug builds skip the
/// 5000-node field (a single debug case costs ~10 s); `scripts/ci.sh`
/// runs this test in release mode, where the full range is exercised.
fn field_sizes() -> Vec<usize> {
    if cfg!(debug_assertions) {
        vec![50, 500]
    } else {
        vec![50, 500, 5000]
    }
}

/// Deterministic sample stream (splitmix-style LCG) so refresh targets
/// vary across ticks and seeds without `rand`.
struct Sampler(u64);

impl Sampler {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// Random-waypoint trajectories; after each tick only a handful of
    /// nodes is refreshed (staleness accumulates across epochs for the
    /// rest), and each refresh must match the dense per-node oracle.
    #[test]
    fn lazy_refresh_matches_dense_oracle_across_scales(
        size_sel in 0usize..3,
        seed in 0u64..256,
    ) {
        let sizes = field_sizes();
        let n = sizes[size_sel % sizes.len()];
        let (width, height) = topology::random_large_dims(n);
        let topo = topology::random_large(n, seed);
        let params = RandomWaypoint {
            width,
            height,
            min_speed: 1.0,
            max_speed: 20.0,
            pause: SimDuration::from_millis(500),
            tick: SimDuration::from_millis(100),
        };
        let mut model = MobilityModel::new(params, topo.positions().to_vec(), Pcg32::new(seed));
        let mut medium = Medium::new(topo.positions().to_vec(), RangeModel::paper());
        let ranges = medium.ranges();
        let mut sampler = Sampler(seed ^ 0x9e37_79b9_7f4a_7c15);
        let ticks = if n >= 5000 { 12 } else { 40 };

        let mut moves: Vec<(NodeId, Position)> = Vec::new();
        for tick in 1..=ticks {
            let old: Vec<Position> = medium.positions().to_vec();
            let new = model.step();
            moves.clear();
            for (i, (&np, &op)) in new.iter().zip(&old).enumerate() {
                if np != op {
                    moves.push((NodeId(i as u32), np));
                }
            }
            medium.move_nodes(&moves);
            for _ in 0..6 {
                let tx = NodeId(sampler.next(n) as u32);
                let expected =
                    ReferenceMedium::effects_from(medium.positions(), ranges, tx);
                prop_assert_eq!(
                    medium.refresh(tx),
                    expected.as_slice(),
                    "lazy refresh diverged from dense oracle for tx {:?} at tick {} (n = {})",
                    tx, tick, n
                );
            }
        }
        // Epilogue: bring everything current and spot-check that the
        // bulk path agrees with the oracle too.
        medium.refresh_all();
        for _ in 0..8 {
            let tx = NodeId(sampler.next(n) as u32);
            let expected = ReferenceMedium::effects_from(medium.positions(), ranges, tx);
            prop_assert_eq!(medium.effects_of(tx), expected.as_slice());
        }
        let c = medium.counters();
        prop_assert!(c.queries >= c.rebuilds);
        prop_assert_eq!(c.revalidations, 0);
        prop_assert_eq!(c.epoch, medium.epoch());
    }
}

/// Runs a mobile scenario and returns its trace digest, delivery count
/// and the medium's lazy-path counters.
fn run_mobile(eager: bool) -> ((u64, u64), u64, mwn_phy::MediumCounters) {
    let mut s = Scenario::random_large(60, DataRate::MBPS_2, Transport::newreno(), 11);
    let (width, height) = topology::random_large_dims(60);
    s.mobility = Some(RandomWaypoint {
        width,
        height,
        min_speed: 1.0,
        max_speed: 10.0,
        pause: SimDuration::from_secs(2),
        tick: SimDuration::from_millis(100),
    });
    let mut net = s.build();
    net.set_eager_medium(eager);
    net.enable_trace(mwn_check::TRACE_CAPACITY);
    let _ = net.run_until_delivered(150, SimTime::ZERO + SimDuration::from_secs(20));
    assert_eq!(net.trace_dropped(), 0, "trace buffer overflowed");
    let records: Vec<_> = net.trace().into_iter().cloned().collect();
    (
        trace_digest(&records),
        net.total_delivered(),
        net.medium_counters(),
    )
}

/// The system-level pin: lazy (default) and eager mobility ticks must be
/// observationally indistinguishable, down to the trace digest.
#[test]
fn lazy_and_eager_networks_produce_identical_traces() {
    let (lazy_digest, lazy_delivered, lazy_counters) = run_mobile(false);
    let (eager_digest, eager_delivered, eager_counters) = run_mobile(true);
    assert_eq!(lazy_digest, eager_digest, "trace digests diverged");
    assert_eq!(lazy_delivered, eager_delivered);
    assert!(
        lazy_delivered > 0,
        "scenario delivered nothing; the differential proved nothing"
    );
    assert!(lazy_counters.epoch > 0, "mobility never ticked");
    // The runs are identical *observationally*, not mechanically: the
    // eager run rebuilds every list on every tick, the lazy run only on
    // stale transmission. If this stops holding the lazy path is dead
    // code and the perf win is imaginary.
    assert!(
        lazy_counters.rebuilds < eager_counters.rebuilds,
        "lazy run rebuilt as much as eager ({} vs {})",
        lazy_counters.rebuilds,
        eager_counters.rebuilds
    );
}
