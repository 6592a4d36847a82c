//! Differential testing of the sharded wave-burst engine against the
//! sequential oracle.
//!
//! Random scenario specs are drawn through the same vendored-proptest
//! strategy the fuzzer uses, then each spec is run twice more on worker
//! threads (`--shards 2` and `--shards 4`). The sharded engine is held
//! to *byte-identical* behavior: trace digest, drop-ledger totals, the
//! packet-custody conservation audit, delivered counts, final simulated
//! time and frame-slab state must all match the sequential run exactly.
//! Any divergence is greedily shrunk (via [`ScenarioSpec::simpler`]) to
//! a minimal reproduction before failing.

use mwn::{Scenario, SimDuration, SimTime};
use mwn_check::fuzz::{spec_strategy, ScenarioSpec};
use mwn_check::golden::trace_digest;
use mwn_check::run_case_sharded;
use proptest::{Strategy, TestRng};

/// Simulated-time deadline for every differential case (same as the
/// fuzzer's).
const DEADLINE: SimDuration = SimDuration::from_secs(20);

/// Shard counts checked against the sequential (shards = 1) oracle.
const SHARD_COUNTS: [usize; 2] = [2, 4];

/// Everything the oracle comparison observes about one finished run.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    trace: (u64, u64),
    now: SimTime,
    delivered: u64,
    drops: u64,
    balanced: bool,
    violations: usize,
    frames_in_flight: usize,
    stale_frame_releases: u64,
    traffic_journal: Option<(u64, u64)>,
}

fn observe(spec: &ScenarioSpec, shards: usize) -> (Observation, u64) {
    let scenario = spec.scenario();
    let (records, net) = run_case_sharded(&scenario, spec.target(), DEADLINE, shards);
    let bursts = net.bursts_run();
    let obs = Observation {
        trace: trace_digest(&records),
        now: net.now(),
        delivered: net.total_delivered(),
        drops: net.drop_report().grand_total(),
        balanced: net.conservation_report().is_some_and(|r| r.is_balanced()),
        violations: mwn_check::conservation_violations(&net).len(),
        frames_in_flight: net.frames_in_flight(),
        stale_frame_releases: net.stale_frame_releases(),
        traffic_journal: net.traffic_digest(),
    };
    (obs, bursts)
}

/// Compares every sharded run of `spec` against the sequential oracle.
/// `Err(description)` on divergence; `Ok(bursts)` (the total parallel
/// bursts across the sharded runs) when everything matched.
fn divergence(spec: &ScenarioSpec) -> Result<u64, String> {
    let (oracle, _) = observe(spec, 1);
    let mut bursts = 0;
    for &shards in &SHARD_COUNTS {
        let (sharded, b) = observe(spec, shards);
        bursts += b;
        if sharded != oracle {
            return Err(format!(
                "shards={shards} diverged on [{spec}]:\n  sequential: {oracle:?}\n  sharded:    {sharded:?}"
            ));
        }
    }
    Ok(bursts)
}

/// Greedy structural shrink: repeatedly take the first simpler spec that
/// still diverges.
fn shrink(mut spec: ScenarioSpec, mut evidence: String) -> (ScenarioSpec, String) {
    'outer: loop {
        for candidate in spec.simpler() {
            if let Err(e) = divergence(&candidate) {
                spec = candidate;
                evidence = e;
                continue 'outer;
            }
        }
        return (spec, evidence);
    }
}

#[test]
fn random_scenarios_match_the_sequential_oracle() {
    let strategy = spec_strategy();
    let mut total_bursts = 0;
    for case in 0..8u32 {
        let mut rng = TestRng::for_case("sharded-differential", case);
        let drawn = strategy.generate(&mut rng);
        // Open-loop traffic falls back to the sequential path (trivially
        // equal), so zero it out here to keep every case exercising the
        // parallel engine; the fallback itself is covered below.
        let spec = ScenarioSpec {
            traffic: 0,
            ..drawn
        };
        match divergence(&spec) {
            Ok(bursts) => total_bursts += bursts,
            Err(evidence) => {
                let (min, evidence) = shrink(spec, evidence);
                panic!("case {case} (shrunk to [{min}]):\n{evidence}");
            }
        }
    }
    // The comparison is vacuous if no case ever left the sequential
    // path. A chain's interior nodes reach exactly `MIN_BATCH` receivers
    // (two hops either side), so chains of four hops and more burst.
    assert!(total_bursts > 0, "no case engaged the parallel engine");
}

/// A burst is a run of one wave's receivers, so engagement needs waves of
/// at least `MIN_BATCH` receivers with nothing else due inside them. The
/// paper's grid and random field reach a dozen and more per transmission:
/// every sharded run of them must burst, and still match the oracle.
#[test]
fn dense_fields_engage_the_parallel_engine_and_match() {
    use mwn::Transport;
    use mwn_phy::DataRate;
    let fields = [
        (
            "grid6",
            Scenario::grid6(DataRate::MBPS_11, Transport::newreno(), 1),
        ),
        (
            "random10",
            Scenario::random10(DataRate::MBPS_2, Transport::vegas(2), 42),
        ),
    ];
    for (name, scenario) in fields {
        let run = |shards: usize| {
            let (records, net) = run_case_sharded(&scenario, 40, DEADLINE, shards);
            let obs = (
                trace_digest(&records),
                net.now(),
                net.total_delivered(),
                net.drop_report().grand_total(),
                net.frames_in_flight(),
                net.stale_frame_releases(),
            );
            (obs, net.bursts_run())
        };
        let (oracle, _) = run(1);
        for &shards in &SHARD_COUNTS {
            let (sharded, bursts) = run(shards);
            assert_eq!(sharded, oracle, "{name} shards={shards}");
            assert!(bursts > 0, "{name} shards={shards} never burst");
        }
    }
}

#[test]
fn traffic_specs_fall_back_and_still_match() {
    // A spec with open-loop churn: `--shards` must be accepted but the
    // engine degrades to the sequential path, so the runs (and the
    // completion journals) are identical by construction — this guards
    // the fallback plumbing.
    let spec = ScenarioSpec {
        hops: 2,
        reverse: false,
        rate: 2,
        transport: 0,
        packets: 15,
        traffic: 8,
        seed: 11,
    };
    let (oracle, _) = observe(&spec, 1);
    assert!(oracle.traffic_journal.is_some(), "spec carries traffic");
    for &shards in &SHARD_COUNTS {
        let (sharded, bursts) = observe(&spec, shards);
        assert_eq!(sharded, oracle, "shards={shards}");
        assert_eq!(bursts, 0, "traffic runs must stay on the sequential path");
    }
}

#[test]
fn deadline_bound_runs_match_the_oracle() {
    // No delivery target: the runs are cut by wall of simulated time, so
    // the sharded engine's stop-bound gating never kicks in and bursts
    // run right up to the deadline.
    let spec = ScenarioSpec {
        hops: 4,
        reverse: true,
        rate: 0,
        transport: 4,
        packets: 0,
        traffic: 0,
        seed: 5,
    };
    let deadline = SimTime::ZERO + SimDuration::from_secs(3);
    let run = |shards: usize| {
        let scenario: Scenario = spec.scenario();
        let mut net = scenario.build();
        net.set_shards(shards);
        net.enable_trace(mwn_check::TRACE_CAPACITY);
        net.enable_audit();
        net.run_until(deadline);
        let records: Vec<_> = net.trace().into_iter().cloned().collect();
        (
            trace_digest(&records),
            net.now(),
            net.total_delivered(),
            net.drop_report().grand_total(),
        )
    };
    let oracle = run(1);
    for &shards in &SHARD_COUNTS {
        assert_eq!(run(shards), oracle, "shards={shards}");
    }
}
