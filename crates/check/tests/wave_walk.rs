//! The in-place wave walk against the schedule it replaced.
//!
//! A transmission's signal edge reaches its receivers through one wave
//! event that walks the receiver list in place and goes back through the
//! queue only when something else is due first. The claim is that this is
//! *exactly* — not approximately — the order one event per receiver gave.
//! `Network::set_yield_every_receiver` turns the walk into that old
//! schedule by construction (every receiver is its own queue entry under
//! its own `(time, seq)` key), so the two must agree on every observable,
//! on any scenario, at any stop point.

use mwn::mobility::RandomWaypoint;
use mwn::trace::{TraceEvent, TraceRecord};
use mwn::{Network, Scenario, SimDuration, SimTime, StepOutcome, Transport};
use mwn_check::fuzz::{spec_strategy, ScenarioSpec};
use mwn_check::golden::trace_digest;
use mwn_check::TRACE_CAPACITY;
use mwn_phy::DataRate;
use proptest::{Strategy, TestRng};

fn at(d: SimDuration) -> SimTime {
    SimTime::ZERO + d
}

/// Everything two equivalent runs must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    trace: (u64, u64),
    now: SimTime,
    delivered: u64,
    traffic_journal: Option<(u64, u64)>,
    traffic_arrivals: Option<(u64, u64)>,
    frames_in_flight: usize,
    stale_frame_releases: u64,
}

fn traced(scenario: &Scenario) -> Network {
    let mut net = scenario.build();
    net.enable_trace(TRACE_CAPACITY);
    net
}

fn records(net: &Network) -> Vec<TraceRecord> {
    assert_eq!(net.trace_dropped(), 0, "trace buffer overflowed");
    net.trace().into_iter().cloned().collect()
}

fn observe(net: &Network) -> Observation {
    Observation {
        trace: trace_digest(&records(net)),
        now: net.now(),
        delivered: net.total_delivered(),
        traffic_journal: net.traffic_digest(),
        traffic_arrivals: net.traffic_arrival_digest(),
        frames_in_flight: net.frames_in_flight(),
        stale_frame_releases: net.stale_frame_releases(),
    }
}

/// The three field shapes a spec is stretched over: the fuzzer's chain
/// (2–4 receivers per wave), the paper's 21-node grid and its 120-node
/// random field (a dozen and more).
fn scenario_for(spec: &ScenarioSpec, field: u8, mobile: bool) -> Scenario {
    let chain = spec.scenario();
    let transport = chain.flows[0].transport;
    let mut s = match field {
        0 => chain.clone(),
        1 => Scenario::grid6(chain.bandwidth, transport, chain.seed),
        _ => Scenario::random10(chain.bandwidth, transport, chain.seed),
    };
    s.traffic = chain.traffic;
    if mobile {
        s.mobility = Some(RandomWaypoint::strip(20.0, SimDuration::from_millis(200)));
    }
    s
}

/// Differential proptest: static, random-waypoint and open-loop specs,
/// inline walk against yield-after-every-receiver.
#[test]
fn inline_walk_matches_one_event_per_receiver() {
    let strategy = (spec_strategy(), 0u8..3, proptest::any::<bool>());
    let deadline = at(SimDuration::from_secs(5));
    let (mut open_loop, mut mobile_cases) = (0, 0);
    for case in 0..24u32 {
        let mut rng = TestRng::for_case("wave-walk-differential", case);
        let (spec, field, mobile) = strategy.generate(&mut rng);
        let scenario = scenario_for(&spec, field, mobile);
        open_loop += u32::from(scenario.traffic.is_some());
        mobile_cases += u32::from(mobile);
        let run = |per_receiver: bool| {
            let mut net = traced(&scenario);
            net.set_yield_every_receiver(per_receiver);
            let outcome = net.run_until_delivered(spec.target(), deadline);
            (outcome, observe(&net))
        };
        assert_eq!(
            run(false),
            run(true),
            "case {case}: [{spec}] field={field} mobile={mobile}"
        );
    }
    assert!(open_loop > 0 && mobile_cases > 0, "draw covers every axis");
}

/// `run_until_traffic_done` stops on flow completion, which moves no
/// delivery counter: the walk must hand control back there too.
#[test]
fn traffic_done_stops_on_the_same_event_either_way() {
    let scenario = Scenario::open_loop(
        10,
        mwn::TrafficModel::web(40),
        Transport::newreno(),
        DataRate::MBPS_11,
        7,
    );
    let run = |per_receiver: bool| {
        let mut net = traced(&scenario);
        net.set_yield_every_receiver(per_receiver);
        let outcome = net.run_until_traffic_done(at(SimDuration::from_secs(600)));
        assert_eq!(outcome, StepOutcome::TargetReached);
        observe(&net)
    };
    assert_eq!(run(false), run(true));
}

/// Stop-point exactness: however a run is cut up, it stops after the same
/// event at the same nanosecond. One call, 100 delivery slices, and
/// `run_until` deadlines placed *inside* waves' skew windows — after the
/// first receiver's edge, before the last's — all agree.
#[test]
fn stop_points_are_exact_however_the_run_is_sliced() {
    const TARGET: u64 = 300;
    let scenario = Scenario::grid6(DataRate::MBPS_11, Transport::newreno(), 3);
    let limit = at(SimDuration::from_secs(60));

    let mut whole = traced(&scenario);
    assert_eq!(
        whole.run_until_delivered(TARGET, limit),
        StepOutcome::TargetReached
    );
    let reference = observe(&whole);

    let mut sliced = traced(&scenario);
    for k in 1..=100 {
        sliced.run_until_delivered(TARGET * k / 100, limit);
    }
    assert_eq!(observe(&sliced), reference, "100 delivery slices");

    // Grid neighbours sit 200 m apart: edges arrive 667 ns, 943 ns,
    // 1 334 ns, … after a transmission starts, so +800 ns splits every
    // leading-edge wave and airtime + 1 µs every trailing-edge one.
    let mut cuts: Vec<SimTime> = records(&whole)
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::MacTx { airtime, .. } => Some([
                r.time + SimDuration::from_nanos(800),
                r.time + airtime + SimDuration::from_nanos(1_000),
            ]),
            _ => None,
        })
        .step_by(7)
        .flatten()
        .filter(|&t| t < reference.now)
        .collect();
    cuts.sort_unstable();
    assert!(cuts.len() > 100, "only {} cut points", cuts.len());
    let mut cut = traced(&scenario);
    for &t in &cuts {
        cut.run_until(t);
        assert_eq!(cut.now(), t);
    }
    cut.run_until_delivered(TARGET, limit);
    assert_eq!(observe(&cut), reference, "deadlines inside skew windows");
}

/// A mobility tick between a frame's two walks may rebuild the
/// transmitter's effect list; the trailing edge must still visit exactly
/// the receivers the leading edge visited. Ticks every millisecond at an
/// absurd speed put several ticks — and real membership changes — inside
/// every data frame.
#[test]
fn mobility_ticks_between_a_frames_two_walks_are_harmless() {
    let mut scenario = Scenario::random10(DataRate::MBPS_2, Transport::newreno(), 42);
    let tick = SimDuration::from_millis(1);
    scenario.mobility = Some(RandomWaypoint {
        width: 2500.0,
        height: 1000.0,
        min_speed: 500.0,
        max_speed: 2000.0,
        pause: SimDuration::from_millis(5),
        tick,
    });
    let mut net = traced(&scenario);
    net.run_until(at(SimDuration::from_secs(3)));

    // The premise held: some frame was on the air across a tick.
    let straddled = records(&net).iter().any(|r| match r.event {
        TraceEvent::MacTx { airtime, .. } => {
            let next_tick = (r.time.as_nanos() / tick.as_nanos() + 1) * tick.as_nanos();
            next_tick < (r.time + airtime).as_nanos()
        }
        _ => false,
    });
    assert!(straddled, "no transmission straddled a mobility tick");
    assert!(net.medium_counters().rebuilds > 0, "nothing ever moved");

    // Every started receiver got its end: once the air clears, no slot
    // is left behind and no release ever missed its slot.
    let mut steps = 0;
    while net.frames_in_flight() > 0 {
        net.step();
        steps += 1;
        assert!(steps < 1_000_000, "the air never cleared");
    }
    assert_eq!(net.stale_frame_releases(), 0);
}
