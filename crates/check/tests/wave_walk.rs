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
//!
//! The same goes for NAV timers at MACs with nothing to send, which are
//! parked beside the node instead of queued: `Network::set_eager_nav`
//! queues every one of them, as the engine always used to. And for radio
//! batches at such MACs, which stay in the node's radio cell:
//! `Network::set_eager_mac` hands every one to the MAC. Every case below
//! therefore runs the default engine against the *oracle* — all three
//! switches on — and the proptest against each switch alone as well.

use mwn::mobility::RandomWaypoint;
use mwn::trace::{TraceEvent, TraceRecord};
use mwn::{Network, NetworkTotals, Scenario, SimDuration, SimTime, StepOutcome, Transport};
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
    totals: NetworkTotals,
    /// Every probe sample as `(ns, kind, id, value bits)`.
    probes: Vec<(u64, &'static str, u32, u64)>,
}

/// Which engine runs: the default, or one with the test oracles on.
#[derive(Debug, Clone, Copy)]
struct Engine {
    per_receiver: bool,
    eager_nav: bool,
    eager_mac: bool,
}

const DEFAULT: Engine = Engine {
    per_receiver: false,
    eager_nav: false,
    eager_mac: false,
};
const ORACLE: Engine = Engine {
    per_receiver: true,
    eager_nav: true,
    eager_mac: true,
};

fn traced(scenario: &Scenario, engine: Engine) -> Network {
    let mut net = scenario.build();
    net.enable_trace(TRACE_CAPACITY);
    net.enable_probes(TRACE_CAPACITY);
    net.set_yield_every_receiver(engine.per_receiver);
    net.set_eager_nav(engine.eager_nav);
    net.set_eager_mac(engine.eager_mac);
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
        totals: net.totals(),
        probes: {
            let probes = net.probes().expect("probes enabled");
            assert_eq!(probes.dropped(), 0, "probe buffer overflowed");
            probes
                .samples()
                .map(|s| (s.time.as_nanos(), s.kind.name(), s.id, s.value.to_bits()))
                .collect()
        },
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
/// the default engine against yield-after-every-receiver, eager NAV
/// timers, every radio batch handed to the MAC, and all three.
///
/// (A run that gives up — `DeadlineExpired`, `Quiescent` — leaves `now` at
/// the last event popped, and a parked NAV is by design an event that
/// never pops. Every case drawn here that gives up ends on an event
/// that does something; if a new draw ends on a do-nothing NAV, `now` is
/// the one field the eager-NAV engines may legitimately run past.)
///
/// On the grid and the random field a case costs up to forty times a
/// chain case, so there the draw's packets (10–250) and churned flows
/// (≤ 64) are scaled down into 10–40 and ≤ 16, the fuzzer's ranges
/// before they grew to the paper's; the test keeps its few seconds.
#[test]
fn inline_walk_matches_one_event_per_receiver() {
    let strategy = (spec_strategy(), 0u8..3, proptest::any::<bool>());
    let deadline = at(SimDuration::from_secs(5));
    let (mut open_loop, mut mobile_cases) = (0, 0);
    for case in 0..24u32 {
        let mut rng = TestRng::for_case("wave-walk-differential", case);
        let (spec, field, mobile) = strategy.generate(&mut rng);
        let spec = match field {
            0 => spec,
            _ => ScenarioSpec {
                packets: 10 + (spec.packets - 10) / 8,
                traffic: spec.traffic / 4,
                ..spec
            },
        };
        let scenario = scenario_for(&spec, field, mobile);
        open_loop += u32::from(scenario.traffic.is_some());
        mobile_cases += u32::from(mobile);
        let run = |engine: Engine| {
            let mut net = traced(&scenario, engine);
            let outcome = net.run_until_delivered(spec.target(), deadline);
            (outcome, observe(&net))
        };
        let reference = run(DEFAULT);
        let per_receiver_only = Engine {
            per_receiver: true,
            ..DEFAULT
        };
        let eager_nav_only = Engine {
            eager_nav: true,
            ..DEFAULT
        };
        let eager_mac_only = Engine {
            eager_mac: true,
            ..DEFAULT
        };
        for engine in [per_receiver_only, eager_nav_only, eager_mac_only, ORACLE] {
            assert_eq!(
                reference,
                run(engine),
                "case {case}: [{spec}] field={field} mobile={mobile} vs {engine:?}"
            );
        }
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
    let run = |engine: Engine| {
        let mut net = traced(&scenario, engine);
        let outcome = net.run_until_traffic_done(at(SimDuration::from_secs(600)));
        assert_eq!(outcome, StepOutcome::TargetReached);
        observe(&net)
    };
    assert_eq!(run(DEFAULT), run(ORACLE));
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

    let mut whole = traced(&scenario, DEFAULT);
    assert_eq!(
        whole.run_until_delivered(TARGET, limit),
        StepOutcome::TargetReached
    );
    let reference = observe(&whole);

    for engine in [DEFAULT, ORACLE] {
        let mut sliced = traced(&scenario, engine);
        for k in 1..=100 {
            sliced.run_until_delivered(TARGET * k / 100, limit);
        }
        assert_eq!(observe(&sliced), reference, "100 slices, {engine:?}");
    }

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
    for engine in [DEFAULT, ORACLE] {
        let mut cut = traced(&scenario, engine);
        for &t in &cuts {
            cut.run_until(t);
            assert_eq!(cut.now(), t);
        }
        cut.run_until_delivered(TARGET, limit);
        assert_eq!(observe(&cut), reference, "cuts in skew windows, {engine:?}");
    }
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
    let mut net = traced(&scenario, DEFAULT);
    net.run_until(at(SimDuration::from_secs(3)));
    let mut oracle = traced(&scenario, ORACLE);
    oracle.run_until(at(SimDuration::from_secs(3)));
    assert_eq!(observe(&net), observe(&oracle));

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

/// A parked NAV woken *inside* a walked segment, found in the wild: at
/// 13.363 315 826 s of this run a bystander whose NAV has 44 ns left
/// hears a route request it can answer, which hands its MAC a reply to
/// send — so the NAV enters the queue between that receiver's edge and
/// the next receiver's, 70 ns later, with 3 more still to walk. The walk
/// must stop there and let the queue order the two. (With the floor check
/// in `walk_segment` removed this fails: debug builds on the lookahead
/// assertion, release builds on the trace digest. The hand-built version
/// is `nav_woken_inside_a_walked_segment_…` in `network/cascade.rs`.)
#[test]
fn nav_woken_mid_segment_is_ordered_by_the_queue() {
    let scenario = Scenario::open_loop(
        50,
        mwn::TrafficModel::web(300).with_load(0.3),
        Transport::newreno(),
        DataRate::MBPS_11,
        234,
    );
    let run = |engine: Engine| {
        let mut net = traced(&scenario, engine);
        net.run_until(SimTime::from_nanos(13_400_000_000));
        observe(&net)
    };
    assert_eq!(run(DEFAULT), run(ORACLE));
}
