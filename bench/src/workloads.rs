//! The four benchmark workloads and the code that runs one *round* of
//! each: set-up, warm-up, sliced steady phase, report and verification.
//!
//! A round is a fixed amount of simulated work, fully determined by
//! `(workload, scenario seed, sizes)`. A benchmark run does rounds until
//! its time budget is spent, round `i` on [`scenario_seed`]`(--seed, i)`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use mwn::jobs::{chain_study, JobSpec};
use mwn::mobility::RandomWaypoint;
use mwn::{
    topology, AodvConfig, DataRate, ExperimentScale, FlowSpec, MetricsSnapshot, Network, NodeId,
    ObsConfig, RunOutcome, RunResults, Scenario, SimDuration, SimTime, StepOutcome, TraceEvent,
    TrafficModel, Transport,
};
use mwn_check::golden::fnv1a64;
use mwn_runner::query::{aggregate, StoreView};
use mwn_runner::store::{self, Manifest};
use mwn_runner::{run_sweep, SweepOptions};

use crate::trace::Tracer;

/// Steady-phase slices of a single-run workload.
pub const SLICES: u64 = 100;

/// The warm-up delivers a ninth of what the hundred slices deliver, so
/// it may take this many slices' simulated-time limits.
const WARMUP_SLICE_LIMITS: u64 = 11;

/// Trace ring capacity for traced rounds. The ring is scanned and
/// replaced at every slice boundary, so it only has to hold one slice.
const TRACE_CAPACITY: usize = 1 << 20;

/// Probe ring capacity for traced rounds (the `mwn stats` default order
/// of magnitude).
const PROBE_CAPACITY: usize = 1 << 16;

/// Seed of `city-mobile`'s pinned node placement (its "map"): the draw
/// the legacy `mwn bench` city tier uses. `--seed` drives everything that
/// happens *on* the map — waypoints, backoff, jitter — so runs with
/// different seeds measure one system under different randomness rather
/// than ten different systems (across six placements the per-packet cost
/// ranged 650–1170 µs, which no bound could contain).
const CITY_MAP_SEED: u64 = 4242;

/// Seed of `churn-open`'s pinned 20-node placement. Not 4242: on that
/// draw some traffic seeds leave one flow rediscovering its route for
/// thousands of simulated seconds (seed 6: 5 550 s instead of 560 s, 12×
/// the host time, 97 000 RREQ floods) — a simulator pathology worth its
/// own issue, and not something a steady benchmark can sit on. Placement
/// 2 completed every traffic seed tried within 4 % of the nominal
/// simulated time.
const CHURN_MAP_SEED: u64 = 2;

/// Scenario seeds the rounds draw from: the candidates 1–60 on which one
/// round of *every* workload, at four times [`Sizes::FULL`], completes.
/// The other 23 are out because of a simulator defect this package cannot
/// fix (README, *Found on the way*): on an 8-hop chain two neighbours can
/// bounce one RREP between them forever, which starves the flow for good —
/// within 40 000 packets on 20 of the 60 `chain-steady` candidates, and in
/// one of the 12 jobs on 8 of the 60 `paper-sweep` candidates. A
/// driver-chosen `--seed` must not be able to land on one.
const SEED_POOL: [u64; 37] = [
    1, 2, 3, 8, 9, 10, 11, 13, 15, 18, 19, 21, 22, 23, 24, 25, 26, 27, 29, 30, 32, 33, 34, 35, 36,
    37, 38, 39, 41, 42, 44, 54, 55, 56, 58, 59, 60,
];

/// The scenario seed of round `round` of a run started with `--seed seed`:
/// a walk through the pool from a start the seed picks.
///
/// Rounds of one run simulate *different* seeds because host cost per
/// packet differs by ±20 % between scenario seeds (on `city-mobile`: how
/// many routes the waypoints happen to break). A run that repeated one
/// seed would report that seed's luck, and ten runs on ten `--seed`s would
/// spread by as much however long each ran.
pub fn scenario_seed(seed: u64, round: usize) -> u64 {
    let start = mwn_sim::fxhash::hash_str(&seed.to_string()) >> 32;
    SEED_POOL[(start as usize + round) % SEED_POOL.len()]
}

/// What a traced `paper-sweep` job collects: `mwn_runner`'s
/// `simulate_instrumented` configuration plus the custody audit.
const TRACED_JOB: ObsConfig = ObsConfig {
    metrics: true,
    probe_capacity: 0,
    profile: true,
    audit: true,
    shards: 1,
};

/// Worker threads of the `paper-sweep` pool: one per core of the
/// reference host.
pub const SWEEP_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChainSteady,
    CityMobile,
    ChurnOpen,
    PaperSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ChainSteady,
        Workload::CityMobile,
        Workload::ChurnOpen,
        Workload::PaperSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainSteady => "chain-steady",
            Workload::CityMobile => "city-mobile",
            Workload::ChurnOpen => "churn-open",
            Workload::PaperSweep => "paper-sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads that do simulation work at once.
    pub fn threads(self) -> usize {
        match self {
            Workload::PaperSweep => SWEEP_WORKERS,
            _ => 1,
        }
    }

    /// Simulated time one steady slice of a single-run workload may take
    /// before the round is abandoned as stalled and counted as a failed
    /// operation. Far above what a healthy slice needs (8 s, 0.1 s and 1 s)
    /// and above any TCP back-off, small enough that a stalled round ends
    /// in host seconds instead of running out the driver's clock.
    fn slice_sim_limit(self) -> SimDuration {
        match self {
            Workload::ChainSteady | Workload::ChurnOpen => SimDuration::from_secs(600),
            Workload::CityMobile => SimDuration::from_secs(30),
            Workload::PaperSweep => unreachable!("paper-sweep jobs carry their own deadline"),
        }
    }
}

/// Work per round. Pinned: changing a size invalidates every recorded
/// result, so sizes only ever change in a PR that re-measures the
/// baseline and claims nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `chain-steady` delivery target, packets.
    pub chain_packets: u64,
    /// `city-mobile` node count.
    pub city_nodes: usize,
    /// `city-mobile` delivery target over its ten flows, packets.
    pub city_packets: u64,
    /// `churn-open` flow arrivals.
    pub churn_flows: u64,
    /// `paper-sweep` packets per batch (11 batches per job, 12 jobs).
    pub sweep_batch_packets: u64,
}

impl Sizes {
    /// An eighth of the issue's targets (80 000 packets, 20 000 packets,
    /// 15 000 flows, `ExperimentScale::scaled(8)`): a round then takes
    /// 1.1–1.5 s, so the 20 s of a run cover ≈ 15 scenario seeds.
    pub const FULL: Sizes = Sizes {
        chain_packets: 10_000,
        city_nodes: 20_000,
        city_packets: 2_500,
        churn_flows: 1_875,
        sweep_batch_packets: 400,
    };

    /// `--smoke`: every target ÷ 50 (the city keeps a tenth of its nodes,
    /// so set-up still builds a multi-cell grid).
    pub fn smoke() -> Sizes {
        let f = Sizes::FULL;
        Sizes {
            chain_packets: f.chain_packets / 50,
            city_nodes: f.city_nodes / 10,
            city_packets: f.city_packets / 50,
            churn_flows: f.churn_flows / 50,
            sweep_batch_packets: f.sweep_batch_packets / 50,
        }
    }

    /// Nominal packets delivered by a `churn-open` round: the web
    /// profile's mean of ≈ 6.3 packets per transaction. Only used to
    /// place the warm-up boundary and size the slices; the round itself
    /// runs until every flow has completed.
    fn churn_nominal_packets(&self) -> u64 {
        self.churn_flows * 63 / 10
    }

    fn sweep_scale(&self) -> ExperimentScale {
        let quick = ExperimentScale::quick();
        ExperimentScale {
            batch_packets: self.sweep_batch_packets.max(1),
            ..quick
        }
    }
}

/// Cumulative counters and gauges read from the simulator's public
/// counter APIs, keyed by a stable name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Per-job facts of a `paper-sweep` round.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub key: String,
    pub wall_s: f64,
    pub packets: u64,
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub setup_topology_s: f64,
    pub setup_build_s: f64,
    pub warmup_s: f64,
    /// Sum of the slice spans (for `paper-sweep`: the sweep's wall).
    pub steady_s: f64,
    pub report_s: f64,
    /// Set-up + warm-up + steady + report, first instruction to verified
    /// result.
    pub total_s: f64,
    /// Packets delivered to transport sinks during the steady phase.
    pub steady_pkts: u64,
    /// Simulated seconds the steady phase covered.
    pub steady_sim_s: f64,
    /// Host µs per delivered packet of each slice.
    pub slice_us_per_pkt: Vec<f64>,
    pub fingerprint: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Steady-phase deltas of cumulative counters plus end-of-run gauges;
    /// empty for untraced rounds.
    pub counts: Counts,
    /// `paper-sweep` only.
    pub jobs: Vec<JobRecord>,
}

impl Round {
    pub fn setup_s(&self) -> f64 {
        self.setup_topology_s + self.setup_build_s
    }

    pub fn wall_us_per_pkt(&self) -> f64 {
        self.steady_s * 1e6 / self.steady_pkts.max(1) as f64
    }

    /// Host seconds of simulation work in the steady phase: the steady
    /// wall of a single-threaded round, the sum of the job walls of a
    /// sweep (two workers do two seconds of work per second of wall).
    /// The denominator of every share and of the tracing overhead.
    pub fn work_s(&self) -> f64 {
        if self.jobs.is_empty() {
            self.steady_s
        } else {
            self.jobs.iter().map(|j| j.wall_s).sum()
        }
    }
}

// ---- scenario construction -------------------------------------------------

fn waypoint(nodes: usize) -> RandomWaypoint {
    let (width, height) = topology::random_large_dims(nodes);
    RandomWaypoint {
        width,
        height,
        min_speed: 1.0,
        max_speed: 10.0,
        pause: SimDuration::from_secs(2),
        tick: SimDuration::from_millis(100),
    }
}

/// The city scenario: a ≥ 99 % giant-component field at the paper's
/// density, ten *local* flows (each source paired with the first node
/// 2.2–2.8 radio ranges away, ≈ 3 hops), expanding-ring AODV, every node
/// on a full-field random waypoint.
fn city_scenario(nodes: usize, seed: u64) -> Scenario {
    let topo = topology::random_large_giant(nodes, CITY_MAP_SEED);
    let positions = topo.positions();
    let flows = (0..10usize)
        .map(|i| {
            let src = i * nodes / 10;
            let dst = (0..nodes)
                .find(|&d| (550.0..700.0).contains(&positions[src].distance_to(positions[d])))
                .expect("paper density guarantees a ~3-hop partner");
            FlowSpec {
                src: NodeId(src as u32),
                dst: NodeId(dst as u32),
                transport: Transport::newreno(),
            }
        })
        .collect();
    let mut s = Scenario::new(topo, flows, DataRate::MBPS_11, seed);
    s.aodv = AodvConfig::city();
    s.mobility = Some(waypoint(nodes));
    s
}

/// Builds the scenario of a single-run workload from the seed.
pub fn scenario(workload: Workload, seed: u64, sizes: &Sizes) -> Scenario {
    match workload {
        Workload::ChainSteady => Scenario::chain(8, DataRate::MBPS_2, Transport::newreno(), seed),
        Workload::CityMobile => city_scenario(sizes.city_nodes, seed),
        Workload::ChurnOpen => {
            let mut s = Scenario::open_loop(
                20,
                TrafficModel::web(sizes.churn_flows).with_load(0.2),
                Transport::newreno(),
                DataRate::MBPS_11,
                CHURN_MAP_SEED,
            );
            s.seed = seed;
            s
        }
        Workload::PaperSweep => unreachable!("paper-sweep runs jobs, not one scenario"),
    }
}

/// The `paper-sweep` job list: the chain study (4 transport variants ×
/// 2/4/8 hops) with every job's seed mixed with the benchmark seed.
pub fn sweep_jobs(seed: u64, sizes: &Sizes) -> Vec<JobSpec> {
    let mut jobs = chain_study(sizes.sweep_scale());
    for job in &mut jobs {
        job.seed = mwn_sim::fxhash::hash_str(&format!("{}:{seed}", job.seed));
    }
    jobs
}

// ---- counters --------------------------------------------------------------

/// Adds the PHY, MAC and AODV counters of `snap`, summed over its nodes,
/// to `counts`.
fn add_node_totals(counts: &mut Counts, snap: &MetricsSnapshot) {
    let t = snap.node_totals();
    for (key, n) in [
        ("phy.captures", t.phy.captures),
        ("phy.collisions", t.phy.collisions),
        ("phy.undecoded", t.phy.undecoded),
        ("mac.unicast_accepted", t.mac.unicast_accepted),
        ("mac.unicast_delivered", t.mac.unicast_delivered),
        ("mac.rts_sent", t.mac.rts_sent),
        ("mac.data_sent", t.mac.data_sent),
        ("mac.contention_drops", t.mac.contention_drops()),
        ("aodv.rreqs_originated", t.aodv.rreqs_originated),
        ("aodv.rreqs_forwarded", t.aodv.rreqs_forwarded),
        ("aodv.suppressed", t.aodv.rreq_rebroadcasts_suppressed),
        ("aodv.false_route_failures", t.aodv.false_route_failures),
    ] {
        *counts.entry(key).or_insert(0.0) += n as f64;
    }
}

/// Reads every cumulative public counter of `net` into a flat map.
fn snapshot(net: &Network) -> Counts {
    let mut c = Counts::new();
    if let Some(p) = net.profile() {
        c.insert("events", p.events_processed() as f64);
        for (kind, n) in p.by_kind() {
            c.insert(event_key(kind), n as f64);
        }
        c.insert("t.medium_tick", p.timed_secs("medium_tick"));
        c.insert("t.medium_lazy", p.timed_secs("medium_lazy"));
    }
    let snap = net.collect_metrics();
    add_node_totals(&mut c, &snap);
    let (mut retx, mut timeouts, mut acks) = (0u64, 0u64, 0u64);
    for f in &snap.flows {
        if let Some(s) = f.sender {
            retx += s.retransmissions;
            timeouts += s.timeouts;
        }
        if let Some(s) = f.sink {
            acks += s.acks_sent;
        }
    }
    c.insert("tcp.live_retx", retx as f64);
    c.insert("tcp.live_timeouts", timeouts as f64);
    c.insert("tcp.live_acks", acks as f64);
    let m = net.medium_counters();
    c.insert("medium.queries", m.queries as f64);
    c.insert("medium.rebuilds", m.rebuilds as f64);
    c.insert("medium.revalidations", m.revalidations as f64);
    c.insert("drops", net.drop_report().terminal_total() as f64);
    c.insert("delivered", net.total_delivered() as f64);
    c.insert("sim_s", net.now().as_secs_f64());
    c
}

fn event_key(kind: &str) -> &'static str {
    match kind {
        "signal_start" => "ev.signal_start",
        "signal_end" => "ev.signal_end",
        "tx_end" => "ev.tx_end",
        "mac_timer" => "ev.mac_timer",
        "aodv_send" => "ev.aodv_send",
        "aodv_discovery" => "ev.aodv_discovery",
        "transport_timer" => "ev.transport_timer",
        "flow_start" => "ev.flow_start",
        "traffic_arrival" => "ev.traffic_arrival",
        "mobility_tick" => "ev.mobility_tick",
        _ => "ev.other",
    }
}

fn delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Tallies the typed trace ring into `counts`, then replaces the ring so
/// the next slice starts empty. These are the per-call counts no counter
/// block keeps: TCP segments emitted, frames the MAC received (intact or
/// corrupt), packets the MAC handed up to routing.
fn drain_trace(net: &mut Network, counts: &mut Counts) {
    assert_eq!(
        net.trace_dropped(),
        0,
        "trace ring overflowed within one slice; raise TRACE_CAPACITY"
    );
    for r in net.trace() {
        let key = match r.event {
            TraceEvent::TcpData { .. } => "tr.tcp_data",
            TraceEvent::TcpAck { .. } => "tr.tcp_acks",
            TraceEvent::PhyRxOk => "tr.phy_rx_ok",
            TraceEvent::PhyCorrupt => "tr.phy_corrupt",
            TraceEvent::MacRx { .. } => "tr.mac_rx",
            _ => continue,
        };
        *counts.entry(key).or_insert(0.0) += 1.0;
    }
    net.enable_trace(TRACE_CAPACITY);
}

/// Order-sensitive FNV-1a 64 fold of the facts a simulator-speed change
/// must leave identical.
fn fingerprint(parts: &[String]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    parts
        .iter()
        .fold(FNV_OFFSET, |h, p| fnv1a64(fnv1a64(h, p.as_bytes()), b"\n"))
}

// ---- single-run workloads --------------------------------------------------

/// Runs one round of a single-run workload (`chain-steady`,
/// `city-mobile`, `churn-open`).
///
/// `traced` switches on everything the simulator can observe about
/// itself — engine profile, custody audit, probes and the typed trace —
/// and fills [`Round::counts`]. Untraced rounds touch none of it.
pub fn run_single(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    traced: bool,
    t: &mut Tracer,
) -> Round {
    let run = t.open("run");

    let s = t.open("setup.topology");
    let scenario = scenario(workload, seed, sizes);
    let setup_topology_s = t.close(s);
    let s = t.open("setup.build");
    let mut net = scenario.build();
    let setup_build_s = t.close(s);
    if traced {
        net.enable_profiling();
        net.enable_audit();
        // Not under flow churn: `ProbeBuffer` keeps its last-value table
        // dense by *packed* flow id (slot | generation << 20), so every
        // slot reuse grows it by 2^20 entries — 5 GiB of RSS and a 75×
        // slower run at 4 500 flows. A simulator defect for its own
        // issue; until then probes stay off where flows churn.
        if workload != Workload::ChurnOpen {
            net.enable_probes(PROBE_CAPACITY);
        }
        net.enable_trace(TRACE_CAPACITY);
    }

    // `None` = run until the open-loop workload has completed every flow.
    let total: Option<u64> = match workload {
        Workload::ChainSteady => Some(sizes.chain_packets),
        Workload::CityMobile => Some(sizes.city_packets),
        _ => None,
    };
    let nominal = total.unwrap_or_else(|| sizes.churn_nominal_packets());
    let warm_target = (nominal / 10).max(1);
    let slice_pkts = ((nominal - warm_target) / SLICES).max(1);
    let slice_limit = workload.slice_sim_limit();

    let s = t.open("phase.warmup");
    let mut outcome = net.run_until_delivered(
        warm_target,
        SimTime::ZERO + slice_limit * WARMUP_SLICE_LIMITS,
    );
    let warmup_s = t.close(s);
    let mut traced_counts = Counts::new();
    let before = traced.then(|| {
        // The warm-up's records are dropped unread (it is one long call
        // and may overflow the ring); counting starts with the slices.
        net.enable_trace(TRACE_CAPACITY);
        snapshot(&net)
    });
    let warm_delivered = net.total_delivered();
    let warm_now = net.now();

    let steady = t.open("phase.steady");
    let mut steady_s = 0.0;
    let mut slice_us_per_pkt = Vec::with_capacity(SLICES as usize + 8);
    let mut target = warm_target;
    let mut index = 0u32;
    while outcome == StepOutcome::TargetReached && total.is_none_or(|end| target < end) {
        target = total.map_or(target + slice_pkts, |end| (target + slice_pkts).min(end));
        let from = net.total_delivered();
        let s = t.open_indexed("slice", Some(index));
        outcome = net.run_until_delivered(target, net.now() + slice_limit);
        let secs = t.close(s);
        index += 1;
        steady_s += secs;
        let got = net.total_delivered() - from;
        if got > 0 {
            slice_us_per_pkt.push(secs * 1e6 / got as f64);
        }
        if traced {
            drain_trace(&mut net, &mut traced_counts);
        }
    }
    t.close(steady);

    let report = t.open("report");
    let totals = net.totals();
    let traffic = net.traffic_summary();
    // A closed-loop round succeeds by reaching its target; the open-loop
    // round by draining every flow (the queue then runs dry).
    let (ops_attempted, ops_failed) = match (total, traffic) {
        (Some(_), _) => (1, u64::from(outcome != StepOutcome::TargetReached)),
        (None, Some(fct)) => {
            let unfinished = fct.arrivals() - fct.completions();
            let stalled = u64::from(!net.traffic_done());
            (fct.arrivals().max(1), unfinished.max(stalled))
        }
        (None, None) => (1, 1),
    };
    let fingerprint = fingerprint(&[
        format!("{:?}", totals.mac),
        format!("{:?}", totals.aodv),
        net.total_delivered().to_string(),
        net.now().as_nanos().to_string(),
        format!("{:?}", net.traffic_digest()),
        format!("{:?}", net.traffic_arrival_digest()),
    ]);
    let mut counts = Counts::new();
    if let Some(before) = before {
        counts = delta(&snapshot(&net), &before);
        counts.append(&mut traced_counts);
        // Every flow here is TCP, so segments emitted beyond the packets
        // delivered are retransmissions (plus at most a window in flight).
        let delivered = counts["delivered"];
        let data = counts.get("tr.tcp_data").copied().unwrap_or(0.0);
        counts.insert("tcp.delivered", delivered);
        counts.insert("tcp.retx", (data - delivered).max(0.0));
        counts.insert("tcp.timeouts", counts["tcp.live_timeouts"].max(0.0));
        let profile = net.profile().expect("profiling enabled on traced rounds");
        counts.insert("peak_queue_depth", profile.peak_queue_depth() as f64);
        counts.insert("bytes_per_node", net.bytes_per_node() as f64);
        let balanced = net.conservation_report().is_some_and(|r| r.is_balanced());
        counts.insert("conservation_balanced", f64::from(u8::from(balanced)));
        let snap = net.collect_metrics();
        let routes: u64 = snap.nodes.iter().map(|n| n.route_table_size).sum();
        let routers = snap.nodes.iter().filter(|n| n.route_table_size > 0).count();
        counts.insert("routes_per_router", routes as f64 / routers.max(1) as f64);
        if let Some(fct) = traffic {
            counts.insert("traffic.spawned", net.traffic_spawned() as f64);
            counts.insert("traffic.arrivals", fct.arrivals() as f64);
            counts.insert("traffic.completed", fct.completions() as f64);
            // The web profile has one class; with more, report the
            // busiest class's percentiles.
            if let Some(class) = fct.classes().iter().max_by_key(|c| c.completions()) {
                counts.insert("traffic.fct_p50_s", class.fct().p50().unwrap_or(0.0));
                counts.insert("traffic.fct_p99_s", class.fct().p99().unwrap_or(0.0));
            }
        }
    }
    let report_s = t.close(report);
    let total_s = t.close(run);

    Round {
        setup_topology_s,
        setup_build_s,
        warmup_s,
        steady_s,
        report_s,
        total_s,
        steady_pkts: net.total_delivered() - warm_delivered,
        steady_sim_s: net.now().duration_since(warm_now).as_secs_f64(),
        slice_us_per_pkt,
        fingerprint,
        ops_attempted,
        ops_failed,
        counts,
        jobs: Vec::new(),
    }
}

// ---- paper-sweep -----------------------------------------------------------

fn sweep_fingerprint(results: &mut [(String, String)]) -> u64 {
    results.sort();
    let parts: Vec<String> = results
        .iter()
        .map(|(key, facts)| format!("{key} {facts}"))
        .collect();
    fingerprint(&parts)
}

fn job_facts(r: &RunResults) -> String {
    format!(
        "{} {} {} {} {:?}",
        r.packets_measured,
        r.measured_time.as_nanos(),
        r.aggregate_goodput_kbps.mean.to_bits(),
        r.false_route_failures,
        r.outcome,
    )
}

/// Checks the compacted store: every job has a `done` row that parses,
/// and the report aggregation sees every cell. Returns the failed count.
fn verify_store(view: &StoreView, jobs: &[JobSpec], groups: usize) -> u64 {
    let done = view.rows.iter().filter(|r| r.status == "done").count();
    let missing = jobs.len().saturating_sub(done) as u64;
    let truncated = view
        .rows
        .iter()
        .filter(|r| {
            r.status == "done"
                && r.json.get("outcome").and_then(|o| o.as_str()) != Some("completed")
        })
        .count() as u64;
    let unaggregated = u64::from(groups != jobs.len());
    missing + truncated + unaggregated
}

/// Runs one untraced `paper-sweep` round: the job list through
/// `mwn_runner::run_sweep` on [`SWEEP_WORKERS`] workers into a JSONL
/// store under `dir`, then `StoreView::load` + `aggregate`.
pub fn run_sweep_round(seed: u64, sizes: &Sizes, dir: &Path, t: &mut Tracer) -> Round {
    let run = t.open("run");
    let out = dir.join("sweep.jsonl");
    // A leftover store would turn the sweep into a resume.
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(store::journal_path(&out));

    let s = t.open("setup.topology");
    let jobs = sweep_jobs(seed, sizes);
    let scenarios: Vec<Scenario> = jobs.iter().map(JobSpec::scenario).collect();
    let setup_topology_s = t.close(s);
    let s = t.open("setup.build");
    for scenario in &scenarios {
        std::hint::black_box(scenario.build());
    }
    let setup_build_s = t.close(s);

    let records: Mutex<Vec<(JobRecord, String)>> = Mutex::new(Vec::new());
    let executor = |spec: &JobSpec| {
        let started = Instant::now();
        let results = mwn_runner::simulate(spec);
        let record = JobRecord {
            key: spec.key(),
            wall_s: started.elapsed().as_secs_f64(),
            packets: results.packets_measured,
        };
        records
            .lock()
            .expect("no job panics while holding the lock")
            .push((record, job_facts(&results)));
        results
    };
    let mut opts = SweepOptions::new(&out).workers(SWEEP_WORKERS).quiet(true);
    // A fixed manifest keeps `git rev-parse` (a child process whose cost
    // is not the simulator's) out of the timed sweep.
    opts.manifest = Some(Manifest::for_jobs(
        &jobs,
        SWEEP_WORKERS,
        "benchmark".to_string(),
    ));
    let s = t.open("phase.steady");
    let summary = run_sweep(&jobs, &opts, &executor);
    let steady_s = t.close(s);

    let report = t.open("report");
    let s = t.open("report.load");
    let view = StoreView::load(&out);
    t.close(s);
    let s = t.open("report.aggregate");
    let groups = view
        .as_ref()
        .map(|v| aggregate(&v.rows.iter().collect::<Vec<_>>()).len());
    t.close(s);
    let mut ops_failed = match (&summary, &view, &groups) {
        (Ok(summary), Ok(view), Ok(groups)) => {
            summary.failed as u64 + verify_store(view, &jobs, *groups)
        }
        _ => jobs.len() as u64,
    };
    let records = records
        .into_inner()
        .expect("no job panics while holding the lock");
    if records.len() != jobs.len() {
        ops_failed = ops_failed.max(1);
    }
    let (records, mut facts): (Vec<JobRecord>, Vec<(String, String)>) = records
        .into_iter()
        .map(|(r, f)| {
            let key = r.key.clone();
            (r, (key, f))
        })
        .unzip();
    let fingerprint = sweep_fingerprint(&mut facts);
    let report_s = t.close(report);
    let _ = std::fs::remove_file(&out);
    let total_s = t.close(run);

    Round {
        setup_topology_s,
        setup_build_s,
        steady_s,
        report_s,
        total_s,
        steady_pkts: records.iter().map(|r| r.packets).sum(),
        fingerprint,
        ops_attempted: jobs.len() as u64,
        ops_failed: ops_failed.min(jobs.len() as u64),
        jobs: records,
        ..Round::default()
    }
}

/// Runs one traced `paper-sweep` round: the same jobs, sequentially, with
/// a span around every public stage the pool would run —
/// `job.build`, `job.simulate` (`experiment::run_instrumented`), `job.encode`
/// (`store::done_line`), `store.append`, then `store.compact`,
/// `report.load`, `report.aggregate`. Counts come from the instrumented
/// results' metrics sections.
pub fn run_sweep_traced(seed: u64, sizes: &Sizes, dir: &Path, t: &mut Tracer) -> Round {
    let run = t.open("run");
    let out = dir.join("sweep-traced.jsonl");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(store::journal_path(&out));
    let jobs = sweep_jobs(seed, sizes);

    let mut round = Round {
        ops_attempted: jobs.len() as u64,
        ..Round::default()
    };
    let mut counts = Counts::new();
    let add = |counts: &mut Counts, key: &'static str, v: f64| {
        *counts.entry(key).or_insert(0.0) += v;
    };
    let mut facts = Vec::new();
    let mut lines = Vec::new();
    let mut journal = store::Journal::open(&out).expect("results directory is writable");
    let steady = t.open("phase.steady");
    for (i, spec) in jobs.iter().enumerate() {
        let job = t.open_indexed("job", Some(i as u32));
        let s = t.open("job.build");
        std::hint::black_box(spec.scenario().build());
        round.setup_build_s += t.close(s);
        let s = t.open("job.simulate");
        let results = mwn::experiment::run_instrumented(&spec.scenario(), spec.scale, TRACED_JOB);
        let wall_s = t.close(s);
        let s = t.open("job.encode");
        let line = store::done_line(spec, &results);
        t.close(s);
        let s = t.open("store.append");
        journal.append(&line).expect("journal append");
        t.close(s);
        t.close(job);

        if results.outcome != RunOutcome::Completed {
            round.ops_failed += 1;
        }
        round.steady_pkts += results.packets_measured;
        round.steady_sim_s += results.measured_time.as_secs_f64();
        round.jobs.push(JobRecord {
            key: spec.key(),
            wall_s,
            packets: results.packets_measured,
        });
        facts.push((spec.key(), job_facts(&results)));
        lines.push(line);

        let m = results
            .metrics
            .as_ref()
            .expect("instrumented runs carry metrics");
        add(&mut counts, "events", m.profile.events_processed() as f64);
        for (kind, n) in m.profile.by_kind() {
            add(&mut counts, event_key(kind), n as f64);
        }
        let peak = counts.entry("peak_queue_depth").or_insert(0.0);
        *peak = peak.max(m.profile.peak_queue_depth() as f64);
        add_node_totals(&mut counts, &m.totals);
        for f in &m.totals.flows {
            if let Some(s) = f.sender {
                add(&mut counts, "tcp.retx", s.retransmissions as f64);
                add(&mut counts, "tcp.timeouts", s.timeouts as f64);
                add(&mut counts, "tr.tcp_data", s.data_packets_sent as f64);
            }
            if let Some(s) = f.sink {
                add(&mut counts, "tr.tcp_acks", s.acks_sent as f64);
                add(&mut counts, "tcp.delivered", s.delivered as f64);
            }
        }
        let balanced = results
            .conservation
            .as_ref()
            .is_some_and(|r| r.is_balanced());
        let all = counts.entry("conservation_balanced").or_insert(1.0);
        *all = all.min(f64::from(u8::from(balanced)));
        if let Some(ledger) = &m.drops {
            add(&mut counts, "drops", ledger.terminal_total() as f64);
        }
        let routes: u64 = m.totals.nodes.iter().map(|n| n.route_table_size).sum();
        let per_router = routes as f64 / m.totals.nodes.len().max(1) as f64;
        let r = counts.entry("routes_per_router").or_insert(0.0);
        *r = r.max(per_router);
    }
    round.steady_s = t.close(steady);

    let report = t.open("report");
    let s = t.open("store.compact");
    let manifest = Manifest::for_jobs(&jobs, 1, "benchmark".to_string());
    store::compact(&out, &manifest, &mut lines).expect("store compaction");
    journal.remove().expect("journal removal");
    counts.insert("t.compact", t.close(s));
    let s = t.open("report.load");
    let view = StoreView::load(&out);
    counts.insert("t.report_load", t.close(s));
    let s = t.open("report.aggregate");
    let groups = view
        .as_ref()
        .map(|v| aggregate(&v.rows.iter().collect::<Vec<_>>()).len());
    t.close(s);
    round.ops_failed += match (&view, &groups) {
        (Ok(view), Ok(groups)) => verify_store(view, &jobs, *groups),
        _ => jobs.len() as u64,
    };
    round.ops_failed = round.ops_failed.min(round.ops_attempted);
    counts.insert("rows_failed", round.ops_failed as f64);
    round.fingerprint = sweep_fingerprint(&mut facts);
    round.report_s = t.close(report);
    let _ = std::fs::remove_file(&out);
    round.total_s = t.close(run);
    // Whole-run counters: a batch-means job has no single warm-up
    // boundary to subtract at, so shares are over each job's full run.
    let whole_run: u64 = jobs
        .iter()
        .map(|j| j.scale.batch_packets * j.scale.batches as u64)
        .sum();
    counts.insert("delivered", whole_run as f64);
    counts.insert("sim_s", round.steady_sim_s);
    round.counts = counts;
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_walks_the_pool_without_repeating_a_seed() {
        let mut pool = SEED_POOL.to_vec();
        pool.dedup();
        assert_eq!(pool.len(), SEED_POOL.len(), "a pool seed is listed twice");
        for seed in [0, 1, 4242, u64::MAX] {
            let mut walk: Vec<u64> = (0..SEED_POOL.len())
                .map(|round| scenario_seed(seed, round))
                .collect();
            assert_eq!(
                scenario_seed(seed, SEED_POOL.len()),
                walk[0],
                "the walk wraps"
            );
            walk.sort_unstable();
            assert_eq!(walk, SEED_POOL, "seed {seed}");
        }
    }
}
