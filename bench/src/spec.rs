//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics, and — written down before anything was measured — which
//! end-to-end metric each layer metric should move, on which workload.
//!
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`mwn-benchmark manifest`) and `tests/contract.rs` fails when
//! the two drift apart. The manifest's schema has no room for the
//! `moves` predictions, so they live here and in the README.

use mwn_obs::json::{arr, Obj};

/// Seconds one driver-invoked run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "chain-steady",
        why: "8-hop static chain, one persistent NewReno flow, closed loop: wheel, transceiver and DCF only; the bypass row for medium, AODV, traffic and runner changes",
    },
    WorkloadSpec {
        name: "city-mobile",
        why: "20 000 nodes on random waypoints, ten local flows, closed loop: the only row where medium move/rebuild, ring discovery under link breaks, set-up time and memory are large",
    },
    WorkloadSpec {
        name: "churn-open",
        why: "20 nodes, web flows arriving open-loop at 0.2 load until all complete: traffic engine, flow-slab recycling, timer cancels, slow-start TCP, discovery to many endpoints",
    },
    WorkloadSpec {
        name: "paper-sweep",
        why: "the 12-job chain study through the 2-worker runner into a JSONL store, then load and aggregate: what a paper reproducer runs; the only row for runner and experiment harness",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub why: &'static str,
}

/// All end-to-end metrics are host-side and lower-is-better.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_us_per_pkt",
        unit: "us",
        bound: 0.25,
        why: "steady-phase host µs per packet delivered to a transport sink (paper-sweep: sweep wall ÷ packets measured); the headline",
    },
    EndToEnd {
        name: "total_s",
        unit: "s",
        bound: 0.25,
        why: "host seconds of one whole round, set-up to verified result; catches work moved out of the timed phase",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        why: "scenario sampling + Scenario::build (paper-sweep: summed over its 12 jobs)",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.05,
        why: "VmHWM of the benchmark process",
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Exact and host-independent: read from the simulator's public
    /// counters; repeats bit-for-bit for a given seed.
    Count,
    /// Simulated statistic (also exact for a given seed).
    Sim,
    /// Host time of a span recorded by the benchmark, or of a profile
    /// bucket the simulator already keeps.
    Timed,
    /// ns per call of the layer's public API driven stand-alone by
    /// `layers.rs`, sized from the workload's counts.
    Driver,
    /// Driver ns × exact count ÷ steady-phase work seconds (steady wall;
    /// on `paper-sweep` the sum of the job walls).
    EstShare,
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric this should move…
    pub moves: &'static str,
    /// …and the workloads on which it should (`"all"` or names joined by
    /// `,`). Everywhere else the prediction is *no change*.
    pub on: &'static str,
    pub why: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
    on: &'static str,
    why: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        source,
        moves,
        on,
        why,
    }
}

use Source::{Count, Driver, EstShare, Sim, Timed};

const WALL: &str = "wall_us_per_pkt";
const ALL: &str = "all";

#[rustfmt::skip] // one metric per entry reads as a table
pub const PER_LAYER: &[LayerMetric] = &[
    // ---- sim: the event engine ------------------------------------------
    m("sim.events_per_pkt", "count", "lower", Count, WALL, ALL,
      "events processed per delivered packet; the work the engine is asked to do"),
    m("sim.events_per_sec", "1/s", "higher", Timed, WALL, ALL,
      "events ÷ traced steady wall; may fall when events_per_pkt falls — a layer number, never a gate"),
    m("sim.peak_queue_depth", "count", "lower", Count, WALL, ALL,
      "deepest pending-event queue; sizes the wheel drivers"),
    m("sim.wheel_schedule_pop_ns", "ns", "lower", Driver, WALL, ALL,
      "EventQueue::schedule + pop at the workload's peak depth"),
    m("sim.wheel_cancel_ns", "ns", "lower", Driver, WALL, "churn-open",
      "EventQueue::schedule + cancel at the workload's peak depth (flow completion cancels timers)"),
    m("sim.wheel_est_share", "share", "lower", EstShare, WALL, ALL,
      "schedule_pop_ns × events ÷ steady wall (cancels have no public counter and stay in residual)"),
    // ---- phy: transceiver and medium ------------------------------------
    m("phy.signal_events_share", "share", "lower", Count, WALL, ALL,
      "(signal_start + signal_end) ÷ events: how much of the event stream is per-receiver fan-out"),
    m("phy.rx_per_tx", "count", "lower", Count, WALL, "city-mobile,churn-open",
      "signal_start ÷ tx_end: receivers per transmission, the fan-out"),
    m("phy.undecoded_share", "share", "lower", Count, WALL, "city-mobile,churn-open",
      "sense-only receptions ÷ signal_start: wasted receptions"),
    m("phy.collision_share", "share", "lower", Count, WALL, ALL,
      "collided receptions ÷ signal_start"),
    m("phy.transceiver_signal_ns", "ns", "lower", Driver, WALL, "city-mobile,churn-open",
      "Transceiver::signal_start + signal_end at the topology's decodable/sense-only mix"),
    m("phy.transceiver_est_share", "share", "lower", EstShare, WALL, "city-mobile,churn-open",
      "transceiver_signal_ns × signal pairs ÷ steady wall; least on chain-steady"),
    m("phy.medium_build_s", "s", "lower", Driver, "setup_s", "city-mobile",
      "Medium::new at the workload's node placement"),
    m("phy.medium_move_ns_per_node", "ns", "lower", Driver, WALL, "city-mobile",
      "Medium::move_nodes per moved node"),
    m("phy.medium_refresh_ns", "ns", "lower", Driver, WALL, "city-mobile",
      "Medium::refresh of a transmitter whose neighbourhood moved"),
    m("phy.medium_rebuild_share", "share", "lower", Count, WALL, "city-mobile",
      "rebuilds ÷ medium queries"),
    m("phy.medium_revalidation_share", "share", "higher", Count, WALL, "city-mobile",
      "revalidations ÷ medium queries: stale lists proven unchanged without a rebuild"),
    m("phy.medium_share", "share", "lower", Timed, WALL, "city-mobile",
      "profile buckets medium_tick + medium_lazy ÷ traced steady wall; must read 0 on chain-steady"),
    // ---- mac80211 -------------------------------------------------------
    m("mac80211.timer_events_share", "share", "lower", Count, WALL, "chain-steady,paper-sweep",
      "mac_timer ÷ events"),
    m("mac80211.data_tx_per_delivered", "count", "lower", Count, WALL, "chain-steady,paper-sweep",
      "DATA frames on air ÷ unicast packets delivered: attempts per useful outcome"),
    m("mac80211.rts_per_data", "count", "lower", Count, WALL, "chain-steady,paper-sweep",
      "RTS frames ÷ DATA frames"),
    m("mac80211.drop_probability", "share", "lower", Sim, WALL, "chain-steady,paper-sweep",
      "contention drops ÷ unicast packets that entered service (the paper's Figure 14 measure)"),
    m("mac80211.dcf_op_ns", "ns", "lower", Driver, WALL, "chain-steady,paper-sweep",
      "ns per public Dcf call in a scripted RTS/CTS/DATA/ACK exchange between two stations"),
    m("mac80211.dcf_est_share", "share", "lower", EstShare, WALL, "chain-steady,paper-sweep",
      "dcf_op_ns × (timers fired + transmissions ended + packets enqueued + frames received) ÷ steady wall"),
    // ---- aodv -----------------------------------------------------------
    m("aodv.discoveries", "count", "lower", Count, WALL, "city-mobile,churn-open",
      "RREQ floods originated, retries included"),
    m("aodv.rreq_per_discovery", "count", "lower", Count, WALL, "city-mobile,churn-open",
      "RREQ rebroadcasts ÷ discoveries: flood size"),
    m("aodv.suppressed_share", "share", "higher", Count, WALL, "city-mobile",
      "rebroadcasts the expanding ring spared ÷ (forwarded + spared)"),
    m("aodv.false_route_failures_per_kpkt", "count", "lower", Sim, WALL, "chain-steady,paper-sweep",
      "link-layer give-ups reported to AODV per 1000 delivered packets (Figure 9)"),
    m("aodv.router_send_ns", "ns", "lower", Driver, WALL, "city-mobile,churn-open",
      "Router::send on a route hit at the workload's routing-table size"),
    m("aodv.rreq_handle_ns", "ns", "lower", Driver, WALL, "city-mobile,churn-open",
      "Router::on_received of a fresh RREQ"),
    m("aodv.est_share", "share", "lower", EstShare, WALL, "city-mobile,churn-open",
      "router_send_ns × (sends + deliveries up + confirms) + rreq_handle_ns × RREQs relayed, ÷ steady wall; ≈ 0 on chain-steady"),
    // ---- tcp ------------------------------------------------------------
    m("tcp.retx_per_pkt", "count", "lower", Sim, WALL, "churn-open,paper-sweep",
      "(data segments emitted − packets delivered) ÷ packets delivered"),
    m("tcp.acks_per_pkt", "count", "lower", Sim, WALL, "churn-open,paper-sweep",
      "ACKs emitted ÷ packets delivered"),
    m("tcp.timeouts", "count", "lower", Sim, WALL, "churn-open,paper-sweep",
      "coarse RTOs of flows alive at the end of the run (completed churn flows take theirs with them)"),
    m("tcp.on_ack_ns", "ns", "lower", Driver, WALL, "churn-open,paper-sweep",
      "TcpSender::on_ack, in-order"),
    m("tcp.sink_on_data_ns", "ns", "lower", Driver, WALL, "churn-open,paper-sweep",
      "TcpSink::on_data, in-order"),
    m("tcp.est_share", "share", "lower", EstShare, WALL, "churn-open,paper-sweep",
      "on_ack_ns × ACKs + sink_on_data_ns × data segments, ÷ steady wall; small on chain-steady"),
    // ---- traffic --------------------------------------------------------
    m("traffic.flows_spawned", "count", "lower", Sim, WALL, "churn-open",
      "traffic legs spawned (requests + responses)"),
    m("traffic.flows_completed", "count", "higher", Sim, WALL, "churn-open",
      "transactions completed"),
    m("traffic.fct_p50_s", "s", "lower", Sim, WALL, "churn-open",
      "median flow completion time, simulated seconds"),
    m("traffic.fct_p99_s", "s", "lower", Sim, WALL, "churn-open",
      "99th-percentile flow completion time, simulated seconds"),
    m("traffic.draw_ns", "ns", "lower", Driver, WALL, "churn-open",
      "TrafficEngine::next_gap + draw"),
    m("traffic.est_share", "share", "lower", EstShare, WALL, "churn-open",
      "draw_ns × arrivals ÷ steady wall; 0 everywhere else"),
    // ---- core: the composition crate and the phases ---------------------
    m("core.setup_topology_s", "s", "lower", Timed, "setup_s", "city-mobile",
      "span setup.topology: node placement sampling and flow selection"),
    m("core.setup_build_s", "s", "lower", Timed, "setup_s", "city-mobile",
      "span setup.build: Scenario::build"),
    m("core.warmup_s", "s", "lower", Timed, "total_s", ALL,
      "span phase.warmup: the first tenth of the delivery target"),
    m("core.steady_s", "s", "lower", Timed, "total_s", ALL,
      "sum of the slice spans of one untraced round"),
    m("core.slice_p50_us_per_pkt", "us", "lower", Timed, WALL, ALL,
      "median over steady slices of host µs per packet (untraced rounds)"),
    m("core.slice_p90_us_per_pkt", "us", "lower", Timed, WALL, ALL,
      "90th percentile over steady slices (100 slices × rounds, so ≥ 10 samples lie beyond it)"),
    m("core.mobility_tick_s", "s", "lower", Timed, WALL, "city-mobile",
      "profile bucket medium_tick: waypoint stepping + move_nodes, steady phase"),
    m("core.bytes_per_node", "B", "lower", Count, "peak_rss_mib", "city-mobile",
      "Network::bytes_per_node at the end of the run"),
    m("core.goodput_kbps", "kbit/s", "higher", Sim, WALL, ALL,
      "delivered payload ÷ simulated steady time"),
    m("core.sim_s_per_wall_s", "ratio", "higher", Timed, WALL, ALL,
      "simulated seconds per host second, steady phase"),
    m("core.residual_share", "share", "lower", EstShare, WALL, ALL,
      "1 − Σ est_share − medium_share: cascade glue, frame slab, carrier-sense transitions, dispatch — what only in-program tracing can split"),
    // ---- obs ------------------------------------------------------------
    m("obs.overhead_pct", "%", "lower", Timed, WALL, ALL,
      "steady wall with profiling + audit + probes + trace on, vs off, median over alternating pairs"),
    m("obs.drops_per_kpkt", "count", "lower", Sim, WALL, ALL,
      "terminal (custody-ending) drop-ledger entries per 1000 delivered packets"),
    m("obs.conservation_balanced", "bool", "higher", Count, WALL, ALL,
      "1 when the traced round's custody audit balances"),
    // ---- runner ---------------------------------------------------------
    m("runner.jobs_per_sec", "1/s", "higher", Timed, WALL, "paper-sweep",
      "jobs ÷ sweep wall"),
    m("runner.worker_busy_share", "share", "higher", Timed, WALL, "paper-sweep",
      "Σ job wall ÷ (workers × sweep wall)"),
    m("runner.longest_job_share", "share", "lower", Timed, WALL, "paper-sweep",
      "longest job wall ÷ sweep wall: the critical path that caps what faster short jobs buy"),
    m("runner.store_append_us", "us", "lower", Driver, "total_s", "paper-sweep",
      "store::done_line + Journal::append of one result row"),
    m("runner.compact_s", "s", "lower", Timed, "total_s", "paper-sweep",
      "span store.compact"),
    m("runner.report_load_s", "s", "lower", Timed, "total_s", "paper-sweep",
      "span report.load: StoreView::load of the compacted store"),
    m("runner.rows_failed", "count", "lower", Count, "total_s", "paper-sweep",
      "store rows missing, failed or truncated"),
    // ---- check ----------------------------------------------------------
    m("check.golden_ok", "share", "higher", Count, WALL, ALL,
      "fast canonical cases whose trace digest matches BUILTIN_DIGESTS ÷ cases"),
    m("check.fast_suite_s", "s", "lower", Timed, "total_s", ALL,
      "host seconds of the fast canonical suite"),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
        "run",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|w| Obj::new().str("name", w.name).str("why", w.why).finish());
    let end_to_end = END_TO_END.iter().map(|e| {
        Obj::new()
            .str("name", e.name)
            .str("unit", e.unit)
            .str("better", "lower")
            .f64("bound", e.bound)
            .finish()
    });
    let per_layer = PER_LAYER.iter().map(|l| {
        Obj::new()
            .str("name", l.name)
            .str("unit", l.unit)
            .str("better", l.better)
            .finish()
    });
    let lines = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        arr(command.iter().map(|c| crate::jsonx::quoted(c))),
        lines(workloads.collect()),
        lines(end_to_end.collect()),
        lines(per_layer.collect()),
    )
}

/// The text of `mwn-benchmark describe`: every name with its rationale
/// and, for layer metrics, the prediction of what it moves.
pub fn describe() -> String {
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<14} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (lower is better)\n");
    for e in &END_TO_END {
        out.push_str(&format!(
            "  {:<18} {:<4} bound {:>3.0}%  {}\n",
            e.name,
            e.unit,
            e.bound * 100.0,
            e.why
        ));
    }
    out.push_str("per-layer metrics: name, unit, better, source, moves (on workloads)\n");
    for l in PER_LAYER {
        out.push_str(&format!(
            "  {:<36} {:<7} {:<6} {:<8} {} ({})\n      {}\n",
            l.name,
            l.unit,
            l.better,
            format!("{:?}", l.source),
            l.moves,
            l.on,
            l.why
        ));
    }
    out
}
