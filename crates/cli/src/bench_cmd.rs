//! `mwn bench` — engine-throughput benchmark with a committed baseline.
//!
//! Runs a fixed set of canonical scenarios with [`mwn::EngineProfile`]
//! self-profiling enabled, reports wall-clock seconds and events per
//! second for each, and maintains `BENCH_engine.json` — the committed
//! perf trajectory of the event engine. Every entry records the same
//! scenarios with the same workloads (fixed delivery targets), so wall
//! seconds are comparable row-by-row across commits; events per second
//! are not, once a change alters how much work one event stands for.
//!
//! ```text
//! mwn bench                      run the full set, compare vs the baseline
//! mwn bench --quick              run the quick subset only (CI gate)
//! mwn bench --check              exit non-zero when a case's wall time regresses >20%,
//!                                its events/packet grows >1% or its medium list builds
//!                                or rebuilds grow; every gate is judged and printed,
//!                                and the error names each one that failed
//! mwn bench --record LABEL       append this run to BENCH_engine.json
//! mwn bench --repeat N           best-of-N wall time per scenario
//! mwn bench --out FILE           baseline path (default BENCH_engine.json)
//! mwn bench --case SUBSTR        run only cases whose name contains SUBSTR
//! ```

use std::time::Instant;

use mwn::{
    topology, AodvConfig, FlowSpec, MetricsReport, NodeId, Scenario, SimDuration, SimTime,
    TrafficModel, Transport,
};
use mwn_obs::json::{arr, Obj};
use mwn_phy::{DataRate, MediumCounters};
use mwn_runner::query::Json;

use crate::args::{reject_leftovers, take_count, take_flag, take_value};
use crate::{waypoints, Failure};

/// Version tag of the `BENCH_engine.json` schema.
const SCHEMA: &str = "mwn-bench-engine/1";

/// Relative speed drop (committed wall seconds ÷ measured wall seconds,
/// per case) that fails `--check`. Wall time, not events/sec: every
/// case's delivery target is fixed, so wall is what a user waits for,
/// while events/sec falls whenever a change makes one event do more.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// Relative growth of a case's events per delivered packet over the
/// baseline entry's that fails `--check`. The count is a pure function of
/// the code (same scenario, seed and target on every host), so the
/// margin only has to absorb a deliberate, small trade.
const EVENTS_PER_PKT_TOLERANCE: f64 = 0.01;

/// One benchmark scenario. Workloads are fixed forever: changing a target
/// or seed would silently invalidate every committed baseline entry.
struct BenchCase {
    name: &'static str,
    /// Included in the `--quick` CI subset.
    quick: bool,
    /// Delivery target passed to the run.
    target: u64,
    /// Simulated-time safety deadline (never binding on a healthy engine).
    deadline: SimDuration,
    build: fn() -> Scenario,
}

/// The 50-node random topology shared by the two heaviest cases: 50 nodes
/// on a 1500 × 500 m² field with five deterministic long TCP flows.
fn random50(transport: Transport, mobility: bool) -> Scenario {
    let seed = 4242;
    let topo = topology::random(50, 1500.0, 500.0, 250.0, seed);
    // Deterministic endpoints (no RNG): five src → src+25 pairs. The
    // topology is connected, so every pair is reachable.
    let flows = (0..5u32)
        .map(|i| FlowSpec {
            src: NodeId(i * 3),
            dst: NodeId(i * 3 + 25),
            transport,
        })
        .collect();
    let mut s = Scenario::new(topo, flows, DataRate::MBPS_2, seed);
    if mobility {
        s.mobility = Some(waypoints((1500.0, 500.0)));
    }
    s
}

/// A large random-waypoint scenario: the `random_large` preset (200 or
/// 500 nodes at the paper's density) with ten random flows, every node
/// roaming the full field. These cases exercise the spatial-grid medium's
/// incremental `move_nodes` path at scale.
fn random_large_mobility(nodes: usize, transport: Transport) -> Scenario {
    let seed = 4242;
    let mut s = Scenario::random_large(nodes, DataRate::MBPS_2, transport, seed);
    s.mobility = Some(waypoints(topology::random_large_dims(nodes)));
    s
}

/// A city-scale scenario: `nodes` at the paper's density with the
/// expanding-ring AODV preset and ten deterministic *local* TCP flows
/// (each source paired with a node 2.2–2.8 radio ranges away, ~3 hops).
/// City traffic is local by construction — at these field sizes a random
/// cross-field pair would exceed the 64-hop default TTL anyway — so these
/// cases measure discovery plus steady forwarding, not undeliverable
/// paths. The geometric pairing needs no BFS, keeping 50k-node setup
/// cheap. The topology is a ≥ 99 % giant-component draw
/// ([`topology::random_large_giant`]): past ~10k nodes at the paper's
/// density a fully connected field does not exist, and the delivery
/// target spans all ten flows, so an unlucky endpoint in an isolated
/// pocket cannot stall the run.
fn city(nodes: usize, mobility: bool) -> Scenario {
    let seed = 4242;
    let topo = topology::random_large_giant(nodes, seed);
    let positions = topo.positions();
    let flows = (0..10usize)
        .map(|i| {
            let src = (i * nodes / 10) as u32;
            let dst = (0..nodes as u32)
                .find(|&d| {
                    let m = positions[src as usize].distance_to(positions[d as usize]);
                    (550.0..700.0).contains(&m)
                })
                .expect("paper density guarantees a ~3-hop partner");
            FlowSpec {
                src: NodeId(src),
                dst: NodeId(dst),
                transport: Transport::newreno(),
            }
        })
        .collect();
    let mut s = Scenario::new(topo, flows, DataRate::MBPS_11, seed);
    s.aodv = AodvConfig::city();
    if mobility {
        s.mobility = Some(waypoints(topology::random_large_dims(nodes)));
    }
    s
}

fn cases() -> Vec<BenchCase> {
    vec![
        BenchCase {
            name: "chain8-newreno-2m",
            quick: true,
            target: 4_000,
            deadline: SimDuration::from_secs(3_000),
            build: || Scenario::chain(8, DataRate::MBPS_2, Transport::newreno(), 1),
        },
        BenchCase {
            name: "grid6-newreno-11m",
            quick: true,
            target: 12_000,
            deadline: SimDuration::from_secs(3_000),
            build: || Scenario::grid6(DataRate::MBPS_11, Transport::newreno(), 1),
        },
        BenchCase {
            name: "random50-vegas-2m",
            quick: true,
            target: 12_000,
            deadline: SimDuration::from_secs(3_000),
            build: || random50(Transport::vegas(2), false),
        },
        BenchCase {
            name: "random50-mobility-newreno-2m",
            quick: false,
            target: 6_000,
            deadline: SimDuration::from_secs(3_000),
            build: || random50(Transport::newreno(), true),
        },
        BenchCase {
            name: "random200-mobility",
            quick: true,
            target: 3_000,
            deadline: SimDuration::from_secs(1_000),
            build: || random_large_mobility(200, Transport::newreno()),
        },
        BenchCase {
            name: "random500-mobility",
            quick: false,
            target: 3_000,
            deadline: SimDuration::from_secs(1_000),
            build: || random_large_mobility(500, Transport::newreno()),
        },
        // City-scale tier (PR 9): the flat per-node engine on 5k–50k
        // nodes. random5k adds full-field random-waypoint mobility; the
        // 20k and 50k cases are static and mostly measure discovery cost
        // and bytes/node at scale. None are quick — the 50k topology
        // alone takes a while to sample into a connected field.
        BenchCase {
            name: "random5k-mobility",
            quick: false,
            target: 3_000,
            deadline: SimDuration::from_secs(1_000),
            build: || city(5_000, true),
        },
        BenchCase {
            name: "random20k",
            quick: false,
            target: 3_000,
            deadline: SimDuration::from_secs(1_000),
            build: || city(20_000, false),
        },
        BenchCase {
            name: "random50k",
            quick: false,
            target: 1_500,
            deadline: SimDuration::from_secs(1_000),
            build: || city(50_000, false),
        },
        // City-scale *mobility* tier (PR 10): the lazy epoch-stamped
        // medium makes the tick O(moved nodes), so full-field
        // random-waypoint mobility is affordable at 20k and 50k. Same
        // targets as the static cousins for row comparability.
        BenchCase {
            name: "random20k-mobility",
            quick: false,
            target: 3_000,
            deadline: SimDuration::from_secs(1_000),
            build: || city(20_000, true),
        },
        BenchCase {
            name: "random50k-mobility",
            quick: false,
            target: 1_500,
            deadline: SimDuration::from_secs(1_000),
            build: || city(50_000, true),
        },
        // Open-loop flow churn: a 100 000-flow web workload (at a
        // sustainable 20% load) spawning, transferring and vacating
        // flow-table slots; the target samples the first ~2 700
        // transactions. Exercises the traffic engine, slab recycling and
        // per-flow timer management rather than steady-state forwarding.
        BenchCase {
            name: "traffic100k",
            quick: true,
            target: 20_000,
            deadline: SimDuration::from_secs(3_000),
            build: || {
                Scenario::open_loop(
                    20,
                    TrafficModel::web(100_000).with_load(0.2),
                    Transport::newreno(),
                    DataRate::MBPS_11,
                    4242,
                )
            },
        },
    ]
}

/// One measured scenario run.
struct Measurement {
    name: &'static str,
    /// Best (smallest) wall time over the repeats.
    wall_secs: f64,
    /// Wall seconds the best run's `Scenario::build` took (set-up, which
    /// `wall_secs` leaves out).
    build_secs: f64,
    /// Accounted per-node engine state (structs + tracked heap) from
    /// [`mwn::Network::bytes_per_node`], measured at the end of the run.
    bytes_per_node: u64,
    /// Process peak RSS (`VmHWM`) in bytes, `None` where `/proc` is
    /// unavailable. Cumulative across the process, so within one bench
    /// invocation it only ever grows case-over-case. Read before the
    /// report is built, so the report's own allocation is not counted.
    peak_rss_bytes: Option<u64>,
    /// The best run's report (profile, medium counters, deliveries).
    report: MetricsReport,
}

impl Measurement {
    /// Wall seconds the best run spent on the medium: in the mobility
    /// tick proper (position diffs, grid relocation, the epoch bump; 0 for
    /// static scenarios), and keeping effect lists current at transmission
    /// time (scans and sorts of one-shot fills, builds and rebuilds).
    fn medium_secs(&self) -> (f64, f64) {
        let p = &self.report.profile;
        (p.timed_secs("medium_tick"), p.timed_secs("medium_lazy"))
    }

    /// Medium share of wall time in percent (the at-a-glance regression
    /// signal for the lazy path).
    fn medium_pct(&self) -> f64 {
        let (tick, lazy) = self.medium_secs();
        if self.wall_secs > 0.0 {
            100.0 * (tick + lazy) / self.wall_secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        let (r, p) = (&self.report, &self.report.profile);
        let (tick, lazy) = self.medium_secs();
        let obj = Obj::new()
            .str("name", self.name)
            .u64("events", p.events_processed())
            .usize("peak_queue_depth", p.peak_queue_depth())
            .u64("delivered", r.delivered)
            .f64("sim_secs", r.totals.time.as_secs_f64())
            .f64("wall_secs", self.wall_secs)
            .f64("build_secs", self.build_secs)
            .f64("medium_tick_secs", tick)
            .f64("medium_lazy_secs", lazy)
            .u64("signal_edges", p.signal_edges())
            .u64("wave_yields", p.wave_yields())
            .f64("events_per_pkt", r.events_per_packet())
            .f64("schedules_per_pkt", r.schedules_per_packet())
            .f64("cancels_per_pkt", r.cancels_per_packet())
            .f64("rx_per_tx", r.rx_per_tx())
            .f64("wave_yield_share", r.wave_yield_share())
            .u64("nav_parked", p.nav_parked)
            .u64("nav_materialised", p.nav_materialised)
            .u64("mac_batches_without_actions", p.mac_batches_without_actions)
            .u64("medium_builds", r.medium.builds)
            .u64("medium_rebuilds", r.medium.rebuilds)
            .u64("node_records", p.node_records)
            .usize("nodes", r.totals.nodes.len())
            .u64("bytes_per_node", self.bytes_per_node);
        let obj = match self.peak_rss_bytes {
            Some(b) => obj.u64("peak_rss_bytes", b),
            None => obj.raw("peak_rss_bytes", "null"),
        };
        obj.f64("events_per_sec", p.events_per_sec(self.wall_secs))
            .finish()
    }
}

fn run_case(case: &BenchCase, repeat: u64) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..repeat {
        let scenario = (case.build)();
        let started = Instant::now();
        let mut net = scenario.build();
        let build_secs = started.elapsed().as_secs_f64();
        net.enable_profiling();
        let started = Instant::now();
        net.run_until_delivered(case.target, SimTime::ZERO + case.deadline);
        let wall_secs = started.elapsed().as_secs_f64();
        if best.as_ref().is_some_and(|b| b.wall_secs <= wall_secs) {
            continue;
        }
        let peak_rss_bytes = peak_rss_bytes();
        best = Some(Measurement {
            name: case.name,
            wall_secs,
            build_secs,
            bytes_per_node: net.bytes_per_node(),
            peak_rss_bytes,
            report: net.report(),
        });
    }
    best.expect("repeat >= 1")
}

/// Peak resident set size of this process in bytes — the `VmHWM` line of
/// Linux's `/proc/self/status` — or `None` wherever that interface does
/// not exist (recorded as JSON `null` so the schema stays stable).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

pub fn command(argv: &[String]) -> Result<(), Failure> {
    let mut argv = argv.to_vec();
    let quick = take_flag(&mut argv, "--quick");
    let check = take_flag(&mut argv, "--check");
    let record = take_value(&mut argv, "--record")?;
    let case_filter = take_value(&mut argv, "--case")?;
    let out = take_value(&mut argv, "--out")?.unwrap_or_else(|| "BENCH_engine.json".to_string());
    let repeat = take_count(&mut argv, "--repeat", "repeat count")?;
    reject_leftovers(&argv)?;
    if record.is_some() && quick {
        return Err("--record requires the full scenario set (drop --quick)".into());
    }
    if record.is_some() && case_filter.is_some() {
        return Err("--record requires the full scenario set (drop --case)".into());
    }

    let baseline = match std::fs::read_to_string(&out) {
        Ok(text) => Some(Baseline::parse(text).map_err(|e| Failure::Run(format!("{out}: {e}")))?),
        Err(_) => None,
    };
    if let Some(label) = &record {
        // Dry-run the rewrite: a refusal must cost no run.
        render_file(baseline.as_ref(), label, &[])
            .map_err(|e| Failure::Run(format!("{out}: {e}")))?;
    }
    let baseline_rows = baseline.as_ref().map(Baseline::last_entry);

    let selected: Vec<BenchCase> = cases()
        .into_iter()
        .filter(|c| !quick || c.quick)
        .filter(|c| {
            case_filter
                .as_deref()
                .is_none_or(|pat| c.name.contains(pat))
        })
        .collect();
    if selected.is_empty() {
        let pattern = case_filter.as_deref().unwrap_or_default();
        return Err(format!("--case {pattern:?} matches no benchmark scenario").into());
    }
    println!(
        "running {} scenario(s), best of {repeat} run(s) each:",
        selected.len()
    );

    // Rendered rows, not measurements: a case's report is dropped before
    // the next case runs, so it does not count towards that one's RSS.
    let mut rows = Vec::new();
    let mut worst = Worst::default();
    for case in &selected {
        let m = run_case(case, repeat);
        let eps = m.report.profile.events_per_sec(m.wall_secs);
        let base = baseline_rows
            .as_ref()
            .and_then(|b| b.iter().find(|r| r.name == m.name));
        // (speed ratio on wall seconds — the gated one — and on ev/s).
        let vs = base.map(|base| (base.wall_secs / m.wall_secs, eps / base.events_per_sec));
        if let Some(base_epp) = base.and_then(|b| b.events_per_pkt).filter(|&e| e > 0.0) {
            let growth = m.report.events_per_packet() / base_epp;
            if worst.growth.is_none_or(|(g, _)| growth > g) {
                worst.growth = Some((growth, m.name));
            }
        }
        if let Some(base) = base {
            for (worst, excess) in worst
                .exact
                .iter_mut()
                .zip(exact_excess(&m.report.medium, base))
            {
                let Some(excess) = excess else { continue };
                if worst.is_none_or(|(e, _)| excess > e) {
                    *worst = Some((excess, m.name));
                }
            }
        }
        // Derived medium share of wall: a column on every row (static
        // cases read 0.0%), so lazy-path regressions are readable at a
        // glance without jq over BENCH_engine.json.
        let medium = format!(
            "  medium {:>4.1}%  {} lists built  node records {} of {}",
            m.medium_pct(),
            m.report.medium.builds,
            m.report.profile.node_records,
            m.report.totals.nodes.len()
        );
        let waves = format!(
            "  {:.0} ev/pkt  {:.1} rx/tx  yield {:.0}%",
            m.report.events_per_packet(),
            m.report.rx_per_tx(),
            100.0 * m.report.wave_yield_share()
        );
        let mut mem = format!("  {:.1} KiB/node", m.bytes_per_node as f64 / 1024.0);
        if let Some(rss) = m.peak_rss_bytes {
            mem.push_str(&format!("  rss {:.0} MiB", rss as f64 / (1024.0 * 1024.0)));
        }
        let versus = match vs {
            Some((wall, evs)) => {
                if worst.ratio.is_none_or(|(w, _)| wall < w) {
                    worst.ratio = Some((wall, m.name));
                }
                format!("({wall:.2}x wall, {evs:.2}x ev/s vs baseline)")
            }
            None => "(no baseline)".to_string(),
        };
        println!(
            "  {:<30} {:>12} events {:>8.2} s {:>12.0} ev/s  {versus}{waves}{mem}{medium}",
            m.name,
            m.report.profile.events_processed(),
            m.wall_secs,
            eps
        );
        rows.push(m.to_json());
    }

    if let Some(label) = record {
        let text = render_file(baseline.as_ref(), &label, &rows).map_err(Failure::Run)?;
        std::fs::write(&out, text).map_err(|e| Failure::Run(format!("writing {out}: {e}")))?;
        println!("recorded entry {label:?} in {out}");
    }

    if check {
        if worst.ratio.is_none() {
            return Err(Failure::Run(format!(
                "--check: no committed baseline in {out} (record one first)"
            )));
        }
        let mut failed = Vec::new();
        for (gate, verdict) in worst.verdicts() {
            match verdict {
                Ok(line) => println!("check passed: {line}"),
                Err(line) => {
                    println!("check FAILED: {line}");
                    failed.push(gate);
                }
            }
        }
        if !failed.is_empty() {
            return Err(Failure::Run(format!(
                "--check failed {} gate(s): {}",
                failed.len(),
                failed.join(", ")
            )));
        }
    }
    Ok(())
}

/// The worst case per `--check` gate over the cases run, each with the
/// case's name (`None` while no case had a baseline value for it).
#[derive(Default)]
struct Worst {
    /// Lowest wall speed ratio, baseline ÷ measured (1.0 = unchanged).
    ratio: Option<(f64, &'static str)>,
    /// Largest events/packet growth over the baseline (1.0 = unchanged).
    growth: Option<(f64, &'static str)>,
    /// Largest excess over the baseline per exact gate (0 = unchanged).
    exact: [Option<(i64, &'static str)>; EXACT_GATES.len()],
}

impl Worst {
    /// Every gate's verdict, in gate order: `(gate, Ok(passed line) or
    /// Err(failure line))`. Each gate is judged on its own, so a host
    /// that fails the wall gate still reports the host-independent ones.
    /// Gates the baseline entry has no key for are left out.
    fn verdicts(&self) -> Vec<(&'static str, Result<String, String>)> {
        let mut out = Vec::new();
        if let Some((ratio, name)) = self.ratio {
            let verdict = if ratio < 1.0 - REGRESSION_TOLERANCE {
                Err(format!(
                    "wall-clock regression: {name} runs at {:.0}% of the committed \
                     baseline's speed (tolerance {:.0}%)",
                    ratio * 100.0,
                    (1.0 - REGRESSION_TOLERANCE) * 100.0
                ))
            } else {
                Ok(format!(
                    "worst scenario {name} at {ratio:.2}x of the committed baseline's speed (wall)"
                ))
            };
            out.push(("wall clock", verdict));
        }
        // Entries older than PR 14 carry no events/packet; nothing to gate.
        if let Some((growth, name)) = self.growth {
            let verdict = if growth > 1.0 + EVENTS_PER_PKT_TOLERANCE {
                Err(format!(
                    "event-count regression: {name} pops {:.1}% more events per delivered \
                     packet than the committed baseline (tolerance {:.0}%)",
                    (growth - 1.0) * 100.0,
                    EVENTS_PER_PKT_TOLERANCE * 100.0
                ))
            } else {
                Ok(format!(
                    "worst scenario {name} at {growth:.3}x of the committed baseline's events/packet"
                ))
            };
            out.push(("events per packet", verdict));
        }
        // Entries recorded before a counter's key carry no count for it;
        // nothing to gate.
        for (what, worst) in EXACT_GATES.into_iter().zip(self.exact) {
            let Some((excess, name)) = worst else {
                continue;
            };
            let verdict = if excess > 0 {
                Err(format!(
                    "{what} regression: {name} paid {excess} more {what} than the \
                     committed baseline (exact gate: any growth fails)"
                ))
            } else {
                Ok(format!(
                    "worst scenario {name} at {excess:+} {what} vs the committed baseline"
                ))
            };
            out.push((what, verdict));
        }
        out
    }
}

// ---- BENCH_engine.json ----------------------------------------------------
//
// The file is JSON, written one entry per line so `--record` appends an
// entry by rewriting the lines it read:
//
//   {
//     "schema": "mwn-bench-engine/1",
//     "entries": [
//       {"label":"...","scenarios":[{...},{...}]},
//       {"label":"...","scenarios":[{...},{...}]}
//     ]
//   }
//
// Reading parses the whole document, so a reformatted file still serves
// as a baseline; `--record` refuses to rewrite one whose entries are not
// one per line instead of dropping them.

/// A parsed baseline file.
struct Baseline {
    text: String,
    entries: Vec<Json>,
}

impl Baseline {
    fn parse(text: String) -> Result<Self, String> {
        let doc = Json::parse(&text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("baseline has no \"entries\" array")?
            .to_vec();
        Ok(Baseline { text, entries })
    }

    /// The scenario rows of the *last* (most recent) entry.
    fn last_entry(&self) -> Vec<BaselineRow> {
        let scenarios = self
            .entries
            .last()
            .and_then(|e| e.get("scenarios"))
            .and_then(Json::as_arr)
            .unwrap_or_default();
        scenarios
            .iter()
            .filter_map(|s| {
                let num = |key| s.get(key).and_then(Json::as_f64);
                Some(BaselineRow {
                    name: s.get("name")?.as_str()?.to_string(),
                    wall_secs: num("wall_secs")?,
                    events_per_sec: num("events_per_sec")?,
                    events_per_pkt: num("events_per_pkt"),
                    medium_rebuilds: s.get("medium_rebuilds").and_then(Json::as_u64),
                    medium_builds: s.get("medium_builds").and_then(Json::as_u64),
                })
            })
            .collect()
    }

    /// The entry lines `--record` keeps, or an error when they are not
    /// all of the parsed entries.
    fn entry_lines(&self) -> Result<Vec<String>, String> {
        let lines: Vec<String> = self
            .text
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with(r#"{"label""#))
            .map(|l| l.trim_end_matches(',').to_string())
            .collect();
        if lines.len() != self.entries.len() {
            return Err(format!(
                "entries are not one per line; refusing to rewrite {} entries",
                self.entries.len()
            ));
        }
        Ok(lines)
    }
}

/// One scenario row of a committed entry, as far as `--check` reads it.
struct BaselineRow {
    name: String,
    wall_secs: f64,
    events_per_sec: f64,
    /// `None` in entries recorded before the key existed.
    events_per_pkt: Option<f64>,
    /// `None` in entries recorded before the key existed.
    medium_rebuilds: Option<u64>,
    /// `None` in entries recorded before the key existed.
    medium_builds: Option<u64>,
}

/// The host-independent counters `--check` gates exactly (any growth
/// fails), in [`exact_excess`] order.
const EXACT_GATES: [&str; 2] = ["medium rebuilds", "medium list builds"];

/// Per [`EXACT_GATES`] counter, what a case paid beyond its baseline
/// row's (positive fails `--check`; a network medium built eagerly again
/// builds one list per node), or `None` when the row predates the key.
fn exact_excess(m: &MediumCounters, base: &BaselineRow) -> [Option<i64>; EXACT_GATES.len()] {
    let excess = |count: u64, base: Option<u64>| base.map(|b| count as i64 - b as i64);
    [
        excess(m.rebuilds, base.medium_rebuilds),
        excess(m.builds, base.medium_builds),
    ]
}

fn render_entry(label: &str, rows: &[String]) -> String {
    let scenarios = arr(rows.iter().cloned());
    Obj::new()
        .str("label", label)
        .raw("scenarios", &scenarios)
        .finish()
}

fn render_file(
    existing: Option<&Baseline>,
    label: &str,
    rows: &[String],
) -> Result<String, String> {
    let mut entries = existing
        .map(Baseline::entry_lines)
        .transpose()?
        .unwrap_or_default();
    let taken: Vec<&str> = existing
        .into_iter()
        .flat_map(|b| &b.entries)
        .filter_map(|e| e.get("label")?.as_str())
        .collect();
    if taken.contains(&label) {
        // Suggest the first numeric suffix that is actually free.
        let suggestion = (2..)
            .map(|i| format!("{label}-{i}"))
            .find(|s| !taken.contains(&s.as_str()))
            .expect("unbounded suffix search");
        return Err(format!(
            "entry {label:?} already recorded; baseline entries are append-only \
             (pick a new label, e.g. {suggestion:?})"
        ));
    }
    entries.push(render_entry(label, rows));
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str("  \"entries\": [\n");
    let n = entries.len();
    for (i, e) in entries.iter().enumerate() {
        out.push_str("    ");
        out.push_str(e);
        if i + 1 < n {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measurement whose report holds `events` events over 100
    /// delivered packets.
    fn meas(name: &'static str, events: u64, wall: f64) -> Measurement {
        let mut profile = mwn::EngineProfile::new();
        for _ in 0..events {
            profile.record("mac_timer", 9);
        }
        profile.record_wave(4_000, true);
        for _ in 1..30 {
            profile.record_wave(0, true);
        }
        profile.record_timed("medium_tick", 0.045);
        profile.record_timed("medium_lazy", 0.08);
        profile.nav_parked = 70;
        profile.nav_materialised = 2;
        profile.mac_batches_without_actions = 900;
        profile.queue_schedules = 425;
        profile.queue_cancels = 69;
        Measurement {
            name,
            wall_secs: wall,
            build_secs: 0.125,
            bytes_per_node: 2_048,
            peak_rss_bytes: Some(64 << 20),
            report: MetricsReport {
                totals: mwn::MetricsSnapshot::empty(SimTime::from_nanos(2_500_000_000)),
                profile,
                medium: MediumCounters {
                    builds: 9,
                    rebuilds: 40,
                    ..MediumCounters::default()
                },
                delivered: 100,
                ..MetricsReport::default()
            },
        }
    }

    fn row(name: &'static str, events: u64, wall: f64) -> String {
        meas(name, events, wall).to_json()
    }

    fn parsed(text: &str) -> Baseline {
        Baseline::parse(text.to_string()).expect("valid baseline")
    }

    #[test]
    fn file_roundtrip_preserves_entries() {
        let first = render_file(None, "pre", &[row("a", 1000, 0.5)]).unwrap();
        assert!(first.contains(SCHEMA));
        let second = render_file(Some(&parsed(&first)), "post", &[row("a", 4000, 0.5)]).unwrap();
        let second = parsed(&second);
        assert_eq!(second.entries.len(), 2);
        assert_eq!(second.entry_lines().unwrap().len(), 2);
        // The comparison baseline is the most recent entry.
        let rows = second.last_entry();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "a");
        assert!((rows[0].wall_secs - 0.5).abs() < 1e-12);
        assert!((rows[0].events_per_sec - 8000.0).abs() < 1e-9);
        // The host-independent gates read these.
        assert_eq!(rows[0].events_per_pkt, Some(40.0));
        assert_eq!(rows[0].medium_rebuilds, Some(40));
        assert_eq!(rows[0].medium_builds, Some(9));
    }

    /// A baseline reformatted by a JSON tool (one key per line) still
    /// serves `--check`, but `--record` must not rewrite it from the
    /// entry lines it can no longer find.
    #[test]
    fn reformatted_baseline_is_read_but_never_rewritten() {
        let first = render_file(None, "pre", &[row("a", 1000, 0.5)]).unwrap();
        let two = render_file(Some(&parsed(&first)), "post", &[row("a", 4000, 0.25)]).unwrap();
        let pretty = parsed(&two.replace(r#"{"label":"#, "{\n      \"label\": "));
        let rows = pretty.last_entry();
        assert_eq!(rows.len(), 1);
        assert!(
            (rows[0].wall_secs - 0.25).abs() < 1e-12,
            "not the last entry"
        );
        let err = render_file(Some(&pretty), "next", &[row("a", 1, 1.0)]).unwrap_err();
        assert!(
            err.contains("refusing to rewrite 2 entries"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn unparsable_baseline_is_an_error_not_an_empty_one() {
        for text in ["", "{\"entries\": [", "{\"schema\": \"x\"}", "[]"] {
            assert!(Baseline::parse(text.to_string()).is_err(), "{text:?}");
        }
        assert!(parsed(r#"{"entries": []}"#).last_entry().is_empty());
    }

    /// Both counters are exact on every host, so any growth fails — a
    /// network medium built eagerly again builds one list per node.
    #[test]
    fn rebuild_gate_fails_on_growth_only() {
        let row = |medium_rebuilds, medium_builds| BaselineRow {
            name: "a".to_string(),
            wall_secs: 1.0,
            events_per_sec: 1.0,
            events_per_pkt: None,
            medium_rebuilds,
            medium_builds,
        };
        let counts = |rebuilds, builds| MediumCounters {
            rebuilds,
            builds,
            ..MediumCounters::default()
        };
        let base = row(Some(40), Some(72));
        let gate = |rebuilds, builds| exact_excess(&counts(rebuilds, builds), &base);
        assert_eq!(gate(41, 72), [Some(1), Some(0)], "more rebuilds fail");
        assert_eq!(gate(40, 5_000), [Some(0), Some(4_928)], "more builds fail");
        assert_eq!(gate(40, 72), [Some(0), Some(0)], "equal passes");
        assert_eq!(gate(3, 70), [Some(-37), Some(-2)], "fewer passes");
        assert_eq!(
            exact_excess(&counts(40, 5_000), &row(None, None)),
            [None, None],
            "rows without the keys skipped"
        );
        assert_eq!(
            exact_excess(&counts(40, 5_000), &row(Some(40), None)),
            [Some(0), None],
            "pre-builds row gates rebuilds only"
        );
    }

    /// A failing wall gate does not hide the gates after it: every
    /// verdict is reported, and every failed gate is named.
    #[test]
    fn check_reports_every_gate_when_wall_fails() {
        let worst = Worst {
            ratio: Some((0.5, "slow")),
            growth: Some((1.0, "same")),
            exact: [Some((3, "rebuilt")), Some((0, "built"))],
        };
        let verdicts = worst.verdicts();
        let gates: Vec<_> = verdicts.iter().map(|(gate, _)| *gate).collect();
        assert_eq!(
            gates,
            [
                "wall clock",
                "events per packet",
                "medium rebuilds",
                "medium list builds"
            ]
        );
        let failed: Vec<_> = verdicts
            .iter()
            .filter(|(_, v)| v.is_err())
            .map(|(gate, _)| *gate)
            .collect();
        assert_eq!(failed, ["wall clock", "medium rebuilds"]);
        let (_, rebuilds) = &verdicts[2];
        assert!(rebuilds
            .as_ref()
            .unwrap_err()
            .contains("rebuilt paid 3 more"));
        // Gates the baseline has no key for are left out, not passed.
        let partial = Worst {
            ratio: Some((1.1, "fast")),
            ..Worst::default()
        };
        assert_eq!(partial.verdicts().len(), 1);
        assert!(partial.verdicts()[0].1.is_ok());
    }

    /// A row's wave ratios are the report's: events per delivered
    /// packet, receptions per transmission and the yield share, 0 where
    /// a run left a denominator empty.
    #[test]
    fn wave_ratios_come_from_the_profile_and_survive_empty_runs() {
        let mut m = meas("w", 0, 1.0);
        let p = &mut m.report.profile;
        *p = mwn::EngineProfile::new();
        for _ in 0..3 {
            p.record("signal_start", 1);
        }
        p.record("signal_end", 1);
        p.record_wave(12, true);
        p.record_wave(8, false);
        p.record("tx_end", 1);
        p.record("tx_end", 1);
        m.report.delivered = 3;
        let ratios = |m: &Measurement| {
            let row = Json::parse(&m.to_json()).unwrap();
            ["events_per_pkt", "rx_per_tx", "wave_yield_share"]
                .map(|key| row.get(key).and_then(Json::as_f64).unwrap())
        };
        assert_eq!(
            ratios(&m),
            [2.0, 5.0, 0.25],
            "6 events / 3 pkts; 20 edges / 2 / 2 tx; 1 yield / 4 segments"
        );
        m.report = MetricsReport::default();
        assert_eq!(ratios(&m), [0.0; 3], "zero denominators must not divide");
    }

    #[test]
    fn duplicate_label_rejected_with_a_free_suggestion() {
        let first = parsed(&render_file(None, "pre", &[row("a", 1000, 0.5)]).unwrap());
        let err = render_file(Some(&first), "pre", &[row("a", 1, 1.0)]).unwrap_err();
        assert!(err.contains("\"pre-2\""), "unhelpful error: {err}");
        // The suggestion skips suffixes that are themselves taken.
        let second = render_file(Some(&first), "pre-2", &[row("a", 1000, 0.5)]).unwrap();
        let err = render_file(Some(&parsed(&second)), "pre", &[row("a", 1, 1.0)]).unwrap_err();
        assert!(err.contains("\"pre-3\""), "suggestion not free: {err}");
    }

    #[test]
    fn fmt_f64_in_scenario_json_is_parseable() {
        let row = Json::parse(&meas("chain", 123, 0.25).to_json()).unwrap();
        let num = |key| row.get(key).and_then(Json::as_f64);
        assert_eq!(row.get("name").and_then(Json::as_str), Some("chain"));
        assert_eq!(num("events"), Some(123.0));
        assert_eq!(num("events_per_sec"), Some(492.0));
        assert_eq!(num("bytes_per_node"), Some(2048.0));
        assert_eq!(num("peak_rss_bytes"), Some((64u64 << 20) as f64));
        assert_eq!(num("medium_tick_secs"), Some(0.045));
        assert_eq!(num("medium_lazy_secs"), Some(0.08));
        // Receptions per transmission stay visible now that they are no
        // longer an event count.
        assert_eq!(num("signal_edges"), Some(4000.0));
        assert_eq!(num("wave_yields"), Some(30.0));
        assert_eq!(num("events_per_pkt"), Some(1.23));
        assert_eq!(num("schedules_per_pkt"), Some(4.25));
        assert_eq!(num("cancels_per_pkt"), Some(0.69));
        assert_eq!(num("delivered"), Some(100.0));
        assert_eq!(num("sim_secs"), Some(2.5));
        assert_eq!(num("peak_queue_depth"), Some(9.0));
        assert_eq!(num("nav_parked"), Some(70.0));
        assert_eq!(num("nav_materialised"), Some(2.0));
        assert_eq!(num("mac_batches_without_actions"), Some(900.0));
        assert_eq!(num("medium_builds"), Some(9.0));
        assert_eq!(num("medium_rebuilds"), Some(40.0));
        assert_eq!(num("build_secs"), Some(0.125));
    }

    #[test]
    fn medium_share_of_wall_is_derived_per_row() {
        let m = meas("chain", 123, 0.25);
        assert_eq!(m.medium_secs(), (0.045, 0.08));
        assert!((m.medium_pct() - 50.0).abs() < 1e-9);
        let mut idle = meas("idle", 0, 0.0);
        idle.report.profile = mwn::EngineProfile::new();
        assert_eq!(idle.medium_pct(), 0.0, "zero wall must not divide");
    }

    /// Peak RSS is best-effort: where `/proc/self/status` does not exist
    /// the field must degrade to JSON `null`, never vanish from the
    /// schema.
    #[test]
    fn missing_peak_rss_renders_as_null() {
        let mut m = meas("chain", 123, 0.25);
        m.peak_rss_bytes = None;
        let line = m.to_json();
        assert!(
            line.contains(r#""peak_rss_bytes":null"#),
            "schema lost the field: {line}"
        );
        let row = Json::parse(&line).unwrap();
        assert_eq!(row.get("peak_rss_bytes"), Some(&Json::Null));
        // The numeric fields around it still parse.
        assert_eq!(
            row.get("bytes_per_node").and_then(Json::as_f64),
            Some(2048.0)
        );
        assert_eq!(
            row.get("events_per_sec").and_then(Json::as_f64),
            Some(492.0)
        );
    }

    #[test]
    fn bench_cases_have_unique_names_and_a_quick_subset() {
        let all = cases();
        let mut names: Vec<&str> = all.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(all.iter().any(|c| c.quick) && all.iter().any(|c| !c.quick));
        assert!(names.contains(&"random50-vegas-2m"));
        assert!(names.contains(&"random200-mobility"));
        assert!(names.contains(&"random500-mobility"));
        // traffic100k is the CI smoke for open-loop flow churn.
        assert!(all.iter().any(|c| c.name == "traffic100k" && c.quick));
        // random200 is the CI smoke for the spatial-grid mobility path;
        // random500 is full-run only.
        assert!(all
            .iter()
            .any(|c| c.name == "random200-mobility" && c.quick));
        assert!(all
            .iter()
            .any(|c| c.name == "random500-mobility" && !c.quick));
        // The city-scale tier is full-run only (minutes, not CI seconds).
        for name in [
            "random5k-mobility",
            "random20k",
            "random50k",
            "random20k-mobility",
            "random50k-mobility",
        ] {
            assert!(
                all.iter().any(|c| c.name == name && !c.quick),
                "{name} missing or marked quick"
            );
        }
        // The PR 10 mobility tiers reuse their static cousins' targets so
        // rows compare across entries.
        let target_of = |n: &str| all.iter().find(|c| c.name == n).unwrap().target;
        assert_eq!(target_of("random20k-mobility"), target_of("random20k"));
        assert_eq!(target_of("random50k-mobility"), target_of("random50k"));
    }
}
