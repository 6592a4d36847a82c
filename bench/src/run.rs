//! One benchmark run of one workload: do rounds for the time budget,
//! verify the outputs, and reduce the rounds to the named metrics.
//!
//! Untraced runs (`--trace 0`) produce the end-to-end metrics — each the
//! median over rounds that simulate different scenario seeds — and touch
//! no observability switch of the simulator. Traced runs (`--trace 1`)
//! alternate untraced and traced rounds of one scenario seed, run the
//! layer drivers and the fast golden suite, and produce the per-layer
//! metrics; none of their numbers feed an end-to-end metric.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mwn_obs::json::{arr, fmt_f64, Obj};
use mwn_phy::DataRate;

use crate::host;
use crate::jsonx::quoted;
use crate::layers::{self, Sizing};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartiles};
use crate::trace::Tracer;
use crate::workloads::{self, Round, Sizes, Workload};

/// Payload bits per delivered packet (1460 bytes).
const BITS_PER_PACKET: f64 = 1460.0 * 8.0;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Where trace files and temporary stores go.
    pub results: PathBuf,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Per-round (or per-slice) samples behind `value`, when it is a
    /// median; empty for counts and single readings.
    pub samples: Vec<f64>,
}

pub struct RunOutput {
    pub workload: Workload,
    /// The `--seed` argument.
    pub seed: u64,
    pub traced: bool,
    pub rounds: usize,
    /// Round 0's: later rounds simulate other scenario seeds, and how
    /// many of them fit the time budget depends on the host.
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not `correct`, if it is not.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub load_start: f64,
    pub load_end: f64,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The contract's result line.
    pub fn contract_json(&self) -> String {
        let mut metrics = Obj::new();
        for m in &self.metrics {
            let value = Obj::new()
                .f64("value", m.value)
                .str("unit", m.unit)
                .finish();
            metrics = metrics.raw(m.name, &value);
        }
        Obj::new()
            .raw("correct", if self.correct() { "true" } else { "false" })
            .u64("attempted", self.attempted.max(1))
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }

    /// Everything the contract line has no key for; the set runner reads
    /// it from the line before the result.
    pub fn detail_json(&self) -> String {
        let samples = self
            .metrics
            .iter()
            .filter(|m| !m.samples.is_empty())
            .fold(Obj::new(), |o, m| {
                o.raw(m.name, &arr(m.samples.iter().map(|v| fmt_f64(*v))))
            });
        Obj::new()
            .str("workload", self.workload.name())
            .u64("seed", self.seed)
            .raw("traced", if self.traced { "true" } else { "false" })
            .usize("rounds", self.rounds)
            .str("sim_fingerprint", &format!("{:016x}", self.fingerprint))
            .raw("problems", &arr(self.problems.iter().map(|p| quoted(p))))
            .raw(
                "host",
                &host::to_json(self.load_start, self.load_end, self.workload.threads()),
            )
            .raw("samples", &samples.finish())
            .finish()
    }

    /// Human-readable table: every metric by name with unit, median,
    /// quartiles and sample count.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  {}  rounds {}  sim_fingerprint {:016x}  ops {} failed / {} attempted{}",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.rounds,
            self.fingerprint,
            self.failed,
            self.attempted,
            if host::is_noisy(self.load_start) { "  [noisy host]" } else { "" },
        );
        for m in &self.metrics {
            if m.samples.is_empty() {
                println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
            } else {
                let (q1, _, q3) = quartiles(&m.samples);
                println!(
                    "  {:<36} {:>14.6} {:<6} q1 {:.6}  q3 {:.6}  n {}",
                    m.name,
                    m.value,
                    m.unit,
                    q1,
                    q3,
                    m.samples.len()
                );
            }
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }
}

fn run_round(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    traced: bool,
    tmp: &Path,
    t: &mut Tracer,
) -> Round {
    match (workload, traced) {
        (Workload::PaperSweep, false) => workloads::run_sweep_round(seed, sizes, tmp, t),
        (Workload::PaperSweep, true) => workloads::run_sweep_traced(seed, sizes, tmp, t),
        _ => workloads::run_single(workload, seed, sizes, traced, t),
    }
}

/// Fingerprints must agree across every round of a traced run: the rounds
/// are the same simulation, observed or not. Returns the mismatching-round
/// count.
fn check_fingerprints(rounds: &[&Round], problems: &mut Vec<String>) -> u64 {
    let first = rounds[0].fingerprint;
    let bad = rounds.iter().filter(|r| r.fingerprint != first).count() as u64;
    if bad > 0 {
        problems.push(format!(
            "{bad} of {} rounds disagree with round 0's sim_fingerprint {first:016x}",
            rounds.len()
        ));
    }
    bad
}

pub fn run(args: &RunArgs) -> RunOutput {
    let tmp = args.results.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("results directory is writable");
    let out = if args.traced {
        run_traced(args, &tmp)
    } else {
        run_untraced(args, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    out
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes::smoke()
    } else {
        Sizes::FULL
    }
}

fn run_untraced(args: &RunArgs, tmp: &Path) -> RunOutput {
    let load_start = host::load_1min();
    let sizes = sizes(args.smoke);
    let started = Instant::now();
    let mut t = Tracer::new(args.workload.name());
    let mut rounds: Vec<Round> = Vec::new();
    // A new round starts while budget remains, so a run lasts between
    // `seconds` and `seconds` plus one round.
    while rounds.is_empty() || (!args.smoke && started.elapsed().as_secs_f64() < args.seconds) {
        t.set_run(rounds.len() as u32);
        let seed = workloads::scenario_seed(args.seed, rounds.len());
        rounds.push(run_round(args.workload, seed, &sizes, false, tmp, &mut t));
    }

    let mut problems = Vec::new();
    let attempted: u64 = rounds.iter().map(|r| r.ops_attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.ops_failed).sum();
    let peak_rss = host::peak_rss_mib().unwrap_or_else(|| {
        problems.push("VmHWM unavailable: peak_rss_mib needs /proc/self/status".into());
        0.0
    });

    let over_rounds = |f: fn(&Round) -> f64| {
        let samples: Vec<f64> = rounds.iter().map(f).collect();
        (median(&samples), samples)
    };
    // In `END_TO_END` order.
    let values = [
        over_rounds(Round::wall_us_per_pkt),
        over_rounds(|r| r.total_s),
        over_rounds(Round::setup_s),
        (peak_rss, Vec::new()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(e, (value, samples))| Metric {
            name: e.name,
            unit: e.unit,
            value,
            samples,
        })
        .collect();

    RunOutput {
        workload: args.workload,
        seed: args.seed,
        traced: false,
        rounds: rounds.len(),
        fingerprint: rounds[0].fingerprint,
        attempted,
        failed: failed.min(attempted.max(1)),
        problems,
        metrics,
        load_start,
        load_end: host::load_1min(),
    }
}

/// `(golden_ok share, suite seconds)`: the fast canonical cases against
/// the committed digests.
fn golden_suite(t: &mut Tracer) -> (f64, f64) {
    let s = t.open("check.fast_suite");
    let golden = mwn_check::golden::parse_digests(mwn_check::golden::BUILTIN_DIGESTS)
        .expect("committed digests parse");
    let cases = mwn_check::fast_cases();
    let ok = cases
        .iter()
        .filter(|case| {
            let report = case.run();
            report.violations.is_empty()
                && mwn_check::golden::conformance(&report, &golden).is_none()
        })
        .count();
    let secs = t.close(s);
    (ok as f64 / cases.len().max(1) as f64, secs)
}

fn run_traced(args: &RunArgs, tmp: &Path) -> RunOutput {
    let load_start = host::load_1min();
    let sizes = sizes(args.smoke);
    // Every round simulates the scenario seed of an untraced run's round
    // 0: attribution wants one simulation measured several times, and
    // identical rounds double as the determinism check.
    let seed = workloads::scenario_seed(args.seed, 0);
    let started = Instant::now();
    let mut t = Tracer::new(args.workload.name());
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    // Alternating pairs, so slow drift of the host hits both sides; half
    // the budget, because the drivers and the golden suite follow.
    while traced.is_empty() || (!args.smoke && started.elapsed().as_secs_f64() < args.seconds / 2.0)
    {
        t.set_run(traced.len() as u32 * 2);
        untraced.push(run_round(args.workload, seed, &sizes, false, tmp, &mut t));
        t.set_run(traced.len() as u32 * 2 + 1);
        traced.push(run_round(args.workload, seed, &sizes, true, tmp, &mut t));
    }
    let last = traced.last().expect("at least one pair");
    let c = &last.counts;
    let g = |key: &str| c.get(key).copied().unwrap_or(0.0);

    let positions = match args.workload {
        Workload::PaperSweep => layers::chain_positions(),
        w => workloads::scenario(w, seed, &sizes)
            .topology
            .positions()
            .to_vec(),
    };
    let sizing = Sizing {
        queue_depth: g("peak_queue_depth") as usize,
        positions,
        routes: g("routes_per_router").round() as usize,
        rate: match args.workload {
            Workload::ChainSteady | Workload::PaperSweep => DataRate::MBPS_2,
            _ => DataRate::MBPS_11,
        },
        ops_divisor: if args.smoke { 50 } else { 1 },
    };
    let d = layers::run_all(&sizing, tmp, &mut t);
    let (golden_ok, fast_suite_s) = golden_suite(&mut t);

    // ---- verification ----------------------------------------------------
    let mut problems = Vec::new();
    let all: Vec<&Round> = untraced.iter().chain(traced.iter()).collect();
    let mismatched = check_fingerprints(&all, &mut problems);
    if g("conservation_balanced") != 1.0 {
        problems.push("traced round's custody audit is not balanced".into());
    }
    if golden_ok != 1.0 {
        problems.push(format!(
            "fast canonical cases conform to BUILTIN_DIGESTS: {golden_ok:.2} of 1"
        ));
    }
    let attempted: u64 = all.iter().map(|r| r.ops_attempted).sum();
    let failed: u64 = all.iter().map(|r| r.ops_failed).sum::<u64>() + mismatched;

    // ---- reduction to the named metrics ----------------------------------
    let med = |f: fn(&Round) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let wall_u = med(Round::work_s);
    let wall_t = last.work_s();
    let overheads: Vec<f64> = untraced
        .iter()
        .zip(&traced)
        .map(|(u, tr)| (tr.work_s() / u.work_s() - 1.0) * 100.0)
        .collect();
    let slices: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.slice_us_per_pkt.iter().copied())
        .collect();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let share_of_wall = |ns: f64| ratio(ns / 1e9, wall_u);

    let events = g("events");
    let delivered = g("delivered");
    let starts = g("ev.signal_start");
    let wheel_est = share_of_wall(d.wheel_schedule_pop * events);
    let transceiver_est = share_of_wall(d.transceiver_signal * starts);
    let dcf_calls = g("ev.mac_timer")
        + g("ev.tx_end")
        + g("mac.unicast_accepted")
        + g("tr.phy_rx_ok")
        + g("tr.phy_corrupt");
    let dcf_est = share_of_wall(d.dcf_op * dcf_calls);
    let router_calls = g("tr.mac_rx")
        + g("tr.tcp_data")
        + g("tr.tcp_acks")
        + g("mac.unicast_delivered")
        + g("mac.contention_drops");
    let rreq_relayed = g("aodv.rreqs_forwarded") + g("aodv.suppressed");
    let aodv_est = share_of_wall(
        d.router_send * router_calls + (d.rreq_handle - d.router_send).max(0.0) * rreq_relayed,
    );
    let tcp_est =
        share_of_wall(d.tcp_on_ack * g("tr.tcp_acks") + d.tcp_sink_on_data * g("tr.tcp_data"));
    let traffic_est = share_of_wall(d.traffic_draw * g("ev.traffic_arrival"));
    let medium_share = ratio(g("t.medium_tick") + g("t.medium_lazy"), wall_t);
    let residual = 1.0
        - wheel_est
        - transceiver_est
        - dcf_est
        - aodv_est
        - tcp_est
        - traffic_est
        - medium_share;

    let sweep = untraced.last().filter(|r| !r.jobs.is_empty());
    let job_walls: Vec<f64> =
        sweep.map_or(Vec::new(), |r| r.jobs.iter().map(|j| j.wall_s).collect());
    let sweep_wall = sweep.map_or(0.0, |r| r.steady_s);

    let value = |name: &str| -> f64 {
        match name {
            "sim.events_per_pkt" => ratio(events, delivered),
            "sim.events_per_sec" => ratio(events, wall_t),
            "sim.peak_queue_depth" => g("peak_queue_depth"),
            "sim.wheel_schedule_pop_ns" => d.wheel_schedule_pop,
            "sim.wheel_cancel_ns" => d.wheel_cancel,
            "sim.wheel_est_share" => wheel_est,
            "phy.signal_events_share" => ratio(starts + g("ev.signal_end"), events),
            "phy.rx_per_tx" => ratio(starts, g("ev.tx_end")),
            "phy.undecoded_share" => ratio(g("phy.undecoded"), starts),
            "phy.collision_share" => ratio(g("phy.collisions"), starts),
            "phy.transceiver_signal_ns" => d.transceiver_signal,
            "phy.transceiver_est_share" => transceiver_est,
            "phy.medium_build_s" => d.medium_build_s,
            "phy.medium_move_ns_per_node" => d.medium_move_per_node,
            "phy.medium_refresh_ns" => d.medium_refresh,
            "phy.medium_rebuild_share" => ratio(g("medium.rebuilds"), g("medium.queries")),
            "phy.medium_revalidation_share" => {
                ratio(g("medium.revalidations"), g("medium.queries"))
            }
            "phy.medium_share" => medium_share,
            "mac80211.timer_events_share" => ratio(g("ev.mac_timer"), events),
            "mac80211.data_tx_per_delivered" => {
                ratio(g("mac.data_sent"), g("mac.unicast_delivered"))
            }
            "mac80211.rts_per_data" => ratio(g("mac.rts_sent"), g("mac.data_sent")),
            "mac80211.drop_probability" => {
                ratio(g("mac.contention_drops"), g("mac.unicast_accepted"))
            }
            "mac80211.dcf_op_ns" => d.dcf_op,
            "mac80211.dcf_est_share" => dcf_est,
            "aodv.discoveries" => g("aodv.rreqs_originated"),
            "aodv.rreq_per_discovery" => {
                ratio(g("aodv.rreqs_forwarded"), g("aodv.rreqs_originated"))
            }
            "aodv.suppressed_share" => ratio(g("aodv.suppressed"), rreq_relayed),
            "aodv.false_route_failures_per_kpkt" => {
                ratio(g("aodv.false_route_failures") * 1e3, delivered)
            }
            "aodv.router_send_ns" => d.router_send,
            "aodv.rreq_handle_ns" => d.rreq_handle,
            "aodv.est_share" => aodv_est,
            "tcp.retx_per_pkt" => ratio(g("tcp.retx"), g("tcp.delivered")),
            "tcp.acks_per_pkt" => ratio(g("tr.tcp_acks"), g("tcp.delivered")),
            "tcp.timeouts" => g("tcp.timeouts"),
            "tcp.on_ack_ns" => d.tcp_on_ack,
            "tcp.sink_on_data_ns" => d.tcp_sink_on_data,
            "tcp.est_share" => tcp_est,
            "traffic.flows_spawned" => g("traffic.spawned"),
            "traffic.flows_completed" => g("traffic.completed"),
            "traffic.fct_p50_s" => g("traffic.fct_p50_s"),
            "traffic.fct_p99_s" => g("traffic.fct_p99_s"),
            "traffic.draw_ns" => d.traffic_draw,
            "traffic.est_share" => traffic_est,
            "core.setup_topology_s" => med(|r| r.setup_topology_s),
            "core.setup_build_s" => med(|r| r.setup_build_s),
            "core.warmup_s" => med(|r| r.warmup_s),
            "core.steady_s" => med(|r| r.steady_s),
            "core.slice_p50_us_per_pkt" if !slices.is_empty() => median(&slices),
            "core.slice_p90_us_per_pkt" if !slices.is_empty() => percentile(&slices, 0.9),
            "core.slice_p50_us_per_pkt" | "core.slice_p90_us_per_pkt" => 0.0,
            "core.mobility_tick_s" => g("t.medium_tick"),
            "core.bytes_per_node" => g("bytes_per_node"),
            "core.goodput_kbps" => ratio(
                last.steady_pkts as f64 * BITS_PER_PACKET / 1e3,
                last.steady_sim_s,
            ),
            "core.sim_s_per_wall_s" => med(|r| r.steady_sim_s / r.steady_s),
            "core.residual_share" => residual,
            "obs.overhead_pct" => median(&overheads),
            "obs.drops_per_kpkt" => ratio(g("drops") * 1e3, delivered),
            "obs.conservation_balanced" => g("conservation_balanced"),
            "runner.jobs_per_sec" => ratio(job_walls.len() as f64, sweep_wall),
            "runner.worker_busy_share" => ratio(
                job_walls.iter().sum(),
                workloads::SWEEP_WORKERS as f64 * sweep_wall,
            ),
            "runner.longest_job_share" => {
                ratio(job_walls.iter().copied().fold(0.0, f64::max), sweep_wall)
            }
            "runner.store_append_us" => d.store_append_us,
            "runner.compact_s" => g("t.compact"),
            "runner.report_load_s" => g("t.report_load"),
            "runner.rows_failed" => g("rows_failed"),
            "check.golden_ok" => golden_ok,
            "check.fast_suite_s" => fast_suite_s,
            other => unreachable!("metric {other} is declared in spec.rs but not computed"),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|l| Metric {
            name: l.name,
            unit: l.unit,
            value: value(l.name),
            samples: match l.name {
                "obs.overhead_pct" => overheads.clone(),
                _ => Vec::new(),
            },
        })
        .collect();

    let trace_file = args
        .results
        .join(format!("trace-{}.jsonl", args.workload.name()));
    if let Err(e) = t.write_jsonl(&trace_file) {
        problems.push(format!("writing {}: {e}", trace_file.display()));
    }
    print_self_times(&t);

    RunOutput {
        workload: args.workload,
        seed: args.seed,
        traced: true,
        rounds: all.len(),
        fingerprint: untraced[0].fingerprint,
        attempted,
        failed: failed.min(attempted.max(1)),
        problems,
        metrics,
        load_start,
        load_end: host::load_1min(),
    }
}

/// Span self times (duration minus direct children), summed by name, for
/// the last traced round and the drivers.
fn print_self_times(t: &Tracer) {
    let Some(last_run) = t.spans().iter().map(|s| s.run).max() else {
        return;
    };
    let mut by_name: Vec<(&'static str, f64, usize)> = Vec::new();
    for s in t.spans().iter().filter(|s| s.run == last_run) {
        let self_secs = t.self_secs(s.id);
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(entry) => {
                entry.1 += self_secs;
                entry.2 += 1;
            }
            None => by_name.push((s.name, self_secs, 1)),
        }
    }
    println!("span self times (traced round {last_run} and drivers):");
    for (name, secs, n) in by_name {
        println!("  {name:<24} {secs:>10.6} s  ×{n}");
    }
}
