//! `mwn traffic` — drive an open-loop workload over a random topology
//! and report per-class flow-completion-time percentiles.

use mwn::{Scenario, SimDuration, SimTime, StepOutcome, TrafficModel, Transport};
use mwn_obs::json::Obj;
use mwn_obs::CounterBlock;
use mwn_runner::pool;

use crate::args::{parse, reject_leftovers, take_flag, take_link, take_value};

/// One replication's result.
struct RepResult {
    outcome: StepOutcome,
    end: SimTime,
    live_at_end: usize,
    journal: (u64, u64),
    arrivals: (u64, u64),
    /// Pre-rendered per-class report (text or JSON).
    report: String,
}

pub fn command(argv: &[String]) -> Result<(), String> {
    let mut argv = argv.to_vec();
    let nodes: usize = match take_value(&mut argv, "--nodes")? {
        Some(v) => parse(&v, "node count")?,
        None => 20,
    };
    let flows: u64 = match take_value(&mut argv, "--flows")? {
        Some(v) => parse(&v, "flow count")?,
        None => 2_000,
    };
    let profile = take_value(&mut argv, "--profile")?.unwrap_or_else(|| "web".to_string());
    let load: f64 = match take_value(&mut argv, "--load")? {
        Some(v) => parse(&v, "load factor")?,
        None => 1.0,
    };
    let (rate, transport) = take_link(&mut argv, "11", "newreno")?;
    let seed: u64 = match take_value(&mut argv, "--seed")? {
        Some(v) => parse(&v, "seed")?,
        None => 1,
    };
    let reps: u64 = match take_value(&mut argv, "--reps")? {
        Some(v) => parse::<u64>(&v, "replication count")?.max(1),
        None => 1,
    };
    let jobs: usize = match take_value(&mut argv, "--jobs")? {
        Some(v) => parse(&v, "job count")?,
        None => 0,
    };
    let deadline_secs: u64 = match take_value(&mut argv, "--deadline")? {
        Some(v) => parse(&v, "deadline (simulated seconds)")?,
        None => 1_000_000,
    };
    let json = take_flag(&mut argv, "--json");
    reject_leftovers(&argv)?;

    if !(load > 0.0 && load.is_finite()) {
        return Err("--load must be a positive finite factor".to_string());
    }
    let model = TrafficModel::profile(&profile, flows)
        .ok_or_else(|| {
            format!(
                "unknown profile {profile:?} (use {})",
                TrafficModel::PROFILES.join(", ")
            )
        })?
        .with_load(load);
    model
        .validate()
        .map_err(|e| format!("invalid traffic model: {e}"))?;
    if !matches!(transport, Transport::Tcp { .. }) {
        return Err("open-loop traffic needs a TCP transport (not udp)".to_string());
    }
    if nodes < 2 {
        return Err("traffic needs at least two nodes".to_string());
    }
    // The deadline becomes a u64 count of nanoseconds.
    let max_deadline = u64::MAX / 1_000_000_000;
    if deadline_secs > max_deadline {
        return Err(format!(
            "--deadline must be at most {max_deadline} simulated seconds"
        ));
    }

    // Replications (seeds `seed..seed+reps`) run on a worker pool and
    // print in seed order.
    let seeds: Vec<u64> = (0..reps).map(|i| seed + i).collect();
    let workers = mwn_runner::worker_count(jobs);
    let results = pool::parallel_map(seeds.clone(), workers, |&rep_seed| {
        run_one(
            nodes,
            model.clone(),
            transport,
            rate,
            rep_seed,
            deadline_secs,
            json,
        )
    });

    let mut failures = 0usize;
    for (seed, result) in seeds.into_iter().zip(results) {
        let r = match result {
            Ok(r) => r,
            Err(msg) => {
                failures += 1;
                println!("FAIL seed={seed}: {msg}");
                continue;
            }
        };
        println!(
            "rep seed={seed} journal={}:{:016x} arrivals={}:{:016x}",
            r.journal.0, r.journal.1, r.arrivals.0, r.arrivals.1
        );
        print!("{}", r.report);
        if r.outcome != StepOutcome::TargetReached {
            failures += 1;
            println!(
                "FAIL seed={seed}: {:?} at t={:.1}s with {} flows still live",
                r.outcome,
                r.end.as_secs_f64(),
                r.live_at_end
            );
        }
    }
    if failures > 0 {
        Err(format!("{failures} replication(s) did not complete"))
    } else {
        Ok(())
    }
}

fn run_one(
    nodes: usize,
    model: TrafficModel,
    transport: Transport,
    rate: mwn_phy::DataRate,
    seed: u64,
    deadline_secs: u64,
    json: bool,
) -> RepResult {
    let scenario = Scenario::open_loop(nodes, model, transport, rate, seed);
    let mut net = scenario.build();
    let deadline = SimTime::ZERO + SimDuration::from_secs(deadline_secs);
    let outcome = net.run_until_traffic_done(deadline);
    let summary = net.traffic_summary().expect("open-loop run has a summary");
    // Completed flows' slots are recycled; their TCP counters live on
    // only in the retired totals.
    let (sender, sink) = net.retired_tcp_stats().expect("open-loop run");
    let report = if json {
        let retired = Obj::new()
            .raw("sender", &sender.to_json())
            .raw("sink", &sink.to_json());
        format!(
            "{}\n{}\n",
            summary.to_json(net.now()),
            Obj::new().raw("retired_tcp", &retired.finish()).finish()
        )
    } else {
        let mut out = String::new();
        out.push_str(
            "  class        arrivals  completions  fct_p50_s  fct_p95_s  fct_p99_s  gput_p50_kbps\n",
        );
        for c in summary.classes() {
            let q = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.4}"));
            out.push_str(&format!(
                "  {:<12} {:>8}  {:>11}  {:>9}  {:>9}  {:>9}  {:>13}\n",
                c.name(),
                c.arrivals(),
                c.completions(),
                q(c.fct().p50()),
                q(c.fct().p95()),
                q(c.fct().p99()),
                c.goodput()
                    .p50()
                    .map_or("-".to_string(), |x| format!("{x:.1}")),
            ));
        }
        out.push_str(&format!(
            "  tcp, completed flows: {} data sent  {} retransmitted  {} timeouts  \
             {} fast retransmits  {} acks sent\n",
            sender.data_packets_sent,
            sender.retransmissions,
            sender.timeouts,
            sender.fast_retransmits,
            sink.acks_sent
        ));
        out
    };
    RepResult {
        outcome,
        end: net.now(),
        live_at_end: net.live_flow_count(),
        journal: net.traffic_digest().expect("traffic digest"),
        arrivals: net.traffic_arrival_digest().expect("arrival digest"),
        report,
    }
}
