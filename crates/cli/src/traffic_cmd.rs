//! `mwn traffic` — drive an open-loop workload over a random topology
//! and print each replication's digests and run report (per-class
//! flow-completion-time percentiles among it), as text or JSON Lines.

use mwn::{MetricsReport, Scenario, SimDuration, SimTime, StepOutcome, TrafficModel, Transport};
use mwn_obs::json::Obj;
use mwn_runner::pool;

use crate::args::{reject_leftovers, take_count, take_flag, take_link, take_parsed, take_value};
use crate::Failure;

/// One replication's result.
struct RepResult {
    outcome: StepOutcome,
    journal: (u64, u64),
    arrivals: (u64, u64),
    report: MetricsReport,
}

pub fn command(argv: &[String]) -> Result<(), Failure> {
    let mut argv = argv.to_vec();
    let nodes: usize = take_parsed(&mut argv, "--nodes", "node count", 20)?;
    let flows: u64 = take_parsed(&mut argv, "--flows", "flow count", 2_000)?;
    let profile = take_value(&mut argv, "--profile")?.unwrap_or_else(|| "web".to_string());
    let load: f64 = take_parsed(&mut argv, "--load", "load factor", 1.0)?;
    let (rate, transport) = take_link(&mut argv, "11", "newreno")?;
    let seed: u64 = take_parsed(&mut argv, "--seed", "seed", 1)?;
    let reps = take_count(&mut argv, "--reps", "replication count")?;
    let jobs: usize = take_parsed(&mut argv, "--jobs", "job count", 0)?;
    let deadline_secs: u64 = take_parsed(
        &mut argv,
        "--deadline",
        "deadline (simulated seconds)",
        1_000_000,
    )?;
    let json = take_flag(&mut argv, "--json");
    reject_leftovers(&argv)?;

    if !(load > 0.0 && load.is_finite()) {
        return Err("--load must be a positive finite factor".into());
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
        return Err("open-loop traffic needs a TCP transport (not udp)".into());
    }
    if nodes < 2 {
        return Err("traffic needs at least two nodes".into());
    }
    // The deadline becomes a u64 count of nanoseconds.
    let max_deadline = u64::MAX / 1_000_000_000;
    if deadline_secs > max_deadline {
        return Err(format!("--deadline must be at most {max_deadline} simulated seconds").into());
    }

    // Replications (seeds `seed..seed+reps`) run on a worker pool and
    // print in seed order.
    let seeds: Vec<u64> = (0..reps).map(|i| seed + i).collect();
    let workers = mwn_runner::worker_count(jobs);
    let deadline = SimTime::ZERO + SimDuration::from_secs(deadline_secs);
    let results = pool::parallel_map(seeds.clone(), workers, |&rep_seed| {
        let scenario = Scenario::open_loop(nodes, model.clone(), transport, rate, rep_seed);
        let mut net = scenario.build();
        RepResult {
            outcome: net.run_until_traffic_done(deadline),
            journal: net.traffic_digest().expect("traffic digest"),
            arrivals: net.traffic_arrival_digest().expect("arrival digest"),
            report: net.report(),
        }
    });

    let mut failures = 0usize;
    for (seed, result) in seeds.into_iter().zip(results) {
        let r = match result {
            Ok(r) => r,
            Err(msg) => {
                failures += 1;
                eprintln!("FAIL seed={seed}: {msg}");
                continue;
            }
        };
        let journal = format!("{}:{:016x}", r.journal.0, r.journal.1);
        let arrivals = format!("{}:{:016x}", r.arrivals.0, r.arrivals.1);
        if json {
            let line = Obj::new()
                .u64("seed", seed)
                .str("journal", &journal)
                .str("arrivals", &arrivals)
                .str("outcome", &format!("{:?}", r.outcome))
                .raw("report", &r.report.to_json());
            println!("{}", line.finish());
        } else {
            println!("rep seed={seed} journal={journal} arrivals={arrivals}");
            print!("{}", r.report.text(None, 0, None));
        }
        if r.outcome != StepOutcome::TargetReached {
            failures += 1;
            // Every open-loop flow is TCP; a vacated slot has no sender.
            let live = r.report.totals.flows.iter().filter(|f| f.sender.is_some());
            eprintln!(
                "FAIL seed={seed}: {:?} at t={:.1}s with {} flows still live",
                r.outcome,
                r.report.totals.time.as_secs_f64(),
                live.count()
            );
        }
    }
    if failures > 0 {
        Err(Failure::Run(format!(
            "{failures} replication(s) did not complete"
        )))
    } else {
        Ok(())
    }
}
