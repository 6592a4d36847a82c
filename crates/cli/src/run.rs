//! `mwn run` — one scenario, full measures.

use mwn::{experiment, ExperimentScale, Scenario};

use crate::args;

pub fn command(rest: &[String]) -> Result<(), String> {
    let mut argv: Vec<String> = rest.to_vec();
    let topology = args::take_value(&mut argv, "--topology")?.unwrap_or_else(|| "chain".into());
    let hops: usize = match args::take_value(&mut argv, "--hops")? {
        Some(v) => args::parse(&v, "hop count")?,
        None => 7,
    };
    let mbits = args::take_value(&mut argv, "--mbits")?.unwrap_or_else(|| "2".into());
    let variant = args::take_value(&mut argv, "--variant")?.unwrap_or_else(|| "vegas".into());
    let seed: u64 = match args::take_value(&mut argv, "--seed")? {
        Some(v) => args::parse(&v, "seed")?,
        None => 42,
    };
    let mult = args::take_scale(&mut argv)?;
    args::reject_leftovers(&argv)?;

    let bandwidth = args::parse_rate(&mbits)?;
    let transport = args::parse_transport(&variant)?;
    if hops == 0 {
        return Err("--hops must be positive".into());
    }

    let scenario = match topology.as_str() {
        "chain" => Scenario::chain(hops, bandwidth, transport, seed),
        "grid" => Scenario::grid6(bandwidth, transport, seed),
        "random" => Scenario::random10(bandwidth, transport, seed),
        other => return Err(format!("unknown topology {other:?} (chain|grid|random)")),
    };

    let scale = ExperimentScale::scaled(mult);

    eprintln!(
        "{} | {} nodes, {} flow(s), {bandwidth}, seed {seed}, {} batches x {} packets",
        scenario.flows[0].transport.label(),
        scenario.topology.len(),
        scenario.flows.len(),
        scale.batches,
        scale.batch_packets,
    );

    let r = experiment::run(&scenario, scale);
    println!(
        "aggregate goodput      {:>10.1} kbit/s (±{:.1})",
        r.aggregate_goodput_kbps.mean, r.aggregate_goodput_kbps.half_width
    );
    println!("fairness (Jain)        {:>10.3}", r.fairness.mean);
    println!("link-layer drop prob   {:>10.4}", r.drop_probability.mean);
    println!("false route failures   {:>10}", r.false_route_failures);
    println!("energy per packet      {:>10.3} J", r.energy_per_packet);
    println!(
        "simulated time         {:>10.1} s",
        r.measured_time.as_secs_f64()
    );
    println!("outcome                {:>10?}", r.outcome);
    println!();
    println!(
        "{:<6} {:>12} {:>12} {:>10}",
        "flow", "goodput", "retx/pkt", "window"
    );
    for f in &r.per_flow {
        println!(
            "{:<6} {:>8.1} kb/s {:>12.4} {:>10.2}",
            format!("{}", f.flow),
            f.goodput_kbps.mean,
            f.retx_per_packet.mean,
            f.avg_window.mean
        );
    }
    Ok(())
}
