//! `mwn trace` — annotated event trace of a chain's first packets.

use mwn::{Scenario, SimDuration, SimTime};

use crate::args;

pub fn command(rest: &[String]) -> Result<(), String> {
    let mut argv: Vec<String> = rest.to_vec();
    let hops: usize = args::take_parsed(&mut argv, "--hops", "hop count", 2)?;
    let events: usize = args::take_parsed(&mut argv, "--events", "event count", 60)?;
    let (bandwidth, transport) = args::take_link(&mut argv, "2", "newreno")?;
    let format = args::take_value(&mut argv, "--format")?.unwrap_or_else(|| "text".into());
    args::reject_leftovers(&argv)?;
    if hops == 0 {
        return Err("--hops must be positive".into());
    }
    if !matches!(format.as_str(), "text" | "jsonl") {
        return Err(format!("unknown format {format:?} (use text or jsonl)"));
    }

    let scenario = Scenario::chain(hops, bandwidth, transport, 1);
    let label = scenario.flows[0].transport.label();
    let mut net = scenario.build();
    net.enable_trace(events.max(16));
    net.run_until_delivered(2, SimTime::ZERO + SimDuration::from_secs(30));
    net.run_until(net.now() + SimDuration::from_millis(50));

    if format == "jsonl" {
        for record in net.trace().into_iter().take(events) {
            println!("{}", record.to_jsonl());
        }
    } else {
        println!("{hops}-hop chain, {label}, first two data packets:");
        println!("{:>12}  {:>4} {:>4}  event", "time", "node", "lyr");
        for record in net.trace().into_iter().take(events) {
            println!("{record}");
        }
    }
    Ok(())
}
