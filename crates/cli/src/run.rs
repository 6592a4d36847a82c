//! `mwn run` — one scenario, full measures.

use mwn::experiment;

use crate::args;

pub fn command(rest: &[String]) -> Result<(), String> {
    let mut argv: Vec<String> = rest.to_vec();
    let a = args::take_scenario(&mut argv, 7, "vegas")?;
    args::reject_leftovers(&argv)?;
    let scenario = a
        .preset()
        .ok_or_else(|| format!("unknown topology {:?} (chain|grid|random)", a.topology))?;
    a.announce(&scenario);

    let r = experiment::run(&scenario, a.scale);
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
