//! `mwn stats` — run one scenario with the observability layer on and
//! print the unified metrics: per-layer counters, per-batch dropping
//! probability (paper Fig. 14), a cwnd-vs-time series (Figs. 3–4) and the
//! engine's self-profile.

use std::time::Instant;

use mwn::experiment::{run_instrumented, ObsConfig};
use mwn::Scenario;

use crate::{args, waypoints};

/// Probe samples retained for the time-series section.
const PROBE_CAPACITY: usize = 1 << 18;

pub fn command(rest: &[String]) -> Result<(), String> {
    let mut argv: Vec<String> = rest.to_vec();
    let a = args::take_scenario(&mut argv, 6, "newreno")?;
    let series: usize = args::take_parsed(&mut argv, "--series", "series length", 24)?;
    args::reject_leftovers(&argv)?;

    let scenario = match a.topology.as_str() {
        // The large presets run under waypoint mobility (like the
        // `random200-mobility` / `random500-mobility` benches), so the
        // profile includes the `medium_tick` timed section (and
        // `medium_lazy` for the transmission-time rebuilds).
        "random200" | "random500" => {
            let nodes = if a.topology == "random200" { 200 } else { 500 };
            let mut s = Scenario::random_large(nodes, a.bandwidth, a.transport, a.seed);
            s.mobility = Some(waypoints(mwn::topology::random_large_dims(nodes)));
            s
        }
        other => a.preset().ok_or_else(|| {
            format!("unknown topology {other:?} (chain|grid|random|random200|random500)")
        })?,
    };
    a.announce(&scenario);

    let wall = Instant::now();
    let r = run_instrumented(&scenario, a.scale, ObsConfig::full(PROBE_CAPACITY));
    let wall_secs = wall.elapsed().as_secs_f64();
    let m = r
        .metrics
        .as_ref()
        .expect("instrumented run reports metrics");
    print!(
        "{}",
        m.text(Some(wall_secs), series, r.conservation.as_ref())
    );
    Ok(())
}
