//! `mwn stats` — run one scenario with the observability layer on and
//! print the unified metrics: per-layer counters, per-batch dropping
//! probability (paper Fig. 14), a cwnd-vs-time series (Figs. 3–4) and the
//! engine's self-profile.

use std::time::Instant;

use mwn::experiment::{run_instrumented, ObsConfig};
use mwn::{ProbeKind, ProbeSample, Scenario};
use mwn_obs::{CounterBlock, DropReason};

use crate::args;
use crate::bench_cmd::{waypoints, WaveRatios};

/// Probe samples retained for the time-series section.
const PROBE_CAPACITY: usize = 1 << 18;

pub fn command(rest: &[String]) -> Result<(), String> {
    let mut argv: Vec<String> = rest.to_vec();
    let a = args::take_scenario(&mut argv, 6, "newreno")?;
    let series: usize = match args::take_value(&mut argv, "--series")? {
        Some(v) => args::parse(&v, "series length")?,
        None => 24,
    };
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

    println!("engine profile");
    println!("  events processed {:>12}", m.profile.events_processed());
    println!(
        "  events/sec       {:>12.0}  (wall {:.2} s)",
        m.profile.events_per_sec(wall_secs),
        wall_secs
    );
    println!("  peak event queue {:>12}", m.profile.peak_queue_depth());
    for (kind, count) in m.profile.by_kind() {
        println!("    {kind:<18} {count:>10}");
    }
    // signal_start / signal_end above count wave segments (queue pops);
    // the receivers they reached are the edges here.
    let delivered: u64 = m
        .totals
        .flows
        .iter()
        .filter_map(|f| f.sink.as_ref())
        .map(|s| s.delivered)
        .sum();
    let waves = WaveRatios::new(&m.profile, delivered);
    println!("  signal edges     {:>12}", m.profile.signal_edges());
    println!(
        "  wave yields      {:>12}  ({:.0}% of wave segments)",
        m.profile.wave_yields(),
        100.0 * waves.yield_share
    );
    println!("  receptions/tx    {:>12.1}", waves.rx_per_tx);
    if delivered > 0 {
        println!("  events/packet    {:>12.1}", waves.events_per_pkt);
    }
    // What bystanders did not cost: NAV timers that never entered the
    // queue, and radio-event batches the MAC had no answer to.
    let p = &m.profile;
    let nav_sets = p.nav_parked + p.nav_armed;
    println!(
        "  nav parked       {:>12}  ({:.0}% of {nav_sets} NAV sets; {} materialised)",
        p.nav_parked,
        100.0 * p.nav_parked as f64 / nav_sets.max(1) as f64,
        p.nav_materialised
    );
    println!("  quiet mac batches{:>12}", p.mac_batches_without_actions);
    // The lazy medium: a list is built when its node first transmits,
    // and every sort puts a list a build or rebuild left behind into
    // arrival order.
    println!(
        "  lists built      {:>12}  of {} nodes",
        m.medium.builds,
        scenario.topology.len()
    );
    println!(
        "  medium sorts     {:>12}  (= {} builds + {} rebuilds)",
        m.medium.sorts, m.medium.builds, m.medium.rebuilds
    );
    for (kind, invocations, secs) in m.profile.timed() {
        println!(
            "  {kind:<18} {invocations:>10} calls  {secs:>8.3} s  ({:.0}% of wall)",
            100.0 * secs / wall_secs.max(f64::MIN_POSITIVE)
        );
    }

    let totals = m.totals.node_totals();
    println!();
    println!("per-layer counter totals (all nodes, whole run)");
    print_block("phy", &totals.phy);
    print_block("mac", &totals.mac);
    print_block("aodv", &totals.aodv);
    println!(
        "  gauges: route_table_size {} ifq_depth {}",
        totals.route_table_size, totals.ifq_depth
    );

    println!();
    println!("transport counter totals (per flow)");
    for (i, f) in m.totals.flows.iter().enumerate() {
        if let Some(tx) = &f.sender {
            print_block(&format!("f{i} tx"), tx);
        }
        if let Some(rx) = &f.sink {
            print_block(&format!("f{i} rx"), rx);
        }
    }

    if let Some(ledger) = &m.drops {
        println!();
        println!(
            "drop ledger — {} dropped, {} terminal (* = takes custody)",
            ledger.grand_total(),
            ledger.terminal_total()
        );
        if ledger.is_empty() {
            println!("  (no drops recorded)");
        } else {
            let classes = ledger.class_names();
            print!("  {:<26}", "layer / reason");
            for name in classes {
                print!(" {name:>12}");
            }
            println!(" {:>12}", "total");
            let totals = ledger.totals();
            let mut last_layer = "";
            for reason in DropReason::ALL {
                if totals[reason.index()] == 0 {
                    continue;
                }
                if reason.layer() != last_layer {
                    last_layer = reason.layer();
                    println!("  {last_layer}");
                }
                let mark = if reason.is_terminal() { "*" } else { "" };
                print!("    {:<24}", format!("{}{mark}", reason.label()));
                for c in 0..classes.len() {
                    print!(" {:>12}", ledger.class_counts(c)[reason.index()]);
                }
                println!(" {:>12}", totals[reason.index()]);
            }
        }
    }
    if let Some(cons) = &r.conservation {
        println!();
        println!("conservation audit: {cons}");
    }

    println!();
    println!("link-layer dropping probability per batch (Fig. 14)");
    for (i, b) in m.batches.iter().enumerate() {
        let tag = if i == 0 { " (transient)" } else { "" };
        println!(
            "  batch {i:<2} [{:>8.1}..{:>8.1} s]  {:.4}{tag}",
            b.start.as_secs_f64(),
            b.end.as_secs_f64(),
            b.drop_probability()
        );
    }
    println!(
        "  steady-state mean (batch-means over measured batches): {:.4}",
        r.drop_probability.mean
    );

    let cwnd: Vec<&ProbeSample> = m
        .probes
        .iter()
        .filter(|p| p.kind == ProbeKind::Cwnd && p.id == 0)
        .collect();
    println!();
    println!(
        "cwnd vs time, flow 0 (Figs. 3-4) — {} change points, showing {}",
        cwnd.len(),
        series.min(cwnd.len())
    );
    println!("  {:>10}  {:>7}", "t (s)", "cwnd");
    for s in downsample(&cwnd, series) {
        println!("  {:>10.3}  {:>7.2}", s.time.as_secs_f64(), s.value);
    }
    Ok(())
}

fn print_block<B: CounterBlock>(label: &str, block: &B) {
    print!("  {label:<6}");
    for (name, v) in B::field_names().iter().zip(block.values()) {
        print!(" {name} {v}");
    }
    println!();
}

/// Evenly thins `samples` down to at most `limit` entries, always keeping
/// the first and last so the series' extent is visible.
fn downsample<'a>(samples: &[&'a ProbeSample], limit: usize) -> Vec<&'a ProbeSample> {
    if limit == 0 || samples.is_empty() {
        return Vec::new();
    }
    if samples.len() <= limit {
        return samples.to_vec();
    }
    let last = samples.len() - 1;
    let picks = limit.max(2);
    (0..picks)
        .map(|i| samples[i * last / (picks - 1)])
        .collect()
}
