//! `mwn report` — analytics over a sweep's JSONL results store: filter
//! rows, aggregate replications per cell (drop ledgers summed, goodput
//! and FCT percentiles averaged), and render aligned tables or CSV.
//! `--curve` extracts the FCT-vs-offered-load relation from a
//! `--suite load` sweep; `--diff` compares two stores cell by cell.

use std::path::Path;

use mwn_runner::query::{aggregate, GroupSummary, RowFilter, StoreView};
use mwn_runner::store::journal_path;

use crate::{args, Failure};

pub fn command(rest: &[String]) -> Result<(), Failure> {
    let mut argv: Vec<String> = rest.to_vec();
    let store = args::take_value(&mut argv, "--store")?.unwrap_or_else(|| "results.jsonl".into());
    let filter = RowFilter {
        scenario: args::take_value(&mut argv, "--scenario")?,
        variant: args::take_value(&mut argv, "--variant")?,
        seed: match args::take_value(&mut argv, "--seed")? {
            Some(v) => Some(args::parse(&v, "seed")?),
            None => None,
        },
    };
    let csv = args::take_flag(&mut argv, "--csv");
    let curve = args::take_flag(&mut argv, "--curve");
    let diff = args::take_value(&mut argv, "--diff")?;
    args::reject_leftovers(&argv)?;

    let view = load(&store).map_err(Failure::Run)?;
    let rows = view.select(&filter);
    if rows.is_empty() {
        return Err(Failure::Run(format!(
            "no completed rows in {store:?} match the filter (store has {} row(s))",
            view.rows.len()
        )));
    }
    let failed = view.rows.iter().filter(|r| r.status == "failed").count();
    eprintln!(
        "{store}: {} completed row(s) selected of {} ({failed} failed)",
        rows.len(),
        view.rows.len(),
    );
    let groups = aggregate(&rows);

    if let Some(other_path) = diff {
        let other_view = load(&other_path).map_err(Failure::Run)?;
        let other_rows = other_view.select(&filter);
        let other_groups = aggregate(&other_rows);
        print_diff(&groups, &other_groups, &store, &other_path, csv);
        return Ok(());
    }
    if curve {
        print_curve(&groups, csv);
        return Ok(());
    }
    if csv {
        print_csv(&groups);
    } else {
        print_tables(&groups);
    }
    Ok(())
}

fn load(path: &str) -> Result<StoreView, String> {
    // `StoreView::load` reads a missing file as an empty store; a sweep
    // still running (or interrupted) has only its journal.
    if let Err(e) = std::fs::File::open(path) {
        if !journal_path(Path::new(path)).exists() {
            return Err(format!("cannot open {path:?}: {e}"));
        }
    }
    let view = StoreView::load(Path::new(path))?;
    if view.rows.is_empty() {
        return Err(format!(
            "{path:?} has no result rows (run `mwn sweep --out {path}` first)"
        ));
    }
    Ok(view)
}

fn fmt_opt(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) => format!("{x:.digits$}"),
        None => "-".into(),
    }
}

/// The summary + drop-ledger + FCT tables (the default output).
fn print_tables(groups: &[GroupSummary]) {
    println!(
        "{:<28} {:<16} {:>5} {:>4} {:>12} {:>9} {:>9}",
        "scenario", "variant", "load", "reps", "goodput_kbps", "drops", "terminal"
    );
    for g in groups {
        println!(
            "{:<28} {:<16} {:>5} {:>4} {:>12} {:>9} {:>9}",
            g.scenario,
            g.variant,
            fmt_opt(g.load, 2),
            g.reps,
            fmt_opt(g.goodput_kbps, 1),
            g.drop_total,
            g.drop_terminal
        );
    }

    let with_drops: Vec<&GroupSummary> = groups
        .iter()
        .filter(|g| !g.drop_reasons.is_empty())
        .collect();
    if !with_drops.is_empty() {
        println!();
        println!("drop ledger by reason (summed over replications)");
        for g in with_drops {
            println!("  {} | {}", g.scenario, g.variant);
            // One column per ledger class that dropped anything, plus a
            // total; reasons down the side.
            let classes = &g.drop_classes;
            if !classes.is_empty() {
                print!("    {:<22}", "reason");
                for (name, _) in classes {
                    print!(" {name:>12}");
                }
                println!(" {:>12}", "total");
            }
            for (reason, n) in &g.drop_reasons {
                print!("    {reason:<22}");
                for (_, counts) in classes {
                    print!(" {:>12}", counts.get(reason).copied().unwrap_or(0));
                }
                println!(" {n:>12}");
            }
        }
    }

    let with_fct: Vec<&GroupSummary> = groups.iter().filter(|g| !g.fct.is_empty()).collect();
    if !with_fct.is_empty() {
        println!();
        println!("flow completion times (percentiles averaged over replications)");
        println!(
            "  {:<28} {:<16} {:<8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "scenario", "variant", "class", "arrivals", "done", "p50_s", "p95_s", "p99_s"
        );
        for g in with_fct {
            for c in &g.fct {
                println!(
                    "  {:<28} {:<16} {:<8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    g.scenario,
                    g.variant,
                    c.class,
                    c.arrivals,
                    c.completions,
                    fmt_opt(c.fct_p50_secs, 3),
                    fmt_opt(c.fct_p95_secs, 3),
                    fmt_opt(c.fct_p99_secs, 3)
                );
            }
        }
    }
}

/// Flat CSV: one line per (cell, class); closed-loop cells emit one
/// line with an empty class column.
fn print_csv(groups: &[GroupSummary]) {
    println!(
        "scenario,variant,load,reps,goodput_kbps,drops_total,drops_terminal,class,arrivals,completions,fct_p50_secs,fct_p95_secs,fct_p99_secs"
    );
    let csv_opt = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
    for g in groups {
        let head = format!(
            "{},{},{},{},{},{},{}",
            g.scenario,
            g.variant,
            csv_opt(g.load),
            g.reps,
            csv_opt(g.goodput_kbps),
            g.drop_total,
            g.drop_terminal
        );
        if g.fct.is_empty() {
            println!("{head},,,,,,");
        } else {
            for c in &g.fct {
                println!(
                    "{head},{},{},{},{},{},{}",
                    c.class,
                    c.arrivals,
                    c.completions,
                    csv_opt(c.fct_p50_secs),
                    csv_opt(c.fct_p95_secs),
                    csv_opt(c.fct_p99_secs)
                );
            }
        }
    }
}

/// FCT vs offered load, the curve `TrafficModel::with_load` exists
/// for: traffic cells sorted by (variant, load), overall completion
/// percentiles per point.
fn print_curve(groups: &[GroupSummary], csv: bool) {
    let mut points: Vec<&GroupSummary> = groups.iter().filter(|g| g.load.is_some()).collect();
    if points.is_empty() {
        eprintln!("no traffic cells selected; --curve needs a `--suite load` (or traffic) sweep");
        return;
    }
    points.sort_by(|a, b| {
        (a.variant.as_str(), a.load)
            .partial_cmp(&(b.variant.as_str(), b.load))
            .expect("loads are finite")
    });
    if csv {
        println!("variant,load,reps,arrivals,completions,fct_p50_secs,fct_p95_secs,fct_p99_secs,goodput_kbps");
    } else {
        println!(
            "FCT vs offered load (per-class percentiles averaged over classes and replications)"
        );
        println!(
            "{:<16} {:>5} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
            "variant",
            "load",
            "reps",
            "arrivals",
            "done",
            "p50_s",
            "p95_s",
            "p99_s",
            "goodput_kbps"
        );
    }
    for g in points {
        // Weight class percentiles by completions when collapsing to one
        // per-point number.
        let mut arrivals = 0;
        let mut done = 0;
        let mut acc = [(0.0f64, 0u64); 3];
        for c in &g.fct {
            arrivals += c.arrivals;
            done += c.completions;
            for (slot, v) in [c.fct_p50_secs, c.fct_p95_secs, c.fct_p99_secs]
                .into_iter()
                .enumerate()
            {
                if let Some(x) = v {
                    acc[slot].0 += x * c.completions as f64;
                    acc[slot].1 += c.completions;
                }
            }
        }
        let pooled = |slot: usize| {
            let (sum, n) = acc[slot];
            (n > 0).then(|| sum / n as f64)
        };
        let load = g.load.expect("filtered to traffic cells");
        if csv {
            let csv_opt = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
            println!(
                "{},{load},{},{arrivals},{done},{},{},{},{}",
                g.variant,
                g.reps,
                csv_opt(pooled(0)),
                csv_opt(pooled(1)),
                csv_opt(pooled(2)),
                csv_opt(g.goodput_kbps)
            );
        } else {
            println!(
                "{:<16} {:>5.2} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
                g.variant,
                load,
                g.reps,
                arrivals,
                done,
                fmt_opt(pooled(0), 3),
                fmt_opt(pooled(1), 3),
                fmt_opt(pooled(2), 3),
                fmt_opt(g.goodput_kbps, 1)
            );
        }
    }
}

/// Cell-by-cell A/B comparison of two stores.
fn print_diff(a: &[GroupSummary], b: &[GroupSummary], a_path: &str, b_path: &str, csv: bool) {
    if csv {
        println!("cell,goodput_a_kbps,goodput_b_kbps,goodput_delta_pct,drops_a,drops_b");
    } else {
        println!("A = {a_path}");
        println!("B = {b_path}");
        println!(
            "{:<52} {:>12} {:>12} {:>8} {:>9} {:>9}",
            "cell", "goodput_A", "goodput_B", "Δ%", "drops_A", "drops_B"
        );
    }
    let mut b_seen = vec![false; b.len()];
    for ga in a {
        let gb = b.iter().position(|g| g.cell == ga.cell);
        if let Some(i) = gb {
            b_seen[i] = true;
        }
        let gb = gb.map(|i| &b[i]);
        let (gp_a, gp_b) = (ga.goodput_kbps, gb.and_then(|g| g.goodput_kbps));
        let delta = match (gp_a, gp_b) {
            (Some(x), Some(y)) if x.abs() > f64::EPSILON => Some(100.0 * (y - x) / x),
            _ => None,
        };
        let drops_b = gb
            .map(|g| g.drop_total.to_string())
            .unwrap_or_else(|| "-".into());
        if csv {
            let csv_opt = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
            println!(
                "{},{},{},{},{},{}",
                ga.cell,
                csv_opt(gp_a),
                csv_opt(gp_b),
                csv_opt(delta),
                ga.drop_total,
                gb.map(|g| g.drop_total.to_string()).unwrap_or_default()
            );
        } else {
            println!(
                "{:<52} {:>12} {:>12} {:>8} {:>9} {:>9}",
                ga.cell,
                fmt_opt(gp_a, 1),
                fmt_opt(gp_b, 1),
                fmt_opt(delta, 1),
                ga.drop_total,
                drops_b
            );
        }
    }
    let only_b = b.iter().zip(&b_seen).filter(|(_, seen)| !**seen).count();
    if only_b > 0 {
        eprintln!("({only_b} cell(s) present only in B)");
    }
}
