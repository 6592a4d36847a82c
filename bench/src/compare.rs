//! `mwn-benchmark compare A.json B.json`: A is the base (the parent
//! commit's set), B the change's. Verdicts follow the `choosing-metrics`
//! guide §6.5: a metric whose run-to-run spread is wider than its bound,
//! with overlapping runs, is *unresolved* — neither a pass nor a
//! regression.

use mwn_runner::query::Json;

use crate::set::SCHEMA;
use crate::spec::{Source, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// The verdict for one lower-is-better metric on one workload.
pub fn verdict(base: &[f64], change: &[f64], bound: f64) -> Verdict {
    let spread = iqr_share(base).max(iqr_share(change));
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap = !(max(change) < min(base) || min(change) > max(base));
    if spread > bound && overlap {
        Verdict::Unresolved
    } else if median(change) > median(base) * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    match json.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => Ok(json),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

fn workloads(set: &Json) -> &[Json] {
    set.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn samples(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .path(&["end_to_end", metric, "samples"])
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn failure_share(workload: &Json) -> f64 {
    let get = |k: &str| workload.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    get("ops_failed") / get("ops_attempted").max(1.0)
}

/// Prints the comparison; `Err` when B regressed on any metric or failed
/// a larger share of its operations.
pub fn run(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let label = |s: &Json| {
        s.get("label")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "base A = {} ({a_path})   change B = {} ({b_path})",
        label(&a),
        label(&b)
    );
    for (name, set) in [("A", &a), ("B", &b)] {
        if set.path(&["host", "noisy"]) == Some(&Json::Bool(true)) {
            println!("note: set {name} started on a noisy host (1-min load > nproc / 2)");
        }
    }
    let mut regressions = Vec::new();
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("== {name} == only in A");
            continue;
        };
        println!("== {name} ==");
        for e in END_TO_END {
            let (sa, sb) = (samples(wa, e.name), samples(wb, e.name));
            if sa.is_empty() || sb.is_empty() {
                println!("  {:<18} missing in one set", e.name);
                continue;
            }
            let ((a1, a2, a3), (b1, b2, b3)) = (quartiles(&sa), quartiles(&sb));
            let v = verdict(&sa, &sb, e.bound);
            println!(
                "  {:<18} A {:>11.4} [{:.4}, {:.4}] n {}   B {:>11.4} [{:.4}, {:.4}] n {}   B/A {:.4} (base {:.4} {})   bound {:.0}%   {}",
                e.name, a2, a1, a3, sa.len(), b2, b1, b3, sb.len(),
                b2 / a2, a2, e.unit, e.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
            if v == Verdict::Regressed {
                regressions.push(format!("{name}: {} regressed", e.name));
            }
        }
        let fp = |w: &Json| {
            w.get("sim_fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        println!(
            "  sim_fingerprint    A {}  B {}  {}",
            fp(wa),
            fp(wb),
            if fp(wa) == fp(wb) {
                "identical"
            } else {
                "DIFFERENT"
            }
        );
        let exact: Vec<&str> = PER_LAYER
            .iter()
            .filter(|l| matches!(l.source, Source::Count | Source::Sim))
            .map(|l| l.name)
            .collect();
        let value = |w: &Json, n: &str| w.path(&["per_layer", n, "value"]).and_then(Json::as_f64);
        let differing: Vec<&str> = exact
            .iter()
            .copied()
            .filter(|n| value(wa, n) != value(wb, n))
            .collect();
        println!(
            "  count metrics      {} of {} identical{}",
            exact.len() - differing.len(),
            exact.len(),
            if differing.is_empty() {
                String::new()
            } else {
                format!("; differing: {}", differing.join(", "))
            }
        );
        let (fa, fb) = (failure_share(wa), failure_share(wb));
        println!("  ops failed         A {fa:.6}  B {fb:.6} of attempted");
        if fb > fa {
            regressions.push(format!("{name}: B failed a larger share of operations"));
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(regressions.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_guide() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound, tight runs.
        assert_eq!(
            verdict(&base, &[103.0, 104.0, 102.0, 103.5, 102.5], 0.05),
            Verdict::Ok
        );
        // Beyond the bound, tight runs.
        assert_eq!(
            verdict(&base, &[110.0, 111.0, 109.0, 110.5, 109.5], 0.05),
            Verdict::Regressed
        );
        // Spread wider than the bound and the runs overlap: unresolved,
        // whichever way the medians point.
        let wide = [90.0, 120.0, 100.0, 80.0, 115.0];
        assert_eq!(verdict(&base, &wide, 0.05), Verdict::Unresolved);
        // Wide, but every run of the change beats every run of the base.
        assert_eq!(
            verdict(&base, &[50.0, 80.0, 60.0, 40.0, 75.0], 0.05),
            Verdict::Ok
        );
    }
}
