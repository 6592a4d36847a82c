//! A *set*: every workload, `--repeats` untraced runs plus one traced
//! run each, every run in a fresh child process (clean `VmHWM`, fresh
//! allocator), strictly one child at a time, repeats interleaved across
//! workloads. The set is what
//! `bench/results/<label>.json` records and what `compare` reads.

use std::path::Path;
use std::process::Command;

use mwn_obs::json::{arr, fmt_f64, Obj};
use mwn_runner::query::Json;

use crate::host;
use crate::jsonx::render;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::workloads::Workload;

pub const SCHEMA: &str = "mwn-benchmark/1";

pub struct SetArgs {
    pub label: String,
    pub seed: u64,
    pub seconds: f64,
    pub repeats: usize,
    pub smoke: bool,
    /// Restrict the set to one workload.
    pub only: Option<Workload>,
    /// Skip the traced run (end-to-end numbers only).
    pub traced: bool,
    pub results: std::path::PathBuf,
}

/// What one child reported.
struct Child {
    detail: Json,
    result: Json,
}

fn spawn(args: &SetArgs, workload: Workload, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--results")
        .arg(&args.results);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives the set.
    let out = cmd
        .output()
        .map_err(|e| format!("starting the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!(
            "{} child printed no result (exit {:?}): {}",
            workload.name(),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    };
    let detail = detail
        .strip_prefix("detail ")
        .ok_or_else(|| format!("{} child: no detail line", workload.name()))?;
    Ok(Child {
        detail: Json::parse(detail)?,
        result: Json::parse(result)?,
    })
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.path(&["metrics", name, "value"])?.as_f64()
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Runs the set, prints its tables, writes `<results>/<label>.json`.
/// `Err` when any output check failed.
pub fn run(args: &SetArgs) -> Result<(), String> {
    std::fs::create_dir_all(&args.results)
        .map_err(|e| format!("creating {}: {e}", args.results.display()))?;
    let load_start = host::load_1min();
    let mut sections = Vec::new();
    let mut problems: Vec<String> = Vec::new();

    // Children run repeat-major — repeat 0 of every workload, then repeat
    // 1 of every workload, … and the traced runs last — so a workload's
    // repeats are spread over the whole set: a few slow minutes of the
    // host then cost every workload one repeat, not one workload all five.
    let workloads: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|w| args.only.is_none_or(|only| only == *w))
        .collect();
    let mut repeats: Vec<Vec<Child>> = workloads.iter().map(|_| Vec::new()).collect();
    for i in 0..args.repeats.max(1) {
        for (workload, runs) in workloads.iter().zip(&mut repeats) {
            let child = spawn(args, *workload, false)?;
            println!(
                "repeat {i} {:<13} {}",
                workload.name(),
                END_TO_END
                    .iter()
                    .map(|e| format!(
                        "{} {:.4} {}",
                        e.name,
                        metric_value(&child.result, e.name).unwrap_or(f64::NAN),
                        e.unit
                    ))
                    .collect::<Vec<_>>()
                    .join("  ")
            );
            runs.push(child);
        }
    }

    for (workload, repeats) in workloads.into_iter().zip(repeats) {
        println!("== {} ==", workload.name());
        let traced = if args.traced {
            Some(spawn(args, workload, true)?)
        } else {
            None
        };

        // ---- verification across repeats --------------------------------
        let first = str_of(&repeats[0].detail, "sim_fingerprint").to_string();
        let all = repeats.iter().chain(traced.iter());
        let differing = all
            .clone()
            .filter(|c| str_of(&c.detail, "sim_fingerprint") != first)
            .count() as u64;
        if differing > 0 {
            problems.push(format!(
                "{}: {differing} runs disagree with repeat 0's sim_fingerprint {first}",
                workload.name()
            ));
        }
        let sum = |key: &str| -> u64 {
            all.clone()
                .map(|c| c.result.get(key).and_then(Json::as_u64).unwrap_or(0))
                .sum()
        };
        let (attempted, failed) = (sum("attempted"), sum("failed") + differing);
        for c in all.clone() {
            if c.result.get("correct") != Some(&Json::Bool(true)) {
                for p in c
                    .detail
                    .get("problems")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                {
                    problems.push(format!(
                        "{}: {}",
                        workload.name(),
                        p.as_str().unwrap_or("?")
                    ));
                }
            }
        }
        if failed > 0 {
            problems.push(format!(
                "{}: {failed} of {attempted} operations failed",
                workload.name()
            ));
        }
        // ---- tables -----------------------------------------------------
        let mut e2e = Obj::new();
        for e in END_TO_END {
            let samples: Vec<f64> = repeats
                .iter()
                .filter_map(|c| metric_value(&c.result, e.name))
                .collect();
            if samples.len() != repeats.len() {
                return Err(format!("{}: a repeat lacks {}", workload.name(), e.name));
            }
            let (q1, q2, q3) = quartiles(&samples);
            println!(
                "  {:<18} median {:>12.4} {:<4} q1 {:>12.4}  q3 {:>12.4}  n {}",
                e.name,
                q2,
                e.unit,
                q1,
                q3,
                samples.len()
            );
            e2e = e2e.raw(
                e.name,
                &Obj::new()
                    .str("unit", e.unit)
                    .f64("bound", e.bound)
                    .f64("median", q2)
                    .f64("q1", q1)
                    .f64("q3", q3)
                    .usize("n", samples.len())
                    .raw("samples", &arr(samples.iter().map(|v| fmt_f64(*v))))
                    .finish(),
            );
        }
        let mut layers = Obj::new();
        if let Some(traced) = &traced {
            for l in PER_LAYER {
                let v = metric_value(&traced.result, l.name)
                    .ok_or_else(|| format!("{}: traced run lacks {}", workload.name(), l.name))?;
                println!("  {:<36} {:>16.6} {}", l.name, v, l.unit);
                layers = layers.raw(
                    l.name,
                    &Obj::new().str("unit", l.unit).f64("value", v).finish(),
                );
            }
        }
        let hosts = arr(all
            .clone()
            .map(|c| c.detail.get("host").map_or("null".to_string(), render)));
        sections.push(
            Obj::new()
                .str("name", workload.name())
                .usize("threads", workload.threads())
                .str("sim_fingerprint", &first)
                .raw(
                    "fingerprints_identical",
                    if differing == 0 { "true" } else { "false" },
                )
                .u64("ops_attempted", attempted)
                .u64("ops_failed", failed)
                .raw("end_to_end", &e2e.finish())
                .raw("per_layer", &layers.finish())
                .raw("runs", &hosts)
                .finish(),
        );
    }

    let file = Obj::new()
        .str("schema", SCHEMA)
        .str("label", &args.label)
        .u64("seed", args.seed)
        .f64("seconds", args.seconds)
        .usize("repeats", args.repeats)
        .raw("smoke", if args.smoke { "true" } else { "false" })
        .raw("host", &host::to_json(load_start, host::load_1min(), 1))
        .raw("workloads", &format!("[\n{}\n]", sections.join(",\n")))
        .finish();
    let path = args.results.join(format!("{}.json", args.label));
    write_file(&path, &file)?;
    println!("wrote {}", path.display());
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, format!("{text}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
