//! `mwn-benchmark` — the fixed benchmark of the mwn simulator.
//!
//! ```text
//! mwn-benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload in this process; prints every metric by
//!     name and, as the last line, the result object the driver reads
//! mwn-benchmark run [--label L] [--seed 4242] [--seconds 20] [--repeats 5]
//!                   [--workload W] [--no-trace] [--smoke]
//!     a set: each workload `--repeats` times untraced plus once traced,
//!     every run a fresh child process; writes bench/results/<label>.json
//! mwn-benchmark compare A.json B.json
//!     per workload × end-to-end metric: medians, quartiles, ratio, verdict
//! mwn-benchmark manifest
//!     prints BENCHMARK.json as generated from src/spec.rs
//! mwn-benchmark describe
//!     prints every workload and metric with its rationale and the
//!     written-down prediction of what each layer metric moves
//! ```

mod compare;
mod host;
mod jsonx;
mod layers;
mod run;
mod set;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

/// Removes `--name VALUE` from `argv` and returns the value.
fn take_value(argv: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = argv.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= argv.len() {
        return Err(format!("{name} needs a value"));
    }
    argv.remove(i);
    Ok(Some(argv.remove(i)))
}

fn take_flag(argv: &mut Vec<String>, name: &str) -> bool {
    match argv.iter().position(|a| a == name) {
        Some(i) => {
            argv.remove(i);
            true
        }
        None => false,
    }
}

fn parse<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{what}: cannot parse {value:?}"))
}

fn run_command(mut argv: Vec<String>) -> Result<bool, String> {
    let workload = match take_value(&mut argv, "--workload")? {
        Some(name) => Some(Workload::from_name(&name).ok_or_else(|| {
            format!(
                "unknown workload {name:?}; one of: {}",
                Workload::ALL.map(Workload::name).join(", ")
            )
        })?),
        None => None,
    };
    let seed: u64 = match take_value(&mut argv, "--seed")? {
        Some(v) => parse(&v, "--seed")?,
        None => 4242,
    };
    let seconds: f64 = match take_value(&mut argv, "--seconds")? {
        Some(v) => parse(&v, "--seconds")?,
        None => spec::RUN_SECONDS as f64,
    };
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    let trace = take_value(&mut argv, "--trace")?;
    let repeats = take_value(&mut argv, "--repeats")?;
    let label = take_value(&mut argv, "--label")?;
    let results = PathBuf::from(
        take_value(&mut argv, "--results")?.unwrap_or_else(|| "bench/results".into()),
    );
    let smoke = take_flag(&mut argv, "--smoke");
    let no_trace = take_flag(&mut argv, "--no-trace");
    if let Some(extra) = argv.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }

    // `--workload` with `--trace` is one in-process run: the form the
    // driver (and the set runner's children) use.
    if let (Some(workload), Some(trace)) = (workload, &trace) {
        let traced = match trace.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        std::fs::create_dir_all(&results)
            .map_err(|e| format!("creating {}: {e}", results.display()))?;
        let out = run::run(&run::RunArgs {
            workload,
            seed,
            seconds,
            traced,
            smoke,
            results,
        });
        out.print();
        println!("detail {}", out.detail_json());
        println!("{}", out.contract_json());
        return Ok(out.correct());
    }
    if trace.is_some() {
        return Err("--trace needs --workload (a set always runs both)".into());
    }
    let args = set::SetArgs {
        label: label.unwrap_or_else(|| {
            if smoke {
                "smoke".into()
            } else {
                "latest".into()
            }
        }),
        seed,
        seconds,
        repeats: match repeats {
            Some(v) => parse(&v, "--repeats")?,
            None if smoke => 1,
            None => 5,
        },
        smoke,
        only: workload,
        traced: !no_trace,
        results,
    };
    set::run(&args).map(|()| true)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let outcome = match command.as_str() {
        "run" => run_command(argv),
        "compare" => match argv.as_slice() {
            [a, b] => compare::run(a, b).map(|()| true),
            _ => Err("usage: mwn-benchmark compare A.json B.json".into()),
        },
        "manifest" => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        "describe" => {
            print!("{}", spec::describe());
            Ok(true)
        }
        _ => Err("usage: mwn-benchmark run|compare|manifest|describe (see bench/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Outputs were produced but failed verification: the result line
        // (with `"correct": false`) has been printed.
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("mwn-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
