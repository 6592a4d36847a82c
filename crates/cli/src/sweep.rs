//! `mwn sweep` — run an experiment suite on a worker pool, streaming
//! results into a resumable JSONL store.

use mwn::jobs::{self, JobSpec};
use mwn::{ExperimentScale, RunResults};
use mwn_runner::{run_sweep, simulate, simulate_instrumented, worker_count, SweepOptions};

use crate::args;

pub fn command(rest: &[String]) -> Result<(), String> {
    let mut argv: Vec<String> = rest.to_vec();
    let workers: usize = match args::take_value(&mut argv, "--jobs")? {
        Some(v) => args::parse(&v, "job count")?,
        None => 0, // auto: one worker per CPU
    };
    let out = args::take_value(&mut argv, "--out")?.unwrap_or_else(|| "results.jsonl".into());
    let mult = args::take_scale(&mut argv)?;
    let suite = args::take_value(&mut argv, "--suite")?.unwrap_or_else(|| "chain".into());
    let metrics = args::take_flag(&mut argv, "--metrics");
    args::reject_leftovers(&argv)?;

    let scale = ExperimentScale::scaled(mult);
    let jobs = match suite.as_str() {
        "chain" => jobs::chain_study(scale),
        "full" => jobs::full_suite(scale),
        "traffic" => jobs::traffic_study(scale),
        "load" => jobs::traffic_load_study(scale),
        other => {
            return Err(format!(
                "unknown suite {other:?} (use chain, full, traffic or load)"
            ))
        }
    };

    eprintln!(
        "suite {suite:?}: {} job(s) at scale x{mult}, {} worker(s)",
        jobs.len(),
        worker_count(workers)
    );
    let opts = SweepOptions::new(&out).workers(workers);
    let exec: &(dyn Fn(&JobSpec) -> RunResults + Sync) = if metrics {
        &simulate_instrumented
    } else {
        &simulate
    };
    let summary =
        run_sweep(&jobs, &opts, exec).map_err(|e| format!("results store {out:?}: {e}"))?;
    if summary.failed > 0 {
        return Err(format!(
            "{} of {} job(s) failed; see \"status\":\"failed\" lines in {out}",
            summary.failed, summary.total
        ));
    }
    Ok(())
}
