//! `mwn sweep` — run an experiment suite on a worker pool, streaming
//! results into a resumable JSONL store.

use mwn::jobs::{self, JobSpec};
use mwn::{ExperimentScale, RunResults};
use mwn_runner::{run_sweep, simulate, simulate_instrumented, worker_count, SweepOptions};

use crate::{args, Failure};

pub fn command(rest: &[String]) -> Result<(), Failure> {
    let mut argv: Vec<String> = rest.to_vec();
    // 0: one worker per CPU.
    let workers: usize = args::take_parsed(&mut argv, "--jobs", "job count", 0)?;
    let out = args::take_value(&mut argv, "--out")?.unwrap_or_else(|| "results.jsonl".into());
    let mult = args::take_count(&mut argv, "--scale", "scale")?;
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
            return Err(
                format!("unknown suite {other:?} (use chain, full, traffic or load)").into(),
            )
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
    let summary = run_sweep(&jobs, &opts, exec)
        .map_err(|e| Failure::Run(format!("results store {out:?}: {e}")))?;
    if summary.failed > 0 {
        return Err(Failure::Run(format!(
            "{} of {} job(s) failed; see \"status\":\"failed\" lines in {out}",
            summary.failed, summary.total
        )));
    }
    Ok(())
}
