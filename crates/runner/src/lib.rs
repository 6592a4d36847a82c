//! `mwn-runner` — parallel experiment execution with a persistent,
//! resumable results store.
//!
//! The paper's evaluation is hundreds of independent simulation runs
//! (Section 4: chain, grid and random studies across transports, chain
//! lengths and bandwidths). At paper scale a single run takes minutes,
//! so the suite is hours of CPU time — but every run is a pure function
//! of its [`JobSpec`], which makes the suite embarrassingly parallel and
//! its results cacheable by content key.
//!
//! This crate provides the three pieces:
//!
//! * [`pool`] — a shared-queue `std::thread` worker pool with panic
//!   isolation (one crashing simulation is recorded, not fatal);
//! * [`store`] — an append-only JSONL results store, journaled during
//!   the run and compacted (manifest + result lines sorted by content
//!   key) at completion, so worker count and scheduling never change the
//!   output bytes;
//! * [`run_sweep`] — the driver tying them together, with resume: jobs
//!   whose key already has a `"status":"done"` line are skipped and
//!   their lines carried over verbatim. It is the one runner of study
//!   jobs: `mwn repro` sends every selected study's jobs through it (with
//!   a store for `--out`, in memory without) and folds each study from
//!   the returned [`SweepSummary::rows`], read back by
//!   [`store::read_line`].
//!
//! ```no_run
//! use mwn::jobs::chain_study;
//! use mwn::ExperimentScale;
//! use mwn_runner::{run_sweep, SweepOptions};
//!
//! let jobs = chain_study(ExperimentScale::quick());
//! let opts = SweepOptions::new("results.jsonl").workers(4);
//! let summary = run_sweep(&jobs, &opts, &mwn_runner::simulate).unwrap();
//! eprintln!("{} run, {} resumed, {} failed", summary.ran, summary.skipped, summary.failed);
//! ```

pub use mwn_obs::json;
pub mod pool;
pub mod progress;
pub mod query;
pub mod store;

use std::path::PathBuf;
use std::time::Instant;

use mwn::jobs::JobSpec;
use mwn::RunResults;
use mwn_sim::fxhash::FxHashSet;

pub use store::Manifest;

/// Configuration of one sweep invocation.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Results file (JSONL). Also consulted for resume. `None` writes no
    /// file: the rows come back only in [`SweepSummary::rows`].
    pub out: Option<PathBuf>,
    /// Worker threads. 0 means one per available CPU.
    pub workers: usize,
    /// Suppress progress output (tests, library callers).
    pub quiet: bool,
    /// Overrides the manifest written at completion. `None` derives one
    /// from the job list and measures wall-clock time; tests that
    /// byte-compare whole files inject a fixed manifest here.
    pub manifest: Option<Manifest>,
}

impl SweepOptions {
    pub fn new(out: impl Into<PathBuf>) -> Self {
        SweepOptions {
            out: Some(out.into()),
            ..SweepOptions::default()
        }
    }

    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    pub fn quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }
}

/// Like [`simulate`], with the observability layer on: each result row
/// gains a `metrics` object (per-batch counter deltas, whole-run totals,
/// engine profile), and the manifest reports total events processed.
pub fn simulate_instrumented(spec: &JobSpec) -> RunResults {
    mwn::experiment::run_instrumented(
        &spec.scenario(),
        spec.scale,
        mwn::ObsConfig {
            metrics: true,
            probe_capacity: 0,
            profile: true,
            audit: false,
            shards: 0,
        },
    )
}

/// What a sweep did, by job count, and the rows it left.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSummary {
    /// Jobs in the (deduplicated) request.
    pub total: usize,
    /// Jobs skipped because the store already had their result.
    pub skipped: usize,
    /// Jobs executed this invocation.
    pub ran: usize,
    /// Executed jobs that panicked (recorded as `"status":"failed"`).
    pub failed: usize,
    /// The result lines of every job, sorted by content key: the lines
    /// carried over from the store and this invocation's `done` and
    /// `failed` lines. [`store::read_line`] reads one back.
    pub rows: Vec<String>,
}

/// The production executor: runs the job's scenario at its scale.
pub fn simulate(spec: &JobSpec) -> RunResults {
    mwn::experiment::run(&spec.scenario(), spec.scale)
}

/// Worker threads for a `--jobs` value or [`SweepOptions::workers`]: 0
/// means one per available CPU.
pub fn worker_count(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    }
}

/// Runs `jobs` on a worker pool, streaming results into the store at
/// `opts.out`, if any.
///
/// Jobs are deduplicated by content key (first occurrence wins). Jobs
/// whose key already has a completed line in the store — from an earlier
/// invocation or an interrupted run's journal — are not re-executed;
/// their lines are carried into the compacted output verbatim. Failed
/// lines are not carried over, so crashed jobs retry on the next
/// invocation.
///
/// The executor is a parameter so tests can inject panicking or
/// must-not-run behaviors; production callers pass [`simulate`].
pub fn run_sweep(
    jobs: &[JobSpec],
    opts: &SweepOptions,
    executor: &(dyn Fn(&JobSpec) -> RunResults + Sync),
) -> std::io::Result<SweepSummary> {
    let start = Instant::now();
    let workers = worker_count(opts.workers);

    // Deduplicate by content key, preserving first occurrence.
    let mut seen = FxHashSet::default();
    let jobs: Vec<&JobSpec> = jobs.iter().filter(|j| seen.insert(j.key())).collect();

    // Resume: carry completed lines over, run everything else.
    let done = match &opts.out {
        Some(out) => store::load_done(out)?,
        None => store::DoneMap::default(),
    };
    let (resumed, pending): (Vec<&JobSpec>, Vec<&JobSpec>) =
        jobs.iter().partition(|j| done.contains_key(&j.key()));
    let mut lines: Vec<String> = resumed.iter().map(|j| done[&j.key()].clone()).collect();

    let total = jobs.len();
    let skipped = resumed.len();
    let labels: Vec<String> = pending
        .iter()
        .map(|j| format!("{} [{}]", j.point, j.group))
        .collect();
    let mut journal = opts.out.as_deref().map(store::Journal::open).transpose()?;
    let mut progress = progress::Progress::new(total, skipped, workers, opts.quiet);
    let mut io_error: Option<std::io::Error> = None;
    let mut events_processed = 0u64;

    pool::run(
        pending.clone(),
        workers,
        |spec| {
            let results = executor(spec);
            let events = results
                .metrics
                .as_ref()
                .map_or(0, |m| m.profile.events_processed());
            (store::done_line(spec, &results), events)
        },
        |index, result| {
            // A panic in the executor or in serialising its line is
            // recorded as a failed line under the job's key, so the next
            // invocation retries it.
            let (line, failed, events) = match result {
                Ok((line, events)) => (line, false, events),
                Err(msg) => (store::failed_line(pending[index], &msg), true, 0),
            };
            events_processed += events;
            if let Some(Err(e)) = journal.as_mut().map(|j| j.append(&line)) {
                io_error.get_or_insert(e);
            }
            progress.on_finish(&labels[index], failed);
            lines.push(line);
        },
    );
    if let Some(e) = io_error {
        return Err(e);
    }

    let failed = progress.failed();
    let ran = progress.done();

    match (&opts.out, journal) {
        (Some(out), Some(journal)) => {
            let mut manifest = opts.manifest.clone().unwrap_or_else(|| {
                let owned: Vec<JobSpec> = jobs.iter().map(|j| (*j).clone()).collect();
                let mut m = Manifest::for_jobs(&owned, workers, detect_commit());
                m.wall_clock_secs = start.elapsed().as_secs_f64();
                m.events_processed = events_processed;
                m.events_per_sec = if m.wall_clock_secs > 0.0 {
                    events_processed as f64 / m.wall_clock_secs
                } else {
                    0.0
                };
                m
            });
            manifest.jobs = total;
            store::compact(out, &manifest, &mut lines)?;
            journal.remove()?;
        }
        _ => store::sort_by_key(&mut lines),
    }
    if !opts.quiet {
        let to = opts
            .out
            .as_ref()
            .map_or(String::new(), |out| format!(" -> {}", out.display()));
        eprintln!("sweep complete: {ran} ran, {skipped} resumed, {failed} failed{to}");
    }
    Ok(SweepSummary {
        total,
        skipped,
        ran,
        failed,
        rows: lines,
    })
}

/// The git commit hash of the working tree, or `"unknown"`.
pub fn detect_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
