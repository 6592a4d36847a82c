//! The persistent results store: an append-only JSONL journal during a
//! sweep, compacted at completion into a deterministic results file.
//!
//! File layout after compaction:
//!
//! 1. one manifest line (`"type":"manifest"`) — run metadata;
//! 2. one line per job (`"type":"result"`), sorted by content key, so a
//!    1-worker and an N-worker run of the same sweep write byte-identical
//!    result lines regardless of completion order.
//!
//! During a run, finished jobs are appended to `<out>.journal` and synced
//! line-by-line; a crash loses at most the in-flight jobs. Both the
//! compacted file and a leftover journal are consulted on resume.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use mwn::jobs::JobSpec;
use mwn::{Estimate, FlowId, FlowResult, RunOutcome, RunResults, SimDuration};
use mwn_sim::fxhash::FxHashMap;

use crate::json::{arr, extract_str_field, Obj};
use crate::query::Json;

/// Run metadata written as the first line of every results file.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Git commit the sweep was built from (`"unknown"` outside a repo).
    pub commit: String,
    /// Distinct root seeds of the sweep, sorted.
    pub seeds: Vec<u64>,
    /// The scale token shared by all jobs (`batch_packets x batches x
    /// deadline_ns`), or `"mixed"`.
    pub scale: String,
    /// Number of jobs in the sweep (after deduplication).
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the run in seconds. Nondeterministic (like
    /// the two event-rate fields below); fixed by tests that compare
    /// whole files.
    pub wall_clock_secs: f64,
    /// Simulator events processed across all executed jobs (0 unless the
    /// sweep ran with the observability layer on).
    pub events_processed: u64,
    /// Events per wall-clock second. Nondeterministic; 0 when
    /// `events_processed` is 0.
    pub events_per_sec: f64,
}

impl Manifest {
    /// Derives the deterministic fields from a job list.
    pub fn for_jobs(jobs: &[JobSpec], workers: usize, commit: String) -> Self {
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let mut scales: Vec<String> = jobs
            .iter()
            .map(|j| {
                format!(
                    "{}x{}x{}",
                    j.scale.batch_packets,
                    j.scale.batches,
                    j.scale.deadline.as_nanos()
                )
            })
            .collect();
        scales.sort();
        scales.dedup();
        let scale = match scales.len() {
            1 => scales.pop().expect("one scale"),
            _ => "mixed".into(),
        };
        Manifest {
            commit,
            seeds,
            scale,
            jobs: jobs.len(),
            workers,
            wall_clock_secs: 0.0,
            events_processed: 0,
            events_per_sec: 0.0,
        }
    }

    pub fn to_line(&self) -> String {
        Obj::new()
            .str("type", "manifest")
            .u64("version", 1)
            .str("commit", &self.commit)
            .str("scale", &self.scale)
            .raw("seeds", &arr(self.seeds.iter().map(u64::to_string)))
            .usize("jobs", self.jobs)
            .usize("workers", self.workers)
            .f64("wall_clock_secs", self.wall_clock_secs)
            .u64("events_processed", self.events_processed)
            .f64("events_per_sec", self.events_per_sec)
            .finish()
    }
}

fn estimate(e: &Estimate) -> String {
    Obj::new()
        .f64("mean", e.mean)
        .f64("half_width", e.half_width)
        .finish()
}

/// Serializes a completed job as one store line (`"status":"done"`).
pub fn done_line(spec: &JobSpec, r: &RunResults) -> String {
    let outcome = match r.outcome {
        RunOutcome::Completed => "completed".to_string(),
        RunOutcome::Truncated { completed_batches } => format!("truncated:{completed_batches}"),
    };
    let flows = arr(r.per_flow.iter().map(|f| {
        Obj::new()
            .u64("flow", u64::from(f.flow.raw()))
            .raw("goodput_kbps", &estimate(&f.goodput_kbps))
            .raw("retx_per_packet", &estimate(&f.retx_per_packet))
            .raw("avg_window", &estimate(&f.avg_window))
            .finish()
    }));
    let mut obj = job_head(spec)
        .str("status", "done")
        .str("outcome", &outcome)
        .raw(
            "aggregate_goodput_kbps",
            &estimate(&r.aggregate_goodput_kbps),
        )
        .raw("fairness", &estimate(&r.fairness))
        .raw("drop_probability", &estimate(&r.drop_probability))
        .u64("false_route_failures", r.false_route_failures)
        .f64(
            "false_route_failures_paper_scale",
            r.false_route_failures_paper_scale,
        )
        .u64("packets_measured", r.packets_measured)
        .f64("measured_secs", r.measured_time.as_secs_f64())
        .f64("total_energy_joules", r.total_energy_joules)
        .f64("energy_per_packet", r.energy_per_packet)
        .raw("flows", &flows);
    // Omitted entirely for uninstrumented runs, so their lines are
    // byte-identical with or without this build.
    if let Some(m) = &r.metrics {
        obj = obj.raw("metrics", &m.to_json());
    }
    obj.finish()
}

/// Reads a result line back: for a `done` line, the [`RunResults`] it
/// records (`metrics` and `conservation` stay `None`), so that
/// [`done_line`] of them writes an uninstrumented row's bytes again; for
/// a `failed` line, its error. A `null` (non-finite) number reads as NaN.
pub fn read_line(line: &str) -> Result<RunResults, String> {
    let row = Json::parse(line)?;
    if row.get("status").and_then(Json::as_str) == Some("failed") {
        let error = row.get("error").and_then(Json::as_str);
        return Err(error.unwrap_or_default().to_string());
    }
    read_done(&row)
        .ok_or_else(|| "unreadable row; remove it from the store to rerun the job".into())
}

fn read_done(row: &Json) -> Option<RunResults> {
    if row.get("status")?.as_str()? != "done" {
        return None;
    }
    let float = |v: &Json, name: &str| match v.get(name)? {
        Json::Null => Some(f64::NAN),
        n => n.as_f64(),
    };
    let count = |v: &Json, name: &str| v.get(name)?.as_u64();
    let estimate = |v: &Json, name: &str| {
        let e = v.get(name)?;
        Some(Estimate {
            mean: float(e, "mean")?,
            half_width: float(e, "half_width")?,
        })
    };
    let outcome = match row.get("outcome")?.as_str()? {
        "completed" => RunOutcome::Completed,
        other => RunOutcome::Truncated {
            completed_batches: other.strip_prefix("truncated:")?.parse().ok()?,
        },
    };
    let per_flow = row.get("flows")?.as_arr()?.iter().map(|f| {
        Some(FlowResult {
            flow: FlowId(u32::try_from(count(f, "flow")?).ok()?),
            goodput_kbps: estimate(f, "goodput_kbps")?,
            retx_per_packet: estimate(f, "retx_per_packet")?,
            avg_window: estimate(f, "avg_window")?,
        })
    });
    let measured_secs = float(row, "measured_secs").filter(|s| *s >= 0.0 && s.is_finite())?;
    Some(RunResults {
        per_flow: per_flow.collect::<Option<_>>()?,
        aggregate_goodput_kbps: estimate(row, "aggregate_goodput_kbps")?,
        fairness: estimate(row, "fairness")?,
        drop_probability: estimate(row, "drop_probability")?,
        false_route_failures: count(row, "false_route_failures")?,
        false_route_failures_paper_scale: float(row, "false_route_failures_paper_scale")?,
        packets_measured: count(row, "packets_measured")?,
        measured_time: SimDuration::from_secs_f64(measured_secs),
        total_energy_joules: float(row, "total_energy_joules")?,
        energy_per_packet: float(row, "energy_per_packet")?,
        outcome,
        metrics: None,
        conservation: None,
    })
}

/// Serializes a crashed job as one store line (`"status":"failed"`).
pub fn failed_line(spec: &JobSpec, error: &str) -> String {
    job_head(spec)
        .str("status", "failed")
        .str("error", error)
        .finish()
}

fn job_head(spec: &JobSpec) -> Obj {
    Obj::new()
        .str("type", "result")
        .str("key", &spec.key())
        .str("group", &spec.group)
        .str("point", &spec.point)
        .str("spec", &spec.canonical())
        .u64("seed", spec.seed)
}

/// Completed results recovered from a previous run: content key → the
/// verbatim store line.
pub type DoneMap = FxHashMap<String, String>;

/// The journal path used alongside a results file.
pub fn journal_path(out: &Path) -> PathBuf {
    let mut os = out.as_os_str().to_owned();
    os.push(".journal");
    PathBuf::from(os)
}

/// Loads every `"status":"done"` result line from the results file and
/// any leftover journal of an interrupted run. Failed lines are dropped,
/// so their jobs re-run.
pub fn load_done(out: &Path) -> std::io::Result<DoneMap> {
    let mut done = DoneMap::default();
    for line in intact_lines(out)? {
        let field = |name| extract_str_field(&line, name);
        if field("type").as_deref() == Some("result") && field("status").as_deref() == Some("done")
        {
            if let Some(key) = field("key") {
                done.insert(key, line);
            }
        }
    }
    Ok(done)
}

/// The lines of the results file at `out` and of a leftover journal, in
/// that order, without torn writes: a crash mid-append can leave a final
/// line cut off anywhere, and every line this store writes ends with `}`.
/// A missing file has no lines.
pub fn intact_lines(out: &Path) -> std::io::Result<Vec<String>> {
    let mut lines = Vec::new();
    for path in [out.to_path_buf(), journal_path(out)] {
        match fs::read_to_string(&path) {
            Ok(text) => lines.extend(text.lines().filter(|l| l.ends_with('}')).map(String::from)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(lines)
}

/// Line-buffered appender for the crash-safe journal.
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    pub fn open(out: &Path) -> std::io::Result<Journal> {
        let path = journal_path(out);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { file, path })
    }

    /// Appends one line and flushes it to the OS before returning.
    pub fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }

    /// Removes the journal once its contents are compacted.
    pub fn remove(self) -> std::io::Result<()> {
        drop(self.file);
        fs::remove_file(&self.path)
    }
}

/// Sorts result lines by content key, the order of a compacted store.
pub fn sort_by_key(lines: &mut [String]) {
    lines.sort_by_cached_key(|l| extract_str_field(l, "key").unwrap_or_default());
}

/// Writes the final results file: manifest first, then result lines
/// sorted by content key. Replaces `out` atomically (write + rename).
pub fn compact(out: &Path, manifest: &Manifest, lines: &mut [String]) -> std::io::Result<()> {
    sort_by_key(lines);
    let tmp = out.with_extension("tmp");
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        writeln!(w, "{}", manifest.to_line())?;
        for line in lines.iter() {
            writeln!(w, "{line}")?;
        }
        w.flush()?;
    }
    fs::rename(&tmp, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn::jobs::chain_study;
    use mwn::ExperimentScale;

    fn sample_job() -> JobSpec {
        chain_study(ExperimentScale::smoke()).remove(0)
    }

    #[test]
    fn manifest_derivation_and_shape() {
        let jobs = chain_study(ExperimentScale::smoke());
        let m = Manifest::for_jobs(&jobs, 4, "abc123".into());
        assert_eq!(m.jobs, jobs.len());
        assert_eq!(m.scale, "120x4x1200000000000");
        assert!(
            m.seeds.windows(2).all(|w| w[0] < w[1]),
            "seeds sorted+deduped"
        );
        let line = m.to_line();
        assert!(line.starts_with(r#"{"type":"manifest","version":1,"commit":"abc123""#));
        assert!(line.contains(r#""workers":4"#));
    }

    #[test]
    fn done_line_metrics_field_present_only_when_collected() {
        let job = sample_job();
        let plain = crate::simulate(&job);
        let line = done_line(&job, &plain);
        assert!(
            !line.contains("\"metrics\""),
            "uninstrumented rows must not grow a metrics field"
        );

        let instrumented = crate::simulate_instrumented(&job);
        let line = done_line(&job, &instrumented);
        assert!(line.contains(r#""metrics":{"profile":{"events":"#));
        assert!(line.contains(r#""batches":[{"start_secs":"#));
        // Deterministic: serializing the same instrumented run twice gives
        // identical bytes.
        assert_eq!(line, done_line(&job, &crate::simulate_instrumented(&job)));
    }

    #[test]
    fn failed_line_carries_key_and_error() {
        let job = sample_job();
        let line = failed_line(&job, "worker panicked: boom");
        assert_eq!(
            extract_str_field(&line, "status").as_deref(),
            Some("failed")
        );
        assert_eq!(
            extract_str_field(&line, "key").as_deref(),
            Some(job.key().as_str())
        );
        assert_eq!(
            extract_str_field(&line, "error").as_deref(),
            Some("worker panicked: boom")
        );
    }

    #[test]
    fn journal_roundtrips_through_load_done() {
        let dir = std::env::temp_dir().join(format!("mwn-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("results.jsonl");
        let _ = fs::remove_file(&out);
        let _ = fs::remove_file(journal_path(&out));

        let job = sample_job();
        let done = job_head(&job).str("status", "done").finish();
        let failed = failed_line(&job, "boom");
        let mut j = Journal::open(&out).unwrap();
        j.append(&done).unwrap();
        j.append(&failed).unwrap();

        let map = load_done(&out).unwrap();
        assert_eq!(map.len(), 1, "failed lines must not count as done");
        assert_eq!(map.get(&job.key()).map(String::as_str), Some(done.as_str()));

        // Compaction sorts and removes the journal.
        let manifest = Manifest::for_jobs(std::slice::from_ref(&job), 1, "t".into());
        let mut lines = vec![done.clone()];
        compact(&out, &manifest, &mut lines).unwrap();
        j.remove().unwrap();
        let text = fs::read_to_string(&out).unwrap();
        let mut it = text.lines();
        assert!(it.next().unwrap().contains(r#""type":"manifest""#));
        assert_eq!(it.next(), Some(done.as_str()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_journal_line_does_not_resume() {
        // A crash can happen mid-`write_all`, cutting the final journal
        // line anywhere — including after enough of it that the key and
        // status fields still parse. Such a torn line must not be treated
        // as a completed job.
        let dir = std::env::temp_dir().join(format!("mwn-store-trunc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("results.jsonl");
        let _ = fs::remove_file(&out);
        let _ = fs::remove_file(journal_path(&out));

        let job = sample_job();
        let done = job_head(&job).str("status", "done").finish();
        let mut j = Journal::open(&out).unwrap();
        j.append(&done).unwrap();

        // Simulate the torn write: a second done-line for another key,
        // cut off before its closing `}` (and with no trailing newline).
        let jobs = chain_study(ExperimentScale::smoke());
        let other = &jobs[1];
        assert_ne!(other.key(), job.key());
        let torn_full = job_head(other).str("status", "done").finish();
        let torn = &torn_full[..torn_full.len() - 1];
        assert!(
            extract_str_field(torn, "key").is_some()
                && extract_str_field(torn, "status").as_deref() == Some("done"),
            "the torn prefix must still look resumable field-wise for the \
             test to prove anything"
        );
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&out))
            .unwrap();
        f.write_all(torn.as_bytes()).unwrap();
        f.flush().unwrap();
        drop(f);

        let map = load_done(&out).unwrap();
        assert_eq!(map.len(), 1, "only the intact line resumes");
        assert!(map.contains_key(&job.key()));
        assert!(
            !map.contains_key(&other.key()),
            "torn line must re-run its job"
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// Every number a fold reads, as bits: the estimates of Figs 2–19
    /// and Tables 3–4 and the Fig 9 count.
    fn fold_bits(r: &RunResults) -> Vec<u64> {
        let est = |e: &Estimate| [e.mean.to_bits(), e.half_width.to_bits()];
        let mut bits: Vec<u64> = [&r.aggregate_goodput_kbps, &r.fairness, &r.drop_probability]
            .into_iter()
            .flat_map(est)
            .collect();
        bits.push(r.false_route_failures_paper_scale.to_bits());
        for f in &r.per_flow {
            bits.push(u64::from(f.flow.raw()));
            bits.extend(est(&f.goodput_kbps));
            bits.extend(est(&f.retx_per_packet));
            bits.extend(est(&f.avg_window));
        }
        bits
    }

    /// A `done` row read back writes the same bytes again and hands a
    /// fold the same numbers, bit for bit: a six-flow grid run, a run
    /// cut off after one batch, and one cut off before any (zero
    /// goodput). A non-finite number, written as `null`, reads back as
    /// NaN and renders as it did.
    #[test]
    fn done_rows_read_back_as_the_results_that_wrote_them() {
        use mwn::experiments::{FigureData, Series};
        use mwn::ExperimentScale;

        let tiny = ExperimentScale {
            batch_packets: 60,
            batches: 3,
            deadline: SimDuration::from_secs(600),
        };
        let cut_at = |ms| {
            let mut job = sample_job();
            job.scale = ExperimentScale {
                deadline: SimDuration::from_millis(ms),
                ..tiny
            };
            job
        };
        let jobs = [
            mwn::jobs::fig16_17(tiny).remove(0).points.remove(0).1,
            cut_at(3_000),
            cut_at(50),
        ];
        let results: Vec<RunResults> = jobs.iter().map(crate::simulate).collect();
        assert!(results[0].per_flow.len() > 1);
        assert_eq!(
            results[1].outcome,
            RunOutcome::Truncated {
                completed_batches: 1
            }
        );
        assert_eq!(results[2].aggregate_goodput_kbps.mean, 0.0);
        for (job, r) in jobs.iter().zip(&results) {
            let line = done_line(job, r);
            let back = read_line(&line).unwrap_or_else(|e| panic!("{}: {e}", job.point));
            assert_eq!(done_line(job, &back), line);
            assert_eq!(fold_bits(&back), fold_bits(r), "{}", job.point);
            assert_eq!(back.outcome, r.outcome);
        }

        let mut r = results[1].clone();
        r.fairness.mean = f64::NAN;
        let line = done_line(&jobs[1], &r);
        assert!(line.contains(r#""fairness":{"mean":null,"#), "{line}");
        let render = |r: &RunResults| {
            let series = vec![Series {
                label: "fairness".into(),
                points: vec![(1.0, r.fairness)],
            }];
            let figure = FigureData {
                id: "Fig".into(),
                title: String::new(),
                x_label: "x".into(),
                y_label: "y".into(),
                series,
            };
            figure.render() + &figure.to_csv()
        };
        assert_eq!(render(&read_line(&line).unwrap()), render(&r));
    }

    #[test]
    fn a_failed_row_reads_back_as_its_error() {
        let line = failed_line(&sample_job(), "worker panicked: boom");
        assert_eq!(read_line(&line).unwrap_err(), "worker panicked: boom");
    }
}
