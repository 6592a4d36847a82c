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
use mwn::{Estimate, RunOutcome, RunResults};
use mwn_sim::fxhash::FxHashMap;

use crate::json::{arr, extract_str_field, Obj};

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
    for path in [out.to_path_buf(), journal_path(out)] {
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        for line in text.lines() {
            // A crash mid-append can leave a final line cut off anywhere;
            // every line this store writes ends with `}`, so anything else
            // is a torn write and its job must re-run.
            if !line.ends_with('}') {
                continue;
            }
            if extract_str_field(line, "type").as_deref() != Some("result") {
                continue;
            }
            if extract_str_field(line, "status").as_deref() != Some("done") {
                continue;
            }
            if let Some(key) = extract_str_field(line, "key") {
                done.insert(key, line.to_string());
            }
        }
    }
    Ok(done)
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

/// Writes the final results file: manifest first, then result lines
/// sorted by content key. Replaces `out` atomically (write + rename).
pub fn compact(out: &Path, manifest: &Manifest, lines: &mut [String]) -> std::io::Result<()> {
    lines.sort_by_cached_key(|l| extract_str_field(l, "key").unwrap_or_default());
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
}
