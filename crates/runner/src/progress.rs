//! Sweep progress on stderr: a line for every failed job and at each 5 %
//! of the jobs that run, with done/total counts and a wall-clock ETA from
//! the mean completed-job duration. Resumed jobs are named once, in the
//! opening line, and counted nowhere else.

use std::time::Instant;

/// Progress lines per sweep, failures aside: one at each 5 % of the jobs
/// that run, the last at the end.
const STEPS: usize = 20;

/// Tracks and prints sweep progress. All output goes to stderr so result
/// pipelines on stdout stay clean; `quiet` disables printing entirely
/// (used by tests and library callers).
pub struct Progress {
    /// Jobs this invocation runs (resumed jobs excluded).
    total: usize,
    done: usize,
    failed: usize,
    start: Instant,
    quiet: bool,
}

impl Progress {
    /// Starts tracking a sweep of `total` jobs, `skipped` of which were
    /// resumed from a store and do not run.
    pub fn new(total: usize, skipped: usize, workers: usize, quiet: bool) -> Self {
        if !quiet {
            eprintln!(
                "sweep: {total} job(s), {skipped} already done (resumed), {} worker(s)",
                workers.max(1)
            );
        }
        Progress {
            total: total - skipped,
            done: 0,
            failed: 0,
            start: Instant::now(),
            quiet,
        }
    }

    /// Counts a finished job and returns its progress line if it failed,
    /// completes another 5 % of the jobs, or is the last; the line is
    /// printed unless `quiet`.
    pub fn on_finish(&mut self, label: &str, failed: bool) -> Option<String> {
        self.done += 1;
        if failed {
            self.failed += 1;
        }
        let step = |done: usize| done * STEPS / self.total.max(1);
        if !failed && step(self.done) == step(self.done - 1) {
            return None;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let status = if failed { "FAILED" } else { "done" };
        let line = format!(
            "[{}/{}] {label} {status} ({elapsed:.1}s elapsed{})",
            self.done,
            self.total,
            self.eta_note(elapsed),
        );
        if !self.quiet {
            eprintln!("{line}");
        }
        Some(line)
    }

    fn eta_note(&self, elapsed: f64) -> String {
        if self.done == 0 || self.done >= self.total {
            return String::new();
        }
        let remaining = (self.total - self.done) as f64 * elapsed / self.done as f64;
        format!(", ETA {remaining:.0}s")
    }

    pub fn done(&self) -> usize {
        self.done
    }

    pub fn failed(&self) -> usize {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resumed_jobs_count_neither_in_progress_nor_eta() {
        let mut p = Progress::new(9, 6, 2, true);
        let lines: Vec<String> = ["a", "b", "c"]
            .iter()
            .filter_map(|job| p.on_finish(job, false))
            .collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("[1/3] a done ("), "{}", lines[0]);
        assert!(lines[0].contains(", ETA "), "{}", lines[0]);
        assert!(lines[2].starts_with("[3/3] c done ("), "{}", lines[2]);
        assert!(!lines[2].contains("ETA"), "{}", lines[2]);
        assert_eq!((p.done(), p.failed()), (3, 0));
    }

    #[test]
    fn a_long_sweep_prints_every_twentieth_and_every_failure() {
        let mut p = Progress::new(100, 0, 2, true);
        let failing = [33, 50];
        let lines: Vec<String> = (1..=100)
            .filter_map(|job| p.on_finish(&format!("job{job}"), failing.contains(&job)))
            .collect();
        assert_eq!(lines.len(), 21, "{lines:#?}");
        for job in failing {
            let line = format!("[{job}/100] job{job} FAILED (");
            assert!(lines.iter().any(|l| l.starts_with(&line)), "{lines:#?}");
        }
        assert!(lines[20].starts_with("[100/100] job100 done ("));
        assert_eq!((p.done(), p.failed()), (100, 2));
    }

    #[test]
    fn eta_is_empty_at_the_edges() {
        let mut p = Progress::new(2, 0, 1, true);
        assert_eq!(p.eta_note(10.0), "");
        p.on_finish("a", false);
        assert!(p.eta_note(10.0).starts_with(", ETA "));
        p.on_finish("b", false);
        assert_eq!(p.eta_note(10.0), "");
    }
}
