//! `mwn repro` — regenerate the paper's figures and tables.

use std::collections::HashMap;
use std::path::PathBuf;

use mwn::experiments::{Curve, Printout, Study, STUDIES};
use mwn::jobs::JobSpec;
use mwn::{ExperimentScale, RunResults};
use mwn_runner::json::extract_str_field;
use mwn_runner::{run_sweep, simulate, simulate_instrumented, store, SweepOptions, SweepSummary};

use crate::{args, Failure};

/// The study catalog `mwn list` prints.
pub fn listing() -> String {
    let mut out = format!("{:<20} description\n", "experiment");
    for study in &STUDIES {
        out.push_str(&format!("{:<20} {}\n", study.id, study.description));
    }
    out + &format!("{:<20} run every experiment above\n", "all")
}

pub fn command(rest: &[String]) -> Result<(), Failure> {
    let mut argv: Vec<String> = rest.to_vec();
    let mult = args::take_count(&mut argv, "--scale", "scale")?;
    // 0: one worker per CPU.
    let workers = args::take_parsed(&mut argv, "--jobs", "job count", 0)?;
    let csv = args::take_flag(&mut argv, "--csv");
    let out = args::take_value(&mut argv, "--out")?;
    let metrics = args::take_flag(&mut argv, "--metrics");
    let flags: Vec<String> = argv.extract_if(.., |a| a.starts_with('-')).collect();
    args::reject_leftovers(&flags)?;
    if argv.is_empty() {
        return Err("repro needs an experiment id (see `mwn list`)".into());
    }
    let known = |id: &String| id == "all" || STUDIES.iter().any(|study| study.id == id);
    if let Some(id) = argv.iter().find(|id| !known(id)) {
        return Err(format!("unknown experiment {id:?} (see `mwn list`)").into());
    }
    if metrics && out.is_none() {
        return Err("--metrics needs --out: a results store to write them to".into());
    }
    let selected: Vec<&Study> = STUDIES
        .iter()
        .filter(|study| argv.iter().any(|id| id == "all" || id == study.id))
        .collect();
    for study in &selected {
        eprintln!("[{}] {} (scale x{mult})...", study.id, study.description);
    }

    let opts = SweepOptions {
        out: out.as_ref().map(PathBuf::from),
        workers,
        ..SweepOptions::default()
    };
    let exec: &Executor = if metrics {
        &simulate_instrumented
    } else {
        &simulate
    };
    let (_, outcomes) = run_studies(&selected, ExperimentScale::scaled(mult), &opts, exec)
        .map_err(|e| Failure::Run(format!("results store {:?}: {e}", out.unwrap_or_default())))?;
    let mut failed = Vec::new();
    for (study, outcome) in selected.iter().zip(outcomes) {
        let (figures, tables) = match outcome {
            Ok(printout) => printout,
            Err(failures) => {
                for failure in failures {
                    eprintln!("[{}] FAILED: {failure}", study.id);
                }
                failed.push(study.id);
                continue;
            }
        };
        for f in figures {
            if csv {
                println!("# {} — {}", f.id, f.title);
                print!("{}", f.to_csv());
            } else {
                print!("{}", f.render());
            }
            println!();
        }
        for t in tables {
            print!("{}", t.render());
            println!();
        }
    }
    if !failed.is_empty() {
        return Err(Failure::Run(format!(
            "experiment(s) failed: {}",
            failed.join(", ")
        )));
    }
    Ok(())
}

type Executor = dyn Fn(&JobSpec) -> RunResults + Sync;

/// A study's printout, or one `"<point>: <error>"` per failed job.
type Outcome = Result<Printout, Vec<String>>;

/// Runs the studies' jobs through `exec` in one [`run_sweep`] and folds
/// each study from its own rows, looked up by content key, so a row
/// resumed from `opts.out` folds as the run that wrote it. A study with
/// a failed job is not folded: its entry lists `"<point>: <error>"` per
/// failed job instead.
///
/// Jobs are queued round robin across the studies — job k of every
/// study before job k + 1 of any — so one study's heavy runs do not
/// queue back to back.
fn run_studies(
    studies: &[&Study],
    scale: ExperimentScale,
    opts: &SweepOptions,
    exec: &Executor,
) -> std::io::Result<(SweepSummary, Vec<Outcome>)> {
    let grids: Vec<_> = studies.iter().map(|study| (study.grid)(scale)).collect();
    // Keyed (job index in its study, study index), so sorting queues
    // round robin.
    let mut queue: Vec<((usize, usize), &JobSpec)> = grids
        .iter()
        .enumerate()
        .flat_map(|(s, grid)| {
            grid.iter()
                .flat_map(|series| &series.points)
                .enumerate()
                .map(move |(k, (_, job))| ((k, s), job))
        })
        .collect();
    queue.sort_by_key(|&(at, _)| at);
    let jobs: Vec<JobSpec> = queue.into_iter().map(|(_, job)| job.clone()).collect();
    let summary = run_sweep(&jobs, opts, exec)?;
    let rows: HashMap<String, &str> = summary
        .rows
        .iter()
        .filter_map(|line| Some((extract_str_field(line, "key")?, line.as_str())))
        .collect();
    let outcomes = studies
        .iter()
        .zip(grids)
        .map(|(study, grid)| {
            let mut failures = Vec::new();
            let curves: Vec<Curve> = grid
                .into_iter()
                .map(|series| Curve {
                    label: series.label,
                    points: series
                        .points
                        .into_iter()
                        .filter_map(|(x, job)| {
                            let row = rows.get(&job.key()).ok_or("no result row".to_string());
                            match row.and_then(|line| store::read_line(line)) {
                                Ok(r) => Some((x, (job, r))),
                                Err(msg) => {
                                    failures.push(format!("{}: {msg}", job.point));
                                    None
                                }
                            }
                        })
                        .collect(),
                })
                .collect();
            if failures.is_empty() {
                Ok((study.fold)(curves))
            } else {
                Err(failures)
            }
        })
        .collect();
    Ok((summary, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn::experiment;
    use mwn::SimDuration;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            batch_packets: 60,
            batches: 3,
            deadline: SimDuration::from_secs(600),
        }
    }

    fn study(id: &str) -> &'static Study {
        STUDIES.iter().find(|s| s.id == id).unwrap()
    }

    /// The ids are unique, in catalog order, and are what `mwn list`
    /// prints: one missing here can be run from no command.
    #[test]
    fn catalog_names_every_experiment_once() {
        let ids: Vec<&str> = STUDIES.iter().map(|study| study.id).collect();
        assert_eq!(
            ids,
            [
                "table2",
                "fig2-3",
                "fig4",
                "fig5",
                "fig6-9",
                "fig10",
                "fig11-14",
                "fig16-17",
                "fig18-19",
                "ablation-capture",
                "ablation-basic-rate",
                "ablation-cs-range",
                "ext-fu",
                "ext-variants",
                "ext-optwin",
                "ext-80211g",
                "ext-elfn",
                "traffic",
                "load",
            ]
        );
        let listing = listing();
        let listed: Vec<&str> = listing
            .lines()
            .skip(1)
            .map(|line| line.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(listed[..ids.len()], ids);
        assert_eq!(listed[ids.len()..], ["all"]);
    }

    /// In-memory options: no store, no progress lines.
    fn quiet(workers: usize) -> SweepOptions {
        SweepOptions {
            workers,
            quiet: true,
            ..SweepOptions::default()
        }
    }

    fn fold(studies: &[&Study], opts: &SweepOptions, exec: &Executor) -> Vec<Outcome> {
        run_studies(studies, tiny(), opts, exec)
            .expect("no store to fail")
            .1
    }

    /// Everything a study prints, as text and as CSV.
    fn printed((figures, tables): &Printout) -> String {
        let figures = figures.iter().map(|f| f.render() + &f.to_csv());
        figures.chain(tables.iter().map(|t| t.render())).collect()
    }

    /// `fig4` and `ext-elfn` (the fold that pools three layouts per
    /// point), folded from the rows of one and of two workers, print
    /// exactly what the same fold prints over each job run on its own;
    /// and every `fig4` point is its own job's goodput.
    #[test]
    fn studies_fold_the_pooled_runs_of_their_own_jobs() {
        let scale = tiny();
        let csv = |(figures, _): &Printout| figures.iter().map(|f| f.to_csv()).collect::<String>();
        for id in ["fig4", "ext-elfn"] {
            let study = study(id);
            let curves: Vec<Curve> = (study.grid)(scale)
                .into_iter()
                .map(|series| Curve {
                    label: series.label,
                    points: series
                        .points
                        .into_iter()
                        .map(|(x, job)| {
                            let r = experiment::run(&job.scenario(), job.scale);
                            (x, (job, r))
                        })
                        .collect(),
                })
                .collect();
            let alone = (study.fold)(curves.clone());
            if id == "fig4" {
                let points = alone.0[0].series.iter().flat_map(|s| &s.points);
                let runs = curves.iter().flat_map(|c| &c.points);
                for ((_, point), (_, (job, r))) in points.zip(runs) {
                    assert_eq!(*point, r.aggregate_goodput_kbps, "{}", job.point);
                }
            }
            for workers in [1, 2] {
                let pooled = fold(&[study], &quiet(workers), &simulate).remove(0);
                let pooled = pooled.unwrap_or_else(|e| panic!("{id}: {e:?}"));
                assert_eq!(csv(&pooled), csv(&alone), "{id} at {workers} worker(s)");
            }
        }
    }

    fn alpha3_panics(job: &JobSpec) -> RunResults {
        assert!(!job.point.starts_with("alpha=3"), "planted failure");
        simulate(job)
    }

    /// A panicking job fails the study that needs it, naming the job's
    /// point; the study after it still folds from its own runs.
    #[test]
    fn a_failed_job_fails_only_its_study() {
        let studies = [study("fig4"), study("fig10")];
        let mut outcomes = fold(&studies, &quiet(2), &alpha3_panics).into_iter();
        let failures = outcomes.next().unwrap().expect_err("fig4 fails");
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(
            failures[0].starts_with("alpha=3 bw=2Mbit/s: ")
                && failures[0].ends_with("planted failure"),
            "{failures:?}"
        );
        let fig10 = outcomes.next().unwrap().expect("fig10 folds");
        let alone = fold(&studies[1..], &quiet(1), &simulate).remove(0).unwrap();
        assert_eq!(fig10.0[0].to_csv(), alone.0[0].to_csv());
    }

    /// A run that lost a third of `fig4`'s jobs (its `alpha=3` series
    /// panicked), rerun on the same store, runs only those jobs again
    /// and prints what an uninterrupted run prints; so does a rerun on
    /// the journal that a run killed before compaction leaves. The
    /// `fig16-17` rows (six flows each, and Table 3) resume as written.
    #[test]
    fn a_resumed_run_prints_what_an_uninterrupted_run_prints() {
        let studies = [study("fig4"), study("fig16-17")];
        let whole: Vec<String> = fold(&studies, &quiet(2), &simulate)
            .iter()
            .map(|outcome| printed(outcome.as_ref().expect("folds")))
            .collect();
        let dir = std::env::temp_dir().join(format!("mwn-repro-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_at = |name: &str| SweepOptions {
            out: Some(dir.join(name)),
            ..quiet(2)
        };

        let compacted = store_at("compacted.jsonl");
        let (summary, first) = run_studies(&studies, tiny(), &compacted, &alpha3_panics).unwrap();
        assert_eq!((summary.ran, summary.failed), (9 + 12, 3));
        assert!(first[0].is_err() && first[1].is_ok());
        // A kill before compaction leaves only the journal: its done rows.
        let journal_only = store_at("journal.jsonl");
        let mut journal = store::Journal::open(journal_only.out.as_ref().unwrap()).unwrap();
        for row in summary
            .rows
            .iter()
            .filter(|row| row.contains(r#""status":"done""#))
        {
            journal.append(row).unwrap();
        }
        drop(journal);

        for opts in [compacted, journal_only] {
            let (summary, resumed) = run_studies(&studies, tiny(), &opts, &simulate).unwrap();
            assert_eq!(
                (summary.ran, summary.skipped, summary.failed),
                (3, 18, 0),
                "{opts:?}"
            );
            let resumed: Vec<String> = resumed
                .iter()
                .map(|outcome| printed(outcome.as_ref().expect("folds")))
                .collect();
            assert_eq!(resumed, whole, "{opts:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
