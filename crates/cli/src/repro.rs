//! `mwn repro` — regenerate the paper's figures and tables.

use mwn::experiments::{Curve, Printout, Study, STUDIES};
use mwn::jobs::JobSpec;
use mwn::{ExperimentScale, RunResults};
use mwn_runner::{pool, simulate, worker_count};

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
    let workers = worker_count(args::take_parsed(&mut argv, "--jobs", "job count", 0)?);
    let csv = args::take_flag(&mut argv, "--csv");
    let Some(which) = argv.first().cloned() else {
        return Err("repro needs an experiment id (see `mwn list`)".into());
    };
    argv.remove(0);
    args::reject_leftovers(&argv)?;

    let selected: Vec<&Study> = STUDIES
        .iter()
        .filter(|study| which == "all" || study.id == which)
        .collect();
    if selected.is_empty() {
        return Err(format!("unknown experiment {which:?} (see `mwn list`)").into());
    }
    for study in &selected {
        eprintln!("[{}] {} (scale x{mult})...", study.id, study.description);
    }

    let mut failed = Vec::new();
    let outcomes = run_studies(&selected, ExperimentScale::scaled(mult), workers, simulate);
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

/// Runs the studies' jobs through `exec` as one list, in study order, on
/// `workers` threads, and folds each study from its own results. A study
/// with a job that panicked is not folded: its entry lists
/// `"<point>: <panic message>"` per failed job instead.
fn run_studies(
    studies: &[&Study],
    scale: ExperimentScale,
    workers: usize,
    exec: fn(&JobSpec) -> RunResults,
) -> Vec<Result<Printout, Vec<String>>> {
    let grids: Vec<_> = studies.iter().map(|study| (study.grid)(scale)).collect();
    let jobs: Vec<JobSpec> = grids
        .iter()
        .flatten()
        .flat_map(|series| series.points.iter().map(|(_, job)| job.clone()))
        .collect();
    let mut results = pool::parallel_map(jobs, workers, exec).into_iter();
    studies
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
                        .zip(results.by_ref())
                        .filter_map(|((x, job), result)| match result {
                            Ok(r) => Some((x, (job, r))),
                            Err(msg) => {
                                failures.push(format!("{}: {msg}", job.point));
                                None
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
        .collect()
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

    /// `fig4` and `ext-elfn` (the fold that pools three layouts per
    /// point), folded from the pool at one and at two workers, print
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
                let pooled = run_studies(&[study], scale, workers, simulate).remove(0);
                let pooled = pooled.unwrap_or_else(|e| panic!("{id}: {e:?}"));
                assert_eq!(csv(&pooled), csv(&alone), "{id} at {workers} worker(s)");
            }
        }
    }

    /// A panicking job fails the study that needs it, naming the job's
    /// point; the study after it still folds from its own runs.
    #[test]
    fn a_failed_job_fails_only_its_study() {
        fn alpha3_panics(job: &JobSpec) -> RunResults {
            assert!(!job.point.starts_with("alpha=3"), "planted failure");
            simulate(job)
        }
        let studies = [study("fig4"), study("fig10")];
        let mut outcomes = run_studies(&studies, tiny(), 2, alpha3_panics).into_iter();
        let failures = outcomes.next().unwrap().expect_err("fig4 fails");
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(
            failures[0].starts_with("alpha=3 bw=2Mbit/s: ")
                && failures[0].ends_with("planted failure"),
            "{failures:?}"
        );
        let fig10 = outcomes.next().unwrap().expect("fig10 folds");
        let alone = run_studies(&studies[1..], tiny(), 1, simulate)
            .remove(0)
            .unwrap();
        assert_eq!(fig10.0[0].to_csv(), alone.0[0].to_csv());
    }
}
