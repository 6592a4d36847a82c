//! `mwn repro` — regenerate the paper's figures and tables.

use mwn::experiments::{self, FigureData, TableData};
use mwn::ExperimentScale;
use mwn_runner::pool;

use crate::args;

/// What one experiment produces: its figures and tables.
type Output = (Vec<FigureData>, Vec<TableData>);

/// One reproducible experiment: id, description, producer.
type Producer = fn(ExperimentScale) -> Output;

fn catalog() -> Vec<(&'static str, &'static str, Producer)> {
    vec![
        ("table2", "4-hop propagation delay per bandwidth", |_s| {
            (vec![], vec![experiments::table2()])
        }),
        (
            "fig2-3",
            "Vegas alpha sweep: goodput and window vs hops",
            |s| {
                let (a, b) = experiments::figs_2_3(s);
                (vec![a, b], vec![])
            },
        ),
        ("fig4", "Vegas goodput vs bandwidth (7 hops)", |s| {
            (vec![experiments::fig4(s)], vec![])
        }),
        ("fig5", "Vegas with ACK thinning vs hops", |s| {
            (vec![experiments::fig5(s)], vec![])
        }),
        (
            "fig6-9",
            "chain study: goodput/retx/window/route failures",
            |s| (experiments::figs_6_to_9(s).to_vec(), vec![]),
        ),
        ("fig10", "paced-UDP rate sweep (7 hops)", |s| {
            (vec![experiments::fig10(s)], vec![])
        }),
        ("fig11-14", "7-hop chain across bandwidths", |s| {
            (experiments::figs_11_to_14(s).to_vec(), vec![])
        }),
        ("fig16-17", "grid topology + Table 3 fairness", |s| {
            let (a, b, t) = experiments::grid_study(s);
            (vec![a, b], vec![t])
        }),
        ("fig18-19", "random topology + Table 4 fairness", |s| {
            let (a, b, t) = experiments::random_study(s);
            (vec![a, b], vec![t])
        }),
        ("ablation-capture", "physical capture on/off", |s| {
            (vec![experiments::ablation_capture(s)], vec![])
        }),
        (
            "ablation-basic-rate",
            "control frames at basic vs data rate",
            |s| (vec![experiments::ablation_basic_rate(s)], vec![]),
        ),
        (
            "ablation-cs-range",
            "carrier-sense range vs hidden terminals",
            |s| (vec![experiments::ablation_cs_range(s)], vec![]),
        ),
        ("ext-fu", "Fu et al. link-layer pacing + RED", |s| {
            (vec![experiments::extension_fu_enhancements(s)], vec![])
        }),
        ("ext-variants", "Tahoe/Reno/NewReno/Vegas comparison", |s| {
            (vec![experiments::extension_tcp_variants(s)], vec![])
        }),
        ("ext-optwin", "optimal window bound vs h/4 law", |s| {
            (vec![experiments::extension_optimal_window(s)], vec![])
        }),
        ("ext-80211g", "802.11g OFDM rates", |s| {
            (vec![experiments::extension_80211g(s)], vec![])
        }),
    ]
}

/// Prints the experiment catalog.
pub fn list() {
    println!("{:<20} description", "experiment");
    for (id, desc, _) in catalog() {
        println!("{id:<20} {desc}");
    }
    println!("{:<20} run every experiment above", "all");
}

pub fn command(rest: &[String]) -> Result<(), String> {
    let mut argv: Vec<String> = rest.to_vec();
    let mult = args::take_scale(&mut argv)?;
    let jobs: usize = match args::take_value(&mut argv, "--jobs")? {
        Some(v) => mwn_runner::worker_count(args::parse(&v, "job count")?),
        None => 1,
    };
    let csv = args::take_flag(&mut argv, "--csv");
    let Some(which) = argv.first().cloned() else {
        return Err("repro needs an experiment id (see `mwn list`)".into());
    };
    argv.remove(0);
    args::reject_leftovers(&argv)?;

    let scale = ExperimentScale::scaled(mult);

    let catalog = catalog();
    let selected: Vec<_> = if which == "all" {
        catalog
    } else {
        let found: Vec<_> = catalog
            .into_iter()
            .filter(|(id, _, _)| *id == which)
            .collect();
        if found.is_empty() {
            return Err(format!("unknown experiment {which:?} (see `mwn list`)"));
        }
        found
    };

    // Experiments are independent, so they run on a worker pool (one
    // worker by default); output is collected and printed in catalog
    // order whatever the worker count.
    let mut produced: Vec<Option<Result<Output, String>>> = selected.iter().map(|_| None).collect();
    pool::run(
        selected.clone(),
        jobs,
        |(_, _, produce)| produce(scale),
        |event| match event {
            pool::Event::Started { index, .. } => {
                let (id, desc, _) = selected[index];
                eprintln!("[{id}] {desc} (scale x{mult})...");
            }
            pool::Event::Finished { index, result, .. } => produced[index] = Some(result),
        },
    );

    let mut failures = Vec::new();
    for ((id, _, _), outcome) in selected.into_iter().zip(produced) {
        let (figures, tables) = match outcome.expect("pool finished every experiment") {
            Ok(data) => data,
            Err(panic) => {
                eprintln!("[{id}] FAILED: {panic}");
                failures.push(id);
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
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("experiment(s) failed: {}", failures.join(", ")))
    }
}
