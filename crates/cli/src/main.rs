//! `mwn` — command-line front end for the multihop-wireless TCP study.
//!
//! ```text
//! mwn repro <experiment|all> [--scale N] [--jobs N] [--csv]   regenerate paper figures/tables
//! mwn sweep [--suite chain|full|traffic|load] [--jobs N] [--out F]  parallel sweep into a JSONL store
//! mwn run [options]                                           run one scenario, print measures
//! mwn stats [options]                                         run instrumented, print metrics
//! mwn list                                                    list reproducible experiments
//! mwn trace [--hops H] [--events N] [--format text|jsonl]     print an annotated event trace
//! mwn check [--suite fast|full] [--bless] [--fuzz N]          invariants + golden-trace conformance
//! mwn bench [--quick] [--check] [--record LABEL]              engine wall time vs committed baseline
//! mwn traffic [--nodes N] [--flows F] [--profile P]           open-loop workload, per-class FCT percentiles
//! mwn report [--store F] [--csv] [--curve] [--diff F2]        aggregate/diff a sweep's JSONL store
//! ```

use std::process::ExitCode;

use mwn::mobility::RandomWaypoint;
use mwn::SimDuration;

mod bench_cmd;
mod check_cmd;
mod report_cmd;
mod repro;
mod run;
mod stats_cmd;
mod sweep;
mod trace_cmd;
mod traffic_cmd;

/// Random-waypoint mobility over a `(width, height)` m field, as every
/// mobile bench case and `mwn stats --topology random200|random500` run
/// it: 1–10 m/s, 2 s pauses, 100 ms position ticks.
pub(crate) fn waypoints((width, height): (f64, f64)) -> RandomWaypoint {
    let strip = RandomWaypoint::strip(10.0, SimDuration::from_secs(2));
    RandomWaypoint {
        width,
        height,
        ..strip
    }
}

/// Why a command failed: its arguments, refused before anything ran, or
/// the run itself (a gate, a job, a store, a study). Both exit 2; only
/// bad arguments are followed by the usage text.
pub(crate) enum Failure {
    Usage(String),
    Run(String),
}

impl<T: Into<String>> From<T> for Failure {
    fn from(msg: T) -> Self {
        Failure::Usage(msg.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("repro") => repro::command(&args[1..]),
        Some("sweep") => sweep::command(&args[1..]),
        Some("run") => run::command(&args[1..]).map_err(Failure::Usage),
        Some("stats") => stats_cmd::command(&args[1..]).map_err(Failure::Usage),
        Some("list") => {
            print!("{}", repro::listing());
            Ok(())
        }
        Some("trace") => trace_cmd::command(&args[1..]).map_err(Failure::Usage),
        Some("check") => check_cmd::command(&args[1..]),
        Some("bench") => bench_cmd::command(&args[1..]),
        Some("traffic") => traffic_cmd::command(&args[1..]),
        Some("report") => report_cmd::command(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}").into()),
    };
    match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            print_usage();
        }
        Err(Failure::Run(msg)) => eprintln!("error: {msg}"),
    }
    ExitCode::from(2)
}

fn print_usage() {
    println!(
        "mwn — TCP over multihop wireless 802.11, reproduction of \
         ElRakabawy/Lindemann/Vernon (DSN 2005)\n\n\
         USAGE:\n\
         \x20 mwn repro <experiment|all> [--scale N] [--jobs N] [--csv]\n\
         \x20     Regenerate a paper figure/table (see `mwn list`).\n\
         \x20     --scale N   batch size multiplier (1 = quick, 25 = paper scale)\n\
         \x20     --jobs N    worker threads for the studies' jobs (0 = one per CPU, default)\n\
         \x20     --csv       emit CSV instead of aligned text\n\n\
         \x20 mwn sweep [--suite chain|full|traffic|load] [--jobs N] [--out results.jsonl] [--scale N]\n\
         \x20           [--metrics]\n\
         \x20     Run a suite of experiment jobs on a worker pool, appending\n\
         \x20     results to a JSONL store. Re-running with the same --out\n\
         \x20     resumes: completed jobs are skipped, failed ones retried.\n\
         \x20     --metrics   attach per-batch counter deltas and an engine\n\
         \x20                 profile to every result row\n\n\
         \x20 mwn run [--topology chain|grid|random] [--hops H] [--rate 2|5.5|11]\n\
         \x20         [--transport vegas|vegas-thin|newreno|newreno-thin|reno|tahoe|optwin|udp]\n\
         \x20         [--seed S] [--scale N]\n\
         \x20     Run one scenario and print the steady-state measures.\n\n\
         \x20 mwn stats [--topology chain|grid|random|random200|random500]\n\
         \x20           [--hops H] [--rate 2|5.5|11]\n\
         \x20           [--transport <variant>] [--seed S] [--scale N] [--series N]\n\
         \x20     Run one scenario with the observability layer on: unified\n\
         \x20     per-layer counters, per-batch dropping probability (Fig. 14),\n\
         \x20     a cwnd-vs-time series (Figs. 3-4) and the engine profile\n\
         \x20     (random200/random500 run under waypoint mobility and report\n\
         \x20     the medium_tick/medium_lazy timed sections).\n\n\
         \x20 mwn trace [--hops H] [--events N] [--transport <variant>]\n\
         \x20           [--rate 2|5.5|11] [--format text|jsonl]\n\
         \x20     Show the annotated event trace of a chain's first packets.\n\n\
         \x20 mwn check [--suite fast|full] [--bless] [--fuzz N] [--jobs N] [--golden F]\n\
         \x20     Run the canonical scenarios under the cross-layer invariant\n\
         \x20     checker and compare trace digests against the committed\n\
         \x20     golden file. The full suite adds a determinism repeat:\n\
         \x20     every case run twice, digests and traffic journals equal.\n\
         \x20     --bless regenerates the digests (full suite, refused if\n\
         \x20     any invariant fails); --fuzz N adds N random checked\n\
         \x20     scenarios with shrinking on failure.\n\n\
         \x20 mwn bench [--quick] [--check] [--record LABEL] [--repeat N] [--out F]\n\
         \x20     Measure engine wall time and events/sec on the canonical\n\
         \x20     benchmark scenarios and compare against the committed\n\
         \x20     baseline in BENCH_engine.json. --record appends this run\n\
         \x20     to the baseline file; --check fails when a scenario's\n\
         \x20     wall time is >20% slower than the baseline's, its\n\
         \x20     events per delivered packet grew >1% or its medium\n\
         \x20     list builds or rebuilds grew at all\n\
         \x20     (CI sets MWN_BENCH_SKIP=1 on machines too noisy to gate).\n\n\
         \x20 mwn traffic [--nodes N] [--flows F] [--profile web|mixed|heavy]\n\
         \x20             [--load F] [--transport <variant>] [--rate 2|5.5|11]\n\
         \x20             [--seed S] [--reps R] [--jobs N] [--deadline SECS] [--json]\n\
         \x20     Drive an open-loop workload (finite flows, flow churn) over\n\
         \x20     a connected random topology until every flow completes, and\n\
         \x20     print the journal digests and the run report: per-layer\n\
         \x20     counters, the summed TCP statistics of completed flows, the\n\
         \x20     drop ledger, per-class FCT percentiles and goodput\n\
         \x20     (bit-identical across --jobs worker counts). --json prints\n\
         \x20     one JSON object per replication.\n\n\
         \x20 mwn report [--store results.jsonl] [--scenario S] [--variant V] [--seed N]\n\
         \x20            [--csv] [--curve] [--diff OTHER.jsonl]\n\
         \x20     Aggregate a sweep's JSONL store: per-cell goodput, summed\n\
         \x20     drop ledgers and averaged FCT percentiles across\n\
         \x20     replications, as aligned tables or CSV. --curve renders the\n\
         \x20     FCT-vs-offered-load relation from a `--suite load` sweep;\n\
         \x20     --diff compares two stores cell by cell (A/B).\n\n\
         \x20 mwn list\n\
         \x20     List the reproducible experiments."
    );
}

/// Shared argument helpers.
pub(crate) mod args {
    use mwn::{ExperimentScale, Scenario, SimDuration, Transport};
    use mwn_phy::DataRate;

    /// The scenario flags `run` and `stats` share.
    pub struct ScenarioArgs {
        pub topology: String,
        hops: usize,
        pub bandwidth: DataRate,
        pub transport: Transport,
        pub seed: u64,
        pub scale: ExperimentScale,
    }

    /// Extracts `--topology` (default chain), `--hops` (chain only),
    /// `--rate` (default 2), `--transport`, `--seed` (default 42) and
    /// `--scale`; each command passes its own hop and transport defaults.
    pub fn take_scenario(
        argv: &mut Vec<String>,
        default_hops: usize,
        default_transport: &str,
    ) -> Result<ScenarioArgs, String> {
        let topology = take_value(argv, "--topology")?.unwrap_or_else(|| "chain".into());
        if topology != "chain" && argv.iter().any(|a| a == "--hops") {
            return Err(format!(
                "--hops applies only to --topology chain, not {topology:?}"
            ));
        }
        let hops: usize = take_parsed(argv, "--hops", "hop count", default_hops)?;
        if hops == 0 {
            return Err("--hops must be positive".into());
        }
        let (bandwidth, transport) = take_link(argv, "2", default_transport)?;
        let seed: u64 = take_parsed(argv, "--seed", "seed", 42)?;
        let scale = ExperimentScale::scaled(take_count(argv, "--scale", "scale")?);
        Ok(ScenarioArgs {
            topology,
            hops,
            bandwidth,
            transport,
            seed,
            scale,
        })
    }

    impl ScenarioArgs {
        /// The chain, grid or random preset; `None` for any other
        /// `--topology`.
        pub fn preset(&self) -> Option<Scenario> {
            let (bandwidth, transport, seed) = (self.bandwidth, self.transport, self.seed);
            match self.topology.as_str() {
                "chain" => Some(Scenario::chain(self.hops, bandwidth, transport, seed)),
                "grid" => Some(Scenario::grid6(bandwidth, transport, seed)),
                "random" => Some(Scenario::random10(bandwidth, transport, seed)),
                _ => None,
            }
        }

        /// Prints the one-line run banner to stderr.
        pub fn announce(&self, scenario: &Scenario) {
            eprintln!(
                "{} | {} nodes, {} flow(s), {}, seed {}, {} batches x {} packets",
                scenario.flows[0].transport.label(),
                scenario.topology.len(),
                scenario.flows.len(),
                self.bandwidth,
                self.seed,
                self.scale.batches,
                self.scale.batch_packets,
            );
        }
    }

    /// Extracts `--rate` (Mbit/s) and `--transport`, falling back to the
    /// command's defaults; every command that takes either flag parses
    /// both here.
    pub fn take_link(
        argv: &mut Vec<String>,
        default_rate: &str,
        default_transport: &str,
    ) -> Result<(DataRate, Transport), String> {
        let rate = take_value(argv, "--rate")?.unwrap_or_else(|| default_rate.into());
        let transport =
            take_value(argv, "--transport")?.unwrap_or_else(|| default_transport.into());
        Ok((parse_rate(&rate)?, parse_transport(&transport)?))
    }

    /// Parses a bandwidth argument (Mbit/s) into a PHY data rate.
    fn parse_rate(mbits: &str) -> Result<DataRate, String> {
        match mbits {
            "2" => Ok(DataRate::MBPS_2),
            "5.5" => Ok(DataRate::MBPS_5_5),
            "11" => Ok(DataRate::MBPS_11),
            other => Err(format!(
                "unsupported bandwidth {other:?} (use 2, 5.5 or 11)"
            )),
        }
    }

    /// Parses a transport-variant name.
    fn parse_transport(variant: &str) -> Result<Transport, String> {
        match variant {
            "vegas" => Ok(Transport::vegas(2)),
            "vegas-thin" => Ok(Transport::vegas_thinning(2)),
            "newreno" => Ok(Transport::newreno()),
            "newreno-thin" => Ok(Transport::newreno_thinning()),
            "reno" => Ok(Transport::reno()),
            "tahoe" => Ok(Transport::tahoe()),
            "optwin" => Ok(Transport::newreno_optimal_window(3)),
            "udp" => Ok(Transport::paced_udp(SimDuration::from_millis(2))),
            other => Err(format!("unknown variant {other:?}")),
        }
    }

    /// Extracts `--key value` from `argv`, returning the remaining args.
    pub fn take_value(argv: &mut Vec<String>, key: &str) -> Result<Option<String>, String> {
        if let Some(pos) = argv.iter().position(|a| a == key) {
            if pos + 1 >= argv.len() {
                return Err(format!("{key} needs a value"));
            }
            let value = argv.remove(pos + 1);
            argv.remove(pos);
            Ok(Some(value))
        } else {
            Ok(None)
        }
    }

    /// Extracts `key V` parsed as a `what`, or `default` without the flag.
    pub fn take_parsed<T: std::str::FromStr>(
        argv: &mut Vec<String>,
        key: &str,
        what: &str,
        default: T,
    ) -> Result<T, String> {
        take_value(argv, key)?.map_or(Ok(default), |v| parse(&v, what))
    }

    /// Extracts a count `key N` (default 1) that must be at least 1: a
    /// zero `--scale`, `--reps` or `--repeat` would otherwise quietly run
    /// once.
    pub fn take_count(argv: &mut Vec<String>, key: &str, what: &str) -> Result<u64, String> {
        match take_parsed(argv, key, what, 1)? {
            0 => Err(format!("{key} must be at least 1")),
            n => Ok(n),
        }
    }

    /// Extracts a boolean `--flag`.
    pub fn take_flag(argv: &mut Vec<String>, key: &str) -> bool {
        if let Some(pos) = argv.iter().position(|a| a == key) {
            argv.remove(pos);
            true
        } else {
            false
        }
    }

    pub fn parse<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("invalid {what}: {value:?}"))
    }

    pub fn reject_leftovers(argv: &[String]) -> Result<(), String> {
        if let Some(first) = argv.first() {
            Err(format!("unrecognized argument {first:?}"))
        } else {
            Ok(())
        }
    }
}
