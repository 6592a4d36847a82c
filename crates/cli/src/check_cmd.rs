//! `mwn check` — run the cross-layer invariant checker and golden-trace
//! conformance over the canonical scenarios, optionally fuzzing random
//! scenarios on top.
//!
//! With `--shards N` the canonical runs execute on the sharded parallel
//! engine; the committed digests don't change, so conformance doubles as
//! a proof that the parallel engine is byte-identical to the sequential
//! oracle. The full suite additionally runs a determinism stress: every
//! case is re-run at shard counts 2 and 8 plus one repeat, every digest
//! line and traffic journal must match the base run exactly, and every
//! sharded pass must actually have run parallel bursts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mwn_check::golden::{conformance, format_digests, parse_digests, BUILTIN_DIGESTS};
use mwn_check::{canonical_cases, fast_cases, fuzz, CanonicalCase, CaseReport};

use crate::args::{parse, reject_leftovers, take_flag, take_value};

/// Where `--bless` writes (and where the build embeds the digests from),
/// relative to the repository root.
const GOLDEN_PATH: &str = "crates/check/golden/digests.txt";

/// Shard counts the full-suite determinism stress re-runs every case at
/// (on top of the base run and one base-shard repeat).
const STRESS_SHARDS: [usize; 2] = [2, 8];

pub fn command(argv: &[String]) -> Result<(), String> {
    let mut argv = argv.to_vec();
    let suite = take_value(&mut argv, "--suite")?.unwrap_or_else(|| "full".to_string());
    let bless = take_flag(&mut argv, "--bless");
    let fuzz_cases: u32 = match take_value(&mut argv, "--fuzz")? {
        Some(v) => parse(&v, "fuzz case count")?,
        None => 0,
    };
    let jobs: usize = match take_value(&mut argv, "--jobs")? {
        Some(v) => parse(&v, "job count")?,
        None => 0,
    };
    let shards: usize = match take_value(&mut argv, "--shards")? {
        Some(v) => parse::<usize>(&v, "shard count")?.max(1),
        None => 1,
    };
    let golden_path = take_value(&mut argv, "--golden")?;
    reject_leftovers(&argv)?;

    // Blessing always regenerates the complete digest file; a partial
    // suite would silently drop the other scenarios' lines. It also
    // always uses the sequential oracle — goldens define the reference
    // behavior the sharded engine is held to.
    if bless && shards > 1 {
        return Err("--bless records the sequential oracle (drop --shards)".to_string());
    }
    let cases = if bless {
        canonical_cases()
    } else {
        match suite.as_str() {
            "full" => canonical_cases(),
            "fast" => fast_cases(),
            other => return Err(format!("unknown suite {other:?} (use fast or full)")),
        }
    };

    let runs = run_cases(&cases, jobs, shards);
    let mut failures = 0usize;
    for (report, _) in &runs {
        for v in &report.violations {
            failures += 1;
            print!("{v}");
        }
    }

    if bless {
        if failures > 0 {
            return Err(format!(
                "{failures} invariant violation(s); refusing to bless a non-conforming trace"
            ));
        }
        let reports: Vec<CaseReport> = runs.into_iter().map(|(r, _)| r).collect();
        let path = golden_path.unwrap_or_else(|| GOLDEN_PATH.to_string());
        std::fs::write(&path, format_digests(&reports))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("blessed {} scenario digests -> {path}", reports.len());
        return Ok(());
    }

    let from_file;
    let golden_text = match &golden_path {
        Some(path) => {
            from_file =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            from_file.as_str()
        }
        None => BUILTIN_DIGESTS,
    };
    let golden = parse_digests(golden_text)?;
    for (report, _) in &runs {
        match conformance(report, &golden) {
            Some(msg) => {
                failures += 1;
                println!("FAIL {}: {msg}", report.name);
            }
            None => println!("ok   {} ({} records)", report.name, report.count),
        }
    }

    // Determinism stress (full suite only): the committed digests pin
    // the sequential behavior; this pins the *equivalence* — every case
    // byte-identical across shard counts and across repeated runs.
    if suite == "full" {
        failures += determinism_stress(&cases, &runs, jobs, shards);
    }

    if fuzz_cases > 0 {
        match fuzz("mwn-check-cli", fuzz_cases) {
            Ok(n) => println!("fuzz: {n} cases, no violations"),
            Err(failure) => {
                failures += 1;
                print!("{failure}");
            }
        }
    }

    if failures > 0 {
        Err(format!("{failures} check failure(s)"))
    } else {
        Ok(())
    }
}

/// One canonical run: the report plus the open-loop traffic journal
/// digest (`None` for closed-loop cases).
type CaseRun = (CaseReport, Option<(u64, u64)>);

/// Re-runs every case at [`STRESS_SHARDS`] worker counts plus one repeat
/// at `base_shards`, comparing digest lines and traffic journals against
/// the base `runs`. Returns the number of mismatches.
fn determinism_stress(
    cases: &[CanonicalCase],
    runs: &[CaseRun],
    jobs: usize,
    base_shards: usize,
) -> usize {
    let mut failures = 0;
    let mut passes: Vec<usize> = STRESS_SHARDS.to_vec();
    passes.push(base_shards); // repeat: same engine, run twice
    for shards in passes {
        let rerun = run_cases(cases, jobs, shards);
        let mut mismatches = 0;
        for ((base, base_journal), (again, journal)) in runs.iter().zip(&rerun) {
            if base.digest_line() != again.digest_line() {
                mismatches += 1;
                println!(
                    "FAIL determinism {} shards={shards}: {} != {}",
                    base.name,
                    again.digest_line(),
                    base.digest_line()
                );
            }
            if base_journal != journal {
                mismatches += 1;
                println!(
                    "FAIL determinism {} shards={shards}: traffic journal {journal:?} != {base_journal:?}",
                    base.name
                );
            }
        }
        // Engagement: a sharded pass whose every wave fell below the
        // burst threshold only ever ran the oracle against itself.
        let bursts: u64 = rerun.iter().map(|(r, _)| r.bursts).sum();
        if shards > 1 && bursts == 0 {
            mismatches += 1;
            println!("FAIL determinism shards={shards}: no case engaged the parallel engine");
        }
        if mismatches == 0 {
            println!(
                "ok   determinism shards={shards} ({} cases, {bursts} bursts)",
                cases.len()
            );
        }
        failures += mismatches;
    }
    failures
}

/// Runs the canonical cases on `jobs` worker threads (0 = one per CPU),
/// preserving case order in the returned reports. Each case itself runs
/// on `shards` engine workers (1 = the sequential oracle).
fn run_cases(cases: &[CanonicalCase], jobs: usize, shards: usize) -> Vec<CaseRun> {
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    }
    .min(cases.len().max(1));

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CaseRun>>> = Mutex::new((0..cases.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(case) = cases.get(i) else { break };
                let run = case.run_sharded(shards);
                slots.lock().unwrap()[i] = Some(run);
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every case ran"))
        .collect()
}
