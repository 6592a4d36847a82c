//! `mwn check` — run the cross-layer invariant checker and golden-trace
//! conformance over the canonical scenarios, optionally fuzzing random
//! scenarios on top.
//!
//! The full suite additionally runs a determinism repeat: every case is
//! run a second time, and every digest line and traffic journal must
//! match the first run exactly.

use mwn_check::golden::{conformance, format_digests, parse_digests, BUILTIN_DIGESTS};
use mwn_check::{canonical_cases, fast_cases, fuzz, CanonicalCase, CaseReport};
use mwn_runner::pool;

use crate::args::{parse, reject_leftovers, take_flag, take_value};

/// Where `--bless` writes (and where the build embeds the digests from),
/// relative to the repository root.
const GOLDEN_PATH: &str = "crates/check/golden/digests.txt";

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
    let golden_path = take_value(&mut argv, "--golden")?;
    reject_leftovers(&argv)?;

    // Blessing always regenerates the complete digest file; a partial
    // suite would silently drop the other scenarios' lines.
    let cases = if bless {
        canonical_cases()
    } else {
        match suite.as_str() {
            "full" => canonical_cases(),
            "fast" => fast_cases(),
            other => return Err(format!("unknown suite {other:?} (use fast or full)")),
        }
    };

    let mut failures = 0usize;
    let reports = run_cases(&cases, jobs, &mut failures);
    for report in &reports {
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
    for report in &reports {
        match conformance(report, &golden) {
            Some(msg) => {
                failures += 1;
                println!("FAIL {}: {msg}", report.name);
            }
            None => println!("ok   {} ({} records)", report.name, report.count),
        }
    }

    // Determinism repeat (full suite only): the committed digests pin
    // the behavior; this pins that a run is a pure function of its
    // scenario — every case byte-identical when run again.
    if suite == "full" {
        failures += determinism_repeat(&cases, &reports, jobs);
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

/// Re-runs every case once, comparing digest lines and traffic journals
/// against the first `reports`. Returns the number of mismatches.
fn determinism_repeat(cases: &[CanonicalCase], reports: &[CaseReport], jobs: usize) -> usize {
    let mut mismatches = 0;
    let repeated = run_cases(cases, jobs, &mut mismatches);
    for base in reports {
        // A case that panicked on either run is already counted.
        let Some(again) = repeated.iter().find(|r| r.name == base.name) else {
            continue;
        };
        if base.digest_line() != again.digest_line() {
            mismatches += 1;
            println!(
                "FAIL determinism {}: {} != {}",
                base.name,
                again.digest_line(),
                base.digest_line()
            );
        }
        if base.traffic_journal != again.traffic_journal {
            mismatches += 1;
            println!(
                "FAIL determinism {}: traffic journal {:?} != {:?}",
                base.name, again.traffic_journal, base.traffic_journal
            );
        }
    }
    if mismatches == 0 {
        println!("ok   determinism repeat ({} cases)", cases.len());
    }
    mismatches
}

/// Runs the canonical cases on `jobs` worker threads (0 = one per CPU),
/// preserving case order in the returned reports. A case that panics is
/// printed as `FAIL <name>: <message>`, counted in `failures` and left
/// out of the reports.
fn run_cases(cases: &[CanonicalCase], jobs: usize, failures: &mut usize) -> Vec<CaseReport> {
    let workers = mwn_runner::worker_count(jobs);
    let results = pool::parallel_map(cases.iter().collect(), workers, |case| case.run());
    cases
        .iter()
        .zip(results)
        .filter_map(|(case, result)| match result {
            Ok(report) => Some(report),
            Err(msg) => {
                *failures += 1;
                println!("FAIL {}: {msg}", case.name);
                None
            }
        })
        .collect()
}
