//! Golden-trace conformance of the fast canonical scenarios, run as a
//! plain test so `cargo test` catches behavioral drift even when the
//! `mwn check` CLI step is skipped. The full 10-scenario suite runs in
//! CI via `mwn check`.

use mwn_check::golden::{canonical_cases, conformance, parse_digests, BUILTIN_DIGESTS};
use mwn_check::{fast_cases, run_traced};

#[test]
fn fast_canonical_cases_match_committed_digests() {
    let golden = parse_digests(BUILTIN_DIGESTS).expect("committed digests parse");
    for case in fast_cases() {
        let report = case.run();
        assert!(
            report.violations.is_empty(),
            "{}: invariant violations: {:?}",
            case.name,
            report.violations
        );
        if let Some(msg) = conformance(&report, &golden) {
            panic!("{}: {msg}", case.name);
        }
    }
}

/// The whole 10-scenario canonical suite (what `mwn check --suite full`
/// runs) against the committed digests. This is the strongest guard the
/// repo has against engine refactors that change behavior: the event
/// queue, the shared in-flight frame table and the pooled dispatch
/// buffers must reproduce every golden trace byte-for-byte.
#[test]
fn full_canonical_suite_matches_committed_digests() {
    let golden = parse_digests(BUILTIN_DIGESTS).expect("committed digests parse");
    for case in canonical_cases() {
        let report = case.run();
        assert!(
            report.violations.is_empty(),
            "{}: invariant violations: {:?}",
            case.name,
            report.violations
        );
        if let Some(msg) = conformance(&report, &golden) {
            panic!("{}: {msg}", case.name);
        }
    }
}

/// Any change to any traced layer must change the digest: re-running a
/// canonical scenario with a different delivery target yields a
/// different trace, and the digest catches it.
#[test]
fn digest_detects_a_changed_trace() {
    use mwn_check::golden::trace_digest;
    let case = &fast_cases()[0];
    let full = run_traced(&case.scenario(), case.target, case.deadline);
    let short = run_traced(&case.scenario(), case.target / 2, case.deadline);
    assert_ne!(trace_digest(&full), trace_digest(&short));
}

/// The determinism repeat `mwn check --suite full` performs, as a plain
/// test: a run is a pure function of its scenario, so running a case
/// twice yields the same digest line and — for the open-loop case — the
/// same traffic completion journal.
#[test]
fn repeated_runs_yield_identical_digests_and_traffic_journals() {
    let mut journals = 0;
    for case in fast_cases() {
        let (first, again) = (case.run(), case.run());
        assert_eq!(first.digest_line(), again.digest_line());
        assert_eq!(first.traffic_journal, again.traffic_journal);
        journals += usize::from(first.traffic_journal.is_some());
    }
    assert!(journals > 0, "the fast suite lost its open-loop case");
}
