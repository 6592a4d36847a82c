//! `mwn-check` — cross-layer correctness checking for the simulator.
//!
//! Three complementary instruments, all consuming the typed
//! [`TraceEvent`](mwn::trace::TraceEvent) stream that every layer of the
//! stack emits:
//!
//! * **[`checker`]** — runtime invariants spanning PHY, MAC, routing and
//!   transport: monotonic event time, half-duplex radios, EIFS deference
//!   after corrupted receptions, carrier-sense and NAV discipline (checked
//!   geometrically against the same [`Medium`](mwn_phy::Medium) the
//!   simulation uses), AODV destination-sequence monotonicity and
//!   loop-freedom, TCP congestion-window bounds, cumulative-ACK
//!   monotonicity, send-window containment and Vegas `diff` sanity. Every
//!   violation carries the offending trace window for diagnosis.
//! * **[`golden`]** — golden-trace conformance: compact digests (record
//!   count + FNV-1a 64 hash of the JSONL export) of canonical scenarios,
//!   committed under `golden/digests.txt` and regenerated with
//!   `mwn check --bless`. Any behavioral change to any layer shows up as
//!   a digest mismatch.
//! * **[`mod@fuzz`]** — scenario fuzzing: random topologies, rates and
//!   transport mixes drawn through the vendored `proptest` strategies and
//!   run under the invariant checker, with a greedy shrinker that reduces
//!   failing scenarios to minimal reproductions.
//!
//! Everything here is deterministic: a run is a pure function of the
//! scenario and seed, so digests are stable across machines and across
//! `--jobs` parallelism, and every fuzz case can be replayed by index.

pub mod checker;
pub mod fuzz;
pub mod golden;

pub use checker::{check, CheckContext, Violation};
pub use fuzz::{fuzz, FuzzFailure, ScenarioSpec};
pub use golden::{canonical_cases, fast_cases, CanonicalCase, CaseReport};

use mwn::trace::TraceRecord;
use mwn::{Network, Scenario, SimDuration, SimTime};
use mwn_pkt::NodeId;

/// Trace-buffer capacity for checked runs. Sized so no canonical or
/// fuzzed scenario ever evicts a record — [`run_traced`] asserts that.
pub const TRACE_CAPACITY: usize = 1 << 22;

/// Runs `scenario` until `target` packets are delivered (or `deadline`
/// simulated time passes) with tracing and the packet-custody audit on;
/// returns the full trace plus the finished network, so post-run
/// invariants (conservation, counter totals) can inspect final state.
///
/// # Panics
///
/// Panics if the trace buffer overflowed — a truncated trace would make
/// both digests and invariant checks meaningless.
pub fn run_case(
    scenario: &Scenario,
    target: u64,
    deadline: SimDuration,
) -> (Vec<TraceRecord>, Network) {
    let mut net = scenario.build();
    net.enable_trace(TRACE_CAPACITY);
    net.enable_audit();
    let _ = net.run_until_delivered(target, SimTime::ZERO + deadline);
    assert_eq!(
        net.trace_dropped(),
        0,
        "trace buffer overflowed; raise TRACE_CAPACITY"
    );
    let records = net.trace().into_iter().cloned().collect();
    (records, net)
}

/// Runs `scenario` until `target` packets are delivered (or `deadline`
/// simulated time passes) with tracing on, and returns the full trace.
///
/// # Panics
///
/// Panics if the trace buffer overflowed — a truncated trace would make
/// both digests and invariant checks meaningless.
pub fn run_traced(scenario: &Scenario, target: u64, deadline: SimDuration) -> Vec<TraceRecord> {
    run_case(scenario, target, deadline).0
}

/// Converts a failed conservation audit into checker violations: one per
/// imbalanced node or flow (rule `"conservation"`). The flight recorder's
/// tail rides along in the violation window, so the last packet-lifecycle
/// events leading up to the imbalance are visible in diagnostics.
pub fn conservation_violations(net: &Network) -> Vec<Violation> {
    let Some(report) = net.conservation_report() else {
        return Vec::new();
    };
    if report.is_balanced() {
        return Vec::new();
    }
    let window = net.flight_dump();
    let now = net.now();
    let mut out = Vec::new();
    for imb in &report.node_imbalances {
        out.push(Violation {
            rule: "conservation",
            index: out.len(),
            time: now,
            node: NodeId(imb.id as u32),
            message: format!("node custody imbalance: {imb}"),
            window: window.clone(),
        });
    }
    for imb in &report.flow_imbalances {
        out.push(Violation {
            rule: "conservation",
            index: out.len(),
            time: now,
            node: NodeId(0),
            message: format!("flow custody imbalance: {imb}"),
            window: window.clone(),
        });
    }
    out
}

/// Runs `scenario` under the invariant checker (trace rules plus the
/// post-run conservation audit) and returns the violations (empty for a
/// conforming run).
pub fn check_scenario(scenario: &Scenario, target: u64, deadline: SimDuration) -> Vec<Violation> {
    let ctx = CheckContext::for_scenario(scenario);
    let (records, net) = run_case(scenario, target, deadline);
    let mut violations = check(&records, &ctx);
    violations.extend(conservation_violations(&net));
    violations
}
