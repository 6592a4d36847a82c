//! Golden-trace conformance.
//!
//! Each canonical scenario is summarized by a compact digest — the trace
//! record count plus an FNV-1a 64 hash over the JSONL export — committed
//! in `golden/digests.txt`. Because every run is a pure function of
//! (scenario, seed), the digests are stable across machines, runs and
//! `--jobs` parallelism; any behavioral change anywhere in the stack
//! (PHY timing, MAC contention, routing decisions, TCP dynamics, trace
//! serialization) changes at least one digest. Regenerate deliberately
//! with `mwn check --bless` and review the diff like any other golden
//! file.

use std::collections::BTreeMap;

use mwn::trace::TraceRecord;
use mwn::{Scenario, SimDuration, TrafficModel, Transport};
use mwn_phy::DataRate;

use crate::checker::{check, CheckContext, Violation};

/// The committed digests, compiled in so `mwn check` works from any
/// working directory.
pub const BUILTIN_DIGESTS: &str = include_str!("../golden/digests.txt");

/// The names of the cheap cases CI runs on every push (`--suite fast`).
pub const FAST_NAMES: [&str; 4] = [
    "chain1-newreno-2m",
    "chain2-vegas-2m",
    "chain2-udp-2m",
    "traffic10-web-11m",
];

/// One canonical scenario with a committed trace digest.
pub struct CanonicalCase {
    /// Stable name, the key in `golden/digests.txt`.
    pub name: &'static str,
    /// Delivery target passed to the run.
    pub target: u64,
    /// Simulated-time deadline for the run.
    pub deadline: SimDuration,
    build: fn() -> Scenario,
}

impl CanonicalCase {
    /// Builds the case's scenario.
    pub fn scenario(&self) -> Scenario {
        (self.build)()
    }

    /// Runs the case: trace, digest, invariant check and the post-run
    /// packet-custody conservation audit.
    pub fn run(&self) -> CaseReport {
        let scenario = self.scenario();
        let (records, net) = crate::run_case(&scenario, self.target, self.deadline);
        let ctx = CheckContext::for_scenario(&scenario);
        let mut violations = check(&records, &ctx);
        violations.extend(crate::conservation_violations(&net));
        let (count, hash) = trace_digest(&records);
        CaseReport {
            name: self.name,
            count,
            hash,
            violations,
            traffic_journal: net.traffic_digest(),
        }
    }
}

/// The outcome of running one canonical case.
pub struct CaseReport {
    /// The case's name.
    pub name: &'static str,
    /// Trace record count.
    pub count: u64,
    /// FNV-1a 64 over the JSONL trace lines.
    pub hash: u64,
    /// Invariant violations (empty for a correct stack).
    pub violations: Vec<Violation>,
    /// The open-loop traffic completion-journal digest (`None` for
    /// closed-loop cases), so a determinism repeat can hold the journal —
    /// not just the trace — identical.
    pub traffic_journal: Option<(u64, u64)>,
}

impl CaseReport {
    /// The digest file line for this report.
    pub fn digest_line(&self) -> String {
        format!("{} {} {:016x}", self.name, self.count, self.hash)
    }
}

/// All canonical scenarios, covering every transport variant, the three
/// PHY rates, the paper's three topology families and the open-loop
/// traffic extension (finite flows churning through the flow table).
pub fn canonical_cases() -> Vec<CanonicalCase> {
    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }
    vec![
        CanonicalCase {
            name: "chain1-newreno-2m",
            target: 50,
            deadline: secs(30),
            build: || Scenario::chain(1, DataRate::MBPS_2, Transport::newreno(), 1),
        },
        CanonicalCase {
            name: "chain2-vegas-2m",
            target: 50,
            deadline: secs(30),
            build: || Scenario::chain(2, DataRate::MBPS_2, Transport::vegas(2), 1),
        },
        CanonicalCase {
            name: "chain2-udp-2m",
            target: 100,
            deadline: secs(30),
            build: || {
                Scenario::chain(
                    2,
                    DataRate::MBPS_2,
                    Transport::paced_udp(SimDuration::from_millis(5)),
                    1,
                )
            },
        },
        CanonicalCase {
            name: "chain2-reno-5m",
            target: 50,
            deadline: secs(30),
            build: || Scenario::chain(2, DataRate::MBPS_5_5, Transport::reno(), 1),
        },
        CanonicalCase {
            name: "chain3-newreno-11m",
            target: 50,
            deadline: secs(30),
            build: || Scenario::chain(3, DataRate::MBPS_11, Transport::newreno(), 1),
        },
        CanonicalCase {
            name: "chain3-tahoe-2m",
            target: 40,
            deadline: secs(40),
            build: || Scenario::chain(3, DataRate::MBPS_2, Transport::tahoe(), 1),
        },
        CanonicalCase {
            name: "chain4-vegas-thin-2m",
            target: 40,
            deadline: secs(40),
            build: || Scenario::chain(4, DataRate::MBPS_2, Transport::vegas_thinning(2), 1),
        },
        CanonicalCase {
            name: "chain7-optwin-2m",
            target: 30,
            deadline: secs(60),
            build: || Scenario::chain(7, DataRate::MBPS_2, Transport::newreno_optimal_window(3), 1),
        },
        CanonicalCase {
            name: "grid6-newreno-11m",
            target: 60,
            deadline: secs(30),
            build: || Scenario::grid6(DataRate::MBPS_11, Transport::newreno(), 1),
        },
        CanonicalCase {
            name: "random10-vegas-2m",
            target: 40,
            deadline: secs(30),
            build: || Scenario::random10(DataRate::MBPS_2, Transport::vegas(2), 42),
        },
        CanonicalCase {
            name: "traffic10-web-11m",
            target: 400,
            deadline: secs(30),
            build: || {
                Scenario::open_loop(
                    10,
                    TrafficModel::web(100),
                    Transport::newreno(),
                    DataRate::MBPS_11,
                    7,
                )
            },
        },
        CanonicalCase {
            name: "metro200-newreno-11m",
            target: 60,
            deadline: secs(30),
            build: || Scenario::metro(200, DataRate::MBPS_11, Transport::newreno(), 42),
        },
    ]
}

/// The `--suite fast` subset (see [`FAST_NAMES`]).
pub fn fast_cases() -> Vec<CanonicalCase> {
    canonical_cases()
        .into_iter()
        .filter(|c| FAST_NAMES.contains(&c.name))
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a 64 state.
pub fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Digests a trace: (record count, FNV-1a 64 over the JSONL lines, each
/// terminated by `\n`).
pub fn trace_digest(records: &[TraceRecord]) -> (u64, u64) {
    let mut hash = FNV_OFFSET;
    for r in records {
        hash = fnv1a64(hash, r.to_jsonl().as_bytes());
        hash = fnv1a64(hash, b"\n");
    }
    (records.len() as u64, hash)
}

/// Parses a digest file: `name count hash-hex` per line, `#` comments.
pub fn parse_digests(text: &str) -> Result<BTreeMap<String, (u64, u64)>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(count), Some(hash), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("digest line {} malformed: {line:?}", lineno + 1));
        };
        let count: u64 = count
            .parse()
            .map_err(|_| format!("digest line {}: bad count {count:?}", lineno + 1))?;
        let hash = u64::from_str_radix(hash, 16)
            .map_err(|_| format!("digest line {}: bad hash {hash:?}", lineno + 1))?;
        out.insert(name.to_string(), (count, hash));
    }
    Ok(out)
}

/// Renders reports as a digest file, sorted by name so the output is
/// identical however the cases were scheduled.
pub fn format_digests(reports: &[CaseReport]) -> String {
    let mut lines: Vec<String> = reports.iter().map(CaseReport::digest_line).collect();
    lines.sort();
    let mut out = String::from(
        "# Golden trace digests: <case> <record count> <fnv1a64 of jsonl trace>\n\
         # Regenerate with `mwn check --bless` after a deliberate behavior change.\n",
    );
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Compares a report against the committed digests. `None` means it
/// conforms; `Some` describes the mismatch.
pub fn conformance(report: &CaseReport, golden: &BTreeMap<String, (u64, u64)>) -> Option<String> {
    match golden.get(report.name) {
        None => Some(format!("{}: no committed digest (bless it)", report.name)),
        Some(&(count, _)) if count != report.count => Some(format!(
            "{}: record count {} != committed {count}",
            report.name, report.count
        )),
        Some(&(_, hash)) if hash != report.hash => Some(format!(
            "{}: trace hash {:016x} != committed {hash:016x}",
            report.name, report.hash
        )),
        Some(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn::trace::TraceEvent;
    use mwn::SimTime;
    use mwn_pkt::NodeId;

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a 64 test vector.
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn digest_reflects_every_record() {
        let rec = |t, uid| TraceRecord {
            time: SimTime::from_nanos(t),
            node: NodeId(1),
            event: TraceEvent::RouteDeliver { uid },
        };
        let a = vec![rec(1, 10), rec(2, 11)];
        let (count, hash) = trace_digest(&a);
        assert_eq!(count, 2);
        // Dropping, reordering or editing any record changes the digest.
        assert_ne!(trace_digest(&a[..1]).1, hash);
        let swapped = vec![a[1].clone(), a[0].clone()];
        assert_ne!(trace_digest(&swapped).1, hash);
        let edited = vec![rec(1, 10), rec(2, 12)];
        assert_ne!(trace_digest(&edited).1, hash);
    }

    #[test]
    fn digest_file_roundtrip() {
        let reports = vec![
            CaseReport {
                name: "zeta",
                count: 7,
                hash: 0xdead_beef,
                violations: Vec::new(),
                traffic_journal: None,
            },
            CaseReport {
                name: "alpha",
                count: 3,
                hash: 1,
                violations: Vec::new(),
                traffic_journal: None,
            },
        ];
        let text = format_digests(&reports);
        // Sorted by name regardless of input order.
        assert!(text.find("alpha").unwrap() < text.find("zeta").unwrap());
        let parsed = parse_digests(&text).unwrap();
        assert_eq!(parsed["alpha"], (3, 1));
        assert_eq!(parsed["zeta"], (7, 0xdead_beef));
    }

    #[test]
    fn malformed_digest_lines_are_rejected() {
        assert!(parse_digests("name 3").is_err());
        assert!(parse_digests("name three 0abc").is_err());
        assert!(parse_digests("name 3 zz-not-hex").is_err());
        assert!(parse_digests("name 3 0abc extra").is_err());
        assert!(parse_digests("# comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn conformance_detects_count_and_hash_drift() {
        let golden = parse_digests("case 5 00000000000000aa").unwrap();
        let ok = CaseReport {
            name: "case",
            count: 5,
            hash: 0xaa,
            violations: Vec::new(),
            traffic_journal: None,
        };
        assert!(conformance(&ok, &golden).is_none());
        let bad_count = CaseReport { count: 6, ..ok };
        assert!(conformance(&bad_count, &golden)
            .unwrap()
            .contains("record count"));
        let bad_hash = CaseReport {
            count: 5,
            hash: 0xbb,
            name: "case",
            violations: Vec::new(),
            traffic_journal: None,
        };
        assert!(conformance(&bad_hash, &golden).unwrap().contains("hash"));
        let unknown = CaseReport {
            name: "other",
            count: 5,
            hash: 0xaa,
            violations: Vec::new(),
            traffic_journal: None,
        };
        assert!(conformance(&unknown, &golden).unwrap().contains("bless"));
    }

    #[test]
    fn canonical_names_are_unique_and_fast_subset_exists() {
        let cases = canonical_cases();
        let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len(), "duplicate canonical name");
        assert_eq!(fast_cases().len(), FAST_NAMES.len());
    }

    #[test]
    fn builtin_digests_cover_every_canonical_case() {
        let golden = parse_digests(BUILTIN_DIGESTS).unwrap();
        for c in canonical_cases() {
            assert!(
                golden.contains_key(c.name),
                "no committed digest for {}; run `mwn check --bless`",
                c.name
            );
        }
    }
}
