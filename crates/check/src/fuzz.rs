//! Scenario fuzzing under the invariant checker.
//!
//! Random scenario *specs* — topology size, bidirectional load, PHY
//! rate, transport variant, traffic volume and RNG seed — are drawn
//! through the vendored `proptest` strategy combinators, each spec is
//! simulated, and the resulting trace is run through
//! [`check`](crate::checker::check). The
//! vendored proptest generates final values directly (no value trees),
//! so it cannot shrink; this module adds a greedy structural shrinker
//! that reduces any failing spec to a minimal reproduction before
//! reporting it.
//!
//! Everything is deterministic: case `i` of a fuzz run labelled `L` is
//! always the same spec, so failures can be replayed by index.

use std::fmt;

use mwn::{
    Arrival, FlowSpec, Scenario, SimDuration, SizeDist, TrafficClass, TrafficModel, TrafficSpec,
    Transport,
};
use mwn_phy::DataRate;
use mwn_pkt::NodeId;
use proptest::{Strategy, TestRng};

use crate::check_scenario;
use crate::checker::Violation;

/// Simulated-time deadline for every fuzz case; generous enough that
/// small chains finish by delivery target instead.
const DEADLINE: SimDuration = SimDuration::from_secs(20);

/// Number of transport variants the spec's `transport` index selects
/// among.
pub const TRANSPORT_VARIANTS: u8 = 8;

const RATES: [DataRate; 3] = [DataRate::MBPS_2, DataRate::MBPS_5_5, DataRate::MBPS_11];

fn transport_variant(idx: u8) -> Transport {
    match idx {
        0 => Transport::newreno(),
        1 => Transport::newreno_thinning(),
        2 => Transport::reno(),
        3 => Transport::tahoe(),
        4 => Transport::vegas(2),
        5 => Transport::vegas_thinning(2),
        6 => Transport::newreno_optimal_window(3),
        _ => Transport::paced_udp(SimDuration::from_millis(5)),
    }
}

fn transport_name(idx: u8) -> &'static str {
    match idx {
        0 => "newreno",
        1 => "newreno-thin",
        2 => "reno",
        3 => "tahoe",
        4 => "vegas",
        5 => "vegas-thin",
        6 => "optwin",
        _ => "udp",
    }
}

/// A compact, shrinkable description of one fuzzed scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Chain length in hops (1..=16).
    pub hops: u8,
    /// Add a second flow in the reverse direction.
    pub reverse: bool,
    /// Index into the PHY rate table (0 = 2 Mbit/s).
    pub rate: u8,
    /// Transport variant index (0 = NewReno, the shrink target).
    pub transport: u8,
    /// Packets to deliver per flow (the run's delivery target; 10..=250).
    pub packets: u8,
    /// Open-loop traffic arrivals riding along (0 = none, at most 64): short finite
    /// NewReno flows churning through the flow table while the
    /// persistent flows run.
    pub traffic: u8,
    /// Scenario RNG seed.
    pub seed: u16,
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chain({} hops{}) rate={} transport={} packets={} traffic={} seed={}",
            self.hops,
            if self.reverse { ", bidirectional" } else { "" },
            RATES[usize::from(self.rate) % RATES.len()],
            transport_name(self.transport),
            self.packets,
            self.traffic,
            self.seed
        )
    }
}

impl ScenarioSpec {
    /// Materializes the spec into a runnable scenario.
    pub fn scenario(&self) -> Scenario {
        let transport = transport_variant(self.transport);
        let rate = RATES[usize::from(self.rate) % RATES.len()];
        let mut s = Scenario::chain(
            usize::from(self.hops),
            rate,
            transport,
            u64::from(self.seed) + 1,
        );
        if self.reverse {
            s.flows.push(FlowSpec {
                src: NodeId(u32::from(self.hops)),
                dst: NodeId(0),
                transport,
            });
        }
        if self.traffic > 0 {
            s.traffic = Some(TrafficSpec {
                model: TrafficModel {
                    classes: vec![TrafficClass {
                        name: "fuzz".into(),
                        arrival: Arrival::Poisson { rate_fps: 8.0 },
                        size: SizeDist::Fixed { packets: 2 },
                        response: None,
                    }],
                    max_flows: u64::from(self.traffic),
                    zipf_skew: 0.5,
                    diurnal: None,
                },
                // Traffic always runs TCP, independent of the persistent
                // flows' (possibly UDP) transport.
                transport: Transport::newreno(),
            });
        }
        s
    }

    /// Total packets the run tries to deliver across all flows
    /// (persistent targets plus the finite traffic volume).
    pub fn target(&self) -> u64 {
        u64::from(self.packets) * if self.reverse { 2 } else { 1 } + u64::from(self.traffic) * 2
    }

    /// Candidate simplifications, most aggressive first. Every candidate
    /// strictly reduces (hops, reverse, packets, traffic, transport,
    /// rate) in a well-founded order, so greedy shrinking terminates.
    pub fn simpler(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::new();
        if self.hops > 1 {
            out.push(ScenarioSpec { hops: 1, ..*self });
        }
        if self.hops > 2 {
            out.push(ScenarioSpec {
                hops: self.hops - 1,
                ..*self
            });
        }
        if self.reverse {
            out.push(ScenarioSpec {
                reverse: false,
                ..*self
            });
        }
        if self.packets > 5 {
            out.push(ScenarioSpec {
                packets: (self.packets / 2).max(5),
                ..*self
            });
        }
        if self.traffic > 0 {
            out.push(ScenarioSpec {
                traffic: 0,
                ..*self
            });
            if self.traffic > 1 {
                out.push(ScenarioSpec {
                    traffic: self.traffic / 2,
                    ..*self
                });
            }
        }
        if self.transport != 0 {
            out.push(ScenarioSpec {
                transport: 0,
                ..*self
            });
        }
        if self.rate != 0 {
            out.push(ScenarioSpec { rate: 0, ..*self });
        }
        out
    }
}

/// The proptest strategy drawing random scenario specs.
pub fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        (1u8..=16, proptest::any::<bool>()),
        (0u8..3, 0u8..TRANSPORT_VARIANTS),
        (10u8..=250, 0u8..=64, 0u16..1024),
    )
        .prop_map(
            |((hops, reverse), (rate, transport), (packets, traffic, seed))| ScenarioSpec {
                hops,
                reverse,
                rate,
                transport,
                packets,
                traffic,
                seed,
            },
        )
}

/// Runs one spec under the checker.
pub fn violations_of(spec: &ScenarioSpec) -> Vec<Violation> {
    check_scenario(&spec.scenario(), spec.target(), DEADLINE)
}

/// A failing fuzz case, shrunk to a minimal reproduction.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The case index that first failed.
    pub case: u32,
    /// The originally drawn failing spec.
    pub original: ScenarioSpec,
    /// The smallest still-failing spec the shrinker found.
    pub spec: ScenarioSpec,
    /// The shrunk spec's violations.
    pub violations: Vec<Violation>,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz case {} failed; shrunk from [{}] to [{}]:",
            self.case, self.original, self.spec
        )?;
        for v in &self.violations {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Runs `cases` fuzz cases labelled `label` (the proptest case-derivation
/// key). Returns the number of cases run, or the first failure after
/// greedy shrinking.
pub fn fuzz(label: &str, cases: u32) -> Result<u32, Box<FuzzFailure>> {
    let strategy = spec_strategy();
    for case in 0..cases {
        let mut rng = TestRng::for_case(label, case);
        let spec = strategy.generate(&mut rng);
        let violations = violations_of(&spec);
        if !violations.is_empty() {
            let (shrunk, violations) = shrink(spec, violations, |s| {
                let v = violations_of(s);
                (!v.is_empty()).then_some(v)
            });
            return Err(Box::new(FuzzFailure {
                case,
                original: spec,
                spec: shrunk,
                violations,
            }));
        }
    }
    Ok(cases)
}

/// Greedy shrinking: repeatedly replace the spec with its first simpler
/// variant that still fails, until none does. `fails` returns the
/// failure evidence for a candidate, or `None` if it passes.
fn shrink<E>(
    mut spec: ScenarioSpec,
    mut evidence: E,
    fails: impl Fn(&ScenarioSpec) -> Option<E>,
) -> (ScenarioSpec, E) {
    'outer: loop {
        for candidate in spec.simpler() {
            if let Some(e) = fails(&candidate) {
                spec = candidate;
                evidence = e;
                continue 'outer;
            }
        }
        return (spec, evidence);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_deterministic_per_case() {
        let strategy = spec_strategy();
        let a = strategy.generate(&mut TestRng::for_case("det", 7));
        let b = strategy.generate(&mut TestRng::for_case("det", 7));
        let c = strategy.generate(&mut TestRng::for_case("det", 8));
        assert_eq!(a, b);
        assert_ne!(a, c); // astronomically unlikely to collide
    }

    #[test]
    fn strategy_respects_bounds_and_covers_variants() {
        let strategy = spec_strategy();
        let mut seen_reverse = false;
        let mut seen_udp = false;
        let mut seen_traffic = false;
        for case in 0..200 {
            let s = strategy.generate(&mut TestRng::for_case("bounds", case));
            assert!((1..=16).contains(&s.hops));
            assert!(s.rate < 3);
            assert!(s.transport < TRANSPORT_VARIANTS);
            assert!((10..=250).contains(&s.packets));
            assert!(s.traffic <= 64);
            seen_reverse |= s.reverse;
            seen_udp |= s.transport == TRANSPORT_VARIANTS - 1;
            seen_traffic |= s.traffic > 0;
        }
        assert!(
            seen_reverse && seen_udp && seen_traffic,
            "generator never drew a whole arm"
        );
    }

    #[test]
    fn spec_builds_the_scenario_it_describes() {
        let spec = ScenarioSpec {
            hops: 3,
            reverse: true,
            rate: 2,
            transport: 4,
            packets: 20,
            traffic: 5,
            seed: 9,
        };
        let s = spec.scenario();
        assert_eq!(s.topology.len(), 4);
        assert_eq!(s.flows.len(), 2);
        assert_eq!(s.flows[1].src, NodeId(3));
        assert_eq!(s.flows[1].dst, NodeId(0));
        let traffic = s.traffic.as_ref().expect("traffic arm attached");
        assert_eq!(traffic.model.max_flows, 5);
        assert!(matches!(traffic.transport, Transport::Tcp { .. }));
        // 2 × 20 persistent packets + 5 traffic flows × 2 packets.
        assert_eq!(spec.target(), 50);
        assert!(spec.to_string().contains("vegas"));
        // traffic = 0 attaches no workload.
        let plain = ScenarioSpec { traffic: 0, ..spec };
        assert!(plain.scenario().traffic.is_none());
        assert_eq!(plain.target(), 40);
    }

    #[test]
    fn greedy_shrinker_finds_the_minimal_failing_spec() {
        // Synthetic predicate: fails iff hops ≥ 2 — everything else
        // should shrink to its floor.
        let start = ScenarioSpec {
            hops: 6,
            reverse: true,
            rate: 2,
            transport: 5,
            packets: 40,
            traffic: 9,
            seed: 3,
        };
        let (min, ()) = shrink(start, (), |s| (s.hops >= 2).then_some(()));
        assert_eq!(
            min,
            ScenarioSpec {
                hops: 2,
                reverse: false,
                rate: 0,
                transport: 0,
                packets: 5,
                traffic: 0,
                seed: 3,
            }
        );
    }

    #[test]
    fn shrinker_keeps_the_original_when_nothing_simpler_fails() {
        let start = ScenarioSpec {
            hops: 4,
            reverse: false,
            rate: 1,
            transport: 2,
            packets: 12,
            traffic: 3,
            seed: 0,
        };
        // Only the exact original fails.
        let (min, ()) = shrink(start, (), |s| (*s == start).then_some(()));
        assert_eq!(min, start);
    }

    #[test]
    fn fuzz_smoke_passes_on_the_real_stack() {
        // A small deterministic smoke run; CI runs 32 cases through the
        // CLI. Any violation here is a real cross-layer bug.
        match fuzz("mwn-check-unit-smoke", 6) {
            Ok(n) => assert_eq!(n, 6),
            Err(f) => panic!("{f}"),
        }
    }
}
