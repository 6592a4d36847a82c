//! Serializable experiment jobs: the unit of work of the job runner
//! (`mwn-runner`'s `run_sweep`), and the one place that knows which
//! simulation runs make up each paper figure.
//!
//! The paper's evaluation is a grid of independent simulation runs —
//! (topology × bandwidth × transport × seed). A [`JobSpec`] captures one
//! cell of that grid as plain data with a stable *content key*, so runs
//! can be farmed out to worker threads, persisted to a results store, and
//! skipped on re-invocation when a result with the same key already
//! exists.
//!
//! Each figure family has one grid here, [`fig2_3`] through
//! [`fig18_19`]: its legend series in order, each with one job per x
//! value. The ablations and extensions have a grid each too,
//! [`ablation_capture`] through [`ext_elfn`]: a job's one change from the
//! paper's stack is its [`Ablation`]. [`STUDIES`](crate::experiments::STUDIES) pairs every grid with
//! the fold that turns its results into figures, so every `mwn repro`
//! study but table 2 runs from this module, and a results-store row and
//! the figure point it feeds are the same job. [`traffic_study`] and
//! [`traffic_load_study`] are the open-loop workload extension: built-in
//! [`TrafficModel`] profiles crossed with the TCP variants, and the web
//! profile over offered load. [`chain_study`] is a slice of [`fig6_9`]
//! (the benchmark's `paper-sweep` job list).

use mwn_mac80211::{LinkRedParams, MacParams};
use mwn_phy::{DataRate, RangeModel};
use mwn_sim::{fxhash, SimDuration};
use mwn_tcp::{AckPolicy, Flavor, TcpConfig};
use mwn_traffic::TrafficModel;

use crate::experiment::ExperimentScale;
use crate::experiments::{bw_mbit, seed_for, Series, PAPER_BANDWIDTHS, PAPER_HOPS};
use crate::scenario::{Scenario, Transport};

/// Which topology/flow layout a job simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The h-hop chain with one end-to-end flow.
    Chain {
        /// Number of hops.
        hops: usize,
    },
    /// The 21-node grid with six competing flows (Figure 15).
    Grid6,
    /// The 120-node random topology with ten flows (Section 4.4.2).
    Random10,
    /// A large random preset (200 or 500 nodes) at the paper's density
    /// with ten flows ([`Scenario::random_large`]).
    RandomLarge {
        /// Node count: 200 or 500.
        nodes: usize,
    },
    /// An open-loop workload over a connected random topology
    /// ([`Scenario::open_loop`], extension): finite flows arriving from a
    /// built-in [`TrafficModel`] profile, all running the job's
    /// transport.
    Traffic {
        /// Node count of the random field.
        nodes: usize,
        /// Built-in profile name ([`TrafficModel::PROFILES`]).
        profile: &'static str,
        /// Total flow arrivals before the generator stops.
        flows: u64,
        /// Offered-load multiplier applied to the profile's arrival
        /// rates ([`TrafficModel::with_load`]), in per-mille: 1000 is
        /// the profile as-is, 500 halves the arrival rate, 2000 doubles
        /// it. Stored as an integer so the content key stays exact.
        load: u32,
    },
    /// The mobility extension's layout ([`Scenario::mobile_strip`]): 30
    /// nodes on a 1500 × 300 m strip with three fixed flows, moving by
    /// random waypoint at up to `speed` m/s (0 is static).
    MobileStrip {
        /// Maximum node speed in m/s.
        speed: u32,
    },
}

impl ScenarioKind {
    /// Canonical token, e.g. `"chain:7"`, `"random_large:200"` or
    /// `"traffic:20:web:1200"`.
    pub fn token(self) -> String {
        match self {
            ScenarioKind::Chain { hops } => format!("chain:{hops}"),
            ScenarioKind::Grid6 => "grid6".into(),
            ScenarioKind::Random10 => "random10".into(),
            ScenarioKind::RandomLarge { nodes } => format!("random_large:{nodes}"),
            ScenarioKind::Traffic {
                nodes,
                profile,
                flows,
                load,
            } => {
                // The load suffix appears only off the default, so keys
                // of pre-existing stores stay valid.
                if load == 1000 {
                    format!("traffic:{nodes}:{profile}:{flows}")
                } else {
                    format!("traffic:{nodes}:{profile}:{flows}:l{load}")
                }
            }
            ScenarioKind::MobileStrip { speed } => format!("mobile_strip:{speed}"),
        }
    }
}

/// A job's one change from the paper's protocol stack: what an ablation
/// or extension study varies beyond topology, rate and transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// The paper's stack.
    None,
    /// Physical capture off ([`RangeModel::without_capture`]).
    NoCapture,
    /// A carrier-sense range of `metres`; the interference range grows
    /// with it but never falls below the paper's 550 m.
    CsRange {
        /// Carrier-sense range in metres.
        metres: u32,
    },
    /// RTS/CTS/ACK at the data rate instead of the 1 Mbit/s basic rate.
    ControlAtDataRate,
    /// Fu et al.'s link-layer enhancements.
    LinkLayer {
        /// Adaptive pacing.
        pacing: bool,
        /// Link RED with [`LinkRedParams::default`].
        link_red: bool,
    },
    /// IEEE 802.11g OFDM timing ([`MacParams::ieee80211g`]).
    Ofdm,
    /// Explicit link failure notification (Holland & Vaidya).
    Elfn,
}

impl Ablation {
    /// Applies the change to a scenario built from the paper's stack.
    fn apply(self, sc: &mut Scenario) {
        match self {
            Ablation::None => {}
            Ablation::NoCapture => sc.ranges = RangeModel::without_capture(),
            Ablation::CsRange { metres } => {
                let cs = f64::from(metres);
                sc.ranges.cs_range = cs;
                sc.ranges.interference_range = cs.max(sc.ranges.interference_range);
            }
            Ablation::ControlAtDataRate => {
                let mut params = sc.mac_params();
                params.timing.basic_rate = sc.bandwidth;
                sc.mac_override = Some(params);
            }
            Ablation::LinkLayer { pacing, link_red } => {
                let mut params = sc.mac_params();
                params.adaptive_pacing = pacing;
                params.link_red = link_red.then(LinkRedParams::default);
                sc.mac_override = Some(params);
            }
            Ablation::Ofdm => sc.mac_override = Some(MacParams::ieee80211g(sc.bandwidth)),
            Ablation::Elfn => sc.aodv.elfn = true,
        }
    }
}

/// One independent simulation run of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The figure family this job belongs to (e.g. `"fig6-9"`).
    pub group: String,
    /// Human-readable grid coordinates (e.g. `"variant=Vegas hops=8"`).
    pub point: String,
    /// Topology and flow layout.
    pub kind: ScenarioKind,
    /// PHY data rate.
    pub bandwidth: DataRate,
    /// Transport protocol of every flow.
    pub transport: Transport,
    /// The one change from the paper's protocol stack, if any.
    pub ablation: Ablation,
    /// Root RNG seed.
    pub seed: u64,
    /// Work per run.
    pub scale: ExperimentScale,
}

/// Canonical token for a transport, e.g. `"vegas:2+thin"` or
/// `"udp:2000000"` (paced UDP with the gap in nanoseconds).
pub fn transport_token(t: &Transport) -> String {
    match t {
        Transport::Tcp {
            flavor,
            config,
            ack_policy,
        } => {
            // Every `TcpConfig` field is named, so a field added later
            // fails to compile here until the key covers it.
            let TcpConfig {
                wmax,
                alpha,
                #[cfg(feature = "oracle")]
                    fault_cwnd_overshoot: _,
            } = *config;
            let mut s = match flavor {
                Flavor::Vegas => format!("vegas:{alpha}"),
                Flavor::NewReno => "newreno".to_string(),
                Flavor::Reno => "reno".to_string(),
                Flavor::Tahoe => "tahoe".to_string(),
            };
            if wmax != 64 {
                s.push_str(&format!(":w{wmax}"));
            }
            if *ack_policy == AckPolicy::Thinning {
                s.push_str("+thin");
            }
            s
        }
        Transport::PacedUdp { gap } => format!("udp:{}", gap.as_nanos()),
    }
}

impl JobSpec {
    /// The canonical content string: every field that influences the
    /// simulation result, and nothing else (labels are excluded, so
    /// renaming a figure does not invalidate stored results).
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "{}|bw={}|{}|seed={}|scale={}x{}x{}",
            self.kind.token(),
            self.bandwidth.bits_per_sec(),
            transport_token(&self.transport),
            self.seed,
            self.scale.batch_packets,
            self.scale.batches,
            self.scale.deadline.as_nanos(),
        );
        // The ablation suffix appears only off the paper's stack, so keys
        // of pre-existing stores stay valid. `Debug` spells every field of
        // the variant, so a field added later enters the key.
        if self.ablation != Ablation::None {
            s.push_str(&format!("|{:?}", self.ablation));
        }
        s
    }

    /// The stable content key: 16 hex digits of the Fx hash of
    /// [`canonical`](Self::canonical). Results stores are keyed by this.
    pub fn key(&self) -> String {
        format!("{:016x}", fxhash::hash_str(&self.canonical()))
    }

    /// Builds the runnable scenario this job describes.
    pub fn scenario(&self) -> Scenario {
        let mut sc = match self.kind {
            ScenarioKind::Chain { hops } => {
                Scenario::chain(hops, self.bandwidth, self.transport, self.seed)
            }
            ScenarioKind::Grid6 => Scenario::grid6(self.bandwidth, self.transport, self.seed),
            ScenarioKind::Random10 => Scenario::random10(self.bandwidth, self.transport, self.seed),
            ScenarioKind::RandomLarge { nodes } => {
                Scenario::random_large(nodes, self.bandwidth, self.transport, self.seed)
            }
            ScenarioKind::Traffic {
                nodes,
                profile,
                flows,
                load,
            } => {
                let mut model =
                    TrafficModel::profile(profile, flows).expect("built-in traffic profile");
                if load != 1000 {
                    model = model.with_load(f64::from(load) / 1000.0);
                }
                Scenario::open_loop(nodes, model, self.transport, self.bandwidth, self.seed)
            }
            ScenarioKind::MobileStrip { speed } => {
                Scenario::mobile_strip(speed, self.bandwidth, self.transport, self.seed)
            }
        };
        self.ablation.apply(&mut sc);
        sc
    }
}

/// The quick chain study: the Figure 6–9 grid ([`fig6_9`]) restricted
/// to chains of at most 8 hops, so a run completes in minutes at quick
/// scale.
pub fn chain_study(scale: ExperimentScale) -> Vec<JobSpec> {
    grid_jobs(fig6_9(scale))
        .filter(|job| matches!(job.kind, ScenarioKind::Chain { hops } if hops <= 8))
        .collect()
}

/// The open-loop traffic study (extension): every built-in workload
/// profile crossed with the TCP variants of interest, each over a
/// 20-node connected random field at 11 Mbit/s; one series per profile,
/// x the variant's 1-based index. The flow count scales with the batch
/// size so larger `--scale` runs see proportionally more churn rather
/// than truncating early.
pub fn traffic_study(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let flows = scale.batch_packets.saturating_mul(3);
    let variants: [(&str, Transport); 3] = [
        ("NewReno", Transport::newreno()),
        ("NewReno +thin", Transport::newreno_thinning()),
        ("Vegas", Transport::vegas(2)),
    ];
    (0u64..)
        .zip(TrafficModel::PROFILES)
        .map(|(pi, profile)| SeriesJobs {
            label: profile.to_string(),
            points: (0u64..)
                .zip(variants)
                .map(|(vi, (label, t))| {
                    let job = JobSpec {
                        group: "traffic".to_string(),
                        point: format!("profile={profile} variant={label}"),
                        kind: ScenarioKind::Traffic {
                            nodes: 20,
                            profile,
                            flows,
                            load: 1000,
                        },
                        bandwidth: DataRate::MBPS_11,
                        transport: t,
                        ablation: Ablation::None,
                        seed: seed_for(&[30, pi, vi]),
                        scale,
                    };
                    ((vi + 1) as f64, job)
                })
                .collect(),
        })
        .collect()
}

/// The FCT-vs-offered-load study (extension): the web profile under
/// NewReno, with the arrival rate swept from one quarter of to double
/// the profile's nominal load (x, as a factor). Aggregated with
/// `mwn report --curve`, the per-load FCT percentiles trace the
/// congestion knee that open-loop workloads expose and closed-loop
/// persistent flows cannot.
pub fn traffic_load_study(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let flows = scale.batch_packets.saturating_mul(3);
    let points = [250u32, 500, 750, 1000, 1500, 2000]
        .into_iter()
        .map(|load| {
            let factor = f64::from(load) / 1000.0;
            let job = JobSpec {
                group: "load".to_string(),
                point: format!("profile=web load={factor:.2}x"),
                kind: ScenarioKind::Traffic {
                    nodes: 20,
                    profile: "web",
                    flows,
                    load,
                },
                bandwidth: DataRate::MBPS_11,
                transport: Transport::newreno(),
                ablation: Ablation::None,
                seed: seed_for(&[31, u64::from(load)]),
                scale,
            };
            (factor, job)
        })
        .collect();
    vec![SeriesJobs {
        label: "web NewReno".to_string(),
        points,
    }]
}

/// One legend series of a study grid: a job per x value.
pub type SeriesJobs = Series<JobSpec>;

/// A pacing gap that saturates the chain at every bandwidth; the
/// resulting goodput is the plateau (optimal) paced-UDP goodput.
const SATURATING_UDP_GAP: SimDuration = SimDuration::from_millis(2);

/// The 7-hop chain of the per-bandwidth studies.
const CHAIN7: ScenarioKind = ScenarioKind::Chain { hops: 7 };

/// The jobs of a figure grid, series-major.
fn grid_jobs(grid: Vec<SeriesJobs>) -> impl Iterator<Item = JobSpec> {
    grid.into_iter()
        .flat_map(|series| series.points.into_iter().map(|(_, job)| job))
}

/// The x axis of a series and the layout it varies.
#[derive(Debug, Clone, Copy)]
enum Axis<'a> {
    /// Chain lengths at 2 Mbit/s; x and the seed part are the hop count.
    Hops(&'a [usize]),
    /// Rates on one layout; x is the rate in Mbit/s, the seed part bit/s.
    Bandwidths(ScenarioKind, &'a [DataRate]),
}

impl Axis<'_> {
    /// Per point: x, point-label suffix, layout, rate and seed part.
    fn cells(self) -> Vec<(f64, String, ScenarioKind, DataRate, u64)> {
        match self {
            Axis::Hops(hops) => hops
                .iter()
                .map(|&h| {
                    let (x, kind) = (h as f64, ScenarioKind::Chain { hops: h });
                    (x, format!("hops={h}"), kind, DataRate::MBPS_2, h as u64)
                })
                .collect(),
            Axis::Bandwidths(kind, rates) => rates
                .iter()
                .map(|&bw| (bw_mbit(bw), format!("bw={bw}"), kind, bw, bw.bits_per_sec()))
                .collect(),
        }
    }
}

/// One series over `axis`, each point labelled `"{coord} hops={hops}"`
/// or `"{coord} bw={bw}"` and seeded by `seed` of the axis's seed part.
#[allow(clippy::too_many_arguments)]
fn over(
    group: &str,
    label: &str,
    coord: &str,
    axis: Axis,
    ablation: Ablation,
    transport: Transport,
    seed: impl Fn(u64) -> u64,
    scale: ExperimentScale,
) -> SeriesJobs {
    let points = axis
        .cells()
        .into_iter()
        .map(|(x, at, kind, bandwidth, part)| {
            let job = JobSpec {
                group: group.to_string(),
                point: format!("{coord} {at}"),
                kind,
                bandwidth,
                transport,
                ablation,
                seed: seed(part),
                scale,
            };
            (x, job)
        })
        .collect();
    SeriesJobs {
        label: label.to_string(),
        points,
    }
}

/// One series per `(label, ablation, transport)` row over `axis`, each
/// point labelled `"variant={label} …"` and seeded
/// `seed_for(&[fig_seed, row index, seed part])`.
fn study(
    group: &str,
    fig_seed: u64,
    axis: Axis,
    rows: impl IntoIterator<Item = (&'static str, Ablation, Transport)>,
    scale: ExperimentScale,
) -> Vec<SeriesJobs> {
    (0u64..)
        .zip(rows)
        .map(|(vi, (label, ablation, t))| {
            over(
                group,
                label,
                &format!("variant={label}"),
                axis,
                ablation,
                t,
                |part| seed_for(&[fig_seed, vi, part]),
                scale,
            )
        })
        .collect()
}

/// Transport `rows`, every one under `ablation`.
fn variants(
    ablation: Ablation,
    rows: impl IntoIterator<Item = (&'static str, Transport)>,
) -> impl Iterator<Item = (&'static str, Ablation, Transport)> {
    rows.into_iter().map(move |(label, t)| (label, ablation, t))
}

/// TCP Vegas with α ∈ {2, 3, 4}, one series each over `axis`, seeded
/// `seed_for(&[fig_seed, α, seed part])`.
fn vegas_alphas(group: &str, fig_seed: u64, axis: Axis, scale: ExperimentScale) -> Vec<SeriesJobs> {
    [2u32, 3, 4]
        .into_iter()
        .map(|alpha| {
            over(
                group,
                &format!("Vegas a={alpha}"),
                &format!("alpha={alpha}"),
                axis,
                Ablation::None,
                Transport::vegas(alpha),
                |part| seed_for(&[fig_seed, u64::from(alpha), part]),
                scale,
            )
        })
        .collect()
}

/// Figures 2–3: TCP Vegas with α ∈ {2, 3, 4} over chain length at
/// 2 Mbit/s.
pub fn fig2_3(scale: ExperimentScale) -> Vec<SeriesJobs> {
    vegas_alphas("fig2-3", 23, Axis::Hops(&PAPER_HOPS), scale)
}

/// Figure 4: TCP Vegas with α ∈ {2, 3, 4} per bandwidth on the 7-hop
/// chain.
pub fn fig4(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let axis = Axis::Bandwidths(CHAIN7, &PAPER_BANDWIDTHS);
    vegas_alphas("fig4", 4, axis, scale)
}

/// Figure 5: Vegas with ACK thinning for α ∈ {2, 3, 4}, against plain
/// Vegas α = 2, over chain length at 2 Mbit/s.
pub fn fig5(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let rows = variants(
        Ablation::None,
        [
            ("Vegas a=2", Transport::vegas(2)),
            ("Vegas a=2 +thin", Transport::vegas_thinning(2)),
            ("Vegas a=3 +thin", Transport::vegas_thinning(3)),
            ("Vegas a=4 +thin", Transport::vegas_thinning(4)),
        ],
    );
    study("fig5", 5, Axis::Hops(&PAPER_HOPS), rows, scale)
}

/// Figures 6–9: Vegas, NewReno, NewReno + ACK thinning and paced UDP over
/// chain length at 2 Mbit/s.
pub fn fig6_9(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let rows = variants(
        Ablation::None,
        [
            ("Vegas", Transport::vegas(2)),
            ("NewReno", Transport::newreno()),
            ("NewReno +thin", Transport::newreno_thinning()),
            ("Paced UDP", Transport::paced_udp(SATURATING_UDP_GAP)),
        ],
    );
    study("fig6-9", 6, Axis::Hops(&PAPER_HOPS), rows, scale)
}

/// Figure 10: paced UDP on the 7-hop 2 Mbit/s chain; x is the time
/// between successive packet transmissions in milliseconds.
pub fn fig10(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let points = (20..=44u64)
        .step_by(2)
        .map(|gap_ms| {
            let job = JobSpec {
                group: "fig10".to_string(),
                point: format!("gap={gap_ms}ms"),
                kind: ScenarioKind::Chain { hops: 7 },
                bandwidth: DataRate::MBPS_2,
                transport: Transport::paced_udp(SimDuration::from_millis(gap_ms)),
                ablation: Ablation::None,
                seed: seed_for(&[10, gap_ms]),
                scale,
            };
            (gap_ms as f64, job)
        })
        .collect();
    vec![SeriesJobs {
        label: "Paced UDP".to_string(),
        points,
    }]
}

/// Figures 11–14: the six variants, in the paper's legend order, on the
/// 7-hop chain per bandwidth.
pub fn fig11_14(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let rows = variants(
        Ablation::None,
        [
            ("Vegas", Transport::vegas(2)),
            ("NewReno", Transport::newreno()),
            ("Vegas +thin", Transport::vegas_thinning(2)),
            ("NewReno +thin", Transport::newreno_thinning()),
            ("NewReno OptWin", Transport::newreno_optimal_window(3)),
            ("Paced UDP", Transport::paced_udp(SATURATING_UDP_GAP)),
        ],
    );
    let axis = Axis::Bandwidths(CHAIN7, &PAPER_BANDWIDTHS);
    study("fig11-14", 11, axis, rows, scale)
}

/// Figures 16–17 and Table 3: the 21-node grid with six flows.
pub fn fig16_17(scale: ExperimentScale) -> Vec<SeriesJobs> {
    multiflow("fig16-17", ScenarioKind::Grid6, 16, scale)
}

/// Figures 18–19 and Table 4: the 120-node random topology with ten
/// flows.
pub fn fig18_19(scale: ExperimentScale) -> Vec<SeriesJobs> {
    multiflow("fig18-19", ScenarioKind::Random10, 18, scale)
}

/// The four variants of the multi-flow studies per bandwidth. The
/// topology and flow endpoints must be identical across variants (paired
/// comparison), so the seed excludes the variant: distinct variants at
/// one bandwidth are distinct jobs with the *same* seed.
fn multiflow(
    group: &str,
    kind: ScenarioKind,
    fig_seed: u64,
    scale: ExperimentScale,
) -> Vec<SeriesJobs> {
    let variants = [
        ("Vegas", Transport::vegas(2)),
        ("NewReno", Transport::newreno()),
        ("Vegas +thin", Transport::vegas_thinning(2)),
        ("NewReno +thin", Transport::newreno_thinning()),
    ];
    variants
        .into_iter()
        .map(|(label, t)| {
            over(
                group,
                label,
                &format!("variant={label}"),
                Axis::Bandwidths(kind, &PAPER_BANDWIDTHS),
                Ablation::None,
                t,
                |bps| seed_for(&[fig_seed, bps]),
                scale,
            )
        })
        .collect()
}

/// Ablation A: physical capture on and off for Vegas and NewReno over
/// 2–16 hops at 2 Mbit/s. The seed names only whether capture is on.
pub fn ablation_capture(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let capture = [
        (1, Ablation::None, ""),
        (0, Ablation::NoCapture, " (no capture)"),
    ];
    [
        ("Vegas", Transport::vegas(2)),
        ("NewReno", Transport::newreno()),
    ]
    .into_iter()
    .flat_map(|(variant, t)| {
        capture.map(|(on, ablation, suffix)| {
            let label = format!("{variant}{suffix}");
            over(
                "ablation-capture",
                &label,
                &format!("variant={label}"),
                Axis::Hops(&[2, 4, 8, 16]),
                ablation,
                t,
                |hops| seed_for(&[100, on, hops]),
                scale,
            )
        })
    })
    .collect()
}

/// Ablation B: Vegas on the 7-hop chain per bandwidth, with control
/// frames at the 1 Mbit/s basic rate and at the data rate.
pub fn ablation_basic_rate(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let rows = [
        ("control at 1 Mbit/s", Ablation::None),
        ("control at data rate", Ablation::ControlAtDataRate),
    ]
    .map(|(label, ablation)| (label, ablation, Transport::vegas(2)));
    let axis = Axis::Bandwidths(CHAIN7, &PAPER_BANDWIDTHS);
    study("ablation-basic-rate", 101, axis, rows, scale)
}

/// Ablation C: NewReno on the 4- and 8-hop 2 Mbit/s chains with the
/// carrier-sense range below, at and above the hidden-terminal threshold.
pub fn ablation_cs_range(scale: ExperimentScale) -> Vec<SeriesJobs> {
    [350u32, 550, 650]
        .into_iter()
        .map(|metres| {
            let label = format!("CS range {metres} m");
            over(
                "ablation-cs-range",
                &label,
                &format!("variant={label}"),
                Axis::Hops(&[4, 8]),
                Ablation::CsRange { metres },
                Transport::newreno(),
                |hops| seed_for(&[102, u64::from(metres), hops]),
                scale,
            )
        })
        .collect()
}

/// Extension: Fu et al.'s adaptive pacing and link RED, alone and
/// together, under NewReno on the 2 Mbit/s chain.
pub fn ext_fu(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let rows = [
        ("NewReno", false, false),
        ("NewReno +pacing", true, false),
        ("NewReno +LRED", false, true),
        ("NewReno +both", true, true),
    ]
    .map(|(label, pacing, link_red)| {
        let ablation = Ablation::LinkLayer { pacing, link_red };
        (label, ablation, Transport::newreno())
    });
    study("ext-fu", 103, Axis::Hops(&[4, 8, 16]), rows, scale)
}

/// Extension: Tahoe, Reno, NewReno and Vegas on the 2 Mbit/s chain.
pub fn ext_variants(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let rows = variants(
        Ablation::None,
        [
            ("Tahoe", Transport::tahoe()),
            ("Reno", Transport::reno()),
            ("NewReno", Transport::newreno()),
            ("Vegas a=2", Transport::vegas(2)),
        ],
    );
    study("ext-variants", 104, Axis::Hops(&[2, 4, 8, 16]), rows, scale)
}

/// Extension: NewReno with its window bounded to MaxWin = 1–8, one
/// series per chain length at 2 Mbit/s; x is MaxWin.
pub fn ext_optwin(scale: ExperimentScale) -> Vec<SeriesJobs> {
    [4usize, 8, 16]
        .into_iter()
        .map(|hops| SeriesJobs {
            label: format!("{hops} hops"),
            points: (1..=8u32)
                .map(|max_win| {
                    let job = JobSpec {
                        group: "ext-optwin".to_string(),
                        point: format!("hops={hops} maxwin={max_win}"),
                        kind: ScenarioKind::Chain { hops },
                        bandwidth: DataRate::MBPS_2,
                        transport: Transport::newreno_optimal_window(max_win),
                        ablation: Ablation::None,
                        seed: seed_for(&[105, hops as u64, u64::from(max_win)]),
                        scale,
                    };
                    (f64::from(max_win), job)
                })
                .collect(),
        })
        .collect()
}

/// Extension: the 7-hop chain over 802.11g OFDM at 11, 24 and 54 Mbit/s.
pub fn ext_80211g(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let rows = variants(
        Ablation::Ofdm,
        [
            ("Vegas a=2", Transport::vegas(2)),
            ("NewReno", Transport::newreno()),
            ("NewReno +thin", Transport::newreno_thinning()),
        ],
    );
    let rates = [DataRate::MBPS_11, DataRate::MBPS_24, DataRate::MBPS_54];
    let axis = Axis::Bandwidths(CHAIN7, &rates);
    study("ext-80211g", 106, axis, rows, scale)
}

/// Extension: NewReno and Vegas, each with and without ELFN, on the
/// mobile strip per maximum speed; x is the speed in m/s. Each speed has
/// three jobs, one per drawn layout, whose seed excludes the variant, so
/// every variant faces the same trajectories (paired comparison).
pub fn ext_elfn(scale: ExperimentScale) -> Vec<SeriesJobs> {
    let variants = [
        ("NewReno", Transport::newreno(), Ablation::None),
        ("NewReno +ELFN", Transport::newreno(), Ablation::Elfn),
        ("Vegas", Transport::vegas(2), Ablation::None),
        ("Vegas +ELFN", Transport::vegas(2), Ablation::Elfn),
    ];
    variants
        .into_iter()
        .map(|(label, transport, ablation)| SeriesJobs {
            label: label.to_string(),
            points: [0u32, 5, 10, 20]
                .into_iter()
                .flat_map(|speed| {
                    (0..3u64).map(move |rep| {
                        let job = JobSpec {
                            group: "ext-elfn".to_string(),
                            point: format!("variant={label} speed={speed} rep={rep}"),
                            kind: ScenarioKind::MobileStrip { speed },
                            bandwidth: DataRate::MBPS_2,
                            transport,
                            ablation,
                            seed: seed_for(&[107, u64::from(speed), rep]),
                            scale,
                        };
                        (f64::from(speed), job)
                    })
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::STUDIES;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            batch_packets: 60,
            batches: 3,
            deadline: SimDuration::from_secs(600),
        }
    }

    #[test]
    fn keys_are_stable_and_label_independent() {
        let mut a = chain_study(tiny()).remove(0);
        let b = a.clone();
        assert_eq!(a.key(), b.key());
        // Labels do not participate in the key.
        a.group = "renamed".into();
        a.point = "other".into();
        assert_eq!(a.key(), b.key());
        // Every result-affecting field does.
        let mut c = b.clone();
        c.seed ^= 1;
        assert_ne!(c.key(), b.key());
        let mut d = b.clone();
        d.scale.batch_packets += 1;
        assert_ne!(d.key(), b.key());
    }

    /// The jobs of every study whose id `pick` accepts, in table order.
    fn study_jobs(pick: impl Fn(&str) -> bool) -> Vec<JobSpec> {
        let scale = ExperimentScale::quick();
        STUDIES
            .iter()
            .filter(|study| pick(study.id))
            .flat_map(|study| grid_jobs((study.grid)(scale)))
            .collect()
    }

    /// Every job of a study is filed under the study's id, and no two
    /// jobs of all the studies share a content key: a results store holds
    /// one row per job of `mwn repro all`.
    #[test]
    fn suite_keys_are_distinct() {
        for study in &STUDIES {
            let jobs: Vec<JobSpec> = grid_jobs((study.grid)(ExperimentScale::quick())).collect();
            assert!(
                jobs.iter().all(|j| j.group == study.id),
                "{} holds a job of another group",
                study.id
            );
        }
        let jobs = study_jobs(|_| true);
        let mut keys: Vec<String> = jobs.iter().map(JobSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "content-key collision in the suite");
    }

    #[test]
    fn chain_study_is_a_slice_of_fig6_9() {
        let grid: Vec<String> = grid_jobs(fig6_9(ExperimentScale::quick()))
            .map(|job| job.key())
            .collect();
        for job in chain_study(ExperimentScale::quick()) {
            assert!(
                grid.contains(&job.key()),
                "{} missing from fig6-9",
                job.canonical()
            );
        }
    }

    #[test]
    fn transport_tokens_discriminate_variants() {
        let tokens: Vec<String> = [
            Transport::vegas(2),
            Transport::vegas_thinning(2),
            Transport::newreno(),
            Transport::newreno_thinning(),
            Transport::reno(),
            Transport::tahoe(),
            Transport::newreno_optimal_window(3),
            Transport::paced_udp(SimDuration::from_millis(2)),
        ]
        .iter()
        .map(transport_token)
        .collect();
        let mut dedup = tokens.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            tokens.len(),
            "ambiguous transport tokens: {tokens:?}"
        );
        assert_eq!(tokens[0], "vegas:2");
        assert_eq!(tokens[1], "vegas:2+thin");
        assert_eq!(tokens[6], "newreno:w3");
        assert_eq!(tokens[7], "udp:2000000");
    }

    #[test]
    fn random_large_jobs_have_distinct_tokens_and_build() {
        let job = JobSpec {
            group: "large".into(),
            point: "nodes=200".into(),
            kind: ScenarioKind::RandomLarge { nodes: 200 },
            bandwidth: DataRate::MBPS_2,
            transport: Transport::newreno(),
            ablation: Ablation::None,
            seed: 9,
            scale: tiny(),
        };
        assert_eq!(job.kind.token(), "random_large:200");
        let mut other = job.clone();
        other.kind = ScenarioKind::RandomLarge { nodes: 500 };
        assert_ne!(job.key(), other.key());
        let s = job.scenario();
        assert_eq!(s.topology.len(), 200);
        let _ = s.build();
    }

    #[test]
    fn traffic_study_jobs_are_distinct_and_build() {
        let jobs: Vec<JobSpec> = grid_jobs(traffic_study(tiny())).collect();
        // profiles × variants.
        assert_eq!(jobs.len(), 9);
        let mut keys: Vec<String> = jobs.iter().map(JobSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 9, "content-key collision in traffic study");
        let job = &jobs[0];
        assert_eq!(job.kind.token(), "traffic:20:web:180");
        let s = job.scenario();
        assert_eq!(s.topology.len(), 20);
        assert!(
            s.flows.is_empty(),
            "open-loop jobs have no persistent flows"
        );
        let spec = s.traffic.as_ref().expect("traffic spec attached");
        assert_eq!(spec.model.max_flows, 180);
        assert_eq!(spec.transport, job.transport);
        let _ = s.build();
    }

    #[test]
    fn traffic_kind_participates_in_the_content_key() {
        let base = traffic_study(tiny()).remove(0).points.remove(0).1;
        let mut other = base.clone();
        other.kind = ScenarioKind::Traffic {
            nodes: 20,
            profile: "web",
            flows: 181,
            load: 1000,
        };
        assert_ne!(base.key(), other.key());
        let mut renamed = base.clone();
        renamed.kind = ScenarioKind::Traffic {
            nodes: 20,
            profile: "heavy",
            flows: 180,
            load: 1000,
        };
        assert_ne!(base.key(), renamed.key());
        // Off-nominal load changes both the token and the key; nominal
        // load keeps the historical token so stored keys stay valid.
        let mut loaded = base.clone();
        loaded.kind = ScenarioKind::Traffic {
            nodes: 20,
            profile: "web",
            flows: 180,
            load: 1500,
        };
        assert_eq!(loaded.kind.token(), "traffic:20:web:180:l1500");
        assert_ne!(base.key(), loaded.key());
    }

    #[test]
    fn load_study_jobs_are_distinct_and_scale_arrivals() {
        let jobs: Vec<JobSpec> = grid_jobs(traffic_load_study(tiny())).collect();
        assert_eq!(jobs.len(), 6);
        let mut keys: Vec<String> = jobs.iter().map(JobSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6, "content-key collision in load study");
        for job in &jobs {
            let _ = job.scenario().build();
        }
        // The swept factor really reaches the model's arrival rates.
        let rate = |j: &JobSpec| match j.scenario().traffic.unwrap().model.classes[0].arrival {
            mwn_traffic::Arrival::Poisson { rate_fps } => rate_fps,
            _ => panic!("web profile arrives Poisson"),
        };
        assert!(rate(&jobs[5]) > rate(&jobs[0]) * 7.0);
    }

    #[test]
    fn existing_store_keys_do_not_move() {
        // Pinned before the ablation field existed: a job on the paper's
        // stack must keep the key its stored result was filed under.
        let canonical: String =
            study_jobs(|id| id.starts_with("fig") || matches!(id, "traffic" | "load"))
                .iter()
                .map(|job| job.canonical() + "\n")
                .collect();
        assert_eq!(canonical.lines().count(), 145);
        assert_eq!(
            format!("{:016x}", fxhash::hash_str(&canonical)),
            "5f93c6fc4c42cbbd"
        );
    }

    /// The ablation and extension studies add keys no earlier store
    /// holds.
    #[test]
    fn study_grid_keys_are_distinct_and_new() {
        let old = |id: &str| id.starts_with("fig") || matches!(id, "traffic" | "load");
        let mut keys: Vec<String> = study_jobs(|id| !old(id)).iter().map(JobSpec::key).collect();
        // 4×4 + 2×3 + 3×2 + 4×3 + 4×4 + 3×8 + 3×3 + 4×4×3.
        assert_eq!(keys.len(), 16 + 6 + 6 + 12 + 16 + 24 + 9 + 48);
        let suite: Vec<String> = study_jobs(old).iter().map(JobSpec::key).collect();
        assert!(keys.iter().all(|k| !suite.contains(k)));
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "content-key collision across the studies");
    }

    #[test]
    fn ablations_build_the_scenarios_their_studies_set() {
        let scale = ExperimentScale::quick();
        let first = |grid: fn(ExperimentScale) -> Vec<SeriesJobs>, series: usize| {
            grid(scale)[series].points[0].1.clone()
        };
        let paper = |job: &JobSpec| {
            JobSpec {
                ablation: Ablation::None,
                ..job.clone()
            }
            .scenario()
        };

        let job = first(ablation_capture, 1);
        assert_eq!(job.ablation, Ablation::NoCapture);
        assert_eq!(job.scenario().ranges, RangeModel::without_capture());
        assert_eq!(
            first(ablation_capture, 0).scenario().ranges,
            RangeModel::paper()
        );

        let job = first(ablation_cs_range, 0);
        assert_eq!(job.ablation, Ablation::CsRange { metres: 350 });
        let ranges = job.scenario().ranges;
        assert_eq!((ranges.cs_range, ranges.interference_range), (350.0, 550.0));
        let ranges = first(ablation_cs_range, 2).scenario().ranges;
        assert_eq!((ranges.cs_range, ranges.interference_range), (650.0, 650.0));

        let job = first(ablation_basic_rate, 1);
        assert_eq!(job.ablation, Ablation::ControlAtDataRate);
        let mut expected = paper(&job).mac_params();
        expected.timing.basic_rate = job.bandwidth;
        assert_eq!(job.scenario().mac_params(), expected);

        let job = ext_fu(scale)[3].points[0].1.clone();
        assert_eq!(
            job.ablation,
            Ablation::LinkLayer {
                pacing: true,
                link_red: true
            }
        );
        let mut expected = paper(&job).mac_params();
        expected.adaptive_pacing = true;
        expected.link_red = Some(LinkRedParams::default());
        assert_eq!(job.scenario().mac_params(), expected);

        let job = first(ext_80211g, 0);
        assert_eq!(job.ablation, Ablation::Ofdm);
        assert_eq!(
            job.scenario().mac_params(),
            MacParams::ieee80211g(job.bandwidth)
        );

        let job = first(ext_elfn, 1);
        assert_eq!(job.ablation, Ablation::Elfn);
        let sc = job.scenario();
        assert!(sc.aodv.elfn);
        assert!(!paper(&job).aodv.elfn);
        // Speed 0 is the static strip; the other speeds move.
        assert_eq!(job.kind, ScenarioKind::MobileStrip { speed: 0 });
        assert!(sc.mobility.is_none());
        let endpoints: Vec<(u32, u32)> = sc
            .flows
            .iter()
            .map(|f| (f.src.raw(), f.dst.raw()))
            .collect();
        assert_eq!(endpoints, [(0, 15), (7, 22), (29, 3)]);
        let moving = ext_elfn(scale)[1].points[3].1.clone();
        assert_eq!(moving.kind, ScenarioKind::MobileStrip { speed: 5 });
        assert_eq!(moving.scenario().mobility.map(|m| m.max_speed), Some(5.0));

        // An ablation appends its `Debug` form to the key; the paper's
        // stack appends nothing.
        let suffix = |ablation| {
            let job = JobSpec {
                ablation,
                ..first(fig6_9, 0)
            };
            job.canonical().split('|').nth(5).map(str::to_string)
        };
        assert_eq!(suffix(Ablation::None), None);
        assert_eq!(
            suffix(Ablation::CsRange { metres: 350 }).unwrap(),
            "CsRange { metres: 350 }"
        );
    }

    #[test]
    fn scenario_roundtrip_builds() {
        for job in chain_study(tiny()) {
            let s = job.scenario();
            assert_eq!(s.seed, job.seed);
            assert_eq!(s.bandwidth, job.bandwidth);
            let _ = s.build();
        }
    }
}
