//! One driver per figure and table of the paper's evaluation (Section 4).
//!
//! Each function returns printable [`FigureData`]/[`TableData`]. Every
//! driver but [`table2`] runs the jobs of its [`crate::jobs`] grid — the
//! same jobs a sweep runs — and folds the results into curves; it owns
//! only titles, axis labels and which metric each figure reads. Figures that
//! the paper derives from the *same* simulation runs (e.g. Figures 6–9)
//! are produced together so the runs are not repeated.
//!
//! `mwn repro <id> --scale N` runs each function at
//! [`ExperimentScale::scaled`]`(N)`; `--scale 25` reproduces the paper's
//! 11 × 10 000-packet runs.

use mwn_phy::DataRate;
use mwn_sim::stats::{BatchMeans, Estimate};
use mwn_sim::{SimDuration, SimTime};

use crate::experiment::{self, ExperimentScale, RunResults};
use crate::jobs::{self, JobSpec, SeriesJobs};
use crate::scenario::{Scenario, Transport};

/// The paper's chain lengths (hops), log-spaced as on the figures' x-axes.
pub const PAPER_HOPS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// The paper's bandwidths.
pub const PAPER_BANDWIDTHS: [DataRate; 3] =
    [DataRate::MBPS_2, DataRate::MBPS_5_5, DataRate::MBPS_11];

/// One curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y ± CI)` points.
    pub points: Vec<(f64, Estimate)>,
}

/// The data behind one figure.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Paper figure id, e.g. `"Fig 6"`.
    pub id: String,
    /// Title as in the paper.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

/// The data behind one table.
#[derive(Debug, Clone)]
pub struct TableData {
    /// Paper table id, e.g. `"Table 3"`.
    pub id: String,
    /// Title as in the paper.
    pub title: String,
    /// Column headers (first column is the row label).
    pub headers: Vec<String>,
    /// Rows of pre-formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl FigureData {
    /// The x values, from the first series.
    fn xs(&self) -> Vec<f64> {
        let first = self.series.first().map(|s| s.points.as_slice());
        first.unwrap_or_default().iter().map(|(x, _)| *x).collect()
    }

    /// Renders the figure as an aligned text table (one row per x value).
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {} [{}]\n", self.id, self.title, self.y_label);
        let width = 22usize;
        out.push_str(&format!("{:>10}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("{:>width$}", s.label));
        }
        out.push('\n');
        for (i, x) in self.xs().iter().enumerate() {
            out.push_str(&format!("{x:>10}"));
            for s in &self.series {
                match s.points.get(i) {
                    Some((_, e)) => {
                        out.push_str(&format!("{:>width$}", format_estimate(e)));
                    }
                    None => out.push_str(&format!("{:>width$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the figure as CSV (`x,series1,series1_ci,...`), ready for
    /// external plotting tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(' ', "_"));
        for s in &self.series {
            let name = s.label.replace(' ', "_").replace(',', ";");
            out.push_str(&format!(",{name},{name}_ci95"));
        }
        out.push('\n');
        for (i, x) in self.xs().iter().enumerate() {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                match s.points.get(i) {
                    Some((_, e)) => out.push_str(&format!(",{},{}", e.mean, e.half_width)),
                    None => out.push_str(",,"),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl TableData {
    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n", self.id, self.title);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map_or(0, String::len))
                    .chain([h.len()])
                    .max()
                    .unwrap_or(8)
                    + 2
            })
            .collect();
        for (h, w) in self.headers.iter().zip(&widths) {
            out.push_str(&format!("{h:>w$}"));
        }
        out.push('\n');
        for row in &self.rows {
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!("{c:>w$}"));
            }
            out.push('\n');
        }
        out
    }
}

fn format_estimate(e: &Estimate) -> String {
    if e.mean == 0.0 && e.half_width == 0.0 {
        "0".to_string()
    } else if e.mean.abs() >= 100.0 {
        format!("{:.1} ±{:.1}", e.mean, e.half_width)
    } else if e.mean.abs() >= 1.0 {
        format!("{:.2} ±{:.2}", e.mean, e.half_width)
    } else {
        format!("{:.4} ±{:.4}", e.mean, e.half_width)
    }
}

/// Deterministic seed for a (figure, series, point) triple.
///
/// Every study's seeds are spelled once, in the [`crate::jobs`] grids
/// the drivers fold; only [`table2`], which times one packet instead of
/// running batch means, calls it here.
pub fn seed_for(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        h ^= p.wrapping_add(0x517C_C1B7_2722_0A95);
        h = h.rotate_left(23).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    h
}

pub(crate) fn bw_mbit(bw: DataRate) -> f64 {
    bw.bits_per_sec() as f64 / 1e6
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// Table 2: the minimal 4-hop link-layer propagation delay per bandwidth,
/// measured in-simulator by timing one isolated packet over a warm route
/// (paper values: 29 / 12 / 8 ms for 2 / 5.5 / 11 Mbit/s).
pub fn table2() -> TableData {
    let mut cells = Vec::new();
    for bw in PAPER_BANDWIDTHS {
        let gap = SimDuration::from_secs(1);
        let s = Scenario::chain(
            4,
            bw,
            Transport::paced_udp(gap),
            seed_for(&[2, bw.bits_per_sec()]),
        );
        let mut net = s.build();
        // Warm the route with packet 0, then time packet 2.
        net.run_until_delivered(3, SimTime::ZERO + SimDuration::from_secs(30));
        let delivered_at = net
            .flow_last_delivery(mwn_pkt::FlowId(0))
            .expect("4-hop chain must deliver 3 packets");
        let sent_at = SimTime::ZERO + gap * 2;
        let delay = delivered_at.duration_since(sent_at);
        cells.push(format!("{:.1} ms", delay.as_nanos() as f64 / 1e6));
    }
    TableData {
        id: "Table 2".into(),
        title: "4-hop propagation delay for different bandwidths".into(),
        headers: vec![
            "".into(),
            "2 Mbit/s".into(),
            "5.5 Mbit/s".into(),
            "11 Mbit/s".into(),
        ],
        rows: vec![{
            let mut row = vec!["measured".to_string()];
            row.extend(cells);
            row
        }],
    }
}

// ---------------------------------------------------------------------
// Figure drivers: folds over the `jobs` grids
// ---------------------------------------------------------------------

/// One figure series with its runs done: legend label and
/// `(x, job, results)` per point.
struct Curve {
    label: String,
    points: Vec<(f64, JobSpec, RunResults)>,
}

/// Runs every job of a figure grid, in series-major order, exactly as a
/// sweep runs it.
fn run_grid(grid: Vec<SeriesJobs>) -> Vec<Curve> {
    grid.into_iter()
        .map(|series| Curve {
            label: series.label,
            points: series
                .points
                .into_iter()
                .map(|(x, job)| {
                    let results = experiment::run(&job.scenario(), job.scale);
                    (x, job, results)
                })
                .collect(),
        })
        .collect()
}

/// Reads `metric` off every run: one series per curve, or per TCP curve
/// if `tcp_only` (window and retransmissions mean nothing for paced UDP).
fn series(
    curves: &[Curve],
    tcp_only: bool,
    metric: impl Fn(&RunResults) -> Estimate,
) -> Vec<Series> {
    let is_tcp =
        |(_, job, _): &(f64, JobSpec, RunResults)| matches!(job.transport, Transport::Tcp { .. });
    curves
        .iter()
        .filter(|c| !tcp_only || c.points.iter().all(is_tcp))
        .map(|c| Series {
            label: c.label.clone(),
            points: c.points.iter().map(|(x, _, r)| (*x, metric(r))).collect(),
        })
        .collect()
}

/// Runs `grid` into a figure of each series' aggregate goodput.
fn goodput(grid: Vec<SeriesJobs>, id: &str, title: &str, x_label: &str) -> FigureData {
    let curves = run_grid(grid);
    let series = series(&curves, false, |r| r.aggregate_goodput_kbps);
    figure(id, title, x_label, "goodput [kbit/s]", series)
}

fn figure(id: &str, title: &str, x_label: &str, y_label: &str, series: Vec<Series>) -> FigureData {
    FigureData {
        id: id.into(),
        title: title.into(),
        x_label: x_label.into(),
        y_label: y_label.into(),
        series,
    }
}

/// Figures 2 and 3: TCP Vegas with α ∈ {2, 3, 4} on the h-hop chain at
/// 2 Mbit/s — goodput (Fig 2) and average window size (Fig 3) vs hops.
pub fn figs_2_3(scale: ExperimentScale) -> (FigureData, FigureData) {
    let curves = run_grid(jobs::fig2_3(scale));
    (
        figure(
            "Fig 2",
            "h-hop chain with 2 Mbit/s: TCP Vegas goodput vs number of hops",
            "hops",
            "goodput [kbit/s]",
            series(&curves, false, |r| r.aggregate_goodput_kbps),
        ),
        figure(
            "Fig 3",
            "h-hop chain with 2 Mbit/s: TCP Vegas average window size vs number of hops",
            "hops",
            "window [packets]",
            series(&curves, false, |r| r.per_flow[0].avg_window),
        ),
    )
}

/// Figure 4: 7-hop chain, TCP Vegas goodput for α ∈ {2, 3, 4} at each
/// bandwidth.
pub fn fig4(scale: ExperimentScale) -> FigureData {
    let title = "7-hop chain: TCP Vegas goodput for different bandwidths";
    goodput(jobs::fig4(scale), "Fig 4", title, "Mbit/s")
}

/// Figure 5: Vegas with ACK thinning for α ∈ {2, 3, 4}, against plain
/// Vegas α = 2, on the 2 Mbit/s chain.
pub fn fig5(scale: ExperimentScale) -> FigureData {
    let title = "h-hop chain with 2 Mbit/s: TCP Vegas with ACK thinning: goodput vs hops";
    goodput(jobs::fig5(scale), "Fig 5", title, "hops")
}

/// Figures 6–9 (one set of runs): goodput, transport retransmissions,
/// average window and false route failures vs chain length at 2 Mbit/s,
/// for Vegas, NewReno, NewReno + ACK thinning and paced UDP.
pub fn figs_6_to_9(scale: ExperimentScale) -> [FigureData; 4] {
    let curves = run_grid(jobs::fig6_9(scale));
    [
        figure(
            "Fig 6",
            "h-hop chain with 2 Mbit/s: goodput vs number of hops",
            "hops",
            "goodput [kbit/s]",
            series(&curves, false, |r| r.aggregate_goodput_kbps),
        ),
        figure(
            "Fig 7",
            "h-hop chain with 2 Mbit/s: retransmissions vs number of hops",
            "hops",
            "retransmissions per delivered packet",
            series(&curves, true, |r| r.per_flow[0].retx_per_packet),
        ),
        figure(
            "Fig 8",
            "h-hop chain with 2 Mbit/s: window size vs number of hops",
            "hops",
            "window [packets]",
            series(&curves, true, |r| r.per_flow[0].avg_window),
        ),
        figure(
            "Fig 9",
            "h-hop chain with 2 Mbit/s: false route failures vs number of hops \
             (normalized to the paper's 110k-packet run length)",
            "hops",
            "false route failures",
            series(&curves, false, |r| Estimate {
                mean: r.false_route_failures_paper_scale,
                half_width: 0.0,
            }),
        ),
    ]
}

/// Figure 10: paced-UDP goodput on the 7-hop 2 Mbit/s chain vs the time
/// between successive packet transmissions (paper optimum ≈ 35.7 ms).
pub fn fig10(scale: ExperimentScale) -> FigureData {
    let title = "7-hop chain with 2 Mbit/s: goodput vs packet inter-sending time";
    goodput(jobs::fig10(scale), "Fig 10", title, "t [ms]")
}

/// Figures 11–14 (one set of runs): goodput, retransmissions, window and
/// link-layer dropping probability on the 7-hop chain at 2/5.5/11 Mbit/s.
pub fn figs_11_to_14(scale: ExperimentScale) -> [FigureData; 4] {
    let curves = run_grid(jobs::fig11_14(scale));
    [
        figure(
            "Fig 11",
            "7-hop chain: goodput for different bandwidths",
            "Mbit/s",
            "goodput [kbit/s]",
            series(&curves, false, |r| r.aggregate_goodput_kbps),
        ),
        figure(
            "Fig 12",
            "7-hop chain: retransmissions for different bandwidths",
            "Mbit/s",
            "retransmissions per delivered packet",
            series(&curves, true, |r| r.per_flow[0].retx_per_packet),
        ),
        figure(
            "Fig 13",
            "7-hop chain: window size for different bandwidths",
            "Mbit/s",
            "window [packets]",
            series(&curves, true, |r| r.per_flow[0].avg_window),
        ),
        figure(
            "Fig 14",
            "7-hop chain: packet dropping probability at link layer",
            "Mbit/s",
            "drop probability",
            series(&curves, false, |r| r.drop_probability),
        ),
    ]
}

// ---------------------------------------------------------------------
// Multi-flow studies: Figures 16–19, Tables 3–4
// ---------------------------------------------------------------------

fn fairness_cell(e: &Estimate) -> String {
    format!("{:.2} [{:.2} : {:.2}]", e.mean, e.lo(), e.hi())
}

/// Figures 16–17 and Table 3 (one set of runs): the 21-node grid with six
/// competing flows — aggregate goodput per bandwidth, per-flow goodput at
/// 11 Mbit/s, and Jain's fairness index.
pub fn grid_study(scale: ExperimentScale) -> (FigureData, FigureData, TableData) {
    multiflow_study(
        jobs::fig16_17(scale),
        (
            "Fig 16",
            "Grid topology: aggregate goodput for different bandwidths",
        ),
        ("Fig 17", "Grid topology: per-flow goodput at 11 Mbit/s"),
        ("Table 3", "Grid topology: Jain's fairness index"),
    )
}

/// Figures 18–19 and Table 4 (one set of runs): the 120-node random
/// topology with ten concurrent flows.
pub fn random_study(scale: ExperimentScale) -> (FigureData, FigureData, TableData) {
    multiflow_study(
        jobs::fig18_19(scale),
        (
            "Fig 18",
            "Random topology: aggregate goodput for different bandwidths",
        ),
        ("Fig 19", "Random topology: per-flow goodput at 11 Mbit/s"),
        ("Table 4", "Random topology: Jain's fairness index"),
    )
}

fn multiflow_study(
    grid: Vec<SeriesJobs>,
    agg_meta: (&str, &str),
    flow_meta: (&str, &str),
    table_meta: (&str, &str),
) -> (FigureData, FigureData, TableData) {
    let curves = run_grid(grid);
    // Per-flow goodput at 11 Mbit/s; x is the flow's 1-based index.
    let per_flow = curves
        .iter()
        .filter_map(|c| {
            let (_, _, r) = c
                .points
                .iter()
                .find(|(_, job, _)| job.bandwidth == DataRate::MBPS_11)?;
            let points = r
                .per_flow
                .iter()
                .enumerate()
                .map(|(i, f)| (i as f64 + 1.0, f.goodput_kbps))
                .collect();
            Some(Series {
                label: c.label.clone(),
                points,
            })
        })
        .collect();
    // Fairness: one row per bandwidth, one column per variant.
    let rows = curves[0]
        .points
        .iter()
        .enumerate()
        .map(|(i, (_, job, _))| {
            std::iter::once(job.bandwidth.to_string())
                .chain(
                    curves
                        .iter()
                        .map(|c| fairness_cell(&c.points[i].2.fairness)),
                )
                .collect()
        })
        .collect();
    let headers = std::iter::once(String::new())
        .chain(curves.iter().map(|c| c.label.clone()))
        .collect();
    (
        figure(
            agg_meta.0,
            agg_meta.1,
            "Mbit/s",
            "aggregate goodput [kbit/s]",
            series(&curves, false, |r| r.aggregate_goodput_kbps),
        ),
        figure(
            flow_meta.0,
            flow_meta.1,
            "flow",
            "goodput [kbit/s]",
            per_flow,
        ),
        TableData {
            id: table_meta.0.into(),
            title: table_meta.1.into(),
            headers,
            rows,
        },
    )
}

// ---------------------------------------------------------------------
// Ablations (design-choice studies beyond the paper's figures)
// ---------------------------------------------------------------------

/// Ablation: physical capture on vs off, NewReno and Vegas on the
/// 2 Mbit/s chain. Shows that ns-2's capture threshold is load-bearing
/// for the chain results (without it, same-direction traffic destroys
/// itself and every variant collapses).
pub fn ablation_capture(scale: ExperimentScale) -> FigureData {
    let title = "Physical capture on/off: chain goodput at 2 Mbit/s";
    goodput(jobs::ablation_capture(scale), "Ablation A", title, "hops")
}

/// Ablation: control frames at the data rate instead of 1 Mbit/s. Shows
/// the sub-linear goodput growth of Figures 4/11 is caused by the fixed
/// basic rate.
pub fn ablation_basic_rate(scale: ExperimentScale) -> FigureData {
    let title = "Basic-rate control frames vs data-rate control frames (7-hop Vegas)";
    let grid = jobs::ablation_basic_rate(scale);
    goodput(grid, "Ablation B", title, "Mbit/s")
}

/// Ablation: carrier-sense range below/at/above the hidden-terminal
/// threshold. With CS range ≥ 3 hops (600 m) the chain has no hidden
/// terminals and NewReno's losses fall sharply.
pub fn ablation_cs_range(scale: ExperimentScale) -> FigureData {
    let curves = run_grid(jobs::ablation_cs_range(scale));
    figure(
        "Ablation C",
        "Carrier-sense range vs NewReno retransmission rate (hidden-terminal regime)",
        "hops",
        "retransmissions per delivered packet",
        series(&curves, false, |r| r.per_flow[0].retx_per_packet),
    )
}

/// Extension: the link-layer enhancements of Fu et al. (the paper's
/// reference \[5\]) — adaptive pacing and link-RED — applied under TCP
/// NewReno on the 2 Mbit/s chain. Fu et al. report 5–30 % goodput
/// improvement; the paper positions TCP Vegas as an end-to-end
/// alternative to these link-layer fixes.
pub fn extension_fu_enhancements(scale: ExperimentScale) -> FigureData {
    let title = "Fu et al. link-layer enhancements under TCP NewReno (2 Mbit/s chain)";
    goodput(jobs::ext_fu(scale), "Extension", title, "hops")
}

/// Extension: the four-variant TCP comparison of Xu & Saadawi (WCMC 2002,
/// the paper's reference \[15\]) — Tahoe, Reno, NewReno and Vegas on the
/// 2 Mbit/s chain. Xu & Saadawi report 15–20 % more goodput for Vegas;
/// the paper (with α tuned to 2) finds up to 83 %.
pub fn extension_tcp_variants(scale: ExperimentScale) -> FigureData {
    let title = "Four TCP variants on the 2 Mbit/s chain (cf. Xu & Saadawi)";
    goodput(jobs::ext_variants(scale), "Extension", title, "hops")
}

/// Extension: verifies the paper's §2 claim that "for the h-hop chain the
/// optimum TCP window size is given by h/4" by sweeping NewReno's MaxWin.
pub fn extension_optimal_window(scale: ExperimentScale) -> FigureData {
    let title = "NewReno goodput vs window bound MaxWin (optimum expected near h/4)";
    goodput(jobs::ext_optwin(scale), "Extension", title, "MaxWin")
}

/// Extension: the 7-hop chain pushed to IEEE 802.11g OFDM rates (24 and
/// 54 Mbit/s) — the "bandwidths higher than 2 Mbit/s" future the paper's
/// introduction motivates. The sub-linear goodput law continues: the
/// fixed preamble and basic-rate control frames dominate ever more.
pub fn extension_80211g(scale: ExperimentScale) -> FigureData {
    let title = "7-hop chain over 802.11g OFDM: goodput at 11/24/54 Mbit/s";
    goodput(jobs::ext_80211g(scale), "Extension", title, "Mbit/s")
}

/// Extension: mobility and ELFN (Holland & Vaidya, the paper's reference
/// \[7\]). Random-waypoint movement on a 1500 × 300 m strip; x-axis is the
/// maximum node speed (0 = the paper's static case). With ELFN the TCP
/// sender freezes on an explicit route-failure notice and probes instead
/// of backing off exponentially.
pub fn extension_mobility_elfn(scale: ExperimentScale) -> FigureData {
    let curves = run_grid(jobs::ext_elfn(scale));
    // Mobility outcomes depend heavily on the drawn trajectories: each
    // point pools the goodputs of the layouts run at its speed.
    let pooled = curves
        .iter()
        .map(|c| Series {
            label: c.label.clone(),
            points: c
                .points
                .chunk_by(|a, b| a.0 == b.0)
                .map(|layouts| {
                    let mut over_seeds = BatchMeans::new();
                    for (_, _, r) in layouts {
                        over_seeds.push(r.aggregate_goodput_kbps.mean);
                    }
                    (layouts[0].0, over_seeds.estimate())
                })
                .collect(),
        })
        .collect();
    figure(
        "Extension",
        "Mobility (random waypoint) and ELFN: aggregate goodput vs max speed",
        "m/s",
        "aggregate goodput [kbit/s]",
        pooled,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            batch_packets: 60,
            batches: 3,
            deadline: SimDuration::from_secs(600),
        }
    }

    #[test]
    fn table2_measures_plausible_delays() {
        let t = table2();
        assert_eq!(t.rows.len(), 1);
        let parse = |s: &str| s.trim_end_matches(" ms").parse::<f64>().unwrap();
        let d2 = parse(&t.rows[0][1]);
        let d55 = parse(&t.rows[0][2]);
        let d11 = parse(&t.rows[0][3]);
        // Paper: 29 / 12 / 8 ms. Accept the right ordering and ballpark.
        assert!(d2 > d55 && d55 > d11, "{d2} > {d55} > {d11} expected");
        assert!((20.0..45.0).contains(&d2), "2 Mbit/s delay {d2} ms");
        assert!((6.0..20.0).contains(&d55), "5.5 Mbit/s delay {d55} ms");
        assert!((4.0..16.0).contains(&d11), "11 Mbit/s delay {d11} ms");
    }

    #[test]
    fn figure_rendering_is_wellformed() {
        let fig = FigureData {
            id: "Fig X".into(),
            title: "test".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                label: "s".into(),
                points: vec![(
                    1.0,
                    Estimate {
                        mean: 10.0,
                        half_width: 1.0,
                    },
                )],
            }],
        };
        let text = fig.render();
        assert!(text.contains("Fig X"));
        assert!(text.contains("10.00"));
        let csv = fig.to_csv();
        assert_eq!(csv.lines().next(), Some("x,s,s_ci95"));
        assert_eq!(csv.lines().nth(1), Some("1,10,1"));
    }

    #[test]
    fn table_rendering_is_wellformed() {
        let t = TableData {
            id: "Table X".into(),
            title: "test".into(),
            headers: vec!["".into(), "a".into()],
            rows: vec![vec!["r".into(), "1".into()]],
        };
        let text = t.render();
        assert!(text.contains("Table X"));
        assert!(text.lines().any(|l| l.split_whitespace().eq(["r", "1"])));
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(seed_for(&[1, 2, 3]), seed_for(&[1, 2, 3]));
        assert_ne!(seed_for(&[1, 2, 3]), seed_for(&[1, 2, 4]));
        assert_ne!(seed_for(&[1, 2, 3]), seed_for(&[3, 2, 1]));
    }

    #[test]
    fn fig4_runs_at_tiny_scale() {
        let f = fig4(tiny());
        assert_eq!(f.series.len(), 3);
        for s in &f.series {
            assert_eq!(s.points.len(), 3);
            // Goodput grows with bandwidth.
            assert!(s.points[2].1.mean > s.points[0].1.mean);
        }
        // Every figure point is the run of the matching sweep cell.
        let cells: Vec<JobSpec> = jobs::full_suite(tiny())
            .into_iter()
            .filter(|job| job.group == "fig4")
            .collect();
        let points: Vec<Estimate> = f
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(_, e)| *e))
            .collect();
        assert_eq!(points.len(), cells.len());
        for (point, cell) in points.iter().zip(&cells) {
            let run = experiment::run(&cell.scenario(), cell.scale);
            assert_eq!(*point, run.aggregate_goodput_kbps, "{}", cell.point);
        }
    }
}
