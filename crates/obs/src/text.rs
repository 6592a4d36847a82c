//! The one text rendering of a [`MetricsReport`], which `mwn stats` and
//! `mwn traffic` print.

use std::fmt::{self, Write};

use crate::drop::{ConservationReport, DropReason};
use crate::metrics::{CounterBlock, FlowCounters, MetricsReport};
use crate::probe::{ProbeKind, ProbeSample};

impl MetricsReport {
    /// The report as text, one section per kind of data it holds: the
    /// engine profile, per-layer and per-flow counters, the drop ledger,
    /// the `conservation` verdict, per-batch dropping probability
    /// (Fig. 14), a cwnd series of at most `series` samples (Figs. 3–4)
    /// and per-class flow completion. Sections whose data the report
    /// lacks are left out. Wall-clock figures (events/sec, timed-section
    /// seconds and shares) appear only when `wall_secs` is given.
    pub fn text(
        &self,
        wall_secs: Option<f64>,
        series: usize,
        conservation: Option<&ConservationReport>,
    ) -> String {
        let mut out = String::new();
        self.write_text(&mut out, wall_secs, series, conservation)
            .expect("writing to a String cannot fail");
        // Every section opens with a blank line; the first needs none.
        out.strip_prefix('\n').unwrap_or(&out).to_string()
    }

    fn write_text(
        &self,
        f: &mut String,
        wall_secs: Option<f64>,
        series: usize,
        conservation: Option<&ConservationReport>,
    ) -> fmt::Result {
        let p = &self.profile;
        if p.events_processed() > 0 {
            writeln!(f, "\nengine profile")?;
            writeln!(f, "  events processed {:>12}", p.events_processed())?;
            if let Some(wall) = wall_secs {
                writeln!(
                    f,
                    "  events/sec       {:>12.0}  (wall {wall:.2} s)",
                    p.events_per_sec(wall)
                )?;
            }
            writeln!(f, "  peak event queue {:>12}", p.peak_queue_depth())?;
            for (kind, count) in p.by_kind() {
                writeln!(f, "    {kind:<18} {count:>10}")?;
            }
            // signal_start / signal_end above count wave segments (queue
            // pops); the receivers they reached are the edges here.
            writeln!(f, "  signal edges     {:>12}", p.signal_edges())?;
            writeln!(
                f,
                "  wave yields      {:>12}  ({:.0}% of wave segments)",
                p.wave_yields(),
                100.0 * self.wave_yield_share()
            )?;
            writeln!(f, "  receptions/tx    {:>12.1}", self.rx_per_tx())?;
            if self.delivered > 0 {
                writeln!(f, "  events/packet    {:>12.1}", self.events_per_packet())?;
                writeln!(
                    f,
                    "  schedules/packet {:>12.1}",
                    self.schedules_per_packet()
                )?;
                writeln!(f, "  cancels/packet   {:>12.1}", self.cancels_per_packet())?;
            }
            // What bystanders did not cost: NAV timers that never entered
            // the queue, and radio-event batches the MAC had no answer to.
            let nav_sets = p.nav_parked + p.nav_armed;
            writeln!(
                f,
                "  nav parked       {:>12}  ({:.0}% of {nav_sets} NAV sets; {} materialised)",
                p.nav_parked,
                100.0 * p.nav_parked as f64 / nav_sets.max(1) as f64,
                p.nav_materialised
            )?;
            writeln!(
                f,
                "  quiet mac batches{:>12}",
                p.mac_batches_without_actions
            )?;
            writeln!(
                f,
                "  bystander batches absorbed {} of {}",
                p.radio_batches_absorbed, p.mac_batches_without_actions
            )?;
            // Protocol state is built for the nodes whose MAC or router
            // acted. The
            // lazy medium: a node's first transmission in an epoch fills a
            // one-shot list, its second stores the list (a build or a
            // rebuild, each sorted into arrival order once).
            let nodes = self.totals.nodes.len();
            writeln!(
                f,
                "  node records     {:>12}  of {nodes} nodes",
                p.node_records
            )?;
            writeln!(
                f,
                "  radio bytes/node {:>12}  overflow peak {} signals",
                p.radio_bytes_per_node, p.radio_overflow_peak
            )?;
            writeln!(
                f,
                "  lists built      {:>12}  of {nodes} nodes, {} one-shot",
                self.medium.builds, self.medium.one_shots
            )?;
            writeln!(
                f,
                "  medium sorts     {:>12}  (= {} builds + {} rebuilds) + {} one-shot",
                self.medium.builds + self.medium.rebuilds,
                self.medium.builds,
                self.medium.rebuilds,
                self.medium.one_shots
            )?;
            for (kind, invocations, secs) in p.timed() {
                write!(f, "  {kind:<18} {invocations:>10} calls")?;
                if let Some(wall) = wall_secs {
                    write!(
                        f,
                        "  {secs:>8.3} s  ({:.0}% of wall)",
                        100.0 * secs / wall.max(f64::MIN_POSITIVE)
                    )?;
                }
                writeln!(f)?;
            }
        }

        if !self.totals.nodes.is_empty() {
            let totals = self.totals.node_totals();
            writeln!(f, "\nper-layer counter totals (all nodes, whole run)")?;
            block(f, "phy", &totals.phy)?;
            block(f, "mac", &totals.mac)?;
            block(f, "aodv", &totals.aodv)?;
            writeln!(
                f,
                "  gauges: route_table_size {} ifq_depth {}",
                totals.route_table_size, totals.ifq_depth
            )?;
        }

        let flows = &self.totals.flows;
        if flows.iter().any(|c| c.sender.is_some() || c.sink.is_some()) {
            writeln!(f, "\ntransport counter totals (per flow)")?;
            for (i, c) in flows.iter().enumerate() {
                flow_blocks(f, &format!("f{i} "), c)?;
            }
        }
        if let Some(retired) = &self.retired_tcp {
            writeln!(f, "\ntransport counter totals (completed flows)")?;
            flow_blocks(f, "", retired)?;
        }

        if let Some(ledger) = &self.drops {
            writeln!(
                f,
                "\ndrop ledger — {} dropped, {} terminal (* = takes custody)",
                ledger.grand_total(),
                ledger.terminal_total()
            )?;
            if ledger.is_empty() {
                writeln!(f, "  (no drops recorded)")?;
            } else {
                let classes = ledger.class_names();
                write!(f, "  {:<26}", "layer / reason")?;
                for name in classes {
                    write!(f, " {name:>12}")?;
                }
                writeln!(f, " {:>12}", "total")?;
                let totals = ledger.totals();
                let mut last_layer = "";
                for reason in DropReason::ALL {
                    if totals[reason.index()] == 0 {
                        continue;
                    }
                    if reason.layer() != last_layer {
                        last_layer = reason.layer();
                        writeln!(f, "  {last_layer}")?;
                    }
                    let mark = if reason.is_terminal() { "*" } else { "" };
                    write!(f, "    {:<24}", format!("{}{mark}", reason.label()))?;
                    for c in 0..classes.len() {
                        write!(f, " {:>12}", ledger.class_counts(c)[reason.index()])?;
                    }
                    writeln!(f, " {:>12}", totals[reason.index()])?;
                }
            }
        }

        if let Some(cons) = conservation {
            writeln!(f, "\nconservation audit: {cons}")?;
        }

        if !self.batches.is_empty() {
            writeln!(f, "\nlink-layer dropping probability per batch (Fig. 14)")?;
            for (i, b) in self.batches.iter().enumerate() {
                let tag = if i == 0 { " (transient)" } else { "" };
                writeln!(
                    f,
                    "  batch {i:<2} [{:>8.1}..{:>8.1} s]  {:.4}{tag}",
                    b.start.as_secs_f64(),
                    b.end.as_secs_f64(),
                    b.drop_probability()
                )?;
            }
            writeln!(
                f,
                "  steady-state mean (batch-means over measured batches): {:.4}",
                self.drop_probability()
            )?;
        }

        let cwnd: Vec<&ProbeSample> = self
            .probes
            .iter()
            .filter(|s| s.kind == ProbeKind::Cwnd && s.id == 0)
            .collect();
        if !cwnd.is_empty() {
            let shown = downsample(&cwnd, series);
            writeln!(
                f,
                "\ncwnd vs time, flow 0 (Figs. 3-4) — {} change points, showing {}",
                cwnd.len(),
                shown.len()
            )?;
            writeln!(f, "  {:>10}  {:>7}", "t (s)", "cwnd")?;
            for s in shown {
                writeln!(f, "  {:>10.3}  {:>7.2}", s.time.as_secs_f64(), s.value)?;
            }
        }

        if let Some(fct) = &self.fct {
            writeln!(f, "\nflow completion per class (open-loop traffic)")?;
            writeln!(
                f,
                "  class        arrivals  completions  fct_p50_s  fct_p95_s  fct_p99_s  gput_p50_kbps"
            )?;
            let q =
                |v: Option<f64>, digits: usize| v.map_or("-".into(), |x| format!("{x:.digits$}"));
            for c in fct.classes() {
                writeln!(
                    f,
                    "  {:<12} {:>8}  {:>11}  {:>9}  {:>9}  {:>9}  {:>13}",
                    c.name(),
                    c.arrivals(),
                    c.completions(),
                    q(c.fct().p50(), 4),
                    q(c.fct().p95(), 4),
                    q(c.fct().p99(), 4),
                    q(c.goodput().p50(), 1),
                )?;
            }
        }
        Ok(())
    }
}

fn block<B: CounterBlock>(f: &mut String, label: &str, block: &B) -> fmt::Result {
    write!(f, "  {label:<6}")?;
    for (name, v) in B::field_names().iter().zip(block.values()) {
        write!(f, " {name} {v}")?;
    }
    writeln!(f)
}

/// A flow's sender and sink blocks, labelled `{prefix}tx` and `{prefix}rx`.
fn flow_blocks(f: &mut String, prefix: &str, c: &FlowCounters) -> fmt::Result {
    if let Some(tx) = &c.sender {
        block(f, &format!("{prefix}tx"), tx)?;
    }
    if let Some(rx) = &c.sink {
        block(f, &format!("{prefix}rx"), rx)?;
    }
    Ok(())
}

/// Evenly thins `samples` down to at most `limit` entries, keeping the
/// first and, from two samples up, the last, so the series' extent is
/// visible.
fn downsample<'a>(samples: &[&'a ProbeSample], limit: usize) -> Vec<&'a ProbeSample> {
    if samples.len() <= limit || limit < 2 {
        return samples[..samples.len().min(limit)].to_vec();
    }
    let last = samples.len() - 1;
    (0..limit)
        .map(|i| samples[i * last / (limit - 1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drop::DropLedger;
    use crate::fct::FctSummary;
    use crate::metrics::{MetricsSnapshot, NodeCounters};
    use mwn_phy::MediumCounters;
    use mwn_sim::{EngineProfile, SimDuration, SimTime};
    use mwn_tcp::{TcpSenderStats, TcpSinkStats};

    fn cwnd(n: usize) -> Vec<ProbeSample> {
        (0..n)
            .map(|i| ProbeSample {
                time: SimTime::from_nanos(i as u64 * 1_000_000_000),
                kind: ProbeKind::Cwnd,
                id: 0,
                value: i as f64,
            })
            .collect()
    }

    #[test]
    fn downsample_keeps_at_most_limit_first_and_last() {
        let samples = cwnd(10);
        let refs: Vec<&ProbeSample> = samples.iter().collect();
        let values =
            |limit| -> Vec<f64> { downsample(&refs, limit).iter().map(|s| s.value).collect() };
        assert_eq!(values(0), Vec::<f64>::new());
        assert_eq!(values(1), [0.0], "one sample shown, not two");
        assert_eq!(values(2), [0.0, 9.0]);
        assert_eq!(values(4), [0.0, 3.0, 6.0, 9.0]);
        assert_eq!(values(10).len(), 10);
        assert_eq!(values(99).len(), 10);
    }

    #[test]
    fn series_header_counts_the_samples_it_shows() {
        let report = MetricsReport {
            probes: cwnd(10),
            ..MetricsReport::default()
        };
        let text = report.text(None, 1, None);
        assert!(text.contains("10 change points, showing 1\n"), "{text}");
        assert_eq!(text.lines().count(), 3, "header, column names, one row");
    }

    /// A report prints only the sections it has data for, and no
    /// wall-clock figure unless it is given a wall time.
    #[test]
    fn sections_follow_the_data_and_wall_figures_need_a_wall_time() {
        assert_eq!(MetricsReport::default().text(None, 24, None), "");

        let mut profile = EngineProfile::new();
        profile.record("tx_end", 1);
        profile.record_timed_n("medium_lazy", 3, 0.25);
        profile.node_records = 2;
        profile.radio_bytes_per_node = 38;
        profile.radio_overflow_peak = 4;
        profile.mac_batches_without_actions = 7;
        profile.radio_batches_absorbed = 6;
        let mut fct = FctSummary::new(&["web"]);
        fct.class_mut(0).record_arrival();
        fct.class_mut(0)
            .record_completion(SimDuration::from_secs(1), 10);
        let report = MetricsReport {
            totals: MetricsSnapshot {
                time: SimTime::from_nanos(2_000_000_000),
                nodes: vec![NodeCounters::default(); 2],
                flows: vec![FlowCounters::default()],
            },
            profile,
            delivered: 5,
            medium: MediumCounters {
                one_shots: 3,
                builds: 1,
                ..MediumCounters::default()
            },
            drops: Some(DropLedger::new(2, vec!["web".into()])),
            fct: Some(fct),
            retired_tcp: Some(FlowCounters {
                sender: Some(TcpSenderStats::default()),
                sink: Some(TcpSinkStats::default()),
                ..Default::default()
            }),
            ..MetricsReport::default()
        };
        let text = report.text(None, 24, None);
        for present in [
            "engine profile\n",
            "  events/packet             0.2\n",
            "  bystander batches absorbed 6 of 7\n",
            "  node records                2  of 2 nodes\n",
            "  radio bytes/node           38  overflow peak 4 signals\n",
            "  lists built                 1  of 2 nodes, 3 one-shot\n",
            "  medium sorts                1  (= 1 builds + 0 rebuilds) + 3 one-shot\n",
            "  medium_lazy                 3 calls\n",
            "\nper-layer counter totals (all nodes, whole run)\n",
            "\ntransport counter totals (completed flows)\n  tx     data_packets_sent 0",
            "\ndrop ledger — 0 dropped, 0 terminal (* = takes custody)\n  (no drops recorded)\n",
            "\nflow completion per class (open-loop traffic)\n",
            "  web                 1            1     1.0000     1.0000     1.0000          116.8\n",
        ] {
            assert!(text.contains(present), "missing {present:?} in\n{text}");
        }
        for absent in [
            "events/sec",
            "of wall",
            "(per flow)",
            "conservation",
            "Fig. 14",
            "cwnd",
        ] {
            assert!(!text.contains(absent), "unexpected {absent:?} in\n{text}");
        }
        let timed = report.text(Some(0.5), 24, None);
        assert!(
            timed.contains("  events/sec                  2  (wall 0.50 s)\n"),
            "{timed}"
        );
        assert!(
            timed.contains("  medium_lazy                 3 calls     0.250 s  (50% of wall)\n"),
            "{timed}"
        );
    }
}
