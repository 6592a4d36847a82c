//! Steady-state experiment runner (paper §4.1).
//!
//! The paper simulates persistent FTP flows until 110 000 packets are
//! delivered, splits the output into 11 batches of 10 000 packets, discards
//! the first batch as the initial transient, and reports batch means with
//! 95 % confidence intervals. [`run`] reproduces that procedure at a
//! configurable scale.

use mwn_obs::{MetricsRegistry, MetricsReport};
use mwn_pkt::FlowId;
use mwn_sim::stats::{jain_fairness, BatchMeans, Estimate};
use mwn_sim::{SimDuration, SimTime};

use crate::network::StepOutcome;
use crate::scenario::Scenario;

/// Bits of application payload per delivered packet (1460 bytes).
const BITS_PER_PACKET: f64 = 1460.0 * 8.0;

/// How much work one experiment does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Packets per batch (the paper: 10 000).
    pub batch_packets: u64,
    /// Number of batches including the discarded transient (the paper: 11).
    pub batches: usize,
    /// Simulated-time budget; a run that cannot deliver its packets by
    /// this deadline is truncated (prevents hangs on starved scenarios).
    pub deadline: SimDuration,
}

impl ExperimentScale {
    /// The paper's full scale: 11 × 10 000 packets.
    pub fn paper() -> Self {
        ExperimentScale {
            batch_packets: 10_000,
            batches: 11,
            deadline: SimDuration::from_secs(40_000),
        }
    }

    /// The default scale of `mwn repro` (`--scale 1`): 11 × 400 packets.
    pub fn quick() -> Self {
        ExperimentScale {
            batch_packets: 400,
            batches: 11,
            deadline: SimDuration::from_secs(4_000),
        }
    }

    /// A tiny scale for unit/integration tests: 4 × 120 packets.
    pub fn smoke() -> Self {
        ExperimentScale {
            batch_packets: 120,
            batches: 4,
            deadline: SimDuration::from_secs(1_200),
        }
    }

    /// The quick scale multiplied by `mult` (25 = the paper's 10 000
    /// packets per batch), with a proportionally extended deadline.
    ///
    /// Saturates instead of overflowing, so absurd multipliers degrade to
    /// "as large as representable" rather than wrapping to tiny runs.
    pub fn scaled(mult: u64) -> Self {
        let mult = mult.max(1);
        let quick = Self::quick();
        // `SimDuration::from_secs` multiplies by 1e9 internally; clamp so
        // that step cannot overflow either.
        let secs = 4_000u64.saturating_mul(mult).min(u64::MAX / 1_000_000_000);
        ExperimentScale {
            batch_packets: quick.batch_packets.saturating_mul(mult),
            batches: quick.batches,
            deadline: SimDuration::from_secs(secs),
        }
    }
}

/// What the observability layer collects during a run.
///
/// Everything defaults to off; [`run`] uses [`ObsConfig::off`], so
/// uninstrumented experiments pay nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Collect per-batch counter deltas and whole-run totals.
    pub metrics: bool,
    /// Probe-buffer capacity in samples (0 disables time-series probes).
    pub probe_capacity: usize,
    /// Profile the event loop (events processed, histogram, peak queue).
    pub profile: bool,
    /// Run the packet-custody conservation audit alongside the drop
    /// ledger; the verdict lands in [`RunResults::conservation`].
    pub audit: bool,
    /// Ignored; kept only so the frozen benchmark source under `bench/`
    /// (which builds this struct as a literal) compiles. Delete with
    /// ROADMAP item 2(c).
    pub shards: usize,
}

impl ObsConfig {
    /// Nothing collected ([`RunResults::metrics`] stays `None`).
    pub fn off() -> Self {
        Self::default()
    }

    /// Everything on, retaining up to `probe_capacity` probe samples.
    pub fn full(probe_capacity: usize) -> Self {
        ObsConfig {
            metrics: true,
            probe_capacity,
            profile: true,
            audit: true,
            shards: 0,
        }
    }

    fn enabled(&self) -> bool {
        self.metrics || self.probe_capacity > 0 || self.profile || self.audit
    }
}

/// Steady-state measures for one flow.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The flow.
    pub flow: FlowId,
    /// Goodput in kbit/s (batch means ± 95 % CI).
    pub goodput_kbps: Estimate,
    /// Transport-layer retransmissions per delivered packet.
    pub retx_per_packet: Estimate,
    /// Time-weighted average congestion window (packets).
    pub avg_window: Estimate,
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All batches completed.
    Completed,
    /// The deadline expired; results cover the completed batches only.
    Truncated {
        /// Batches that did complete (excluding the transient).
        completed_batches: usize,
    },
}

/// Results of one steady-state experiment.
#[derive(Debug, Clone)]
pub struct RunResults {
    /// Per-flow measures.
    pub per_flow: Vec<FlowResult>,
    /// Sum of all flows' goodput, kbit/s.
    pub aggregate_goodput_kbps: Estimate,
    /// Jain's fairness index over per-flow goodputs.
    pub fairness: Estimate,
    /// Link-layer dropping probability (contention drops per packet that
    /// entered MAC service), network-wide.
    pub drop_probability: Estimate,
    /// False route failures observed during the measured batches.
    pub false_route_failures: u64,
    /// False route failures normalized to the paper's 110 000-packet run
    /// length, to make scaled-down runs comparable with Figure 9.
    pub false_route_failures_paper_scale: f64,
    /// Total packets delivered during the measured batches.
    pub packets_measured: u64,
    /// Simulated duration of the measured batches.
    pub measured_time: SimDuration,
    /// Total radio energy over all nodes for the whole run, joules.
    pub total_energy_joules: f64,
    /// Energy per delivered packet, joules.
    pub energy_per_packet: f64,
    /// Whether the run completed or was truncated at the deadline.
    pub outcome: RunOutcome,
    /// Unified observability report (`None` unless requested via
    /// [`run_instrumented`]).
    pub metrics: Option<MetricsReport>,
    /// Packet-custody conservation verdict (`None` unless
    /// [`ObsConfig::audit`] was set).
    pub conservation: Option<mwn_obs::ConservationReport>,
}

/// Per-slot counters snapshot at a batch boundary. `tenant` keys the
/// baseline to the flow that produced it: open-loop churn can vacate and
/// re-let a slot mid-batch, and a baseline from the previous tenant must
/// not be subtracted from the new one's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FlowSnapshot {
    tenant: Option<FlowId>,
    delivered: u64,
    retransmissions: u64,
}

/// Runs `scenario` at `scale` and reports batch-means estimates.
///
/// # Example
///
/// ```
/// use mwn::{experiment, ExperimentScale, Scenario, Transport};
/// use mwn_phy::DataRate;
///
/// let s = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 7);
/// let r = experiment::run(&s, ExperimentScale::smoke());
/// assert!(r.aggregate_goodput_kbps.mean > 0.0);
/// ```
pub fn run(scenario: &Scenario, scale: ExperimentScale) -> RunResults {
    run_instrumented(scenario, scale, ObsConfig::off())
}

/// Like [`run`], with the observability layer collecting what `obs` asks
/// for; the report lands in [`RunResults::metrics`].
pub fn run_instrumented(scenario: &Scenario, scale: ExperimentScale, obs: ObsConfig) -> RunResults {
    let mut net = scenario.build();
    if obs.probe_capacity > 0 {
        net.enable_probes(obs.probe_capacity);
    }
    if obs.profile {
        net.enable_profiling();
    }
    if obs.audit {
        net.enable_audit();
    }
    let mut registry = obs.metrics.then(MetricsRegistry::new);
    if let Some(reg) = &mut registry {
        reg.begin(net.collect_metrics());
    }
    let flows = net.flow_count();
    let deadline = SimTime::ZERO + scale.deadline;

    let mut goodput = vec![BatchMeans::new(); flows];
    let mut retx = vec![BatchMeans::new(); flows];
    let mut window = vec![BatchMeans::new(); flows];
    let mut aggregate = BatchMeans::new();
    let mut fairness = BatchMeans::new();
    let mut drop_prob = BatchMeans::new();

    let mut snapshots: Vec<FlowSnapshot> = vec![FlowSnapshot::default(); flows];
    let mut batch_start = net.now();
    let mut mac_accepted_prev = 0u64;
    let mut mac_drops_prev = 0u64;
    let mut frf_at_transient_end = 0u64;
    let mut packets_measured = 0u64;
    let mut measured_time = SimDuration::ZERO;
    let mut completed_batches = 0usize;
    let mut outcome = RunOutcome::Completed;

    for batch in 0..scale.batches {
        let target = scale.batch_packets * (batch as u64 + 1);
        let res = net.run_until_delivered(target, deadline);
        let now = net.now();
        let elapsed = now.duration_since(batch_start);

        if res != StepOutcome::TargetReached {
            outcome = RunOutcome::Truncated { completed_batches };
            break;
        }

        // Per-flow batch measures. Open-loop churn can grow the slot
        // table between boundaries; extend the trackers to match (the
        // persistent prefix keeps its full batch history).
        let flows = net.flow_count();
        if flows > snapshots.len() {
            snapshots.resize(flows, FlowSnapshot::default());
            goodput.resize(flows, BatchMeans::new());
            retx.resize(flows, BatchMeans::new());
            window.resize(flows, BatchMeans::new());
        }
        let mut flow_goodputs = Vec::with_capacity(flows);
        for i in 0..flows {
            let tenant = net.flow_at(i);
            let (delivered, retx_total) = match tenant {
                Some(flow) => (
                    net.flow_delivered(flow),
                    net.flow_sender_stats(flow).map_or(0, |s| s.retransmissions),
                ),
                None => (0, 0),
            };
            // A tenant change invalidates the baseline: the new flow's
            // counters started from zero after the snapshot was taken.
            let stale = tenant != snapshots[i].tenant;
            let d_delta = delivered.saturating_sub(if stale { 0 } else { snapshots[i].delivered });
            let r_delta = retx_total.saturating_sub(if stale {
                0
            } else {
                snapshots[i].retransmissions
            });
            let gp = if elapsed.is_zero() {
                0.0
            } else {
                d_delta as f64 * BITS_PER_PACKET / elapsed.as_secs_f64() / 1000.0
            };
            let rpp = if d_delta == 0 {
                0.0
            } else {
                r_delta as f64 / d_delta as f64
            };
            let win = tenant.map_or(1.0, |f| net.flow_avg_window(f));
            snapshots[i] = FlowSnapshot {
                tenant,
                delivered,
                retransmissions: retx_total,
            };
            flow_goodputs.push(gp);
            if batch > 0 {
                goodput[i].push(gp);
                retx[i].push(rpp);
                window[i].push(win);
            }
        }
        let totals = net.totals();
        let accepted_delta = totals.mac.unicast_accepted - mac_accepted_prev;
        let drops_delta = totals.mac.contention_drops() - mac_drops_prev;
        mac_accepted_prev = totals.mac.unicast_accepted;
        mac_drops_prev = totals.mac.contention_drops();

        if batch > 0 {
            aggregate.push(flow_goodputs.iter().sum());
            fairness.push(jain_fairness(&flow_goodputs));
            drop_prob.push(if accepted_delta == 0 {
                0.0
            } else {
                drops_delta as f64 / accepted_delta as f64
            });
            packets_measured += scale.batch_packets;
            measured_time += elapsed;
            completed_batches += 1;
        } else {
            // End of the transient batch: snapshot route-failure count.
            frf_at_transient_end = totals.aodv.false_route_failures;
        }
        if let Some(reg) = &mut registry {
            reg.end_batch(net.collect_metrics());
        }
        net.reset_window_averages();
        batch_start = now;
    }

    let frf = net
        .totals()
        .aodv
        .false_route_failures
        .saturating_sub(frf_at_transient_end);
    let frf_paper_scale = if packets_measured == 0 {
        0.0
    } else {
        frf as f64 * 110_000.0 / packets_measured as f64
    };
    let energy = net.total_energy_joules();
    let delivered_total = net.total_delivered().max(1);
    let metrics = obs.enabled().then(|| {
        let mut report = net.report();
        report.batches = registry
            .map(MetricsRegistry::into_batches)
            .unwrap_or_default();
        report
    });
    let conservation = net.conservation_report();

    RunResults {
        per_flow: (0..goodput.len())
            .map(|i| FlowResult {
                flow: FlowId(i as u32),
                goodput_kbps: goodput[i].estimate(),
                retx_per_packet: retx[i].estimate(),
                avg_window: window[i].estimate(),
            })
            .collect(),
        aggregate_goodput_kbps: aggregate.estimate(),
        fairness: fairness.estimate(),
        drop_probability: drop_prob.estimate(),
        false_route_failures: frf,
        false_route_failures_paper_scale: frf_paper_scale,
        packets_measured,
        measured_time,
        total_energy_joules: energy,
        energy_per_packet: energy / delivered_total as f64,
        outcome,
        metrics,
        conservation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Transport;
    use mwn_phy::DataRate;

    #[test]
    fn smoke_run_produces_estimates() {
        let s = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 1);
        let r = run(&s, ExperimentScale::smoke());
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert_eq!(r.per_flow.len(), 1);
        assert!(r.aggregate_goodput_kbps.mean > 0.0);
        assert!(r.per_flow[0].avg_window.mean >= 1.0);
        assert_eq!(r.packets_measured, 120 * 3);
        // Single flow: fairness is 1 by definition.
        assert!((r.fairness.mean - 1.0).abs() < 1e-9);
        assert!(r.total_energy_joules > 0.0);
    }

    #[test]
    fn instrumented_run_collects_metrics_and_matches_uninstrumented() {
        let s = Scenario::chain(2, DataRate::MBPS_2, Transport::vegas(2), 1);
        let scale = ExperimentScale::smoke();
        let plain = run(&s, scale);
        let inst = run_instrumented(&s, scale, ObsConfig::full(1 << 16));

        // Observation must not perturb the simulation.
        assert_eq!(
            plain.aggregate_goodput_kbps.mean,
            inst.aggregate_goodput_kbps.mean
        );
        assert!(plain.metrics.is_none());

        let m = inst.metrics.expect("instrumented run reports metrics");
        // One BatchMetrics per completed batch, transient included.
        assert_eq!(m.batches.len(), scale.batches);
        let totals = m.totals.node_totals();
        assert!(totals.mac.data_sent > 0);
        assert!(totals.mac.unicast_accepted > 0);
        // Whole-run totals equal the sum of the per-batch deltas plus
        // whatever preceded the first boundary (nothing here).
        let batch_sum: u64 = m
            .batches
            .iter()
            .map(|b| b.node_totals().mac.data_sent)
            .sum();
        assert_eq!(batch_sum, totals.mac.data_sent);
        // Probes captured a cwnd series for the flow, and Vegas exposes
        // its diff signal once RTT estimates exist.
        assert!(m
            .probes
            .iter()
            .any(|p| p.kind == mwn_obs::ProbeKind::Cwnd && p.id == 0));
        assert!(m
            .probes
            .iter()
            .any(|p| p.kind == mwn_obs::ProbeKind::VegasDiff));
        // The profile saw every event the run processed.
        assert!(m.profile.events_processed() > 0);
        assert!(m.profile.peak_queue_depth() > 0);
        assert!(m.profile.by_kind().iter().any(|&(k, _)| k == "mac_timer"));
        // The drop ledger rode along in the report; a persistent-flow
        // run has no traffic classes, so no FCT section.
        let ledger = m.drops.as_ref().expect("ledger collected");
        assert_eq!(ledger.class_names(), ["persistent", "unattributed"]);
        assert!(m.fct.is_none());
        // The custody audit balanced on a clean run.
        let cons = inst.conservation.expect("audit ran");
        assert!(cons.is_balanced(), "{cons}");
        assert!(cons.flows_checked >= 1);
    }

    #[test]
    fn conservation_balances_under_open_loop_churn() {
        // Finite flows open, complete and recycle slots; every custody
        // path (originate, deliver, consume, teardown, terminal drops)
        // must still balance per node and per flow.
        use mwn_traffic::TrafficModel;
        let s = Scenario::open_loop(
            10,
            TrafficModel::web(600),
            Transport::newreno(),
            DataRate::MBPS_2,
            9,
        );
        let obs = ObsConfig {
            audit: true,
            ..ObsConfig::off()
        };
        let r = run_instrumented(&s, ExperimentScale::smoke(), obs);
        let cons = r.conservation.expect("audit ran");
        assert!(cons.is_balanced(), "{cons}");
        assert!(cons.flows_checked > 0);
        // The FCT section and the completed flows' TCP totals ride
        // along for open-loop runs.
        let m = r.metrics.expect("instrumented");
        assert!(m.fct.is_some_and(|f| f.class_count() > 0));
        assert!(m.retired_tcp.is_some_and(|t| t.sender.is_some()));
    }

    /// Paced-UDP sinks keep no TCP counters, so events per packet divides
    /// by the network's deliveries, not by the sinks' statistics.
    #[test]
    fn udp_report_counts_events_per_delivered_packet() {
        let udp = Transport::paced_udp(SimDuration::from_millis(2));
        let s = Scenario::chain(2, DataRate::MBPS_2, udp, 1);
        let r = run_instrumented(&s, ExperimentScale::smoke(), ObsConfig::full(0));
        let m = r.metrics.expect("instrumented");
        assert!(m.totals.flows.iter().all(|f| f.sink.is_none()));
        assert!(m.delivered >= r.packets_measured);
        assert!(m.events_per_packet() > 0.0);
        let text = m.text(None, 0, None).to_string();
        assert!(text.contains("\n  events/packet "), "{text}");
    }

    #[test]
    fn scaled_saturates_instead_of_overflowing() {
        assert_eq!(ExperimentScale::scaled(0), ExperimentScale::scaled(1));
        assert_eq!(ExperimentScale::scaled(25).batch_packets, 10_000);
        let huge = ExperimentScale::scaled(u64::MAX);
        assert_eq!(huge.batch_packets, u64::MAX);
        // Deadline clamps below the nanosecond-representable maximum
        // rather than wrapping to a tiny value.
        assert!(huge.deadline > ExperimentScale::scaled(1_000_000).deadline);
    }

    #[test]
    fn truncated_run_reports_partial_batches() {
        // A 2 Mbit/s 4-hop chain cannot deliver 10k packets in 5 s.
        let s = Scenario::chain(4, DataRate::MBPS_2, Transport::newreno(), 1);
        let scale = ExperimentScale {
            batch_packets: 10_000,
            batches: 11,
            deadline: SimDuration::from_secs(5),
        };
        let r = run(&s, scale);
        assert!(matches!(r.outcome, RunOutcome::Truncated { .. }));
    }

    #[test]
    fn open_loop_scenario_survives_batch_collection() {
        // Churn: slots vacate, recycle and multiply between batch
        // boundaries; the collector must never underflow a delta or
        // index a stale generation.
        use mwn_traffic::TrafficModel;
        let s = Scenario::open_loop(
            10,
            TrafficModel::web(600),
            Transport::newreno(),
            DataRate::MBPS_2,
            9,
        );
        let r = run(&s, ExperimentScale::smoke());
        assert!(!r.per_flow.is_empty());
        assert!(r.packets_measured > 0 || matches!(r.outcome, RunOutcome::Truncated { .. }));
    }

    #[test]
    fn goodput_is_plausible_for_one_hop() {
        // 1 hop at 2 Mbit/s: TCP goodput should land in the hundreds of
        // kbit/s, below the 2 Mbit/s line rate (MAC + ACK overhead).
        let s = Scenario::chain(1, DataRate::MBPS_2, Transport::newreno(), 3);
        let r = run(&s, ExperimentScale::smoke());
        let gp = r.aggregate_goodput_kbps.mean;
        assert!(gp > 200.0, "goodput {gp} kbit/s too low");
        assert!(gp < 2000.0, "goodput {gp} kbit/s above line rate");
    }

    mod scaled_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `scaled` never panics and respects its saturation contract
            /// for arbitrary multipliers, including the overflow region.
            #[test]
            fn scaled_never_panics(mult: u64) {
                let s = ExperimentScale::scaled(mult);
                prop_assert!(s.batch_packets >= ExperimentScale::quick().batch_packets);
                prop_assert_eq!(s.batches, ExperimentScale::quick().batches);
                // Constructing the deadline exercised `from_secs` (×1e9
                // internally) without overflow; it can only have grown.
                prop_assert!(s.deadline >= ExperimentScale::quick().deadline);
            }

            /// Monotonicity: a larger multiplier never yields a smaller
            /// scale in any field (saturation makes it non-strict).
            #[test]
            fn scaled_is_monotone(a: u64, b: u64) {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let sl = ExperimentScale::scaled(lo);
                let sh = ExperimentScale::scaled(hi);
                prop_assert!(sl.batch_packets <= sh.batch_packets);
                prop_assert!(sl.deadline <= sh.deadline);
                prop_assert_eq!(sl.batches, sh.batches);
            }
        }
    }
}
