//! Closed-form checks: where a measure has an analytic value, the
//! simulator must land on it within its own confidence interval.

use mwn::experiments::PAPER_BANDWIDTHS;
use mwn::{experiment, ExperimentScale, MacParams, Scenario, SimDuration, Transport};
use mwn_phy::DataRate;
use mwn_pkt::sizes;

/// One saturated sender over one hop has the medium to itself, so each
/// packet costs one undisturbed RTS/CTS/DATA/ACK cycle: DIFS, a mean
/// backoff of CWmin/2 slots, the four frames and three SIFS. Each frame
/// takes the PLCP preamble and header plus its bits at its rate, control
/// frames at the basic rate. The goodput is one 1460-byte payload per
/// cycle.
fn single_hop_goodput_kbps(params: &MacParams, rate: DataRate) -> f64 {
    let frame = |bytes: u32, rate: DataRate| {
        params.timing.plcp_overhead.as_secs_f64()
            + f64::from(bytes * 8) / rate.bits_per_sec() as f64
    };
    let basic = params.timing.basic_rate;
    let datagram = sizes::IP_HEADER + sizes::UDP_HEADER + sizes::TCP_PAYLOAD;
    let cycle = params.difs().as_secs_f64()
        + f64::from(params.cw_min) / 2.0 * params.slot.as_secs_f64()
        + frame(sizes::RTS, basic)
        + frame(sizes::CTS, basic)
        + frame(sizes::MAC_DATA_OVERHEAD + datagram, rate)
        + frame(sizes::MAC_ACK, basic)
        + 3.0 * params.sifs.as_secs_f64();
    f64::from(sizes::TCP_PAYLOAD * 8) / cycle / 1e3
}

/// Paced UDP sent every 2 ms saturates one hop at every paper bandwidth
/// (the cycle is 2.6–7.6 ms). The closed form leaves out only the
/// propagation delay of the four frames, under 1 µs each over the chain's
/// 200 m hop: at most 0.2 % of the shortest cycle. So the measure lies
/// within its 95 % confidence half-width of the closed form, or short of
/// it by at most that 0.2 % more.
#[test]
fn single_hop_paced_udp_meets_the_dcf_cycle() {
    const PROPAGATION_MARGIN: f64 = 2e-3;
    for rate in PAPER_BANDWIDTHS {
        let scenario = Scenario::chain(
            1,
            rate,
            Transport::paced_udp(SimDuration::from_millis(2)),
            1,
        );
        let expected = single_hop_goodput_kbps(&scenario.mac_params(), rate);
        let measured = experiment::run(&scenario, ExperimentScale::quick()).aggregate_goodput_kbps;
        let (lo, hi) = (expected * (1.0 - PROPAGATION_MARGIN), expected);
        assert!(
            measured.hi() >= lo && measured.lo() <= hi,
            "{rate}: measured {:.1} ±{:.1} kbit/s, closed form {expected:.1} (at least {lo:.1})",
            measured.mean,
            measured.half_width,
        );
    }
}

/// The closed form itself: 1535.6, 3117.1 and 4416.6 kbit/s at 2, 5.5
/// and 11 Mbit/s with the paper's 802.11b timing.
#[test]
fn single_hop_closed_form_values() {
    let values: Vec<f64> = PAPER_BANDWIDTHS
        .iter()
        .map(|&rate| single_hop_goodput_kbps(&MacParams::ieee80211b(rate), rate))
        .collect();
    for (value, expected) in values.iter().zip([1535.6, 3117.1, 4416.6]) {
        assert!((value - expected).abs() < 0.05, "{value:.2} vs {expected}");
    }
}
