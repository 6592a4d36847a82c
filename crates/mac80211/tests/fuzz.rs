//! Property-based fuzzing of the DCF state machine.
//!
//! Feeds long random-but-causally-valid input sequences to [`Dcf`] and
//! checks the structural invariants that the composition layer relies on:
//! the MAC never requests two overlapping transmissions, never panics,
//! and keeps its counters consistent.

use mwn_mac80211::{Dcf, MacAction, MacParams, MacTimer, QUEUE_CAPACITY};
use mwn_phy::DataRate;
use mwn_pkt::{Body, FlowId, MacFrame, NodeId, Packet, TcpSegment};
use mwn_sim::{Pcg32, SimDuration, SimTime};
use proptest::prelude::*;

fn data_packet(uid: u64) -> Packet {
    Packet::new(
        uid,
        NodeId(0),
        NodeId(9),
        Body::Tcp(TcpSegment::data(FlowId(0), uid)),
    )
}

/// The causally valid inputs the fuzzer may inject at any step.
#[derive(Debug, Clone, Copy)]
enum Input {
    EnqueueUnicast,
    EnqueueBroadcast,
    CarrierBusy,
    CarrierIdle,
    RxCorrupt,
    /// Fire a (possibly stale) timer — the DCF must tolerate both.
    Timer(MacTimer),
    /// Complete our transmission, if one is on the air.
    TxDone,
    /// Deliver a frame addressed to us: an RTS, CTS, DATA or ACK chosen
    /// by the second parameter.
    RxFrame(u8),
}

fn arb_input() -> impl Strategy<Value = Input> {
    prop_oneof![
        Just(Input::EnqueueUnicast),
        Just(Input::EnqueueBroadcast),
        Just(Input::CarrierBusy),
        Just(Input::CarrierIdle),
        Just(Input::RxCorrupt),
        Just(Input::Timer(MacTimer::Defer)),
        Just(Input::Timer(MacTimer::Backoff)),
        Just(Input::Timer(MacTimer::Sifs)),
        Just(Input::Timer(MacTimer::CtsTimeout)),
        Just(Input::Timer(MacTimer::AckTimeout)),
        Just(Input::Timer(MacTimer::Nav)),
        Just(Input::TxDone),
        (0u8..6).prop_map(Input::RxFrame),
    ]
}

fn frame_for(code: u8, me: NodeId) -> MacFrame {
    let peer = NodeId(1);
    match code {
        0 => MacFrame::Rts {
            src: peer,
            dst: me,
            nav: SimDuration::from_micros(7000),
        },
        1 => MacFrame::Cts {
            src: peer,
            dst: me,
            nav: SimDuration::from_micros(6600),
        },
        2 => MacFrame::Ack { src: peer, dst: me },
        3 => MacFrame::Data {
            src: peer,
            dst: me,
            seq: 5,
            retry: false,
            nav: SimDuration::from_micros(314),
            packet: data_packet(1000),
        },
        4 => MacFrame::Rts {
            // Overheard (not for us): exercises the NAV path.
            src: peer,
            dst: NodeId(7),
            nav: SimDuration::from_micros(7000),
        },
        _ => MacFrame::Data {
            src: peer,
            dst: NodeId::BROADCAST,
            seq: 9,
            retry: false,
            nav: SimDuration::ZERO,
            packet: data_packet(2000),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dcf_never_overlaps_transmissions(
        seed: u64,
        inputs in proptest::collection::vec(arb_input(), 1..400),
    ) {
        let me = NodeId(0);
        let params = MacParams::ieee80211b(DataRate::MBPS_2);
        let mut dcf = Dcf::new(me, params, Pcg32::new(seed));
        let mut now = SimTime::ZERO;
        let mut on_air = false;
        let mut uid = 0u64;

        let mut actions = Vec::new();
        for input in inputs {
            now += SimDuration::from_micros(50);
            actions.clear();
            match input {
                Input::EnqueueUnicast => {
                    uid += 1;
                    dcf.enqueue(now, NodeId(1), data_packet(uid), &mut actions);
                }
                Input::EnqueueBroadcast => {
                    uid += 1;
                    dcf.enqueue(now, NodeId::BROADCAST, data_packet(uid), &mut actions);
                }
                Input::CarrierBusy => dcf.on_carrier_busy(now, &mut actions),
                Input::CarrierIdle => dcf.on_carrier_idle(now, &mut actions),
                Input::RxCorrupt => dcf.on_rx_corrupt(now),
                Input::Timer(t) => dcf.on_timer(now, t, &mut actions),
                Input::TxDone => {
                    if on_air {
                        on_air = false;
                        dcf.on_tx_done(now, &mut actions);
                    }
                }
                Input::RxFrame(code) => {
                    if !on_air {
                        // A half-duplex radio cannot receive while
                        // transmitting; the host never delivers then.
                        dcf.on_rx_frame(now, &frame_for(code, me), &mut actions);
                    }
                }
            };

            for action in &actions {
                if let MacAction::StartTx(frame) = action {
                    prop_assert!(!on_air, "second StartTx while already transmitting");
                    prop_assert!(frame.size_bytes() > 0);
                    on_air = true;
                }
            }

            // Counter sanity after every step.
            let c = dcf.counters();
            prop_assert!(c.unicast_delivered <= c.unicast_accepted);
            prop_assert!(c.contention_drops() <= c.unicast_accepted);
            prop_assert!(c.rts_sent >= c.cts_timeouts,
                "more CTS timeouts than RTS sent");
            prop_assert!(c.data_sent >= c.ack_timeouts,
                "more ACK timeouts than DATA sent");
            prop_assert!(dcf.queue_len() <= QUEUE_CAPACITY);
        }
    }

    /// Whatever happens, a lone MAC with one queued packet and a quiet
    /// medium eventually transmits when its timers are honoured.
    #[test]
    fn dcf_makes_progress_on_quiet_medium(seed: u64) {
        let me = NodeId(0);
        let params = MacParams::ieee80211b(DataRate::MBPS_2);
        let mut dcf = Dcf::new(me, params, Pcg32::new(seed));
        let mut now = SimTime::ZERO;
        let mut pending: Vec<MacTimer> = Vec::new();
        let mut actions = Vec::new();
        dcf.enqueue(now, NodeId(1), data_packet(1), &mut actions);
        let mut transmitted = false;
        for _round in 0..64 {
            for a in &actions {
                match a {
                    MacAction::StartTx(_) => transmitted = true,
                    MacAction::SetTimer { timer, .. } => pending.push(*timer),
                    MacAction::CancelTimer(t) => pending.retain(|x| x != t),
                    _ => {}
                }
            }
            if transmitted {
                break;
            }
            let Some(timer) = pending.pop() else { break };
            now += SimDuration::from_millis(1);
            actions.clear();
            dcf.on_timer(now, timer, &mut actions);
        }
        prop_assert!(transmitted, "MAC never transmitted on a quiet medium");
    }
}
