//! Stand-alone layer drivers: each calls one layer's public API in a
//! loop, outside the simulator, sized from the counts a traced round of
//! the workload produced, and reports host ns per call.
//!
//! A driver's number is what the layer costs with hot caches and nothing
//! else running, so `driver ns × exact count` is a *lower* estimate of
//! the layer's share of a real run; the remainder is reported as
//! `core.residual_share`, not hidden.

use std::path::Path;
use std::time::Instant;

use mwn::jobs::chain_study;
use mwn::{ExperimentScale, Scenario, TrafficModel, Transport};
use mwn_aodv::{AodvConfig, Router};
use mwn_mac80211::{Dcf, MacAction, MacParams, MacTimer};
use mwn_phy::{DataRate, Medium, Position, RangeModel, Transceiver, TxId};
use mwn_pkt::{AodvMessage, Body, FlowId, MacFrame, NodeId, Packet, TcpSegment};
use mwn_runner::store;
use mwn_sim::{EventQueue, Pcg32, SimDuration, SimTime};
use mwn_tcp::{TcpSender, TcpSink};
use mwn_traffic::TrafficEngine;

use crate::stats::median;
use crate::trace::Tracer;

/// What the drivers are sized from.
pub struct Sizing {
    /// Pending events to keep in the wheel (the workload's peak depth).
    pub queue_depth: usize,
    /// The workload's node placement.
    pub positions: Vec<Position>,
    /// Routing-table entries per router that holds any.
    pub routes: usize,
    /// PHY data rate of the workload.
    pub rate: DataRate,
    /// Divisor of every driver's operation count (50 under `--smoke`).
    pub ops_divisor: u64,
}

/// ns per call (or the unit named in `spec.rs`) of every driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverNs {
    pub wheel_schedule_pop: f64,
    pub wheel_cancel: f64,
    pub transceiver_signal: f64,
    pub medium_build_s: f64,
    pub medium_move_per_node: f64,
    pub medium_refresh: f64,
    pub dcf_op: f64,
    pub router_send: f64,
    pub rreq_handle: f64,
    pub tcp_on_ack: f64,
    pub tcp_sink_on_data: f64,
    pub traffic_draw: f64,
    pub store_append_us: f64,
}

/// Repetitions per driver; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] repetitions of `f`, which returns
/// `(elapsed seconds, operations)`; the result is ns per operation.
fn ns_per_op(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (secs, ops) = f();
            secs * 1e9 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn timer_delay(rng: &mut Pcg32) -> SimDuration {
    // MAC and transport timers span µs to tens of ms; so do these.
    SimDuration::from_nanos(1_000 + rng.gen_range_u64(20_000_000))
}

fn filled_wheel(depth: usize, rng: &mut Pcg32) -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) {
        q.schedule(SimTime::ZERO + timer_delay(rng), i as u64);
    }
    q
}

fn wheel_schedule_pop(depth: usize, div: u64) -> f64 {
    let ops = 400_000 / div;
    ns_per_op(|| {
        let mut rng = Pcg32::new(7);
        let mut q = filled_wheel(depth, &mut rng);
        let started = Instant::now();
        for _ in 0..ops {
            let (now, event) = q.pop().expect("the wheel never drains");
            q.schedule(now + timer_delay(&mut rng), event);
        }
        (started.elapsed().as_secs_f64(), ops)
    })
}

fn wheel_cancel(depth: usize, div: u64) -> f64 {
    let ops = 400_000 / div;
    ns_per_op(|| {
        let mut rng = Pcg32::new(7);
        let mut q = filled_wheel(depth, &mut rng);
        let started = Instant::now();
        for i in 0..ops {
            let id = q.schedule(SimTime::ZERO + timer_delay(&mut rng), i);
            q.cancel(id);
        }
        std::hint::black_box(q.len());
        (started.elapsed().as_secs_f64(), ops)
    })
}

/// Share of decodable receivers among all (transmitter, affected
/// receiver) pairs of the placement.
fn decodable_share(medium: &Medium) -> f64 {
    let (mut decodable, mut all) = (0u64, 0u64);
    for tx in 0..medium.len() {
        for effect in medium.effects_of(NodeId(tx as u32)) {
            all += 1;
            decodable += u64::from(effect.class.decodable);
        }
    }
    decodable as f64 / all.max(1) as f64
}

fn transceiver_signal(decodable_share: f64, div: u64) -> f64 {
    let ops = 1_000_000 / div;
    let ranges = RangeModel::paper();
    let decodable = ranges.classify(200.0).expect("200 m is in range");
    let sense_only = ranges.classify(400.0).expect("400 m is in sensing range");
    ns_per_op(|| {
        let mut radio = Transceiver::with_capture(ranges.capture_threshold);
        let mut out = Vec::new();
        let mut credit = 0.0;
        let started = Instant::now();
        for i in 0..ops {
            credit += decodable_share;
            let class = if credit >= 1.0 {
                credit -= 1.0;
                decodable
            } else {
                sense_only
            };
            radio.signal_start(TxId(i), class, &mut out);
            radio.signal_end(TxId(i), &mut out);
            out.clear();
        }
        (started.elapsed().as_secs_f64(), ops)
    })
}

/// `(build seconds, move ns per node, refresh ns, decodable share)`.
fn medium(positions: &[Position]) -> (f64, f64, f64, f64) {
    let ranges = RangeModel::paper();
    let n = positions.len();
    // Small placements build in microseconds; batch them so each sample
    // spans a measurable interval.
    let batch = (20_000 / n.max(1)).clamp(1, 2_000);
    let build = ns_per_op(|| {
        let started = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(Medium::new(positions.to_vec(), ranges));
        }
        (started.elapsed().as_secs_f64(), batch as u64)
    }) / 1e9;

    let mut medium = Medium::new(positions.to_vec(), ranges);
    let share = decodable_share(&medium);
    let sample: Vec<NodeId> = (0..n)
        .step_by((n / 2_000).max(1))
        .map(|i| NodeId(i as u32))
        .collect();
    let mut offset = 0.0;
    let (mut move_ns, mut refresh_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        // Everyone drifts a metre (and back), as on a 100 ms waypoint
        // tick at 10 m/s.
        offset = 1.0 - offset;
        let moves: Vec<(NodeId, Position)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| (NodeId(i as u32), Position::new(p.x + offset, p.y)))
            .collect();
        let started = Instant::now();
        for _ in 0..batch {
            medium.move_nodes(&moves);
        }
        move_ns.push(started.elapsed().as_secs_f64() * 1e9 / (batch * n.max(1)) as f64);
        let started = Instant::now();
        for &tx in &sample {
            std::hint::black_box(medium.refresh(tx).len());
        }
        refresh_ns.push(started.elapsed().as_secs_f64() * 1e9 / sample.len().max(1) as f64);
    }
    (build, median(&move_ns), median(&refresh_ns), share)
}

const MAC_TIMERS: [MacTimer; MacTimer::COUNT] = [
    MacTimer::Defer,
    MacTimer::Backoff,
    MacTimer::Sifs,
    MacTimer::CtsTimeout,
    MacTimer::AckTimeout,
    MacTimer::Nav,
];

/// Two stations in range of each other and nobody else: station 0 sends
/// `packets` data packets to station 1 through the full RTS/CTS/DATA/ACK
/// exchange. The loop below plays the part of the PHY and the timer
/// wheel — frames arrive intact after their airtime, timers fire when
/// due — and counts every public `Dcf` call it makes.
fn dcf_exchange(rate: DataRate, packets: u64) -> (f64, u64) {
    let params = MacParams::ieee80211b(rate);
    let mut macs = [
        Dcf::new(NodeId(0), params, Pcg32::new(11)),
        Dcf::new(NodeId(1), params, Pcg32::new(12)),
    ];
    let mut timers = [[None::<SimTime>; MacTimer::COUNT]; 2];
    let mut on_air: Option<(usize, SimTime, MacFrame)> = None;
    let mut now = SimTime::ZERO;
    let mut out: Vec<MacAction> = Vec::new();
    let mut todo: Vec<(usize, MacAction)> = Vec::new();
    let (mut calls, mut sent, mut confirmed) = (0u64, 0u64, 0u64);
    let data = |seq: u64| {
        Packet::new(
            seq,
            NodeId(0),
            NodeId(1),
            Body::Tcp(TcpSegment::data(FlowId(0), seq)),
        )
    };

    let started = Instant::now();
    macs[0].enqueue(now, NodeId(1), data(sent), &mut out);
    calls += 1;
    sent += 1;
    todo.extend(out.drain(..).map(|a| (0, a)));
    while confirmed < packets {
        // Apply pending actions; they may queue more.
        while let Some((node, action)) = todo.pop() {
            match action {
                MacAction::StartTx(frame) => {
                    let end = now + params.airtime(&frame);
                    on_air = Some((node, end, frame));
                    let peer = 1 - node;
                    macs[peer].on_carrier_busy(now, &mut out);
                    calls += 1;
                    todo.extend(out.drain(..).map(|a| (peer, a)));
                }
                MacAction::SetTimer { timer, delay } => {
                    timers[node][timer.index()] = Some(now + delay);
                }
                MacAction::CancelTimer(timer) => timers[node][timer.index()] = None,
                MacAction::TxConfirm { .. } => {
                    confirmed += 1;
                    if sent < packets {
                        macs[0].enqueue(now, NodeId(1), data(sent), &mut out);
                        calls += 1;
                        sent += 1;
                        todo.extend(out.drain(..).map(|a| (0, a)));
                    }
                }
                MacAction::Deliver { .. } | MacAction::Dropped { .. } => {}
            }
        }
        // Next due: the frame on air or the earliest timer.
        let mut next: Option<(SimTime, usize, Option<usize>)> =
            on_air.as_ref().map(|(node, end, _)| (*end, *node, None));
        for (node, row) in timers.iter().enumerate() {
            for (k, due) in row.iter().enumerate() {
                if let Some(due) = due {
                    if next.is_none_or(|(t, _, _)| *due < t) {
                        next = Some((*due, node, Some(k)));
                    }
                }
            }
        }
        let Some((due, node, timer)) = next else {
            break; // nothing pending: the exchange stalled (a harness bug)
        };
        now = due;
        match timer {
            Some(k) => {
                timers[node][k] = None;
                macs[node].on_timer(now, MAC_TIMERS[k], &mut out);
                calls += 1;
                todo.extend(out.drain(..).map(|a| (node, a)));
            }
            None => {
                let (sender, _, frame) = on_air.take().expect("selected above");
                let peer = 1 - sender;
                macs[sender].on_tx_done(now, &mut out);
                todo.extend(out.drain(..).map(|a| (sender, a)));
                macs[peer].on_rx_frame(now, &frame, &mut out);
                macs[peer].on_carrier_idle(now, &mut out);
                calls += 3;
                todo.extend(out.drain(..).map(|a| (peer, a)));
            }
        }
    }
    assert_eq!(confirmed, packets, "scripted DCF exchange stalled");
    (started.elapsed().as_secs_f64(), calls)
}

fn rreq(uid: u64, orig: u32, rreq_id: u32) -> Packet {
    Packet::new(
        uid,
        NodeId(orig),
        NodeId::BROADCAST,
        Body::Aodv(AodvMessage::Rreq {
            rreq_id,
            orig: NodeId(orig),
            orig_seq: rreq_id,
            dst: NodeId(u32::MAX - 1),
            dst_seq: None,
            hop_count: 0,
        }),
    )
}

/// `(Router::send on a route hit, Router::on_received of a fresh RREQ)`.
fn router(routes: usize, div: u64) -> (f64, f64) {
    let ops = 200_000 / div;
    let routes = routes.max(1) as u32;
    let mut rreq_ns = 0.0;
    let send_ns = ns_per_op(|| {
        let mut r = Router::new(NodeId(0), AodvConfig::default(), Pcg32::new(3), 1 << 63);
        let mut out = Vec::new();
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        // Hearing a neighbour installs the 1-hop route to it, so `routes`
        // distinct neighbours fill the table.
        for k in 1..=routes {
            r.on_received(now, NodeId(k), rreq(u64::from(k), k, 1), &mut out);
            out.clear();
        }
        let started = Instant::now();
        for i in 0..ops {
            // Fresh ids defeat duplicate suppression: every RREQ is
            // processed and rebroadcast.
            let k = 1 + (i as u32 % routes);
            r.on_received(now, NodeId(k), rreq(i, k, 2 + i as u32), &mut out);
            out.clear();
        }
        rreq_ns = started.elapsed().as_secs_f64() * 1e9 / ops as f64;

        let started = Instant::now();
        for i in 0..ops {
            let dst = NodeId(1 + (i as u32 % routes));
            let packet = Packet::new(i, NodeId(0), dst, Body::Tcp(TcpSegment::data(FlowId(0), i)));
            r.send(now, packet, &mut out);
            out.clear();
        }
        (started.elapsed().as_secs_f64(), ops)
    });
    (send_ns, rreq_ns)
}

fn tcp(div: u64) -> (f64, f64) {
    let ops = 400_000 / div;
    let Transport::Tcp {
        flavor,
        config,
        ack_policy,
    } = Transport::newreno()
    else {
        unreachable!("newreno is a TCP transport");
    };
    let on_ack = ns_per_op(|| {
        let mut sender = TcpSender::new(config, flavor, FlowId(0), NodeId(0), NodeId(1), 1 << 32);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        sender.start(now, &mut out);
        out.clear();
        let started = Instant::now();
        for ack in 0..ops {
            now += SimDuration::from_millis(1);
            sender.on_ack(now, ack, &mut out);
            out.clear();
        }
        (started.elapsed().as_secs_f64(), ops)
    });
    let on_data = ns_per_op(|| {
        let mut sink = TcpSink::new(ack_policy, FlowId(0), NodeId(1), NodeId(0), 1 << 33);
        let mut out = Vec::new();
        let started = Instant::now();
        for seq in 0..ops {
            sink.on_data(SimTime::ZERO, seq, &mut out);
            out.clear();
        }
        (started.elapsed().as_secs_f64(), ops)
    });
    (on_ack, on_data)
}

fn traffic_draw(div: u64) -> f64 {
    let ops = 400_000 / div;
    ns_per_op(|| {
        let model = TrafficModel::web(u64::MAX).with_load(0.2);
        let mut engine = TrafficEngine::new(model, 20, &mut Pcg32::new(5));
        let mut now = 0.0;
        let started = Instant::now();
        for _ in 0..ops {
            now += engine.next_gap(0, now).as_secs_f64();
            std::hint::black_box(engine.draw(0));
        }
        (started.elapsed().as_secs_f64(), ops)
    })
}

/// µs per `store::done_line` + `Journal::append` of one result row.
fn store_append(dir: &Path, div: u64) -> f64 {
    let ops = (300 / div).max(1);
    let spec = chain_study(ExperimentScale::smoke()).swap_remove(0);
    let results = mwn_runner::simulate(&spec);
    let out = dir.join("driver-store.jsonl");
    let ns = ns_per_op(|| {
        let mut journal = store::Journal::open(&out).expect("results directory is writable");
        let started = Instant::now();
        for _ in 0..ops {
            let line = store::done_line(&spec, &results);
            journal.append(&line).expect("journal append");
        }
        let secs = started.elapsed().as_secs_f64();
        journal.remove().expect("journal removal");
        (secs, ops)
    });
    ns / 1e3
}

/// Runs every driver, one `driver.<layer>` span each.
pub fn run_all(sizing: &Sizing, dir: &Path, t: &mut Tracer) -> DriverNs {
    let mut d = DriverNs::default();
    let s = t.open("driver.sim");
    let div = sizing.ops_divisor.max(1);
    d.wheel_schedule_pop = wheel_schedule_pop(sizing.queue_depth, div);
    d.wheel_cancel = wheel_cancel(sizing.queue_depth, div);
    t.close(s);
    let s = t.open("driver.phy");
    let (build_s, move_ns, refresh_ns, share) = medium(&sizing.positions);
    d.medium_build_s = build_s;
    d.medium_move_per_node = move_ns;
    d.medium_refresh = refresh_ns;
    d.transceiver_signal = transceiver_signal(share, div);
    t.close(s);
    let s = t.open("driver.mac80211");
    d.dcf_op = ns_per_op(|| dcf_exchange(sizing.rate, 20_000 / div));
    t.close(s);
    let s = t.open("driver.aodv");
    (d.router_send, d.rreq_handle) = router(sizing.routes, div);
    t.close(s);
    let s = t.open("driver.tcp");
    (d.tcp_on_ack, d.tcp_sink_on_data) = tcp(div);
    t.close(s);
    let s = t.open("driver.traffic");
    d.traffic_draw = traffic_draw(div);
    t.close(s);
    let s = t.open("driver.runner");
    d.store_append_us = store_append(dir, div);
    t.close(s);
    d
}

/// The 8-hop chain placement (the sizing of `chain-steady` and of
/// `paper-sweep`'s longest jobs).
pub fn chain_positions() -> Vec<Position> {
    Scenario::chain(8, DataRate::MBPS_2, Transport::newreno(), 1)
        .topology
        .positions()
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_dcf_exchange_completes_and_counts_calls() {
        let (secs, calls) = dcf_exchange(DataRate::MBPS_2, 50);
        assert!(secs > 0.0);
        // Per packet: enqueue, defer + backoff timers, four frames each
        // with busy / tx_done / rx / idle, SIFS timers: well over 15.
        assert!(calls >= 50 * 15, "only {calls} calls for 50 packets");
    }

    #[test]
    fn decodable_share_of_a_chain() {
        let m = Medium::new(chain_positions(), RangeModel::paper());
        let share = decodable_share(&m);
        // 200 m spacing: each interior node decodes 2 neighbours and
        // senses 2 more (400 m); ends have fewer of both.
        assert!((0.4..0.6).contains(&share), "share {share}");
    }
}
