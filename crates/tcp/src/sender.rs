//! The TCP sender: common send engine plus the NewReno and Vegas
//! congestion-control flavors.

use mwn_pkt::{Body, FlowId, NodeId, Packet, TcpSegment};
use mwn_sim::{FxHashMap, SimDuration, SimTime};

use crate::config::{TcpConfig, INITIAL_RTO, MAX_RTO, MIN_RTO, PROBE_INTERVAL, TICK, WINIT};
use crate::rto::RtoEstimator;
use crate::{TransportAction, TransportTimer};

/// Congestion-control flavor of a [`TcpSender`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Reactive, loss-driven congestion control: slow start, AIMD
    /// congestion avoidance, fast retransmit after 3 duplicate ACKs, and
    /// NewReno partial-ACK recovery.
    NewReno,
    /// Classic Reno: fast retransmit and fast recovery, but a partial ACK
    /// ends recovery immediately (each further hole in the same window
    /// usually costs a coarse timeout). Provided for the
    /// four-way-comparison extension (cf. Xu & Saadawi, WCMC 2002).
    Reno,
    /// Tahoe: fast retransmit but no fast recovery — every loss, however
    /// detected, restarts slow start from one packet.
    Tahoe,
    /// Proactive, delay-driven congestion control: once per RTT compares
    /// expected (`W/baseRTT`) and actual (`W/RTT`) throughput and keeps
    /// `diff = (W/baseRTT − W/RTT)·baseRTT` between α and β (= α); slow
    /// start doubles only every other RTT and exits when `diff > γ` (= α);
    /// duplicate ACKs trigger fine-grained (sub-3-dupack) retransmission
    /// checks.
    Vegas,
}

/// Sender-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpSenderStats {
    /// Data packets handed to the network, including retransmissions.
    pub data_packets_sent: u64,
    /// Retransmitted data packets (the paper's transport-layer
    /// retransmission measure).
    pub retransmissions: u64,
    /// Coarse retransmission timeouts.
    pub timeouts: u64,
    /// Fast retransmissions (3 dupacks, or Vegas fine-grained checks).
    pub fast_retransmits: u64,
    /// Duplicate ACKs received.
    pub dup_acks: u64,
}

#[derive(Debug, Clone, Copy)]
struct Sent {
    last_sent: SimTime,
    retransmitted: bool,
}

#[derive(Debug, Clone)]
struct VegasState {
    /// Minimum RTT observed (seconds).
    base_rtt: Option<f64>,
    /// Fine-grained smoothed RTT and deviation (seconds).
    fine_srtt: Option<f64>,
    fine_var: f64,
    /// Most recent RTT sample (seconds).
    last_rtt: Option<f64>,
    /// The per-RTT window adjustment runs when this sequence is acked.
    epoch_marker: u64,
    /// Slow start doubles the window only every other RTT.
    ss_grow: bool,
    in_slow_start: bool,
    /// At most one multiplicative decrease per RTT.
    last_cut: Option<SimTime>,
    /// After a retransmission, the next one or two fresh ACKs trigger an
    /// expiry check on the (new) first unacked packet.
    post_retx_checks: u32,
}

impl VegasState {
    fn new() -> Self {
        VegasState {
            base_rtt: None,
            fine_srtt: None,
            fine_var: 0.0,
            last_rtt: None,
            epoch_marker: 0,
            ss_grow: true,
            in_slow_start: true,
            last_cut: None,
            post_retx_checks: 0,
        }
    }

    /// Fine-grained retransmission deadline (seconds).
    fn fine_timeout(&self) -> Option<f64> {
        self.fine_srtt.map(|s| (s + 4.0 * self.fine_var).max(0.01))
    }

    fn fine_sample(&mut self, rtt: f64) {
        self.base_rtt = Some(self.base_rtt.map_or(rtt, |b| b.min(rtt)));
        self.last_rtt = Some(rtt);
        match self.fine_srtt {
            None => {
                self.fine_srtt = Some(rtt);
                self.fine_var = rtt / 2.0;
            }
            Some(s) => {
                self.fine_var = 0.75 * self.fine_var + 0.25 * (s - rtt).abs();
                self.fine_srtt = Some(0.875 * s + 0.125 * rtt);
            }
        }
    }
}

#[derive(Debug, Clone)]
enum FlavorState {
    NewReno,
    Reno,
    Tahoe,
    Vegas(VegasState),
}

/// A packet-granularity TCP sender with an unbounded (FTP) backlog.
///
/// Drive it with [`TcpSender::start`], [`TcpSender::on_ack`] and
/// [`TcpSender::on_rtx_timeout`]; every input appends the requested
/// effects to a caller-owned action buffer (hot paths reuse one buffer
/// instead of allocating per event).
///
/// # Example
///
/// ```
/// use mwn_pkt::{FlowId, NodeId};
/// use mwn_sim::{FxHashMap, SimTime};
/// use mwn_tcp::{Flavor, TcpConfig, TcpSender, TransportAction};
///
/// let mut tx = TcpSender::new(TcpConfig::default(), Flavor::NewReno,
///                             FlowId(0), NodeId(0), NodeId(3), 0);
/// let mut actions = Vec::new();
/// tx.start(SimTime::ZERO, &mut actions);
/// // Initial window is 1 packet: one send plus the retransmit timer.
/// assert!(matches!(actions[0], TransportAction::SendPacket(_)));
/// assert_eq!(tx.cwnd(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TcpSender {
    config: TcpConfig,
    flavor: FlavorState,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    next_uid: u64,
    /// Next sequence number to send.
    t_seqno: u64,
    /// Packets cumulatively acknowledged (`highest_ack + 1`).
    acked: u64,
    /// App-limited transfer size in packets; `None` is an unbounded FTP
    /// backlog (the classic persistent-flow behaviour).
    budget: Option<u64>,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    sent: FxHashMap<u64, Sent>,
    rto: RtoEstimator,
    rtx_armed: bool,
    /// ELFN standby: the routing layer reported the path down; the window
    /// and timers are frozen and only periodic probes go out.
    frozen: bool,
    saved_cwnd: f64,
    stats: TcpSenderStats,
}

impl TcpSender {
    /// Creates a sender for `flow` from `src` to `dst`. `uid_base`
    /// namespaces the packet uids this sender allocates.
    pub fn new(
        config: TcpConfig,
        flavor: Flavor,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        uid_base: u64,
    ) -> Self {
        let flavor = match flavor {
            Flavor::NewReno => FlavorState::NewReno,
            Flavor::Reno => FlavorState::Reno,
            Flavor::Tahoe => FlavorState::Tahoe,
            Flavor::Vegas => FlavorState::Vegas(VegasState::new()),
        };
        TcpSender {
            flavor,
            flow,
            src,
            dst,
            next_uid: uid_base,
            t_seqno: 0,
            acked: 0,
            budget: None,
            cwnd: f64::from(WINIT),
            ssthresh: f64::from(config.wmax),
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            sent: FxHashMap::default(),
            rto: RtoEstimator::new(TICK, MIN_RTO, INITIAL_RTO, MAX_RTO),
            rtx_armed: false,
            frozen: false,
            saved_cwnd: 0.0,
            stats: TcpSenderStats::default(),
            config,
        }
    }

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// The effective send window: `min(⌊cwnd⌋, Wmax)`, at least 1.
    pub fn window(&self) -> u64 {
        (self.cwnd.floor() as u64).clamp(1, u64::from(self.config.wmax))
    }

    /// Packets cumulatively acknowledged so far.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Limits the transfer to `packets` data packets (clamped to at least
    /// one): the sender never opens sequence space past the budget, and
    /// [`is_complete`](Self::is_complete) turns true when the last packet
    /// is cumulatively acknowledged — at which point the window is empty
    /// and the retransmission timer has cancelled itself, so a finite
    /// flow closes on its last ACK with no extra action variant.
    pub fn set_budget(&mut self, packets: u64) {
        self.budget = Some(packets.max(1));
    }

    /// The configured transfer size, if this is a finite flow.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// `true` once a finite flow's whole budget is acknowledged. Always
    /// `false` for unbounded (persistent) senders.
    pub fn is_complete(&self) -> bool {
        self.budget.is_some_and(|b| self.acked >= b)
    }

    /// Sender statistics.
    pub fn stats(&self) -> &TcpSenderStats {
        &self.stats
    }

    /// The coarse-grained smoothed RTT estimate, if a sample exists yet.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rto.srtt()
    }

    /// Vegas' congestion signal `diff = W·(1 − baseRTT/RTT)` in packets,
    /// available once both RTT estimates exist (`None` on the reactive
    /// flavors).
    pub fn vegas_diff(&self) -> Option<f64> {
        match &self.flavor {
            FlavorState::Vegas(v) => {
                let (base, rtt) = (v.base_rtt?, v.last_rtt?);
                if rtt <= 0.0 {
                    // Degenerate zero-RTT sample: no queueing delay can be
                    // inferred, so the signal is zero (not 0/0 = NaN).
                    return Some(0.0);
                }
                Some(self.cwnd * (1.0 - base / rtt))
            }
            _ => None,
        }
    }

    /// `true` while operating in slow start (for the paper's observation
    /// that NewReno spends >40 % of long-chain connections in slow start).
    pub fn in_slow_start(&self) -> bool {
        match &self.flavor {
            FlavorState::NewReno | FlavorState::Reno | FlavorState::Tahoe => {
                self.cwnd < self.ssthresh && !self.in_recovery
            }
            FlavorState::Vegas(v) => v.in_slow_start,
        }
    }

    /// Opens the connection: fills the initial window.
    pub fn start(&mut self, now: SimTime, out: &mut Vec<TransportAction>) {
        self.send_window(now, out);
        self.update_rtx_timer(out);
    }

    /// A cumulative ACK arrived (`ackno` as carried in the segment;
    /// [`TcpSegment::NO_ACK`] means "nothing received yet").
    pub fn on_ack(&mut self, now: SimTime, ackno: u64, out: &mut Vec<TransportAction>) {
        if self.frozen {
            // A probe made it through and back: the route is restored.
            self.thaw(out);
        }
        let ack_count = if ackno == TcpSegment::NO_ACK {
            0
        } else {
            ackno + 1
        };
        if ack_count > self.acked {
            self.handle_new_ack(now, ack_count, out);
        } else if self.t_seqno > self.acked {
            self.handle_dupack(now, out);
        }
        self.send_window(now, out);
        self.update_rtx_timer(out);
    }

    /// `true` while an ELFN route-failure notice has the sender frozen.
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// ELFN: the routing layer reports the path to the destination is
    /// down. The sender freezes its window and retransmission state and
    /// probes periodically; the ACK of a probe thaws it
    /// (Holland & Vaidya's explicit link failure notification).
    pub fn on_route_failure(&mut self, _now: SimTime, out: &mut Vec<TransportAction>) {
        if self.frozen {
            return;
        }
        self.frozen = true;
        self.saved_cwnd = self.cwnd;
        if self.rtx_armed {
            self.rtx_armed = false;
            out.push(TransportAction::CancelTimer(TransportTimer::Rtx));
        }
        out.push(TransportAction::SetTimer {
            timer: TransportTimer::Probe,
            delay: PROBE_INTERVAL,
        });
    }

    /// The ELFN probe timer fired: retransmit the first unacked packet
    /// (which also re-triggers route discovery) and re-arm.
    pub fn on_probe_timer(&mut self, now: SimTime, out: &mut Vec<TransportAction>) {
        if !self.frozen {
            return; // stale
        }
        if self.acked < self.t_seqno {
            let seq = self.acked;
            self.send_seq(now, seq, out);
        }
        out.push(TransportAction::SetTimer {
            timer: TransportTimer::Probe,
            delay: PROBE_INTERVAL,
        });
    }

    /// Thaws the connection after a probe was acknowledged: the window is
    /// restored to its pre-failure value (the route change says nothing
    /// about congestion).
    fn thaw(&mut self, actions: &mut Vec<TransportAction>) {
        self.frozen = false;
        self.cwnd = self.saved_cwnd.max(1.0);
        self.dupacks = 0;
        self.in_recovery = false;
        actions.push(TransportAction::CancelTimer(TransportTimer::Probe));
    }

    /// The retransmission timer fired.
    pub fn on_rtx_timeout(&mut self, now: SimTime, out: &mut Vec<TransportAction>) {
        self.rtx_armed = false;
        if self.frozen || self.acked >= self.t_seqno {
            return; // frozen (ELFN standby) or nothing outstanding
        }
        self.stats.timeouts += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = f64::from(WINIT);
        self.dupacks = 0;
        self.in_recovery = false;
        if let FlavorState::Vegas(v) = &mut self.flavor {
            v.in_slow_start = true;
            v.ss_grow = true;
            v.epoch_marker = self.acked;
            v.last_cut = None;
            v.post_retx_checks = 0;
        }
        self.rto.backoff();
        // Go-back-N, as in ns-2: rewind and let slow start resend.
        self.t_seqno = self.acked;
        self.send_window(now, out);
        self.update_rtx_timer(out);
    }

    // ---- internals -----------------------------------------------------

    fn handle_new_ack(&mut self, now: SimTime, ack_count: u64, actions: &mut Vec<TransportAction>) {
        let newly = ack_count - self.acked;
        let acked_seq = ack_count - 1;

        // Karn's rule: sample RTT only for never-retransmitted packets.
        if let Some(info) = self.sent.get(&acked_seq) {
            if !info.retransmitted {
                let rtt = now.saturating_duration_since(info.last_sent);
                self.rto.sample(rtt);
                if let FlavorState::Vegas(v) = &mut self.flavor {
                    v.fine_sample(rtt.as_secs_f64());
                }
            }
        }
        for seq in self.acked..ack_count {
            self.sent.remove(&seq);
        }
        self.acked = ack_count;

        match &mut self.flavor {
            FlavorState::NewReno => {
                if self.in_recovery {
                    if ack_count > self.recover {
                        // Full ACK: recovery ends.
                        self.in_recovery = false;
                        self.dupacks = 0;
                        self.cwnd = self.ssthresh.max(1.0);
                    } else {
                        // Partial ACK: retransmit the next hole, deflate.
                        self.cwnd = (self.cwnd - newly as f64 + 1.0).max(1.0);
                        self.dupacks = 0;
                        let seq = self.acked;
                        self.stats.fast_retransmits += 1;
                        self.send_seq(now, seq, actions);
                    }
                } else {
                    self.dupacks = 0;
                    self.reactive_open_window();
                }
            }
            FlavorState::Reno => {
                if self.in_recovery {
                    // Classic Reno: any new ACK deflates and ends
                    // recovery; remaining holes must be found again.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh.max(1.0);
                }
                self.dupacks = 0;
                self.reactive_open_window();
            }
            FlavorState::Tahoe => {
                self.dupacks = 0;
                self.reactive_open_window();
            }
            FlavorState::Vegas(_) => {
                self.dupacks = 0;
                self.vegas_new_ack(now, actions);
            }
        }
    }

    /// The ceiling window growth clamps `cwnd` to. Normally `wmax`; the
    /// `fault_cwnd_overshoot` checker hook relaxes it to `4 × wmax`.
    fn wmax_cap(&self) -> f64 {
        let cap = f64::from(self.config.wmax);
        #[cfg(any(test, feature = "oracle"))]
        if self.config.fault_cwnd_overshoot {
            return cap * 4.0;
        }
        cap
    }

    /// Slow start / congestion avoidance opening shared by the reactive
    /// (Tahoe/Reno/NewReno) flavors: +1 per ACK event below `ssthresh`,
    /// +1/cwnd above.
    fn reactive_open_window(&mut self) {
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0;
        } else {
            self.cwnd += 1.0 / self.cwnd;
        }
        self.cwnd = self.cwnd.min(self.wmax_cap());
    }

    fn vegas_new_ack(&mut self, now: SimTime, actions: &mut Vec<TransportAction>) {
        // Post-retransmission expiry check on the next unacked packet
        // (catches multiple losses in one window without a coarse timeout).
        let mut retransmit_next = false;
        if let FlavorState::Vegas(v) = &mut self.flavor {
            if v.post_retx_checks > 0 {
                v.post_retx_checks -= 1;
                if let (Some(timeout), Some(info)) = (v.fine_timeout(), self.sent.get(&self.acked))
                {
                    let waited = now.saturating_duration_since(info.last_sent).as_secs_f64();
                    if waited > timeout {
                        retransmit_next = true;
                    }
                }
            }
        }
        if retransmit_next {
            let seq = self.acked;
            self.stats.fast_retransmits += 1;
            self.send_seq(now, seq, actions);
            self.vegas_cut(now);
        }

        // Once-per-RTT window adjustment.
        let cap = self.wmax_cap();
        let FlavorState::Vegas(v) = &mut self.flavor else {
            unreachable!("vegas_new_ack on non-Vegas flavor");
        };
        if self.acked > v.epoch_marker {
            if let (Some(base), Some(rtt)) = (v.base_rtt, v.last_rtt) {
                let diff = self.cwnd * (1.0 - base / rtt);
                // α = β = γ (Table 1): one threshold is both edges of the
                // congestion-avoidance band and the slow-start exit.
                let alpha = f64::from(self.config.alpha);
                if v.in_slow_start {
                    if diff > alpha {
                        // Exit slow start with a 1/8 reduction.
                        v.in_slow_start = false;
                        self.cwnd = (self.cwnd * 7.0 / 8.0).max(2.0);
                    } else {
                        v.ss_grow = !v.ss_grow;
                    }
                } else if diff < alpha {
                    self.cwnd += 1.0;
                } else if diff > alpha {
                    self.cwnd = (self.cwnd - 1.0).max(2.0);
                }
                self.cwnd = self.cwnd.min(cap);
            }
            v.epoch_marker = self.t_seqno;
        }
        // Slow start growth: +1 per ACK event, but only in growing RTTs,
        // so the window doubles every *other* round trip.
        if v.in_slow_start && v.ss_grow {
            self.cwnd = (self.cwnd + 1.0).min(cap);
        }
    }

    fn handle_dupack(&mut self, now: SimTime, actions: &mut Vec<TransportAction>) {
        self.dupacks += 1;
        self.stats.dup_acks += 1;
        match &mut self.flavor {
            FlavorState::NewReno | FlavorState::Reno => {
                if self.in_recovery {
                    // Window inflation while the hole is being repaired.
                    self.cwnd = (self.cwnd + 1.0).min(f64::from(self.config.wmax) + 3.0);
                } else if self.dupacks == 3 {
                    self.ssthresh = (self.cwnd / 2.0).max(2.0);
                    self.in_recovery = true;
                    self.recover = self.t_seqno.saturating_sub(1);
                    let seq = self.acked;
                    self.stats.fast_retransmits += 1;
                    self.send_seq(now, seq, actions);
                    self.cwnd = self.ssthresh + 3.0;
                }
            }
            FlavorState::Tahoe => {
                if self.dupacks == 3 && !self.in_recovery {
                    // Fast retransmit, then back to slow start from 1.
                    self.ssthresh = (self.cwnd / 2.0).max(2.0);
                    self.cwnd = f64::from(WINIT);
                    let seq = self.acked;
                    self.stats.fast_retransmits += 1;
                    self.send_seq(now, seq, actions);
                    // Go-back-N like a timeout, without the RTO backoff.
                    self.t_seqno = self.acked + 1;
                }
            }
            FlavorState::Vegas(v) => {
                // Fine-grained check on the first three dupacks: if the
                // first unacked packet is older than the fine timeout,
                // retransmit without waiting for the third dupack.
                let mut retransmit = false;
                if self.dupacks <= 3 {
                    if let (Some(timeout), Some(info)) =
                        (v.fine_timeout(), self.sent.get(&self.acked))
                    {
                        let waited = now.saturating_duration_since(info.last_sent).as_secs_f64();
                        if waited > timeout {
                            retransmit = true;
                        }
                    }
                }
                // Standard third-dupack fast retransmit as a fallback;
                // skipped when the fine check just resent this hole (its
                // `last_sent` is then recent).
                if self.dupacks == 3 && !retransmit {
                    let recently_resent = self.sent.get(&self.acked).is_some_and(|info| {
                        info.retransmitted
                            && v.fine_timeout().is_some_and(|t| {
                                now.saturating_duration_since(info.last_sent).as_secs_f64() < t
                            })
                    });
                    if !recently_resent {
                        retransmit = true;
                    }
                }
                if retransmit {
                    if let FlavorState::Vegas(v) = &mut self.flavor {
                        v.post_retx_checks = 2;
                    }
                    let seq = self.acked;
                    self.stats.fast_retransmits += 1;
                    self.send_seq(now, seq, actions);
                    self.vegas_cut(now);
                }
            }
        }
    }

    /// Vegas multiplicative decrease, at most once per RTT.
    fn vegas_cut(&mut self, now: SimTime) {
        let FlavorState::Vegas(v) = &mut self.flavor else {
            return;
        };
        let rtt = v.fine_srtt.unwrap_or(0.1);
        let recently = v
            .last_cut
            .is_some_and(|t| now.saturating_duration_since(t).as_secs_f64() < rtt);
        if !recently {
            self.cwnd = (self.cwnd * 0.75).max(2.0);
            v.last_cut = Some(now);
            v.in_slow_start = false;
        }
    }

    /// Fills the window with new packets, stopping at the app-limited
    /// budget when one is set.
    fn send_window(&mut self, now: SimTime, actions: &mut Vec<TransportAction>) {
        let limit = self.budget.unwrap_or(u64::MAX);
        while self.t_seqno < (self.acked + self.window()).min(limit) {
            let seq = self.t_seqno;
            self.t_seqno += 1;
            self.send_seq(now, seq, actions);
        }
    }

    /// Transmits one data packet (new or retransmission).
    fn send_seq(&mut self, now: SimTime, seq: u64, actions: &mut Vec<TransportAction>) {
        let uid = self.next_uid;
        self.next_uid += 1;
        let entry = self.sent.entry(seq);
        let is_retx = matches!(entry, std::collections::hash_map::Entry::Occupied(_));
        let info = entry.or_insert(Sent {
            last_sent: now,
            retransmitted: false,
        });
        if is_retx {
            info.retransmitted = true;
            self.stats.retransmissions += 1;
        }
        info.last_sent = now;
        self.stats.data_packets_sent += 1;
        let packet = Packet::new(
            uid,
            self.src,
            self.dst,
            Body::Tcp(TcpSegment::data(self.flow, seq)),
        );
        actions.push(TransportAction::SendPacket(packet));
    }

    fn update_rtx_timer(&mut self, actions: &mut Vec<TransportAction>) {
        if self.t_seqno > self.acked {
            actions.push(TransportAction::SetTimer {
                timer: TransportTimer::Rtx,
                delay: self.rto.current(),
            });
            self.rtx_armed = true;
        } else if self.rtx_armed {
            actions.push(TransportAction::CancelTimer(TransportTimer::Rtx));
            self.rtx_armed = false;
        }
    }
}

/// Test shim for the out-param API: `act!(s.method(args...))` calls the
/// method with a fresh action buffer appended and returns the buffer.
#[cfg(test)]
macro_rules! act {
    ($m:ident.$meth:ident($($arg:expr),* $(,)?)) => {{
        let mut out = Vec::new();
        $m.$meth($($arg,)* &mut out);
        out
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_sim::SimDuration;
    use proptest::prelude::*;

    fn sender(flavor: Flavor) -> TcpSender {
        TcpSender::new(
            TcpConfig::default(),
            flavor,
            FlowId(0),
            NodeId(0),
            NodeId(5),
            0,
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sent_seqs(actions: &[TransportAction]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                TransportAction::SendPacket(p) => match &p.body {
                    Body::Tcp(seg) if seg.is_data() => Some(seg.seq),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn initial_window_is_one() {
        let mut s = sender(Flavor::NewReno);
        let a = act!(s.start(t(0)));
        assert_eq!(sent_seqs(&a), vec![0]);
        assert!(a.iter().any(|x| matches!(
            x,
            TransportAction::SetTimer {
                timer: TransportTimer::Rtx,
                ..
            }
        )));
    }

    #[test]
    fn newreno_slow_start_doubles_per_rtt() {
        let mut s = sender(Flavor::NewReno);
        act!(s.start(t(0)));
        // ACK packet 0: cwnd 2, sends 1 and 2.
        let a = act!(s.on_ack(t(100), 0));
        assert_eq!(s.cwnd(), 2.0);
        assert_eq!(sent_seqs(&a), vec![1, 2]);
        // ACK 1, 2: cwnd 4.
        act!(s.on_ack(t(200), 1));
        let a = act!(s.on_ack(t(200), 2));
        assert_eq!(s.cwnd(), 4.0);
        assert_eq!(sent_seqs(&a), vec![5, 6]);
        assert!(s.in_slow_start());
    }

    #[test]
    fn newreno_congestion_avoidance_is_linear() {
        let mut s = sender(Flavor::NewReno);
        s.ssthresh = 2.0;
        s.cwnd = 2.0;
        act!(s.start(t(0)));
        act!(s.on_ack(t(100), 0));
        assert_eq!(s.cwnd(), 2.5);
        act!(s.on_ack(t(100), 1));
        assert_eq!(s.cwnd(), 2.9);
        assert!(!s.in_slow_start());
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = sender(Flavor::NewReno);
        s.cwnd = 8.0;
        s.ssthresh = 8.0; // congestion avoidance
        act!(s.start(t(0))); // sends 0..8
        act!(s.on_ack(t(100), 0)); // acked=1
                                   // Packet 1 lost; dupacks for 0.
        act!(s.on_ack(t(110), 0));
        let a = act!(s.on_ack(t(111), 0));
        assert!(sent_seqs(&a).is_empty());
        let a = act!(s.on_ack(t(112), 0)); // 3rd dupack
        assert_eq!(sent_seqs(&a), vec![1], "retransmits the hole");
        assert_eq!(s.stats().fast_retransmits, 1);
        assert_eq!(s.stats().retransmissions, 1);
        assert!(s.in_recovery);
        // ssthresh = cwnd/2 (cwnd was ~8.x), cwnd = ssthresh+3.
        assert!(s.ssthresh >= 4.0 && s.ssthresh < 4.2);
        assert!(s.cwnd() >= 7.0);
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = sender(Flavor::NewReno);
        s.cwnd = 8.0;
        s.ssthresh = 8.0;
        act!(s.start(t(0))); // 0..8 out
        act!(s.on_ack(t(100), 0));
        for _ in 0..3 {
            act!(s.on_ack(t(110), 0));
        }
        assert!(s.in_recovery);
        // Partial ACK up to 2 (packet 3 also lost).
        let a = act!(s.on_ack(t(200), 2));
        assert_eq!(sent_seqs(&a), vec![3]);
        assert!(s.in_recovery, "stays in recovery until recover is passed");
        // Full ACK ends recovery and deflates to ssthresh.
        act!(s.on_ack(t(300), 8));
        assert!(!s.in_recovery);
        assert_eq!(s.cwnd(), s.ssthresh);
    }

    #[test]
    fn timeout_goes_back_n_with_window_one() {
        let mut s = sender(Flavor::NewReno);
        s.cwnd = 8.0;
        act!(s.start(t(0))); // 0..8 out
        let a = act!(s.on_rtx_timeout(t(1000)));
        assert_eq!(sent_seqs(&a), vec![0], "go-back-N resends first unacked");
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.stats().timeouts, 1);
        assert_eq!(s.stats().retransmissions, 1);
        assert!(s.ssthresh >= 2.0);
    }

    #[test]
    fn timeout_with_nothing_outstanding_is_stale() {
        // An FTP sender always has data outstanding once started, so the
        // stale path only applies before the connection opens.
        let mut s = sender(Flavor::NewReno);
        let a = act!(s.on_rtx_timeout(t(2000)));
        assert!(a.is_empty());
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let mut s = sender(Flavor::NewReno);
        act!(s.start(t(0)));
        act!(s.on_rtx_timeout(t(1000))); // packet 0 retransmitted
        let rto_before = s.rto.current();
        act!(s.on_ack(t(1100), 0)); // ack of a retransmitted packet: no sample
                                    // Backoff not cleared by a (non-)sample: RTO still backed off.
        assert_eq!(s.rto.current(), rto_before);
    }

    #[test]
    fn window_capped_by_wmax() {
        let mut s = TcpSender::new(
            TcpConfig::paper(2).with_max_window(3),
            Flavor::NewReno,
            FlowId(0),
            NodeId(0),
            NodeId(5),
            0,
        );
        s.cwnd = 50.0;
        let a = act!(s.start(t(0)));
        assert_eq!(sent_seqs(&a), vec![0, 1, 2], "MaxWin=3 limits the burst");
        assert_eq!(s.window(), 3);
    }

    #[test]
    fn vegas_increases_window_when_diff_below_alpha() {
        let mut s = sender(Flavor::Vegas);
        // Leave slow start first.
        if let FlavorState::Vegas(v) = &mut s.flavor {
            v.in_slow_start = false;
        }
        s.cwnd = 4.0;
        act!(s.start(t(0)));
        // RTT == baseRTT: diff = 0 < alpha -> +1 per RTT.
        act!(s.on_ack(t(100), 0)); // first sample sets base; epoch marker passes
        let w1 = s.cwnd();
        act!(s.on_ack(t(200), 1));
        act!(s.on_ack(t(200), 2));
        act!(s.on_ack(t(200), 3));
        // Only one adjustment per RTT epoch.
        assert!(s.cwnd() <= w1 + 1.0 + 1e-9);
        assert!(s.cwnd() > 4.0);
    }

    #[test]
    fn vegas_decreases_window_when_diff_above_beta() {
        let mut s = sender(Flavor::Vegas);
        if let FlavorState::Vegas(v) = &mut s.flavor {
            v.in_slow_start = false;
            v.base_rtt = Some(0.050);
        }
        s.cwnd = 10.0;
        act!(s.start(t(0))); // sends 0..10
                             // RTT = 100 ms vs base 50 ms: diff = 10·(1-0.5) = 5 > β=2 -> -1.
        act!(s.on_ack(t(100), 0));
        act!(s.on_ack(t(200), 1)); // epoch boundary crossed with high RTT
        assert!(s.cwnd() < 10.0);
    }

    #[test]
    fn vegas_slow_start_exits_on_gamma() {
        let mut s = sender(Flavor::Vegas);
        s.cwnd = 8.0;
        act!(s.start(t(0)));
        if let FlavorState::Vegas(v) = &mut s.flavor {
            v.base_rtt = Some(0.050);
        }
        assert!(s.in_slow_start());
        // RTT doubled: diff = 8·(1−0.5) = 4 > γ=2 -> exit with 7/8 cut.
        act!(s.on_ack(t(100), 0));
        act!(s.on_ack(t(200), 1));
        assert!(!s.in_slow_start());
        assert!(s.cwnd() <= 8.0 * 7.0 / 8.0 + 1.0);
    }

    #[test]
    fn vegas_fine_grained_retransmit_on_first_dupack() {
        let mut s = sender(Flavor::Vegas);
        s.cwnd = 6.0;
        act!(s.start(t(0))); // 0..6 out at t=0
        act!(s.on_ack(t(50), 0)); // sample: fine_srtt = 50 ms
                                  // Much later, a single dupack arrives: packet 1 is long expired.
        let a = act!(s.on_ack(t(500), 0));
        assert_eq!(
            sent_seqs(&a),
            vec![1],
            "fine-grained check fires on 1st dupack"
        );
        assert_eq!(s.stats().fast_retransmits, 1);
        // Window cut once.
        assert!(s.cwnd() <= 6.0 * 0.75 + 1e-9);
        // Second dupack immediately after: packet 1 was just resent, no
        // second retransmission, no second cut.
        let cw = s.cwnd();
        let a = act!(s.on_ack(t(501), 0));
        assert!(sent_seqs(&a).is_empty());
        assert_eq!(s.cwnd(), cw);
    }

    #[test]
    fn vegas_third_dupack_fast_retransmit_when_not_expired() {
        let mut s = sender(Flavor::Vegas);
        s.cwnd = 6.0;
        act!(s.start(t(0)));
        act!(s.on_ack(t(100), 0)); // fine_srtt 100 ms
                                   // Three quick dupacks well within the fine timeout.
        act!(s.on_ack(t(110), 0));
        act!(s.on_ack(t(112), 0));
        let a = act!(s.on_ack(t(114), 0));
        assert_eq!(sent_seqs(&a), vec![1]);
    }

    #[test]
    fn no_ack_sentinel_counts_as_dupack() {
        let mut s = sender(Flavor::NewReno);
        s.cwnd = 5.0;
        act!(s.start(t(0))); // 0..5 out
                             // Receiver got 1,2 out of order but never 0: acks NO_ACK.
        act!(s.on_ack(t(100), TcpSegment::NO_ACK));
        act!(s.on_ack(t(101), TcpSegment::NO_ACK));
        let a = act!(s.on_ack(t(102), TcpSegment::NO_ACK));
        assert_eq!(
            sent_seqs(&a),
            vec![0],
            "fast retransmit of the very first packet"
        );
    }

    #[test]
    fn rtx_timer_cancelled_when_all_acked() {
        let mut s = sender(Flavor::NewReno);
        act!(s.start(t(0)));
        // Prevent new data from keeping the window full by capping wmax.
        s.config.wmax = 1;
        let a = act!(s.on_ack(t(100), 0));
        // One new packet (seq 1) goes out; ack it too.
        assert_eq!(sent_seqs(&a), vec![1]);
        let a = act!(s.on_ack(t(200), 1));
        // Window limit 1: seq 2 sent, timer re-armed (still outstanding).
        assert!(a
            .iter()
            .any(|x| matches!(x, TransportAction::SetTimer { .. })));
    }

    #[test]
    fn budget_caps_sequence_space_and_completes_on_last_ack() {
        let mut s = sender(Flavor::NewReno);
        s.cwnd = 8.0;
        s.set_budget(3);
        assert!(!s.is_complete());
        let a = act!(s.start(t(0)));
        // Window would allow 8 packets; the budget stops at 3.
        assert_eq!(sent_seqs(&a), vec![0, 1, 2]);
        act!(s.on_ack(t(100), 0));
        act!(s.on_ack(t(110), 1));
        assert!(!s.is_complete());
        let a = act!(s.on_ack(t(120), 2));
        assert!(s.is_complete(), "complete once the whole budget is acked");
        assert!(sent_seqs(&a).is_empty(), "no data past the budget");
        // Close-on-last-ACK: nothing outstanding, so the retransmission
        // timer cancels itself on the final ACK.
        assert!(a
            .iter()
            .any(|x| matches!(x, TransportAction::CancelTimer(TransportTimer::Rtx))));
        assert_eq!(s.stats().data_packets_sent, 3);
    }

    #[test]
    fn budget_survives_timeout_recovery() {
        let mut s = sender(Flavor::NewReno);
        s.cwnd = 4.0;
        s.set_budget(2);
        act!(s.start(t(0))); // sends 0, 1
        let a = act!(s.on_rtx_timeout(t(1000)));
        assert_eq!(sent_seqs(&a), vec![0], "go-back-N from the first hole");
        act!(s.on_ack(t(1100), 0));
        let a = act!(s.on_ack(t(1200), 1));
        assert!(s.is_complete());
        assert!(sent_seqs(&a).is_empty());
        // Retransmissions never push past the budget.
        assert!(s.stats().data_packets_sent >= 3);
        act!(s.on_rtx_timeout(t(5000)));
        assert_eq!(s.stats().timeouts, 1, "no spurious timeout after close");
    }

    #[test]
    fn unbounded_sender_never_completes() {
        let mut s = sender(Flavor::NewReno);
        act!(s.start(t(0)));
        act!(s.on_ack(t(100), 0));
        assert_eq!(s.budget(), None);
        assert!(!s.is_complete());
    }

    #[test]
    fn zero_budget_clamps_to_one_packet() {
        let mut s = sender(Flavor::NewReno);
        s.set_budget(0);
        assert_eq!(s.budget(), Some(1));
        let a = act!(s.start(t(0)));
        assert_eq!(sent_seqs(&a), vec![0]);
        act!(s.on_ack(t(100), 0));
        assert!(s.is_complete());
    }

    #[test]
    fn retransmission_counter_tracks_all_resends() {
        let mut s = sender(Flavor::NewReno);
        s.cwnd = 4.0;
        act!(s.start(t(0)));
        act!(s.on_rtx_timeout(t(1000)));
        act!(s.on_rtx_timeout(t(3000)));
        assert_eq!(s.stats().timeouts, 2);
        assert_eq!(s.stats().retransmissions, 2);
        assert_eq!(s.stats().data_packets_sent, 6);
    }

    #[test]
    fn vegas_diff_none_until_first_sample() {
        let mut s = sender(Flavor::Vegas);
        assert_eq!(s.vegas_diff(), None, "no RTT estimates yet");
        act!(s.start(t(0)));
        assert_eq!(s.vegas_diff(), None, "sending alone yields no sample");
        act!(s.on_ack(t(100), 0));
        // First sample sets base == last, so diff is exactly zero.
        assert_eq!(s.vegas_diff(), Some(0.0));
    }

    #[test]
    fn vegas_diff_none_on_reactive_flavors() {
        let mut s = sender(Flavor::NewReno);
        act!(s.start(t(0)));
        act!(s.on_ack(t(100), 0));
        assert_eq!(s.vegas_diff(), None);
    }

    #[test]
    fn vegas_diff_zero_rtt_is_zero_not_nan() {
        let mut s = sender(Flavor::Vegas);
        act!(s.start(t(0)));
        // The ACK arrives at the send instant: rtt sample is exactly zero.
        act!(s.on_ack(t(0), 0));
        let diff = s.vegas_diff().expect("both estimates exist");
        assert!(diff.is_finite(), "0/0 must not leak out as NaN");
        assert_eq!(diff, 0.0);
        // Follow-up zero-RTT acks drive the once-per-RTT adjustment with
        // the same degenerate estimates: no panic, window stays sane.
        act!(s.on_ack(t(0), 1));
        act!(s.on_ack(t(0), 2));
        assert!(s.cwnd() >= 1.0);
        assert!(s.cwnd() <= f64::from(s.config.wmax));
    }

    #[test]
    fn vegas_diff_unchanged_by_quick_dupack() {
        let mut s = sender(Flavor::Vegas);
        s.cwnd = 6.0;
        act!(s.start(t(0)));
        if let FlavorState::Vegas(v) = &mut s.flavor {
            v.in_slow_start = false;
            v.base_rtt = Some(0.050);
        }
        act!(s.on_ack(t(100), 0)); // last_rtt = 100 ms, base 50 ms
        let before = s.vegas_diff().expect("estimates exist");
        assert!(before > 0.0);
        // A dupack well inside the fine timeout: no retransmit, no cut,
        // and — crucially — no RTT sample (Karn), so diff is untouched.
        act!(s.on_ack(t(110), 0));
        assert_eq!(s.vegas_diff(), Some(before));
    }

    #[test]
    fn vegas_diff_scales_with_expiry_cut_on_dupack() {
        let mut s = sender(Flavor::Vegas);
        s.cwnd = 6.0;
        act!(s.start(t(0)));
        if let FlavorState::Vegas(v) = &mut s.flavor {
            v.in_slow_start = false;
        }
        act!(s.on_ack(t(50), 0)); // fine_srtt = base = last = 50 ms
        if let FlavorState::Vegas(v) = &mut s.flavor {
            v.base_rtt = Some(0.025); // pretend an earlier faster RTT
        }
        let w_before = s.cwnd();
        let before = s.vegas_diff().expect("estimates exist");
        assert!(before > 0.0);
        // A dupack long after the fine timeout triggers the expiry
        // retransmit and its window cut; diff = W·(1 − base/last) must
        // shrink by exactly the same factor, since the RTT estimates see
        // no new sample on a dupack (Karn).
        act!(s.on_ack(t(500), 0));
        let after = s.vegas_diff().expect("estimates survive the cut");
        assert!(s.cwnd() < w_before);
        assert!((after - before * s.cwnd() / w_before).abs() < 1e-9);
        assert!(after < before);
    }

    proptest! {
        /// Whatever ACK sequence arrives, the sender never panics and its
        /// core invariants hold.
        #[test]
        fn sender_invariants_under_random_acks(
            flavor_vegas: bool,
            acks in proptest::collection::vec((0u64..40, 1u64..2000), 1..120),
        ) {
            let flavor = if flavor_vegas { Flavor::Vegas } else { Flavor::NewReno };
            let mut s = sender(flavor);
            let mut now = SimTime::ZERO;
            act!(s.start(now));
            for (ackno, dt) in acks {
                now += SimDuration::from_millis(dt);
                if dt % 7 == 0 {
                    act!(s.on_rtx_timeout(now));
                } else {
                    act!(s.on_ack(now, ackno));
                }
                prop_assert!(s.acked <= s.t_seqno);
                prop_assert!(s.cwnd() >= 1.0);
                prop_assert!(s.window() <= u64::from(s.config.wmax));
                prop_assert!(s.stats().retransmissions <= s.stats().data_packets_sent);
            }
        }
    }
}

#[cfg(test)]
mod reactive_flavor_tests {
    use super::*;
    use mwn_sim::SimDuration;

    fn sender(flavor: Flavor) -> TcpSender {
        TcpSender::new(
            TcpConfig::default(),
            flavor,
            FlowId(0),
            NodeId(0),
            NodeId(5),
            0,
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sent_seqs(actions: &[TransportAction]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                TransportAction::SendPacket(p) => match &p.body {
                    Body::Tcp(seg) if seg.is_data() => Some(seg.seq),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tahoe_fast_retransmit_restarts_slow_start() {
        let mut s = sender(Flavor::Tahoe);
        s.cwnd = 8.0;
        s.ssthresh = 8.0;
        act!(s.start(t(0))); // 0..8 out
        act!(s.on_ack(t(100), 0));
        act!(s.on_ack(t(110), 0));
        act!(s.on_ack(t(111), 0));
        let a = act!(s.on_ack(t(112), 0)); // 3rd dupack
        assert_eq!(sent_seqs(&a), vec![1], "Tahoe retransmits the hole");
        assert_eq!(s.cwnd(), 1.0, "Tahoe collapses to the initial window");
        assert!(s.ssthresh >= 4.0);
        assert!(!s.in_recovery, "Tahoe has no fast recovery");
    }

    #[test]
    fn reno_partial_ack_exits_recovery_without_retransmit() {
        let mut s = sender(Flavor::Reno);
        s.cwnd = 8.0;
        s.ssthresh = 8.0;
        act!(s.start(t(0))); // 0..8 out
        act!(s.on_ack(t(100), 0));
        for _ in 0..3 {
            act!(s.on_ack(t(110), 0));
        }
        assert!(s.in_recovery);
        // Partial ACK (packets 3.. still missing): Reno deflates and
        // leaves recovery WITHOUT retransmitting the next hole.
        let a = act!(s.on_ack(t(200), 2));
        assert!(
            sent_seqs(&a).iter().all(|&q| q > 8),
            "no hole retransmission: {a:?}"
        );
        assert!(!s.in_recovery);
        // Deflated to ssthresh, plus at most one CA increment for this ACK.
        assert!(s.cwnd() >= s.ssthresh && s.cwnd() <= s.ssthresh + 1.0);
    }

    #[test]
    fn reno_single_loss_behaves_like_newreno() {
        for flavor in [Flavor::Reno, Flavor::NewReno] {
            let mut s = sender(flavor);
            s.cwnd = 8.0;
            s.ssthresh = 8.0;
            act!(s.start(t(0)));
            act!(s.on_ack(t(100), 0));
            for _ in 0..3 {
                act!(s.on_ack(t(110), 0));
            }
            assert!(s.in_recovery, "{flavor:?}");
            // Full ACK: identical exit (Reno may add one CA increment).
            act!(s.on_ack(t(200), 8));
            assert!(!s.in_recovery, "{flavor:?}");
            assert!(
                s.cwnd() >= s.ssthresh && s.cwnd() <= s.ssthresh + 1.0,
                "{flavor:?}: cwnd {} vs ssthresh {}",
                s.cwnd(),
                s.ssthresh
            );
        }
    }

    #[test]
    fn tahoe_never_enters_recovery() {
        let mut s = sender(Flavor::Tahoe);
        s.cwnd = 10.0;
        act!(s.start(t(0)));
        act!(s.on_ack(t(100), 0));
        for _ in 0..8 {
            act!(s.on_ack(t(110), 0));
        }
        assert!(!s.in_recovery);
    }
}

#[cfg(test)]
mod elfn_tests {
    use super::*;
    use mwn_sim::SimDuration;

    fn sender() -> TcpSender {
        TcpSender::new(
            TcpConfig::default(),
            Flavor::NewReno,
            FlowId(0),
            NodeId(0),
            NodeId(5),
            0,
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sent_seqs(actions: &[TransportAction]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                TransportAction::SendPacket(p) => match &p.body {
                    Body::Tcp(seg) if seg.is_data() => Some(seg.seq),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn route_failure_freezes_and_probes() {
        let mut s = sender();
        s.cwnd = 8.0;
        act!(s.start(t(0)));
        act!(s.on_ack(t(50), 0));
        let cwnd_before = s.cwnd();

        let a = act!(s.on_route_failure(t(100)));
        assert!(s.frozen());
        assert!(a.contains(&TransportAction::CancelTimer(TransportTimer::Rtx)));
        assert!(a.iter().any(|x| matches!(
            x,
            TransportAction::SetTimer {
                timer: TransportTimer::Probe,
                ..
            }
        )));

        // Probe: retransmits the first unacked, re-arms.
        let a = act!(s.on_probe_timer(t(2100)));
        assert_eq!(sent_seqs(&a), vec![1]);
        assert!(a.iter().any(|x| matches!(
            x,
            TransportAction::SetTimer {
                timer: TransportTimer::Probe,
                ..
            }
        )));

        // RTO firing while frozen is ignored.
        let a = act!(s.on_rtx_timeout(t(3000)));
        assert!(a.is_empty());
        assert_eq!(s.stats().timeouts, 0);

        // The probe's ACK thaws with the saved window.
        let a = act!(s.on_ack(t(4000), 1));
        assert!(!s.frozen());
        assert!(a.contains(&TransportAction::CancelTimer(TransportTimer::Probe)));
        assert!(s.cwnd() >= cwnd_before, "window restored, not collapsed");
    }

    #[test]
    fn double_failure_notice_is_idempotent() {
        let mut s = sender();
        act!(s.start(t(0)));
        let first = act!(s.on_route_failure(t(10)));
        assert!(!first.is_empty());
        let second = act!(s.on_route_failure(t(20)));
        assert!(
            second.is_empty(),
            "already frozen: no duplicate probe timer"
        );
    }

    #[test]
    fn stale_probe_after_thaw_is_ignored() {
        let mut s = sender();
        act!(s.start(t(0)));
        act!(s.on_route_failure(t(10)));
        act!(s.on_ack(t(100), 0)); // thaw
        let a = act!(s.on_probe_timer(t(2100)));
        assert!(a.is_empty());
    }

    #[test]
    fn frozen_sender_survives_without_progress() {
        let mut s = sender();
        s.cwnd = 4.0;
        act!(s.start(t(0)));
        act!(s.on_route_failure(t(10)));
        // Many probes without answers: no window change, no timeouts.
        for k in 1..10u64 {
            act!(s.on_probe_timer(t(k * 2000)));
        }
        assert!(s.frozen());
        assert_eq!(s.stats().timeouts, 0);
        assert!(s.stats().retransmissions >= 8);
    }
}
