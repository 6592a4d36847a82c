//! The DCF state machine.

use std::collections::VecDeque;
use std::sync::Arc;

use mwn_pkt::{MacFrame, NodeId, NodeMap, Packet};
use mwn_sim::{Pcg32, SimDuration, SimTime};

use crate::backoff::Backoff;
use crate::counters::MacCounters;
use crate::params::{MacParams, CW_MAX, LONG_RETRY_LIMIT, QUEUE_CAPACITY, SHORT_RETRY_LIMIT};

/// Timers the DCF asks the host to arm. At most one timer of each kind is
/// outstanding; a `SetTimer` for a kind replaces any previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacTimer {
    /// DIFS/EIFS deference before transmitting or resuming backoff.
    Defer,
    /// Backoff countdown completion.
    Backoff,
    /// SIFS gap before sending a CTS/ACK/DATA response.
    Sifs,
    /// CTS not received in time after our RTS.
    CtsTimeout,
    /// MAC ACK not received in time after our DATA.
    AckTimeout,
    /// Virtual carrier sense (NAV) expiry.
    Nav,
}

impl MacTimer {
    /// Number of timer kinds; hosts can keep per-node timer state in a
    /// flat `[_; MacTimer::COUNT]` array instead of a hash map.
    pub const COUNT: usize = 6;

    /// Dense index of this timer kind, in `0..Self::COUNT`.
    pub fn index(self) -> usize {
        match self {
            MacTimer::Defer => 0,
            MacTimer::Backoff => 1,
            MacTimer::Sifs => 2,
            MacTimer::CtsTimeout => 3,
            MacTimer::AckTimeout => 4,
            MacTimer::Nav => 5,
        }
    }
}

/// Why the MAC dropped a packet without transmitting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacDropReason {
    /// The interface queue was full.
    QueueFull,
    /// The link-RED extension dropped the packet to signal congestion
    /// early (no link-failure feedback is generated: the transport layer
    /// discovers the loss end-to-end, which is the point).
    EarlyDrop,
}

/// Effects requested by the DCF; the host (the `mwn` composition crate or a
/// test harness) must apply all of them, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum MacAction {
    /// Put a frame on the air. The host computes its airtime from
    /// [`MacParams::airtime`], informs the medium, and calls
    /// [`Dcf::on_tx_done`] when it ends.
    StartTx(MacFrame),
    /// Arm (or re-arm) a timer.
    SetTimer {
        /// Which timer.
        timer: MacTimer,
        /// Delay from now.
        delay: SimDuration,
    },
    /// Cancel a timer if armed.
    CancelTimer(MacTimer),
    /// Hand a received network-layer packet to the layer above.
    Deliver {
        /// MAC-level transmitter the frame came from (the previous hop).
        from: NodeId,
        /// The packet.
        packet: Packet,
    },
    /// Report the fate of a unicast packet: delivered (MAC ACK received) or
    /// dropped after exhausting retries. A failure is the link-layer
    /// feedback that makes AODV declare a (false) route failure.
    TxConfirm {
        /// The next hop the packet was addressed to.
        next_hop: NodeId,
        /// The packet.
        packet: Packet,
        /// `true` if the exchange completed.
        success: bool,
    },
    /// A packet was dropped before entering service.
    Dropped {
        /// The packet.
        packet: Packet,
        /// Why.
        reason: MacDropReason,
    },
}

/// What our radio currently transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnAir {
    Rts,
    Data,
    Broadcast,
    Cts,
    Ack,
}

/// Which response we are waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Awaiting {
    Cts,
    Ack,
}

/// A SIFS-scheduled response.
#[derive(Debug, Clone, PartialEq)]
enum PendingResponse {
    Cts {
        dst: NodeId,
        nav: SimDuration,
    },
    Ack {
        dst: NodeId,
    },
    /// Our DATA frame, to follow the CTS we just received.
    Data,
}

#[derive(Debug, Clone)]
struct CurrentTx {
    next_hop: NodeId,
    packet: Packet,
    mac_seq: u16,
    /// RTS attempts so far (short retry count).
    ssrc: u32,
    /// DATA attempts so far (long retry count).
    slrc: u32,
    /// Total frames put on the air for this packet (contention proxy for
    /// the link-RED extension).
    attempts: u32,
}

/// IEEE 802.11 DCF state machine for one node.
///
/// All methods take the current simulated time and return the actions the
/// host must apply. Inputs arrive from three sources:
///
/// * the network layer: [`Dcf::enqueue`];
/// * the transceiver: [`Dcf::on_carrier_busy`], [`Dcf::on_carrier_idle`],
///   [`Dcf::on_rx_frame`], [`Dcf::on_rx_corrupt`], [`Dcf::on_tx_done`];
/// * timers previously requested: [`Dcf::on_timer`].
#[derive(Debug, Clone)]
pub struct Dcf {
    me: NodeId,
    /// Shared by every MAC of a network: one copy, not one per node.
    params: Arc<MacParams>,
    rng: Pcg32,
    /// The interface queue. Most nodes of a large field only ever
    /// forward a flood's one broadcast, so its first allocation holds
    /// one packet.
    queue: VecDeque<(NodeId, Packet)>,
    current: Option<CurrentTx>,
    on_air: Option<OnAir>,
    awaiting: Option<Awaiting>,
    pending_resp: Option<PendingResponse>,
    backoff: Backoff,
    cw: u32,
    defer_armed: bool,
    carrier_busy: bool,
    nav_until: SimTime,
    eifs_next: bool,
    next_seq: u16,
    rx_cache: NodeMap<u16>,
    /// EWMA of transmission attempts per completed exchange (link-RED
    /// extension's contention estimate).
    retry_ewma: f64,
    counters: MacCounters,
    /// `true` once the `fault_leak_packet` hook has fired.
    #[cfg(any(test, feature = "oracle"))]
    fault_leaked: bool,
}

impl Dcf {
    /// Creates an idle MAC for node `me`. A network hands every MAC a
    /// clone of one `Arc<MacParams>`; a lone `MacParams` is wrapped.
    pub fn new(me: NodeId, params: impl Into<Arc<MacParams>>, rng: Pcg32) -> Self {
        let params = params.into();
        Dcf {
            me,
            cw: params.cw_min,
            params,
            rng,
            queue: VecDeque::new(),
            current: None,
            on_air: None,
            awaiting: None,
            pending_resp: None,
            backoff: Backoff::new(),
            defer_armed: false,
            carrier_busy: false,
            nav_until: SimTime::ZERO,
            eifs_next: false,
            next_seq: 0,
            rx_cache: NodeMap::new(),
            retry_ewma: 0.0,
            counters: MacCounters::default(),
            #[cfg(any(test, feature = "oracle"))]
            fault_leaked: false,
        }
    }

    /// Link-layer statistics so far.
    pub fn counters(&self) -> &MacCounters {
        &self.counters
    }

    /// Number of packets waiting in the interface queue (excluding the one
    /// in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The packets waiting in the interface queue, for residual custody
    /// enumeration by the conservation audit.
    pub fn queued_packets(&self) -> impl Iterator<Item = &Packet> {
        self.queue.iter().map(|(_, p)| p)
    }

    /// The packet in service (between dequeue and its `TxConfirm`), if any.
    pub fn current_packet(&self) -> Option<&Packet> {
        self.current.as_ref().map(|c| &c.packet)
    }

    /// Approximate heap bytes held by this MAC (interface queue plus
    /// receive-dedup cache), for the engine's `bytes_per_node`
    /// accounting.
    pub fn memory_bytes(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<(NodeId, Packet)>()
            + self.rx_cache.memory_bytes()
    }

    /// This node's MAC address.
    pub fn addr(&self) -> NodeId {
        self.me
    }

    /// `true` if this MAC has a reason to contend for the medium: a
    /// packet queued or in service, or a post-transmission backoff still
    /// owed. While it is `false`, a NAV expiry ([`Dcf::on_timer`] with
    /// [`MacTimer::Nav`]) emits no action and changes no state, so a host
    /// may leave that timer unarmed until this turns `true`.
    pub fn wants_medium(&self) -> bool {
        self.have_traffic() || self.backoff.pending()
    }

    /// `true` if no radio event can make this MAC act: nothing queued
    /// or in service, no exchange, no deference armed and no backoff
    /// counting. Carrier transitions and corrupt ends then change only
    /// the carrier flag and the EIFS debt, so a host may keep those two
    /// itself and skip the MAC until its next input, handing them back
    /// through [`Dcf::resume`] first.
    pub fn is_quiet(&self) -> bool {
        !self.wants_medium()
            && !self.busy_with_exchange()
            && !self.defer_armed
            && !self.backoff.counting()
    }

    /// Brings a MAC whose radio batches a host kept while it was
    /// [quiet](Dcf::is_quiet) up to date: physical carrier sense as it
    /// stands, and an EIFS owed if a corrupt or undecoded frame ended
    /// meanwhile.
    pub fn resume(&mut self, carrier_busy: bool, eifs: bool) {
        self.carrier_busy = carrier_busy;
        self.eifs_next |= eifs;
    }

    /// Accepts a packet from the network layer for transmission to
    /// `next_hop` (or [`NodeId::BROADCAST`]); resulting actions are
    /// appended to `out`.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        next_hop: NodeId,
        packet: Packet,
        out: &mut Vec<MacAction>,
    ) {
        #[cfg(any(test, feature = "oracle"))]
        if self.params.fault_leak_packet
            && !self.fault_leaked
            && !matches!(packet.body, mwn_pkt::Body::Aodv(_))
        {
            // Planted custody leak: the first data packet vanishes with no
            // Dropped action and no TxConfirm, for the conservation-audit
            // tests. Control packets are spared — routing would just retry
            // and the transport-only audit would never see the leak.
            self.fault_leaked = true;
            return;
        }
        if self.queue.len() >= QUEUE_CAPACITY {
            self.counters.queue_drops += 1;
            out.push(MacAction::Dropped {
                packet,
                reason: MacDropReason::QueueFull,
            });
            return;
        }
        if self.queue.capacity() == 0 {
            self.queue.reserve_exact(1);
        }
        self.queue.push_back((next_hop, packet));
        self.maybe_start_contention(now, out);
    }

    /// Physical carrier sense went busy.
    pub fn on_carrier_busy(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        self.carrier_busy = true;
        self.suspend_contention(now, out);
    }

    /// Physical carrier sense went idle.
    pub fn on_carrier_idle(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        self.carrier_busy = false;
        self.maybe_start_contention(now, out);
    }

    /// A frame was received intact. The frame is borrowed — one shared
    /// in-flight frame serves every receiver — and its packet is cloned
    /// only on the paths that actually hand it upward.
    pub fn on_rx_frame(&mut self, now: SimTime, frame: &MacFrame, out: &mut Vec<MacAction>) {
        self.eifs_next = false;

        if frame.dst() == self.me {
            match frame {
                MacFrame::Rts { src, nav, .. } => self.handle_rts(now, *src, *nav, out),
                MacFrame::Cts { src, .. } => self.handle_cts(now, *src, out),
                MacFrame::Ack { src, .. } => self.handle_ack(now, *src, out),
                MacFrame::Data {
                    src, seq, packet, ..
                } => self.handle_data(now, *src, *seq, packet, out),
            }
        } else if frame.is_broadcast() {
            if let MacFrame::Data { src, packet, .. } = frame {
                out.push(MacAction::Deliver {
                    from: *src,
                    packet: packet.clone(),
                });
            }
        } else {
            // Overheard frame: virtual carrier sense.
            let nav = frame.nav();
            if !nav.is_zero() {
                let until = now + nav;
                if until > self.nav_until {
                    self.nav_until = until;
                    out.push(MacAction::SetTimer {
                        timer: MacTimer::Nav,
                        delay: nav,
                    });
                    self.suspend_contention(now, out);
                }
            }
        }
    }

    /// A corrupted frame finished arriving: the next deference uses EIFS.
    pub fn on_rx_corrupt(&mut self, _now: SimTime) {
        self.eifs_next = true;
    }

    /// Our transmission finished on the air.
    ///
    /// # Panics
    ///
    /// Panics if the MAC was not transmitting.
    pub fn on_tx_done(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        let kind = self.on_air.take().expect("tx_done without transmission");
        match kind {
            OnAir::Rts => {
                self.awaiting = Some(Awaiting::Cts);
                out.push(MacAction::SetTimer {
                    timer: MacTimer::CtsTimeout,
                    delay: self.params.cts_timeout(),
                });
            }
            OnAir::Data => {
                self.awaiting = Some(Awaiting::Ack);
                out.push(MacAction::SetTimer {
                    timer: MacTimer::AckTimeout,
                    delay: self.params.ack_timeout(),
                });
            }
            OnAir::Broadcast => {
                // Broadcasts complete unconditionally.
                self.current = None;
                self.complete_exchange(now, out);
            }
            OnAir::Cts | OnAir::Ack => {
                self.maybe_start_contention(now, out);
            }
        }
    }

    /// A previously armed timer fired.
    pub fn on_timer(&mut self, now: SimTime, timer: MacTimer, out: &mut Vec<MacAction>) {
        match timer {
            MacTimer::Defer => self.on_defer_fired(now, out),
            MacTimer::Backoff => self.on_backoff_fired(now, out),
            MacTimer::Sifs => self.on_sifs_fired(now, out),
            MacTimer::CtsTimeout => self.on_cts_timeout(now, out),
            MacTimer::AckTimeout => self.on_ack_timeout(now, out),
            MacTimer::Nav => self.maybe_start_contention(now, out),
        }
    }

    // ---- internals -----------------------------------------------------

    fn medium_idle(&self, now: SimTime) -> bool {
        !self.carrier_busy && self.nav_until <= now
    }

    fn have_traffic(&self) -> bool {
        self.current.is_some() || !self.queue.is_empty()
    }

    /// Arms the DIFS/EIFS deference if the medium is idle and we either
    /// have traffic or owe a post-transmission backoff.
    fn maybe_start_contention(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.on_air.is_some() || self.awaiting.is_some() || self.pending_resp.is_some() {
            return;
        }
        if !self.wants_medium() {
            return;
        }
        if !self.medium_idle(now) {
            return;
        }
        if self.defer_armed || self.backoff.counting() {
            return;
        }
        self.defer_armed = true;
        let eifs = self.eifs_next;
        #[cfg(any(test, feature = "oracle"))]
        let eifs = eifs && !self.params.fault_skip_eifs;
        let delay = if eifs {
            self.params.eifs()
        } else {
            self.params.difs()
        };
        actions.push(MacAction::SetTimer {
            timer: MacTimer::Defer,
            delay,
        });
    }

    /// Medium became busy (physically or via NAV): stop defer/backoff.
    fn suspend_contention(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if self.defer_armed {
            self.defer_armed = false;
            actions.push(MacAction::CancelTimer(MacTimer::Defer));
        }
        if self.backoff.counting() {
            self.backoff.freeze(now, self.params.slot);
            actions.push(MacAction::CancelTimer(MacTimer::Backoff));
        }
    }

    fn on_defer_fired(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if !self.defer_armed {
            return; // stale
        }
        self.defer_armed = false;
        self.eifs_next = false;
        if !self.medium_idle(now) || self.busy_with_exchange() {
            return;
        }
        if self.backoff.pending() {
            let delay = self.backoff.start(now, self.params.slot);
            actions.push(MacAction::SetTimer {
                timer: MacTimer::Backoff,
                delay,
            });
        } else {
            self.transmit_current(now, actions);
        }
    }

    fn on_backoff_fired(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if !self.backoff.counting() {
            return; // stale
        }
        if self.busy_with_exchange() {
            // A SIFS response or exchange claimed the radio meanwhile;
            // freeze and resume contention later.
            self.backoff.freeze(now, self.params.slot);
            return;
        }
        self.backoff.complete();
        self.transmit_current(now, actions);
    }

    fn busy_with_exchange(&self) -> bool {
        self.on_air.is_some() || self.awaiting.is_some() || self.pending_resp.is_some()
    }

    /// Puts the head-of-line packet's next frame on the air.
    fn transmit_current(&mut self, _now: SimTime, actions: &mut Vec<MacAction>) {
        while self.current.is_none() {
            let Some((next_hop, packet)) = self.queue.pop_front() else {
                return; // post-backoff completed with no traffic
            };
            // Link-RED extension: early-drop head-of-line unicast data
            // under sustained contention (Fu et al.).
            if !next_hop.is_broadcast() && self.lred_drops_now() {
                self.counters.early_drops += 1;
                actions.push(MacAction::Dropped {
                    packet,
                    reason: MacDropReason::EarlyDrop,
                });
                continue;
            }
            if next_hop.is_broadcast() {
                self.counters.broadcast_accepted += 1;
            } else {
                self.counters.unicast_accepted += 1;
            }
            let mac_seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            self.current = Some(CurrentTx {
                next_hop,
                packet,
                mac_seq,
                ssrc: 0,
                slrc: 0,
                attempts: 0,
            });
        }
        let cur = self.current.as_mut().expect("current set above");
        if cur.next_hop.is_broadcast() {
            let frame = MacFrame::Data {
                src: self.me,
                dst: NodeId::BROADCAST,
                seq: cur.mac_seq,
                retry: false,
                nav: SimDuration::ZERO,
                packet: cur.packet.clone(),
            };
            self.counters.data_sent += 1;
            self.on_air = Some(OnAir::Broadcast);
            actions.push(MacAction::StartTx(frame));
        } else {
            cur.ssrc += 1;
            cur.attempts += 1;
            let frame = MacFrame::Rts {
                src: self.me,
                dst: cur.next_hop,
                nav: self.params.rts_nav(cur.packet.size_bytes()),
            };
            self.counters.rts_sent += 1;
            self.on_air = Some(OnAir::Rts);
            actions.push(MacAction::StartTx(frame));
        }
    }

    fn handle_rts(
        &mut self,
        now: SimTime,
        src: NodeId,
        nav: SimDuration,
        actions: &mut Vec<MacAction>,
    ) {
        let busy_with_exchange =
            self.on_air.is_some() || self.awaiting.is_some() || self.pending_resp.is_some();
        if busy_with_exchange || self.nav_until > now {
            return; // do not answer; the sender will retry
        }
        let cts_nav = nav
            .saturating_sub(self.params.sifs)
            .saturating_sub(self.params.cts_airtime());
        self.pending_resp = Some(PendingResponse::Cts {
            dst: src,
            nav: cts_nav,
        });
        // The response claims the radio: park our own contention.
        self.suspend_contention(now, actions);
        actions.push(MacAction::SetTimer {
            timer: MacTimer::Sifs,
            delay: self.params.sifs,
        });
    }

    fn handle_cts(&mut self, _now: SimTime, src: NodeId, actions: &mut Vec<MacAction>) {
        let expected = matches!(self.awaiting, Some(Awaiting::Cts))
            && self.current.as_ref().is_some_and(|c| c.next_hop == src);
        if !expected {
            return;
        }
        self.awaiting = None;
        actions.push(MacAction::CancelTimer(MacTimer::CtsTimeout));
        if let Some(cur) = &mut self.current {
            cur.ssrc = 0; // CTS received: short retry count resets
        }
        self.pending_resp = Some(PendingResponse::Data);
        actions.push(MacAction::SetTimer {
            timer: MacTimer::Sifs,
            delay: self.params.sifs,
        });
    }

    fn handle_ack(&mut self, now: SimTime, src: NodeId, actions: &mut Vec<MacAction>) {
        let expected = matches!(self.awaiting, Some(Awaiting::Ack))
            && self.current.as_ref().is_some_and(|c| c.next_hop == src);
        if !expected {
            return;
        }
        self.awaiting = None;
        actions.push(MacAction::CancelTimer(MacTimer::AckTimeout));
        let cur = self.current.take().expect("awaiting ack implies current");
        self.note_exchange_retries(cur.attempts);
        self.counters.unicast_delivered += 1;
        actions.push(MacAction::TxConfirm {
            next_hop: cur.next_hop,
            packet: cur.packet,
            success: true,
        });
        self.complete_exchange(now, actions);
    }

    fn handle_data(
        &mut self,
        now: SimTime,
        src: NodeId,
        seq: u16,
        packet: &Packet,
        actions: &mut Vec<MacAction>,
    ) {
        // Acknowledge unless we are mid-exchange ourselves (then the sender
        // retries and the duplicate cache protects the upper layer).
        let can_ack = !self.busy_with_exchange();
        if can_ack {
            self.pending_resp = Some(PendingResponse::Ack { dst: src });
            // The response claims the radio: park our own contention.
            self.suspend_contention(now, actions);
            actions.push(MacAction::SetTimer {
                timer: MacTimer::Sifs,
                delay: self.params.sifs,
            });
        }
        if self.rx_cache.get(src) == Some(&seq) {
            self.counters.duplicates_suppressed += 1;
        } else {
            self.rx_cache.insert(src, seq);
            actions.push(MacAction::Deliver {
                from: src,
                packet: packet.clone(),
            });
        }
    }

    fn on_sifs_fired(&mut self, _now: SimTime, actions: &mut Vec<MacAction>) {
        let Some(resp) = self.pending_resp.take() else {
            return; // stale
        };
        match resp {
            PendingResponse::Cts { dst, nav } => {
                self.on_air = Some(OnAir::Cts);
                actions.push(MacAction::StartTx(MacFrame::Cts {
                    src: self.me,
                    dst,
                    nav,
                }));
            }
            PendingResponse::Ack { dst } => {
                self.on_air = Some(OnAir::Ack);
                actions.push(MacAction::StartTx(MacFrame::Ack { src: self.me, dst }));
            }
            PendingResponse::Data => {
                let cur = self
                    .current
                    .as_mut()
                    .expect("data response without current");
                cur.slrc += 1;
                cur.attempts += 1;
                let frame = MacFrame::Data {
                    src: self.me,
                    dst: cur.next_hop,
                    seq: cur.mac_seq,
                    retry: cur.slrc > 1,
                    nav: self.params.sifs + self.params.ack_airtime(),
                    packet: cur.packet.clone(),
                };
                self.counters.data_sent += 1;
                self.on_air = Some(OnAir::Data);
                actions.push(MacAction::StartTx(frame));
            }
        }
    }

    fn on_cts_timeout(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if !matches!(self.awaiting, Some(Awaiting::Cts)) {
            return; // stale
        }
        self.awaiting = None;
        self.counters.cts_timeouts += 1;
        let cur = self.current.as_ref().expect("awaiting cts implies current");
        if cur.ssrc >= SHORT_RETRY_LIMIT {
            let cur = self.current.take().expect("checked above");
            self.note_exchange_retries(cur.attempts);
            self.counters.rts_retry_drops += 1;
            actions.push(MacAction::TxConfirm {
                next_hop: cur.next_hop,
                packet: cur.packet,
                success: false,
            });
            self.complete_exchange(now, actions);
        } else {
            self.retry(now, actions);
        }
    }

    fn on_ack_timeout(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        if !matches!(self.awaiting, Some(Awaiting::Ack)) {
            return; // stale
        }
        self.awaiting = None;
        self.counters.ack_timeouts += 1;
        let cur = self.current.as_ref().expect("awaiting ack implies current");
        if cur.slrc >= LONG_RETRY_LIMIT {
            let cur = self.current.take().expect("checked above");
            self.note_exchange_retries(cur.attempts);
            self.counters.data_retry_drops += 1;
            actions.push(MacAction::TxConfirm {
                next_hop: cur.next_hop,
                packet: cur.packet,
                success: false,
            });
            self.complete_exchange(now, actions);
        } else {
            self.retry(now, actions);
        }
    }

    /// Doubles the contention window and schedules a retry of the current
    /// exchange (restarting from RTS).
    fn retry(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        self.cw = ((self.cw + 1) * 2 - 1).min(CW_MAX);
        let slots = self.rng.gen_range_u32(self.cw + 1);
        self.backoff.set_slots(slots);
        self.maybe_start_contention(now, actions);
    }

    /// A unicast exchange or broadcast completed (successfully or by
    /// dropping the packet): reset the contention window, arm the
    /// post-transmission backoff if more traffic waits, and continue.
    fn complete_exchange(&mut self, now: SimTime, actions: &mut Vec<MacAction>) {
        self.cw = self.params.cw_min;
        if self.have_traffic() {
            let mut slots = self.rng.gen_range_u32(self.cw + 1);
            if self.params.adaptive_pacing {
                // Fu et al.'s adaptive pacing: yield roughly one extra
                // data-frame transmission time after each exchange so
                // downstream hops of the chain can drain.
                let extra = self.params.data_airtime(1500).as_nanos() / self.params.slot.as_nanos();
                slots = slots.saturating_add(extra as u32);
            }
            self.backoff.set_slots(slots);
        } else {
            self.backoff.clear();
        }
        self.maybe_start_contention(now, actions);
    }

    /// Updates the contention estimate after an exchange that needed
    /// `attempts` frame transmissions (minimum 2: one RTS, one DATA).
    fn note_exchange_retries(&mut self, attempts: u32) {
        if let Some(red) = self.params.link_red {
            let retries = f64::from(attempts.saturating_sub(2));
            self.retry_ewma = (1.0 - red.weight) * self.retry_ewma + red.weight * retries;
        }
    }

    /// Link-RED early-drop decision for a head-of-line unicast packet.
    fn lred_drops_now(&mut self) -> bool {
        let Some(red) = self.params.link_red else {
            return false;
        };
        if self.retry_ewma <= red.min_th {
            return false;
        }
        let p = if self.retry_ewma >= red.max_th {
            red.max_p
        } else {
            red.max_p * (self.retry_ewma - red.min_th) / (red.max_th - red.min_th)
        };
        self.rng.gen_f64() < p
    }
}

/// Test shim for the out-param API: `act!(m.method(args...))` calls the
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
    use mwn_phy::DataRate;
    use mwn_pkt::{Body, FlowId, TcpSegment};

    fn params() -> MacParams {
        MacParams::ieee80211b(DataRate::MBPS_2)
    }

    fn mac(id: u32) -> Dcf {
        Dcf::new(NodeId(id), params(), Pcg32::new(u64::from(id)))
    }

    fn data_packet(uid: u64) -> Packet {
        Packet::new(
            uid,
            NodeId(0),
            NodeId(5),
            Body::Tcp(TcpSegment::data(FlowId(0), 0)),
        )
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// Extract the single StartTx frame from actions; panic otherwise.
    fn started_frame(actions: &[MacAction]) -> &MacFrame {
        let frames: Vec<&MacFrame> = actions
            .iter()
            .filter_map(|a| match a {
                MacAction::StartTx(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(
            frames.len(),
            1,
            "expected exactly one StartTx in {actions:?}"
        );
        frames[0]
    }

    fn has_timer(actions: &[MacAction], timer: MacTimer) -> bool {
        actions
            .iter()
            .any(|a| matches!(a, MacAction::SetTimer { timer: tm, .. } if *tm == timer))
    }

    #[test]
    fn idle_enqueue_defers_difs_then_sends_rts() {
        let mut m = mac(0);
        let a = act!(m.enqueue(t(0), NodeId(1), data_packet(1)));
        assert!(has_timer(&a, MacTimer::Defer));
        let a = act!(m.on_timer(t(50), MacTimer::Defer));
        let f = started_frame(&a);
        assert!(matches!(f, MacFrame::Rts { dst: NodeId(1), .. }));
        assert_eq!(m.counters().rts_sent, 1);
        assert_eq!(m.counters().unicast_accepted, 1);
    }

    #[test]
    fn full_unicast_exchange() {
        let mut s = mac(0); // sender
        let mut r = mac(1); // receiver

        // Sender: enqueue -> defer -> RTS.
        act!(s.enqueue(t(0), NodeId(1), data_packet(1)));
        let a = act!(s.on_timer(t(50), MacTimer::Defer));
        let rts = started_frame(&a).clone();

        // RTS arrives at receiver; receiver schedules CTS after SIFS.
        let a = act!(r.on_rx_frame(t(402), &rts));
        assert!(has_timer(&a, MacTimer::Sifs));
        // Sender's RTS tx completes; awaits CTS.
        let a = act!(s.on_tx_done(t(402)));
        assert!(has_timer(&a, MacTimer::CtsTimeout));

        // Receiver sends CTS.
        let a = act!(r.on_timer(t(412), MacTimer::Sifs));
        let cts = started_frame(&a).clone();
        assert!(matches!(cts, MacFrame::Cts { dst: NodeId(0), .. }));

        // CTS arrives at sender -> DATA after SIFS.
        let a = act!(s.on_rx_frame(t(716), &cts));
        assert!(a.contains(&MacAction::CancelTimer(MacTimer::CtsTimeout)));
        assert!(has_timer(&a, MacTimer::Sifs));
        act!(r.on_tx_done(t(716)));

        let a = act!(s.on_timer(t(726), MacTimer::Sifs));
        let data = started_frame(&a).clone();
        assert!(matches!(data, MacFrame::Data { dst: NodeId(1), .. }));

        // DATA arrives at receiver: delivered upward, ACK scheduled.
        let a = act!(r.on_rx_frame(t(7030), &data));
        assert!(a.iter().any(|x| matches!(
            x,
            MacAction::Deliver {
                from: NodeId(0),
                ..
            }
        )));
        assert!(has_timer(&a, MacTimer::Sifs));
        let a = act!(s.on_tx_done(t(7030)));
        assert!(has_timer(&a, MacTimer::AckTimeout));

        // Receiver sends MAC ACK.
        let a = act!(r.on_timer(t(7040), MacTimer::Sifs));
        let ack = started_frame(&a).clone();
        assert!(matches!(ack, MacFrame::Ack { dst: NodeId(0), .. }));

        // ACK arrives: success confirmed.
        let a = act!(s.on_rx_frame(t(7344), &ack));
        assert!(a.iter().any(|x| matches!(
            x,
            MacAction::TxConfirm {
                success: true,
                next_hop: NodeId(1),
                ..
            }
        )));
        act!(r.on_tx_done(t(7344)));
        assert_eq!(s.counters().unicast_delivered, 1);
    }

    #[test]
    fn rts_retry_limit_reports_link_failure() {
        let mut m = mac(0);
        act!(m.enqueue(t(0), NodeId(1), data_packet(1)));
        let mut now = t(50);
        let mut failed = false;
        // First attempt from the defer; subsequent from backoff timers.
        let mut actions = act!(m.on_timer(now, MacTimer::Defer));
        for attempt in 1..=7 {
            assert!(
                matches!(started_frame(&actions), MacFrame::Rts { .. }),
                "attempt {attempt} should send RTS"
            );
            now += SimDuration::from_micros(352);
            let a = act!(m.on_tx_done(now));
            assert!(has_timer(&a, MacTimer::CtsTimeout));
            now += params().cts_timeout();
            let a = act!(m.on_timer(now, MacTimer::CtsTimeout));
            if a.iter()
                .any(|x| matches!(x, MacAction::TxConfirm { success: false, .. }))
            {
                assert_eq!(attempt, 7, "must fail exactly at the short retry limit");
                failed = true;
                break;
            }
            // The retry path armed a Defer; fire it, then the backoff.
            assert!(has_timer(&a, MacTimer::Defer));
            now += params().difs();
            let d = act!(m.on_timer(now, MacTimer::Defer));
            assert!(has_timer(&d, MacTimer::Backoff));
            now += SimDuration::from_millis(25);
            actions = act!(m.on_timer(now, MacTimer::Backoff));
        }
        assert!(failed, "link failure never reported");
        assert_eq!(m.counters().rts_retry_drops, 1);
        assert_eq!(m.counters().cts_timeouts, 7);
    }

    #[test]
    fn queue_overflow_drops_packets() {
        let mut m = mac(0);
        // Medium busy so nothing enters service; capacity 50.
        act!(m.on_carrier_busy(t(0)));
        for i in 0..50 {
            let a = act!(m.enqueue(t(1), NodeId(1), data_packet(i)));
            assert!(!a.iter().any(|x| matches!(x, MacAction::Dropped { .. })));
        }
        let a = act!(m.enqueue(t(2), NodeId(1), data_packet(99)));
        assert!(a.iter().any(|x| matches!(
            x,
            MacAction::Dropped {
                reason: MacDropReason::QueueFull,
                ..
            }
        )));
        assert_eq!(m.counters().queue_drops, 1);
        assert_eq!(m.queue_len(), 50);
    }

    /// An idle MAC holds no heap; its first packet reserves one queue
    /// slot, and a backlog grows the queue amortised.
    #[test]
    fn first_enqueue_reserves_exactly_one_slot() {
        let mut m = mac(0);
        assert_eq!(m.memory_bytes(), 0);
        act!(m.on_carrier_busy(t(0)));
        let slot = std::mem::size_of::<(NodeId, Packet)>();
        let mut slots = Vec::new();
        for i in 0..5 {
            act!(m.enqueue(t(1), NodeId(1), data_packet(i)));
            slots.push(m.memory_bytes() / slot);
        }
        assert_eq!(slots, vec![1, 4, 4, 4, 8]);
    }

    /// Every MAC built from one `Arc<MacParams>` shares it.
    #[test]
    fn macs_share_one_parameter_set() {
        let shared = std::sync::Arc::new(params());
        let macs: Vec<Dcf> = (0..3)
            .map(|i| Dcf::new(NodeId(i), shared.clone(), Pcg32::new(u64::from(i))))
            .collect();
        assert_eq!(std::sync::Arc::strong_count(&shared), 4);
        assert!(macs
            .iter()
            .all(|m| std::sync::Arc::ptr_eq(&m.params, &shared)));
    }

    #[test]
    fn broadcast_sends_plain_data_without_ack_wait() {
        let mut m = mac(0);
        act!(m.enqueue(t(0), NodeId::BROADCAST, data_packet(1)));
        let a = act!(m.on_timer(t(50), MacTimer::Defer));
        let f = started_frame(&a);
        assert!(f.is_broadcast());
        let a = act!(m.on_tx_done(t(7000)));
        // No response timers: exchange done.
        assert!(!has_timer(&a, MacTimer::AckTimeout));
        assert!(!has_timer(&a, MacTimer::CtsTimeout));
        assert_eq!(m.counters().broadcast_accepted, 1);
    }

    #[test]
    fn overheard_rts_sets_nav_and_blocks_tx() {
        let mut m = mac(2); // bystander
        let rts = MacFrame::Rts {
            src: NodeId(0),
            dst: NodeId(1),
            nav: SimDuration::from_micros(7000),
        };
        let a = act!(m.on_rx_frame(t(400), &rts));
        assert!(has_timer(&a, MacTimer::Nav));

        // A packet arrives: medium physically idle but NAV busy -> no defer.
        let a = act!(m.enqueue(t(500), NodeId(3), data_packet(5)));
        assert!(!has_timer(&a, MacTimer::Defer));

        // NAV expires: contention starts.
        let a = act!(m.on_timer(t(7400), MacTimer::Nav));
        assert!(has_timer(&a, MacTimer::Defer));
    }

    /// The fact a host relies on to leave a bystander's NAV timer
    /// unarmed: with nothing to send and no backoff owed, a NAV expiry
    /// emits nothing and changes nothing — in every state a MAC without
    /// traffic passes through (idle, NAV set, carrier busy, answering an
    /// RTS, CTS on the air, after the exchange).
    #[test]
    fn nav_expiry_is_inert_whenever_the_mac_does_not_want_the_medium() {
        fn assert_inert(m: &mut Dcf, now: SimTime, state: &str) {
            assert!(!m.wants_medium(), "{state}: premise");
            let before = format!("{m:?}");
            let a = act!(m.on_timer(now, MacTimer::Nav));
            assert!(a.is_empty(), "{state}: NAV expiry emitted {a:?}");
            assert_eq!(
                format!("{m:?}"),
                before,
                "{state}: NAV expiry changed state"
            );
        }
        let mut m = mac(2);
        assert_inert(&mut m, t(0), "idle");
        let overheard = MacFrame::Rts {
            src: NodeId(0),
            dst: NodeId(1),
            nav: SimDuration::from_micros(700),
        };
        act!(m.on_rx_frame(t(400), &overheard));
        assert_inert(&mut m, t(500), "NAV running");
        assert_inert(&mut m, t(1100), "NAV expired");
        act!(m.on_carrier_busy(t(1200)));
        assert_inert(&mut m, t(1250), "carrier busy");
        act!(m.on_carrier_idle(t(1300)));
        m.on_rx_corrupt(t(1300));
        assert_inert(&mut m, t(1300), "EIFS owed");
        let rts = MacFrame::Rts {
            src: NodeId(3),
            dst: NodeId(2),
            nav: SimDuration::from_micros(7000),
        };
        let a = act!(m.on_rx_frame(t(2000), &rts));
        assert!(has_timer(&a, MacTimer::Sifs));
        assert_inert(&mut m, t(2005), "CTS pending");
        act!(m.on_timer(t(2010), MacTimer::Sifs));
        assert_inert(&mut m, t(2100), "CTS on the air");
        act!(m.on_tx_done(t(2314)));
        assert_inert(&mut m, t(2314), "after the response");

        // And the flip side: once a packet waits, the expiry matters.
        act!(m.on_rx_frame(t(3000), &overheard));
        act!(m.enqueue(t(3100), NodeId(3), data_packet(9)));
        assert!(m.wants_medium());
        let a = act!(m.on_timer(t(3700), MacTimer::Nav));
        assert!(has_timer(&a, MacTimer::Defer));
    }

    /// The fact a host relies on to skip a quiet MAC's radio batches:
    /// carrier transitions and corrupt ends emit nothing there, and
    /// `resume` with the carrier state and the EIFS debt leaves the MAC
    /// exactly as delivering them would have.
    #[test]
    fn a_quiet_mac_is_resumed_to_the_state_its_radio_batches_leave() {
        let mut live = mac(2);
        let overheard = MacFrame::Rts {
            src: NodeId(0),
            dst: NodeId(1),
            nav: SimDuration::from_micros(700),
        };
        act!(live.on_rx_frame(t(400), &overheard));
        assert!(live.is_quiet(), "a NAV alone keeps the MAC quiet");
        let mut kept = live.clone();
        assert!(act!(live.on_carrier_busy(t(500))).is_empty());
        live.on_rx_corrupt(t(800));
        assert!(act!(live.on_carrier_idle(t(800))).is_empty());
        assert!(act!(live.on_carrier_busy(t(900))).is_empty());
        assert!(live.is_quiet());
        kept.resume(true, true);
        assert_eq!(format!("{kept:?}"), format!("{live:?}"));

        // Both owe the EIFS once a packet arrives and the carrier clears.
        for m in [&mut live, &mut kept] {
            assert!(act!(m.enqueue(t(1000), NodeId(1), data_packet(1))).is_empty());
            assert!(!m.is_quiet());
            let a = act!(m.on_carrier_idle(t(1200)));
            let defer = MacAction::SetTimer {
                timer: MacTimer::Defer,
                delay: params().eifs(),
            };
            assert_eq!(a, [defer]);
        }
    }

    #[test]
    fn busy_carrier_freezes_backoff_and_resumes() {
        let mut m = mac(0);
        act!(m.enqueue(t(0), NodeId(1), data_packet(1)));
        // Go through one CTS timeout to force a backoff.
        act!(m.on_timer(t(50), MacTimer::Defer));
        act!(m.on_tx_done(t(402)));
        let a = act!(m.on_timer(t(1000), MacTimer::CtsTimeout));
        assert!(has_timer(&a, MacTimer::Defer));
        let a = act!(m.on_timer(t(1050), MacTimer::Defer));
        assert!(has_timer(&a, MacTimer::Backoff));

        // Medium goes busy mid-countdown: backoff timer cancelled.
        let a = act!(m.on_carrier_busy(t(1060)));
        assert!(a.contains(&MacAction::CancelTimer(MacTimer::Backoff)));

        // Idle again: defer then resumed backoff.
        let a = act!(m.on_carrier_idle(t(2000)));
        assert!(has_timer(&a, MacTimer::Defer));
        let a = act!(m.on_timer(t(2050), MacTimer::Defer));
        // Either resumes counting or, if 0 slots remained, transmits.
        assert!(has_timer(&a, MacTimer::Backoff) || !a.is_empty());
    }

    #[test]
    fn eifs_after_corrupted_frame() {
        let mut m = mac(0);
        m.on_rx_corrupt(t(100));
        let a = act!(m.enqueue(t(100), NodeId(1), data_packet(1)));
        let delay = a.iter().find_map(|x| match x {
            MacAction::SetTimer {
                timer: MacTimer::Defer,
                delay,
            } => Some(*delay),
            _ => None,
        });
        assert_eq!(delay, Some(params().eifs()));
        // After the EIFS defer, normal DIFS resumes.
        act!(m.on_timer(t(464), MacTimer::Defer));
        assert_eq!(m.counters().rts_sent, 1);
    }

    #[test]
    fn duplicate_data_suppressed_but_acked() {
        let mut m = mac(1);
        let mk = |uid| MacFrame::Data {
            src: NodeId(0),
            dst: NodeId(1),
            seq: 7,
            retry: uid > 1,
            nav: SimDuration::ZERO,
            packet: data_packet(uid),
        };
        let a = act!(m.on_rx_frame(t(100), &mk(1)));
        assert!(a.iter().any(|x| matches!(x, MacAction::Deliver { .. })));
        // Send the ACK.
        act!(m.on_timer(t(110), MacTimer::Sifs));
        act!(m.on_tx_done(t(414)));
        // Same MAC seq again (ACK was lost at the sender): ACKed, not
        // delivered twice.
        let a = act!(m.on_rx_frame(t(9000), &mk(1)));
        assert!(!a.iter().any(|x| matches!(x, MacAction::Deliver { .. })));
        assert!(has_timer(&a, MacTimer::Sifs));
        assert_eq!(m.counters().duplicates_suppressed, 1);
    }

    #[test]
    fn rts_ignored_while_mid_exchange() {
        let mut m = mac(0);
        act!(m.enqueue(t(0), NodeId(1), data_packet(1)));
        act!(m.on_timer(t(50), MacTimer::Defer));
        act!(m.on_tx_done(t(402))); // awaiting CTS
        let rts = MacFrame::Rts {
            src: NodeId(2),
            dst: NodeId(0),
            nav: SimDuration::from_micros(7000),
        };
        let a = act!(m.on_rx_frame(t(500), &rts));
        assert!(
            !has_timer(&a, MacTimer::Sifs),
            "must not CTS while awaiting CTS"
        );
    }

    #[test]
    fn ack_timeout_exhausts_long_retry_limit() {
        let mut m = mac(0);
        act!(m.enqueue(t(0), NodeId(1), data_packet(1)));
        let mut now = t(50);
        let mut actions = act!(m.on_timer(now, MacTimer::Defer)); // RTS out
        let mut failures = 0;
        for _round in 0..4 {
            assert!(matches!(started_frame(&actions), MacFrame::Rts { .. }));
            now += SimDuration::from_micros(352);
            act!(m.on_tx_done(now));
            // CTS arrives.
            let cts = MacFrame::Cts {
                src: NodeId(1),
                dst: NodeId(0),
                nav: SimDuration::ZERO,
            };
            act!(m.on_rx_frame(now + SimDuration::from_micros(314), &cts));
            now += SimDuration::from_micros(324);
            let a = act!(m.on_timer(now, MacTimer::Sifs));
            assert!(matches!(started_frame(&a), MacFrame::Data { .. }));
            now += SimDuration::from_micros(6304);
            act!(m.on_tx_done(now));
            // No ACK: timeout.
            now += params().ack_timeout();
            let a = act!(m.on_timer(now, MacTimer::AckTimeout));
            if a.iter()
                .any(|x| matches!(x, MacAction::TxConfirm { success: false, .. }))
            {
                failures += 1;
                break;
            }
            // Work through defer + backoff for the retry.
            let a = act!(m.on_timer(now, MacTimer::Defer));
            assert!(has_timer(&a, MacTimer::Backoff));
            actions = act!(m.on_timer(now + SimDuration::from_millis(20), MacTimer::Backoff));
        }
        assert_eq!(failures, 1, "must fail after 4 DATA attempts");
        assert_eq!(m.counters().data_retry_drops, 1);
        assert_eq!(m.counters().data_sent, 4);
    }

    #[test]
    fn next_queued_packet_enters_service_after_success() {
        let mut m = mac(0);
        act!(m.enqueue(t(0), NodeId(1), data_packet(1)));
        act!(m.enqueue(t(0), NodeId(1), data_packet(2)));
        // Run exchange 1 quickly.
        act!(m.on_timer(t(50), MacTimer::Defer));
        act!(m.on_tx_done(t(402)));
        act!(m.on_rx_frame(
            t(716),
            &MacFrame::Cts {
                src: NodeId(1),
                dst: NodeId(0),
                nav: SimDuration::ZERO,
            },
        ));
        act!(m.on_timer(t(726), MacTimer::Sifs));
        act!(m.on_tx_done(t(7030)));
        let a = act!(m.on_rx_frame(
            t(7344),
            &MacFrame::Ack {
                src: NodeId(1),
                dst: NodeId(0),
            },
        ));
        assert!(a
            .iter()
            .any(|x| matches!(x, MacAction::TxConfirm { success: true, .. })));
        // Post-backoff armed; defer scheduled for packet 2.
        assert!(has_timer(&a, MacTimer::Defer));
        let a = act!(m.on_timer(t(7394), MacTimer::Defer));
        assert!(has_timer(&a, MacTimer::Backoff));
        let a = act!(m.on_timer(t(8000), MacTimer::Backoff));
        assert!(matches!(started_frame(&a), MacFrame::Rts { .. }));
        assert_eq!(m.counters().unicast_accepted, 2);
    }

    #[test]
    fn cw_doubles_and_resets() {
        let mut m = mac(0);
        act!(m.enqueue(t(0), NodeId(1), data_packet(1)));
        act!(m.on_timer(t(50), MacTimer::Defer));
        act!(m.on_tx_done(t(402)));
        assert_eq!(m.cw, 31);
        act!(m.on_timer(t(1000), MacTimer::CtsTimeout));
        assert_eq!(m.cw, 63);
        act!(m.on_timer(t(1000), MacTimer::Defer));
        act!(m.on_timer(t(30_000), MacTimer::Backoff));
        act!(m.on_tx_done(t(31_000)));
        act!(m.on_timer(t(32_000), MacTimer::CtsTimeout));
        assert_eq!(m.cw, 127);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::params::LinkRedParams;
    use mwn_phy::DataRate;
    use mwn_pkt::{Body, FlowId, TcpSegment};

    fn data_packet(uid: u64) -> Packet {
        Packet::new(
            uid,
            NodeId(0),
            NodeId(5),
            Body::Tcp(TcpSegment::data(FlowId(0), 0)),
        )
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn lred_disabled_by_default_never_early_drops() {
        let params = MacParams::ieee80211b(DataRate::MBPS_2);
        let mut m = Dcf::new(NodeId(0), params, Pcg32::new(1));
        for i in 0..20 {
            act!(m.enqueue(t(i), NodeId(1), data_packet(i)));
        }
        assert_eq!(m.counters().early_drops, 0);
        assert!(!m.lred_drops_now());
    }

    #[test]
    fn lred_drops_under_sustained_contention() {
        let mut params = MacParams::ieee80211b(DataRate::MBPS_2);
        params.link_red = Some(LinkRedParams {
            min_th: 0.5,
            max_th: 2.0,
            max_p: 1.0,
            weight: 1.0,
        });
        let mut m = Dcf::new(NodeId(0), params, Pcg32::new(1));
        // Pump the retry EWMA: an exchange that needed 7 attempts.
        m.note_exchange_retries(7);
        assert!(m.retry_ewma > 2.0);
        // With max_p = 1.0 above max_th, the head-of-line packet drops.
        act!(m.enqueue(t(0), NodeId(1), data_packet(1)));
        let a = act!(m.on_timer(t(50), MacTimer::Defer));
        assert!(a.iter().any(|x| matches!(
            x,
            MacAction::Dropped {
                reason: MacDropReason::EarlyDrop,
                ..
            }
        )));
        assert_eq!(m.counters().early_drops, 1);
        assert_eq!(m.counters().unicast_accepted, 0);
    }

    #[test]
    fn lred_ewma_decays_with_clean_exchanges() {
        let mut params = MacParams::ieee80211b(DataRate::MBPS_2);
        params.link_red = Some(LinkRedParams::default());
        let mut m = Dcf::new(NodeId(0), params, Pcg32::new(1));
        m.note_exchange_retries(10);
        let high = m.retry_ewma;
        for _ in 0..50 {
            m.note_exchange_retries(2); // perfect exchange: 1 RTS + 1 DATA
        }
        assert!(m.retry_ewma < high / 4.0, "EWMA must decay toward zero");
    }

    #[test]
    fn adaptive_pacing_extends_post_backoff() {
        let mut params = MacParams::ieee80211b(DataRate::MBPS_2);
        params.adaptive_pacing = true;
        let mut m = Dcf::new(NodeId(0), params, Pcg32::new(1));
        act!(m.enqueue(t(0), NodeId(1), data_packet(1)));
        act!(m.enqueue(t(0), NodeId(1), data_packet(2)));
        // Run the first exchange to completion.
        act!(m.on_timer(t(50), MacTimer::Defer));
        act!(m.on_tx_done(t(402)));
        act!(m.on_rx_frame(
            t(716),
            &MacFrame::Cts {
                src: NodeId(1),
                dst: NodeId(0),
                nav: SimDuration::ZERO,
            },
        ));
        act!(m.on_timer(t(726), MacTimer::Sifs));
        act!(m.on_tx_done(t(7030)));
        let a = act!(m.on_rx_frame(
            t(7344),
            &MacFrame::Ack {
                src: NodeId(1),
                dst: NodeId(0),
            },
        ));
        assert!(a
            .iter()
            .any(|x| matches!(x, MacAction::TxConfirm { success: true, .. })));
        // Next packet's backoff includes ~one data airtime (6304 us ≈ 315
        // slots) on top of the contention window draw.
        let d = act!(m.on_timer(t(7394), MacTimer::Defer));
        let delay = d.iter().find_map(|x| match x {
            MacAction::SetTimer {
                timer: MacTimer::Backoff,
                delay,
            } => Some(*delay),
            _ => None,
        });
        let delay = delay.expect("backoff armed for the next packet");
        assert!(
            delay >= SimDuration::from_micros(6300),
            "pacing must add ≥ one data airtime, got {delay}"
        );
    }
}
