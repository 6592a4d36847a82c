//! Per-node radio state machine: reception locking, collision marking and
//! carrier-sense transitions.
//!
//! The transceiver is fed signal-start/-end notifications (already
//! classified by [`crate::Medium`]) in timestamp order and reports
//! [`RadioEvent`]s. It implements the standard simulator reception model,
//! matching ns-2:
//!
//! * a receiver locks onto the first decodable signal that starts while it
//!   is neither transmitting nor already locked;
//! * any other signal that `interferes` and overlaps a locked reception
//!   corrupts it, unless the locked frame is at least `CPThresh` (10×)
//!   stronger — ns-2's physical capture, which is what lets same-direction
//!   chain traffic survive its own hidden terminals;
//! * a half-duplex radio cannot receive while transmitting, and starting a
//!   transmission abandons any reception in progress;
//! * physical carrier sense reports busy whenever the node transmits or any
//!   `senses`-class signal is on the air.
//!
//! All event-producing methods append to a caller-supplied buffer instead
//! of returning a fresh `Vec`: the transceiver sits on the event loop's hot
//! path and must not allocate per event.
//!
//! A network runs the model for all its nodes in one
//! [`RadioTable`](crate::RadioTable); [`Transceiver`] is that table for
//! one node.

use mwn_pkt::NodeId;

use crate::counters::PhyCounters;
use crate::medium::SignalClass;
use crate::radio::RadioTable;

/// Identifies one transmission on the medium (assigned by the caller;
/// unique per simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u64);

/// Radio-level events produced by the transceiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioEvent {
    /// Physical carrier sense went busy.
    CarrierBusy,
    /// Physical carrier sense went idle.
    CarrierIdle,
    /// The radio locked onto an incoming frame.
    RxStart(TxId),
    /// A locked frame finished arriving; `ok` is `false` if it was
    /// corrupted by interference.
    RxEnd {
        /// The transmission that ended.
        tx: TxId,
        /// Whether the frame arrived intact.
        ok: bool,
    },
    /// A signal the radio could sense but never decode (carrier-sense-only
    /// energy, or a frame it failed to lock onto) stopped. The MAC treats
    /// this like a corrupted reception and defers EIFS instead of DIFS —
    /// exactly ns-2's behaviour for frames below the receive threshold.
    /// Without this, stations two hops from a transmitter would wait only
    /// DIFS (50 µs) and stomp on the SIFS-spaced CTS/ACK responses
    /// (≈314 µs) of the exchange they partially overheard.
    UndecodedEnd,
}

/// One node's radio reception/carrier-sense state machine: a
/// one-radio [`RadioTable`], so it runs exactly the table's slot code.
///
/// # Example
///
/// ```
/// use mwn_phy::{RadioEvent, RangeModel, Transceiver, TxId};
///
/// let decodable = RangeModel::paper().classify(200.0).unwrap();
/// let mut radio = Transceiver::new();
/// let mut ev = Vec::new();
/// radio.signal_start(TxId(1), decodable, &mut ev);
/// assert_eq!(ev, vec![RadioEvent::CarrierBusy, RadioEvent::RxStart(TxId(1))]);
/// ev.clear();
/// radio.signal_end(TxId(1), &mut ev);
/// assert_eq!(ev, vec![RadioEvent::RxEnd { tx: TxId(1), ok: true }, RadioEvent::CarrierIdle]);
/// ```
#[derive(Debug, Clone)]
pub struct Transceiver {
    table: RadioTable,
}

/// The one radio of a [`Transceiver`]'s table.
const NODE: NodeId = NodeId(0);

impl Default for Transceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Transceiver {
    /// Creates an idle transceiver with ns-2's default 10× capture
    /// threshold.
    pub fn new() -> Self {
        Self::with_capture(Some(10.0))
    }

    /// Creates a transceiver with an explicit capture threshold (`None`
    /// disables capture: any overlapping interference corrupts).
    pub fn with_capture(capture_threshold: Option<f64>) -> Self {
        Transceiver {
            table: RadioTable::new(1, capture_threshold),
        }
    }

    /// Heap bytes held for overlapping signals and overlap counts (see
    /// [`RadioTable::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    /// Capture/collision/EIFS statistics accumulated so far.
    pub fn counters(&self) -> PhyCounters {
        self.table.counters(NODE)
    }

    /// Physical carrier sense: busy while transmitting or while any
    /// sensed signal is on the air.
    pub fn carrier_busy(&self) -> bool {
        self.table.carrier_busy(NODE)
    }

    /// `true` while the radio is locked onto a decodable incoming frame
    /// (not mere noise).
    pub fn receiving(&self) -> bool {
        self.table.receiving(NODE)
    }

    /// `true` while the radio transmits.
    pub fn transmitting(&self) -> bool {
        self.table.transmitting(NODE)
    }

    /// A classified signal starts arriving; resulting events are appended
    /// to `out`.
    ///
    /// Callers must assign unique ids; a duplicate active `tx` panics in
    /// debug builds (skipped in release).
    pub fn signal_start(&mut self, tx: TxId, class: SignalClass, out: &mut Vec<RadioEvent>) {
        self.table.signal_start(NODE, tx, class, out);
    }

    /// A previously started signal ends; resulting events are appended to
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `tx` was never started.
    pub fn signal_end(&mut self, tx: TxId, out: &mut Vec<RadioEvent>) {
        self.table.signal_end(NODE, tx, out);
    }

    /// The node starts transmitting. Any reception in progress is
    /// abandoned (no `RxEnd` will be reported for it). Resulting events
    /// are appended to `out`.
    pub fn tx_start(&mut self, out: &mut Vec<RadioEvent>) {
        self.table.tx_start(NODE, out);
    }

    /// The node's transmission ends; resulting events are appended to
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if the node was not transmitting.
    pub fn tx_end(&mut self, out: &mut Vec<RadioEvent>) {
        self.table.tx_end(NODE, out);
    }
}

/// The list-based transceiver [`RadioTable`] replaced, kept as the oracle
/// of its differential test: every signal on the air in one list, the
/// lock a copy of its signal, the threshold and all three counters in
/// every radio.
#[cfg(any(test, feature = "oracle"))]
#[derive(Debug, Clone)]
pub struct ReferenceTransceiver {
    /// All signals currently on the air at this node. A handful at most, so
    /// a flat list beats a hash map on every lookup the hot path makes.
    /// Most nodes of a large field only ever hear one at a time, so the
    /// first allocation holds one signal.
    active: Vec<(TxId, SignalClass)>,
    /// Count of active signals with `senses == true`.
    sensing: u32,
    /// The reception we are locked onto, if any.
    rx: Option<RxState>,
    transmitting: bool,
    /// Physical-capture threshold (linear power ratio; ns-2 `CPThresh_`).
    /// A locked frame survives interference weaker than
    /// `locked_power / threshold`; infinite (no capture) means any overlap
    /// corrupts.
    capture_threshold: f64,
    /// Capture/collision/EIFS decision counts.
    counters: PhyCounters,
}

#[cfg(any(test, feature = "oracle"))]
#[derive(Debug, Clone, Copy)]
struct RxState {
    tx: TxId,
    power: f64,
    /// `true` if the locked signal is a frame we could decode (in
    /// transmission range); `false` for carrier-sense-only noise.
    decodable: bool,
    corrupted: bool,
}

#[cfg(any(test, feature = "oracle"))]
impl ReferenceTransceiver {
    /// Creates a transceiver with an explicit capture threshold (`None`
    /// disables capture: any overlapping interference corrupts).
    pub fn with_capture(capture_threshold: Option<f64>) -> Self {
        ReferenceTransceiver {
            active: Vec::new(),
            sensing: 0,
            rx: None,
            transmitting: false,
            capture_threshold: capture_threshold.unwrap_or(f64::INFINITY),
            counters: PhyCounters::default(),
        }
    }

    /// Capture/collision/EIFS statistics accumulated so far.
    pub fn counters(&self) -> &PhyCounters {
        &self.counters
    }

    /// `true` if interference at `interferer_power` corrupts a locked
    /// frame received at `locked_power`.
    fn corrupts(&self, locked_power: f64, interferer_power: f64) -> bool {
        let thr = self.capture_threshold;
        thr == f64::INFINITY || locked_power < interferer_power * thr
    }

    /// Physical carrier sense: busy while transmitting or while any
    /// sensed signal is on the air.
    pub fn carrier_busy(&self) -> bool {
        self.transmitting || self.sensing > 0
    }

    /// `true` while the radio is locked onto a decodable incoming frame
    /// (not mere noise).
    pub fn receiving(&self) -> bool {
        self.rx.is_some_and(|r| r.decodable)
    }

    /// `true` while the radio transmits.
    pub fn transmitting(&self) -> bool {
        self.transmitting
    }

    /// A classified signal starts arriving; resulting events are appended
    /// to `out`.
    ///
    /// Callers must assign unique ids; a duplicate active `tx` panics in
    /// debug builds (the check is an O(active) scan, skipped in release).
    pub fn signal_start(&mut self, tx: TxId, class: SignalClass, out: &mut Vec<RadioEvent>) {
        let was_busy = self.carrier_busy();
        debug_assert!(
            !self.active.iter().any(|&(id, _)| id == tx),
            "duplicate signal id {tx:?}"
        );
        if self.active.capacity() == 0 {
            self.active.reserve_exact(1);
        }
        self.active.push((tx, class));
        if class.senses {
            self.sensing += 1;
        }

        if !was_busy && self.carrier_busy() {
            out.push(RadioEvent::CarrierBusy);
        }

        if self.rx.is_none() && !self.transmitting {
            // The radio locks onto the FIRST signal it hears, even
            // undecodable noise — as in ns-2, where a later (even much
            // stronger) frame is then discarded. This is the dominant
            // hidden-terminal loss mechanism: the interferer fires first,
            // occupies the receiver, and the real frame is lost.
            let mut contested = false;
            let mut interfered = false;
            for &(id, c) in &self.active {
                if id == tx || !c.interferes {
                    continue;
                }
                contested = true;
                if self.corrupts(class.power, c.power) {
                    interfered = true;
                    break;
                }
            }
            if class.decodable {
                if interfered {
                    self.counters.collisions += 1;
                } else if contested {
                    self.counters.captures += 1;
                }
            }
            self.rx = Some(RxState {
                tx,
                power: class.power,
                decodable: class.decodable,
                corrupted: !class.decodable || interfered,
            });
            if class.decodable {
                out.push(RadioEvent::RxStart(tx));
            }
        } else if class.interferes {
            // Interference corrupts the reception in progress, unless the
            // locked frame is strong enough to be captured over it.
            let corrupts = self
                .rx
                .is_some_and(|rx| self.corrupts(rx.power, class.power));
            if corrupts {
                if let Some(rx) = &mut self.rx {
                    if rx.decodable && !rx.corrupted {
                        self.counters.collisions += 1;
                    }
                    rx.corrupted = true;
                }
            } else if self.rx.is_some_and(|rx| rx.decodable && !rx.corrupted) {
                self.counters.captures += 1;
            }
        }
    }

    /// A previously started signal ends; resulting events are appended to
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `tx` was never started.
    pub fn signal_end(&mut self, tx: TxId, out: &mut Vec<RadioEvent>) {
        let was_busy = self.carrier_busy();
        let pos = self
            .active
            .iter()
            .position(|&(id, _)| id == tx)
            .expect("signal_end without start");
        let (_, class) = self.active.swap_remove(pos);
        if class.senses {
            self.sensing -= 1;
        }

        if let Some(rx) = self.rx {
            if rx.tx == tx {
                self.rx = None;
                if rx.decodable {
                    out.push(RadioEvent::RxEnd {
                        tx,
                        ok: !rx.corrupted,
                    });
                } else {
                    // Locked noise ended: PHY-RXEND with error → EIFS.
                    self.counters.undecoded += 1;
                    out.push(RadioEvent::UndecodedEnd);
                }
            }
            // Signals that never locked the radio were discarded at
            // arrival (ns-2 frees them silently): no event at their end.
        }
        if was_busy && !self.carrier_busy() {
            out.push(RadioEvent::CarrierIdle);
        }
    }

    /// The node starts transmitting. Any reception in progress is
    /// abandoned (no `RxEnd` will be reported for it). Resulting events
    /// are appended to `out`.
    pub fn tx_start(&mut self, out: &mut Vec<RadioEvent>) {
        let was_busy = self.carrier_busy();
        self.transmitting = true;
        self.rx = None;
        if !was_busy {
            out.push(RadioEvent::CarrierBusy);
        }
    }

    /// The node's transmission ends; resulting events are appended to
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if the node was not transmitting.
    pub fn tx_end(&mut self, out: &mut Vec<RadioEvent>) {
        assert!(self.transmitting, "tx_end without tx_start");
        self.transmitting = false;
        if !self.carrier_busy() {
            out.push(RadioEvent::CarrierIdle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::RangeModel;

    /// Signal from an adjacent chain node (200 m): decodable, strong.
    fn decodable() -> SignalClass {
        RangeModel::paper().classify(200.0).unwrap()
    }

    /// Signal from a hidden terminal two hops away (400 m): sense-only,
    /// 12.5× weaker than [`decodable`] — capturable.
    fn interference() -> SignalClass {
        RangeModel::paper().classify(400.0).unwrap()
    }

    /// Sense-only interference at 300 m: too strong to capture over.
    fn strong_interference() -> SignalClass {
        RangeModel::paper().classify(300.0).unwrap()
    }

    fn start(r: &mut Transceiver, tx: TxId, class: SignalClass) -> Vec<RadioEvent> {
        let mut out = Vec::new();
        r.signal_start(tx, class, &mut out);
        out
    }

    fn end(r: &mut Transceiver, tx: TxId) -> Vec<RadioEvent> {
        let mut out = Vec::new();
        r.signal_end(tx, &mut out);
        out
    }

    fn tx_start(r: &mut Transceiver) -> Vec<RadioEvent> {
        let mut out = Vec::new();
        r.tx_start(&mut out);
        out
    }

    fn tx_end(r: &mut Transceiver) -> Vec<RadioEvent> {
        let mut out = Vec::new();
        r.tx_end(&mut out);
        out
    }

    #[test]
    fn clean_reception() {
        let mut r = Transceiver::new();
        assert!(!r.carrier_busy());
        let ev = start(&mut r, TxId(1), decodable());
        assert_eq!(
            ev,
            vec![RadioEvent::CarrierBusy, RadioEvent::RxStart(TxId(1))]
        );
        assert!(r.receiving());
        let ev = end(&mut r, TxId(1));
        assert_eq!(
            ev,
            vec![
                RadioEvent::RxEnd {
                    tx: TxId(1),
                    ok: true
                },
                RadioEvent::CarrierIdle
            ]
        );
        assert!(!r.carrier_busy());
    }

    #[test]
    fn weak_hidden_terminal_is_captured_over() {
        // Paper chain geometry: sender 200 m away, interferer 400 m away.
        // Power ratio (two-ray ground) = 12.5 ≥ CPThresh 10: survive.
        let mut r = Transceiver::new();
        start(&mut r, TxId(1), decodable());
        let ev = start(&mut r, TxId(2), interference());
        assert!(ev.is_empty());
        let ev = end(&mut r, TxId(1));
        assert_eq!(
            ev,
            vec![RadioEvent::RxEnd {
                tx: TxId(1),
                ok: true
            }]
        );
        end(&mut r, TxId(2));
    }

    #[test]
    fn strong_hidden_terminal_corrupts_reception() {
        let mut r = Transceiver::new();
        start(&mut r, TxId(1), decodable());
        // 300 m interferer: ratio ≈ 4 < 10, reception is doomed.
        let ev = start(&mut r, TxId(2), strong_interference());
        assert!(ev.is_empty()); // carrier already busy, no new lock
        let ev = end(&mut r, TxId(1));
        assert_eq!(
            ev,
            vec![RadioEvent::RxEnd {
                tx: TxId(1),
                ok: false
            }]
        );
        // Medium still busy until the interferer ends; the never-locked
        // interferer ends silently.
        assert!(r.carrier_busy());
        let ev = end(&mut r, TxId(2));
        assert_eq!(ev, vec![RadioEvent::CarrierIdle]);
    }

    #[test]
    fn without_capture_any_interference_corrupts() {
        let mut r = Transceiver::with_capture(None);
        start(&mut r, TxId(1), decodable());
        start(&mut r, TxId(2), interference()); // weak, but no capture
        let ev = end(&mut r, TxId(1));
        assert_eq!(
            ev,
            vec![RadioEvent::RxEnd {
                tx: TxId(1),
                ok: false
            }]
        );
        end(&mut r, TxId(2));
    }

    #[test]
    fn two_equal_decodable_frames_collide() {
        // Equal power: no capture in either direction.
        let mut r = Transceiver::new();
        start(&mut r, TxId(1), decodable());
        let ev = start(&mut r, TxId(2), decodable());
        assert!(ev.is_empty()); // no second lock
        let ev = end(&mut r, TxId(1));
        assert_eq!(
            ev,
            vec![RadioEvent::RxEnd {
                tx: TxId(1),
                ok: false
            }]
        );
        // Frame 2 was never locked: discarded at arrival, silent end.
        let ev = end(&mut r, TxId(2));
        assert_eq!(ev, vec![RadioEvent::CarrierIdle]);
    }

    #[test]
    fn half_duplex_no_rx_while_transmitting() {
        let mut r = Transceiver::new();
        let ev = tx_start(&mut r);
        assert_eq!(ev, vec![RadioEvent::CarrierBusy]);
        let ev = start(&mut r, TxId(1), decodable());
        assert!(ev.is_empty()); // no lock, carrier already busy
        assert!(!r.receiving());
        end(&mut r, TxId(1));
        let ev = tx_end(&mut r);
        assert_eq!(ev, vec![RadioEvent::CarrierIdle]);
    }

    #[test]
    fn tx_start_abandons_reception() {
        let mut r = Transceiver::new();
        start(&mut r, TxId(1), decodable());
        assert!(r.receiving());
        tx_start(&mut r);
        assert!(!r.receiving());
        // Signal 1 ends with no RxEnd: the radio moved on.
        let ev = end(&mut r, TxId(1));
        assert!(ev.is_empty());
        assert!(r.carrier_busy()); // still transmitting
    }

    #[test]
    fn sense_only_signal_locks_as_noise_and_eifs_at_end() {
        let mut r = Transceiver::new();
        let ev = start(&mut r, TxId(1), interference());
        assert_eq!(ev, vec![RadioEvent::CarrierBusy]);
        assert!(!r.receiving(), "noise is not a frame reception");
        assert!(r.carrier_busy());
        let ev = end(&mut r, TxId(1));
        assert_eq!(ev, vec![RadioEvent::UndecodedEnd, RadioEvent::CarrierIdle]);
    }

    #[test]
    fn carrier_transitions_count_overlaps() {
        let mut r = Transceiver::new();
        assert_eq!(
            start(&mut r, TxId(1), interference()),
            vec![RadioEvent::CarrierBusy]
        );
        assert_eq!(start(&mut r, TxId(2), interference()), vec![]);
        // First noise was locked; second was discarded at arrival.
        assert_eq!(end(&mut r, TxId(1)), vec![RadioEvent::UndecodedEnd]);
        assert_eq!(end(&mut r, TxId(2)), vec![RadioEvent::CarrierIdle]);
    }

    #[test]
    fn undecoded_end_suppressed_while_transmitting() {
        let mut r = Transceiver::new();
        tx_start(&mut r);
        start(&mut r, TxId(1), interference());
        assert!(end(&mut r, TxId(1)).is_empty());
        tx_end(&mut r);
    }

    #[test]
    fn events_append_without_clearing() {
        // The out-parameter contract: callers own clearing.
        let mut r = Transceiver::new();
        let mut out = Vec::new();
        r.signal_start(TxId(1), decodable(), &mut out);
        r.signal_end(TxId(1), &mut out);
        assert_eq!(
            out,
            vec![
                RadioEvent::CarrierBusy,
                RadioEvent::RxStart(TxId(1)),
                RadioEvent::RxEnd {
                    tx: TxId(1),
                    ok: true
                },
                RadioEvent::CarrierIdle
            ]
        );
    }

    /// A radio's slot is 32 bytes, and a radio that never had two
    /// signals on the air holds no heap: not for its signals, nor for
    /// overlap counts it never took.
    #[test]
    fn a_radio_without_overlaps_holds_no_heap() {
        const { assert!(RadioTable::BYTES_PER_NODE - std::mem::size_of::<u32>() <= 32) };
        let mut r = Transceiver::new();
        for i in 0..5 {
            start(&mut r, TxId(2 * i), decodable());
            end(&mut r, TxId(2 * i));
            start(&mut r, TxId(2 * i + 1), interference());
            end(&mut r, TxId(2 * i + 1));
        }
        tx_start(&mut r);
        start(&mut r, TxId(10), decodable());
        end(&mut r, TxId(10));
        tx_end(&mut r);
        assert_eq!(r.memory_bytes(), 0);
        assert_eq!(r.counters().undecoded, 5);
        start(&mut r, TxId(11), decodable());
        start(&mut r, TxId(12), interference());
        assert!(r.memory_bytes() > 0, "an overlap spills");
        assert_eq!(r.counters().captures, 1);
    }

    /// The duplicate-id check is a debug assertion (skipped in release).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate signal id")]
    fn duplicate_signal_panics() {
        let mut r = Transceiver::new();
        start(&mut r, TxId(1), decodable());
        start(&mut r, TxId(1), decodable());
    }

    #[test]
    #[should_panic(expected = "signal_end without start")]
    fn unmatched_end_panics() {
        end(&mut Transceiver::new(), TxId(9));
    }

    #[test]
    fn back_to_back_receptions_after_collision_recover() {
        let mut r = Transceiver::new();
        start(&mut r, TxId(1), decodable());
        start(&mut r, TxId(2), interference());
        end(&mut r, TxId(1));
        end(&mut r, TxId(2));
        // Radio recovered: next frame is received cleanly.
        let ev = start(&mut r, TxId(3), decodable());
        assert_eq!(
            ev,
            vec![RadioEvent::CarrierBusy, RadioEvent::RxStart(TxId(3))]
        );
        let ev = end(&mut r, TxId(3));
        assert_eq!(
            ev,
            vec![
                RadioEvent::RxEnd {
                    tx: TxId(3),
                    ok: true
                },
                RadioEvent::CarrierIdle
            ]
        );
    }
}
