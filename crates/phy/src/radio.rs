//! Every node's radio in one dense table of 32-byte slots.
//!
//! A [`RadioTable`] runs the reception model documented on
//! [`Transceiver`](crate::Transceiver) — first-signal locking, capture,
//! half duplex, carrier sense, EIFS after undecoded energy — for all the
//! nodes of a network at once. Almost every signal that reaches a node of
//! a large field finds no other signal on the air there, so a node's slot
//! holds one signal inline (its *resident*: id, power, class bits) with
//! the lock, the transmitting bit and the exact `undecoded` count. The
//! node's second and later signals go to one overflow store shared by the
//! whole table, a free-listed slab of per-node linked lists, and leave it
//! when they end: a node that never had two signals on the air holds no
//! radio heap.
//!
//! The locked signal is always the resident. A signal that locks the
//! radio while another is on the air takes the slot and moves that one
//! to the overflow store; when the resident ends, the newest spilled
//! signal (unlocked) takes its place. So the lock is two bits, and a
//! signal edge reads the store only while its node has signals spilled.
//!
//! Captures and collisions are counted only at a node whose decodable
//! reception overlaps another signal, and such a node has had its energy
//! charged for that reception: the two counters live beside the node's
//! energy meter, behind one 4-byte slot per node that stays 0 until the
//! node is first charged.

use mwn_pkt::NodeId;

use crate::counters::PhyCounters;
use crate::energy::EnergyMeter;
use crate::medium::SignalClass;
use crate::transceiver::{RadioEvent, TxId};

/// The resident signal can be decoded (in transmission range).
const DECODABLE: u8 = 1;
/// The resident signal keeps carrier sense busy.
const SENSES: u8 = 1 << 1;
/// The resident signal may corrupt a reception.
const INTERFERES: u8 = 1 << 2;
/// The class bits of a signal.
const CLASS: u8 = DECODABLE | SENSES | INTERFERES;
/// The slot holds a resident signal.
const HELD: u8 = 1 << 3;
/// The radio is locked onto the resident.
const LOCKED: u8 = 1 << 4;
/// The locked reception is lost (noise, or interference won).
const CORRUPTED: u8 = 1 << 5;
/// The node transmits.
const TRANSMITTING: u8 = 1 << 6;

fn class_bits(class: SignalClass) -> u8 {
    let bit = |on: bool, bit: u8| if on { bit } else { 0 };
    bit(class.decodable, DECODABLE) | bit(class.senses, SENSES) | bit(class.interferes, INTERFERES)
}

/// One node's radio: its resident signal, the head of its spilled
/// signals and its flag bits.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The resident signal (meaningful while [`HELD`]).
    tx: TxId,
    /// The resident's relative received power.
    power: f64,
    /// Sense-only signals that ended while locked.
    undecoded: u64,
    /// The newest spilled signal: its overflow entry plus one, 0 for none.
    /// Non-zero only while the slot is [`HELD`].
    spill: u32,
    flags: u8,
}

const IDLE: Slot = Slot {
    tx: TxId(0),
    power: 0.0,
    undecoded: 0,
    spill: 0,
    flags: 0,
};

/// A signal on the air at a node beside its resident.
#[derive(Debug, Clone, Copy)]
struct Spilled {
    tx: TxId,
    power: f64,
    /// The node's next older spilled signal (entry plus one, 0 for none);
    /// on the free list, the next free entry.
    next: u32,
    class: u8,
}

/// The table's second and later signals per node: a slab of singly
/// linked lists, one per node, with a free list.
#[derive(Debug, Clone, Default)]
struct Overflow {
    entries: Vec<Spilled>,
    /// The first free entry plus one, 0 for none.
    free: u32,
    live: usize,
    peak: usize,
}

impl Overflow {
    /// Stores `entry` and returns its link (index plus one).
    fn push(&mut self, entry: Spilled) -> u32 {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        match self.free {
            0 => {
                self.entries.push(entry);
                u32::try_from(self.entries.len()).expect("fewer than 2^32 spilled signals")
            }
            link => {
                let at = link as usize - 1;
                self.free = self.entries[at].next;
                self.entries[at] = entry;
                link
            }
        }
    }

    /// The entry behind `link`.
    fn get(&self, link: u32) -> &Spilled {
        &self.entries[link as usize - 1]
    }

    /// Returns the entry behind `link` to the free list.
    fn release(&mut self, link: u32) -> Spilled {
        let at = link as usize - 1;
        let entry = self.entries[at];
        self.entries[at].next = self.free;
        self.free = link;
        self.live -= 1;
        entry
    }

    /// `true` if a signal of the list starting at `link` has a bit of
    /// `bits`.
    fn any(&self, mut link: u32, bits: u8) -> bool {
        while link != 0 {
            let e = self.get(link);
            if e.class & bits != 0 {
                return true;
            }
            link = e.next;
        }
        false
    }
}

/// What a node has once charged: its energy meter and the overlap
/// counts only a charged node can have.
#[derive(Debug, Clone, Default)]
struct Charged {
    energy: EnergyMeter,
    captures: u64,
    collisions: u64,
}

/// Every node's radio state by node id: a 32-byte slot each, one
/// overflow store for overlapping signals, one capture threshold, and an
/// energy meter with the capture and collision counts for each node
/// charged.
///
/// # Example
///
/// ```
/// use mwn_phy::{RadioEvent, RadioTable, RangeModel, TxId};
/// use mwn_pkt::NodeId;
///
/// let decodable = RangeModel::paper().classify(200.0).unwrap();
/// let mut radios = RadioTable::new(2, Some(10.0));
/// let mut ev = Vec::new();
/// radios.signal_start(NodeId(1), TxId(7), decodable, &mut ev);
/// assert_eq!(ev, vec![RadioEvent::CarrierBusy, RadioEvent::RxStart(TxId(7))]);
/// assert!(radios.receiving(NodeId(1)) && !radios.carrier_busy(NodeId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct RadioTable {
    slots: Vec<Slot>,
    overflow: Overflow,
    /// Physical-capture threshold (linear power ratio; ns-2 `CPThresh_`).
    /// A locked frame survives interference weaker than
    /// `locked_power / threshold`; infinite (no capture) means any overlap
    /// corrupts.
    capture_threshold: f64,
    /// Per node, its index in `charged` plus one; 0 while never charged.
    charged_slots: Vec<u32>,
    charged: Vec<Charged>,
}

impl RadioTable {
    /// The bytes one node's radio holds whatever it does: its slot and
    /// its charged-state slot.
    pub const BYTES_PER_NODE: usize = std::mem::size_of::<Slot>() + std::mem::size_of::<u32>();

    /// `n` idle radios sharing one capture threshold (`None` disables
    /// capture: any overlapping interference corrupts).
    pub fn new(n: usize, capture_threshold: Option<f64>) -> Self {
        RadioTable {
            slots: vec![IDLE; n],
            overflow: Overflow::default(),
            capture_threshold: capture_threshold.unwrap_or(f64::INFINITY),
            charged_slots: vec![0; n],
            charged: Vec::new(),
        }
    }

    /// Heap bytes beyond [`Self::BYTES_PER_NODE`] per node: the overflow
    /// store and the charged nodes' meters and counts, by capacity.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.overflow.entries.capacity() * size_of::<Spilled>()
            + self.charged.capacity() * size_of::<Charged>()
    }

    /// Signals in the overflow store now.
    pub fn overflow_len(&self) -> usize {
        self.overflow.live
    }

    /// The most signals the overflow store ever held at once.
    pub fn overflow_peak(&self) -> usize {
        self.overflow.peak
    }

    /// `node`'s capture, collision and EIFS counts.
    pub fn counters(&self, node: NodeId) -> PhyCounters {
        let undecoded = self.slots[node.index()].undecoded;
        match self.charged_slots[node.index()] {
            0 => PhyCounters {
                undecoded,
                ..PhyCounters::default()
            },
            s => {
                let c = &self.charged[s as usize - 1];
                PhyCounters {
                    captures: c.captures,
                    collisions: c.collisions,
                    undecoded,
                }
            }
        }
    }

    /// `node`'s energy meter (an empty one if it was never charged).
    pub fn energy(&self, node: NodeId) -> EnergyMeter {
        match self.charged_slots[node.index()] {
            0 => EnergyMeter::new(),
            s => self.charged[s as usize - 1].energy.clone(),
        }
    }

    /// `node`'s energy meter, mutably, added first if it was never
    /// charged.
    #[inline]
    pub fn energy_mut(&mut self, node: NodeId) -> &mut EnergyMeter {
        &mut self.charged_mut(node.index()).energy
    }

    #[inline]
    fn charged_mut(&mut self, i: usize) -> &mut Charged {
        let at = match self.charged_slots[i] {
            0 => self.charge(i),
            s => s as usize - 1,
        };
        &mut self.charged[at]
    }

    #[cold]
    #[inline(never)]
    fn charge(&mut self, i: usize) -> usize {
        self.charged.push(Charged::default());
        self.charged_slots[i] = u32::try_from(self.charged.len()).expect("fewer than 2^32 nodes");
        self.charged.len() - 1
    }

    /// `true` if interference at `interferer` corrupts a locked frame
    /// received at `locked`.
    #[inline]
    fn corrupts(&self, locked: f64, interferer: f64) -> bool {
        let thr = self.capture_threshold;
        thr == f64::INFINITY || locked < interferer * thr
    }

    /// Physical carrier sense at `node`: busy while it transmits or while
    /// any sensed signal is on the air there.
    #[inline]
    pub fn carrier_busy(&self, node: NodeId) -> bool {
        let s = &self.slots[node.index()];
        s.flags & (TRANSMITTING | SENSES) != 0 || self.overflow.any(s.spill, SENSES)
    }

    /// `true` while `node` is locked onto a decodable incoming frame (not
    /// mere noise).
    pub fn receiving(&self, node: NodeId) -> bool {
        self.slots[node.index()].flags & (LOCKED | DECODABLE) == LOCKED | DECODABLE
    }

    /// `true` while `node` transmits.
    pub fn transmitting(&self, node: NodeId) -> bool {
        self.slots[node.index()].flags & TRANSMITTING != 0
    }

    /// `true` if `tx` is on the air at `node`.
    fn holds(&self, node: NodeId, tx: TxId) -> bool {
        let s = &self.slots[node.index()];
        let mut link = s.spill;
        while link != 0 {
            let e = self.overflow.get(link);
            if e.tx == tx {
                return true;
            }
            link = e.next;
        }
        s.flags & HELD != 0 && s.tx == tx
    }

    /// A classified signal starts arriving at `node`; resulting events
    /// are appended to `out`.
    ///
    /// Callers must assign unique ids per node; a duplicate active `tx`
    /// panics in debug builds (skipped in release).
    pub fn signal_start(
        &mut self,
        node: NodeId,
        tx: TxId,
        class: SignalClass,
        out: &mut Vec<RadioEvent>,
    ) {
        let i = node.index();
        let was_busy = self.carrier_busy(node);
        debug_assert!(!self.holds(node, tx), "duplicate signal id {tx:?}");
        if !was_busy && class.senses {
            out.push(RadioEvent::CarrierBusy);
        }
        let bits = class_bits(class);
        let s = self.slots[i];
        if s.flags & (LOCKED | TRANSMITTING) == 0 {
            // The radio locks onto the FIRST signal it hears, even
            // undecodable noise — as in ns-2, where a later (even much
            // stronger) frame is then discarded. This is the dominant
            // hidden-terminal loss mechanism: the interferer fires first,
            // occupies the receiver, and the real frame is lost.
            let (mut contested, mut interfered) = (false, false);
            let mut spill = s.spill;
            if s.flags & HELD != 0 {
                if s.flags & INTERFERES != 0 {
                    contested = true;
                    interfered = self.corrupts(class.power, s.power);
                }
                let mut link = s.spill;
                while link != 0 && !interfered {
                    let e = *self.overflow.get(link);
                    if e.class & INTERFERES != 0 {
                        contested = true;
                        interfered = self.corrupts(class.power, e.power);
                    }
                    link = e.next;
                }
                // The locked signal takes the slot; the resident spills.
                spill = self.overflow.push(Spilled {
                    tx: s.tx,
                    power: s.power,
                    next: s.spill,
                    class: s.flags & CLASS,
                });
            }
            if class.decodable && contested {
                let c = self.charged_mut(i);
                if interfered {
                    c.collisions += 1;
                } else {
                    c.captures += 1;
                }
            }
            let corrupted = if !class.decodable || interfered {
                CORRUPTED
            } else {
                0
            };
            self.slots[i] = Slot {
                tx,
                power: class.power,
                spill,
                flags: HELD | LOCKED | corrupted | bits,
                ..s
            };
            if class.decodable {
                out.push(RadioEvent::RxStart(tx));
            }
            return;
        }
        if s.flags & HELD == 0 {
            // Transmitting with nothing on the air: no lock, no overlap.
            let slot = &mut self.slots[i];
            slot.tx = tx;
            slot.power = class.power;
            slot.flags |= HELD | bits;
            return;
        }
        self.slots[i].spill = self.overflow.push(Spilled {
            tx,
            power: class.power,
            next: s.spill,
            class: bits,
        });
        if class.interferes && s.flags & LOCKED != 0 {
            // Interference corrupts the reception in progress, unless the
            // locked frame is strong enough to be captured over it.
            let intact = s.flags & (DECODABLE | CORRUPTED) == DECODABLE;
            if self.corrupts(s.power, class.power) {
                self.slots[i].flags |= CORRUPTED;
                if intact {
                    self.charged_mut(i).collisions += 1;
                }
            } else if intact {
                self.charged_mut(i).captures += 1;
            }
        }
    }

    /// A previously started signal ends at `node`; resulting events are
    /// appended to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `tx` was never started there.
    pub fn signal_end(&mut self, node: NodeId, tx: TxId, out: &mut Vec<RadioEvent>) {
        let i = node.index();
        let was_busy = self.carrier_busy(node);
        let s = self.slots[i];
        if s.flags & HELD != 0 && s.tx == tx {
            if s.flags & LOCKED != 0 {
                if s.flags & DECODABLE != 0 {
                    out.push(RadioEvent::RxEnd {
                        tx,
                        ok: s.flags & CORRUPTED == 0,
                    });
                } else {
                    // Locked noise ended: PHY-RXEND with error → EIFS.
                    self.slots[i].undecoded += 1;
                    out.push(RadioEvent::UndecodedEnd);
                }
            }
            // Signals that never locked the radio were discarded at
            // arrival (ns-2 frees them silently): no event at their end.
            // The newest spilled signal, never locked, takes the slot.
            let slot = &mut self.slots[i];
            slot.flags &= TRANSMITTING;
            if s.spill != 0 {
                let e = self.overflow.release(s.spill);
                slot.tx = e.tx;
                slot.power = e.power;
                slot.spill = e.next;
                slot.flags |= HELD | e.class;
            }
        } else {
            self.unspill(i, tx);
        }
        if was_busy && !self.carrier_busy(node) {
            out.push(RadioEvent::CarrierIdle);
        }
    }

    /// Removes `tx` from node `i`'s spilled signals.
    fn unspill(&mut self, i: usize, tx: TxId) {
        let (mut prev, mut link) = (0, self.slots[i].spill);
        while link != 0 && self.overflow.get(link).tx != tx {
            prev = link;
            link = self.overflow.get(link).next;
        }
        assert!(link != 0, "signal_end without start");
        let next = self.overflow.release(link).next;
        match prev {
            0 => self.slots[i].spill = next,
            p => self.overflow.entries[p as usize - 1].next = next,
        }
    }

    /// `node` starts transmitting. Any reception in progress is abandoned
    /// (no `RxEnd` will be reported for it). Resulting events are appended
    /// to `out`.
    pub fn tx_start(&mut self, node: NodeId, out: &mut Vec<RadioEvent>) {
        let was_busy = self.carrier_busy(node);
        let slot = &mut self.slots[node.index()];
        slot.flags = (slot.flags | TRANSMITTING) & !(LOCKED | CORRUPTED);
        if !was_busy {
            out.push(RadioEvent::CarrierBusy);
        }
    }

    /// `node`'s transmission ends; resulting events are appended to
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if the node was not transmitting.
    pub fn tx_end(&mut self, node: NodeId, out: &mut Vec<RadioEvent>) {
        let slot = &mut self.slots[node.index()];
        assert!(slot.flags & TRANSMITTING != 0, "tx_end without tx_start");
        slot.flags &= !TRANSMITTING;
        if !self.carrier_busy(node) {
            out.push(RadioEvent::CarrierIdle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::RangeModel;

    #[test]
    fn a_slot_is_32_bytes() {
        const {
            assert!(std::mem::size_of::<Slot>() <= 32);
            assert!(std::mem::size_of::<Spilled>() <= 24);
            assert!(RadioTable::BYTES_PER_NODE <= 36);
        }
    }

    /// A lock taken while another signal is on the air moves that signal
    /// to the store; the store's entries are reused once they end.
    #[test]
    fn spilled_signals_leave_the_store_when_they_end() {
        let noise = RangeModel::paper().classify(400.0).unwrap();
        let frame = RangeModel::paper().classify(200.0).unwrap();
        let mut r = RadioTable::new(3, Some(10.0));
        let mut ev = Vec::new();
        let (a, b) = (NodeId(0), NodeId(2));
        r.tx_start(a, &mut ev);
        r.signal_start(a, TxId(1), noise, &mut ev);
        r.tx_end(a, &mut ev);
        // Unlocked resident; the frame locks and the noise spills.
        r.signal_start(a, TxId(2), frame, &mut ev);
        assert!(r.receiving(a));
        r.signal_start(b, TxId(2), noise, &mut ev);
        r.signal_start(b, TxId(3), noise, &mut ev);
        assert_eq!((r.overflow_len(), r.overflow_peak()), (2, 2));
        ev.clear();
        r.signal_end(a, TxId(1), &mut ev);
        r.signal_end(b, TxId(2), &mut ev);
        assert_eq!(ev, vec![RadioEvent::UndecodedEnd]);
        assert_eq!(r.overflow_len(), 0);
        // B's spilled signal took the slot, unlocked: it ends silently.
        ev.clear();
        r.signal_end(b, TxId(3), &mut ev);
        assert_eq!(ev, vec![RadioEvent::CarrierIdle]);
        r.signal_start(b, TxId(4), noise, &mut ev);
        r.signal_start(b, TxId(5), noise, &mut ev);
        assert_eq!(r.overflow.entries.len(), 2, "freed entries are reused");
        assert_eq!(r.counters(a).captures, 1);
        assert_eq!(r.counters(b).undecoded, 1);
    }
}
