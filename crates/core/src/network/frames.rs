//! Frame slab: `Send`-able storage for transmissions on the air.
//!
//! One slot per transmission holds the two things every receiver shares:
//! the frame payload, and the transmission's *wave* — a copy of the
//! transmitter's effect list, which the medium hands over in arrival
//! order (by propagation delay, ties by node id) and the network loop
//! walks in place once for the signal's leading edge and once for its
//! trailing edge (see [`super::cascade`]). The [`TxId`] carried by the
//! wave event packs the slot index with a reuse generation. Receivers
//! borrow the frame by id; the generation check makes a stale id (a
//! straggler naming a slot that was freed and recycled) a *detected* miss
//! instead of silently decoding the slot's next tenant — the failure mode
//! the fault-injection tests in this module pin down.
//!
//! The wave is a copy, not a borrow of the medium's list: a mobility tick
//! between a frame's two walks may rebuild that list, and the trailing
//! edge must visit exactly the receivers the leading edge visited. The
//! buffer stays with the slot and is reused by its next tenant.
//!
//! Numbering edges by arrival position orders them exactly as the old
//! node-ordered numbering did: edges of one wave that share a time share
//! a delay, so both put them in node-id order, and the reserved block sits
//! where it always did (CHANGES.md, the "Edge cost" history).
//!
//! Slots are freed when the last receiver's trailing edge releases them,
//! so allocation order (and therefore every `TxId` value) is a
//! deterministic function of the event sequence.

use mwn_phy::{Effect, TxId};
use mwn_pkt::MacFrame;
use mwn_sim::{SimDuration, SimTime};

/// Bits of a [`TxId`] holding the slot index; the high bits hold the
/// slot's reuse generation. 2^32 concurrent transmissions is unreachable
/// (the air holds a handful), so the split never constrains capacity.
const SLOT_BITS: u32 = 32;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// A transmission's receivers in arrival order, plus what turns a
/// position in that order into the `(time, seq)` key the receiver's
/// signal edge holds in the global event order.
#[derive(Debug, Default)]
pub(super) struct Wave {
    rx: Vec<Effect>,
    /// Next receiver to visit. One cursor serves both walks: airtime
    /// (≥ the 192 µs preamble) exceeds the propagation skew across the
    /// interference range (< 2 µs), so the leading edge has reached the
    /// last receiver before the trailing edge reaches the first.
    pub cursor: usize,
    /// When the transmission began.
    start: SimTime,
    airtime: SimDuration,
    /// First of the `2 · len` sequence numbers reserved for this wave:
    /// receiver `i` owns `seq_base + 2i` for its leading edge and
    /// `seq_base + 2i + 1` for its trailing edge.
    seq_base: u64,
}

impl Wave {
    pub(super) fn receivers(&self) -> &[Effect] {
        &self.rx
    }

    /// When receiver `i`'s leading (`end = false`) or trailing edge
    /// arrives.
    pub(super) fn time(&self, i: usize, end: bool) -> SimTime {
        let edge = self.start + self.rx[i].delay;
        if end {
            edge + self.airtime
        } else {
            edge
        }
    }

    /// The `(time, seq)` key of receiver `i`'s edge.
    pub(super) fn key(&self, i: usize, end: bool) -> (SimTime, u64) {
        let seq = self.seq_base + 2 * i as u64 + u64::from(end);
        (self.time(i, end), seq)
    }
}

/// One in-flight transmission: the shared payload, its wave, and the
/// number of receivers whose trailing edge has not yet arrived.
#[derive(Debug, Default)]
struct Slot {
    generation: u32,
    remaining: usize,
    frame: Option<MacFrame>,
    wave: Wave,
}

/// Generation-checked slab of in-flight frames (see module docs).
#[derive(Debug, Default)]
pub(super) struct FrameSlab {
    slots: Vec<Slot>,
    /// Freed slot indices, reused LIFO so the working set stays compact.
    free: Vec<u32>,
    /// Releases that named a dead or recycled id — each one is a dropped
    /// straggler, never a replay into the slot's next tenant.
    stale_releases: u64,
}

impl FrameSlab {
    pub(super) fn new() -> Self {
        FrameSlab::default()
    }

    fn pack(slot: u32, generation: u32) -> TxId {
        TxId((u64::from(generation) << SLOT_BITS) | u64::from(slot))
    }

    fn unpack(tx: TxId) -> (u32, u32) {
        ((tx.0 & SLOT_MASK) as u32, (tx.0 >> SLOT_BITS) as u32)
    }

    /// Puts a transmission that began at `start` and lasts `airtime` on
    /// the air: stores `frame`, copies `effects` — already in arrival
    /// order, `(delay, node id)` — into the slot's wave, whose keys are
    /// numbered from `seq_base`, and returns the generation-tagged id.
    ///
    /// # Panics
    ///
    /// Panics if `effects` is empty: a transmission nobody receives is
    /// never inserted (the caller skips the slab entirely).
    pub(super) fn insert(
        &mut self,
        frame: MacFrame,
        start: SimTime,
        airtime: SimDuration,
        seq_base: u64,
        effects: &[Effect],
    ) -> TxId {
        assert!(
            !effects.is_empty(),
            "in-flight frame needs at least one receiver"
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            self.slots.len() as u32 - 1
        });
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.frame.is_none(), "free list pointed at a live slot");
        s.remaining = effects.len();
        s.frame = Some(frame);
        let arrival = |w: &[Effect]| (w[0].delay, w[0].node) < (w[1].delay, w[1].node);
        debug_assert!(effects.windows(2).all(arrival), "list not in arrival order");
        let wave = &mut s.wave;
        wave.rx.clear();
        wave.rx.extend_from_slice(effects);
        wave.cursor = 0;
        wave.start = start;
        wave.airtime = airtime;
        wave.seq_base = seq_base;
        debug_assert!(
            wave.time(effects.len() - 1, false) < wave.time(0, true),
            "propagation skew exceeds airtime: one cursor cannot serve both walks"
        );
        Self::pack(slot, s.generation)
    }

    /// The slot of live transmission `tx`, which stays its slot until its
    /// last receiver is released.
    ///
    /// # Panics
    ///
    /// Panics on a dead or recycled id: a wave event only exists while
    /// its transmission has receivers left to visit.
    pub(super) fn live_slot(&self, tx: TxId) -> usize {
        let (slot, generation) = Self::unpack(tx);
        let s = &self.slots[slot as usize];
        assert!(
            s.generation == generation && s.frame.is_some(),
            "wave event for a transmission no longer on the air"
        );
        slot as usize
    }

    /// The wave of live transmission `tx` (panics on a stale id).
    pub(super) fn wave(&self, tx: TxId) -> &Wave {
        self.wave_in(self.live_slot(tx))
    }

    /// The wave in `slot`, a [live slot](Self::live_slot).
    pub(super) fn wave_in(&self, slot: usize) -> &Wave {
        &self.slots[slot].wave
    }

    /// Moves the wave cursor (see [`Wave::cursor`]) of the transmission in
    /// `slot`, a [live slot](Self::live_slot).
    pub(super) fn set_cursor(&mut self, slot: usize, cursor: usize) {
        self.slots[slot].wave.cursor = cursor;
    }

    /// The payload of transmission `tx`, if its slot is live and the
    /// generation matches (stale ids miss, they never alias).
    pub(super) fn get(&self, tx: TxId) -> Option<&MacFrame> {
        let (slot, generation) = Self::unpack(tx);
        let s = self.slots.get(slot as usize)?;
        if s.generation != generation {
            return None;
        }
        s.frame.as_ref()
    }

    /// Drops the claims of `receivers` receivers on `tx`; the last
    /// release vacates the slot and bumps its generation. A stale id
    /// (already fully released, or from a recycled slot) is rejected and
    /// counted once, never applied to the slot's next tenant.
    ///
    /// # Panics
    ///
    /// Panics if `tx` has fewer claims left than `receivers`.
    pub(super) fn release(&mut self, tx: TxId, receivers: usize) {
        let (slot, generation) = Self::unpack(tx);
        let Some(s) = self.slots.get_mut(slot as usize) else {
            self.stale_releases += 1;
            return;
        };
        if s.generation != generation || s.frame.is_none() {
            self.stale_releases += 1;
            return;
        }
        s.remaining = s
            .remaining
            .checked_sub(receivers)
            .expect("more releases than receivers");
        if s.remaining == 0 {
            s.frame = None;
            s.generation = s.generation.wrapping_add(1);
            self.free.push(slot);
        }
    }

    /// Transmissions still on the air.
    pub(super) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Releases that named a dead or recycled id (see [`release`](Self::release)).
    pub(super) fn stale_releases(&self) -> u64 {
        self.stale_releases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_phy::{Medium, Position, RangeModel, SignalClass};
    use mwn_pkt::NodeId;

    /// `n` co-located decodable receivers: enough to drive the refcount.
    fn effects(n: usize) -> Vec<Effect> {
        (0..n)
            .map(|i| Effect {
                node: NodeId(i as u32 + 1),
                class: SignalClass {
                    decodable: true,
                    senses: true,
                    interferes: true,
                    power: 1.0,
                },
                delay: SimDuration::from_nanos(700),
            })
            .collect()
    }

    impl FrameSlab {
        /// Test shorthand: a transmission with `receivers` receivers.
        fn insert_n(&mut self, frame: MacFrame, receivers: usize) -> TxId {
            self.insert(
                frame,
                SimTime::ZERO,
                SimDuration::from_micros(300),
                0,
                &effects(receivers),
            )
        }
    }

    fn frame(seq: u16) -> MacFrame {
        MacFrame::Rts {
            src: NodeId(0),
            dst: NodeId(seq as u32 + 1),
            nav: mwn_sim::SimDuration::from_micros(100),
        }
    }

    #[test]
    fn insert_get_release_roundtrip() {
        let mut slab = FrameSlab::new();
        let tx = slab.insert_n(frame(1), 2);
        assert!(slab.get(tx).is_some());
        assert_eq!(slab.live(), 1);
        slab.release(tx, 1);
        assert!(slab.get(tx).is_some(), "one receiver still outstanding");
        slab.release(tx, 1);
        assert!(slab.get(tx).is_none(), "fully released");
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.stale_releases(), 0);
    }

    /// A walked segment releases its receivers' claims in one call: the
    /// frame stays readable until the last claim goes, and a stale id is
    /// counted once, whatever the count it names.
    #[test]
    fn a_segment_releases_its_receivers_at_once() {
        let mut slab = FrameSlab::new();
        let tx = slab.insert_n(frame(1), 5);
        slab.release(tx, 3);
        assert!(slab.get(tx).is_some(), "two receivers still outstanding");
        slab.release(tx, 2);
        assert!(slab.get(tx).is_none());
        assert_eq!(slab.live(), 0);
        slab.release(tx, 4);
        assert_eq!(slab.stale_releases(), 1);
    }

    #[test]
    fn slot_reuse_bumps_generation_so_ids_never_alias() {
        let mut slab = FrameSlab::new();
        let old = slab.insert_n(frame(1), 1);
        slab.release(old, 1);
        let new = slab.insert_n(frame(2), 1);
        assert_ne!(old, new, "recycled slot must mint a fresh id");
        assert!(slab.get(old).is_none(), "stale id must not see new tenant");
        assert!(slab.get(new).is_some());
    }

    /// Fault injection: a stale frame id arriving after its slot was
    /// recycled must be rejected and counted — releasing it must not
    /// touch (let alone free) the slot's next tenant.
    #[test]
    fn stale_release_is_rejected_not_replayed() {
        let mut slab = FrameSlab::new();
        let old = slab.insert_n(frame(1), 1);
        slab.release(old, 1);
        let new = slab.insert_n(frame(2), 3);
        // Straggler releases of the dead id: all rejected.
        slab.release(old, 1);
        slab.release(old, 1);
        assert_eq!(slab.stale_releases(), 2);
        assert!(slab.get(new).is_some(), "tenant survived stale releases");
        slab.release(new, 1);
        slab.release(new, 1);
        assert!(slab.get(new).is_some(), "refcount untouched by stale ids");
        slab.release(new, 1);
        assert!(slab.get(new).is_none());
        // An id for a slot that never existed is also just counted.
        slab.release(TxId(u64::from(u32::MAX)), 1);
        assert_eq!(slab.stale_releases(), 3);
    }

    /// Node 0's effect list as the medium hands it over: `near` 60 m away,
    /// both `tied` nodes exactly 270 m away (one on each axis), every other
    /// id parked far out of range.
    fn arrival_list(near: u32, tied: [u32; 2]) -> Vec<Effect> {
        let n = near.max(tied[0]).max(tied[1]) as usize + 1;
        let mut at: Vec<Position> = (0..n)
            .map(|i| Position::new(10_000.0 + 600.0 * i as f64, 10_000.0))
            .collect();
        at[0] = Position::new(0.0, 0.0);
        at[near as usize] = Position::new(60.0, 0.0);
        at[tied[0] as usize] = Position::new(270.0, 0.0);
        at[tied[1] as usize] = Position::new(0.0, 270.0);
        Medium::new(at, RangeModel::paper())
            .refresh(NodeId(0))
            .to_vec()
    }

    #[test]
    fn wave_is_in_arrival_order_with_the_per_receiver_keys() {
        let mut slab = FrameSlab::new();
        // Node 3 is nearest, 9 and 7 tie on delay.
        let list = arrival_list(3, [9, 7]);
        let start = SimTime::from_nanos(1_000);
        let airtime = SimDuration::from_micros(250);
        let tx = slab.insert(frame(1), start, airtime, 40, &list);
        let wave = slab.wave(tx);
        let nodes: Vec<u32> = wave.receivers().iter().map(|r| r.node.raw()).collect();
        assert_eq!(nodes, vec![3, 7, 9], "delay first, node id on ties");
        let (near, far) = (list[0].delay, list[1].delay);
        assert!(near < far && list[2].delay == far);
        // Receiver i owns seq 40 + 2i (start) and 40 + 2i + 1 (end).
        assert_eq!(wave.key(0, false), (start + near, 40));
        assert_eq!(wave.key(1, false), (start + far, 42));
        assert_eq!(wave.key(2, false), (start + far, 44));
        assert_eq!(wave.key(0, true), (start + near + airtime, 41));
        assert_eq!(wave.key(2, true), (start + far + airtime, 45));
        assert_eq!(wave.cursor, 0);
        slab.set_cursor(slab.live_slot(tx), 2);
        assert_eq!(slab.wave(tx).cursor, 2);
    }

    /// Why numbering edges by arrival position keeps the event order: the
    /// per-receiver events a wave replaced were numbered by position in a
    /// node-ordered list. With the nearest receiver holding the highest id
    /// and two receivers at the same distance, both numberings sort the
    /// wave's edges into the order the walk visits them, and the tied pair
    /// goes in node-id order under either.
    #[test]
    fn tied_receivers_are_visited_in_node_order_under_the_node_ordered_keys() {
        let mut slab = FrameSlab::new();
        let list = arrival_list(9, [5, 2]);
        let start = SimTime::from_nanos(1_000);
        let tx = slab.insert(frame(1), start, SimDuration::from_micros(250), 40, &list);
        let wave = slab.wave(tx);
        let nodes: Vec<NodeId> = wave.receivers().iter().map(|r| r.node).collect();
        assert_eq!(nodes, [NodeId(9), NodeId(2), NodeId(5)]);
        let mut by_id = nodes.clone();
        by_id.sort_unstable();
        let node_ordered_key = |i: usize, end: bool| {
            let j = by_id.iter().position(|&n| n == nodes[i]).unwrap() as u64;
            (wave.time(i, end), 40 + 2 * j + u64::from(end))
        };
        let walked: Vec<(usize, bool)> = [false, true]
            .into_iter()
            .flat_map(|end| (0..nodes.len()).map(move |i| (i, end)))
            .collect();
        let mut old = walked.clone();
        old.sort_by_key(|&(i, end)| node_ordered_key(i, end));
        let mut new = walked.clone();
        new.sort_by_key(|&(i, end)| wave.key(i, end));
        assert_eq!(old, walked);
        assert_eq!(new, walked);
        // Nodes 2 and 5 arrive together: 2 first, under either key.
        assert_eq!(wave.time(1, false), wave.time(2, false));
        assert!(node_ordered_key(1, false) < node_ordered_key(2, false));
    }

    #[test]
    fn allocation_order_is_deterministic_lifo() {
        let mut slab = FrameSlab::new();
        let a = slab.insert_n(frame(1), 1);
        let b = slab.insert_n(frame(2), 1);
        slab.release(a, 1);
        slab.release(b, 1);
        // LIFO: b's slot comes back first.
        let c = slab.insert_n(frame(3), 1);
        assert_eq!(c.0 & SLOT_MASK, b.0 & SLOT_MASK);
        assert_eq!(c.0 >> SLOT_BITS, (b.0 >> SLOT_BITS) + 1);
    }
}
