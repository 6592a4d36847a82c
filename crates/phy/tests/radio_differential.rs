//! Differential test: the slot table against the list-based oracle.
//!
//! [`RadioTable`] keeps one signal per node inline and every overlapping
//! one in an overflow store shared by all its nodes;
//! [`ReferenceTransceiver`] is the one-list-per-node model it replaced.
//! For ANY sequence of signal starts and ends (one transmission's id on
//! the air at several nodes at once, decodable/sensed/interfering bits in
//! any combination, powers that tie or sit exactly a capture threshold
//! apart) and transmissions, at any capture threshold or none, both must
//! report the same events, carrier state and counters after every call.

use mwn_phy::{RadioTable, ReferenceTransceiver, SignalClass, TxId};
use mwn_pkt::NodeId;
use proptest::prelude::*;

/// Nodes sharing one table, so their spilled signals interleave in the
/// store.
const NODES: usize = 3;

/// A raw call: node, kind, a pick among candidates, and a class (its
/// three bits, then an index into [`power`]).
type Op = (usize, u32, u32, u32);

fn arb_op() -> impl Strategy<Value = Op> {
    (0..NODES, 0u32..6, any::<u32>(), 0u32..56)
}

/// Powers with ties and exact ratios of 10 (ns-2's `CPThresh`) and 2.5
/// among them.
fn power(i: u32) -> f64 {
    [1.0, 10.0, 0.1, 2.5, 0.25, 12.5, 1.0e-3][i as usize]
}

fn class(c: u32) -> SignalClass {
    SignalClass {
        decodable: c & 1 != 0,
        senses: c & 2 != 0,
        interferes: c & 4 != 0,
        power: power(c / 8),
    }
}

/// Runs `ops` against both models, comparing after every call.
fn run(capture: Option<f64>, ops: &[Op]) {
    let mut table = RadioTable::new(NODES, capture);
    let mut oracle = vec![ReferenceTransceiver::with_capture(capture); NODES];
    let mut active: Vec<Vec<u64>> = vec![Vec::new(); NODES];
    let mut fresh = 0u64;
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for &(n, kind, pick, c) in ops {
        let node = NodeId(n as u32);
        got.clear();
        want.clear();
        match kind {
            0..=2 => {
                // Half the starts reuse a transmission on the air
                // elsewhere: one frame reaches several nodes.
                let elsewhere: Vec<u64> = active
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|id| !active[n].contains(id))
                    .collect();
                let id = if pick % 2 == 0 && !elsewhere.is_empty() {
                    elsewhere[(pick / 2) as usize % elsewhere.len()]
                } else {
                    fresh += 1;
                    fresh
                };
                active[n].push(id);
                let c = class(c);
                table.signal_start(node, TxId(id), c, &mut got);
                oracle[n].signal_start(TxId(id), c, &mut want);
            }
            3 | 4 if !active[n].is_empty() => {
                let at = pick as usize % active[n].len();
                let id = active[n].remove(at);
                table.signal_end(node, TxId(id), &mut got);
                oracle[n].signal_end(TxId(id), &mut want);
            }
            _ if oracle[n].transmitting() => {
                table.tx_end(node, &mut got);
                oracle[n].tx_end(&mut want);
            }
            _ => {
                table.tx_start(node, &mut got);
                oracle[n].tx_start(&mut want);
            }
        }
        prop_assert_eq!(&got, &want);
        for (i, o) in oracle.iter().enumerate() {
            let node = NodeId(i as u32);
            prop_assert_eq!(table.counters(node), *o.counters());
            prop_assert_eq!(table.carrier_busy(node), o.carrier_busy());
            prop_assert_eq!(table.receiving(node), o.receiving());
            prop_assert_eq!(table.transmitting(node), o.transmitting());
        }
    }
    // Once the air drains, the store holds nothing.
    for (n, ids) in active.iter().enumerate() {
        for &id in ids {
            table.signal_end(NodeId(n as u32), TxId(id), &mut got);
        }
    }
    prop_assert_eq!(table.overflow_len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ns-2's 10× capture threshold.
    #[test]
    fn slot_table_matches_the_list_model_at_cpthresh(
        ops in proptest::collection::vec(arb_op(), 0..200)
    ) {
        run(Some(10.0), &ops);
    }

    /// Another finite threshold, hit exactly by some power ratios.
    #[test]
    fn slot_table_matches_the_list_model_at_another_threshold(
        ops in proptest::collection::vec(arb_op(), 0..200)
    ) {
        run(Some(2.5), &ops);
    }

    /// No capture: any overlapping interference corrupts.
    #[test]
    fn slot_table_matches_the_list_model_without_capture(
        ops in proptest::collection::vec(arb_op(), 0..200)
    ) {
        run(None, &ops);
    }
}

/// Counters stay exact totals: past 2^16 undecoded ends, the table still
/// reports what the oracle counts.
#[test]
fn counters_are_exact_past_16_bits() {
    let mut table = RadioTable::new(1, Some(10.0));
    let mut oracle = ReferenceTransceiver::with_capture(Some(10.0));
    let noise = class(6);
    let mut out = Vec::new();
    for i in 0..70_000u64 {
        table.signal_start(NodeId(0), TxId(i), noise, &mut out);
        table.signal_end(NodeId(0), TxId(i), &mut out);
        oracle.signal_start(TxId(i), noise, &mut out);
        oracle.signal_end(TxId(i), &mut out);
        out.clear();
    }
    assert_eq!(table.counters(NodeId(0)), *oracle.counters());
    assert_eq!(table.counters(NodeId(0)).undecoded, 70_000);
}
