//! The cross-layer invariant checker.
//!
//! [`check`] scans a trace once per rule family and reports every
//! violation with a window of surrounding records. The rules are chosen
//! to be *sound* against the simulator's actual semantics — each one is
//! an invariant of correct behavior, not a heuristic — so a non-empty
//! result always means a bug (in the stack, or in a deliberately injected
//! fault hook such as `MacParams::fault_skip_eifs`).
//!
//! Geometry-dependent rules (carrier sense, NAV) rebuild the same
//! [`Medium`] the simulation used, so arrival times match the traced
//! event times bit for bit; they are skipped under mobility, where the
//! static geometry assumption does not hold.

use std::collections::{HashMap, HashSet};
use std::fmt;

use mwn::trace::{TraceEvent, TraceRecord};
use mwn::{Scenario, SimTime, Transport};
use mwn_phy::Medium;
use mwn_pkt::{MacFrameKind, NodeId};

/// How many records to show on each side of an offending record.
const WINDOW: usize = 3;

/// One invariant violation, with the trace context around it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable rule slug (`"time-monotone"`, `"eifs"`, `"cwnd-bound"`, …).
    pub rule: &'static str,
    /// Index of the offending record in the checked slice.
    pub index: usize,
    /// Simulated time of the offending record.
    pub time: SimTime,
    /// Node the offending record belongs to.
    pub node: NodeId,
    /// What went wrong.
    pub message: String,
    /// Rendered records around the offence; the offender is marked `>`.
    pub window: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] at {:.6}s {}: {}",
            self.rule,
            self.time.as_secs_f64(),
            self.node,
            self.message
        )?;
        for line in &self.window {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

fn violation(
    records: &[TraceRecord],
    index: usize,
    rule: &'static str,
    message: String,
) -> Violation {
    let lo = index.saturating_sub(WINDOW);
    let hi = (index + WINDOW + 1).min(records.len());
    let window = (lo..hi)
        .map(|j| {
            let marker = if j == index { '>' } else { ' ' };
            format!("{marker} {}", records[j])
        })
        .collect();
    Violation {
        rule,
        index,
        time: records[index].time,
        node: records[index].node,
        message,
        window,
    }
}

/// Everything the checker needs to know about the scenario a trace came
/// from. Built with [`CheckContext::for_scenario`]; the fields are public
/// so tests can construct synthetic contexts directly.
#[derive(Debug)]
pub struct CheckContext {
    /// One MAC slot in nanoseconds — the timing epsilon for the geometry
    /// rules (same-instant event ordering is scheduler-dependent).
    pub slot_ns: u64,
    /// EIFS duration in nanoseconds.
    pub eifs_ns: u64,
    /// AODV active-route lifetime in nanoseconds (untraced refresh paths
    /// can only *extend* a route's life, so a sequence-number decrease is
    /// only provably wrong while the previous entry cannot have expired).
    pub route_lifetime_ns: u64,
    /// Per-flow TCP receiver window `wmax`, keyed by `FlowId::raw`.
    /// Flows absent here (UDP) skip the transport rules.
    pub flow_wmax: HashMap<u32, u64>,
    /// Receiver window of open-loop traffic flows, whose generation-
    /// packed ids cannot be enumerated up front: any flow missing from
    /// [`flow_wmax`](Self::flow_wmax) falls back to this (`None` when
    /// the scenario carries no traffic, skipping the rules as before).
    pub traffic_wmax: Option<u64>,
    /// Static geometry for the carrier-sense and NAV rules; `None` under
    /// mobility, which disables both.
    pub medium: Option<Medium>,
    /// The EIFS rule is sound only when every interfering signal is also
    /// sensed (true for the paper's 550 m / 550 m model): an unsensed
    /// interferer would corrupt without suspending an armed deference.
    pub eifs_rule: bool,
}

impl CheckContext {
    /// Derives the checker configuration from a scenario.
    pub fn for_scenario(s: &Scenario) -> Self {
        let params = s.mac_params();
        let mut flow_wmax = HashMap::new();
        for (i, f) in s.flows.iter().enumerate() {
            if let Transport::Tcp { config, .. } = f.transport {
                flow_wmax.insert(i as u32, u64::from(config.wmax));
            }
        }
        let traffic_wmax = s.traffic.as_ref().and_then(|t| match t.transport {
            Transport::Tcp { config, .. } => Some(u64::from(config.wmax)),
            Transport::PacedUdp { .. } => None,
        });
        let medium = if s.mobility.is_none() {
            Some(Medium::new(s.topology.positions().to_vec(), s.ranges))
        } else {
            None
        };
        CheckContext {
            slot_ns: params.slot.as_nanos(),
            eifs_ns: params.eifs().as_nanos(),
            route_lifetime_ns: s.aodv.active_route_lifetime.as_nanos(),
            flow_wmax,
            traffic_wmax,
            medium,
            eifs_rule: s.ranges.cs_range >= s.ranges.interference_range,
        }
    }
}

/// Checks every invariant against `records` and returns all violations,
/// ordered by trace position. An empty result means the trace conforms.
pub fn check(records: &[TraceRecord], ctx: &CheckContext) -> Vec<Violation> {
    let mut out = Vec::new();
    check_time_monotone(records, &mut out);
    check_half_duplex(records, &mut out);
    if ctx.eifs_rule {
        check_eifs(records, ctx, &mut out);
    }
    check_transport(records, ctx, &mut out);
    check_routes(records, ctx, &mut out);
    if let Some(medium) = &ctx.medium {
        check_geometry(records, ctx, medium, &mut out);
    }
    out.sort_by_key(|v| v.index);
    out
}

/// Record times never decrease: the event loop processes its queue in
/// time order and traces synchronously.
fn check_time_monotone(records: &[TraceRecord], out: &mut Vec<Violation>) {
    for i in 1..records.len() {
        if records[i].time < records[i - 1].time {
            out.push(violation(
                records,
                i,
                "time-monotone",
                format!(
                    "record time {:.9}s precedes previous record at {:.9}s",
                    records[i].time.as_secs_f64(),
                    records[i - 1].time.as_secs_f64()
                ),
            ));
        }
    }
}

/// Half-duplex radios: a node never starts a transmission while its own
/// previous transmission is still on the air.
fn check_half_duplex(records: &[TraceRecord], out: &mut Vec<Violation>) {
    let mut tx_end: HashMap<u32, u64> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        if let TraceEvent::MacTx { airtime, .. } = r.event {
            let t = r.time.as_nanos();
            if let Some(&end) = tx_end.get(&r.node.raw()) {
                if t < end {
                    out.push(violation(
                        records,
                        i,
                        "half-duplex",
                        format!(
                            "transmission starts {} ns before the node's previous \
                             frame leaves the air",
                            end - t
                        ),
                    ));
                }
            }
            tx_end.insert(r.node.raw(), t + airtime.as_nanos());
        }
    }
}

/// 802.11 EIFS: the first deference a node arms after a corrupted
/// reception (with no intact reception in between) must use EIFS, not
/// DIFS. Only the first deference is constrained — a fired deference
/// legally clears the EIFS condition.
fn check_eifs(records: &[TraceRecord], ctx: &CheckContext, out: &mut Vec<Violation>) {
    let mut pending: HashSet<u32> = HashSet::new();
    for (i, r) in records.iter().enumerate() {
        match r.event {
            TraceEvent::PhyCorrupt => {
                pending.insert(r.node.raw());
            }
            TraceEvent::PhyRxOk => {
                pending.remove(&r.node.raw());
            }
            TraceEvent::MacDefer { nanos } => {
                let after_corruption = pending.remove(&r.node.raw());
                if after_corruption && nanos < ctx.eifs_ns {
                    out.push(violation(
                        records,
                        i,
                        "eifs",
                        format!(
                            "deference of {nanos} ns after a corrupted reception; \
                             EIFS is {} ns",
                            ctx.eifs_ns
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// TCP invariants, one pass: congestion-window bounds, cumulative-ACK
/// monotonicity, send-window containment and Vegas `diff` sanity.
///
/// The send-window rule compares each data segment against the *sink's*
/// most recently traced cumulative ACK. That is sound because the sink
/// traces an ACK before the sender can learn of it, and the sender never
/// sends beyond its own `snd_una + wmax ≤ sink_acked + wmax`.
fn check_transport(records: &[TraceRecord], ctx: &CheckContext, out: &mut Vec<Violation>) {
    // Persistent flows by table position; traffic flows (generation-
    // packed ids) share the workload's wmax.
    let wmax_of = |flow: mwn::FlowId| ctx.flow_wmax.get(&flow.raw()).copied().or(ctx.traffic_wmax);
    // Per-flow highest traced cumulative ACK (−1 before any).
    let mut last_ack: HashMap<u32, i64> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        match r.event {
            TraceEvent::TcpCwnd { flow, cwnd_milli } => {
                let Some(wmax) = wmax_of(flow) else {
                    continue;
                };
                // NewReno recovery inflates to at most wmax + 3; one
                // extra milli absorbs fixed-point rounding.
                let hi = (wmax + 3) * 1000 + 1;
                if cwnd_milli < 999 || cwnd_milli > hi {
                    out.push(violation(
                        records,
                        i,
                        "cwnd-bound",
                        format!(
                            "cwnd {}.{:03} outside [1, wmax + 3] (wmax = {wmax})",
                            cwnd_milli / 1000,
                            cwnd_milli % 1000
                        ),
                    ));
                }
            }
            TraceEvent::TcpVegasDiff { flow, diff_milli } => {
                let Some(wmax) = wmax_of(flow) else {
                    continue;
                };
                let hi = ((wmax + 3) * 1000 + 1) as i64;
                if diff_milli < -1 || diff_milli > hi {
                    out.push(violation(
                        records,
                        i,
                        "vegas-diff",
                        format!(
                            "diff {} milli-packets outside [0, wmax + 3] \
                             (diff = cwnd·(1 − baseRTT/RTT) ≥ 0)",
                            diff_milli
                        ),
                    ));
                }
            }
            TraceEvent::TcpAck { flow, ack } => {
                // u64::MAX is the "nothing received" sentinel, i.e. −1.
                let a = ack as i64;
                let entry = last_ack.entry(flow.raw()).or_insert(-1);
                if a < *entry {
                    out.push(violation(
                        records,
                        i,
                        "ack-monotone",
                        format!("cumulative ACK regressed from {} to {a}", *entry),
                    ));
                }
                *entry = (*entry).max(a);
            }
            TraceEvent::TcpData { flow, seq } => {
                let Some(wmax) = wmax_of(flow) else {
                    continue;
                };
                let acked = *last_ack.get(&flow.raw()).unwrap_or(&-1);
                if seq as i64 > acked + wmax as i64 {
                    out.push(violation(
                        records,
                        i,
                        "send-window",
                        format!("seq {seq} beyond the sink's acked {acked} + wmax {wmax}"),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Routing invariants: per-(node, destination) sequence numbers never
/// regress while the previous entry is provably still alive, and no
/// packet uid transits the same node twice (loop-freedom; uids are
/// globally unique and reallocated for every retransmission, so a
/// revisit is a forwarding loop or duplicate delivery).
fn check_routes(records: &[TraceRecord], ctx: &CheckContext, out: &mut Vec<Violation>) {
    // (node, dst) → (seq, time_ns of last update, invalidated since).
    let mut route: HashMap<(u32, u32), (u32, u64, bool)> = HashMap::new();
    let mut seen: HashSet<(u64, u32)> = HashSet::new();
    for (i, r) in records.iter().enumerate() {
        match r.event {
            TraceEvent::RouteUpdate { dst, dst_seq, .. } => {
                let key = (r.node.raw(), dst.raw());
                let t = r.time.as_nanos();
                if let Some(&(prev_seq, prev_t, invalidated)) = route.get(&key) {
                    // A decrease is a violation only if the old entry was
                    // neither invalidated nor expirable: expiry and
                    // invalidation legally reopen the table slot.
                    if dst_seq < prev_seq && !invalidated && t < prev_t + ctx.route_lifetime_ns {
                        out.push(violation(
                            records,
                            i,
                            "route-seq",
                            format!(
                                "destination sequence for {dst} regressed \
                                 {prev_seq} → {dst_seq} on a live route"
                            ),
                        ));
                    }
                }
                route.insert(key, (dst_seq, t, false));
            }
            TraceEvent::RouteInvalidate { dst, dst_seq } => {
                let key = (r.node.raw(), dst.raw());
                let t = r.time.as_nanos();
                route.insert(key, (dst_seq, t, true));
            }
            TraceEvent::MacRx { uid, .. } => {
                let first_visit = seen.insert((uid, r.node.raw()));
                if !first_visit {
                    out.push(violation(
                        records,
                        i,
                        "loop-free",
                        format!("packet uid {uid} transited this node before"),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// A transmission recorded by `MacTx`, in checker-friendly units.
struct GeoTx {
    index: usize,
    t_ns: u64,
    node: u32,
    airtime_ns: u64,
    nav_ns: u64,
    dst: NodeId,
    kind: MacFrameKind,
}

impl GeoTx {
    /// Contention-initiated transmissions — the only ones that must obey
    /// carrier sense and NAV. Responses (CTS, ACK, unicast DATA after
    /// CTS) follow SIFS scheduling and legally ignore both.
    fn is_initiation(&self) -> bool {
        self.kind == MacFrameKind::Rts
            || (self.kind == MacFrameKind::Data && self.dst.is_broadcast())
    }
}

/// Geometric MAC rules against the static medium:
///
/// * **carrier-sense** — no contention-initiated transmission starts
///   while another node's signal (of sensing class at the initiator) is
///   on the air there. At most one transmitter per carrier-sense region.
/// * **nav** — no contention-initiated transmission starts inside a NAV
///   window the initiator provably installed (it decoded an overheard
///   frame carrying a non-zero Duration field).
fn check_geometry(
    records: &[TraceRecord],
    ctx: &CheckContext,
    medium: &Medium,
    out: &mut Vec<Violation>,
) {
    let txs: Vec<GeoTx> = records
        .iter()
        .enumerate()
        .filter_map(|(index, r)| match r.event {
            TraceEvent::MacTx {
                kind,
                dst,
                airtime,
                nav,
                ..
            } => Some(GeoTx {
                index,
                t_ns: r.time.as_nanos(),
                node: r.node.raw(),
                airtime_ns: airtime.as_nanos(),
                nav_ns: nav.as_nanos(),
                dst,
                kind,
            }),
            _ => None,
        })
        .collect();
    if txs.is_empty() {
        return;
    }
    let max_airtime = txs.iter().map(|t| t.airtime_ns).max().unwrap_or(0);

    // Per-transmitter (start, airtime) lists, in trace (= time) order.
    let mut by_node: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for tx in &txs {
        by_node
            .entry(tx.node)
            .or_default()
            .push((tx.t_ns, tx.airtime_ns));
    }

    // For each receiver: which transmitters it senses, with delay.
    let n = medium.len();
    let mut senses_in: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    for b in 0..n as u32 {
        for eff in medium.effects_of(NodeId(b)) {
            if eff.class.senses {
                senses_in[eff.node.index()].push((b, eff.delay.as_nanos()));
            }
        }
    }

    // NAV windows each node provably installed: it decoded (exact PhyRxOk
    // timestamp match) an overheard frame carrying nav > 0.
    let mut rx_ok: HashMap<u32, HashSet<u64>> = HashMap::new();
    for r in records {
        if matches!(r.event, TraceEvent::PhyRxOk) {
            rx_ok
                .entry(r.node.raw())
                .or_default()
                .insert(r.time.as_nanos());
        }
    }
    let mut nav_windows: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let mut max_nav = 0u64;
    for tx in &txs {
        if tx.nav_ns == 0 || tx.dst.is_broadcast() {
            continue;
        }
        for eff in medium.effects_of(NodeId(tx.node)) {
            if !eff.class.decodable || eff.node == tx.dst {
                continue;
            }
            let arrival_end = tx.t_ns + eff.delay.as_nanos() + tx.airtime_ns;
            let decoded = rx_ok
                .get(&eff.node.raw())
                .is_some_and(|set| set.contains(&arrival_end));
            if decoded {
                nav_windows
                    .entry(eff.node.raw())
                    .or_default()
                    .push((arrival_end, arrival_end + tx.nav_ns));
                max_nav = max_nav.max(tx.nav_ns);
            }
        }
    }
    for windows in nav_windows.values_mut() {
        windows.sort_unstable();
    }

    for tx in txs.iter().filter(|t| t.is_initiation()) {
        // Nodes outside the medium (possible in synthetic traces) have
        // no geometry to check against.
        let Some(sensed) = senses_in.get(tx.node as usize) else {
            continue;
        };
        // Carrier sense: any sensed foreign signal on the air here?
        'sensed: for &(b, delay) in sensed {
            let Some(list) = by_node.get(&b) else {
                continue;
            };
            // Only transmissions started in (tx.t_ns - delay - max_airtime,
            // tx.t_ns] can still be arriving.
            let from = tx.t_ns.saturating_sub(delay + max_airtime);
            let start = list.partition_point(|&(t, _)| t < from);
            for &(t, airtime) in &list[start..] {
                if t > tx.t_ns {
                    break;
                }
                let arrival = t + delay;
                if tx.t_ns > arrival + ctx.slot_ns && tx.t_ns < arrival + airtime {
                    out.push(violation(
                        records,
                        tx.index,
                        "carrier-sense",
                        format!(
                            "{:?} initiated while a signal from n{b} occupies \
                             the medium here ({} ns into its arrival)",
                            tx.kind,
                            tx.t_ns - arrival
                        ),
                    ));
                    break 'sensed;
                }
            }
        }
        // NAV: inside a window this node installed?
        if let Some(windows) = nav_windows.get(&tx.node) {
            let from = tx.t_ns.saturating_sub(max_nav);
            let start = windows.partition_point(|&(s, _)| s < from);
            for &(s, e) in &windows[start..] {
                if s >= tx.t_ns {
                    break;
                }
                if tx.t_ns > s + ctx.slot_ns && tx.t_ns < e {
                    out.push(violation(
                        records,
                        tx.index,
                        "nav",
                        format!(
                            "{:?} initiated {} ns into a NAV reservation that \
                             ends {} ns later",
                            tx.kind,
                            tx.t_ns - s,
                            e - tx.t_ns
                        ),
                    ));
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn::trace::TraceLayer;
    use mwn::{FlowId, Scenario, SimDuration, Transport};
    use mwn_phy::DataRate;

    fn ctx() -> CheckContext {
        CheckContext::for_scenario(&Scenario::chain(
            2,
            DataRate::MBPS_2,
            Transport::newreno(),
            1,
        ))
    }

    fn rec(t_ns: u64, node: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(t_ns),
            node: NodeId(node),
            event,
        }
    }

    fn mac_tx(t_ns: u64, node: u32, kind: MacFrameKind, dst: NodeId) -> TraceRecord {
        rec(
            t_ns,
            node,
            TraceEvent::MacTx {
                kind,
                dst,
                bytes: 40,
                airtime: SimDuration::from_nanos(100_000),
                nav: SimDuration::ZERO,
            },
        )
    }

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn conforming_empty_trace_passes() {
        assert!(check(&[], &ctx()).is_empty());
    }

    #[test]
    fn time_regression_is_flagged() {
        let records = vec![
            rec(100, 0, TraceEvent::PhyRxOk),
            rec(50, 1, TraceEvent::PhyRxOk),
        ];
        let v = check(&records, &ctx());
        assert_eq!(rules(&v), ["time-monotone"]);
        assert_eq!(v[0].index, 1);
        // The window contains both records, the offender marked.
        assert!(v[0].window.iter().any(|l| l.starts_with('>')));
    }

    #[test]
    fn overlapping_own_transmissions_are_flagged() {
        // Second TX starts 50 µs into the first one's 100 µs airtime.
        let records = vec![
            mac_tx(0, 3, MacFrameKind::Rts, NodeId(4)),
            mac_tx(50_000, 3, MacFrameKind::Rts, NodeId(4)),
        ];
        let v = check(&records, &ctx());
        assert!(rules(&v).contains(&"half-duplex"), "{v:?}");
        // Back-to-back (start == previous end) is legal.
        let records = vec![
            mac_tx(0, 3, MacFrameKind::Rts, NodeId(4)),
            mac_tx(100_000, 3, MacFrameKind::Rts, NodeId(4)),
        ];
        assert!(!rules(&check(&records, &ctx())).contains(&"half-duplex"));
    }

    #[test]
    fn difs_after_corrupt_is_flagged_but_eifs_passes() {
        let c = ctx();
        let difs = TraceEvent::MacDefer { nanos: 50_000 };
        let eifs = TraceEvent::MacDefer { nanos: c.eifs_ns };
        // DIFS right after a corrupted reception: violation.
        let bad = vec![rec(0, 1, TraceEvent::PhyCorrupt), rec(10, 1, difs)];
        assert_eq!(rules(&check(&bad, &c)), ["eifs"]);
        // EIFS after corruption: fine.
        let good = vec![rec(0, 1, TraceEvent::PhyCorrupt), rec(10, 1, eifs)];
        assert!(check(&good, &c).is_empty());
        // An intact reception clears the EIFS requirement.
        let cleared = vec![
            rec(0, 1, TraceEvent::PhyCorrupt),
            rec(5, 1, TraceEvent::PhyRxOk),
            rec(10, 1, difs),
        ];
        assert!(check(&cleared, &c).is_empty());
        // Only the FIRST deference is constrained.
        let second = vec![
            rec(0, 1, TraceEvent::PhyCorrupt),
            rec(10, 1, eifs),
            rec(500_000, 1, difs),
        ];
        assert!(check(&second, &c).is_empty());
        // Another node's corruption does not constrain this node.
        let other = vec![rec(0, 2, TraceEvent::PhyCorrupt), rec(10, 1, difs)];
        assert!(check(&other, &c).is_empty());
    }

    #[test]
    fn cwnd_out_of_bounds_is_flagged() {
        let c = ctx(); // wmax = 64
        let ok = |m| TraceEvent::TcpCwnd {
            flow: FlowId(0),
            cwnd_milli: m,
        };
        assert!(check(&[rec(0, 0, ok(1000))], &c).is_empty());
        assert!(check(&[rec(0, 0, ok(67_001))], &c).is_empty());
        assert_eq!(rules(&check(&[rec(0, 0, ok(500))], &c)), ["cwnd-bound"]);
        assert_eq!(rules(&check(&[rec(0, 0, ok(67_002))], &c)), ["cwnd-bound"]);
        // Unknown flow (no wmax): skipped.
        let unknown = TraceEvent::TcpCwnd {
            flow: FlowId(9),
            cwnd_milli: 500,
        };
        assert!(check(&[rec(0, 0, unknown)], &c).is_empty());
    }

    #[test]
    fn traffic_flows_fall_back_to_the_workload_wmax() {
        let mut c = ctx();
        assert!(c.traffic_wmax.is_none());
        // A flow outside the persistent table (e.g. a generation-packed
        // traffic id) is skipped when no workload is attached…
        let bad = TraceEvent::TcpCwnd {
            flow: FlowId(0x0010_0009),
            cwnd_milli: 500,
        };
        assert!(check(&[rec(0, 0, bad)], &c).is_empty());
        // …and checked against the workload's wmax when one is.
        c.traffic_wmax = Some(64);
        assert_eq!(rules(&check(&[rec(0, 0, bad)], &c)), ["cwnd-bound"]);
    }

    #[test]
    fn ack_regression_and_window_overrun_are_flagged() {
        let c = ctx();
        let ack = |a| TraceEvent::TcpAck {
            flow: FlowId(0),
            ack: a,
        };
        let data = |s| TraceEvent::TcpData {
            flow: FlowId(0),
            seq: s,
        };
        // ACK going backwards.
        let v = check(&[rec(0, 2, ack(5)), rec(10, 2, ack(3))], &c);
        assert_eq!(rules(&v), ["ack-monotone"]);
        // The u64::MAX sentinel (−1) precedes ack 0 legally.
        let v = check(&[rec(0, 2, ack(u64::MAX)), rec(10, 2, ack(0))], &c);
        assert!(v.is_empty());
        // seq 0..=63 fit the initial window (acked = −1, wmax = 64)…
        assert!(check(&[rec(0, 0, data(63))], &c).is_empty());
        // …but 64 does not.
        assert_eq!(rules(&check(&[rec(0, 0, data(64))], &c)), ["send-window"]);
        // After ack 10 the window slides to 74.
        let v = check(&[rec(0, 2, ack(10)), rec(10, 0, data(74))], &c);
        assert!(v.is_empty());
    }

    #[test]
    fn vegas_diff_bounds() {
        let c = ctx();
        let diff = |d| TraceEvent::TcpVegasDiff {
            flow: FlowId(0),
            diff_milli: d,
        };
        assert!(check(&[rec(0, 0, diff(0))], &c).is_empty());
        assert!(check(&[rec(0, 0, diff(-1))], &c).is_empty()); // rounding
        assert_eq!(rules(&check(&[rec(0, 0, diff(-2))], &c)), ["vegas-diff"]);
        assert_eq!(
            rules(&check(&[rec(0, 0, diff(70_000))], &c)),
            ["vegas-diff"]
        );
    }

    #[test]
    fn route_seq_regression_on_live_route_is_flagged() {
        let c = ctx();
        let upd = |seq| TraceEvent::RouteUpdate {
            dst: NodeId(2),
            next_hop: NodeId(1),
            hop_count: 2,
            dst_seq: seq,
        };
        // Regression within the route lifetime: violation.
        let v = check(&[rec(0, 0, upd(5)), rec(10, 0, upd(3))], &c);
        assert_eq!(rules(&v), ["route-seq"]);
        // After the lifetime the entry may have expired: legal.
        let later = c.route_lifetime_ns + 10;
        let v = check(&[rec(0, 0, upd(5)), rec(later, 0, upd(3))], &c);
        assert!(v.is_empty());
        // An invalidation in between legalizes the lower install too.
        let inv = TraceEvent::RouteInvalidate {
            dst: NodeId(2),
            dst_seq: 6,
        };
        let v = check(&[rec(0, 0, upd(5)), rec(5, 0, inv), rec(10, 0, upd(3))], &c);
        assert!(v.is_empty());
        // Different node or destination: independent.
        let v = check(&[rec(0, 0, upd(5)), rec(10, 1, upd(3))], &c);
        assert!(v.is_empty());
    }

    #[test]
    fn uid_revisiting_a_node_is_flagged() {
        let c = ctx();
        let rx = |from| TraceEvent::MacRx {
            uid: 77,
            from: NodeId(from),
        };
        // Same uid through different nodes: a normal multihop path.
        let path = vec![rec(0, 1, rx(0)), rec(10, 2, rx(1))];
        assert!(check(&path, &c).is_empty());
        // Same uid back at node 1: a forwarding loop.
        let looped = vec![rec(0, 1, rx(0)), rec(10, 2, rx(1)), rec(20, 1, rx(2))];
        assert_eq!(rules(&check(&looped, &c)), ["loop-free"]);
    }

    #[test]
    fn carrier_sense_violation_is_flagged() {
        // chain(2): nodes at 0 / 200 / 400 m. Node 2 senses node 0
        // (400 m ≤ 550 m). Node 0 transmits 100 µs of airtime at t = 0;
        // node 2 initiates an RTS 50 µs in — inside the busy window.
        let c = ctx();
        let records = vec![
            mac_tx(0, 0, MacFrameKind::Data, NodeId::BROADCAST),
            mac_tx(50_000, 2, MacFrameKind::Rts, NodeId(1)),
        ];
        let v = check(&records, &c);
        assert_eq!(rules(&v), ["carrier-sense"]);
        // The same second transmission after the signal has passed: legal.
        let records = vec![
            mac_tx(0, 0, MacFrameKind::Data, NodeId::BROADCAST),
            mac_tx(200_000, 2, MacFrameKind::Rts, NodeId(1)),
        ];
        assert!(check(&records, &c).is_empty());
        // A *response* (CTS) during the busy window is not an initiation.
        let records = vec![
            mac_tx(0, 0, MacFrameKind::Data, NodeId::BROADCAST),
            mac_tx(50_000, 2, MacFrameKind::Cts, NodeId(1)),
        ];
        assert!(check(&records, &c).is_empty());
    }

    #[test]
    fn nav_violation_requires_a_decoded_overheard_frame() {
        // Node 0 sends an RTS to node 2 with a long NAV; node 1 (200 m
        // from node 0, propagation delay 667 ns) decodes it. The checker
        // must see node 1's PhyRxOk at exactly arrival-end to install the
        // window.
        let c = ctx();
        let airtime = 100_000;
        let delay = c
            .medium
            .as_ref()
            .unwrap()
            .effects_of(NodeId(0))
            .iter()
            .find(|e| e.node == NodeId(1))
            .unwrap()
            .delay
            .as_nanos();
        let arrival_end = delay + airtime;
        let rts = rec(
            0,
            0,
            TraceEvent::MacTx {
                kind: MacFrameKind::Rts,
                dst: NodeId(2),
                bytes: 40,
                airtime: SimDuration::from_nanos(airtime),
                nav: SimDuration::from_nanos(2_000_000),
            },
        );
        let decode = rec(arrival_end, 1, TraceEvent::PhyRxOk);
        // Node 1 initiates a broadcast mid-NAV (and after node 0's signal
        // has long left the air, so carrier-sense stays quiet).
        let tx = mac_tx(1_500_000, 1, MacFrameKind::Data, NodeId::BROADCAST);
        let v = check(&[rts.clone(), decode, tx.clone()], &c);
        assert_eq!(rules(&v), ["nav"], "{v:?}");
        // Without the decode there is no provable NAV window.
        let v = check(&[rts, tx], &c);
        assert!(v.is_empty());
    }

    #[test]
    fn violations_render_with_context() {
        let records = vec![
            rec(100, 0, TraceEvent::PhyRxOk),
            rec(50, 1, TraceEvent::PhyCorrupt),
        ];
        let v = check(&records, &ctx());
        let text = v[0].to_string();
        assert!(text.contains("time-monotone"));
        assert!(text.contains("PHY"));
        assert_eq!(records[0].layer(), TraceLayer::Phy);
    }
}
