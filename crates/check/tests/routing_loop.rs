//! The shrunk reproducer of an AODV routing loop (ROADMAP item 13).
//!
//! On a 10-hop chain with one persistent NewReno flow and 23 churned
//! arrivals, node 3 forwarded node 0's route request late, lost its route
//! to node 0 (sequence number bumped), then heard its own rebroadcast
//! echoed by node 4 and took node 4 as its next hop to node 0 — while
//! node 4 routed to node 0 through node 3. Flow 0's ACK seq 35 (uid
//! `0x4000008000000023`) went n4 → n3 → n4 at 2.3489 s, and the checker
//! reported a `loop-free` violation. A duplicate route request is now
//! discarded before it touches the reverse route (RFC 3561 §6.5).

use mwn_check::fuzz::violations_of;
use mwn_check::ScenarioSpec;

#[test]
fn a_forwarder_hearing_its_successors_echo_keeps_its_route() {
    let spec = ScenarioSpec {
        hops: 10,
        reverse: false,
        rate: 0,
        transport: 0,
        packets: 5,
        traffic: 23,
        seed: 1001,
    };
    let violations = violations_of(&spec);
    let report: String = violations.iter().map(|v| v.to_string()).collect();
    assert!(violations.is_empty(), "[{spec}]:\n{report}");
}
