//! Radio-level statistics counters.

/// Per-node PHY statistics: what the capture/collision machinery decided.
///
/// These expose the reception-model internals the paper's analysis leans
/// on — physical capture is what lets same-direction chain traffic
/// survive its own hidden terminals (§4.2), and EIFS deferral after
/// undecodable energy is what keeps two-hop neighbours off the
/// SIFS-spaced control frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhyCounters {
    /// Decodable receptions that survived overlapping interference
    /// because the locked frame was ≥ CPThresh stronger (ns-2 capture).
    pub captures: u64,
    /// Decodable receptions corrupted by overlapping interference.
    pub collisions: u64,
    /// Sense-only signals that ended while locked (PHY-RXEND with error):
    /// each one makes the MAC defer EIFS instead of DIFS.
    pub undecoded: u64,
}

/// Cumulative statistics of the lazy epoch-stamped medium (see
/// `Medium`): how often transmission-time queries found their node's
/// stored effect list current, filled a one-shot list, or stored one.
///
/// For a `Medium::lazy` medium, `queries = fast-path hits + one_shots +
/// builds + rebuilds` — the fast-path count is the difference. A list a
/// second query adopts from the one-shot ring counts as a build or
/// rebuild without a scan of its own. Every list is sorted into arrival
/// order as it is filled (an adopted list was sorted in the ring). A
/// mobile workload where
/// `one_shots + builds + rebuilds` stays far below `epoch × nodes` is
/// exactly the regime the lazy medium exists for: most nodes move every
/// tick but transmit rarely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumCounters {
    /// Global move epoch (one bump per non-empty move batch).
    pub epoch: u64,
    /// `Medium::refresh` calls.
    pub queries: u64,
    /// Effect lists filled and sorted for a node's first query in an
    /// epoch (unless it ever stored its list), served
    /// once and not stored.
    pub one_shots: u64,
    /// Effect lists stored where none had been: every list of a
    /// `Medium::new`, and on a `Medium::lazy` medium each node's first
    /// second-in-an-epoch query.
    pub builds: u64,
    /// Effect lists stored over one built before a move batch: the first
    /// query in an epoch of a node that ever stored its list, or any
    /// `Medium::refresh_all` of a stale list.
    pub rebuilds: u64,
    /// Always 0; kept only so the frozen benchmark source under `bench/`
    /// (which reads it) compiles. Delete with ROADMAP item 9(b).
    pub revalidations: u64,
}
