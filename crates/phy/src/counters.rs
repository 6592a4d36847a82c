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
/// `Medium`): how often transmission-time queries found their effect
/// list built at the current epoch, never built, or stale.
///
/// For a `Medium::lazy` medium, `queries = fast-path hits + builds +
/// rebuilds` — the fast-path count is the difference. A mobile workload
/// where `builds + rebuilds` stays far below `epoch × nodes` is exactly
/// the regime the lazy medium exists for: most nodes move every tick but
/// transmit rarely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumCounters {
    /// Global move epoch (one bump per non-empty move batch).
    pub epoch: u64,
    /// `Medium::refresh` calls.
    pub queries: u64,
    /// Effect lists built where none existed: every list of a
    /// `Medium::new`, and each node's first `Medium::refresh` on a
    /// `Medium::lazy` medium.
    pub builds: u64,
    /// Queries that paid an O(k) effect-list rebuild because a move batch
    /// came after the list was built.
    pub rebuilds: u64,
    /// Always 0; kept only so the frozen benchmark source under `bench/`
    /// (which reads it) compiles. Delete with ROADMAP item 6(b).
    pub revalidations: u64,
    /// Effect lists put into arrival order: at most one per build or
    /// rebuild, so `sorts ≤ builds + rebuilds` (equal on a `Medium::lazy`
    /// medium, where every list is sorted by the refresh that built it).
    pub sorts: u64,
}
