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
/// list already exact, provably unchanged, or actually stale.
///
/// `queries = fast-path hits + revalidations + rebuilds` — the fast-path
/// count is the difference. A mobile workload where `rebuilds` stays far
/// below `epoch × nodes` is exactly the regime the lazy medium exists
/// for: most nodes move every tick but transmit rarely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumCounters {
    /// Global move epoch (one bump per non-empty move batch).
    pub epoch: u64,
    /// `Medium::refresh` calls.
    pub queries: u64,
    /// Queries that paid an O(k) effect-list rebuild.
    pub rebuilds: u64,
    /// Queries whose 3×3 neighborhood carried no newer stamp: marked
    /// current without rebuilding.
    pub revalidations: u64,
    /// Effect lists put into arrival order: at most one per rebuild plus
    /// one per node per full build, so `sorts ≤ rebuilds + nodes` for a
    /// medium built once.
    pub sorts: u64,
}
