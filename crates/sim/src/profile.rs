//! Simulator self-profiling: where the event loop spends its events.
//!
//! An [`EngineProfile`] is fed one call per processed event and
//! accumulates the totals the ROADMAP's performance work needs: events
//! processed, an event-count histogram by kind, and the peak future-event
//! list depth. Wall-clock rates are derived by the caller
//! ([`EngineProfile::events_per_sec`]) so the event histogram stays a pure
//! function of the simulation. An event may stand for several units of
//! work — one wave segment delivers a signal edge to a run of receivers —
//! so the host also counts those edges and how often a wave handed
//! control back to the queue ([`EngineProfile::record_wave`]) — and what
//! it *avoided* doing for bystanders (the public counters). Hosts may
//! additionally time named hot
//! sections ([`EngineProfile::record_timed`], e.g. the medium rebuild on
//! a mobility tick); those buckets carry wall-clock seconds and are
//! reported separately.

/// Accumulated event-loop statistics.
///
/// The per-kind histogram is a linear-scan `Vec` rather than a hash map:
/// hosts record a handful of distinct `&'static str` kinds millions of
/// times, so a pointer-equality scan over ≤ a dozen entries beats hashing
/// the string on every event.
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    events_processed: u64,
    peak_queue_depth: usize,
    by_kind: Vec<(&'static str, u64)>,
    /// Per-receiver signal edges delivered by wave events.
    signal_edges: u64,
    /// Wave segments that ended by re-queuing the wave rather than by
    /// reaching its last receiver.
    wave_yields: u64,
    /// Named timed sections: (name, invocations, total wall seconds).
    timed: Vec<(&'static str, u64, f64)>,
    /// NAV timers the host scheduled at once, because the MAC wanted the
    /// medium. With [`nav_parked`](Self::nav_parked), every NAV set.
    /// (These five are incremented by the host.)
    pub nav_armed: u64,
    /// NAV timers the host parked beside the node instead of scheduling,
    /// because the MAC had nothing to send.
    pub nav_parked: u64,
    /// Parked NAV timers that entered the queue after all, because the
    /// MAC got something to send before they expired. The rest of
    /// [`nav_parked`](Self::nav_parked) never cost a queue operation.
    pub nav_materialised: u64,
    /// Batches of radio events (one transceiver call's worth) to which
    /// the MAC answered, or would have answered, with no action at all.
    pub mac_batches_without_actions: u64,
    /// Those of [`mac_batches_without_actions`](Self::mac_batches_without_actions)
    /// that never reached the MAC: the host kept them beside the radio
    /// because the MAC had nothing to do.
    pub radio_batches_absorbed: u64,
    /// Events the host's queue has scheduled, from
    /// [`EventQueue::schedules`](crate::EventQueue::schedules). (This and
    /// [`queue_cancels`](Self::queue_cancels) are copied in by the host.)
    pub queue_schedules: u64,
    /// Pending events the host's queue has cancelled, from
    /// [`EventQueue::cancels`](crate::EventQueue::cancels).
    pub queue_cancels: u64,
    /// Nodes whose protocol state the host has built (copied in by the
    /// host; a node no signal reached holds none).
    pub node_records: u64,
    /// The most signals the host's radios held at once beside the one
    /// each node keeps inline: overlapping signals (copied in by the
    /// host).
    pub radio_overflow_peak: u64,
    /// Radio bytes per node: the fixed radio state plus the overflow
    /// store and energy meters averaged over the nodes (copied in by the
    /// host; an accounting estimate, not serialized).
    pub radio_bytes_per_node: u64,
}

impl EngineProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one processed event of `kind`, observed with `queue_depth`
    /// events still pending.
    pub fn record(&mut self, kind: &'static str, queue_depth: usize) {
        self.events_processed += 1;
        if queue_depth > self.peak_queue_depth {
            self.peak_queue_depth = queue_depth;
        }
        // Callers pass the same literal for the same kind, so
        // `std::ptr::eq` almost always hits; content equality is the
        // correctness fallback for distinct instances of equal strings
        // (e.g. across codegen units).
        for (k, count) in &mut self.by_kind {
            if std::ptr::eq(*k as *const str, kind as *const str) || *k == kind {
                *count += 1;
                return;
            }
        }
        self.by_kind.push((kind, 1));
    }

    /// Records what one wave segment (already counted by
    /// [`record`](Self::record)) did: the signal `edges` it delivered, and
    /// whether it `yielded` the rest of its receivers back to the queue.
    pub fn record_wave(&mut self, edges: u64, yielded: bool) {
        self.signal_edges += edges;
        self.wave_yields += u64::from(yielded);
    }

    /// Adds one invocation of the timed section `kind` lasting `secs`
    /// wall-clock seconds. Unlike the event histogram, timed buckets are
    /// machine-dependent; they exist to attribute wall time to named hot
    /// sections (e.g. `medium_tick` on mobility ticks).
    pub fn record_timed(&mut self, kind: &'static str, secs: f64) {
        self.record_timed_n(kind, 1, secs);
    }

    /// Adds `n` invocations of the timed section `kind` totalling `secs`
    /// wall-clock seconds in one call — the drain-style variant for hosts
    /// that accumulate a section's cost elsewhere and flush it
    /// periodically (e.g. the lazy medium's per-rebuild timings flushed
    /// into `medium_lazy` once per mobility tick). `n = 0` with
    /// `secs = 0.0` still creates the bucket, so reports show the section
    /// exists even when it never fired.
    pub fn record_timed_n(&mut self, kind: &'static str, n: u64, secs: f64) {
        for (k, count, total) in &mut self.timed {
            if std::ptr::eq(*k as *const str, kind as *const str) || *k == kind {
                *count += n;
                *total += secs;
                return;
            }
        }
        self.timed.push((kind, n, secs));
    }

    /// The timed sections as `(name, invocations, total seconds)`, sorted
    /// by name (deterministic).
    pub fn timed(&self) -> Vec<(&'static str, u64, f64)> {
        let mut v = self.timed.clone();
        v.sort_unstable_by_key(|&(k, ..)| k);
        v
    }

    /// Total wall seconds attributed to timed section `kind` (0.0 if the
    /// section was never recorded).
    pub fn timed_secs(&self, kind: &str) -> f64 {
        self.timed
            .iter()
            .find(|(k, ..)| *k == kind)
            .map_or(0.0, |&(_, _, s)| s)
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Largest pending-event count observed.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue_depth
    }

    /// Per-receiver signal edges (starts plus ends) delivered so far —
    /// divided by two and by the transmission count, the receptions per
    /// transmission.
    pub fn signal_edges(&self) -> u64 {
        self.signal_edges
    }

    /// Wave segments that yielded to the queue before their last receiver.
    pub fn wave_yields(&self) -> u64 {
        self.wave_yields
    }

    /// The event-count histogram, sorted by kind name (deterministic).
    pub fn by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut v = self.by_kind.clone();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Events per wall-clock second, given the measured wall time.
    pub fn events_per_sec(&self, wall_secs: f64) -> f64 {
        if wall_secs > 0.0 {
            self.events_processed as f64 / wall_secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_and_histogram_sorts() {
        let mut p = EngineProfile::new();
        p.record("mac_timer", 3);
        p.record("signal_start", 10);
        p.record("mac_timer", 5);
        assert_eq!(p.events_processed(), 3);
        assert_eq!(p.peak_queue_depth(), 10);
        assert_eq!(
            p.by_kind(),
            vec![("mac_timer", 2), ("signal_start", 1)],
            "sorted by kind name"
        );
    }

    #[test]
    fn events_per_sec_handles_zero_wall_time() {
        let mut p = EngineProfile::new();
        p.record("x", 0);
        assert_eq!(p.events_per_sec(0.0), 0.0);
        assert!((p.events_per_sec(0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timed_sections_accumulate_and_merge() {
        let mut a = EngineProfile::new();
        a.record_timed("medium_recompute", 0.25);
        a.record_timed("medium_recompute", 0.50);
        assert_eq!(a.timed(), vec![("medium_recompute", 2, 0.75)]);
        assert!((a.timed_secs("medium_recompute") - 0.75).abs() < 1e-12);
        assert_eq!(a.timed_secs("unknown"), 0.0);
    }

    #[test]
    fn record_timed_n_batches_and_merges_like_singles() {
        let mut batched = EngineProfile::new();
        batched.record_timed_n("medium_lazy", 3, 0.6);
        batched.record_timed_n("medium_lazy", 0, 0.0); // bucket exists even when idle
        let mut singles = EngineProfile::new();
        for _ in 0..3 {
            singles.record_timed("medium_lazy", 0.2);
        }
        let (bk, bn, bs) = batched.timed()[0];
        let (sk, sn, ss) = singles.timed()[0];
        assert_eq!((bk, bn), (sk, sn));
        assert!((bs - ss).abs() < 1e-12, "batched {bs} vs singles {ss}");
    }

    #[test]
    fn wave_counters_accumulate_and_merge_outside_the_histogram() {
        let mut a = EngineProfile::new();
        a.record("signal_start", 1);
        a.record_wave(5, true);
        a.record("signal_start", 1);
        a.record_wave(3, false);
        assert_eq!(a.signal_edges(), 8);
        assert_eq!(a.wave_yields(), 1);
        // Edges are work done, not events popped.
        assert_eq!(a.events_processed(), 2);
        assert_eq!(a.by_kind(), vec![("signal_start", 2)]);
    }
}
