//! Always-on flight recorder: a fixed-capacity ring of compact binary
//! records of the *rare* events (drops, handoff failures, flow lifecycle,
//! route failures), dumped when an invariant trips or the run panics.
//!
//! The full [`crate::trace::TraceBuffer`] records every event as an enum
//! with per-variant payloads and is too heavy to leave on in 100k-flow
//! runs. The flight recorder instead stores 24-byte [`FlightRecord`]s and
//! is written only at sparse events, so it stays enabled by default: when
//! a run fails at scale, the failure arrives with its last N events
//! attached instead of a bare panic message.
//!
//! A network registers its recorder for the current thread with
//! [`register`]; the first registration installs a chained panic hook that
//! dumps the registered ring to stderr. Registration holds a weak
//! reference, so a finished run's recorder is collected normally.
//!
//! The recorder is shared as `Arc<Mutex<_>>` (not `Rc<RefCell<_>>`) so a
//! network holding one stays `Send`: rare-event recording must not be
//! the one field pinning the whole simulation to a single thread. The
//! panic hook uses `try_lock`, so a panic while the lock is held degrades
//! to "no dump", never to a second panic.

use std::fmt;
use std::sync::{Arc, Mutex, Once, Weak};

use crate::drop::DropReason;

/// What kind of event a [`FlightRecord`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A packet or frame was dropped; `reason` holds the taxonomy index.
    Drop = 0,
    /// A unicast MAC handoff failed (retry exhaustion reported upward).
    TxFail = 1,
    /// An open-loop flow was spawned; `id` is `FlowId::raw`.
    FlowOpen = 2,
    /// An open-loop flow completed; `id` is `FlowId::raw`.
    FlowClose = 3,
    /// Routing declared a route to `id` (a node) lost.
    RouteFail = 4,
}

impl FlightKind {
    fn label(self) -> &'static str {
        match self {
            FlightKind::Drop => "drop",
            FlightKind::TxFail => "tx_fail",
            FlightKind::FlowOpen => "flow_open",
            FlightKind::FlowClose => "flow_close",
            FlightKind::RouteFail => "route_fail",
        }
    }
}

/// One compact record: 24 bytes, no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Simulated time in nanoseconds.
    pub t_nanos: u64,
    /// Packet uid, `FlowId::raw`, or destination node, depending on kind.
    pub id: u64,
    /// Node the event happened at.
    pub node: u32,
    /// Event kind.
    pub kind: FlightKind,
    /// [`DropReason::index`] for drops, `NO_REASON` otherwise.
    pub reason: u8,
}

/// Sentinel for records that carry no drop reason.
pub const NO_REASON: u8 = u8::MAX;

impl FlightRecord {
    /// The drop reason, when the record carries one.
    pub fn drop_reason(&self) -> Option<DropReason> {
        DropReason::from_index(usize::from(self.reason))
    }
}

impl fmt::Display for FlightRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>14.6}s n{} {}",
            self.t_nanos as f64 / 1e9,
            self.node,
            self.kind.label()
        )?;
        if let Some(reason) = self.drop_reason() {
            write!(f, " reason={reason}")?;
        }
        match self.kind {
            FlightKind::FlowOpen | FlightKind::FlowClose => write!(f, " flow={}", self.id),
            FlightKind::RouteFail => write!(f, " dst=n{}", self.id),
            _ => write!(f, " uid={}", self.id),
        }
    }
}

/// Default ring capacity: 4096 records ≈ 96 KiB.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Fixed-capacity ring of [`FlightRecord`]s (capacity rounded up to a
/// power of two so the wrap is a mask, not a division).
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<FlightRecord>,
    mask: usize,
    /// Total records ever written; `head % capacity` is the next slot.
    written: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` records (rounded up
    /// to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity");
        let capacity = capacity.next_power_of_two();
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            mask: capacity - 1,
            written: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full.
    pub fn record(&mut self, record: FlightRecord) {
        let slot = (self.written as usize) & self.mask;
        if slot < self.buf.len() {
            self.buf[slot] = record;
        } else {
            self.buf.push(record);
        }
        self.written += 1;
    }

    /// Records retained (at most the capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured (rounded) capacity.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Total records ever written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Records overwritten because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.written - self.buf.len() as u64
    }

    /// Retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FlightRecord> {
        let start = if self.buf.len() < self.capacity() {
            0
        } else {
            (self.written as usize) & self.mask
        };
        let (tail, head) = self.buf.split_at(start);
        head.iter().chain(tail.iter())
    }

    /// Renders the ring as display lines, oldest first, with a header
    /// summarizing totals and evictions.
    pub fn dump_lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len() + 1);
        out.push(format!(
            "flight recorder: {} events recorded, {} evicted, showing last {}",
            self.written,
            self.dropped(),
            self.len()
        ));
        out.extend(self.iter().map(|r| format!("  {r}")));
        out
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Weak<Mutex<FlightRecorder>>> =
        const { std::cell::RefCell::new(Weak::new()) };
}

static HOOK: Once = Once::new();

/// Registers `recorder` as the current thread's flight recorder and
/// installs the process-wide panic hook on first use. The registration is
/// weak: dropping the owning `Arc` deactivates it.
pub fn register(recorder: &Arc<Mutex<FlightRecorder>>) {
    CURRENT.with(|slot| *slot.borrow_mut() = Arc::downgrade(recorder));
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            if let Some(lines) = dump_current() {
                eprintln!(
                    "--- flight recorder (thread {:?}) ---",
                    std::thread::current().id()
                );
                for line in lines {
                    eprintln!("{line}");
                }
            }
        }));
    });
}

/// Dumps the current thread's registered recorder, if one is alive and
/// not locked (the panic hook must never block or re-panic on the lock).
pub fn dump_current() -> Option<Vec<String>> {
    CURRENT.with(|slot| {
        let recorder = slot.borrow().upgrade()?;
        let recorder = recorder.try_lock().ok()?;
        Some(recorder.dump_lines())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ns: u64, uid: u64) -> FlightRecord {
        FlightRecord {
            t_nanos: ns,
            id: uid,
            node: 1,
            kind: FlightKind::Drop,
            reason: DropReason::IfqOverflow.index() as u8,
        }
    }

    #[test]
    fn record_is_compact() {
        assert!(std::mem::size_of::<FlightRecord>() <= 24);
    }

    #[test]
    fn ring_wraps_and_counts_evictions() {
        let mut r = FlightRecorder::new(4);
        for i in 0..11 {
            r.record(rec(i, i));
        }
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r.written(), 11);
        assert_eq!(r.dropped(), 7);
        let times: Vec<u64> = r.iter().map(|x| x.t_nanos).collect();
        assert_eq!(times, vec![7, 8, 9, 10]);
    }

    #[test]
    fn partial_ring_iterates_in_order_with_no_drops() {
        let mut r = FlightRecorder::new(8);
        r.record(rec(1, 1));
        r.record(rec(2, 2));
        assert_eq!(r.dropped(), 0);
        let times: Vec<u64> = r.iter().map(|x| x.t_nanos).collect();
        assert_eq!(times, vec![1, 2]);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(FlightRecorder::new(5).capacity(), 8);
        assert_eq!(FlightRecorder::new(1).capacity(), 1);
        let mut r = FlightRecorder::new(1);
        r.record(rec(1, 1));
        r.record(rec(2, 2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().t_nanos, 2);
    }

    #[test]
    fn display_carries_reason_and_id() {
        let line = rec(1_500_000, 42).to_string();
        assert!(line.contains("drop"), "{line}");
        assert!(line.contains("reason=ifq_overflow"), "{line}");
        assert!(line.contains("uid=42"), "{line}");
        let open = FlightRecord {
            t_nanos: 0,
            id: 7,
            node: 0,
            kind: FlightKind::FlowOpen,
            reason: NO_REASON,
        };
        assert!(open.to_string().contains("flow_open flow=7"));
        assert_eq!(open.drop_reason(), None);
    }

    #[test]
    fn dump_lines_header_reports_evictions() {
        let mut r = FlightRecorder::new(2);
        for i in 0..5 {
            r.record(rec(i, i));
        }
        let lines = r.dump_lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("5 events recorded, 3 evicted"));
    }

    #[test]
    fn registration_is_weak_and_dumpable() {
        let recorder = Arc::new(Mutex::new(FlightRecorder::new(8)));
        register(&recorder);
        recorder.lock().unwrap().record(rec(9, 9));
        let lines = dump_current().expect("registered recorder dumps");
        assert!(lines.iter().any(|l| l.contains("uid=9")));
        drop(recorder);
        assert!(dump_current().is_none(), "weak registration must expire");
    }

    #[test]
    fn dump_skips_a_held_lock_instead_of_blocking() {
        let recorder = Arc::new(Mutex::new(FlightRecorder::new(8)));
        register(&recorder);
        let guard = recorder.lock().unwrap();
        assert!(dump_current().is_none(), "held lock must not deadlock");
        drop(guard);
        assert!(dump_current().is_some());
    }
}
