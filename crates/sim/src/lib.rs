//! Deterministic discrete-event simulation engine.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on:
//!
//! * [`SimTime`] and [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a cancellable future-event list with a deterministic
//!   tie-break for events scheduled at the same instant, implemented as
//!   one ordered `Vec` (`ReferenceEventQueue`, behind the `oracle`
//!   feature, is the retained binary-heap oracle it is differentially
//!   tested against),
//! * [`Pcg32`] — a small, fully deterministic pseudo-random number generator,
//! * [`stats`] — batch-means steady-state statistics, confidence intervals,
//!   time-weighted averages and Jain's fairness index,
//! * [`profile`] — event-loop self-profiling (events processed, histogram
//!   by kind, peak pending-event depth).
//!
//! # Example
//!
//! ```
//! use mwn_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(1));
//! ```

#[cfg(any(test, feature = "oracle"))]
mod event;
pub mod fxhash;
pub mod profile;
mod rng;
pub mod stats;
mod time;
// The event queue; the module keeps the name of the timer wheel it held.
mod wheel;

#[cfg(any(test, feature = "oracle"))]
pub use event::ReferenceEventQueue;
pub use fxhash::{FxHashMap, FxHashSet};
pub use profile::EngineProfile;
pub use rng::Pcg32;
pub use time::{SimDuration, SimTime};
pub use wheel::{EventId, EventQueue};
