//! Simulated time.
//!
//! Time is kept as an integer number of nanoseconds since the start of the
//! simulation, which makes event ordering exact (no floating-point ties) and
//! arithmetic associative — both are required for run-to-run determinism.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time (nanoseconds since simulation start).
///
/// # Example
///
/// ```
/// use mwn_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(50);
/// assert_eq!(t.as_nanos(), 50_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
///
/// # Example
///
/// ```
/// use mwn_sim::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_secs_f64(), 0.0025);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time far beyond any practical simulation horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later than self"),
        )
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration does not fit in `u64` nanoseconds (about
    /// 584 years).
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration overflow"),
        }
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration(round_to_u64(s * 1e9))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The airtime of `bits` at `bits_per_sec`, rounded up to whole
    /// nanoseconds so that a receiver never finishes before the sender.
    pub fn for_bits(bits: u64, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "bit rate must be positive");
        let ns = match bits.checked_mul(1_000_000_000) {
            Some(scaled) => scaled.div_ceil(bits_per_sec),
            None => (u128::from(bits) * 1_000_000_000).div_ceil(u128::from(bits_per_sec)) as u64,
        };
        SimDuration(ns)
    }
}

/// `v.round() as u64` for `v ≥ 0` — halves away from zero, saturating at
/// `u64::MAX` — without a libm call: truncate, then add one when the
/// dropped fraction is at least one half. The fraction is exact: below
/// 2⁶⁴ the truncation lies within a factor of two of `v` (or is zero),
/// so the subtraction is exact.
fn round_to_u64(v: f64) -> u64 {
    let t = v as u64;
    if v - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Non-negative reals where rounding is delicate: effect-list delays,
    /// exact ties at .5, and magnitudes at and past 2⁵² and 2⁶⁴.
    fn delicate_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0f64..4000.0,
            0.0f64..1e12,
            (0u64..1 << 51).prop_map(|k| k as f64 + 0.5),
            (0u64..1 << 20).prop_map(|k| k as f64 + 0.5),
            (1u64 << 52..=u64::MAX).prop_map(|k| k as f64),
            (0.0f64..4.0).prop_map(|f| f * 2f64.powi(64)),
        ]
    }

    proptest! {
        #[test]
        fn round_to_u64_matches_libm_round(v in delicate_f64()) {
            prop_assert_eq!(round_to_u64(v), v.round() as u64, "v = {}", v);
            prop_assert_eq!(
                SimDuration::from_secs_f64(v / 1e9).as_nanos(),
                (v / 1e9 * 1e9).round() as u64,
                "s = {}", v / 1e9
            );
        }

        #[test]
        fn for_bits_matches_wide_arithmetic(
            bits in prop_oneof![0u64..100_000, 0u64..=u64::MAX, (1u64 << 34)..(1u64 << 35)],
            rate in prop_oneof![1u64..100_000_000, 1u64..=u64::MAX, 1u64..4],
        ) {
            let wide = (bits as u128 * 1_000_000_000).div_ceil(rate as u128) as u64;
            prop_assert_eq!(SimDuration::for_bits(bits, rate).as_nanos(), wide);
        }
    }

    #[test]
    fn round_to_u64_edges() {
        for (v, r) in [
            (0.0, 0),
            (-0.0, 0),
            (0.49999999999999994, 0),
            (0.5, 1),
            (2.5, 3),
            (1e300, u64::MAX),
        ] {
            assert_eq!(round_to_u64(v), r, "{v}");
            assert_eq!(round_to_u64(v), v.round() as u64, "{v}");
        }
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_millis(3);
        assert_eq!(t.duration_since(SimTime::ZERO), SimDuration::from_millis(3));
        assert_eq!(t - SimDuration::from_millis(3), SimTime::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn airtime_rounds_up() {
        // 1 bit at 3 bit/s = 333333333.33 ns, must round up.
        assert_eq!(SimDuration::for_bits(1, 3).as_nanos(), 333_333_334);
        // Exact case: 1000 bits at 1 Mbit/s = 1 ms.
        assert_eq!(
            SimDuration::for_bits(1000, 1_000_000),
            SimDuration::from_millis(1)
        );
        // 802.11b data frame: 1528 bytes at 2 Mbit/s = 6112 us.
        assert_eq!(
            SimDuration::for_bits(1528 * 8, 2_000_000),
            SimDuration::from_micros(6112)
        );
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(20);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_nanos(5).saturating_sub(SimDuration::from_nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "SimDuration overflow")]
    fn from_secs_panics_on_overflow() {
        let max = u64::MAX / 1_000_000_000;
        assert_eq!(SimDuration::from_secs(max).as_nanos(), max * 1_000_000_000);
        let _ = SimDuration::from_secs(max + 1);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_reversed_order() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(format!("{}", SimDuration::from_micros(50)), "50.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(29)), "29.000ms");
        assert_eq!(
            format!("{}", SimTime::from_nanos(1_500_000_000)),
            "1.500000s"
        );
    }

    #[test]
    fn scalar_mul_div() {
        assert_eq!(
            SimDuration::from_micros(20) * 31,
            SimDuration::from_micros(620)
        );
        assert_eq!(
            SimDuration::from_micros(620) / 31,
            SimDuration::from_micros(20)
        );
    }
}
