//! Deterministic pseudo-random number generation.

/// A PCG-XSH-RR 64/32 pseudo-random number generator.
///
/// Implemented locally (rather than depending on an external crate) so that
/// simulation runs are bit-for-bit reproducible regardless of dependency
/// versions. The generator passes PractRand/TestU01 per the PCG paper and is
/// far better than the needs of a network simulation.
///
/// # Example
///
/// ```
/// use mwn_sim::Pcg32;
///
/// let mut a = Pcg32::new(42);
/// let mut b = Pcg32::new(42);
/// assert_eq!(a.next_u32(), b.next_u32());
/// let x = a.gen_range_u32(10); // 0..10
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;
const PCG_DEFAULT_STREAM: u64 = 1442695040888963407;

impl Pcg32 {
    /// Creates a generator from a seed, using the default stream.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, PCG_DEFAULT_STREAM >> 1)
    }

    /// Creates a generator from a seed on a specific stream; different
    /// streams produce statistically independent sequences.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        let _ = rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        let _ = rng.next_u32();
        rng
    }

    /// Derives an independent child generator; useful for giving each model
    /// component its own stream while keeping a single root seed.
    pub fn fork(&mut self) -> Pcg32 {
        let seed = self.next_u64();
        let stream = self.next_u64();
        Pcg32::with_stream(seed, stream)
    }

    /// The child [`Pcg32::fork`] would return after `k` earlier forks,
    /// without drawing them: each fork consumes four outputs, so this
    /// is a copy advanced `4k` steps, forked once. `self` is unchanged.
    pub fn fork_at(&self, k: u64) -> Pcg32 {
        let mut rng = self.clone();
        rng.advance(k.wrapping_mul(4));
        rng.fork()
    }

    /// Skips `delta` outputs in O(log delta): the state becomes what
    /// `delta` calls of [`Pcg32::next_u32`] would leave. The LCG step
    /// `s ↦ a·s + c` composed with itself is again such a step, so the
    /// skip squares its way up through the bits of `delta` (Brown,
    /// "Random number generation with arbitrary strides", 1994).
    pub fn advance(&mut self, mut delta: u64) {
        let (mut mult, mut plus) = (PCG_MULT, self.inc);
        let (mut acc_mult, mut acc_plus) = (1u64, 0u64);
        while delta > 0 {
            if delta & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(mult);
                acc_plus = acc_plus.wrapping_mul(mult).wrapping_add(plus);
            }
            plus = mult.wrapping_add(1).wrapping_mul(plus);
            mult = mult.wrapping_mul(mult);
            delta >>= 1;
        }
        self.state = acc_mult.wrapping_mul(self.state).wrapping_add(acc_plus);
    }

    /// Next uniformly distributed 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next uniformly distributed 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform integer in `0..bound` (Lemire's method, bias-free).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range_u32(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "gen_range_u32: bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            let m = u64::from(r) * u64::from(bound);
            if (m as u32) >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform integer in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range_u64: bound must be positive");
        if bound <= u64::from(u32::MAX) {
            return u64::from(self.gen_range_u32(bound as u32));
        }
        // Rejection sampling over the smallest covering power of two.
        let mask = u64::MAX >> (bound - 1).leading_zeros();
        loop {
            let r = self.next_u64() & mask;
            if r < bound {
                return r;
            }
        }
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range"
        );
        lo + self.gen_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reference_values_are_stable() {
        // Golden values: determinism guard. If these change, every recorded
        // experiment in EXPERIMENTS.md changes too.
        let mut rng = Pcg32::new(0);
        let first: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
        assert_eq!(first, vec![0xE823A24E, 0x7A7ECBD9, 0x89FD6C06, 0xAE646AA8]);
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Pcg32::new(123);
        let mut b = Pcg32::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::new(1);
        let mut b = Pcg32::new(2);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 3, "sequences nearly identical: {same} collisions");
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = Pcg32::new(7);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        let same = (0..100).filter(|_| c1.next_u32() == c2.next_u32()).count();
        assert!(same < 3);
    }

    #[test]
    fn advance_matches_stepping() {
        let start = Pcg32::new(2024);
        for k in [0u64, 1, 2, 3, 4, 7, 64, 1000, 4097] {
            let (mut stepped, mut skipped) = (start.clone(), start.clone());
            for _ in 0..k {
                stepped.next_u32();
            }
            skipped.advance(k);
            assert_eq!(skipped, stepped, "k = {k}");
        }
    }

    /// Skips past 2³² outputs compose like any other, and the generator's
    /// period is 2⁶⁴: `2⁶⁴ − 1` skips and one step come back to the start.
    #[test]
    fn advance_beyond_two_to_the_32_composes_and_wraps_the_period() {
        let start = Pcg32::new(99);
        let mut whole = start.clone();
        whole.advance((1 << 33) + 5);
        let mut halves = start.clone();
        halves.advance(1 << 32);
        halves.advance((1 << 32) + 5);
        assert_eq!(whole, halves);
        let mut around = start.clone();
        around.advance(u64::MAX);
        around.next_u32();
        assert_eq!(around, start);
    }

    #[test]
    fn fork_at_matches_sequential_forks() {
        let root = Pcg32::new(7);
        let mut sequential = root.clone();
        for k in 0..40 {
            assert_eq!(root.fork_at(k), sequential.fork(), "fork {k}");
        }
    }

    #[test]
    fn range_mean_is_plausible() {
        let mut rng = Pcg32::new(99);
        let n = 20_000;
        let sum: u64 = (0..n)
            .map(|_| u64::from(rng.gen_range_u32(100)))
            .collect::<Vec<_>>()
            .iter()
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 49.5).abs() < 1.0, "mean {mean} too far from 49.5");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        Pcg32::new(0).gen_range_u32(0);
    }

    proptest! {
        #[test]
        fn gen_range_u32_in_bounds(seed: u64, bound in 1u32..=u32::MAX) {
            let mut rng = Pcg32::new(seed);
            for _ in 0..32 {
                prop_assert!(rng.gen_range_u32(bound) < bound);
            }
        }

        #[test]
        fn gen_range_u64_in_bounds(seed: u64, bound in 1u64..=u64::MAX) {
            let mut rng = Pcg32::new(seed);
            for _ in 0..32 {
                prop_assert!(rng.gen_range_u64(bound) < bound);
            }
        }

        #[test]
        fn advance_is_stepping_and_composes(seed: u64, k in 0u64..2048, far: u64) {
            let start = Pcg32::new(seed);
            let mut stepped = start.clone();
            for _ in 0..k {
                stepped.next_u32();
            }
            let mut skipped = start.clone();
            skipped.advance(k);
            prop_assert_eq!(&skipped, &stepped);
            // A far skip then `k` more is one skip of the sum.
            let mut two = start.clone();
            two.advance(far);
            two.advance(k);
            let mut one = start;
            one.advance(far.wrapping_add(k));
            prop_assert_eq!(two, one);
        }

        #[test]
        fn fork_at_is_the_kth_sequential_fork(seed: u64, k in 0u64..64) {
            let root = Pcg32::new(seed);
            let mut sequential = root.clone();
            for _ in 0..k {
                sequential.fork();
            }
            prop_assert_eq!(root.fork_at(k), sequential.fork());
        }

        #[test]
        fn gen_f64_in_unit_interval(seed: u64) {
            let mut rng = Pcg32::new(seed);
            for _ in 0..64 {
                let x = rng.gen_f64();
                prop_assert!((0.0..1.0).contains(&x));
            }
        }

        #[test]
        fn gen_range_f64_in_bounds(seed: u64, lo in -1e6f64..1e6, width in 0.0f64..1e6) {
            let mut rng = Pcg32::new(seed);
            let hi = lo + width;
            for _ in 0..16 {
                let x = rng.gen_range_f64(lo, hi);
                prop_assert!(x >= lo && (x < hi || lo == hi));
            }
        }
    }
}
