//! A vendored, dependency-free stand-in for the [`criterion`] crate.
//!
//! This repository must build with no registry access, so the workspace's
//! `criterion` dependency points here. Only the surface the `mwn` crate's
//! Criterion benches use is provided: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], [`BatchSize`], [`criterion_group!`] and
//! [`criterion_main!`].
//!
//! Measurement is deliberately simple — a warm-up pass to size the run,
//! then a fixed number of timed samples whose median, mean and spread are
//! printed. There is no statistical outlier analysis, HTML report or
//! baseline comparison; for those, build online against the real crate.
//!
//! [`criterion`]: https://crates.io/crates/criterion

use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup cost; accepted for API
/// compatibility, the fallback times each batch individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// One invocation per batch.
    PerIteration,
}

/// Per-benchmark timing driver handed to the closure of
/// [`Criterion::bench_function`].
pub struct Bencher {
    samples: usize,
    /// Measured per-iteration times, one entry per sample.
    results: Vec<Duration>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            results: Vec::new(),
        }
    }

    /// Times `routine`, called repeatedly.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up: find an iteration count that runs ≥ ~10 ms per sample.
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = t.elapsed();
            if elapsed >= Duration::from_millis(10) || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            self.results.push(t.elapsed() / iters as u32);
        }
    }

    /// Times `routine` over fresh state from `setup`, excluding setup cost
    /// as far as this simple harness can (setup runs outside the timer).
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        for _ in 0..self.samples {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            self.results.push(t.elapsed());
        }
    }
}

fn report(name: &str, mut times: Vec<Duration>) {
    if times.is_empty() {
        println!("{name:<40} (no samples)");
        return;
    }
    times.sort();
    let median = times[times.len() / 2];
    let total: Duration = times.iter().sum();
    let mean = total / times.len() as u32;
    let lo = times[0];
    let hi = times[times.len() - 1];
    println!(
        "{name:<40} median {median:>12?}  mean {mean:>12?}  [{lo:?} .. {hi:?}]  ({} samples)",
        times.len()
    );
}

/// The top-level harness object.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Runs one benchmark and prints its timing summary.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        report(name, b.results);
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("-- group: {name}");
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
        }
    }
}

/// A group of related benchmarks with an optional sample-size override.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        let mut b = Bencher::new(samples);
        f(&mut b);
        report(&format!("{}/{name}", self.name), b.results);
        self
    }

    /// Ends the group (printing nothing; kept for API compatibility).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, as the real criterion does.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion { sample_size: 3 };
        // Must terminate quickly and print one line.
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut setups = 0u32;
        let mut b = Bencher::new(5);
        b.iter_batched(
            || {
                setups += 1;
                vec![0u8; 16]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 5);
        assert_eq!(b.results.len(), 5);
    }

    #[test]
    fn group_sample_size_overrides_default() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("noop", |b| b.iter(|| ()));
        g.finish();
    }
}
