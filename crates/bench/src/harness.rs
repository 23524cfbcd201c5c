//! Minimal Criterion-compatible benchmark harness.
//!
//! The bench targets in `benches/` were written against the tiny slice of
//! the `criterion` API they actually use (`benchmark_group`,
//! `bench_function`, `bench_with_input`, `sample_size`, `BenchmarkId`,
//! `criterion_group!`/`criterion_main!`). This module provides that slice
//! in-tree so the workspace builds offline, with no registry dependencies.
//!
//! Measurement model: each benchmark takes up to `sample_size` samples
//! (one routine call per sample, after one warm-up call), stops early once
//! a per-benchmark wall-clock budget is exhausted, and reports the minimum
//! and mean sample times. This is a smoke-and-trend harness, not a
//! statistics engine — the paper's tables are regenerated by the
//! `experiments` binary, which does its own timing.

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-benchmark sampling budget: stop taking samples past this much
/// wall-clock time even if fewer than `sample_size` were collected.
const SAMPLE_BUDGET: Duration = Duration::from_secs(3);

/// Top-level harness state; mirrors `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// A named group of related benchmarks; mirrors
/// `criterion::BenchmarkGroup`.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples taken per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs a benchmark identified by a plain name.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut f);
        self
    }

    /// Runs a benchmark parameterized by an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.to_string(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Ends the group (prints nothing extra; kept for API parity).
    pub fn finish(self) {}

    fn run(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
        };
        // Warm-up call, untimed.
        f(&mut b);
        let budget_start = Instant::now();
        let mut samples: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            b.elapsed = Duration::ZERO;
            f(&mut b);
            samples.push(b.elapsed);
            if budget_start.elapsed() > SAMPLE_BUDGET {
                break;
            }
        }
        let min = samples.iter().min().copied().unwrap_or_default();
        let mean = samples.iter().sum::<Duration>() / samples.len().max(1) as u32;
        println!(
            "{}/{:<40} samples: {:>3}  min: {:>12?}  mean: {:>12?}",
            self.name,
            id,
            samples.len(),
            min,
            mean,
        );
    }
}

/// Timing handle passed to benchmark closures; mirrors
/// `criterion::Bencher`.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
}

impl Bencher {
    /// Times one call of `routine`, preventing the optimizer from deleting
    /// its result.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        black_box(routine());
        self.elapsed += start.elapsed();
    }
}

/// A benchmark identifier combining a function name and a parameter;
/// mirrors `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a `Display`-able parameter.
    pub fn new(name: impl Into<String>, param: impl fmt::Display) -> Self {
        BenchmarkId {
            name: name.into(),
            param: param.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.param)
    }
}

/// Declares a benchmark group function, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        /// Runs this group's benchmarks.
        pub fn $name() {
            let mut criterion = $crate::harness::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench entry point, mirroring `criterion::criterion_main!`.
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
    fn benchmark_id_formats_like_criterion() {
        let id = BenchmarkId::new("spdb_extract", 1000);
        assert_eq!(id.to_string(), "spdb_extract/1000");
    }

    #[test]
    fn group_runs_closures_and_counts_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut calls = 0u32;
        group.bench_function("counter", |b| {
            calls += 1;
            b.iter(|| 1 + 1)
        });
        group.finish();
        // One warm-up call plus three samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn bench_with_input_passes_input_through() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(1);
        let data = vec![1u32, 2, 3];
        let mut seen = 0;
        group.bench_with_input(BenchmarkId::new("sum", data.len()), &data, |b, d| {
            seen = d.len();
            b.iter(|| d.iter().sum::<u32>())
        });
        assert_eq!(seen, 3);
    }
}
