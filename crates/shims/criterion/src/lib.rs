//! # criterion (offline shim)
//!
//! A minimal stand-in for the subset of the `criterion` 0.5 API used by
//! the benches in `crates/bench/benches/`. The build environment has no
//! crates.io access, so the workspace pins `criterion` to this path
//! crate (see the root `Cargo.toml`).
//!
//! Semantics: each `bench_function` warms up once, picks an iteration
//! count targeting ~`measurement_ms` of wall-clock (bounded), runs it,
//! and prints the mean time per iteration. No statistics, plots, or
//! baselines — just enough to exercise the hot paths and print honest
//! numbers. Swapping in real criterion is a one-line manifest change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (the real crate forwards
/// to `std::hint::black_box` on recent toolchains too).
pub use std::hint::black_box;

/// Top-level benchmark driver, handed to every `criterion_group!`
/// target function.
pub struct Criterion {
    measurement_ms: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        // HDB_BENCH_MS overrides the per-benchmark time budget.
        let measurement_ms = std::env::var("HDB_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300);
        Self { measurement_ms }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let budget_ms = self.measurement_ms;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            budget_ms,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into(), self.measurement_ms, &mut f);
        self
    }
}

/// A named group of benchmarks (`sample_size` is accepted for API
/// compatibility but ignored — the shim sizes runs by wall-clock).
pub struct BenchmarkGroup<'a> {
    // Held to keep the group's exclusive-borrow semantics identical to
    // real criterion, so code written against the shim keeps compiling
    // after a swap.
    _criterion: &'a mut Criterion,
    name: String,
    budget_ms: u64,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility with real criterion; the shim sizes
    /// runs by wall-clock budget instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the wall-clock budget for each benchmark in this group
    /// only (like real criterion, the setting dies with the group).
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.budget_ms = d.as_millis() as u64;
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into());
        run_one(&label, self.budget_ms, &mut f);
        self
    }

    /// Ends the group (no-op in the shim).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, budget_ms: u64, f: &mut F) {
    let mut bencher = Bencher {
        budget: Duration::from_millis(budget_ms),
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut bencher);
    let mean = if bencher.iters > 0 {
        bencher.total / bencher.iters as u32
    } else {
        Duration::ZERO
    };
    println!(
        "bench: {label:<50} {:>12.3?}/iter  ({} iters)",
        mean, bencher.iters
    );
}

/// Passed to the benchmark closure; runs and times the routine.
pub struct Bencher {
    budget: Duration,
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `routine`, repeating until the time budget is spent.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + calibration run.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let target = (self.budget.as_nanos() / once.as_nanos().max(1)).clamp(1, 10_000) as u64;
        let start = Instant::now();
        for _ in 0..target {
            black_box(routine());
        }
        self.total = start.elapsed();
        self.iters = target;
    }

    /// Times `routine` over fresh inputs from `setup`; setup time and
    /// dropping the routine's output are excluded from the measurement,
    /// as in the real crate.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibration.
        let input = setup();
        let start = Instant::now();
        let output = black_box(routine(input));
        let once = start.elapsed().max(Duration::from_nanos(1));
        drop(output);
        let target = (self.budget.as_nanos() / once.as_nanos().max(1)).clamp(1, 1_000) as u64;
        let mut total = Duration::ZERO;
        for _ in 0..target {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            total += start.elapsed();
            drop(output);
        }
        self.total = total;
        self.iters = target;
    }
}

/// Batch sizing hint (ignored by the shim).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Declares a function that runs the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` forwards harness flags like --bench; accept
            // and ignore whatever argv contains.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion {
            measurement_ms: 1,
        };
        let mut ran = false;
        c.bench_function("smoke", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn group_runs_and_finishes() {
        let mut c = Criterion {
            measurement_ms: 1,
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(10);
        let mut count = 0;
        group.bench_function("batched", |b| {
            b.iter_batched(|| 5, |x| x * 2, BatchSize::LargeInput);
            count += 1;
        });
        group.finish();
        assert_eq!(count, 1);
    }
}
