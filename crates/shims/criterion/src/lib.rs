//! Vendored, dependency-free subset of the `criterion` API.
//!
//! The build environment has no access to crates.io; this shim keeps the
//! workspace's `#[bench]`-free Criterion benchmarks compiling and running.
//! Measurement is deliberately simple — warm up by doubling a batch until
//! it fills 1/20 of a fixed measurement window, size the window from that
//! batch, time it as five sub-windows and report their mean and minimum
//! wall-clock time per iteration — which is enough to compare hot-path
//! variants (the only thing the repo's benches are used for). No plots, no
//! statistics beyond min/mean, no saved baselines.
//!
//! A positional command-line argument filters benchmarks by substring,
//! mirroring `cargo bench -- <filter>`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement driver handed to bench closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `routine` `iters` times, timing the whole batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Top-level benchmark runner.
pub struct Criterion {
    filter: Option<String>,
    /// Target wall-clock time for one measurement window.
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        // First free-standing CLI argument is a name filter (cargo bench
        // passes flags like `--bench` too; skip anything dash-prefixed).
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter, measurement: Duration::from_millis(400) }
    }
}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run_one(id, f);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_string() }
    }

    fn matches(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        if !self.matches(id) {
            return;
        }
        // Warm-up + calibration: double the batch until one batch fills at
        // least 1/20 of the window, so the per-iteration estimate comes
        // from a warm batch, not from one cold iteration.
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
        while b.elapsed < self.measurement / 20 && b.iters < MAX_ITERS {
            b.iters *= 2;
            f(&mut b);
        }
        // The window, sized from that batch, is timed as SUB_WINDOWS
        // batches: their mean is the estimate, their minimum the floor.
        let per_iter_ns = b.elapsed.as_nanos().max(1) as f64 / b.iters as f64;
        let sub_ns = self.measurement.as_nanos() as f64 / SUB_WINDOWS as f64;
        b.iters = ((sub_ns / per_iter_ns) as u64).clamp(1, MAX_ITERS);
        let (mut sum_ns, mut min_ns) = (0.0, f64::INFINITY);
        for _ in 0..SUB_WINDOWS {
            f(&mut b);
            let ns = b.elapsed.as_nanos() as f64 / b.iters as f64;
            sum_ns += ns;
            min_ns = min_ns.min(ns);
        }
        println!(
            "{id:<55} {:>14}/iter  (min {}, {SUB_WINDOWS} x {} iters)",
            format_ns(sum_ns / SUB_WINDOWS as f64),
            format_ns(min_ns),
            b.iters
        );
    }
}

/// Sub-windows the measurement window is split into.
const SUB_WINDOWS: u32 = 5;
/// Upper bound on one batch's iteration count.
const MAX_ITERS: u64 = 1 << 20;

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's fixed measurement window
    /// ignores the requested sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        self.criterion.run_one(&full, f);
        self
    }

    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        self.criterion.run_one(&full, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Bundles bench functions into a group runner, as `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Emits `main` running the given groups, as `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion { filter: None, measurement: Duration::from_millis(5) };
        let mut ran = 0u64;
        c.bench_function("noop", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c =
            Criterion { filter: Some("match".into()), measurement: Duration::from_millis(5) };
        let mut ran = false;
        c.bench_function("other", |b| b.iter(|| ran = true));
        assert!(!ran);
        c.bench_function("does_match", |b| b.iter(|| ran = true));
        assert!(ran);
    }

    #[test]
    fn group_ids_compose() {
        let id = BenchmarkId::new("rmat", 4096);
        assert_eq!(id.id, "rmat/4096");
        assert_eq!(BenchmarkId::from_parameter("8pct").id, "8pct");
    }
}
