//! Minimal in-tree `criterion` stand-in (see `crates/compat/README.md`):
//! enough surface for `criterion_group!`/`criterion_main!` benches to
//! compile and produce simple wall-clock numbers. No statistics, HTML
//! reports or CLI filtering — each `bench_function` is timed with a
//! fixed warm-up and a fixed measurement batch.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named benchmark group (prefixes ids; `sample_size` is
    /// accepted and ignored).
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
        }
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        let per_iter = if b.iters == 0 {
            Duration::ZERO
        } else {
            b.elapsed / b.iters
        };
        println!(
            "{id:<40} {:>12} /iter ({} iters)",
            fmt_ns(per_iter),
            b.iters
        );
        self
    }
}

/// A named group of benchmarks (ids are prefixed with the group name).
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the simple harness self-sizes.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        self._criterion.bench_function(&full, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Per-benchmark timing handle.
pub struct Bencher {
    elapsed: Duration,
    iters: u32,
}

impl Bencher {
    /// Times repeated runs of `f`: a short warm-up pass sizes the
    /// measurement batch so the total stays around a few milliseconds
    /// for fast operations without starving slow ones.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up + calibration.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let target = Duration::from_millis(20);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
        let t1 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        self.elapsed = t1.elapsed();
        self.iters = iters;
    }
}

fn fmt_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Mirrors criterion's flat `criterion_group!(name, target, ...)` form.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Mirrors `criterion_main!(group, ...)`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
