//! Offline stand-in for `criterion`, covering the harness subset this
//! workspace's `benches/` use: benchmark groups, `bench_function` /
//! `bench_with_input`, throughput annotation, and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Like the real crate, running under `cargo test` (no `--bench` flag)
//! executes each benchmark body exactly once as a smoke test; under
//! `cargo bench` it warms up and then samples wall-clock time, reporting
//! mean ns/iter plus derived throughput.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Units for derived-rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Iterations process this many elements.
    Elements(u64),
    /// Iterations process this many bytes (binary units).
    Bytes(u64),
    /// Iterations process this many bytes (decimal units).
    BytesDecimal(u64),
}

/// A `group/function/parameter` benchmark identifier.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Identifier `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId { name: format!("{}/{}", name.into(), parameter) }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { name: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { name: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] runs the payload.
pub struct Bencher {
    mode: Mode,
    /// Mean ns per iteration measured by the last `iter` call.
    mean_ns: f64,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `cargo test`: run once, don't measure.
    Smoke,
    /// `cargo bench`: warm up, then sample.
    Measure { sample_size: u32 },
}

impl Bencher {
    /// Run the benchmark payload, timing it in measure mode.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        match self.mode {
            Mode::Smoke => {
                black_box(f());
            }
            Mode::Measure { sample_size } => {
                // Warm-up: run until ~100ms or 3 iterations.
                let warm_start = Instant::now();
                let mut warm = 0u32;
                while warm < 3 || warm_start.elapsed() < Duration::from_millis(100) {
                    black_box(f());
                    warm += 1;
                    if warm >= sample_size.max(3) {
                        break;
                    }
                }
                // Sample: bounded by sample_size iterations and ~2s wall
                // clock, whichever comes first.
                let budget = Duration::from_secs(2);
                let start = Instant::now();
                let mut iters = 0u64;
                while iters < sample_size as u64 && start.elapsed() < budget {
                    black_box(f());
                    iters += 1;
                }
                let iters = iters.max(1);
                self.mean_ns = start.elapsed().as_nanos() as f64 / iters as f64;
            }
        }
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: u32,
}

impl BenchmarkGroup<'_> {
    /// Annotate subsequent benchmarks with a per-iteration workload so a
    /// rate is reported alongside the time.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Number of measurement samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u32;
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(&id.name, &mut f);
        self
    }

    /// Run one benchmark taking a borrowed input.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        self.run(&id.name, &mut |b: &mut Bencher| f(b, input));
        self
    }

    fn run(&mut self, name: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let id = format!("{}/{name}", self.name);
        if self.criterion.filter.as_ref().is_some_and(|want| !id.contains(want.as_str())) {
            return;
        }
        let mode = if self.criterion.measure {
            Mode::Measure { sample_size: self.sample_size }
        } else {
            Mode::Smoke
        };
        let mut b = Bencher { mode, mean_ns: 0.0 };
        f(&mut b);
        if mode != Mode::Smoke {
            let mut line = format!("{}/{}: {:>12.1} ns/iter", self.name, name, b.mean_ns);
            if let Some(t) = self.throughput {
                let per_sec = |n: u64| n as f64 / (b.mean_ns / 1e9);
                match t {
                    Throughput::Elements(n) => {
                        line.push_str(&format!("  ({:.0} elem/s)", per_sec(n)));
                    }
                    Throughput::Bytes(n) => {
                        line.push_str(&format!("  ({:.1} MiB/s)", per_sec(n) / (1 << 20) as f64));
                    }
                    Throughput::BytesDecimal(n) => {
                        line.push_str(&format!("  ({:.1} MB/s)", per_sec(n) / 1e6));
                    }
                }
            }
            println!("{line}");
        }
    }

    /// End the group (reporting is incremental; this is a no-op hook).
    pub fn finish(self) {}
}

/// Benchmark driver. `--bench` in the process arguments (what
/// `cargo bench` passes to a `harness = false` target) selects measure
/// mode; otherwise benchmarks run once as smoke tests. The first argument
/// that is not a flag (`cargo bench -- executor`) runs only the benchmarks
/// whose `group/name` contains it.
pub struct Criterion {
    measure: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut args = std::env::args().skip(1);
        let measure = std::env::args().any(|a| a == "--bench");
        Criterion { measure, filter: args.find(|a| !a.starts_with('-')) }
    }
}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
            throughput: None,
            sample_size: 20,
        }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group("bench");
        g.bench_function(name, f);
        g.finish();
        self
    }
}

/// Collect benchmark functions into one runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_payload_once() {
        let mut c = Criterion { measure: false, filter: None };
        let mut runs = 0;
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(1));
        g.bench_function("f", |b| b.iter(|| runs += 1));
        g.finish();
        assert_eq!(runs, 1);
    }

    #[test]
    fn measure_mode_samples_and_reports() {
        let mut c = Criterion { measure: true, filter: None };
        let mut runs = 0u64;
        let mut g = c.benchmark_group("g");
        g.sample_size(5);
        g.bench_with_input(BenchmarkId::new("f", 1), &3u64, |b, &x| {
            b.iter(|| {
                runs += x;
            })
        });
        g.finish();
        assert!(runs > 0);
    }
}
