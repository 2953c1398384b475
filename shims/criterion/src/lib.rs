//! Minimal `criterion` stand-in: a plain timing loop with the criterion
//! 0.8 API shape (`benchmark_group`, `bench_with_input`, `Throughput`,
//! `criterion_group!`/`criterion_main!`).
//!
//! Sampling is intentionally lightweight — a short warm-up, then
//! `sample_size` timed iterations, reporting min/median/mean — because the
//! repo's benches are driven through CI smoke checks, not statistical
//! regression gates.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
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

pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(200),
            measurement_time: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("benchmark group: {name}");
        BenchmarkGroup {
            name,
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            throughput: None,
            _criterion: std::marker::PhantomData,
        }
    }
}

pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
    _criterion: std::marker::PhantomData<&'c mut Criterion>,
}

impl<'c> BenchmarkGroup<'c> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
        };
        f(&mut bencher);
        self.report(&id, &bencher.samples);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
        };
        f(&mut bencher, input);
        self.report(&id, &bencher.samples);
        self
    }

    pub fn finish(self) {}

    fn report(&self, id: &BenchmarkId, samples: &[Duration]) {
        if samples.is_empty() {
            eprintln!("  {}/{}: no samples", self.name, id.id);
            return;
        }
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort();
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if mean.as_secs_f64() > 0.0 => {
                format!(" ({:.3e} elem/s)", n as f64 / mean.as_secs_f64())
            }
            Some(Throughput::Bytes(n)) if mean.as_secs_f64() > 0.0 => {
                format!(" ({:.3} GB/s)", n as f64 / mean.as_secs_f64() / 1e9)
            }
            _ => String::new(),
        };
        eprintln!(
            "  {}/{}: min {:?}, median {:?}, mean {:?} over {} samples{}",
            self.name,
            id.id,
            min,
            median,
            mean,
            sorted.len(),
            rate
        );
    }
}

pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up: run until the warm-up budget is spent (at least once).
        let warm_start = Instant::now();
        loop {
            black_box(routine());
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        // Measurement: `sample_size` timed runs, capped by the measurement
        // budget (but always at least one sample).
        let measure_start = Instant::now();
        for i in 0..self.sample_size {
            let t = Instant::now();
            black_box(routine());
            self.samples.push(t.elapsed());
            if i > 0 && measure_start.elapsed() >= self.measurement_time {
                break;
            }
        }
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

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

    fn quick(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim_self_test");
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(20));
        group.throughput(Throughput::Elements(1000));
        group.bench_function(BenchmarkId::from_parameter("sum"), |b| {
            b.iter(|| (0..1000u64).sum::<u64>())
        });
        group.bench_with_input(BenchmarkId::new("scaled", 4), &4u64, |b, &k| {
            b.iter(|| (0..1000u64 * k).sum::<u64>())
        });
        group.finish();
    }

    #[test]
    fn harness_runs() {
        let mut c = Criterion::default();
        quick(&mut c);
    }

    criterion_group!(benches, quick);

    #[test]
    fn group_macro_compiles() {
        benches();
    }
}
