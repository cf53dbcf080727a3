//! A minimal wall-clock benchmarking harness with a Criterion-flavoured API.
//!
//! The container this repository builds in has no network access, so the
//! real Criterion crate cannot be fetched; this std-only stand-in keeps the
//! bench sources close to their original shape (`benchmark_group`,
//! `bench_function`, `Bencher::iter`, `black_box`) while adding the one
//! thing the project needs from a harness: machine-readable baselines.
//! Setting `BENCH_OUT=<path>` writes every recorded statistic as a JSON
//! array so successive PRs have a perf trajectory to compare against.
//!
//! Two environment overrides support CI smoke runs: `BENCH_SAMPLE_SIZE`
//! and `BENCH_MEASUREMENT_MS` replace every group's sampling parameters,
//! so a pipeline can execute the full bench surface in seconds just to
//! prove the harness still runs.  Benchmarks may also attach gauge
//! metrics (BDD node counts, cache hit rates, …) to their most recent
//! result via [`BenchmarkGroup::attach_metrics`]; metrics are printed and
//! serialised alongside the timing columns.
//!
//! The host these baselines are recorded on is shared and its throughput
//! drifts by tens of percent between runs, so every timed sample is
//! bracketed by a fixed reference kernel (the idea of the end-to-end
//! benchmark's host-speed reference), run three times at each bracket point
//! so that one spike cannot set a sample's factor: each row records how
//! much slower than nominal the kernel ran around its samples
//! (`host_slowdown`) and the median of the samples each divided by that
//! factor (`scaled_median_ns`).  A slower host moves a row's median and its
//! kernel together, so the scaled median of identical code moves much less
//! than the raw one.  Each benchmark also runs one untimed warm-up pass
//! before its samples.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimiser from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The reference kernel's typical time on a 2.1 GHz Xeon, so that scaled
/// times read roughly as times on that host.
pub const NOMINAL_KERNEL_S: f64 = 0.021;

/// Kernel runs at each bracket point of a sample; their median stands for
/// the point.
const KERNEL_RUNS: usize = 3;

/// `u64` words of the table that misses L2 (8 MiB), and the dependent reads
/// per kernel call from it.
const LARGE_WORDS: usize = 1 << 20;
const LARGE_READS: usize = 90_000;
/// `u64` words sorted per kernel call (512 KiB, fits in L2), and how often.
const SORT_WORDS: usize = 1 << 16;
const SORTS: usize = 6;

/// The host-speed reference: a fixed kernel, independent of the code under
/// test, that mixes the two kinds of work the solvers do — dependent random
/// reads from a table four times a core's L2 cache (like BDD unique tables
/// and op caches) and branchy sorts of a table that fits in L2 — and does
/// the same work on every call.
struct Reference {
    large: Vec<u64>,
    unsorted: Vec<u64>,
    scratch: Vec<u64>,
}

/// One SplitMix64 step; fills the kernel's tables with fixed words.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `reads` dependent reads from `table`, each address taken from the word
/// read before it.
fn chase(table: &[u64], reads: usize) -> u64 {
    let mask = table.len() - 1;
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..reads {
        let word = table[at];
        acc = acc.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(word);
        at = (word ^ (acc >> 17)) as usize & mask;
    }
    acc
}

impl Reference {
    /// Allocates the kernel's tables and runs it once untimed, so the first
    /// timed call does not pay for page faults.
    fn new() -> Self {
        let table = |words: usize, salt: u64| (0..words as u64).map(|i| mix(i ^ salt)).collect();
        let mut reference = Reference {
            large: table(LARGE_WORDS, 0),
            unsorted: table(SORT_WORDS, 1 << 40),
            scratch: vec![0; SORT_WORDS],
        };
        reference.time();
        reference
    }

    /// Runs the kernel once and returns its wall time in seconds.
    fn time(&mut self) -> f64 {
        let start = Instant::now();
        black_box(chase(black_box(&self.large), LARGE_READS));
        for _ in 0..SORTS {
            self.scratch.copy_from_slice(black_box(&self.unsorted));
            self.scratch.sort_unstable();
            black_box(&self.scratch);
        }
        start.elapsed().as_secs_f64()
    }
}

/// Statistics of one benchmark id, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct SampleStats {
    /// `group/function` identifier.
    pub id: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (robust central estimate).
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// How much slower than [`NOMINAL_KERNEL_S`] the reference kernel ran
    /// around the samples: the mean of the kernel times over nominal.
    pub host_slowdown: f64,
    /// Median of the samples, each divided by the host slowdown measured
    /// around it — the column to compare across runs.
    pub scaled_median_ns: f64,
    /// Gauge metrics attached after timing (name → value), e.g. BDD node
    /// counts.  Serialised as extra JSON fields next to the timing columns.
    pub metrics: Vec<(String, f64)>,
}

/// Top-level collector of benchmark results.
pub struct Criterion {
    results: Vec<SampleStats>,
    sample_size_override: Option<usize>,
    measurement_time_override: Option<Duration>,
    reference: Reference,
}

impl Default for Criterion {
    /// Same as [`Criterion::new`] — the environment overrides apply however
    /// the collector is constructed.
    fn default() -> Self {
        Criterion::new()
    }
}

impl Criterion {
    /// Creates an empty collector, honouring the `BENCH_SAMPLE_SIZE` and
    /// `BENCH_MEASUREMENT_MS` environment overrides.
    pub fn new() -> Self {
        let parse = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
        Criterion {
            results: Vec::new(),
            sample_size_override: parse("BENCH_SAMPLE_SIZE").map(|n| n.max(1) as usize),
            measurement_time_override: parse("BENCH_MEASUREMENT_MS").map(Duration::from_millis),
            reference: Reference::new(),
        }
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size_override.unwrap_or(10);
        let measurement_time = self.measurement_time_override.unwrap_or(Duration::from_secs(3));
        BenchmarkGroup { criterion: self, name: name.into(), sample_size, measurement_time }
    }

    /// Prints the summary table and, when `BENCH_OUT` is set, writes the
    /// results as JSON to that path.
    pub fn finish(self) {
        println!(
            "\n{:<40} {:>12} {:>12} {:>12} {:>12} {:>6} {:>8}",
            "benchmark", "median", "mean", "min", "scaled", "host", "n"
        );
        for r in &self.results {
            println!(
                "{:<40} {:>12} {:>12} {:>12} {:>12} {:>6.2} {:>8}",
                r.id,
                format_ns(r.median_ns),
                format_ns(r.mean_ns),
                format_ns(r.min_ns),
                format_ns(r.scaled_median_ns),
                r.host_slowdown,
                r.samples
            );
            if !r.metrics.is_empty() {
                let rendered: Vec<String> =
                    r.metrics.iter().map(|(k, v)| format!("{k}={v:.0}")).collect();
                println!("{:<40}   {}", "", rendered.join("  "));
            }
        }
        if let Ok(path) = std::env::var("BENCH_OUT") {
            match std::fs::write(&path, results_to_json(&self.results)) {
                Ok(()) => println!("\nresults written to {path}"),
                Err(e) => eprintln!("\ncould not write {path}: {e}"),
            }
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn results_to_json(results: &[SampleStats]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let mut metrics = String::new();
        for (name, value) in &r.metrics {
            metrics.push_str(&format!(", \"{}\": {:.1}", name.replace('"', "\\\""), value));
        }
        out.push_str(&format!(
            "  {{\"id\": \"{}\", \"samples\": {}, \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \
             \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"host_slowdown\": {:.3}, \
             \"scaled_median_ns\": {:.1}{}}}{}\n",
            r.id.replace('"', "\\\""),
            r.samples,
            r.mean_ns,
            r.median_ns,
            r.min_ns,
            r.max_ns,
            r.host_slowdown,
            r.scaled_median_ns,
            metrics,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// A named group sharing sampling parameters.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark (ignored when the
    /// `BENCH_SAMPLE_SIZE` environment override is active).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if self.criterion.sample_size_override.is_none() {
            self.sample_size = n.max(1);
        }
        self
    }

    /// Sets the soft time budget per benchmark; sampling stops early when it
    /// is exhausted (at least one sample is always taken).  Ignored when the
    /// `BENCH_MEASUREMENT_MS` environment override is active.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        if self.criterion.measurement_time_override.is_none() {
            self.measurement_time = d;
        }
        self
    }

    /// Attaches gauge metrics (name → value) to the most recently recorded
    /// benchmark of *this group*.  Panics if the group has not recorded a
    /// benchmark yet, so metrics can never silently land on another
    /// group's row.
    pub fn attach_metrics(&mut self, metrics: &[(&str, f64)]) {
        let prefix = format!("{}/", self.name);
        let last = self
            .criterion
            .results
            .last_mut()
            .filter(|r| r.id.starts_with(&prefix))
            .expect("attach_metrics requires a benchmark recorded by this group");
        last.metrics.extend(metrics.iter().map(|&(k, v)| (k.to_owned(), v)));
    }

    /// Times `f` (which must drive a [`Bencher`]) and records the result.
    pub fn bench_function(&mut self, id: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let full_id = format!("{}/{}", self.name, id.into());
        let mut bencher = Bencher {
            samples: Vec::new(),
            reference: &mut self.criterion.reference,
            kernel_s: None,
            kernel_total: Duration::ZERO,
            warm_up: true,
        };
        // One untimed warm-up pass populates caches and allocators.
        f(&mut bencher);
        bencher.warm_up = false;
        // The time budget covers the routine, not the reference kernel.
        let budget = Instant::now();
        loop {
            f(&mut bencher);
            if bencher.samples.len() >= self.sample_size
                || budget.elapsed().saturating_sub(bencher.kernel_total) >= self.measurement_time
            {
                break;
            }
        }
        assert!(
            !bencher.samples.is_empty(),
            "bench function '{full_id}' must call Bencher::iter at least once"
        );
        let samples = bencher.samples.len();
        let mut ns: Vec<f64> =
            bencher.samples.iter().map(|s| s.elapsed.as_secs_f64() * 1e9).collect();
        let mut scaled: Vec<f64> =
            bencher.samples.iter().zip(&ns).map(|(s, ns)| ns / s.slowdown).collect();
        let host_slowdown =
            bencher.samples.iter().map(|s| s.slowdown).sum::<f64>() / samples as f64;
        let mean_ns = ns.iter().sum::<f64>() / samples as f64;
        let stats = SampleStats {
            id: full_id,
            samples,
            mean_ns,
            median_ns: sorted_median(&mut ns),
            min_ns: ns[0],
            max_ns: ns[samples - 1],
            host_slowdown,
            scaled_median_ns: sorted_median(&mut scaled),
            metrics: Vec::new(),
        };
        println!("{:<40} {:>12} (n={})", stats.id, format_ns(stats.median_ns), stats.samples);
        self.criterion.results.push(stats);
    }

    /// Ends the group (kept for API parity; recording happens eagerly).
    pub fn finish(self) {}
}

/// Sorts a non-empty list and returns its median.
fn sorted_median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A sample's host slowdown from the kernel times at its two bracket
/// points: the mean of the two points' medians over nominal, so a spike in
/// any one of the six times moves it at most within the spread of the two
/// other times at that point.
fn sample_slowdown(mut before: [f64; KERNEL_RUNS], mut after: [f64; KERNEL_RUNS]) -> f64 {
    (sorted_median(&mut before) + sorted_median(&mut after)) / 2.0 / NOMINAL_KERNEL_S
}

/// One timed iteration and the host slowdown measured around it.
struct Sample {
    elapsed: Duration,
    slowdown: f64,
}

/// Times individual iterations inside one `bench_function` call.
pub struct Bencher<'a> {
    samples: Vec<Sample>,
    reference: &'a mut Reference,
    /// The kernel times taken right after the previous sample, which also
    /// serve as the next sample's "before" times.
    kernel_s: Option<[f64; KERNEL_RUNS]>,
    /// Wall time spent in the kernel so far.
    kernel_total: Duration,
    /// The untimed warm-up pass: run the routine, record nothing.
    warm_up: bool,
}

impl Bencher<'_> {
    /// Runs `f` once, timed; the routine records one sample per call.  The
    /// reference kernel runs three times before (shared with the previous
    /// sample) and three times after it, and the sample carries the mean of
    /// the two medians over nominal.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if self.warm_up {
            black_box(f());
            return;
        }
        let mut bracket = || -> [f64; KERNEL_RUNS] {
            std::array::from_fn(|_| {
                let seconds = self.reference.time();
                self.kernel_total += Duration::from_secs_f64(seconds);
                seconds
            })
        };
        let before = match self.kernel_s {
            Some(seconds) => seconds,
            None => bracket(),
        };
        let start = Instant::now();
        black_box(f());
        let elapsed = start.elapsed();
        let after = bracket();
        self.kernel_s = Some(after);
        self.samples.push(Sample { elapsed, slowdown: sample_slowdown(before, after) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_requested_samples() {
        let mut c = Criterion::new();
        {
            let mut g = c.benchmark_group("t");
            g.sample_size(5).measurement_time(Duration::from_secs(1));
            g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
            g.finish();
        }
        assert_eq!(c.results.len(), 1);
        assert_eq!(c.results[0].samples, 5);
        assert!(c.results[0].min_ns <= c.results[0].median_ns);
        assert!(c.results[0].median_ns <= c.results[0].max_ns);
    }

    #[test]
    fn samples_are_scaled_by_the_kernel_around_them() {
        let mut c = Criterion::new();
        let mut calls = 0;
        {
            let mut g = c.benchmark_group("t");
            g.sample_size(3).measurement_time(Duration::from_secs(5));
            g.bench_function("sleep", |b| {
                b.iter(|| {
                    calls += 1;
                    std::thread::sleep(Duration::from_millis(2))
                })
            });
            g.finish();
        }
        // One warm-up call, then the three timed samples.
        assert_eq!(calls, 4);
        let r = &c.results[0];
        assert_eq!(r.samples, 3);
        // The kernel ran in measurable time (far above nominal in an
        // unoptimised test build).
        assert!(r.host_slowdown > 0.0 && r.host_slowdown.is_finite(), "{}", r.host_slowdown);
        let expected = r.median_ns / r.host_slowdown;
        // Per-sample factors differ a little from their mean.
        assert!((r.scaled_median_ns / expected - 1.0).abs() < 0.5, "{r:?}");
    }

    #[test]
    fn the_reference_kernel_does_fixed_work() {
        let mut reference = Reference::new();
        assert_eq!(chase(&reference.large, 1000), chase(&reference.large, 1000));
        assert!(reference.time() > 0.0);
        assert!(reference.scratch.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn one_kernel_spike_leaves_the_slowdown_unchanged() {
        let (before, after) = ([0.021; KERNEL_RUNS], [0.042; KERNEL_RUNS]);
        let clean = sample_slowdown(before, after);
        assert!((clean - 1.5).abs() < 1e-12, "{clean}");
        for spike in 0..2 * KERNEL_RUNS {
            let (mut spiked_before, mut spiked_after) = (before, after);
            let time = match spike.checked_sub(KERNEL_RUNS) {
                None => &mut spiked_before[spike],
                Some(i) => &mut spiked_after[i],
            };
            *time *= 10.0;
            assert_eq!(sample_slowdown(spiked_before, spiked_after), clean, "kernel time {spike}");
        }
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let stats = SampleStats {
            id: "g/f".to_owned(),
            samples: 3,
            mean_ns: 10.0,
            median_ns: 9.0,
            min_ns: 8.0,
            max_ns: 13.0,
            host_slowdown: 1.25,
            scaled_median_ns: 7.2,
            metrics: vec![("bdd_nodes".to_owned(), 42.0)],
        };
        let json = results_to_json(&[stats]);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"id\": \"g/f\""));
        assert!(json.contains("\"host_slowdown\": 1.250, \"scaled_median_ns\": 7.2"));
        assert!(json.contains("\"bdd_nodes\": 42.0"));
        assert!(!json.contains("},\n]"), "no trailing comma");
    }

    #[test]
    #[should_panic(expected = "recorded by this group")]
    fn metrics_cannot_attach_across_groups() {
        let mut c = Criterion::new();
        {
            let mut g = c.benchmark_group("first");
            g.sample_size(1).measurement_time(Duration::from_secs(1));
            g.bench_function("bench", |b| b.iter(|| black_box(1)));
            g.finish();
        }
        // A fresh group with no recorded benchmark must not be able to tag
        // the previous group's row.
        let mut g = c.benchmark_group("second");
        g.attach_metrics(&[("nodes", 1.0)]);
    }

    #[test]
    fn metrics_attach_to_the_most_recent_result() {
        let mut c = Criterion::new();
        {
            let mut g = c.benchmark_group("t");
            g.sample_size(2).measurement_time(Duration::from_secs(1));
            g.bench_function("first", |b| b.iter(|| black_box(1)));
            g.bench_function("second", |b| b.iter(|| black_box(2)));
            g.attach_metrics(&[("nodes", 7.0), ("peak", 9.0)]);
            g.finish();
        }
        assert!(c.results[0].metrics.is_empty());
        assert_eq!(c.results[1].metrics, vec![("nodes".to_owned(), 7.0), ("peak".to_owned(), 9.0)]);
    }
}
