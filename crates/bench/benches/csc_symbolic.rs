//! Symbolic CSC solver bench: end-to-end state-signal insertion on BDDs,
//! from the Table 2 models up to a conflicted design beyond the explicit
//! solver's 64-signal representation limit.
//!
//! Run with `cargo bench -p bench --bench csc_symbolic`; set
//! `BENCH_OUT=BENCH_csc_symbolic.json` to record the machine-readable
//! baseline tracked at the repository root.
//!
//! The `csc_symbolic/solver` group times [`csc::solve_stg_symbolic`] on
//! conflicted models the explicit solver also handles, attaching the
//! inserted-signal counts of *both* solvers so the baseline documents the
//! quality parity (symbolic never inserts more on these rows), and the
//! explicit solver's time on the same model (`explicit_ms`, the median of
//! up to three timed solves), and the crossing-uniformity tests the block
//! search ran (`crossing_tests`, its deterministic work counter) with
//! those that built a target cofactor (`cofactor_crossings`).
//! `counter4` and `pipe4_4` are the two designs
//! that carry most of the `controllers` workload of the end-to-end
//! benchmark: `counter4` evaluates the most candidates of any Table 2
//! design, `pipe4_4` has the largest spaces.  `pipe4_5` is the next
//! pipeline size up.  The
//! `csc_symbolic/wide` group times the `wide_conflict` family — a CSC
//! conflict embedded in a wide product of handshakes — whose ≥64-signal
//! row cannot be attempted by the explicit pipeline at all.

use bench::harness::{black_box, Criterion};
use csc::{solve_stg, solve_stg_symbolic, SolverConfig};
use std::time::{Duration, Instant};
use stg::benchmarks;

fn solver_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("csc_symbolic/solver");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let models = [
        ("pulser", benchmarks::pulser()),
        ("vme_read", benchmarks::vme_read()),
        ("master_read_like", benchmarks::master_read_like()),
        ("seq8", benchmarks::sequencer(8)),
        ("counter2", benchmarks::counter(2)),
        ("pulser_bank2", benchmarks::pulser_bank(2)),
        ("counter4", benchmarks::counter(4)),
        ("pipe4_4", benchmarks::pipeline_4ph(4)),
        ("pipe4_5", benchmarks::pipeline_4ph(5)),
    ];
    let config = SolverConfig::default();
    for (name, model) in models {
        // The timed closure keeps its last solution for the quality columns.
        let last = std::cell::RefCell::new(None);
        group.bench_function(name, |b| {
            b.iter(|| {
                let solution = solve_stg_symbolic(&model, &config).unwrap();
                let inserted = solution.inserted_signals.len();
                *last.borrow_mut() = Some(solution);
                black_box(inserted)
            })
        });
        let symbolic = last.borrow_mut().take().expect("the bench ran at least once");
        // The explicit solver's median time (up to three solves, within the
        // group's 3 s) and signal count go next to the row; the symbolic
        // count must never exceed the explicit one on these tracked models.
        let budget = Instant::now();
        let mut times = Vec::new();
        let explicit = loop {
            let start = Instant::now();
            let explicit = solve_stg(&model, &config).unwrap();
            times.push(start.elapsed().as_secs_f64() * 1e3);
            if times.len() == 3 || budget.elapsed() >= Duration::from_secs(3) {
                break explicit;
            }
        };
        times.sort_by(f64::total_cmp);
        let explicit_ms = times[times.len() / 2];
        assert!(
            symbolic.inserted_signals.len() <= explicit.inserted_signals.len(),
            "{name}: symbolic {} > explicit {}",
            symbolic.inserted_signals.len(),
            explicit.inserted_signals.len()
        );
        group.attach_metrics(&[
            ("signals_inserted", symbolic.inserted_signals.len() as f64),
            ("signals_explicit", explicit.inserted_signals.len() as f64),
            ("final_states", symbolic.stats.final_states as f64),
            ("candidates_evaluated", symbolic.stats.stage.candidates_evaluated as f64),
            ("crossing_tests", symbolic.stats.stage.crossing_tests as f64),
            ("cofactor_crossings", symbolic.stats.stage.cofactor_crossings as f64),
            ("explicit_ms", explicit_ms),
        ]);
    }
    group.finish();
}

fn wide_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("csc_symbolic/wide");
    // Five samples per row: one sample moved `wide_conflict32`'s scaled
    // median by 14% between two recordings of the same build.  The time
    // budget never cuts the five short (a `wide_conflict32` solve takes a
    // fraction of a second).
    group.sample_size(5).measurement_time(Duration::from_secs(20));
    let config = SolverConfig::default();
    for n in [8usize, 16, 32] {
        let model = benchmarks::wide_conflict(n);
        let signals = model.num_signals();
        // The timed closure keeps its last solution so the metrics pass
        // below never re-solves.
        let last = std::cell::RefCell::new(None);
        group.bench_function(format!("wide_conflict{n}"), |b| {
            b.iter(|| {
                let solution = solve_stg_symbolic(&model, &config).unwrap();
                let inserted = solution.inserted_signals.len();
                *last.borrow_mut() = Some(solution);
                black_box(inserted)
            })
        });
        let solution = last.borrow_mut().take().expect("the bench ran at least once");
        assert!(!solution.stg.symbolic_csc_violation(0), "wide_conflict{n}: CSC must hold");
        let explicit_possible = signals <= 64;
        group.attach_metrics(&[
            ("signals", signals as f64),
            ("signals_inserted", solution.inserted_signals.len() as f64),
            // 6 · 4^n reachable states — far beyond explicit enumeration.
            ("states", 6.0 * 4f64.powi(n as i32)),
            ("explicit_possible", f64::from(u8::from(explicit_possible))),
        ]);
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    solver_families(&mut c);
    wide_designs(&mut c);
    c.finish();
}
