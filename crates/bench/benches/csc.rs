//! Explicit CSC solver bench: per-family solve times of
//! `solve_state_graph`.
//!
//! Run with `cargo bench -p bench --bench csc`; set `BENCH_OUT=BENCH_csc.json`
//! to record the machine-readable baseline tracked at the repository root.
//!
//! The `csc/solver` group times `solve_state_graph` (re-synthesis disabled,
//! state graph pre-built) over the sequencer / counter / parallel-handshake
//! families.

use bench::harness::{black_box, Criterion};
use csc::{solve_state_graph, SolverConfig};
use std::time::Duration;
use stg::benchmarks;

fn solver_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("csc/solver");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let models = [
        ("seq6", benchmarks::sequencer(6)),
        ("seq10", benchmarks::sequencer(10)),
        ("counter3", benchmarks::counter(3)),
        ("counter4", benchmarks::counter(4)),
        ("par_hs4", benchmarks::parallel_handshakes(4)),
        ("par_hs6", benchmarks::parallel_handshakes(6)),
    ];
    // Re-synthesis and area estimation are separate pipelines with their own
    // benches; this harness isolates the solver.
    let config = SolverConfig { resynthesize: false, ..SolverConfig::default() };
    for (name, model) in models {
        let sg = model.state_graph(2_000_000).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(solve_state_graph(&sg, &config).unwrap().inserted_signals.len()))
        });
        // One untimed pass records the shape/pipeline columns next to the
        // timing row.
        let solution = solve_state_graph(&sg, &config).unwrap();
        group.attach_metrics(&[
            ("initial_states", solution.stats.initial_states as f64),
            ("final_states", solution.stats.final_states as f64),
            ("initial_conflicts", solution.stats.initial_conflicts as f64),
            ("signals_inserted", solution.inserted_signals.len() as f64),
            ("candidates_evaluated", solution.stats.stage.candidates_evaluated as f64),
            ("candidates_pruned", solution.stats.stage.candidates_pruned as f64),
        ]);
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    solver_families(&mut c);
    c.finish();
}
