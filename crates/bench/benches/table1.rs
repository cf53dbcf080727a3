//! Benchmark behind Table 1: symbolic reachability and explicit CSC solving
//! on the state-explosion workloads.

use bench::harness::{black_box, Criterion};
use std::time::Duration;

fn symbolic_state_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/symbolic");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for n in [8usize, 12, 16] {
        let model = stg::benchmarks::parallel_handshakes(n);
        group.bench_function(format!("par_hs{n}"), |b| {
            b.iter(|| {
                let space = model.symbolic_state_space();
                black_box(space.state_count_f64())
            })
        });
    }
    group.finish();
}

fn explicit_csc_on_banks(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/explicit_solve");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    for n in [2usize, 3] {
        let model = stg::benchmarks::pulser_bank(n);
        group.bench_function(format!("pulser_bank{n}"), |b| {
            b.iter(|| {
                let solution =
                    csc::solve_stg(&model, &csc::SolverConfig::default()).expect("solvable");
                black_box(solution.inserted_signals.len())
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    symbolic_state_counts(&mut c);
    explicit_csc_on_banks(&mut c);
    c.finish();
}
