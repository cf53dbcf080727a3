//! Ablation C: explicit vs. BDD-symbolic reachability on the same models.
//!
//! Run with `cargo bench -p bench --bench symbolic`; set
//! `BENCH_OUT=BENCH_symbolic.json` to record a machine-readable baseline.
//! Each `symbolic_only` entry also records the fixpoint's image rounds and
//! node-count and cache columns from [`bdd::BddManager::stats`] (via the
//! reachability result), so the baseline tracks memory behaviour alongside
//! wall-clock time.  The `encoded/…` rows time the (marking, code) fixpoint
//! every flow runs.

use bench::harness::{black_box, BenchmarkGroup, Criterion};
use std::time::Duration;
use stg::SymbolicStateSpace;

fn explicit_vs_symbolic(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_c/reachability");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for n in [4usize, 6] {
        let model = stg::benchmarks::parallel_handshakes(n);
        group.bench_function(format!("explicit/par_hs{n}"), |b| {
            b.iter(|| black_box(model.state_graph(2_000_000).unwrap().num_states()))
        });
        group.bench_function(format!("symbolic/par_hs{n}"), |b| {
            b.iter(|| black_box(model.symbolic_state_space(None).state_count()))
        });
    }
    group.finish();
}

fn symbolic_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_c/symbolic_only");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for n in [12usize, 16, 24] {
        let model = stg::benchmarks::parallel_handshakes(n);
        group.bench_function(format!("par_hs{n}"), |b| {
            b.iter(|| black_box(model.symbolic_state_space(None).state_count_f64()))
        });
        attach_space_metrics(&mut group, &model.symbolic_state_space(None));
    }
    // The encoded (marking, code) fixpoint every flow runs, on the wide
    // designs of the end-to-end benchmark.
    for (name, model) in [
        ("par_hs24", stg::benchmarks::parallel_handshakes(24)),
        ("pipe2_16", stg::benchmarks::pipeline_2ph(16)),
        ("wide_conflict16", stg::benchmarks::wide_conflict(16)),
    ] {
        group.bench_function(format!("encoded/{name}"), |b| {
            b.iter(|| black_box(model.symbolic_encoded_state_space(0, None).state_count_f64()))
        });
        attach_space_metrics(&mut group, &model.symbolic_encoded_state_space(0, None));
    }
    group.finish();
}

/// Records the image rounds and the space/memory columns of one untimed
/// pass next to the timing row.
fn attach_space_metrics(group: &mut BenchmarkGroup<'_>, space: &SymbolicStateSpace) {
    let stats = space.manager_stats();
    group.attach_metrics(&[
        ("iterations", space.iterations as f64),
        ("reachable_bdd_nodes", space.bdd_size() as f64),
        ("manager_nodes", stats.num_nodes as f64),
        ("peak_nodes", stats.peak_nodes as f64),
        ("cache_hits", stats.cache_hits as f64),
        ("cache_misses", stats.cache_misses as f64),
    ]);
}

fn main() {
    let mut c = Criterion::new();
    explicit_vs_symbolic(&mut c);
    symbolic_scaling(&mut c);
    c.finish();
}
