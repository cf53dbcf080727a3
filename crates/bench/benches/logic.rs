//! Logic back-end bench: the graph-driven derivation on solved graphs,
//! plus the STG-driven pipeline at widths no explicit graph can reach.
//!
//! Run with `cargo bench -p bench --bench logic`; set
//! `BENCH_OUT=BENCH_logic.json` to record the machine-readable baseline
//! tracked at the repository root.
//!
//! The `logic/derive` group times `derive_next_state_functions` over solved
//! sequencer / counter / parallel-handshake graphs, attaching literal/cube
//! counts so quality regressions show up next to timing regressions (the
//! row ids keep the `/symbolic` suffix of the rows recorded when a
//! per-state engine was timed beside it).  The `logic/symbolic` group times
//! the STG-driven pipeline (`analyze_stg_with`: encoded reachability, seed
//! guard, ISOP covers and the persistency check) on state spaces with up to
//! `4^40` states and 80 signals — no explicit enumeration happens at all
//! there; an explicit graph cannot represent those workloads (u64 codes,
//! per-state loops), which is the point of the baseline.

use bench::harness::{black_box, Criterion};
use csc::{solve_stg, SolverConfig};
use logic::{analyze_stg_with, derive_next_state_functions};
use std::time::Duration;
use stg::{benchmarks, ReachabilityConfig};

fn derive_from_graphs(c: &mut Criterion) {
    let mut group = c.benchmark_group("logic/derive");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let config = SolverConfig { resynthesize: false, ..SolverConfig::default() };
    // The literal totals are pinned every time the baseline is recorded.
    let models = [
        ("seq10", benchmarks::sequencer(10), 83),
        ("counter4", benchmarks::counter(4), 132),
        ("par_hs6", benchmarks::parallel_handshakes(6), 6),
    ];
    for (name, model, literals) in models {
        let solution = solve_stg(&model, &config).unwrap();
        let graph = solution.graph;
        group.bench_function(format!("{name}/symbolic"), |b| {
            b.iter(|| black_box(derive_next_state_functions(&graph).unwrap().total_literals()))
        });
        let funcs = derive_next_state_functions(&graph).unwrap();
        assert_eq!(funcs.total_literals(), literals, "{name}");
        group.attach_metrics(&[
            ("literals", funcs.total_literals() as f64),
            ("cubes", funcs.total_cubes() as f64),
            ("bdd_nodes", funcs.bdd_nodes as f64),
            ("signals", graph.num_signals() as f64),
        ]);
    }
    group.finish();
}

fn symbolic_stg_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("logic/symbolic");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    // Widths far beyond the explicit path: par_hs16 has 4^16 ≈ 4.3·10⁹
    // states, par_hs40 has 80 signals (> the u64 code width) and 4^40
    // states.
    let reach = ReachabilityConfig::default();
    for n in [16usize, 24, 40] {
        let model = benchmarks::parallel_handshakes(n);
        group.bench_function(format!("par_hs{n}"), |b| {
            b.iter(|| {
                black_box(analyze_stg_with(&model, 0, &reach).unwrap().functions.total_literals())
            })
        });
        let funcs = analyze_stg_with(&model, 0, &reach).unwrap().functions;
        assert_eq!(funcs.total_literals(), n, "par_hs{n}: every ack is one req literal");
        group.attach_metrics(&[
            ("literals", funcs.total_literals() as f64),
            ("cubes", funcs.total_cubes() as f64),
            ("bdd_nodes", funcs.bdd_nodes as f64),
            ("signals", (2 * n) as f64),
        ]);
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    derive_from_graphs(&mut c);
    symbolic_stg_scale(&mut c);
    c.finish();
}
