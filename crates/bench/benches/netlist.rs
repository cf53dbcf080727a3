//! Gate-level back-end bench: cover → gate synthesis, `.eqn` emission and
//! re-parsing, and the symbolic closed-loop circuit verification.
//!
//! Run with `cargo bench -p bench --bench netlist`; set
//! `BENCH_OUT=BENCH_netlist.json` to record the machine-readable baseline
//! tracked at the repository root.
//!
//! The `netlist/synthesize` group times `netlist::synthesize` on encoded
//! (CSC-solved) models, attaching gate/C-element/literal counts so quality
//! regressions show up next to timing regressions.  The `netlist/roundtrip`
//! group times `.eqn` emission plus re-parsing plus the BDD-canonical
//! equivalence check — the full serialization oracle.  The
//! `netlist/verify` group times the closed-loop checker (circuit
//! transition model vs STG reachable space) and asserts the verdict every
//! time the baseline is recorded.

use bench::harness::{black_box, Criterion};
use csc::{solve_stg_symbolic, SolverConfig};
use std::time::Duration;
use stg::benchmarks;
use stg::ReachabilityConfig;

/// The next-state functions of a conflict-free STG, seeded at 0.
fn functions_of(model: &stg::Stg) -> logic::NextStateFunctions {
    logic::analyze_stg_with(model, 0, &ReachabilityConfig::default())
        .expect("covers derive")
        .functions
}

/// The bench corpus: encoded (conflict-free) STGs with their derived
/// covers and synthesized circuits.
fn prepared() -> Vec<(String, stg::Stg, logic::NextStateFunctions, netlist::Netlist)> {
    let config = SolverConfig::default();
    let mut out = Vec::new();
    for model in [
        benchmarks::vme_read(),
        benchmarks::counter(4),
        benchmarks::pipeline_4ph(3),
        benchmarks::mixed_handshake(),
    ] {
        let solved = solve_stg_symbolic(&model, &config).expect("bench models solve").stg;
        let functions = functions_of(&solved);
        let circuit = netlist::synthesize(&solved, &functions).expect("synthesis succeeds");
        out.push((model.name().to_owned(), solved, functions, circuit));
    }
    for model in [benchmarks::pipeline_2ph(8), benchmarks::parallel_handshakes(6)] {
        let functions = functions_of(&model);
        let circuit = netlist::synthesize(&model, &functions).expect("synthesis succeeds");
        out.push((model.name().to_owned(), model, functions, circuit));
    }
    out
}

fn synthesize(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist/synthesize");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    for (name, stg, functions, circuit) in prepared() {
        group.bench_function(&name, |b| {
            b.iter(|| black_box(netlist::synthesize(&stg, &functions).unwrap().literals()))
        });
        group.attach_metrics(&[
            ("gates", circuit.gates.len() as f64),
            ("c_elements", circuit.c_elements() as f64),
            ("literals", circuit.literals() as f64),
        ]);
    }
    group.finish();
}

fn roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist/roundtrip");
    group.sample_size(20).measurement_time(Duration::from_secs(2));
    for (name, _, _, circuit) in prepared() {
        group.bench_function(&name, |b| {
            b.iter(|| {
                let eqn = circuit.to_eqn();
                let reparsed = netlist::parse_eqn(&eqn).unwrap();
                black_box(netlist::equivalent(&circuit, &reparsed).unwrap())
            })
        });
        // Recording the baseline re-proves the oracle on every model.
        let reparsed = netlist::parse_eqn(&circuit.to_eqn()).unwrap();
        assert!(netlist::equivalent(&circuit, &reparsed).unwrap(), "{name}: round-trip");
        group.attach_metrics(&[("eqn_bytes", circuit.to_eqn().len() as f64)]);
    }
    group.finish();
}

fn verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist/verify");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let config = ReachabilityConfig::default();
    for (name, stg, _, circuit) in prepared() {
        group.bench_function(&name, |b| {
            b.iter(|| {
                let verification = netlist::verify(&stg, &circuit, 0, &config).unwrap();
                black_box(verification.states_f64)
            })
        });
        let verification = netlist::verify(&stg, &circuit, 0, &config).unwrap();
        assert!(verification.passed(), "{name}: the encoded bench models must verify");
        group.attach_metrics(&[("states", verification.states_f64)]);
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    synthesize(&mut c);
    roundtrip(&mut c);
    verify(&mut c);
    c.finish();
}
