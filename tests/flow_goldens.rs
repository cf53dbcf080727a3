//! Byte-for-byte netlist goldens for the end-to-end benchmark's designs.
//!
//! Each of the 19 designs of the `controllers`, `wide_clean` and
//! `wide_conflict` workloads runs through `run_flow` with the netlist check
//! on, and its rendered outcome — state counts, conflict count, inserted
//! signals, literal counts, diagnostics, the verification verdict with its
//! witnesses, and the emitted `.eqn` text — must equal the file of the same
//! name in `tests/goldens/`.  A refactoring of the symbolic kernels keeps
//! every file as it is.

use stg::{benchmarks, Stg};
use synthkit::{run_flow, FlowOptions, NetlistVerdict};

/// The designs of the three benchmark workloads, by workload.
fn designs() -> Vec<(&'static str, Stg)> {
    vec![
        // controllers
        ("pulser", benchmarks::pulser()),
        ("vme_read", benchmarks::vme_read()),
        ("master_read_like", benchmarks::master_read_like()),
        ("seq4", benchmarks::sequencer(4)),
        ("seq8", benchmarks::sequencer(8)),
        ("counter2", benchmarks::counter(2)),
        ("counter4", benchmarks::counter(4)),
        ("pulser_bank2", benchmarks::pulser_bank(2)),
        ("pipe4_3", benchmarks::pipeline_4ph(3)),
        ("pipe4_4", benchmarks::pipeline_4ph(4)),
        ("mixed_handshake", benchmarks::mixed_handshake()),
        ("arbiter", benchmarks::arbiter()),
        // wide_clean
        ("par_hs16", benchmarks::parallel_handshakes(16)),
        ("par_hs20", benchmarks::parallel_handshakes(20)),
        ("par_hs24", benchmarks::parallel_handshakes(24)),
        ("pipe2_16", benchmarks::pipeline_2ph(16)),
        // wide_conflict
        ("wide_conflict12", benchmarks::wide_conflict(12)),
        ("wide_conflict16", benchmarks::wide_conflict(16)),
        ("pulser_bank5", benchmarks::pulser_bank(5)),
    ]
}

/// The flow outcome of `model`, rendered without times or arena sizes.
fn render(model: &Stg) -> String {
    let options = FlowOptions { verify_netlist: true, ..FlowOptions::default() };
    let report = run_flow(model, &options).expect("flow succeeds");
    let encoded = report.encoded.as_ref().expect("the report carries its STG");
    let inserted: Vec<&str> =
        encoded.signals()[model.num_signals()..].iter().map(|s| s.name.as_str()).collect();
    let mut out = format!(
        "states: {:e}\nconflicts: {:?}\ninserted: [{}]\nfinal states: {:e}\n\
         literals: {:?}\ncubes: {:?}\ncandidates: {} evaluated, {} verified\nfixpoints: {}\n",
        report.states_f64,
        report.initial_conflicts,
        inserted.join(", "),
        report.final_states_f64,
        report.literals,
        report.cubes,
        report.stage.candidates_evaluated,
        report.stage.candidates_verified,
        report.fixpoints,
    );
    for diagnostic in &report.logic_diagnostics {
        out.push_str(&format!("logic: {diagnostic}\n"));
    }
    let stage = report.netlist.as_ref().expect("netlist stage present");
    out.push_str(&format!(
        "netlist: {} gates, {} C-elements, {} literals\n",
        stage.gates, stage.c_elements, stage.literals
    ));
    match &stage.verdict {
        NetlistVerdict::Verified { states_f64 } => {
            out.push_str(&format!("verdict: verified over {states_f64:e} states\n"));
        }
        NetlistVerdict::Failed { diagnostics } => {
            out.push_str(&format!("verdict: failed with {} finding(s)\n", diagnostics.len()));
            for diagnostic in diagnostics {
                out.push_str(&format!("finding: {diagnostic}\n"));
            }
        }
        other => out.push_str(&format!("verdict: {other:?}\n")),
    }
    out.push_str(&stage.circuit.to_eqn());
    out
}

#[test]
fn benchmark_netlists_match_their_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    let mut mismatches = Vec::new();
    for (name, model) in designs() {
        let actual = render(&model);
        let path = dir.join(format!("{name}.txt"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", path.display()));
        if actual != golden {
            mismatches.push(format!("== {name}: expected\n{golden}== {name}: got\n{actual}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} design(s) changed:\n{}",
        mismatches.len(),
        mismatches.concat()
    );
}
