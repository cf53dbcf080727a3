//! Golden-report tests for the gate-level corpus, and the closed-loop
//! acceptance sweep: every Table 2 design and every corpus controller must
//! emit a `.eqn` and a Verilog netlist, and the symbolic circuit verifier
//! must reproduce the expected verdict — speed independent and
//! trace-equivalent everywhere except the arbiter, whose grant conflict no
//! pure gate netlist can implement.

use netlist::NetlistDiagnostic;
use stg::benchmarks;
use synthkit::{run_flow, FlowOptions, FlowReport, NetlistVerdict};

fn verified_flow(model: &stg::Stg) -> FlowReport {
    let options = FlowOptions { verify_netlist: true, ..FlowOptions::default() };
    run_flow(model, &options).expect("flow succeeds")
}

/// Golden numbers for one corpus entry, pinned from the symbolic flow.
struct Golden {
    name: &'static str,
    inserted: usize,
    logic_literals: usize,
    gates: usize,
    c_elements: usize,
    /// `None` means the netlist check must fail with this many findings.
    verified_states: Option<f64>,
    findings: usize,
}

const GOLDENS: &[Golden] = &[
    Golden {
        name: "arbiter",
        inserted: 0,
        logic_literals: 4,
        gates: 2,
        c_elements: 0,
        verified_states: None,
        findings: 2,
    },
    Golden {
        name: "pipe4_3",
        inserted: 2,
        logic_literals: 39,
        gates: 7,
        c_elements: 7,
        verified_states: Some(151.0),
        findings: 0,
    },
    Golden {
        name: "pipe2_4",
        inserted: 0,
        logic_literals: 19,
        gates: 4,
        c_elements: 3,
        verified_states: Some(32.0),
        findings: 0,
    },
    Golden {
        name: "mixed_handshake",
        inserted: 1,
        logic_literals: 18,
        gates: 3,
        c_elements: 3,
        verified_states: Some(12.0),
        findings: 0,
    },
];

#[test]
fn corpus_flow_reports_match_the_goldens() {
    let suite = benchmarks::corpus_suite();
    assert_eq!(suite.len(), GOLDENS.len(), "one golden per corpus entry");
    for ((name, model, _), golden) in suite.iter().zip(GOLDENS) {
        assert_eq!(*name, golden.name, "suite order matches the goldens");
        let report = verified_flow(model);
        assert_eq!(report.inserted_signals, golden.inserted, "{name}: inserted signals");
        assert_eq!(report.literals, Some(golden.logic_literals), "{name}: logic literals");
        let stage = report.netlist.as_ref().unwrap_or_else(|| panic!("{name}: netlist stage"));
        assert_eq!(stage.gates, golden.gates, "{name}: gate count");
        assert_eq!(stage.c_elements, golden.c_elements, "{name}: C-element count");
        match (&stage.verdict, golden.verified_states) {
            (NetlistVerdict::Verified { states_f64 }, Some(expected)) => {
                assert_eq!(*states_f64, expected, "{name}: verified state count");
            }
            (NetlistVerdict::Failed { diagnostics }, None) => {
                assert_eq!(diagnostics.len(), golden.findings, "{name}: finding count");
            }
            (verdict, _) => panic!("{name}: unexpected netlist verdict {verdict:?}"),
        }
    }
}

/// One encoded state space per STG version.  A conflict-free design
/// computes exactly one reachability fixpoint — analysis and netlist check
/// share it — and a conflicted one adds exactly one per candidate net the
/// solver verified: the solver starts from the flow's space, and its last
/// iteration's space serves the final analysis and the check.
#[test]
fn each_flow_computes_one_fixpoint_per_stg_version() {
    let (mut clean, mut conflicted): (Vec<_>, Vec<_>) =
        benchmarks::corpus_suite().into_iter().partition(|(_, _, csc_holds)| *csc_holds);
    clean.push(("par_hs16", benchmarks::parallel_handshakes(16), true));
    clean.push(("pipe2_8", benchmarks::pipeline_2ph(8), true));
    conflicted.push(("vme_read", benchmarks::vme_read(), false));
    conflicted.push(("pulser_bank2", benchmarks::pulser_bank(2), false));
    conflicted.push(("wide_conflict4", benchmarks::wide_conflict(4), false));
    for (name, model, _) in &clean {
        let report = verified_flow(model);
        assert_eq!(report.inserted_signals, 0, "{name}");
        let verdict = report.netlist.map(|stage| stage.verdict);
        assert!(
            matches!(
                verdict,
                Some(NetlistVerdict::Verified { .. } | NetlistVerdict::Failed { .. })
            ),
            "{name}: the netlist check must run, got {verdict:?}"
        );
        assert_eq!(report.fixpoints, 1, "{name}: fixpoints");
    }
    for (name, model, _) in &conflicted {
        let report = verified_flow(model);
        assert!(report.inserted_signals > 0, "{name}");
        let verdict = report.netlist.map(|stage| stage.verdict);
        assert!(matches!(verdict, Some(NetlistVerdict::Verified { .. })), "{name}: {verdict:?}");
        let verified = report.stage.candidates_verified;
        assert!(verified >= report.inserted_signals, "{name}: {verified} candidate nets");
        assert_eq!(report.fixpoints, 1 + verified, "{name}: fixpoints");
    }
}

#[test]
fn corpus_csc_flags_match_the_state_graph() {
    for (name, model, csc_holds) in benchmarks::corpus_suite() {
        let sg = model.state_graph(1_000_000).expect("corpus models are explicit-size");
        assert!(sg.is_consistent(), "{name} must be consistent");
        assert_eq!(sg.complete_state_coding_holds(), csc_holds, "{name}: CSC flag");
    }
}

#[test]
fn arbiter_grant_conflict_is_reported_as_a_hazard_with_witness() {
    let report = verified_flow(&benchmarks::arbiter());
    let stage = report.netlist.expect("netlist stage present");
    let NetlistVerdict::Failed { diagnostics } = &stage.verdict else {
        panic!("the arbiter must fail speed-independence, got {:?}", stage.verdict);
    };
    let mut hazarded: Vec<&str> = diagnostics
        .iter()
        .map(|d| match d {
            NetlistDiagnostic::HazardNotPersistent { signal, disabled_by, code } => {
                // The witness pins the contended state: both requests high,
                // both grants low, the rival grant firing.
                assert!(disabled_by.starts_with('g'), "disabled by a grant, got {disabled_by}");
                assert_eq!(code.matches('1').count(), 2, "witness code {code}");
                signal.as_str()
            }
            other => panic!("expected a hazard finding, got {other:?}"),
        })
        .collect();
    hazarded.sort_unstable();
    assert_eq!(hazarded, ["g1", "g2"]);
}

#[test]
fn two_phase_pipeline_is_a_muller_c_element_chain() {
    let report = verified_flow(&benchmarks::pipeline_2ph(4));
    let stage = report.netlist.expect("netlist stage present");
    // Interior stages are C-elements C(x_{i-1}, !x_{i+1}); the last stage
    // degenerates to a wire from its predecessor.
    assert_eq!(stage.c_elements, 3);
    let eqn = stage.circuit.to_eqn();
    assert!(eqn.contains("x1 = C(x0 & !x2 ; !x0 & x2);"), "{eqn}");
    assert!(eqn.contains("x4 = x3;"), "{eqn}");
}

/// The acceptance sweep: every Table 2 design and every corpus model goes
/// through synthesis, both emission formats, re-parsing, and the symbolic
/// circuit verifier.  Only the arbiter may fail the check, and it must
/// fail with a witness-carrying diagnostic rather than a panic or error.
#[test]
fn every_benchmark_emits_and_verifies() {
    let mut suite = benchmarks::table2_suite();
    suite.extend(benchmarks::corpus_suite());
    for (name, model, _) in suite {
        let report = verified_flow(&model);
        let stage = report
            .netlist
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: netlist synthesis must succeed"));
        let eqn = stage.circuit.to_eqn();
        assert!(eqn.contains(".model"), "{name}: .eqn emission");
        let verilog = stage.circuit.to_verilog();
        assert!(verilog.contains("module"), "{name}: Verilog emission");
        let reparsed = netlist::parse_eqn(&eqn)
            .unwrap_or_else(|e| panic!("{name}: emitted .eqn must re-parse: {e}"));
        assert!(
            netlist::equivalent(&stage.circuit, &reparsed).expect("equivalence check runs"),
            "{name}: emitted .eqn round-trips to the same circuit"
        );
        match &stage.verdict {
            NetlistVerdict::Verified { states_f64 } => {
                assert!(*states_f64 >= 1.0, "{name}: verified over a non-empty space");
            }
            NetlistVerdict::Failed { diagnostics } => {
                assert_eq!(name, "arbiter", "only the arbiter may fail: {diagnostics:?}");
                assert!(!diagnostics.is_empty(), "failures carry witnesses");
            }
            verdict => panic!("{name}: unexpected verdict {verdict:?}"),
        }
    }
}
