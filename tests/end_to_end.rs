//! End-to-end integration tests: STG → state graph → CSC resolution →
//! verification → logic derivation, across the whole benchmark suite.

mod truth_table;

use csc::{solve_stg, verify_solution, CandidateSource, SolverConfig, VerifyDiagnostic};
use logic::{
    analyze_stg_with, area_of_functions, derive_next_state_functions, output_persistency_violations,
};
use synthkit::{run_flow, FlowOptions, FlowRung};

#[test]
fn every_table2_benchmark_is_solved_and_verified() {
    let config = SolverConfig::default();
    for (name, model, csc_holds) in stg::benchmarks::table2_suite() {
        let sg = model.state_graph(500_000).expect(name);
        let solution = solve_stg(&model, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        if csc_holds {
            assert!(solution.inserted_signals.is_empty(), "{name} needs no insertion");
        } else {
            assert!(!solution.inserted_signals.is_empty(), "{name} must need insertions");
        }
        assert!(solution.graph.complete_state_coding_holds(), "{name}");
        let problems = verify_solution(&sg, &solution);
        assert!(problems.is_empty(), "{name}: {problems:?}");
    }
}

#[test]
fn verification_diagnostics_are_typed_categories() {
    // A deliberately broken "solution" must be reported through the typed
    // diagnostic categories rather than free-form strings: reusing the
    // *original* unsolved graph as the solution leaves the CSC conflicts in
    // place, which the verifier must classify as `CscConflictsRemain`.
    let model = stg::benchmarks::pulser();
    let sg = model.state_graph(100_000).unwrap();
    let mut solution = solve_stg(&model, &SolverConfig::default()).unwrap();
    solution.graph = csc::EncodedGraph::from_state_graph(&sg);
    solution.inserted_signals.clear();
    let problems = verify_solution(&sg, &solution);
    assert!(problems.contains(&VerifyDiagnostic::CscConflictsRemain));
    assert!(
        !problems.contains(&VerifyDiagnostic::ObservableTracesChanged),
        "the original graph trivially preserves its own traces"
    );
    for p in &problems {
        assert!(!p.to_string().is_empty(), "every diagnostic renders a message");
    }
}

/// What the explicit solver decided on one design.
#[derive(Debug, PartialEq)]
enum Decided {
    /// Literals, inserted signals, final states, candidates evaluated and
    /// candidates pruned.
    Solved(usize, usize, usize, usize, usize),
    /// The search found no block; the conflict pairs left.
    NoCandidate(usize),
}

#[test]
fn solved_benchmarks_have_implementable_logic() {
    // Pins every decision of the explicit solver under the region method
    // and the excitation-region baseline.  The default literal totals pin
    // the quality of the covers: 400 over the Table 2 suite.
    use Decided::{NoCandidate, Solved};
    let pins = [
        ("handshake", Solved(1, 0, 4, 0, 0), Solved(1, 0, 4, 0, 0)),
        ("pulser", Solved(8, 1, 8, 24, 33), Solved(8, 1, 8, 24, 7)),
        ("vme_read", Solved(17, 1, 18, 91, 144), Solved(17, 1, 18, 91, 35)),
        ("master_read_like", Solved(17, 2, 31, 211, 340), Solved(17, 2, 31, 211, 85)),
        ("seq2", Solved(15, 2, 12, 91, 116), Solved(15, 2, 12, 91, 24)),
        ("seq4", Solved(37, 3, 20, 298, 450), Solved(37, 3, 20, 199, 49)),
        ("seq8", Solved(81, 5, 36, 1_261, 1_739), Solved(66, 4, 32, 355, 101)),
        ("counter2", Solved(58, 7, 32, 578, 789), Solved(58, 7, 32, 578, 177)),
        ("counter4", Solved(132, 21, 78, 3_347, 5_192), Solved(132, 21, 78, 3_165, 1_147)),
        ("par4", Solved(16, 0, 34, 0, 0), Solved(16, 0, 34, 0, 0)),
        ("par_hs2", Solved(2, 0, 16, 0, 0), Solved(2, 0, 16, 0, 0)),
        ("pulser_bank2", Solved(16, 2, 64, 286, 478), Solved(16, 2, 64, 286, 112)),
        ("pipe4_3", Solved(39, 2, 151, 773, 1_521), NoCandidate(64)),
    ];
    let mut suite = stg::benchmarks::table2_suite();
    suite.push(("pipe4_3", stg::benchmarks::pipeline_4ph(3), false));
    assert_eq!(suite.len(), pins.len());
    let configs = [SolverConfig::default(), SolverConfig::excitation_region_baseline()];
    for ((name, model, _), (pinned, region, baseline)) in suite.into_iter().zip(pins) {
        assert_eq!(name, pinned);
        for (config, expected) in configs.iter().zip([region, baseline]) {
            let decided = match solve_stg(&model, config) {
                Ok(solution) => {
                    // The derived functions implement the truth tables of
                    // the solved graph: exact ON/OFF sets, and covers that
                    // separate them.
                    let functions = derive_next_state_functions(&solution.graph);
                    truth_table::check(name, &solution.graph, &functions);
                    let area =
                        area_of_functions(&functions.unwrap_or_else(|e| panic!("{name}: {e}")));
                    assert!(
                        output_persistency_violations(&solution.graph).is_empty(),
                        "{name} lost output persistency"
                    );
                    let stage = &solution.stats.stage;
                    Solved(
                        area.total_literals,
                        solution.inserted_signals.len(),
                        solution.stats.final_states,
                        stage.candidates_evaluated,
                        stage.candidates_pruned,
                    )
                }
                Err(csc::CscError::NoCandidate { remaining_conflicts }) => {
                    NoCandidate(remaining_conflicts)
                }
                Err(e) => panic!("{name}: {e}"),
            };
            assert_eq!(decided, expected, "{name}, {:?}", config.candidate_source);
        }
    }
}

#[test]
fn explicit_insertions_keep_every_state_reachable() {
    // The concurrent insertion scheme strands no state, so the solver keeps
    // each inserted graph as it is.  A stranded state would stay stranded
    // through every later insertion (its copies inherit only transitions
    // from copies of its own unreachable predecessors), so a fully
    // reachable final graph shows that no insertion on the way dropped one.
    let mut suite: Vec<(&str, stg::Stg)> =
        stg::benchmarks::table2_suite().into_iter().map(|(name, model, _)| (name, model)).collect();
    suite.push(("pipe4_3", stg::benchmarks::pipeline_4ph(3)));
    suite.push(("mixed_handshake", stg::benchmarks::mixed_handshake()));
    let configs = [
        SolverConfig::default(),
        SolverConfig::excitation_region_baseline(),
        SolverConfig { enlarge_concurrency: true, ..SolverConfig::default() },
    ];
    let mut insertions = 0;
    for config in &configs {
        for (name, model) in &suite {
            match solve_stg(model, config) {
                Ok(solution) => {
                    let ts = &solution.graph.ts;
                    let reached = ts.reachable_states().len();
                    assert_eq!(reached, ts.num_states(), "{name}, {config:?}");
                    insertions += solution.inserted_signals.len();
                }
                Err(csc::CscError::NoCandidate { .. }) => {}
                Err(e) => panic!("{name}: {e}"),
            }
        }
    }
    assert!(insertions >= 100, "{insertions} insertions");
}

#[test]
fn logic_strategies_are_equivalent_on_the_table2_suite() {
    // The two derivations — from the solved encoded graph, and from the
    // re-synthesized STG's encoded state space — implement the same truth
    // tables on every Table 2 benchmark.  Their covers come from ISOP under
    // different variable orders, so the literal totals of the STG path are
    // pinned on their own: equal to the graph path's everywhere but seq8
    // (84 against 81).
    let stg_literals = [
        ("handshake", 1),
        ("pulser", 8),
        ("vme_read", 17),
        ("master_read_like", 17),
        ("seq2", 15),
        ("seq4", 37),
        ("seq8", 84),
        ("counter2", 58),
        ("counter4", 132),
        ("par4", 16),
        ("par_hs2", 2),
        ("pulser_bank2", 16),
    ];
    let config = SolverConfig::default();
    let suite = stg::benchmarks::table2_suite();
    assert_eq!(suite.len(), stg_literals.len());
    for ((name, model, _), (pinned, expected)) in suite.into_iter().zip(stg_literals) {
        assert_eq!(name, pinned);
        let solution = solve_stg(&model, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        let graph = &solution.graph;
        let resynthesized =
            solution.stg.as_ref().unwrap_or_else(|| panic!("{name}: no re-synthesized STG"));
        let from_graph = derive_next_state_functions(graph);
        truth_table::check(name, graph, &from_graph);
        let initial_code = graph.code(graph.ts.initial());
        let from_stg =
            analyze_stg_with(resynthesized, initial_code, &stg::ReachabilityConfig::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(from_stg.markings, graph.num_states() as f64, "{name}");
        assert!(from_stg.diagnostics.is_empty(), "{name}: {:?}", from_stg.diagnostics);
        let from_stg = from_stg.functions;
        assert_eq!(from_stg.num_variables, graph.num_signals(), "{name}");
        truth_table::check(name, graph, &Ok(from_stg.clone()));
        assert_eq!(from_stg.total_literals(), expected, "{name}");
    }
}

#[test]
fn wide_designs_synthesize_end_to_end_through_the_symbolic_path() {
    // 80 signals and 4^40 states: the explicit engine cannot even represent
    // the codes; the default flow must synthesize it fully symbolically.
    let model = stg::benchmarks::parallel_handshakes(40);
    let report = run_flow(&model, &FlowOptions::default()).unwrap();
    assert_eq!(report.rung, FlowRung::Symbolic);
    assert!(report.csc_satisfied);
    assert_eq!(report.signals, 80);
    assert_eq!(report.inserted_signals, 0);
    assert_eq!(report.literals.unwrap(), 40, "each ack is a single req literal");
    assert_eq!(report.cubes.unwrap(), 40);
    assert!(report.states_f64 > 1e24, "4^40 markings");
}

#[test]
fn region_method_never_does_worse_than_baseline_on_solved_models() {
    // The comparison axis of Table 2: the region-based method explores a
    // larger candidate space, so whenever the ER-only baseline solves a
    // model the region-based method must solve it too (the converse need not
    // hold).
    for (name, model, _) in stg::benchmarks::table2_suite() {
        let baseline = solve_stg(&model, &SolverConfig::excitation_region_baseline());
        let region = solve_stg(&model, &SolverConfig::default());
        if baseline.is_ok() {
            assert!(region.is_ok(), "{name}: baseline solved but the region method failed");
        }
        assert!(region.is_ok(), "{name}: region-based method must always succeed");
    }
}

#[test]
fn flow_reports_are_consistent_with_the_solver() {
    let report = run_flow(&stg::benchmarks::vme_read(), &FlowOptions::default()).unwrap();
    assert!(report.csc_satisfied);
    assert_eq!(report.signals, 5);
    assert!(report.final_states_f64 >= report.states_f64);
    assert!(report.literals.unwrap() > 0);
    assert!(report.cpu_seconds >= 0.0);
}

#[test]
fn frontier_width_one_still_solves_the_core_benchmarks() {
    let config = SolverConfig { frontier_width: 1, ..SolverConfig::default() };
    for model in [stg::benchmarks::pulser(), stg::benchmarks::vme_read()] {
        let solution = solve_stg(&model, &config).unwrap();
        assert!(solution.graph.complete_state_coding_holds());
    }
}

#[test]
fn candidate_source_is_honoured() {
    let config = SolverConfig {
        candidate_source: CandidateSource::ExcitationRegions,
        ..SolverConfig::default()
    };
    // The baseline either solves the pulser or reports a structured error;
    // it must not panic and must not silently return an unsolved graph.
    match solve_stg(&stg::benchmarks::pulser(), &config) {
        Ok(solution) => assert!(solution.graph.complete_state_coding_holds()),
        Err(e) => {
            let text = e.to_string();
            assert!(!text.is_empty());
        }
    }
}

#[test]
fn scalable_generators_compose_with_the_solver() {
    let config = SolverConfig::default();
    for n in [2, 3] {
        let model = stg::benchmarks::pulser_bank(n);
        let solution = solve_stg(&model, &config).unwrap();
        assert!(solution.graph.complete_state_coding_holds(), "pulser_bank({n})");
        assert!(
            solution.inserted_signals.len() >= n,
            "each of the {n} banks needs at least one state signal"
        );
    }
}
