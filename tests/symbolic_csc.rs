//! Equivalence tests of the symbolic CSC solver against the explicit
//! pipeline:
//!
//! * on the Table 2 suite, both solvers reach a conflict-free encoding and
//!   the symbolic solver never inserts more state signals than the
//!   explicit one,
//! * the encoded STG preserves the observable behaviour (hiding the
//!   inserted signals restores the original traces) and stays consistent —
//!   checked against the ground-truth explicit state graph, which is still
//!   buildable for these models,
//! * on fuzzed STGs every symbolic solve is verified on the explicit state
//!   graph, and the flow returns the solver's own typed error on the rest,
//! * a conflicted design with more than 64 signals — impossible for the
//!   explicit solver even to represent — is solved to CSC-freedom end to
//!   end.

use csc::{solve_stg, solve_stg_symbolic, SolverConfig, SolverStrategy};
use stg::benchmarks;
use synthkit::{run_flow, FlowOptions, FlowRung};
use ts::traces::projected_trace_equivalent;

/// The symbolic block search's decisions on the conflicted Table 2
/// designs, pinned as (candidates evaluated, pruned, verified), and its
/// work as crossing-uniformity tests and the share of them that built a
/// target cofactor.  The region analyses only answer yes/no questions, so
/// a faster way of answering them leaves the first three counters where
/// they are; a change to the search itself must update this table on
/// purpose.  The crossing tests fell when candidate scoring learned to stop
/// at its bound (pulser 278, vme_read 993, master_read_like 3771, seq2
/// 1130, seq4 3880, seq8 16361, counter2 9771, counter4 110860,
/// pulser_bank2 556 when every candidate was scored in full).  Every one
/// of them built the cofactor until a branch whose sources lie on one side
/// of the block was answered from its interned targets.
type Counters = (usize, usize, usize, usize, usize);

const SEARCH_COUNTERS: &[(&str, Counters)] = &[
    ("pulser", (31, 113, 1, 278, 0)),
    ("vme_read", (110, 140, 1, 703, 102)),
    ("master_read_like", (360, 379, 2, 2188, 357)),
    ("seq2", (132, 276, 2, 1027, 0)),
    ("seq4", (358, 593, 3, 3173, 0)),
    ("seq8", (1062, 1489, 5, 8816, 0)),
    ("counter2", (499, 745, 7, 7104, 0)),
    ("counter4", (3123, 4844, 21, 42068, 0)),
    ("pulser_bank2", (62, 226, 2, 556, 0)),
];

/// The pinned counters of a solve.
fn counters(solution: &csc::SymbolicSolution) -> Counters {
    let stage = &solution.stats.stage;
    (
        stage.candidates_evaluated,
        stage.candidates_pruned,
        stage.candidates_verified,
        stage.crossing_tests,
        stage.cofactor_crossings,
    )
}

#[test]
fn symbolic_solver_matches_or_beats_explicit_on_the_table2_suite() {
    let config = SolverConfig::default();
    for (name, model, csc_holds) in benchmarks::table2_suite() {
        if csc_holds {
            let solution = solve_stg_symbolic(&model, &config)
                .unwrap_or_else(|e| panic!("{name}: conflict-free model failed: {e}"));
            assert!(solution.inserted_signals.is_empty(), "{name}: no insertion needed");
            assert_eq!(counters(&solution), (0, 0, 0, 0, 0), "{name}: no search needed");
            continue;
        }
        let explicit = solve_stg(&model, &config)
            .unwrap_or_else(|e| panic!("{name}: explicit solver failed: {e}"));
        let symbolic = solve_stg_symbolic(&model, &config)
            .unwrap_or_else(|e| panic!("{name}: symbolic solver failed: {e}"));
        let pinned = SEARCH_COUNTERS
            .iter()
            .find(|(design, _)| *design == name)
            .unwrap_or_else(|| panic!("{name}: no pinned search counters"))
            .1;
        assert_eq!(
            counters(&symbolic),
            pinned,
            "{name}: (evaluated, pruned, verified, tests, cofactor tests)"
        );
        assert!(
            symbolic.inserted_signals.len() <= explicit.inserted_signals.len(),
            "{name}: symbolic inserted {} signals, explicit {}",
            symbolic.inserted_signals.len(),
            explicit.inserted_signals.len()
        );
        // Ground truth on the explicit state graph of the encoded STG:
        // conflict-free, consistent, and observably equivalent.
        let original = model.state_graph(1_000_000).unwrap();
        let encoded = symbolic.stg.state_graph(1_000_000).unwrap();
        assert!(encoded.complete_state_coding_holds(), "{name}: CSC must hold");
        assert!(encoded.is_consistent(), "{name}: encoding must be consistent");
        let hidden: Vec<String> = symbolic
            .inserted_signals
            .iter()
            .flat_map(|n| [format!("{n}+"), format!("{n}-")])
            .collect();
        let hidden_refs: Vec<&str> = hidden.iter().map(String::as_str).collect();
        assert!(
            projected_trace_equivalent(&original.ts, &encoded.ts, &hidden_refs),
            "{name}: hiding {hidden:?} must restore the original behaviour"
        );
        // The symbolic CSC check agrees with the explicit one.
        assert!(!symbolic.stg.symbolic_csc_violation(0), "{name}");
    }
}

/// The same pins for the four-phase pipeline controllers, the designs
/// whose block search costs the most: every branch touches every
/// candidate's support, so no support hint prunes (pipe4_3 ran 6143
/// crossing tests and pipe4_4 17116 when every candidate was scored in
/// full).  Their branches straddle candidate blocks far more often than
/// the Table 2 designs' do, so about half their crossing tests still build
/// the target cofactor.
const PIPELINE_SEARCH_COUNTERS: &[(usize, Counters)] =
    &[(3, (702, 332, 2, 2553, 1125)), (4, (1677, 483, 3, 6028, 3146))];

#[test]
fn pipeline_search_counters_are_pinned() {
    let config = SolverConfig::default();
    for &(stages, pinned) in PIPELINE_SEARCH_COUNTERS {
        let solution = solve_stg_symbolic(&benchmarks::pipeline_4ph(stages), &config)
            .unwrap_or_else(|e| panic!("pipe4_{stages}: {e}"));
        assert_eq!(
            counters(&solution),
            pinned,
            "pipe4_{stages}: (evaluated, pruned, verified, tests, cofactor tests)"
        );
        assert!(!solution.stg.symbolic_csc_violation(0), "pipe4_{stages}: CSC must hold");
    }
}

/// Fuzzed STGs (`stg::fuzz::random_stg`) for the random-model tests: seeds
/// 17–28 give 3 solves (inserting 1, 2 and 1 signals) and 9 typed
/// `NoCandidate` failures, each under 0.15 s in a release build.
const FUZZ_SEEDS: std::ops::Range<u64> = 17..29;

#[test]
fn the_symbolic_flow_returns_the_solvers_own_typed_errors_on_random_stgs() {
    let (mut solved, mut failed) = (0, 0);
    for seed in FUZZ_SEEDS {
        let model = stg::fuzz::random_stg(seed);
        match (run_flow(&model, &FlowOptions::default()), solve_stg_symbolic(&model, &config())) {
            (Ok(report), Ok(_)) => {
                assert_eq!(report.rung, FlowRung::Symbolic, "seed {seed}");
                assert!(report.csc_satisfied, "seed {seed}");
                solved += 1;
            }
            // No explicit solver behind it: the flow's error is the solver's.
            (Err(flow), Err(solver)) => {
                assert_eq!(flow, solver, "seed {seed}");
                assert!(matches!(flow, csc::CscError::NoCandidate { .. }), "seed {seed}: {flow}");
                failed += 1;
            }
            (flow, solver) => panic!("seed {seed}: flow {flow:?}, solver {solver:?}"),
        }
    }
    assert_eq!((solved, failed), (3, 9));
}

#[test]
fn direct_symbolic_solves_on_random_stgs_are_verified() {
    // Wherever the symbolic solver succeeds, its encoded STG must hold CSC
    // and preserve traces — checked on the explicit state graph.
    let mut inserted = Vec::new();
    for seed in FUZZ_SEEDS {
        let model = stg::fuzz::random_stg(seed);
        let Ok(solution) = solve_stg_symbolic(&model, &config()) else { continue };
        let original = model.state_graph(200_000).unwrap();
        let encoded = solution.stg.state_graph(1_000_000).unwrap();
        assert!(encoded.complete_state_coding_holds(), "seed {seed}");
        assert!(encoded.is_consistent(), "seed {seed}");
        let hidden: Vec<String> = solution
            .inserted_signals
            .iter()
            .flat_map(|n| [format!("{n}+"), format!("{n}-")])
            .collect();
        let hidden_refs: Vec<&str> = hidden.iter().map(String::as_str).collect();
        assert!(
            projected_trace_equivalent(&original.ts, &encoded.ts, &hidden_refs),
            "seed {seed}: traces changed"
        );
        inserted.push(solution.inserted_signals.len());
    }
    assert_eq!(inserted, [1, 2, 1], "the seeds must exercise insertions");
}

fn config() -> SolverConfig {
    SolverConfig::default()
}

#[test]
fn wide_conflicted_designs_are_solved_beyond_the_explicit_limit() {
    // 66 signals: the explicit state graph cannot even represent the codes
    // (u64), while the symbolic flow detects the pulser component's CSC
    // conflict and resolves it end to end.
    let model = benchmarks::wide_conflict(32);
    assert_eq!(model.num_signals(), 66);
    assert!(
        model.state_graph(1_000_000).is_err(),
        "the explicit engine must reject a 66-signal model"
    );
    assert!(model.symbolic_csc_violation(0), "the pulser component conflicts");

    let report = run_flow(&model, &FlowOptions::default()).unwrap();
    assert_eq!(report.rung, FlowRung::Symbolic, "no explicit state graph anywhere");
    assert!(report.csc_satisfied);
    assert_eq!(report.solver_strategy, SolverStrategy::Symbolic);
    assert!(report.inserted_signals >= 1);
    assert!(report.states_f64 > 1e19, "6·4^32 reachable states");
    assert!(report.literals.unwrap() > 0, "logic is derived for all 33+ functions");
}
