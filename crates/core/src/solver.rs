//! The iterative CSC solver (§5 of the paper): configuration, statistics,
//! result types and verification.
//!
//! One state signal is inserted per iteration: detect the remaining CSC
//! conflicts, search for the best insertion block over the brick set,
//! derive the I-partition, optionally enlarge the concurrency of the new
//! signal, insert it, and repeat until Complete State Coding holds.  At the
//! end the solver optionally re-synthesizes a Petri net from the encoded
//! state graph so the result can be handed back to the designer as an STG —
//! the feature the paper singles out as distinguishing `petrify` from
//! earlier tools.  [`solve_state_graph`] is that loop.

use crate::conflicts::conflict_pairs;
use crate::graph::EncodedGraph;
use crate::insert::insert_state_signal;
use crate::search::{
    enlarge_concurrency, excitation_region_bricks, find_best_block_with, CandidateSource,
    SearchStats,
};
use crate::CscError;
use regions::{bricks, synthesize_net, RegionConfig};
use std::fmt;
use std::time::{Duration, Instant};
use stg::{Polarity, SignalKind, StateGraph, Stg, TransitionLabel};

/// Name prefix of the inserted state signals: both solvers name them
/// `csc0`, `csc1`, … (the symbolic one skips names the model already uses).
pub(crate) const SIGNAL_PREFIX: &str = "csc";

/// Milliseconds elapsed since `t`, as a fraction.
pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Configuration of the CSC solver.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Frontier width `FW` of the heuristic search (quality/time trade-off).
    pub frontier_width: usize,
    /// Maximum number of state signals to insert before giving up.
    pub max_signals: usize,
    /// Maximum number of explicit states to explore when the input is an
    /// STG.
    pub max_states: usize,
    /// Which candidate bricks the search may use (region bricks for the
    /// paper's method, excitation regions only for the ASSASSIN-style
    /// baseline).
    pub candidate_source: CandidateSource,
    /// Whether to greedily enlarge the concurrency of every inserted signal
    /// (step 4 of the algorithm).
    pub enlarge_concurrency: bool,
    /// Whether to attempt Petri-net re-synthesis of the final state graph.
    pub resynthesize: bool,
    /// Optional resource governor.  The explicit solver allocates no BDD
    /// nodes, so only the wall-clock deadline and cooperative cancellation
    /// are honoured (checked between solver stages); node and step
    /// ceilings govern the symbolic engines.
    pub budget: Option<bdd::Budget>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            frontier_width: 4,
            max_signals: 24,
            max_states: 1_000_000,
            candidate_source: CandidateSource::RegionBricks,
            enlarge_concurrency: false,
            resynthesize: true,
            budget: None,
        }
    }
}

impl SolverConfig {
    /// The ASSASSIN-style baseline configuration: the same machinery but
    /// restricted to excitation-/switching-region candidates.
    pub fn excitation_region_baseline() -> Self {
        SolverConfig { candidate_source: CandidateSource::ExcitationRegions, ..Self::default() }
    }
}

/// Per-stage breakdown of a solver run, accumulated across iterations.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct StageStats {
    /// Milliseconds spent detecting CSC conflicts (one pass per iteration).
    pub conflict_ms: f64,
    /// Milliseconds spent building bricks and running the frontier search.
    pub search_ms: f64,
    /// Milliseconds spent deriving/enlarging the I-partition.
    pub partition_ms: f64,
    /// Milliseconds spent inserting state signals (incl. code recomputation).
    pub insert_ms: f64,
    /// Candidate blocks scored by the search across all iterations.
    pub candidates_evaluated: usize,
    /// Candidate blocks skipped before scoring (duplicates, degenerate
    /// full-space unions).
    pub candidates_pruned: usize,
    /// Candidate nets the symbolic solver rebuilt to verify an insertion,
    /// one reachability fixpoint each (0 for the explicit solver).
    pub candidates_verified: usize,
    /// Crossing-uniformity tests (one per branch and block) the symbolic
    /// solver's cheap scoring and uniformity repair ran: its deterministic
    /// measure of search work (0 for the explicit solver).
    pub crossing_tests: usize,
    /// The crossing tests whose branch had sources on both sides of the
    /// block, so that the test built the block's cofactor at the branch's
    /// post-values; every other test is answered from the branch's
    /// interned targets (0 for the explicit solver).
    pub cofactor_crossings: usize,
}

impl fmt::Display for StageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conflict {:.2} ms | search {:.2} ms | partition {:.2} ms | insert {:.2} ms | \
             {} candidates evaluated, {} pruned",
            self.conflict_ms,
            self.search_ms,
            self.partition_ms,
            self.insert_ms,
            self.candidates_evaluated,
            self.candidates_pruned
        )
    }
}

/// Statistics of a solver run.
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// States of the initial state graph.
    pub initial_states: usize,
    /// States of the final (encoded) state graph.
    pub final_states: usize,
    /// CSC conflict pairs before any insertion.
    pub initial_conflicts: usize,
    /// Number of solver iterations (= inserted signals).
    pub iterations: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Per-stage timing and candidate counters.
    pub stage: StageStats,
    /// Reachability fixpoints the run computed (0 for the explicit
    /// solver; for the symbolic one, one per candidate net it verified,
    /// plus one for the input's space when it built that itself).
    pub fixpoints: usize,
}

/// The result of a successful CSC resolution.
#[derive(Clone, Debug)]
pub struct CscSolution {
    /// The final encoded state graph (CSC holds on it).
    pub graph: EncodedGraph,
    /// Names of the inserted state signals, in insertion order.
    pub inserted_signals: Vec<String>,
    /// Run statistics.
    pub stats: SolveStats,
    /// The re-synthesized STG, when requested and when the final state graph
    /// is excitation closed (otherwise `None`; the encoded state graph is
    /// always available).
    pub stg: Option<Stg>,
}

/// Solves CSC for an STG: builds its state graph and runs
/// [`solve_state_graph`].
///
/// ```
/// use csc::{solve_stg, SolverConfig};
///
/// // The paper's pulser needs exactly one state signal.
/// let solution = solve_stg(&stg::benchmarks::pulser(), &SolverConfig::default())?;
/// assert_eq!(solution.inserted_signals, ["csc0"]);
/// assert!(solution.graph.complete_state_coding_holds());
/// # Ok::<(), csc::CscError>(())
/// ```
///
/// # Errors
///
/// Propagates state-graph construction failures and every error of
/// [`solve_state_graph`].
pub fn solve_stg(model: &Stg, config: &SolverConfig) -> Result<CscSolution, CscError> {
    let sg = model.state_graph(config.max_states)?;
    solve_state_graph(&sg, config)
}

/// Solves CSC on a binary-coded state graph by iterative state-signal
/// insertion.
///
/// # Errors
///
/// * [`CscError::NoCandidate`] if no valid insertion block can be found for
///   the remaining conflicts,
/// * [`CscError::SignalLimitReached`] if the configured signal budget is
///   exhausted,
/// * [`CscError::InconsistentInsertion`] if a selected insertion produces an
///   inconsistent encoding (indicates an internal invariant violation),
/// * [`CscError::Budget`] if the budget's deadline passes or it is
///   cancelled (checked before each search and after it).
pub fn solve_state_graph(sg: &StateGraph, config: &SolverConfig) -> Result<CscSolution, CscError> {
    let started = Instant::now();
    let mut graph = EncodedGraph::from_state_graph(sg);
    let mut inserted = Vec::new();
    let mut stats = SolveStats { initial_states: graph.num_states(), ..SolveStats::default() };
    loop {
        let t = Instant::now();
        let conflicts = conflict_pairs(&graph);
        stats.stage.conflict_ms += ms_since(t);
        if inserted.is_empty() {
            stats.initial_conflicts = conflicts.len();
        }
        if conflicts.is_empty() {
            break;
        }
        // The explicit solver allocates no BDD nodes, so only the deadline
        // and the cancel flag apply here.
        if let Some(budget) = &config.budget {
            budget.set_stage("explicit-solver");
            budget.check_deadline()?;
        }
        if inserted.len() >= config.max_signals {
            return Err(CscError::SignalLimitReached {
                limit: config.max_signals,
                remaining_conflicts: conflicts.len(),
            });
        }

        // Search: the brick set plus the Fig. 4 frontier search.
        let t = Instant::now();
        let brick_set = match config.candidate_source {
            CandidateSource::RegionBricks => {
                // Region bricks (minimal regions and pre-/post-region
                // intersections, Property 3.1 P1/P3) plus the excitation- and
                // switching-region bricks (P2).
                let mut set = bricks(&graph.ts, &RegionConfig::default());
                set.extend(excitation_region_bricks(&graph));
                set
            }
            CandidateSource::ExcitationRegions => excitation_region_bricks(&graph),
        };
        let mut search = SearchStats::default();
        let best = find_best_block_with(
            &graph,
            &conflicts,
            &brick_set,
            config.frontier_width,
            &mut search,
        )
        .ok_or(CscError::NoCandidate { remaining_conflicts: conflicts.len() })?;
        stats.stage.search_ms += ms_since(t);
        stats.stage.candidates_evaluated += search.evaluated;
        stats.stage.candidates_pruned += search.pruned;
        // The search is the long pole of an iteration; re-check the
        // deadline before the insertion.
        if let Some(budget) = &config.budget {
            budget.check_deadline()?;
        }

        let t = Instant::now();
        let mut partition = best.partition.expect("winning candidates carry a partition");
        if config.enlarge_concurrency {
            partition = enlarge_concurrency(&graph, &conflicts, &partition, &brick_set);
        }
        stats.stage.partition_ms += ms_since(t);

        let t = Instant::now();
        let name = format!("{SIGNAL_PREFIX}{}", inserted.len());
        graph = insert_state_signal(&graph, &name, &partition)?;
        stats.stage.insert_ms += ms_since(t);
        inserted.push(name);
        stats.iterations += 1;
    }
    stats.final_states = graph.num_states();
    stats.elapsed = started.elapsed();
    let stg = if config.resynthesize { resynthesize(&graph, sg) } else { None };
    Ok(CscSolution { graph, inserted_signals: inserted, stats, stg })
}

/// Attempts to re-synthesize an STG (Petri net plus signal labels) from the
/// final encoded state graph, named after the source's first signal.
/// Returns `None` when the state graph is not excitation closed (label
/// splitting would be required).
fn resynthesize(graph: &EncodedGraph, source: &StateGraph) -> Option<Stg> {
    let net = synthesize_net(&graph.ts, &RegionConfig::default()).ok()?.net;
    // Net transitions are named after the events of the encoded graph
    // ("lds+", "csc0-", …).
    let labels = (0..net.num_transitions())
        .map(|t| {
            let event = graph.ts.event_id(net.transition_name(petri::TransId::from(t)))?;
            Some(match graph.event_edges[event.index()] {
                Some((signal, polarity)) => TransitionLabel::Edge { signal, polarity },
                None => TransitionLabel::Dummy,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let name = format!("csc_{}", source.signals().first().map_or("model", |s| s.name.as_str()));
    Stg::from_labelled_net(net, graph.signals.clone(), labels, name).ok()
}

/// One verification problem found by [`verify_solution`].
///
/// The variants are the categories the test-suite asserts on; the
/// [`fmt::Display`] implementation renders the same human-readable
/// messages callers previously received as plain strings.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyDiagnostic {
    /// The final state graph still has CSC conflicts.
    CscConflictsRemain,
    /// An inserted signal is declared with a non-internal kind.
    SignalNotInternal {
        /// Name of the offending signal.
        signal: String,
    },
    /// An inserted signal is missing from the signal table.
    SignalMissing {
        /// Name of the missing signal.
        signal: String,
    },
    /// Hiding the inserted signals does not restore the original traces.
    ObservableTracesChanged,
    /// The final state graph is non-deterministic.
    NonDeterministic,
    /// The final state graph is non-commutative.
    NonCommutative,
}

impl fmt::Display for VerifyDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyDiagnostic::CscConflictsRemain => {
                write!(f, "final state graph still has CSC conflicts")
            }
            VerifyDiagnostic::SignalNotInternal { signal } => {
                write!(f, "inserted signal {signal} is not internal")
            }
            VerifyDiagnostic::SignalMissing { signal } => {
                write!(f, "inserted signal {signal} missing from the signal table")
            }
            VerifyDiagnostic::ObservableTracesChanged => write!(f, "observable traces changed"),
            VerifyDiagnostic::NonDeterministic => {
                write!(f, "final state graph is non-deterministic")
            }
            VerifyDiagnostic::NonCommutative => write!(f, "final state graph is non-commutative"),
        }
    }
}

/// Verifies a solution against its source state graph: CSC must hold, the
/// observable traces must be unchanged (hiding the inserted signals), and
/// the inserted signals must all be internal.
///
/// Returns the list of problems found (empty = verified), as typed
/// [`VerifyDiagnostic`] values so tests can assert on categories instead of
/// string-matching; render with [`fmt::Display`] for a human.
pub fn verify_solution(original: &StateGraph, solution: &CscSolution) -> Vec<VerifyDiagnostic> {
    let mut problems = Vec::new();
    if !solution.graph.complete_state_coding_holds() {
        problems.push(VerifyDiagnostic::CscConflictsRemain);
    }
    for name in &solution.inserted_signals {
        match solution.graph.signals.iter().find(|s| &s.name == name) {
            Some(sig) if sig.kind == SignalKind::Internal => {}
            Some(_) => problems.push(VerifyDiagnostic::SignalNotInternal { signal: name.clone() }),
            None => problems.push(VerifyDiagnostic::SignalMissing { signal: name.clone() }),
        }
    }
    let hidden: Vec<String> = solution
        .inserted_signals
        .iter()
        .flat_map(|n| {
            [format!("{n}{}", Polarity::Rise.suffix()), format!("{n}{}", Polarity::Fall.suffix())]
        })
        .collect();
    let hidden_refs: Vec<&str> = hidden.iter().map(String::as_str).collect();
    if !ts::traces::projected_trace_equivalent(&original.ts, &solution.graph.ts, &hidden_refs) {
        problems.push(VerifyDiagnostic::ObservableTracesChanged);
    }
    if !solution.graph.ts.is_deterministic() {
        problems.push(VerifyDiagnostic::NonDeterministic);
    }
    if !solution.graph.ts.is_commutative() {
        problems.push(VerifyDiagnostic::NonCommutative);
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::benchmarks;

    #[test]
    fn solved_benchmarks_satisfy_csc_and_preserve_traces() {
        let config = SolverConfig::default();
        for model in [benchmarks::pulser(), benchmarks::vme_read(), benchmarks::sequencer(3)] {
            let sg = model.state_graph(100_000).unwrap();
            let solution = solve_state_graph(&sg, &config)
                .unwrap_or_else(|e| panic!("{} failed: {e}", model.name()));
            assert!(solution.graph.complete_state_coding_holds(), "{}", model.name());
            assert!(!solution.inserted_signals.is_empty(), "{}", model.name());
            let problems = verify_solution(&sg, &solution);
            assert!(problems.is_empty(), "{}: {problems:?}", model.name());
        }
    }

    #[test]
    fn conflict_free_models_need_no_insertion() {
        let config = SolverConfig::default();
        let solution = solve_stg(&benchmarks::handshake(), &config).unwrap();
        assert!(solution.inserted_signals.is_empty());
        assert_eq!(solution.stats.iterations, 0);
        assert_eq!(solution.stats.initial_states, solution.stats.final_states);
    }

    #[test]
    fn vme_read_needs_a_small_number_of_signals() {
        let solution = solve_stg(&benchmarks::vme_read(), &SolverConfig::default()).unwrap();
        assert!(
            (1..=2).contains(&solution.inserted_signals.len()),
            "petrify solves the VME controller with one signal, got {:?}",
            solution.inserted_signals
        );
    }

    #[test]
    fn baseline_also_solves_easy_cases() {
        let config = SolverConfig::excitation_region_baseline();
        let solution = solve_stg(&benchmarks::pulser(), &config);
        // The baseline may need more signals or fail on some models; on the
        // pulser it must either solve CSC or report a structured error.
        match solution {
            Ok(s) => assert!(s.graph.complete_state_coding_holds()),
            Err(CscError::NoCandidate { .. }) | Err(CscError::SignalLimitReached { .. }) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn signal_budget_is_respected() {
        let config = SolverConfig { max_signals: 0, ..SolverConfig::default() };
        let err = solve_stg(&benchmarks::pulser(), &config).unwrap_err();
        assert!(matches!(err, CscError::SignalLimitReached { limit: 0, .. }));
    }

    #[test]
    fn resynthesis_produces_an_stg_when_possible() {
        let config = SolverConfig::default();
        let solution = solve_stg(&benchmarks::pulser(), &config).unwrap();
        if let Some(stg) = &solution.stg {
            // The re-synthesized STG must regenerate a state graph that also
            // satisfies CSC and has the same number of signals.
            assert_eq!(stg.num_signals(), solution.graph.signals.len());
            let sg = stg.state_graph(100_000).unwrap();
            assert!(sg.complete_state_coding_holds());
        }
    }

    #[test]
    fn enlargement_option_still_reaches_csc() {
        let config = SolverConfig { enlarge_concurrency: true, ..SolverConfig::default() };
        let solution = solve_stg(&benchmarks::sequencer(3), &config).unwrap();
        assert!(solution.graph.complete_state_coding_holds());
    }

    #[test]
    fn stage_stats_are_populated() {
        let solution = solve_stg(&benchmarks::vme_read(), &SolverConfig::default()).unwrap();
        let stage = &solution.stats.stage;
        assert!(stage.candidates_evaluated > 0, "the search must score candidates");
        assert!(stage.search_ms >= 0.0 && stage.conflict_ms >= 0.0);
        assert!(stage.insert_ms > 0.0, "at least one signal was inserted");
        let rendered = stage.to_string();
        assert!(rendered.contains("search") && rendered.contains("candidates evaluated"));
    }

    #[test]
    fn verify_diagnostics_render_and_categorise() {
        let sg = benchmarks::pulser().state_graph(10_000).unwrap();
        let mut solution = solve_state_graph(&sg, &SolverConfig::default()).unwrap();
        assert!(verify_solution(&sg, &solution).is_empty());
        // Sabotage the signal table: the verifier must report the wrong kind
        // as a typed diagnostic, not a formatted string.
        let inserted = solution.inserted_signals[0].clone();
        for signal in &mut solution.graph.signals {
            if signal.name == inserted {
                signal.kind = SignalKind::Output;
            }
        }
        let problems = verify_solution(&sg, &solution);
        assert!(problems.iter().any(
            |p| matches!(p, VerifyDiagnostic::SignalNotInternal { signal } if *signal == inserted)
        ));
        let rendered = problems.iter().map(|p| p.to_string()).collect::<Vec<_>>().join("; ");
        assert!(rendered.contains("is not internal"));
    }
}
