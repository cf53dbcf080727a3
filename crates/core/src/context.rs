//! The staged [`SolverContext`] pipeline.
//!
//! Earlier revisions of the solver were a free function that recomputed
//! conflict pairs, bricks and candidate costs from scratch on every
//! iteration.  The context restructures one solver run into four explicit
//! stages that share state across iterations:
//!
//! ```text
//!             ┌────────────────────────────────────────────────────┐
//!             │                  SolverContext                     │
//!  StateGraph │ conflicts ─► search ─► partition ─► insert ──┐     │ CscSolution
//!  ─────────► │     ▲                                        │     │ ──────────►
//!             │     └──────────── incremental refresh ◄──────┘     │
//!             └────────────────────────────────────────────────────┘
//! ```
//!
//! * **conflicts** — the full code-bucketing pass runs exactly once, when
//!   the context is built.  After every insertion the list is refreshed
//!   *incrementally*: only states descending from codes that were shared
//!   (or that the insertion split) are re-bucketed — see
//!   [`crate::conflicts::refresh_conflicts_after_insertion`] for the
//!   invariant that makes this exact.
//! * **search** — brick generation plus the Fig. 4 frontier search, which
//!   scores each grown block as it is gathered.
//! * **partition** — I-partition extraction and optional concurrency
//!   enlargement.
//! * **insert** — state-signal insertion with ancestry tracing
//!   ([`crate::insert::insert_state_signal_traced`]), feeding the next
//!   incremental conflict refresh.
//!
//! The context owns the [`ConflictScratch`] (hash table, code buckets, mask
//! buffer), the conflict vector and the dirty-code sets across iterations,
//! so the hot loop performs no repeated cold allocations, and it accumulates
//! per-stage wall-clock times and candidate counters into
//! [`SolveStats::stage`].

use crate::conflicts::{
    conflict_pairs_with, refresh_conflicts_after_insertion, ConflictScratch, CscConflict,
};
use crate::graph::EncodedGraph;
use crate::insert::insert_state_signal_traced;
use crate::search::{
    enlarge_concurrency, excitation_region_bricks, find_best_block_with, SearchStats,
};
use crate::solver::{CscSolution, SolveStats, SolverConfig};
use crate::CscError;
use bdd::FxHashSet;
use regions::{bricks, synthesize_net, RegionConfig};
use std::time::Instant;
use stg::{StateGraph, Stg, TransitionLabel};

/// Milliseconds elapsed since `start`, as a fraction.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A CSC solver run in progress: the staged pipeline plus every piece of
/// working memory that survives across insertion iterations.
///
/// Construct with [`SolverContext::new`], advance with
/// [`SolverContext::step`] (or [`SolverContext::run`] to completion), and
/// take the result with [`SolverContext::finish`].  The plain
/// [`crate::solve_state_graph`] entry point does exactly that; driving the
/// context manually additionally allows inspecting
/// [`SolverContext::conflicts`] and [`SolverContext::graph`] between
/// iterations.
pub struct SolverContext {
    config: SolverConfig,
    graph: EncodedGraph,
    /// Reusable bucketing memory; doubles as the code → states index of the
    /// most recent conflict pass.
    scratch: ConflictScratch,
    /// Current CSC conflict pairs, sorted by `(code, a, b)`.
    conflicts: Vec<CscConflict>,
    /// Codes shared by ≥ 2 states of the current graph: the seed of the
    /// next insertion's dirty set.
    clash_codes: FxHashSet<u64>,
    /// Reused dirty-set allocation for the incremental refresh.
    dirty: FxHashSet<u64>,
    inserted: Vec<String>,
    stats: SolveStats,
    started: Instant,
    /// Name of the first signal of the source graph (used to name a
    /// re-synthesized STG).
    source_signal: Option<String>,
}

impl SolverContext {
    /// Builds a context for `sg`: copies the graph into its encoded form and
    /// runs the one and only full conflict-detection pass.
    pub fn new(sg: &StateGraph, config: &SolverConfig) -> Self {
        let started = Instant::now();
        let graph = EncodedGraph::from_state_graph(sg);
        let mut scratch = ConflictScratch::new();
        let mut conflicts = Vec::new();
        let conflict_start = Instant::now();
        conflict_pairs_with(&graph, &mut scratch, &mut conflicts);
        let mut clash_codes = FxHashSet::default();
        scratch.shared_codes_into(&mut clash_codes);
        let mut stats = SolveStats {
            initial_states: graph.num_states(),
            initial_conflicts: conflicts.len(),
            ..SolveStats::default()
        };
        stats.stage.conflict_ms += ms_since(conflict_start);
        SolverContext {
            config: config.clone(),
            graph,
            scratch,
            conflicts,
            clash_codes,
            dirty: FxHashSet::default(),
            inserted: Vec::new(),
            stats,
            started,
            source_signal: sg.signals().first().map(|s| s.name.clone()),
        }
    }

    /// The current encoded graph.
    pub fn graph(&self) -> &EncodedGraph {
        &self.graph
    }

    /// The current CSC conflict pairs (sorted by `(code, a, b)`).
    pub fn conflicts(&self) -> &[CscConflict] {
        &self.conflicts
    }

    /// Names of the signals inserted so far, in insertion order.
    pub fn inserted_signals(&self) -> &[String] {
        &self.inserted
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Returns `true` when Complete State Coding holds on the current graph.
    pub fn is_solved(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// Runs one pipeline iteration: search for the best insertion block,
    /// derive its I-partition, insert the next state signal and refresh the
    /// conflict list incrementally.
    ///
    /// Returns `Ok(false)` (and does nothing) when CSC already holds, and
    /// `Ok(true)` after a successful insertion.
    ///
    /// # Errors
    ///
    /// * [`CscError::SignalLimitReached`] when the signal budget is
    ///   exhausted while conflicts remain,
    /// * [`CscError::NoCandidate`] when no valid insertion block exists,
    /// * [`CscError::InconsistentInsertion`] when the selected insertion
    ///   produces an inconsistent encoding.
    pub fn step(&mut self) -> Result<bool, CscError> {
        if self.conflicts.is_empty() {
            return Ok(false);
        }
        // Cooperative governance: the explicit pipeline allocates no BDD
        // nodes, so only the deadline and the cancel flag apply here.
        if let Some(budget) = &self.config.budget {
            budget.set_stage("explicit-solver");
            budget.check_deadline()?;
        }
        if self.inserted.len() >= self.config.max_signals {
            return Err(CscError::SignalLimitReached {
                limit: self.config.max_signals,
                remaining_conflicts: self.conflicts.len(),
            });
        }
        // Stage: search (brick generation + Fig. 4 frontier search).
        let stage_start = Instant::now();
        let brick_set = match self.config.candidate_source {
            crate::CandidateSource::RegionBricks => {
                // Region bricks (minimal regions and pre-/post-region
                // intersections, Property 3.1 P1/P3) plus the excitation- and
                // switching-region bricks (P2).
                let mut set = bricks(&self.graph.ts, &self.config.region_config);
                set.extend(excitation_region_bricks(&self.graph));
                set
            }
            crate::CandidateSource::ExcitationRegions => excitation_region_bricks(&self.graph),
        };
        let mut search_stats = SearchStats::default();
        let best = find_best_block_with(
            &self.graph,
            &self.conflicts,
            &brick_set,
            self.config.frontier_width,
            &mut search_stats,
        )
        .ok_or(CscError::NoCandidate { remaining_conflicts: self.conflicts.len() })?;
        self.stats.stage.search_ms += ms_since(stage_start);
        self.stats.stage.candidates_evaluated += search_stats.evaluated;
        self.stats.stage.candidates_pruned += search_stats.pruned;
        // The search is the long pole of an iteration; re-check the
        // deadline before committing to the insertion work.
        if let Some(budget) = &self.config.budget {
            budget.check_deadline()?;
        }

        // Stage: partition (extraction + optional concurrency enlargement).
        let stage_start = Instant::now();
        let mut partition = best.partition.expect("winning candidates carry a partition");
        if self.config.enlarge_concurrency {
            partition = enlarge_concurrency(&self.graph, &self.conflicts, &partition, &brick_set);
        }
        self.stats.stage.partition_ms += ms_since(stage_start);

        // Stage: insert.  The dirty codes for the incremental refresh must
        // be computed against the *pre*-insertion graph: every code shared
        // by two or more states plus the codes of the states the insertion
        // splits (the two excitation regions of the new signal).
        let stage_start = Instant::now();
        self.dirty.clear();
        self.dirty.extend(self.clash_codes.iter().copied());
        for s in partition.er_rise.iter().chain(partition.er_fall.iter()) {
            self.dirty.insert(self.graph.code(s));
        }
        let name = format!("{}{}", self.config.signal_prefix, self.inserted.len());
        let traced = insert_state_signal_traced(
            &self.graph,
            &name,
            &partition,
            self.config.insertion_style,
        )?;
        let old = std::mem::replace(&mut self.graph, traced.graph);
        self.stats.stage.insert_ms += ms_since(stage_start);

        // Stage: incremental conflict maintenance.
        let stage_start = Instant::now();
        refresh_conflicts_after_insertion(
            &self.graph,
            &traced.origin,
            &old.codes,
            &self.dirty,
            &mut self.scratch,
            &mut self.conflicts,
            &mut self.clash_codes,
        );
        self.stats.stage.conflict_ms += ms_since(stage_start);

        self.inserted.push(name);
        self.stats.iterations += 1;
        Ok(true)
    }

    /// Steps the pipeline until CSC holds.
    ///
    /// # Errors
    ///
    /// Propagates the first error of [`SolverContext::step`].
    pub fn run(&mut self) -> Result<(), CscError> {
        while self.step()? {}
        Ok(())
    }

    /// Consumes the context and produces the solution: final statistics plus
    /// the optional Petri-net re-synthesis.
    ///
    /// Normally called after [`SolverContext::run`] succeeded; calling it
    /// earlier yields the partial encoding reached so far (CSC may not hold
    /// on it).
    pub fn finish(mut self) -> CscSolution {
        self.stats.final_states = self.graph.num_states();
        self.stats.elapsed = self.started.elapsed();
        let stg = if self.config.resynthesize {
            resynthesize(&self.graph, self.source_signal.as_deref(), &self.config.region_config)
        } else {
            None
        };
        CscSolution { graph: self.graph, inserted_signals: self.inserted, stats: self.stats, stg }
    }
}

/// Attempts to re-synthesize an STG (Petri net plus signal labels) from the
/// final encoded state graph.  Returns `None` when the state graph is not
/// excitation closed (label splitting would be required).
fn resynthesize(
    graph: &EncodedGraph,
    source_signal: Option<&str>,
    region_config: &RegionConfig,
) -> Option<Stg> {
    let synthesized = synthesize_net(&graph.ts, region_config).ok()?;
    // Rebuild the label table: net transitions are named after the events of
    // the encoded graph ("lds+", "csc0-", …).
    let mut labels = Vec::with_capacity(synthesized.net.num_transitions());
    for t in 0..synthesized.net.num_transitions() {
        let name = synthesized.net.transition_name(petri::TransId::from(t)).to_owned();
        let event = graph.ts.event_id(&name)?;
        let label = match graph.event_edges[event.index()] {
            Some((signal, polarity)) => TransitionLabel::Edge { signal, polarity },
            None => TransitionLabel::Dummy,
        };
        labels.push(label);
    }
    let mut name = String::from("csc_");
    name.push_str(source_signal.unwrap_or("model"));
    Stg::from_labelled_net(synthesized.net, graph.signals.clone(), labels, name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflicts::conflict_pairs;
    use crate::solver::SolverConfig;
    use stg::benchmarks;

    #[test]
    fn incremental_conflicts_match_a_full_pass_after_every_insertion() {
        // The incremental-maintenance invariant: after every step the
        // context's conflict list equals a from-scratch enumeration.
        let config = SolverConfig::default();
        for model in [
            benchmarks::pulser(),
            benchmarks::vme_read(),
            benchmarks::sequencer(4),
            benchmarks::counter(2),
            benchmarks::master_read_like(),
            benchmarks::pulser_bank(2),
        ] {
            let sg = model.state_graph(200_000).unwrap();
            let mut context = SolverContext::new(&sg, &config);
            assert_eq!(
                context.conflicts(),
                conflict_pairs(context.graph()).as_slice(),
                "{}: initial pass",
                model.name()
            );
            let mut steps = 0;
            while context.step().unwrap_or_else(|e| panic!("{}: {e}", model.name())) {
                steps += 1;
                assert_eq!(
                    context.conflicts(),
                    conflict_pairs(context.graph()).as_slice(),
                    "{}: after insertion {steps}",
                    model.name()
                );
            }
            assert!(context.is_solved(), "{}", model.name());
        }
    }

    #[test]
    fn context_and_free_function_agree() {
        let config = SolverConfig::default();
        let sg = benchmarks::vme_read().state_graph(100_000).unwrap();
        let mut context = SolverContext::new(&sg, &config);
        context.run().unwrap();
        let from_context = context.finish();
        let from_function = crate::solve_state_graph(&sg, &config).unwrap();
        assert_eq!(from_context.inserted_signals, from_function.inserted_signals);
        assert_eq!(from_context.graph.codes, from_function.graph.codes);
        assert_eq!(from_context.graph.num_states(), from_function.graph.num_states());
    }

    #[test]
    fn stepping_a_solved_context_is_a_no_op() {
        let config = SolverConfig::default();
        let sg = benchmarks::handshake().state_graph(10_000).unwrap();
        let mut context = SolverContext::new(&sg, &config);
        assert!(context.is_solved());
        assert!(!context.step().unwrap());
        assert_eq!(context.stats().iterations, 0);
        let solution = context.finish();
        assert!(solution.inserted_signals.is_empty());
    }
}
