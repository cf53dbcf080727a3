//! Fully symbolic CSC resolution: state-signal insertion without the
//! explicit state graph.
//!
//! The explicit solver ([`crate::solve_state_graph`]) enumerates every
//! reachable state, packs codes into 64-bit words and manipulates
//! [`ts::StateSet`] bit vectors — which caps it at 64 signals and makes it
//! pay for the full state count.  This module re-expresses each stage of
//! the paper's algorithm over the BDDs of [`stg::SymbolicStateSpace`], so
//! the solver's capacity is bounded by BDD sizes instead of state counts:
//!
//! 1. **Conflict detection** — the space's CSC decision
//!    ([`stg::SymbolicStateSpace::csc_decision`]): for every non-input
//!    signal `a`, the codes of the *conflict relation* — pairs of reachable
//!    states with equal codes but different enabled behaviour — are the
//!    intersection of the ON and OFF *code* sets.  The relation's pairs
//!    themselves are counted without building it: one walk over the
//!    states that enable the signal and those that do not, stepping both
//!    together on the signal variables and splitting them on the places
//!    ([`bdd::BddManager::tied_pair_count`]).
//! 2. **Core extraction** — [`bdd::BddManager::one_sat`] picks one
//!    conflicting code from the relation; the states carrying it split into
//!    the two *core* sets the next insertion must separate.
//! 3. **Block search** — candidate insertion blocks are unions of symbolic
//!    *bricks*: per-place marked-predicates and per-transition excitation /
//!    switching regions (the I-partition search of [`crate::search`]
//!    re-expressed over reachability BDDs instead of `StateSet`s).  A
//!    frontier search grows blocks by image-adjacent bricks under a cheap
//!    separation cost, then the best few candidates get the full validity
//!    analysis.
//! 4. **I-partition & insertion** — the excitation regions of the new
//!    signal are the minimal well-formed exit borders of the block and its
//!    complement (the construction of [`crate::partition`], computed as BDD
//!    fixpoints), every net transition is classified by its region-crossing
//!    signature, and the new signal is inserted *directly into the Petri
//!    net*: four phase places (`rise requested/acked`, `fall
//!    requested/acked`) carry the baton, entering transitions trigger the
//!    rise, and crossing transitions wait for it — the Petri-level mirror
//!    of the concurrent event insertion of Fig. 2.
//! 5. **Iteration** — the encoded space of the grown STG is recomputed and
//!    the loop repeats until the symbolic CSC check passes.
//!
//! The result is an encoded **STG** (not a state graph), so the designer
//! hands-back property the paper highlights comes for free, and designs
//! with more than 64 signals — impossible for the explicit solver even to
//! represent — are solved end to end.

use crate::solver::{ms_since, SolveStats, SolverConfig, SIGNAL_PREFIX};
use crate::CscError;
use bdd::{Bdd, BddManager, FxHashMap, FxHashSet, VarId};
use petri::{PetriNetBuilder, TransId};
use std::time::Instant;
use stg::{
    Branch, ReachabilityConfig, Signal, SignalId, SignalKind, Stg, StgError, SymbolicStateSpace,
    TransitionLabel,
};

/// Which CSC solver the flow facade drives for a conflicted design.
///
/// Both solvers insert internal state signals until Complete State Coding
/// holds; they differ in representation, capacity and hand-back format.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SolverStrategy {
    /// The explicit solver over the enumerated state graph
    /// ([`crate::solve_state_graph`]).  Exact conflict pairs and region
    /// bricks, but capped at 64 signals and paying for every reachable
    /// state.
    Explicit,
    /// The BDD pipeline of [`crate::symbolic`] (this module): reachability,
    /// conflict cores, block search and insertion all symbolic, no signal
    /// cap, output is an encoded STG.
    #[default]
    Symbolic,
}

impl std::fmt::Display for SolverStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverStrategy::Explicit => write!(f, "explicit"),
            SolverStrategy::Symbolic => write!(f, "symbolic"),
        }
    }
}

/// One CSC conflict core the solver separated: a witness code shared by two
/// reachable states that disagree on the excitation of `signal`.
#[derive(Clone, Debug)]
pub struct ConflictCore {
    /// Name of the non-input signal whose excitation differs on the core.
    pub signal: String,
    /// The shared code, indexed by signal id at the iteration the core was
    /// extracted (inserted state signals extend the tail).
    pub code: Vec<bool>,
}

/// The result of a successful symbolic CSC resolution.
#[derive(Clone, Debug)]
pub struct SymbolicSolution {
    /// The encoded STG: the input model plus the inserted state signals
    /// (their transitions and phase places).  The symbolic CSC check holds
    /// on it.
    pub stg: Stg,
    /// Names of the inserted state signals, in insertion order.
    pub inserted_signals: Vec<String>,
    /// Run statistics.  `initial_conflicts` counts conflicting *codes*
    /// summed over signals (the symbolic analogue of the explicit solver's
    /// conflict-pair count), and the state counts saturate at `usize::MAX`
    /// — see [`Self::initial_states_f64`]/[`Self::final_states_f64`] for
    /// the unsaturated counts of wide designs.
    pub stats: SolveStats,
    /// Exact reachable (marking, code) state count of the input model.
    pub initial_states_f64: f64,
    /// Exact state count of the encoded result.
    pub final_states_f64: f64,
    /// The conflict core each iteration separated, in insertion order.
    pub cores: Vec<ConflictCore>,
}

/// Solves CSC on an STG fully symbolically, starting every signal at 0.
///
/// See [`solve_stg_symbolic_seeded`] for models whose initial marking
/// carries non-zero signal values.
///
/// ```
/// use csc::{solve_stg_symbolic, SolverConfig};
///
/// // The paper's pulser: one state signal, inserted directly into the
/// // Petri net — the result is an encoded STG, not a state graph.
/// let solution = solve_stg_symbolic(&stg::benchmarks::pulser(), &SolverConfig::default())?;
/// assert_eq!(solution.inserted_signals, ["csc0"]);
/// assert!(!solution.stg.symbolic_csc_violation(0));
/// # Ok::<(), csc::CscError>(())
/// ```
///
/// # Errors
///
/// Same as [`solve_stg_symbolic_seeded`].
pub fn solve_stg_symbolic(
    model: &Stg,
    config: &SolverConfig,
) -> Result<SymbolicSolution, CscError> {
    solve_stg_symbolic_seeded(model, config, 0)
}

/// Solves CSC on an STG fully symbolically: iterative state-signal
/// insertion where reachability, conflict detection, block search and the
/// insertion itself all run on BDDs — no explicit state graph is ever
/// built, and there is no cap on the signal count.
///
/// `initial_code` seeds the signal values of the initial marking (bit `i` =
/// signal `i`), exactly as in [`stg::Stg::symbolic_encoded_state_space`];
/// inserted signals always start at 0.
///
/// # Errors
///
/// Same as [`solve_stg_symbolic_with`].
pub fn solve_stg_symbolic_seeded(
    model: &Stg,
    config: &SolverConfig,
    initial_code: u64,
) -> Result<SymbolicSolution, CscError> {
    solve_stg_symbolic_with(model, config, initial_code, &ReachabilityConfig::default())
}

/// [`solve_space`] on a freshly built encoded state space of `model`: the
/// input's reachability runs under `reach` (its budget), as does every
/// candidate verification rebuild.
///
/// # Errors
///
/// Every error of [`solve_space`].
pub fn solve_stg_symbolic_with(
    model: &Stg,
    config: &SolverConfig,
    initial_code: u64,
    reach: &ReachabilityConfig,
) -> Result<SymbolicSolution, CscError> {
    let before = stg::fixpoints_run();
    let space = model.try_symbolic_encoded_state_space(initial_code, reach)?;
    let (mut solution, _) = solve_space(model, space, config, initial_code, reach)?;
    solution.stats.fixpoints = stg::fixpoints_run() - before;
    Ok(solution)
}

/// Solves CSC on `model`, starting from its encoded state space `space`
/// ([`stg::Stg::try_symbolic_encoded_state_space`] seeded with
/// `initial_code`): the body of every symbolic solve.
///
/// `space` becomes the first iteration, so a caller that already analysed
/// it (the flow facade) pays for no second fixpoint.  Each candidate net is
/// verified on a rebuilt space (reachability under `reach`), and the
/// accepted rebuild becomes the next iteration.  The space of the last
/// iteration — the encoded STG's — is returned beside the solution, ready
/// for the logic analysis and the netlist check.
/// [`SolveStats::fixpoints`] counts the fixpoints the solve ran itself: one
/// per candidate net verified ([`crate::StageStats::candidates_verified`]).
///
/// # Errors
///
/// * [`CscError::Budget`] when the budget trips,
/// * [`CscError::Stg`] with the seed guard's verdict
///   ([`stg::SymbolicStateSpace::check_seed`]) if `initial_code` does not
///   label the reachable markings consistently,
/// * [`CscError::NoCandidate`] if no valid insertion block separates any
///   remaining conflict core,
/// * [`CscError::SignalLimitReached`] if [`SolverConfig::max_signals`] is
///   exhausted,
/// * [`CscError::InconsistentInsertion`] if an insertion breaks the
///   one-code-per-marking invariant (an internal error, reported rather
///   than silently accepted).
pub fn solve_space(
    model: &Stg,
    space: SymbolicStateSpace,
    config: &SolverConfig,
    initial_code: u64,
    reach: &ReachabilityConfig,
) -> Result<(SymbolicSolution, SymbolicStateSpace), CscError> {
    // Labels the budget trips of what follows.
    let set_stage = |stage: &'static str| {
        if let Some(budget) = &reach.budget {
            budget.set_stage(stage);
        }
    };
    let start = Instant::now();
    let fixpoints_before = stg::fixpoints_run();
    let mut current = model.clone();
    let mut inserted: Vec<String> = Vec::new();
    let mut cores: Vec<ConflictCore> = Vec::new();
    let mut stats = SolveStats::default();
    let mut initial_states_f64 = 0.0;
    // The verified iteration of the accepted plan is carried into the next
    // round, so each insertion pays for exactly one encoded-reachability
    // analysis of the grown net.
    set_stage("conflict-detection");
    let mut it = Iteration::build(model, space, None)?;

    loop {
        set_stage("conflict-detection");
        let t0 = Instant::now();
        // Decided once per space: on the flow's input space the analysis
        // already did, and on an accepted rebuild this decides it for the
        // analysis of the encoded STG.
        let decision = it.space.csc_decision().map_err(CscError::Budget)?;
        it.check_budget()?;
        stats.stage.conflict_ms += ms_since(t0);
        let states = saturating_usize(it.state_count);
        if inserted.is_empty() {
            stats.initial_states = states;
            initial_states_f64 = it.state_count;
            stats.initial_conflicts = decision.conflict_count();
        }
        let conflicted = decision.conflicted;
        if conflicted.is_empty() {
            stats.final_states = states;
            stats.elapsed = start.elapsed();
            stats.fixpoints = stg::fixpoints_run() - fixpoints_before;
            let solution = SymbolicSolution {
                stg: current,
                inserted_signals: inserted,
                stats,
                cores,
                initial_states_f64,
                final_states_f64: it.state_count,
            };
            return Ok((solution, it.space));
        }
        if inserted.len() >= config.max_signals {
            return Err(CscError::SignalLimitReached {
                limit: config.max_signals,
                remaining_conflicts: conflicted.len(),
            });
        }

        // Try the conflicted signals in id order until one core admits a
        // verified insertion: candidate plans are ranked by predicted cost,
        // then each is applied to a scratch copy and *verified on the
        // rebuilt net* — encoded reachability must converge, stay
        // consistent (one code per marking) and strictly reduce the
        // conflict-pair count (totals first; a plan that only shrinks the
        // targeted signal's pairs is the fallback tier, mirroring the
        // explicit search's secondary-conflict fallback).
        let current_total = it.total_conflict_pairs();
        let current_markings = it.markings_without(&(0..0));
        let name = fresh_signal_name(&current);
        set_stage("candidate-search");
        // The rebuilt net's reachability is a sub-step of candidate
        // verification: label its budget trips accordingly.
        let verify_reach = ReachabilityConfig { stage: Some("candidate-search"), ..reach.clone() };
        let mut chosen: Option<(ConflictCore, Stg, Iteration)> = None;
        'signals: for &(signal, conflict_codes) in &conflicted {
            it.check_budget()?;
            let core = it.extract_core(signal, conflict_codes);
            let t1 = Instant::now();
            let mut pool = it.search_blocks(&core, config, &mut stats);
            #[cfg(test)]
            tests::check_pool(&mut it, &core, &pool);
            stats.stage.search_ms += ms_since(t1);
            let t2 = Instant::now();
            let plans = it.select_plans(&core, &mut pool, &mut stats);
            stats.stage.crossing_tests += std::mem::take(&mut it.crossing_tests);
            stats.stage.cofactor_crossings += std::mem::take(&mut it.cofactor_crossings);
            it.check_budget()?;
            stats.stage.partition_ms += ms_since(t2);
            let core_pairs = it.signal_conflict_pairs(signal);
            let t3 = Instant::now();
            // Build each plan's net once; take the first that strictly
            // reduces the total pair count, falling back to the first that
            // at least shrinks the targeted signal's pairs (the
            // secondary-conflict tier of the explicit search).
            let mut fallback: Option<(Stg, Iteration)> = None;
            for plan in &plans {
                it.check_budget()?;
                let mut plan = plan.clone();
                it.finalize_premarks(&mut plan);
                let Ok(inserted_stg) = insert_signal(&current, &name, &plan) else {
                    continue;
                };
                let InsertedStg { stg: candidate_stg, new_places } = inserted_stg;
                stats.stage.candidates_verified += 1;
                let built = candidate_stg
                    .try_symbolic_encoded_state_space(initial_code, &verify_reach)
                    .map_err(CscError::Budget)
                    .and_then(|space| Iteration::build(&candidate_stg, space, Some(&name)));
                let mut next = match built {
                    Ok(next) => next,
                    // A budget trip must stop the whole solve, not just this
                    // plan — otherwise a deadline would be retried away.
                    Err(CscError::Budget(trip)) => return Err(CscError::Budget(trip)),
                    Err(_) => continue,
                };
                // Behaviour preservation: the encoded net projected onto
                // the original places must reach exactly the original
                // markings — a lost marking means the added waiting arcs
                // blocked (or deadlocked) real behaviour.
                let projected = next.markings_without(&new_places);
                if (projected - current_markings).abs() > 0.25 {
                    continue;
                }
                let next_total = next.total_conflict_pairs();
                // Strict decrease with both an absolute and a relative
                // margin: pair totals above 2^53 (wide designs, where every
                // independent-component configuration multiplies the count)
                // carry f64 rounding error, so "one pair fewer" is not
                // resolvable there — but genuine progress removes a constant
                // *fraction* of the aliased mass, far above the margin.
                if next_total < (current_total - 0.5).min(current_total * (1.0 - 1e-9)) {
                    chosen = Some((it.describe_core(&core), candidate_stg, next));
                    stats.stage.insert_ms += ms_since(t3);
                    break 'signals;
                }
                if fallback.is_none()
                    && next.signal_conflict_pairs(signal)
                        < (core_pairs - 0.5).min(core_pairs * (1.0 - 1e-9))
                {
                    fallback = Some((candidate_stg, next));
                }
            }
            if let Some((candidate_stg, next)) = fallback {
                chosen = Some((it.describe_core(&core), candidate_stg, next));
                stats.stage.insert_ms += ms_since(t3);
                break 'signals;
            }
            stats.stage.insert_ms += ms_since(t3);
        }
        let Some((core, next_stg, next_it)) = chosen else {
            return Err(CscError::NoCandidate { remaining_conflicts: conflicted.len() });
        };
        current = next_stg;
        it = next_it;
        inserted.push(name);
        cores.push(core);
        stats.iterations += 1;
    }
}

fn saturating_usize(count: f64) -> usize {
    if count >= usize::MAX as f64 {
        usize::MAX
    } else {
        count.round() as usize
    }
}

/// The first `csc{i}` not already in the signal table.
fn fresh_signal_name(stg: &Stg) -> String {
    let mut i = stg.internal_signals().len();
    loop {
        let name = format!("{SIGNAL_PREFIX}{i}");
        if stg.signal_id(&name).is_none() {
            return name;
        }
        i += 1;
    }
}

/// One conflict core: a witness code (as a cube over the signal variables)
/// and the two reachable state sets carrying it whose enabled behaviour
/// differs on `signal`.
struct Core {
    signal: SignalId,
    /// Full assignment of the signal variables (the shared code).
    code_lits: Vec<(VarId, bool)>,
    /// Every reachable state carrying the core code (the code bucket).
    bucket: Bdd,
    /// Bucket states that enable `signal`.
    with: Bdd,
    /// Bucket states that do not.
    without: Bdd,
}

/// Per-transition arcs of one insertion, derived from the block-crossing
/// and excitation-region analysis (see [`Iteration::detail_eval`]).
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
struct TransArcs {
    /// The transition triggers the rise (some firing enters `ER(x+)`): it
    /// gets its own rise-request *leg* place, and `x+` joins all legs.
    produce_r1: bool,
    /// The transition crosses into the block: it additionally consumes the
    /// rise-acknowledge place (i.e. it waits for `x+`).
    consume_a1: bool,
    /// The transition triggers the fall (some firing enters `ER(x-)`): it
    /// gets its own fall-request leg place.
    produce_r0: bool,
    /// The transition leaves the block: it consumes the fall-acknowledge
    /// place (waits for `x-`).
    consume_a0: bool,
    /// The rise leg starts marked: the first `ER(x+)` visit is reachable
    /// without firing this trigger (its firing position lies "behind" the
    /// initial marking in the cycle).
    premark_r1: bool,
    /// The fall leg starts marked, by the same criterion for `ER(x-)`.
    premark_r0: bool,
}

/// Everything needed to rewrite the net for one new state signal.
#[derive(Clone, Debug, PartialEq)]
struct InsertionPlan {
    /// Arc additions per existing transition, indexed by transition id.
    arcs: Vec<TransArcs>,
    /// The derived `ER(x+)` (kept for the deferred premark computation).
    er_rise: Bdd,
    /// The derived `ER(x-)`.
    er_fall: Bdd,
    /// `true`: one `x+` transition joins every rise leg (the triggers are
    /// conjunctive — all fire before each rise).  `false`: one `x+`
    /// *instance* per leg (the triggers are alternatives — each excursion
    /// into `ER(x+)` is announced by exactly one of them, as with a
    /// multi-segment block).  The wrong mode deadlocks or double-fires, so
    /// the post-insertion verification keeps the variant that works.
    join_rise: bool,
    /// Same choice for the fall legs.
    join_fall: bool,
    /// The initial marking lies inside `ER(x+)` (split mode only): an extra
    /// pre-marked leg lets the first rise fire without any trigger.
    initial_rise_instance: bool,
}

/// The lexicographic cost of the cheap (pre-validity) candidate scoring:
/// how many sides of the core stay mixed, how many transitions violate
/// crossing-uniformity (the frontier search's gradient towards insertable
/// blocks), how far from a clean separation the block is, and how
/// unbalanced the core-bucket split is.
#[derive(Copy, Clone, Debug)]
struct CheapCost {
    remaining: u8,
    mixed_transitions: usize,
    mixed: f64,
    imbalance: f64,
    global_balance: f64,
    /// `false` for a *deferred* score ([`Iteration::cheap_eval`] stopped
    /// once the candidate provably ranked after its bound): the fields are
    /// then a lower bound of the exact cost, strictly worse than that bound.
    exact: bool,
}

impl CheapCost {
    /// A deferred score: the exact `remaining`, at least
    /// `mixed_transitions` mixed branches, nothing known of the rest.
    fn deferred(remaining: u8, mixed_transitions: usize) -> Self {
        CheapCost {
            remaining,
            mixed_transitions,
            mixed: f64::NEG_INFINITY,
            imbalance: f64::NEG_INFINITY,
            global_balance: f64::NEG_INFINITY,
            exact: false,
        }
    }

    /// Orders costs (or a deferred score's lower bound) lexicographically;
    /// exactness plays no part.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.remaining
            .cmp(&other.remaining)
            .then_with(|| self.mixed_transitions.cmp(&other.mixed_transitions))
            .then_with(|| self.mixed.total_cmp(&other.mixed))
            .then_with(|| self.imbalance.total_cmp(&other.imbalance))
            .then_with(|| self.global_balance.total_cmp(&other.global_balance))
    }
}

/// The full cost of a validity-checked candidate, mirroring the priority
/// order of the explicit search (`crate::search::Cost`): remaining conflict
/// mass first, then border risk, short circuits, triggers, balance.
#[derive(Copy, Clone, Debug)]
struct DetailCost {
    unresolved: f64,
    border: f64,
    short_circuits: usize,
    triggers: usize,
    imbalance: f64,
}

impl DetailCost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.unresolved
            .total_cmp(&other.unresolved)
            .then_with(|| self.border.total_cmp(&other.border))
            .then_with(|| self.short_circuits.cmp(&other.short_circuits))
            .then_with(|| self.triggers.cmp(&other.triggers))
            .then_with(|| self.imbalance.total_cmp(&other.imbalance))
    }
}

/// The scored candidates of one block search, in insertion order (the
/// tie-break of every ranking).
///
/// Only the first `cap` ranks by cost can decide anything: the chain seeds,
/// the frontier seeds and the merge list take at most `cap` of them, and
/// [`Iteration::select_plans`] reads past them only while it has found no
/// plan.  So a brick, chain prefix or merge is scored against the `cap`-th
/// best exact cost pooled so far ([`Self::bound`]) and deferred as soon as
/// it provably ranks after it.  The bound only improves as the pool grows,
/// so a deferred entry never reaches the first `cap` ranks, and [`Self::at`]
/// rescores the deferred tail exactly the first time a rank past them is
/// asked for: every rank is the one the exact costs give.
#[derive(Clone)]
struct Pool {
    entries: Vec<(Zone, CheapCost)>,
    /// The `cap` best exact costs pooled so far, ascending.
    best: Vec<CheapCost>,
    cap: usize,
    /// Entry indices by cost, ties by insertion order, fixed when the
    /// search is done; past `cap`, by lower bounds until the tail is exact.
    ranked: Vec<usize>,
    tail_exact: bool,
}

impl Pool {
    fn new(cap: usize) -> Self {
        Pool { entries: Vec::new(), best: Vec::new(), cap, ranked: Vec::new(), tail_exact: false }
    }

    /// The cost a new brick, chain prefix or merge must not rank after:
    /// the `cap`-th best exact cost so far (none until `cap` exact costs
    /// are pooled).
    fn bound(&self) -> Option<CheapCost> {
        self.best.get(self.cap - 1).copied()
    }

    fn push(&mut self, zone: Zone, cost: CheapCost) {
        if cost.exact {
            let at = self.best.partition_point(|c| c.cmp(&cost).is_le());
            if at < self.cap {
                self.best.insert(at, cost);
                self.best.truncate(self.cap);
            }
        }
        self.entries.push((zone, cost));
    }

    /// Entry indices by cost, ties by insertion order.
    fn ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| self.entries[a].1.cmp(&self.entries[b].1));
        order
    }

    /// The `n ≤ cap` best entries, all exact.
    fn leaders(&self, n: usize) -> Vec<(Zone, CheapCost)> {
        let leaders: Vec<(Zone, CheapCost)> =
            self.ranking().into_iter().take(n).map(|i| self.entries[i].clone()).collect();
        debug_assert!(leaders.iter().all(|(_, cost)| cost.exact), "a deferred entry leads");
        leaders
    }

    /// The entry at `rank` of the exact ranking; the first rank asked for
    /// past `cap` rescores the deferred entries exactly and re-sorts the
    /// tail by (cost, insertion index).
    fn at(&mut self, rank: usize, it: &mut Iteration, core: &Core) -> Option<&(Zone, CheapCost)> {
        if rank >= self.cap && !self.tail_exact {
            self.tail_exact = true;
            let Pool { entries, ranked, cap, .. } = self;
            let tail = &mut ranked[(*cap).min(entries.len())..];
            for &i in tail.iter() {
                if !entries[i].1.exact {
                    entries[i].1 = it.cheap_eval(core, &entries[i].0, None);
                }
            }
            tail.sort_by(|&a, &b| entries[a].1.cmp(&entries[b].1).then(a.cmp(&b)));
        }
        self.ranked.get(rank).map(|&i| &self.entries[i])
    }
}

/// A candidate region: a set of reachable states (`set ⊆ Reach`) together
/// with a *support hint* — a sorted variable list naming the variables
/// membership depends on within the reachable states.  The hint is what
/// keeps the solver local on wide nets: every region analysis skips the
/// branches whose changed variables don't intersect it (such branches can
/// neither enter nor leave the region), while the set itself stays exact
/// (reach-conjoined), so no analysis ever sees an unreachable state.  For
/// derived zones the hint can under-approximate a dependency the reachable
/// set smuggles in through cross-component coupling; the analyses built on
/// it are heuristics whose outcome the post-insertion verification checks
/// semantically, so a too-small hint can cost quality but never
/// correctness.
#[derive(Clone)]
struct Zone {
    set: Bdd,
    sup: Vec<VarId>,
}

/// Sorted-merge of two support hints.
fn merge_sup(a: &[VarId], b: &[VarId]) -> Vec<VarId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out.dedup();
    out
}

/// Whether every literal takes its value somewhere in a set with the
/// [`BddManager::value_span`] `span`.
fn admits(span: &[u8], literals: &[(VarId, bool)]) -> bool {
    literals.iter().all(|&(v, value)| {
        let bit = if value { BddManager::SPAN_HIGH } else { BddManager::SPAN_LOW };
        span[v as usize] & bit != 0
    })
}

/// `true` when the sorted variable lists share an element (two-pointer
/// sweep; both lists are ascending).
fn overlaps(a: &[VarId], b: &[VarId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The per-iteration working state: the encoded space, whose interned
/// branches ([`stg::Branch`]) every analysis below reads, plus the
/// per-branch sets and code relation the block search shares.
struct Iteration {
    space: SymbolicStateSpace,
    /// Per-branch reachable source states (`Reach ∧ enabled`), interned
    /// once — every candidate analysis starts from these.
    srcs: Vec<Bdd>,
    /// Per-branch reachable target states, the images of `srcs` (the
    /// switching regions): interned by the iteration's first
    /// [`Self::bricks`] call, so that an iteration no block search runs on
    /// (a rejected candidate net, the encoded STG's) never images them.
    tgts: Vec<Bdd>,
    place_vars: Vec<VarId>,
    signal_vars: Vec<VarId>,
    /// Non-input signals, with their excitation predicate `up ∨ down`.
    non_inputs: Vec<(SignalId, Bdd)>,
    num_transitions: usize,
    input_signal: Vec<bool>,
    signal_names: Vec<String>,
    reach: Bdd,
    initial: Bdd,
    state_count: f64,
    /// The positive cube of the signal variables: the variables a pair of
    /// states must agree on to share a code.
    code_vars: Bdd,
    /// Memoised [`SymbolicStateSpace::reachable_without`] results, keyed by
    /// the avoided transition's index: plans share triggers, so each
    /// trigger's restricted fixpoint runs once per iteration.
    without_cache: FxHashMap<usize, Bdd>,
    /// Crossing-uniformity tests run since the solve last collected them
    /// into [`crate::StageStats::crossing_tests`].
    crossing_tests: usize,
    /// Those of them that built the target cofactor, collected into
    /// [`crate::StageStats::cofactor_crossings`].
    cofactor_crossings: usize,
}

impl Iteration {
    /// Flushes the manager's batched budget charges (sampling the deadline)
    /// and surfaces a pending trip as [`CscError::Budget`].  A no-op without
    /// an attached budget.
    fn check_budget(&mut self) -> Result<(), CscError> {
        self.space.manager_mut().check_budget().map_err(CscError::Budget)
    }

    /// Guards the seed of `stg`'s encoded space (once per space) and
    /// interns the per-branch source sets.  `last_inserted` labels a guard
    /// failure: on the input it means a wrong `initial_code`, on a
    /// candidate net that the insertion broke consistency.  The budget
    /// attached to the space's manager (if any) is charged by every
    /// analysis this iteration performs.
    fn build(
        stg: &Stg,
        mut space: SymbolicStateSpace,
        last_inserted: Option<&str>,
    ) -> Result<Self, CscError> {
        match (space.check_seed(stg), last_inserted) {
            (Ok(()), _) => {}
            (Err(StgError::Budget(trip)), _) => return Err(CscError::Budget(trip)),
            (Err(_), Some(signal)) => {
                return Err(CscError::InconsistentInsertion { signal: signal.to_owned() })
            }
            (Err(verdict), None) => return Err(CscError::Stg(verdict)),
        }
        let coded_states = space.state_count_f64();
        let num_places = space.num_places();
        let num_signals = space.num_signals();
        let place_vars: Vec<VarId> = (0..num_places).map(|p| space.var_of_place(p)).collect();
        let signal_vars: Vec<VarId> = (0..num_signals).map(|s| space.var_of_signal(s)).collect();
        let reach = space.reachable();
        let initial = space.initial_state();

        // Excitation predicate per non-input signal: some branch raising
        // or lowering it is enabled.
        let mut non_inputs = Vec::new();
        for signal in space.non_input_signals().to_vec() {
            let (up, down) = space.excitation(signal);
            non_inputs.push((signal, space.manager_mut().or(up, down)));
        }
        let (m, branches) = space.manager_with_branches();
        let srcs: Vec<Bdd> = branches.iter().map(|b| m.and(reach, b.enabled)).collect();
        let input_signal: Vec<bool> =
            stg.signals().iter().map(|s| s.kind == SignalKind::Input).collect();
        let signal_names: Vec<String> = stg.signals().iter().map(|s| s.name.clone()).collect();
        let code_vars = m.quant_cube(&signal_vars);

        Ok(Iteration {
            srcs,
            tgts: Vec::new(),
            place_vars,
            signal_vars,
            non_inputs,
            num_transitions: stg.net().num_transitions(),
            input_signal,
            signal_names,
            reach,
            initial,
            state_count: coded_states,
            code_vars,
            without_cache: FxHashMap::default(),
            crossing_tests: 0,
            cofactor_crossings: 0,
            space,
        })
    }

    /// The number of CSC conflict pairs of `signal` *within* the state set
    /// `a`, counted on the conflict relation itself: pairs `(s, s′) ∈ a × a`
    /// with equal codes where `s` enables the signal and `s′` does not.
    /// The count is an exact integer up to `f64` precision (beyond 2^53
    /// pairs — wide designs — callers must compare with a relative margin).
    fn conflict_pair_count(&mut self, a: Bdd, en: Bdd) -> f64 {
        let m = self.space.manager_mut();
        let with = m.and(a, en);
        if with.is_false() {
            return 0.0;
        }
        let without = m.and_not(a, en);
        if without.is_false() {
            return 0.0;
        }
        self.code_tied_pairs(with, without)
    }

    /// `|{(s, s′) ∈ a × b : code(s) = code(s′)}|`, counted in one walk over
    /// `a` and `b` with the signal variables tied
    /// ([`BddManager::tied_pair_count`]): no pair relation is interned.
    fn code_tied_pairs(&mut self, a: Bdd, b: Bdd) -> f64 {
        self.space.manager().tied_pair_count(a, b, self.code_vars)
    }

    /// Total CSC conflict pairs over all non-input signals (exact up to
    /// `f64` precision; see [`Self::conflict_pair_count`]).
    fn total_conflict_pairs(&mut self) -> f64 {
        let mut total = 0.0;
        for i in 0..self.non_inputs.len() {
            let (_, en) = self.non_inputs[i];
            total += self.conflict_pair_count(self.reach, en);
        }
        total
    }

    /// The excitation predicate of non-input `signal`.
    fn excitation(&self, signal: SignalId) -> Bdd {
        let entry = self.non_inputs.iter().find(|(s, _)| *s == signal);
        entry.expect("non-input signal").1
    }

    /// CSC conflict pairs of one signal over the whole reachable set.
    fn signal_conflict_pairs(&mut self, signal: SignalId) -> f64 {
        self.conflict_pair_count(self.reach, self.excitation(signal))
    }

    /// The number of equal-code pairs across two (disjoint) state sets —
    /// the conflict relation between `a` and `b` when every `a` state
    /// enables some event no `b` state enables (used to predict the
    /// inserted signal's own conflicts between its excitation regions and
    /// the stable regions).
    fn cross_pair_count(&mut self, a: Bdd, b: Bdd) -> f64 {
        if a.is_false() || b.is_false() {
            return 0.0;
        }
        self.code_tied_pairs(a, b)
    }

    /// Extracts the conflict core of `signal`, whose conflict codes are
    /// `clash`: one witness code (a full signal-variable assignment from
    /// `one_sat`, free variables completed with 0 — every completion of a
    /// satisfying path is a conflicting code) and the two state sets
    /// carrying it.
    fn extract_core(&mut self, signal: SignalId, clash: Bdd) -> Core {
        let en = self.excitation(signal);
        let m = self.space.manager_mut();
        let sat = m.one_sat(clash).expect("non-empty clash set");
        let picked: FxHashMap<VarId, bool> = sat.into_iter().collect();
        let code_lits: Vec<(VarId, bool)> = self
            .signal_vars
            .iter()
            .map(|&v| (v, picked.get(&v).copied().unwrap_or(false)))
            .collect();
        let code_cube = m.cube_of(&code_lits);
        let coded = m.and(self.reach, code_cube);
        let with = m.and(coded, en);
        let without = m.and_not(coded, en);
        debug_assert!(!with.is_false() && !without.is_false(), "core sides must be non-empty");
        Core { signal, code_lits, bucket: coded, with, without }
    }

    /// Renders a [`Core`] for the solution's diagnostics.
    fn describe_core(&self, core: &Core) -> ConflictCore {
        let code = core.code_lits.iter().map(|&(_, value)| value).collect();
        ConflictCore { signal: self.signal_names[core.signal.index()].clone(), code }
    }

    /// Image of a zone under every branch *that can move it*.
    ///
    /// A zone's set is semantically a predicate over `sup` restricted to
    /// the reachable states; a branch whose changed variables are disjoint
    /// from `sup` maps the set into itself, so for the union-accumulating
    /// fixpoints of this module (forward closures, growth chains) it is
    /// skipped.  The result's hint absorbs the variables of every branch
    /// that contributed, keeping the invariant.
    fn image_zone(&mut self, z: &Zone) -> Zone {
        self.image_chain_step(z, z.set, &[])
    }

    /// One step of an image-growth chain: [`Self::image_zone`] of the
    /// chain's set `z`, except that a branch which already imaged the
    /// chain's previous set (its changed variables overlap `imaged`, the
    /// previous set's hint) images only `fresh`, the states added since.
    /// Images are linear and the previous step's image is part of `z`, so
    /// `z ∪ result` and the hint are exactly those of `image_zone`: a branch
    /// that moved the previous set already put its variables in `z.sup`.
    ///
    /// A branch is not imaged at all when the [`BddManager::value_span`] of
    /// the set it would image excludes one of its enabling literals: no
    /// state of that set enables it, so its image is provably empty.
    fn image_chain_step(&mut self, z: &Zone, fresh: Bdd, imaged: &[VarId]) -> Zone {
        let (m, branches) = self.space.manager_with_branches();
        let mut img = m.bottom();
        let mut sup = z.sup.clone();
        // The spans of `fresh` and `z.set`, taken on first use.
        let mut spans: [Option<Vec<u8>>; 2] = [None, None];
        for b in branches {
            if !overlaps(&b.changed, &z.sup) {
                continue;
            }
            let (from, side) = if overlaps(&b.changed, imaged) { (fresh, 0) } else { (z.set, 1) };
            let span = spans[side].get_or_insert_with(|| m.value_span(from));
            if !admits(span, &b.enabled_lits) {
                continue;
            }
            // The branch image, in one pass ([`BddManager::image_cube`]).
            let step = m.image_cube(from, b.enabled, b.pinned);
            if !step.is_false() {
                img = m.or(img, step);
                sup.extend_from_slice(&b.vars);
            }
        }
        sup.sort_unstable();
        sup.dedup();
        Zone { set: img, sup }
    }

    /// The minimal well-formed exit border of a zone: states of it with a
    /// firing that leaves it, closed under successors inside it — the
    /// symbolic mirror of
    /// [`crate::partition::minimal_well_formed_exit_border`].
    fn exit_border(&mut self, z: &Zone) -> Zone {
        let complement = {
            let m = self.space.manager_mut();
            m.and_not(self.reach, z.set)
        };
        let mut border = {
            let m = self.space.manager_mut();
            m.bottom()
        };
        let mut sup = z.sup.clone();
        for i in self.branches_touching(&z.sup) {
            let (m, branches) = self.space.manager_with_branches();
            let b = &branches[i];
            let src = m.and(z.set, b.enabled);
            if src.is_false() {
                continue;
            }
            let leaves = m.restrict_cube(complement, b.pinned);
            let exits = m.and(src, leaves);
            if !exits.is_false() {
                border = m.or(border, exits);
                sup = merge_sup(&sup, &b.vars);
            }
        }
        self.close_forward(Zone { set: border, sup }, z)
    }

    /// Cheap candidate scoring against the core (no validity analysis):
    /// how many sides of the core's with/without split stay mixed, the
    /// state mass sitting on the wrong side of the best orientation, and
    /// how unevenly the code *bucket* is split (balanced bucket splits
    /// resolve more of the bucket's pairwise conflicts per signal).
    ///
    /// With a `bound`, the cost is computed only as far as needed to prove
    /// that the candidate ranks strictly after it: `remaining` from four
    /// non-building tests, then the mixed branches up to the one that
    /// exceeds the bound's count, and only then the conjunctions and
    /// counts.  A candidate proven worse gets a deferred score
    /// ([`CheapCost::deferred`]); every other score is exact.
    fn cheap_eval(&mut self, core: &Core, block: &Zone, bound: Option<&CheapCost>) -> CheapCost {
        let m = self.space.manager_mut();
        let w_in = m.intersects(core.with, block.set);
        let w_out = !m.implies(core.with, block.set);
        let wo_in = m.intersects(core.without, block.set);
        let wo_out = !m.implies(core.without, block.set);
        let remaining = u8::from(w_in && wo_in) + u8::from(w_out && wo_out);
        let stop = match bound {
            Some(b) if remaining > b.remaining => return CheapCost::deferred(remaining, 0),
            Some(b) if remaining == b.remaining => Some(b.mixed_transitions + 1),
            _ => None,
        };
        let mixed_transitions = self.count_mixed_transitions(block, stop);
        if Some(mixed_transitions) == stop {
            return CheapCost::deferred(remaining, mixed_transitions);
        }
        let m = self.space.manager_mut();
        let w_in = m.and(core.with, block.set);
        let w_out = m.and_not(core.with, block.set);
        let wo_in = m.and(core.without, block.set);
        let wo_out = m.and_not(core.without, block.set);
        let cnt = |m: &mut BddManager, f: Bdd| m.sat_count_f64(f);
        let straight = cnt(m, w_out) + cnt(m, wo_in);
        let flipped = cnt(m, w_in) + cnt(m, wo_out);
        let mixed = straight.min(flipped);
        let bucket_in = {
            let x = m.and(core.bucket, block.set);
            cnt(m, x)
        };
        let bucket_total = cnt(m, core.bucket);
        let block_mass = cnt(m, block.set);
        let total_mass = cnt(m, self.reach);
        CheapCost {
            remaining,
            mixed_transitions,
            mixed,
            imbalance: (2.0 * bucket_in - bucket_total).abs(),
            // Whole-space balance breaks the remaining ties: a block that
            // also splits the *other* code buckets evenly resolves more
            // secondary conflicts per inserted signal (the staircase
            // effect), and such blocks are strictly more balanced.
            global_balance: (2.0 * block_mass - total_mass).abs(),
            exact: true,
        }
    }

    /// Number of branches whose reachable firings are *not*
    /// crossing-uniform with respect to `block` — the distance-to-validity
    /// gradient of the frontier search (0 means the block needs no
    /// uniformity repair) — counted up to `stop` at most.
    fn count_mixed_transitions(&mut self, block: &Zone, stop: Option<usize>) -> usize {
        let mut count = 0;
        for bi in self.branches_touching(&block.sup) {
            if self.srcs[bi].is_false() {
                continue;
            }
            if self.crossing_is_mixed(bi, block.set) {
                count += 1;
                if Some(count) == stop {
                    break;
                }
            }
        }
        count
    }

    /// Whether a branch's reachable firings (`srcs`) cross `set`
    /// non-uniformly: some cross while others stay (inside or outside), or
    /// some enter while others leave.
    ///
    /// When the sources all lie on one side of `set`, the firings can only
    /// stay on it or cross, and the targets say which: the branch is mixed
    /// iff its targets (`tgts`, exactly the sources' images) meet `set`
    /// and are not contained in it.  Only sources that straddle `set` need
    /// the four "does some firing stay in / leave / enter / stay out"
    /// answers of one [`Self::cofactor_mask`] walk.
    fn crossing_is_mixed(&mut self, bi: usize, set: Bdd) -> bool {
        self.crossing_tests += 1;
        let (src_in, src_out) = self.source_sides(bi, set);
        if !(src_in && src_out) {
            let (tgts, m) = (self.tgts[bi], self.space.manager_mut());
            return m.intersects(tgts, set) && !m.implies(tgts, set);
        }
        self.cofactor_crossings += 1;
        let mask = self.cofactor_mask(bi, set);
        let crossing = mask & (BddManager::LEAVES | BddManager::ENTERS);
        let staying = mask & (BddManager::STAYS_IN | BddManager::STAYS_OUT);
        (crossing != 0 && staying != 0) || crossing == BddManager::LEAVES | BddManager::ENTERS
    }

    /// Whether some firing of a branch enters or leaves `set`, by the same
    /// one-sided short-cut as [`Self::crossing_is_mixed`]: sources inside
    /// can only leave, into targets outside; sources outside can only
    /// enter, into targets inside.
    fn crosses(&mut self, bi: usize, set: Bdd) -> bool {
        let (src_in, src_out) = self.source_sides(bi, set);
        if src_in && src_out {
            return self.cofactor_mask(bi, set) & (BddManager::ENTERS | BddManager::LEAVES) != 0;
        }
        let (tgts, m) = (self.tgts[bi], self.space.manager_mut());
        if src_in {
            !m.implies(tgts, set)
        } else {
            m.intersects(tgts, set)
        }
    }

    /// Whether some source of a branch lies inside `set`, and whether some
    /// lies outside it.
    fn source_sides(&mut self, bi: usize, set: Bdd) -> (bool, bool) {
        let (srcs, m) = (self.srcs[bi], self.space.manager_mut());
        (m.intersects(srcs, set), !m.implies(srcs, set))
    }

    /// The [`BddManager::crossing`] mask of a branch's sources against
    /// `set`: one non-building walk over the sources, the set and the set
    /// at the branch's target (its cofactor at the post-values).
    fn cofactor_mask(&mut self, bi: usize, set: Bdd) -> u8 {
        let (pinned, srcs) = (self.space.branches()[bi].pinned, self.srcs[bi]);
        let m = self.space.manager_mut();
        let tgt_in = m.restrict_cube(set, pinned);
        m.crossing(srcs, set, tgt_in)
    }

    /// The candidate bricks: per-place marked predicates, per-branch
    /// excitation regions (enabled cubes on the reachable set, `srcs`) and
    /// switching regions (their images, `tgts`), each carried as a
    /// [`Zone`] whose support hint is the defining predicate's support —
    /// one place, a branch's variables — not the (global)
    /// support of the reach-conjoined set.  Degenerate sets are dropped;
    /// duplicates are deduplicated by set identity.
    fn bricks(&mut self) -> Vec<Zone> {
        let mut out: Vec<Zone> = Vec::new();
        let mut seen: FxHashSet<bdd::NodeId> = FxHashSet::default();
        let reach = self.reach;
        let mut push = |out: &mut Vec<Zone>, set: Bdd, sup: Vec<VarId>| {
            if !set.is_false() && set != reach && seen.insert(set.node_id()) {
                out.push(Zone { set, sup });
            }
        };
        for i in 0..self.place_vars.len() {
            let v = self.place_vars[i];
            let m = self.space.manager_mut();
            let marked = m.var(v);
            let set = m.and(reach, marked);
            push(&mut out, set, vec![v]);
        }
        if self.tgts.is_empty() {
            let (m, branches) = self.space.manager_with_branches();
            self.tgts = branches.iter().map(|b| m.image_cube(reach, b.enabled, b.pinned)).collect();
        }
        for (i, b) in self.space.branches().iter().enumerate() {
            push(&mut out, self.srcs[i], b.vars.clone());
            push(&mut out, self.tgts[i], b.vars.clone());
        }
        out
    }

    /// The frontier search over brick unions (Fig. 4 re-expressed on BDDs):
    /// grow the best `FW` blocks by image-adjacent bricks while the cheap
    /// separation cost improves, and return the ranked candidate pool.
    fn search_blocks(
        &mut self,
        core: &Core,
        config: &SolverConfig,
        stats: &mut SolveStats,
    ) -> Pool {
        let cone = self.conflict_cone(core);
        let bricks: Vec<Zone> =
            self.bricks().into_iter().filter(|b| overlaps(&b.sup, &cone)).collect();
        let mut seen: FxHashSet<bdd::NodeId> = FxHashSet::default();
        // The ranks plan selection reads before it scans for any plan at all.
        let mut pool = Pool::new((4 * config.frontier_width).max(24));
        for brick in &bricks {
            if !seen.insert(brick.set.node_id()) {
                stats.stage.candidates_pruned += 1;
                continue;
            }
            let cost = self.cheap_eval(core, brick, pool.bound().as_ref());
            stats.stage.candidates_evaluated += 1;
            pool.push(brick.clone(), cost);
        }
        // The symbolic search needs a somewhat wider frontier than the
        // explicit one (its seeds double as chain/merge candidates), so
        // `frontier_width` acts on top of a floor of 8 — the value the
        // Table 2 quality parity was tuned at.
        let width = config.frontier_width.max(8);
        // Image-growth chains: iterated one-step forward extensions of the
        // best seeds and of the two core sides.  Each prefix of the chain is
        // a candidate, so "everything within k steps of X" windows — the
        // natural shape of an insertion block whose core states sit in the
        // stable interior — are reachable even when no brick union forms
        // them.
        {
            let mut chain_seeds: Vec<Zone> =
                pool.leaders(width).into_iter().map(|(zone, _)| zone).collect();
            // The core sides are projected onto the cone before chaining,
            // so the chains (and everything grown from them) stay local:
            // "the pulser-side window, at any configuration of the other
            // components" instead of one full-product marking.
            for side in [core.with, core.without] {
                let projected = {
                    let m = self.space.manager_mut();
                    let away: Vec<VarId> = self
                        .place_vars
                        .iter()
                        .chain(self.signal_vars.iter())
                        .copied()
                        .filter(|v| cone.binary_search(v).is_err())
                        .collect();
                    let p = m.exists_many(side, &away);
                    m.and(self.reach, p)
                };
                chain_seeds.push(Zone { set: projected, sup: cone.clone() });
            }
            for seed in chain_seeds {
                let mut cur = seed;
                // The states the last step added, and the hint the branches
                // that imaged the chain before them were chosen by.
                let mut fresh = cur.set;
                let mut imaged: Vec<VarId> = Vec::new();
                for _ in 0..self.place_vars.len().clamp(8, 32) {
                    let img = self.image_chain_step(&cur, fresh, &imaged);
                    let next = {
                        let m = self.space.manager_mut();
                        m.or(cur.set, img.set)
                    };
                    if next == cur.set || next == self.reach {
                        break;
                    }
                    fresh = {
                        let m = self.space.manager_mut();
                        m.and_not(img.set, cur.set)
                    };
                    imaged = std::mem::replace(&mut cur, Zone { set: next, sup: img.sup }).sup;
                    if !seen.insert(cur.set.node_id()) {
                        stats.stage.candidates_pruned += 1;
                        continue;
                    }
                    let cost = self.cheap_eval(core, &cur, pool.bound().as_ref());
                    stats.stage.candidates_evaluated += 1;
                    pool.push(cur.clone(), cost);
                }
            }
        }
        let mut frontier = pool.leaders(width);
        // Lazily computed per-brick images for backward adjacency.
        let mut brick_images: FxHashMap<bdd::NodeId, Bdd> = FxHashMap::default();
        let rounds = self.place_vars.len().clamp(8, 24);
        for _ in 0..rounds {
            let mut grown_any: Vec<(Zone, CheapCost)> = Vec::new();
            for (block, cost) in frontier.clone() {
                let zone = {
                    let img = self.image_zone(&block);
                    let m = self.space.manager_mut();
                    m.or(block.set, img.set)
                };
                for brick in &bricks {
                    // Adjacent: overlapping/forward-reachable from the
                    // block, or leading into it.
                    let forward = self.space.manager_mut().intersects(zone, brick.set);
                    let adjacent = forward || {
                        let img = match brick_images.get(&brick.set.node_id()) {
                            Some(&img) => img,
                            None => {
                                let img = self.image_zone(brick).set;
                                brick_images.insert(brick.set.node_id(), img);
                                img
                            }
                        };
                        self.space.manager_mut().intersects(img, block.set)
                    };
                    if !adjacent {
                        continue;
                    }
                    let grown_set = {
                        let m = self.space.manager_mut();
                        m.or(block.set, brick.set)
                    };
                    if grown_set == self.reach || !seen.insert(grown_set.node_id()) {
                        stats.stage.candidates_pruned += 1;
                        continue;
                    }
                    let grown = Zone { set: grown_set, sup: merge_sup(&block.sup, &brick.sup) };
                    // Kept only if strictly better than its parent, so the
                    // parent's cost bounds the scoring.
                    let grown_cost = self.cheap_eval(core, &grown, Some(&cost));
                    stats.stage.candidates_evaluated += 1;
                    if grown_cost.cmp(&cost).is_lt() {
                        pool.push(grown.clone(), grown_cost);
                        grown_any.push((grown, grown_cost));
                    }
                }
            }
            if grown_any.is_empty() {
                break;
            }
            grown_any.sort_by(|a, b| a.1.cmp(&b.1));
            grown_any.truncate(width);
            frontier = grown_any;
        }
        // Greedy merging of good, possibly disconnected blocks — the
        // explicit search's final phase.  Multi-segment blocks (one
        // segment per code-bucket cluster) come from here: adjacency-driven
        // growth alone can never unite disconnected pieces.
        {
            let top: Vec<Zone> = pool.leaders(12).into_iter().map(|(zone, _)| zone).collect();
            for i in 0..top.len() {
                for j in (i + 1)..top.len() {
                    let merged_set = {
                        let m = self.space.manager_mut();
                        m.or(top[i].set, top[j].set)
                    };
                    if merged_set == self.reach || !seen.insert(merged_set.node_id()) {
                        stats.stage.candidates_pruned += 1;
                        continue;
                    }
                    let merged = Zone { set: merged_set, sup: merge_sup(&top[i].sup, &top[j].sup) };
                    let cost = self.cheap_eval(core, &merged, pool.bound().as_ref());
                    stats.stage.candidates_evaluated += 1;
                    pool.push(merged, cost);
                }
            }
        }
        pool.ranked = pool.ranking();
        pool
    }

    /// Runs the full validity analysis on the candidates (best-first) and
    /// returns the valid insertion plans ranked by detailed cost, capped at
    /// `MAX_PLANS` — the outer loop verifies them post-insertion in this
    /// order and keeps the first that provably reduces the conflict count.
    fn select_plans(
        &mut self,
        core: &Core,
        pool: &mut Pool,
        stats: &mut SolveStats,
    ) -> Vec<InsertionPlan> {
        const MAX_PLANS: usize = 6;
        let cap = pool.cap;
        let mut plans: Vec<(DetailCost, InsertionPlan)> = Vec::new();
        for rank in 0.. {
            // Past the cap, keep scanning only while no plan has been found
            // at all.
            if rank >= cap && !plans.is_empty() {
                break;
            }
            let Some((block, cheap)) = pool.at(rank, self, core) else { break };
            // The insertion must make progress on the chosen core.
            if cheap.remaining >= 2 {
                continue;
            }
            if rank >= cap {
                stats.stage.candidates_evaluated += 1;
            }
            let outcome = self.detail_eval(core, block);
            #[cfg(test)]
            tests::check_detail(self, core, block, &outcome);
            if let Some((cost, plan)) = outcome {
                plans.push((cost, plan));
            }
        }
        plans.sort_by(|a, b| a.0.cmp(&b.0));
        plans.truncate(MAX_PLANS);
        // Expand the trigger-mode variants: joined legs first (single-visit
        // blocks, the common case), then per-leg instances where several
        // triggers exist (multi-segment blocks).  Verification keeps the
        // first variant whose rebuilt net behaves.
        let mut expanded = Vec::new();
        for (_, plan) in plans {
            let rise_triggers = plan.arcs.iter().filter(|a| a.produce_r1).count();
            let fall_triggers = plan.arcs.iter().filter(|a| a.produce_r0).count();
            expanded.push(plan.clone());
            if rise_triggers > 1 {
                expanded.push(InsertionPlan { join_rise: false, ..plan.clone() });
            }
            if fall_triggers > 1 {
                expanded.push(InsertionPlan { join_fall: false, ..plan.clone() });
            }
            if rise_triggers > 1 && fall_triggers > 1 {
                expanded.push(InsertionPlan { join_rise: false, join_fall: false, ..plan });
            }
        }
        expanded
    }

    /// Repairs `block` until every transition's reachable firings are
    /// *crossing-uniform* with respect to it: all entering, all leaving, or
    /// none crossing.  A transition whose firings mix crossing with staying
    /// is folded *inside* the block (sources and targets), which makes it
    /// internal — the symbolic mirror of the explicit solver's "an event
    /// may be delayed by the new signal only if it is delayed uniformly"
    /// repair.  Returns `None` when the repair escapes (reaches the full
    /// space or swallows the initial state, which must keep the new signal
    /// at 0).
    fn repair_block_uniformity(&mut self, mut block: Zone) -> Option<Zone> {
        for _ in 0..64 {
            let mut grow = {
                let m = self.space.manager_mut();
                m.bottom()
            };
            let mut grow_sup = block.sup.clone();
            for bi in self.branches_touching(&block.sup) {
                let srcs = self.srcs[bi];
                if srcs.is_false() {
                    continue;
                }
                if self.crossing_is_mixed(bi, block.set) {
                    let m = self.space.manager_mut();
                    let touched = m.or(srcs, self.tgts[bi]);
                    grow = m.or(grow, touched);
                    grow_sup = merge_sup(&grow_sup, &self.space.branches()[bi].vars);
                }
            }
            let m = self.space.manager_mut();
            if m.implies(grow, block.set) {
                return Some(block); // already uniform
            }
            block.set = m.or(block.set, grow);
            block.sup = grow_sup;
            if m.intersects(self.initial, block.set) || block.set == self.reach {
                return None;
            }
        }
        None
    }

    /// The *cone of influence* of a conflict core: the variables on which
    /// its two witness states disagree, closed under branch connectivity
    /// (any branch touching a cone variable contributes all its variables).
    /// On a net of independent components this is exactly the component(s)
    /// the conflict lives in — the only region where an insertion block can
    /// separate the core — so the search never pays for the rest of a wide
    /// net.  Falls back to every variable when no disagreement is found.
    fn conflict_cone(&mut self, core: &Core) -> Vec<VarId> {
        let m = self.space.manager_mut();
        let w = m.one_sat(core.with).unwrap_or_default();
        let wo: FxHashMap<VarId, bool> =
            m.one_sat(core.without).unwrap_or_default().into_iter().collect();
        let mut cone: Vec<VarId> = w
            .iter()
            .filter(|&&(v, value)| wo.get(&v).is_some_and(|&other| other != value))
            .map(|&(v, _)| v)
            .collect();
        cone.sort_unstable();
        if cone.is_empty() {
            let mut all: Vec<VarId> =
                self.place_vars.iter().chain(self.signal_vars.iter()).copied().collect();
            all.sort_unstable();
            return all;
        }
        loop {
            let mut grew = false;
            for b in self.space.branches() {
                if overlaps(&b.vars, &cone) && !b.vars.iter().all(|v| cone.binary_search(v).is_ok())
                {
                    cone = merge_sup(&cone, &b.vars);
                    grew = true;
                }
            }
            if !grew {
                return cone;
            }
        }
    }

    /// The branch indices whose changed variables intersect `support` —
    /// the only branches whose firings can enter or leave a predicate with
    /// that support.
    fn branches_touching(&self, support: &[VarId]) -> Vec<usize> {
        let branches = self.space.branches();
        (0..branches.len()).filter(|&bi| overlaps(&branches[bi].changed, support)).collect()
    }

    /// The number of distinct markings the reachable set projects onto
    /// once the places in `new_places` (the freshly inserted signal's phase
    /// and leg places) are quantified away — used by the verification gate
    /// to reject insertions that restrict the original net's behaviour (a
    /// behaviour-preserving insertion extends markings, it never shrinks
    /// the projection).  With an empty range it counts this iteration's own
    /// markings.
    fn markings_without(&mut self, new_places: &std::ops::Range<usize>) -> f64 {
        let quantify: Vec<VarId> = self
            .place_vars
            .iter()
            .enumerate()
            .filter(|(p, _)| new_places.contains(p))
            .map(|(_, &v)| v)
            .chain(self.signal_vars.iter().copied())
            .collect();
        let old_places = self.place_vars.len() - new_places.len();
        let m = self.space.manager_mut();
        let projected = m.exists_many(self.reach, &quantify);
        let free = (m.num_vars() - old_places) as i32;
        m.sat_count_f64(projected) / 2f64.powi(free)
    }

    /// Forward closure of a zone inside `within`: successors that stay in
    /// `within` are absorbed until a fixpoint.  Like the growth chains,
    /// each step images only what the previous step added
    /// ([`Self::image_chain_step`]).
    fn close_forward(&mut self, mut z: Zone, within: &Zone) -> Zone {
        let mut fresh = z.set;
        let mut imaged: Vec<VarId> = Vec::new();
        loop {
            let img = self.image_chain_step(&z, fresh, &imaged);
            let m = self.space.manager_mut();
            let inside = m.and(img.set, within.set);
            fresh = m.and_not(inside, z.set);
            if fresh.is_false() {
                return z;
            }
            z.set = m.or(z.set, fresh);
            imaged = std::mem::replace(&mut z.sup, merge_sup(&img.sup, &within.sup));
        }
    }

    /// The full validity analysis of one candidate block: canonicalize the
    /// orientation, repair the block to crossing-uniformity, derive the
    /// excitation regions (exit-border fixpoints), repair *them* until every
    /// transition's region signature is uniform, and reject candidates that
    /// stay mixed or would delay an input.  Returns the detailed cost and
    /// the ready-to-apply insertion plan.
    fn detail_eval(&mut self, core: &Core, block: &Zone) -> Option<(DetailCost, InsertionPlan)> {
        let block = self.uniform_block(block)?;
        // Input edges may trigger the new signal but never wait for it.  A
        // block that an input firing enters or leaves is rejected before
        // its exit borders are derived: the arc derivation of
        // `plan_block` looks at every branch this test looks at (its
        // support contains `block.sup`) and flags the same transition, and
        // every step in between either rejects the block too or reaches
        // that check.
        if self.delays_an_input(&block) {
            return None;
        }
        self.plan_block(core, &block)
    }

    /// A candidate oriented so that the initial state lies outside it (the
    /// new signal starts at 0) and repaired to crossing-uniformity; `None`
    /// for a degenerate block or an escaping repair.
    fn uniform_block(&mut self, block: &Zone) -> Option<Zone> {
        let block = {
            let m = self.space.manager_mut();
            if m.intersects(self.initial, block.set) {
                Zone { set: m.and_not(self.reach, block.set), sup: block.sup.clone() }
            } else {
                block.clone()
            }
        };
        if block.set.is_false() || block.set == self.reach {
            return None;
        }
        self.repair_block_uniformity(block)
    }

    /// Whether a firing of an input-labelled branch touching `block.sup`
    /// enters or leaves the block, which would make the input wait for
    /// the new signal.
    fn delays_an_input(&mut self, block: &Zone) -> bool {
        for bi in self.branches_touching(&block.sup) {
            let edge = self.space.branches()[bi].edge;
            let is_input = edge.is_some_and(|(signal, _)| self.input_signal[signal.index()]);
            if is_input && self.crosses(bi, block.set) {
                return true;
            }
        }
        false
    }

    /// The rest of [`Self::detail_eval`] on a uniform block: the
    /// excitation regions, the progress gate, the arcs and the cost.
    fn plan_block(&mut self, core: &Core, block: &Zone) -> Option<(DetailCost, InsertionPlan)> {
        let side0 = {
            let m = self.space.manager_mut();
            Zone { set: m.and_not(self.reach, block.set), sup: block.sup.clone() }
        };
        let er_rise = self.exit_border(&side0);
        let er_fall = self.exit_border(block);
        if er_rise.set.is_false() || er_fall.set.is_false() {
            return None; // the new signal would never rise or never fall
        }

        let (s0, s1) = {
            let m = self.space.manager_mut();
            (m.and_not(side0.set, er_rise.set), m.and_not(block.set, er_fall.set))
        };
        // Progress gate: a pair is *cleanly* resolved only when its two
        // states land in opposite stable regions — excitation-region states
        // occur with both values of the new signal (pre- and post-edge), so
        // their codes keep aliasing the other side.  At least one core pair
        // must be cleanly separated or the insertion cannot make progress
        // on the chosen conflict.
        {
            let m = self.space.manager_mut();
            let w_s0 = m.intersects(core.with, s0);
            let w_s1 = m.intersects(core.with, s1);
            let wo_s0 = m.intersects(core.without, s0);
            let wo_s1 = m.intersects(core.without, s1);
            if !((w_s0 && wo_s1) || (w_s1 && wo_s0)) {
                return None;
            }
        }
        // Arc derivation.  Block crossings are uniform after the repair, so
        // the waiting arcs (`consume_a1`/`consume_a0`) are unambiguous; the
        // trigger arcs are per-transition *legs* of the new edges, and a
        // transition whose firings enter an excitation region gets one —
        // several triggers form a join on the new edge (each leg delivers
        // exactly one token per excursion, which the post-insertion
        // verification confirms on the rebuilt net).
        let mut arcs = vec![TransArcs::default(); self.num_transitions];
        let mut short_circuits = 0usize;
        let relevant = merge_sup(&merge_sup(&block.sup, &er_rise.sup), &er_fall.sup);
        for bi in self.branches_touching(&relevant) {
            let srcs = self.srcs[bi];
            let (m, branches) = self.space.manager_with_branches();
            let Branch { trans, pinned, edge, .. } = branches[bi];
            let t = trans.index();
            if srcs.is_false() {
                continue;
            }
            // Each question is one bit of a non-building crossing walk.
            let tgt_in_block = m.restrict_cube(block.set, pinned);
            let block_mask = m.crossing(srcs, block.set, tgt_in_block);
            // Input edges may trigger the new signal but never wait for it.
            let input = edge.is_some_and(|(signal, _)| self.input_signal[signal.index()]);
            if input && block_mask & (BddManager::ENTERS | BddManager::LEAVES) != 0 {
                return None;
            }
            arcs[t].consume_a1 |= block_mask & BddManager::ENTERS != 0;
            arcs[t].consume_a0 |= block_mask & BddManager::LEAVES != 0;
            let tgt_er_rise = m.restrict_cube(er_rise.set, pinned);
            let rise_mask = m.crossing(srcs, er_rise.set, tgt_er_rise);
            arcs[t].produce_r1 |= rise_mask & BddManager::ENTERS != 0;
            let tgt_er_fall = m.restrict_cube(er_fall.set, pinned);
            let fall_mask = m.crossing(srcs, er_fall.set, tgt_er_fall);
            arcs[t].produce_r0 |= fall_mask & BddManager::ENTERS != 0;
            // Direct jumps between the two excitation regions: the new
            // signal would have to fall right after rising (or vice versa).
            let jumps = |m: &mut BddManager, from: Bdd, to: Bdd| {
                m.crossing(srcs, from, to) & BddManager::STAYS_IN != 0
            };
            if jumps(m, er_rise.set, tgt_er_fall) || jumps(m, er_fall.set, tgt_er_rise) {
                short_circuits += 1;
            }
        }
        // The new edges need at least one trigger each, or they could fire
        // unboundedly (empty preset) — reject such degenerate plans.
        if !arcs.iter().any(|a| a.produce_r1) || !arcs.iter().any(|a| a.produce_r0) {
            return None;
        }
        let triggers = arcs.iter().filter(|a| a.produce_r1).count()
            + arcs.iter().filter(|a| a.produce_r0).count();

        // Remaining conflict pairs if this block is inserted.  The new
        // signal is 0 in every occurrence of `S0`, the pre-rise phase of
        // `ER(x+)` and the post-fall phase of `ER(x-)`, and 1 in the
        // post-rise phase of `ER(x+)`, `S1` and the pre-fall phase of
        // `ER(x-)` — so existing-signal conflicts survive exactly within
        // those two occurrence sets, and the new signal itself conflicts
        // where its excitation-region codes alias stable-region codes
        // (the Fig. 3 secondary conflicts, predicted instead of discovered).
        let (z0, z1, s0_erm, s1_erp) = {
            let m = self.space.manager_mut();
            let s0_erp = m.or(s0, er_rise.set);
            let z0 = m.or(s0_erp, er_fall.set);
            let erp_s1 = m.or(er_rise.set, s1);
            let z1 = m.or(erp_s1, er_fall.set);
            (z0, z1, m.or(s0, er_fall.set), m.or(s1, er_rise.set))
        };
        let mut unresolved = 0.0;
        for i in 0..self.non_inputs.len() {
            let (_, en) = self.non_inputs[i];
            unresolved += self.conflict_pair_count(z0, en);
            unresolved += self.conflict_pair_count(z1, en);
        }
        unresolved += self.cross_pair_count(er_rise.set, s0_erm);
        unresolved += self.cross_pair_count(er_fall.set, s1_erp);
        let border = {
            let m = self.space.manager_mut();
            let cores = m.or(core.with, core.without);
            let ers = m.or(er_rise.set, er_fall.set);
            let touched = m.and(cores, ers);
            m.sat_count_f64(touched)
        };
        let imbalance = {
            let m = self.space.manager_mut();
            let bucket_in = {
                let x = m.and(core.bucket, block.set);
                m.sat_count_f64(x)
            };
            let bucket_total = m.sat_count_f64(core.bucket);
            (2.0 * bucket_in - bucket_total).abs()
        };
        let initial_rise_instance = self.space.manager_mut().intersects(self.initial, er_rise.set);
        Some((
            DetailCost { unresolved, border, short_circuits, triggers, imbalance },
            InsertionPlan {
                arcs,
                join_rise: true,
                join_fall: true,
                initial_rise_instance,
                er_rise: er_rise.set,
                er_fall: er_fall.set,
            },
        ))
    }

    /// Computes the join-mode leg premarks of `plan`: a trigger whose
    /// region is reachable from the initial state without firing it has
    /// conceptually already fired ("behind" the initial marking in the
    /// cycle), so its leg must start with a token or the first excursion
    /// would deadlock.  Runs one restricted reachability per trigger
    /// (memoised across plans), which is why it is deferred until a plan is
    /// actually about to be verified.
    fn finalize_premarks(&mut self, plan: &mut InsertionPlan) {
        for t in 0..self.num_transitions {
            if !(plan.arcs[t].produce_r1 || plan.arcs[t].produce_r0) {
                continue;
            }
            let without = match self.without_cache.get(&t) {
                Some(&w) => w,
                None => {
                    let w = self.space.reachable_without(TransId::from(t));
                    self.without_cache.insert(t, w);
                    w
                }
            };
            let m = self.space.manager_mut();
            if plan.arcs[t].produce_r1 {
                plan.arcs[t].premark_r1 = m.intersects(without, plan.er_rise);
            }
            if plan.arcs[t].produce_r0 {
                plan.arcs[t].premark_r0 = m.intersects(without, plan.er_fall);
            }
        }
    }
}

/// The result of [`insert_signal`]: the grown STG and the place indices
/// the insertion added (the phase and leg places of the new signal).
struct InsertedStg {
    stg: Stg,
    new_places: std::ops::Range<usize>,
}

/// Rewrites the net for one new internal signal according to `plan`: every
/// trigger transition gets a private *leg* place feeding `name+` (rise
/// triggers) or `name-` (fall triggers) — several triggers form a join on
/// the new edge — the edges acknowledge into two shared places, and the
/// block-crossing transitions consume the acknowledgements, i.e. wait for
/// the edge before crossing.
///
/// The new places are spliced into the place order right before the
/// touched component's lowest preset place rather than appended: the
/// symbolic engine anchors its interleaved variable order on place
/// indices, and the phase places correlate tightly with the local
/// component's state — parking them at the end of the order makes the next
/// reachability analysis blow up on wide nets.
fn insert_signal(stg: &Stg, name: &str, plan: &InsertionPlan) -> Result<InsertedStg, CscError> {
    let net = stg.net();
    let mut b = PetriNetBuilder::new();
    let anchor = plan
        .arcs
        .iter()
        .enumerate()
        .filter(|(_, a)| a.produce_r1 || a.produce_r0 || a.consume_a1 || a.consume_a0)
        .flat_map(|(t, _)| net.preset(TransId::from(t)).iter().map(|p| p.index()))
        .min()
        .unwrap_or(net.num_places());
    // Old places below the anchor keep their indices; the new places go
    // next; the remaining old places follow, shifted up.
    let mut old_place = Vec::with_capacity(net.num_places());
    for p in 0..anchor {
        let place = petri::PlaceId::from(p);
        let tokens = u32::from(net.initial_marking().is_marked(place));
        old_place.push(b.add_place(net.place_name(place), tokens));
    }
    let new_start = anchor;
    let a1 = b.add_place(format!("{name}_a1"), 0);
    let a0 = b.add_place(format!("{name}_a0"), 0);
    // One request leg per trigger transition.  In join mode a leg whose
    // trigger fires "behind" the initial marking starts with its token
    // already delivered; in split mode each leg feeds its own edge
    // instance, and an initial marking inside `ER(x+)` gets a dedicated
    // pre-marked startup leg instead.
    let mut rise_legs = Vec::new();
    let mut fall_legs = Vec::new();
    for (t, arcs) in plan.arcs.iter().enumerate() {
        if arcs.produce_r1 {
            let leg = b.add_place(
                format!("{name}_r1_{}", net.transition_name(TransId::from(t))),
                u32::from(plan.join_rise && arcs.premark_r1),
            );
            rise_legs.push((t, leg));
        }
        if arcs.produce_r0 {
            let leg = b.add_place(
                format!("{name}_r0_{}", net.transition_name(TransId::from(t))),
                u32::from(plan.join_fall && arcs.premark_r0),
            );
            fall_legs.push((t, leg));
        }
    }
    let startup_leg = (!plan.join_rise && plan.initial_rise_instance)
        .then(|| b.add_place(format!("{name}_r1_init"), 1));
    let new_end = b.num_places();
    for p in anchor..net.num_places() {
        let place = petri::PlaceId::from(p);
        let tokens = u32::from(net.initial_marking().is_marked(place));
        old_place.push(b.add_place(net.place_name(place), tokens));
    }

    let mut labels = Vec::with_capacity(net.num_transitions() + 2);
    for t in 0..net.num_transitions() {
        let t_id = TransId::from(t);
        let new_t = b.add_transition(net.transition_name(t_id));
        for &p in net.preset(t_id) {
            b.add_arc_place_to_transition(old_place[p.index()], new_t);
        }
        for &p in net.postset(t_id) {
            b.add_arc_transition_to_place(new_t, old_place[p.index()]);
        }
        let arcs = plan.arcs[t];
        if arcs.consume_a1 {
            b.add_arc_place_to_transition(a1, new_t);
        }
        if arcs.consume_a0 {
            b.add_arc_place_to_transition(a0, new_t);
        }
        if let Some(&(_, leg)) = rise_legs.iter().find(|&&(lt, _)| lt == t) {
            b.add_arc_transition_to_place(new_t, leg);
        }
        if let Some(&(_, leg)) = fall_legs.iter().find(|&&(lt, _)| lt == t) {
            b.add_arc_transition_to_place(new_t, leg);
        }
        labels.push(stg.label(t_id));
    }
    let new_signal = SignalId::from(stg.num_signals());
    let add_edge_instances = |b: &mut PetriNetBuilder,
                              labels: &mut Vec<TransitionLabel>,
                              legs: &[petri::PlaceId],
                              join: bool,
                              suffix: char,
                              ack: petri::PlaceId| {
        let polarity = if suffix == '+' { stg::Polarity::Rise } else { stg::Polarity::Fall };
        if join {
            let edge = b.add_transition(format!("{name}{suffix}"));
            for &leg in legs {
                b.add_arc_place_to_transition(leg, edge);
            }
            b.add_arc_transition_to_place(edge, ack);
            labels.push(TransitionLabel::Edge { signal: new_signal, polarity });
        } else {
            for (i, &leg) in legs.iter().enumerate() {
                let trans_name = if i == 0 {
                    format!("{name}{suffix}")
                } else {
                    format!("{name}{suffix}/{}", i + 1)
                };
                let edge = b.add_transition(trans_name);
                b.add_arc_place_to_transition(leg, edge);
                b.add_arc_transition_to_place(edge, ack);
                labels.push(TransitionLabel::Edge { signal: new_signal, polarity });
            }
        }
    };
    let mut all_rise_legs: Vec<petri::PlaceId> = rise_legs.iter().map(|&(_, leg)| leg).collect();
    if let Some(leg) = startup_leg {
        all_rise_legs.push(leg);
    }
    add_edge_instances(&mut b, &mut labels, &all_rise_legs, plan.join_rise, '+', a1);
    let all_fall_legs: Vec<petri::PlaceId> = fall_legs.iter().map(|&(_, leg)| leg).collect();
    add_edge_instances(&mut b, &mut labels, &all_fall_legs, plan.join_fall, '-', a0);

    let mut signals = stg.signals().to_vec();
    signals.push(Signal { name: name.to_owned(), kind: SignalKind::Internal });
    let net = b.build().map_err(|e| CscError::Stg(stg::StgError::Net(e)))?;
    let stg = Stg::from_labelled_net(net, signals, labels, stg.name().to_owned())
        .map_err(CscError::Stg)?;
    Ok(InsertedStg { stg, new_places: new_start..new_end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use stg::benchmarks;

    thread_local! {
        /// While set, every block search of this thread's solves is checked
        /// by [`check_pool`], which counts the checked pools and deferred
        /// entries here.
        static POOL_ORACLE: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    }

    /// Whether two scores are the same, bit for bit.
    fn same(a: &CheapCost, b: &CheapCost) -> bool {
        a.cmp(b).is_eq() && a.exact == b.exact
    }

    /// The pool oracle: rescores every entry of a search's pool with no
    /// bound, ranks the rescored pool by (cost, insertion index), and
    /// requires the bounded pool to walk exactly that ranking — its first
    /// `cap` entries as the search left them, the tail once rescored.
    pub(super) fn check_pool(it: &mut Iteration, core: &Core, pool: &Pool) {
        let Some((pools, deferred)) = POOL_ORACLE.get() else { return };
        let crossing_tests = it.crossing_tests;
        let exact: Vec<CheapCost> =
            pool.entries.iter().map(|(zone, _)| it.cheap_eval(core, zone, None)).collect();
        let mut order: Vec<usize> = (0..exact.len()).collect();
        order.sort_by(|&a, &b| exact[a].cmp(&exact[b]));
        let cap = pool.cap.min(exact.len());
        let mut deferrals = 0;
        for (i, (_, cost)) in pool.entries.iter().enumerate() {
            if cost.exact {
                assert!(same(cost, &exact[i]), "entry {i}: {cost:?} is not {:?}", exact[i]);
            } else {
                deferrals += 1;
                assert!(
                    cost.cmp(&exact[i]).is_le(),
                    "entry {i}: {cost:?} bounds no {:?}",
                    exact[i]
                );
                assert!(
                    exact[i].cmp(&exact[order[cap - 1]]).is_gt(),
                    "deferred entry {i} is not strictly worse than rank {cap}"
                );
            }
        }
        let mut walked = pool.clone();
        for (rank, &want) in order.iter().enumerate() {
            let (zone, cost) = walked.at(rank, it, core).expect("every rank is walked");
            let (expected, _) = &pool.entries[want];
            assert!(zone.set == expected.set && zone.sup == expected.sup, "rank {rank}: zone");
            assert!(same(cost, &exact[want]), "rank {rank}: {cost:?} is not {:?}", exact[want]);
        }
        it.crossing_tests = crossing_tests;
        POOL_ORACLE.set(Some((pools + 1, deferred + deferrals)));
    }

    /// The Table 2 suite, `pipe4_3`, `wide_conflict4` and the fuzz seeds
    /// whose plan selection scans past the cap: the solves the search
    /// oracles below run on.
    fn oracle_models() -> Vec<Stg> {
        let mut models: Vec<Stg> =
            benchmarks::table2_suite().into_iter().map(|(_, model, _)| model).collect();
        models.extend([benchmarks::pipeline_4ph(3), benchmarks::wide_conflict(4)]);
        models.extend([0, 13, 18].map(stg::fuzz::random_stg));
        models
    }

    thread_local! {
        /// While set, every candidate plan selection evaluates is checked
        /// by [`check_detail`], which counts the checked candidates and
        /// those the early input check rejected here.
        static DETAIL_ORACLE: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    }

    /// Whether two detailed costs are the same, bit for bit.
    fn same_detail(a: &DetailCost, b: &DetailCost) -> bool {
        a.unresolved.to_bits() == b.unresolved.to_bits()
            && a.border.to_bits() == b.border.to_bits()
            && a.short_circuits == b.short_circuits
            && a.triggers == b.triggers
            && a.imbalance.to_bits() == b.imbalance.to_bits()
    }

    /// The early-rejection oracle: re-evaluates `block` with the early
    /// input check skipped and requires `outcome`, the evaluation with it:
    /// both `None`, or the same cost bit for bit and the same plan.
    pub(super) fn check_detail(
        it: &mut Iteration,
        core: &Core,
        block: &Zone,
        outcome: &Option<(DetailCost, InsertionPlan)>,
    ) {
        let Some((evaluated, early)) = DETAIL_ORACLE.get() else { return };
        let counters = (it.crossing_tests, it.cofactor_crossings);
        let uniform = it.uniform_block(block);
        let rejected_early = uniform.as_ref().is_some_and(|b| it.delays_an_input(b));
        let full = uniform.and_then(|b| it.plan_block(core, &b));
        match (outcome, &full) {
            (None, None) => {}
            (Some((cost, plan)), Some((full_cost, full_plan))) => {
                assert!(same_detail(cost, full_cost), "{cost:?} is not {full_cost:?}");
                assert_eq!(plan, full_plan);
            }
            _ => panic!(
                "the early input check changed the outcome: {} with it, {} without",
                outcome.is_some(),
                full.is_some()
            ),
        }
        (it.crossing_tests, it.cofactor_crossings) = counters;
        DETAIL_ORACLE.set(Some((evaluated + 1, early + usize::from(rejected_early))));
    }

    #[test]
    fn early_input_rejection_keeps_every_outcome() {
        DETAIL_ORACLE.set(Some((0, 0)));
        for model in &oracle_models() {
            // A solve that fails is checked as far as its searches went.
            let _ = solve_stg_symbolic(model, &SolverConfig::default());
        }
        let (evaluated, early) = DETAIL_ORACLE.take().expect("oracle armed");
        assert!(
            evaluated >= 2000 && early >= 500,
            "{evaluated} candidates, {early} early rejections"
        );
    }

    /// The crossing test without the one-sided short-cut: the cofactor of
    /// `set` at the branch's post-values and one crossing walk, for every
    /// branch.
    fn cofactor_crossing(it: &mut Iteration, bi: usize, set: Bdd) -> u8 {
        let (pinned, srcs) = (it.space.branches()[bi].pinned, it.srcs[bi]);
        let m = it.space.manager_mut();
        let tgt_in = m.restrict_cube(set, pinned);
        m.crossing(srcs, set, tgt_in)
    }

    #[test]
    fn one_sided_crossing_tests_match_the_cofactor_walk() {
        const CROSSES: u8 = BddManager::LEAVES | BddManager::ENTERS;
        const STAYS: u8 = BddManager::STAYS_IN | BddManager::STAYS_OUT;
        let (mut tests, mut one_sided_mixed) = (0, 0);
        for model in &oracle_models() {
            let space =
                model.try_symbolic_encoded_state_space(0, &ReachabilityConfig::default()).unwrap();
            let mut it = Iteration::build(model, space, None).unwrap();
            for brick in it.bricks() {
                // The brick and the first 12 prefixes of its growth chain.
                let mut zone = brick;
                for prefix in 0..=12 {
                    for bi in 0..it.space.branches().len() {
                        let mask = cofactor_crossing(&mut it, bi, zone.set);
                        let mixed =
                            (mask & CROSSES != 0 && mask & STAYS != 0) || mask & CROSSES == CROSSES;
                        let cofactored = it.cofactor_crossings;
                        let context = format!("{}: prefix {prefix}, branch {bi}", model.name());
                        assert_eq!(it.crossing_is_mixed(bi, zone.set), mixed, "{context}");
                        assert_eq!(it.crosses(bi, zone.set), mask & CROSSES != 0, "{context}");
                        one_sided_mixed +=
                            usize::from(mixed && it.cofactor_crossings == cofactored);
                        tests += 1;
                    }
                    let img = it.image_zone(&zone);
                    let grown = it.space.manager_mut().or(zone.set, img.set);
                    if grown == zone.set {
                        break;
                    }
                    zone = Zone { set: grown, sup: img.sup };
                }
            }
        }
        assert!(
            tests >= 40_000 && one_sided_mixed >= 500,
            "{tests} tests, {one_sided_mixed} mixed one-sided"
        );
    }

    #[test]
    fn bounded_pools_rank_exactly_like_unbounded_ones() {
        POOL_ORACLE.set(Some((0, 0)));
        for model in &oracle_models() {
            // A solve that fails is checked as far as its searches went.
            let _ = solve_stg_symbolic(model, &SolverConfig::default());
        }
        let (pools, deferred) = POOL_ORACLE.take().expect("oracle armed");
        assert!(pools >= 50 && deferred >= 3000, "{pools} pools, {deferred} deferred entries");
    }

    #[test]
    fn conflict_free_models_need_no_insertion() {
        let solution =
            solve_stg_symbolic(&benchmarks::handshake(), &SolverConfig::default()).unwrap();
        assert!(solution.inserted_signals.is_empty());
        assert_eq!(solution.stats.iterations, 0);
        assert_eq!(solution.stats.initial_states, solution.stats.final_states);
        assert!(!benchmarks::handshake().symbolic_csc_violation(0));
    }

    #[test]
    fn pulser_is_solved_with_one_signal() {
        let solution = solve_stg_symbolic(&benchmarks::pulser(), &SolverConfig::default()).unwrap();
        assert_eq!(solution.inserted_signals, ["csc0"], "{:?}", solution.cores);
        assert!(!solution.stg.symbolic_csc_violation(0), "CSC must hold on the encoded STG");
        assert_eq!(solution.cores.len(), 1);
        assert_eq!(solution.cores[0].signal, "y");
        // The encoded STG is small enough for the explicit engine: the
        // ground-truth graph-level CSC check must agree.
        let sg = solution.stg.state_graph(100_000).unwrap();
        assert!(sg.complete_state_coding_holds());
        assert!(sg.is_consistent());
    }

    #[test]
    fn vme_read_is_solved_within_the_explicit_budget() {
        let solution =
            solve_stg_symbolic(&benchmarks::vme_read(), &SolverConfig::default()).unwrap();
        assert!(
            (1..=1).contains(&solution.inserted_signals.len()),
            "explicit solves vme_read with 1 signal, symbolic got {:?}",
            solution.inserted_signals
        );
        let sg = solution.stg.state_graph(100_000).unwrap();
        assert!(sg.complete_state_coding_holds());
    }

    #[test]
    fn restricted_reachability_matches_an_explicit_search_that_skips_the_transition() {
        // The fuzz seeds (each under 100 k states) add nets of random shape,
        // and so firing orders no hand-written model has.
        let mut models = vec![
            benchmarks::vme_read(),
            benchmarks::pulser_bank(2),
            benchmarks::pipeline_4ph(3),
            benchmarks::counter(2),
        ];
        models.extend((0..40).map(stg::fuzz::random_stg));
        for model in models {
            let sg = model.state_graph(100_000).unwrap();
            let seed = sg.code(sg.ts.initial());
            let mut space = model
                .try_symbolic_encoded_state_space(seed, &ReachabilityConfig::default())
                .unwrap();
            let fixpoints = stg::fixpoints_run();
            for t in (0..model.net().num_transitions()).map(TransId::from) {
                // State-graph events coincide with net transitions.
                let mut seen = vec![false; sg.num_states()];
                let mut stack = vec![sg.ts.initial()];
                seen[sg.ts.initial().index()] = true;
                while let Some(state) = stack.pop() {
                    for &(event, next) in sg.ts.successors(state) {
                        if event.index() != t.index() && !seen[next.index()] {
                            seen[next.index()] = true;
                            stack.push(next);
                        }
                    }
                }
                let explicit = seen.iter().filter(|&&s| s).count() as f64;
                let without = space.reachable_without(t);
                let symbolic = space.manager().sat_count_f64(without);
                let name = model.net().transition_name(t);
                assert_eq!(symbolic, explicit, "{}: without {name}", model.name());
            }
            // Restricted fixpoints are not flow fixpoints.
            assert_eq!(stg::fixpoints_run(), fixpoints, "{}", model.name());
        }
    }

    #[test]
    fn code_tied_pair_counts_match_the_explicit_state_graph() {
        let mut models: Vec<Stg> =
            benchmarks::table2_suite().into_iter().map(|(_, model, _)| model).collect();
        models.push(benchmarks::pipeline_4ph(3));
        models.extend((0..40).map(stg::fuzz::random_stg));
        let mut rng = stg::fuzz::SplitMix64::new(7);
        for model in models {
            let sg = model.state_graph(100_000).unwrap();
            let seed = sg.code(sg.ts.initial());
            let space = model
                .try_symbolic_encoded_state_space(seed, &ReachabilityConfig::default())
                .unwrap();
            let mut it = Iteration::build(&model, space, None).unwrap();
            // Two random sets of reachable states (a few hundred at most),
            // and their code-tied pairs counted per code.
            let keep = (sg.num_states() / 300).max(1);
            let mut sides = [Vec::new(), Vec::new()];
            for side in &mut sides {
                side.extend((0..sg.num_states()).filter(|_| rng.below(keep) == 0 && rng.coin()));
            }
            let mut per_code: FxHashMap<u64, [f64; 2]> = FxHashMap::default();
            let mut sets = [it.space.manager().bottom(); 2];
            for (i, side) in sides.iter().enumerate() {
                for &state in side {
                    let marking = sg.markings[state].to_bools();
                    let code = sg.code(ts::StateId::from(state));
                    per_code.entry(code).or_default()[i] += 1.0;
                    let places = marking.iter().enumerate().map(|(p, &v)| (it.place_vars[p], v));
                    let signals = it.signal_vars.iter().enumerate();
                    let lits: Vec<(VarId, bool)> =
                        places.chain(signals.map(|(s, &v)| (v, (code >> s) & 1 != 0))).collect();
                    let m = it.space.manager_mut();
                    let cube = m.cube_of(&lits);
                    sets[i] = m.or(sets[i], cube);
                }
            }
            let explicit: f64 = per_code.values().map(|[a, b]| a * b).sum();
            let name = model.name();
            assert_eq!(it.cross_pair_count(sets[0], sets[1]), explicit, "{name}: cross pairs");
            let mut total = 0.0;
            for i in 0..it.non_inputs.len() {
                let signal = it.non_inputs[i].0;
                let bit = 1u64 << signal.index();
                // Per code: how many states enable the signal, how many not.
                let mut buckets: FxHashMap<u64, (f64, f64)> = FxHashMap::default();
                for state in (0..sg.num_states()).map(ts::StateId::from) {
                    let bucket = buckets.entry(sg.code(state)).or_default();
                    if sg.enabled_signal_mask(state) & bit != 0 {
                        bucket.0 += 1.0;
                    } else {
                        bucket.1 += 1.0;
                    }
                }
                let explicit: f64 = buckets.values().map(|&(with, without)| with * without).sum();
                let symbolic = it.signal_conflict_pairs(signal);
                let name = &it.signal_names[signal.index()];
                assert_eq!(symbolic, explicit, "{}: {name}", model.name());
                total += explicit;
            }
            assert_eq!(it.total_conflict_pairs(), total, "{}", model.name());
        }
    }

    #[test]
    fn frontier_imaged_chains_match_whole_set_images() {
        for model in [
            benchmarks::vme_read(),
            benchmarks::counter(2),
            benchmarks::pipeline_4ph(3),
            benchmarks::pulser_bank(3),
            benchmarks::wide_conflict(4),
        ] {
            let space =
                model.try_symbolic_encoded_state_space(0, &ReachabilityConfig::default()).unwrap();
            let mut it = Iteration::build(&model, space, None).unwrap();
            for seed in it.bricks() {
                // Reference: every step images the whole chain.
                let (mut whole, mut chain) = (seed.clone(), seed);
                let mut fresh = chain.set;
                let mut imaged = Vec::new();
                for step in 0..12 {
                    let img = it.image_zone(&whole);
                    whole.set = it.space.manager_mut().or(whole.set, img.set);
                    whole.sup = img.sup;
                    let img = it.image_chain_step(&chain, fresh, &imaged);
                    let m = it.space.manager_mut();
                    fresh = m.and_not(img.set, chain.set);
                    let next = Zone { set: m.or(chain.set, img.set), sup: img.sup };
                    imaged = std::mem::replace(&mut chain, next).sup;
                    assert!(whole.set == chain.set, "{}: step {step}", model.name());
                    assert_eq!(whole.sup, chain.sup, "{}: step {step}", model.name());
                }
            }
        }
    }

    #[test]
    fn a_solve_runs_one_fixpoint_per_verified_candidate_net() {
        for model in [benchmarks::pulser(), benchmarks::vme_read(), benchmarks::handshake()] {
            let solution = solve_stg_symbolic(&model, &SolverConfig::default()).unwrap();
            let stats = &solution.stats;
            // The input's space, then one rebuild per candidate net.
            assert_eq!(stats.fixpoints, 1 + stats.stage.candidates_verified, "{}", model.name());
            assert!(stats.stage.candidates_verified >= solution.inserted_signals.len());
        }
    }

    #[test]
    fn signal_budget_is_respected() {
        let config = SolverConfig { max_signals: 0, ..SolverConfig::default() };
        let err = solve_stg_symbolic(&benchmarks::pulser(), &config).unwrap_err();
        assert!(matches!(err, CscError::SignalLimitReached { limit: 0, .. }), "{err}");
    }

    #[test]
    fn wrong_seed_is_rejected() {
        // The re-synthesized pulser starts with non-zero signal values; an
        // all-zero seed truncates the space and must surface as a typed
        // error, not as a bogus solution.
        let explicit = crate::solve_stg(&benchmarks::pulser(), &SolverConfig::default()).unwrap();
        let encoded = explicit.stg.expect("pulser re-synthesizes");
        let err = solve_stg_symbolic(&encoded, &SolverConfig::default()).unwrap_err();
        // The guard names the edge the wrong seed bars: the inserted
        // signal starts at 1, so its falling edge cannot fire from code 0.
        let CscError::Stg(StgError::SeedMismatch { barred }) = &err else {
            panic!("expected barred edges as the witness, got {err}");
        };
        assert_eq!(barred[0].transition, "csc0-", "{err}");
        assert!(err.to_string().contains("'csc0-'"), "{err}");
        // With the true seed the same net solves without insertion.
        let sg = encoded.state_graph(10_000).unwrap();
        let seeded =
            solve_stg_symbolic_seeded(&encoded, &SolverConfig::default(), sg.code(sg.ts.initial()));
        assert!(seeded.unwrap().inserted_signals.is_empty());
    }

    #[test]
    fn observable_traces_are_preserved() {
        for model in [benchmarks::pulser(), benchmarks::vme_read()] {
            let solution = solve_stg_symbolic(&model, &SolverConfig::default()).unwrap();
            let original = model.state_graph(100_000).unwrap();
            let encoded = solution.stg.state_graph(100_000).unwrap();
            let hidden: Vec<String> = solution
                .inserted_signals
                .iter()
                .flat_map(|n| [format!("{n}+"), format!("{n}-")])
                .collect();
            let hidden_refs: Vec<&str> = hidden.iter().map(String::as_str).collect();
            assert!(
                ts::traces::projected_trace_equivalent(&original.ts, &encoded.ts, &hidden_refs),
                "{}: hiding {hidden:?} must restore the original behaviour",
                model.name()
            );
        }
    }

    #[test]
    fn inserted_signals_are_internal_and_consistent() {
        let solution =
            solve_stg_symbolic(&benchmarks::sequencer(3), &SolverConfig::default()).unwrap();
        for name in &solution.inserted_signals {
            let id = solution.stg.signal_id(name).expect("inserted signal in table");
            assert_eq!(solution.stg.signal(id).kind, SignalKind::Internal);
        }
        let sg = solution.stg.state_graph(100_000).unwrap();
        assert!(sg.is_consistent());
        assert!(sg.complete_state_coding_holds());
    }
}
