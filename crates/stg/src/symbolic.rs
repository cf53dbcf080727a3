//! BDD-based symbolic state-space exploration.
//!
//! The DAC'96 paper attributes petrify's capacity to handle "extremely large
//! state graphs" to the symbolic (OBDD) representation of the state graph.
//! This module provides that engine, built around the fused
//! relational-product operator [`bdd::BddManager::and_exists`]:
//!
//! * **Interleaved variable encoding** — every state variable (one per
//!   place, plus one per signal for code-encoded spaces) owns an adjacent
//!   pair of BDD variables: the *current* copy at index `2i` and the *next*
//!   copy at `2i + 1`.  Interleaving keeps the per-transition relations
//!   linear-sized, and renaming next back to current is a plain
//!   order-preserving shift ([`bdd::BddManager::unprime`]).
//! * **Partitioned transition relations** — each transition contributes a
//!   small relation `enabled(x) ∧ next-values(x′) ∧ frame(x, x′)` whose
//!   support is limited to the variables the transition actually touches.
//!   Relations are grouped into *disjunctive clusters* per signal (dummy
//!   transitions stay individual), so one image step per cluster replaces
//!   the per-transition and/exists/and/or chain.
//! * **Chained reachability** — each image round fires the clusters one
//!   after another, in the order they are built: a cluster images the
//!   round's frontier plus every state the clusters before it found in the
//!   same round, so one round advances every independent component of an
//!   interleaving product instead of one component by one step.  The round
//!   then hands everything it found to the next round as its frontier.
//!   Chaining only fires enabled transitions, so it computes the same least
//!   fixpoint as breadth-first search; and after round `k` the reachable set
//!   holds every state within `k` steps of the initial one, so it never
//!   needs more rounds than breadth-first search (the `4 × places` round cap
//!   keeps its meaning).  A product of `k` handshakes converges in 3 rounds
//!   where breadth-first search needs the sum of the component depths.
//!
//! The symbolic engine is used by the Table 1 harness to count state spaces
//! far beyond what explicit enumeration can touch (e.g. `4^24` markings for
//! a 24-wide parallel composition) and to detect the presence of encoding
//! conflicts without building the explicit graph.

use crate::error::StgError;
use crate::model::{Stg, TransitionLabel};
use crate::signal::{Polarity, SignalId};
use bdd::{Bdd, BddManager, BddStats, Budget, FxHashMap, VarId};
use petri::TransId;
use std::cell::Cell;

thread_local! {
    static FIXPOINTS: Cell<usize> = const { Cell::new(0) };
}

/// Reachability fixpoints, encoded or places-only, the calling thread has
/// started so far.  The difference around a single-threaded computation
/// counts its fixpoints exactly, whatever runs on other threads.
pub fn fixpoints_run() -> usize {
    FIXPOINTS.with(Cell::get)
}

/// Configuration for the fallible reachability entry points
/// ([`Stg::try_symbolic_state_space`] and friends).
///
/// The default is the default round cap (`4 × places`) and no resource
/// budget.
#[derive(Clone, Debug, Default)]
pub struct ReachabilityConfig {
    /// Cap on chained image rounds; `None` uses `4 × places`.
    pub max_iterations: Option<usize>,
    /// Shared resource budget charged for every BDD node the fixpoint
    /// allocates and checked between image rounds.
    pub budget: Option<Budget>,
    /// Stage label reported by budget trips during the fixpoint; `None`
    /// labels them `"reachability"`.  Callers running reachability as a
    /// sub-step of a larger governed phase (the CSC solver's candidate
    /// verification) override this so trips name the phase the user sees.
    pub stage: Option<&'static str>,
}

impl ReachabilityConfig {
    /// A config differing from the default only by its budget.
    pub fn with_budget(budget: Budget) -> Self {
        ReachabilityConfig { budget: Some(budget), ..Self::default() }
    }
}

/// A symbolically represented set of reachable markings.
#[derive(Debug)]
pub struct SymbolicStateSpace {
    manager: BddManager,
    reachable: Bdd,
    initial: Bdd,
    num_places: usize,
    num_signals: usize,
    /// Position of each logical state variable (places `0..num_places`,
    /// then signals) in the interleaved BDD variable order.
    pos: Vec<usize>,
    /// `true` when the fixpoint completed without hitting the iteration cap.
    pub converged: bool,
    /// Number of chained image rounds the fixpoint performed; a converged
    /// fixpoint counts its last round, which finds nothing new.
    pub iterations: usize,
}

/// One enabling/update branch of an STG transition, expressed over the
/// *current* BDD variables of the [`SymbolicStateSpace`] it was derived
/// from.
///
/// A rising or falling edge contributes exactly one branch; a toggle edge
/// contributes two (one per pre-value of its code bit); a dummy transition
/// contributes one branch that touches no code variable.  Because the next
/// state differs from the current one only on [`Self::pinned`]'s variables
/// — and there to fixed constants — downstream analyses (image, crossing
/// and border computations in the symbolic CSC solver) never need the
/// next-state variable copies: the image of a state set `A` under a branch
/// is `(∃ changed. A ∧ enabled) ∧ pinned`, and "the target satisfies `Q`"
/// is the cofactor of `Q` at the pinned literals.
#[derive(Clone, Debug)]
pub struct TransitionBranch {
    /// The net transition this branch belongs to.
    pub trans: TransId,
    /// Literals that must hold for the branch to fire: every preset place
    /// marked, plus the signal's pre-value for a coded edge.
    pub enabled: Vec<(VarId, bool)>,
    /// Values the changed variables take after firing — cleared places to 0,
    /// newly marked places to 1, the signal's code bit to its post-value.
    /// Variables outside this list keep their current value.
    pub pinned: Vec<(VarId, bool)>,
}

/// One enabling/update branch of a transition over *state-variable indices*
/// (places `0..num_places`, then signals) — the encoding-independent form
/// shared by the reachability engine and [`SymbolicStateSpace::
/// transition_branches`].
struct RawBranch {
    trans: TransId,
    enabled: Vec<(usize, bool)>,
    changed: Vec<usize>,
    pinned: Vec<(usize, bool)>,
}

/// Enumerates the firing branches of every transition.  `with_codes` adds
/// the per-signal code variables (indices `num_places..`) to the coded
/// edges; without it every label is treated like a dummy.
fn enumerate_branches(stg: &Stg, with_codes: bool) -> Vec<RawBranch> {
    let net = stg.net();
    let num_places = net.num_places();
    let mut branches = Vec::new();
    for t in 0..net.num_transitions() {
        let t_id = TransId::from(t);
        let pre: Vec<usize> = net.preset(t_id).iter().map(|p| p.index()).collect();
        let post: Vec<usize> = net.postset(t_id).iter().map(|p| p.index()).collect();
        let cleared: Vec<usize> = pre.iter().copied().filter(|v| !post.contains(v)).collect();
        let set: Vec<usize> = post.iter().copied().filter(|v| !pre.contains(v)).collect();
        let signal_state_var = if with_codes {
            match stg.label(t_id) {
                TransitionLabel::Edge { signal, polarity } => {
                    Some((num_places + signal.index(), polarity))
                }
                TransitionLabel::Dummy => None,
            }
        } else {
            None
        };
        let enabled_base: Vec<(usize, bool)> = pre.iter().map(|&p| (p, true)).collect();
        let mut changed_base: Vec<usize> = cleared.clone();
        changed_base.extend(&set);
        let mut pinned_base: Vec<(usize, bool)> = Vec::new();
        pinned_base.extend(cleared.iter().map(|&p| (p, false)));
        pinned_base.extend(set.iter().map(|&p| (p, true)));
        // (signal pre-value, signal post-value) per branch; a toggle fires
        // from either value and lands on the opposite one.
        type CodeLit = Option<(usize, bool)>;
        let code_branches: Vec<(CodeLit, CodeLit)> = match signal_state_var {
            Some((sv, Polarity::Rise)) => vec![(Some((sv, false)), Some((sv, true)))],
            Some((sv, Polarity::Fall)) => vec![(Some((sv, true)), Some((sv, false)))],
            Some((sv, Polarity::Toggle)) => {
                vec![(Some((sv, false)), Some((sv, true))), (Some((sv, true)), Some((sv, false)))]
            }
            None => vec![(None, None)],
        };
        for (pre_lit, post_lit) in code_branches {
            let mut enabled = enabled_base.clone();
            let mut changed = changed_base.clone();
            let mut pinned = pinned_base.clone();
            if let Some((sv, value)) = pre_lit {
                enabled.push((sv, value));
                changed.push(sv);
            }
            if let Some((sv, value)) = post_lit {
                pinned.push((sv, value));
            }
            changed.sort_unstable();
            changed.dedup();
            branches.push(RawBranch { trans: t_id, enabled, changed, pinned });
        }
    }
    branches
}

/// One disjunctive cluster of transition relations plus its quantifier.
struct Cluster {
    /// `∨` over the member transitions of `enabled ∧ pins ∧ frame`.
    relation: Bdd,
    /// Positive cube of the *current* copies of every state variable some
    /// member changes — the set `and_exists` quantifies away.
    quant: Bdd,
}

impl Stg {
    /// Computes the reachable markings symbolically (place variables only).
    ///
    /// `max_iterations` bounds the number of chained image rounds; the
    /// default (`None`) allows `4 × places` rounds, which is ample for the
    /// benchmark suite.  After round `k` every state within `k` steps of
    /// the initial one is reachable (see the module docs), so the cap binds
    /// no earlier than it would on breadth-first rounds.
    pub fn symbolic_state_space(&self, max_iterations: Option<usize>) -> SymbolicStateSpace {
        infallible(self.symbolic_space_inner(false, 0, max_iterations, None))
    }

    /// Fallible reachability over the place variables: honours the budget in
    /// `config` and reports a typed [`StgError::NotConverged`] when the
    /// iteration cap is hit, instead of silently returning a truncated set.
    ///
    /// No flow stage runs this fixpoint: [`SymbolicStateSpace::check_seed`]
    /// decides on the encoded space what comparing against it would decide,
    /// and the fuzz harness keeps it as that guard's oracle.
    pub fn try_symbolic_state_space(
        &self,
        config: &ReachabilityConfig,
    ) -> Result<SymbolicStateSpace, StgError> {
        if let Some(budget) = &config.budget {
            budget.set_stage(config.stage.unwrap_or("reachability"));
        }
        let space =
            self.symbolic_space_inner(false, 0, config.max_iterations, config.budget.as_ref())?;
        ensure_converged(space)
    }

    /// Fallible reachability over the (marking, code) pairs; see
    /// [`Self::try_symbolic_state_space`].
    pub fn try_symbolic_encoded_state_space(
        &self,
        initial_code: u64,
        config: &ReachabilityConfig,
    ) -> Result<SymbolicStateSpace, StgError> {
        if let Some(budget) = &config.budget {
            budget.set_stage(config.stage.unwrap_or("reachability"));
        }
        let space = self.symbolic_space_inner(
            true,
            initial_code,
            config.max_iterations,
            config.budget.as_ref(),
        )?;
        ensure_converged(space)
    }

    /// Computes the reachable (marking, code) pairs symbolically.
    ///
    /// State variables are the places followed by one variable per signal.
    /// `initial_code` gives the signal values in the initial marking (bit
    /// `i` = signal `i`); the benchmark suite starts every signal at 0.
    pub fn symbolic_encoded_state_space(
        &self,
        initial_code: u64,
        max_iterations: Option<usize>,
    ) -> SymbolicStateSpace {
        infallible(self.symbolic_space_inner(true, initial_code, max_iterations, None))
    }

    fn symbolic_space_inner(
        &self,
        with_codes: bool,
        initial_code: u64,
        max_iterations: Option<usize>,
        budget: Option<&Budget>,
    ) -> Result<SymbolicStateSpace, StgError> {
        FIXPOINTS.with(|count| count.set(count.get() + 1));
        let net = self.net();
        let num_places = net.num_places();
        let num_signals = if with_codes { self.num_signals() } else { 0 };
        // One (current, next) variable pair per state variable, interleaved:
        // the state variable at *position* k of the chosen order lives at
        // BDD variables 2k (current) and 2k+1 (next).
        //
        // State variables are identified by a logical index (places first,
        // then signals) but *positioned* so that every signal sits right
        // next to the places feeding its transitions: a global
        // places-then-signals order would force the BDD to remember the
        // whole marking before reading any code bit, which blows the
        // reachable set up exponentially on wide products of independent
        // components (the very workloads the symbolic engine exists for).
        let num_state_vars = num_places + num_signals;
        let pos = if num_places == 0 {
            // Degenerate net: no places to anchor to; keep the logical order.
            (0..num_state_vars).collect()
        } else {
            let mut anchor = vec![num_places - 1; num_signals];
            for t in 0..net.num_transitions() {
                let t_id = TransId::from(t);
                if let TransitionLabel::Edge { signal, .. } = self.label(t_id) {
                    if signal.index() < num_signals {
                        if let Some(min_pre) = net.preset(t_id).iter().map(|p| p.index()).min() {
                            let a = &mut anchor[signal.index()];
                            *a = (*a).min(min_pre);
                        }
                    }
                }
            }
            let mut signals_after: Vec<Vec<usize>> = vec![Vec::new(); num_places];
            for (s, &a) in anchor.iter().enumerate() {
                signals_after[a].push(s);
            }
            let mut pos = vec![0usize; num_state_vars];
            let mut k = 0;
            for p in 0..num_places {
                pos[p] = k;
                k += 1;
                for &s in &signals_after[p] {
                    pos[num_places + s] = k;
                    k += 1;
                }
            }
            debug_assert_eq!(k, num_state_vars);
            pos
        };
        let current = |state_var: usize| (2 * pos[state_var]) as VarId;
        let next = |state_var: usize| (2 * pos[state_var] + 1) as VarId;
        // Pre-size the arena and unique table: reachability fixpoints build
        // nodes monotonically, and sizing up front avoids growth rehashing
        // in the middle of the image iteration.
        let mut m = BddManager::with_capacity(
            (2 * num_state_vars).max(1),
            (num_state_vars.max(8) * 1024).min(1 << 20),
        );
        if let Some(budget) = budget {
            m.set_budget(budget.clone());
        }

        // Initial state cube over the current-copy variables.
        let mut initial_lits: Vec<(VarId, bool)> = (0..num_places)
            .map(|p| (current(p), net.initial_marking().is_marked(petri::PlaceId::from(p))))
            .collect();
        if with_codes {
            for s in 0..num_signals {
                // Signals past the width of the `u64` seed start at 0; wide
                // designs (>64 signals) are exactly what the symbolic engine
                // exists for, so the shift must not overflow.
                let bit = s < 64 && (initial_code >> s) & 1 != 0;
                initial_lits.push((current(num_places + s), bit));
            }
        }
        let initial = m.cube_of(&initial_lits);

        // --- Build the partitioned transition relations -------------------
        //
        // Each transition branch yields: the literals enabling it (marked
        // preset, plus the signal's pre-value for a coded edge), the state
        // variables it changes, and the next-copy literals pinning their
        // post-values.  A toggle edge (`a~`) flips its code bit, so it
        // expands into one branch per current bit value.  The enumeration
        // itself is shared with [`SymbolicStateSpace::transition_branches`]
        // so the two views of the firing rule cannot drift apart.
        struct TransBranch {
            enabled: Vec<(VarId, bool)>,
            changed: Vec<usize>,
            pinned: Vec<(VarId, bool)>,
        }
        // Branches grouped into disjunctive clusters: one cluster per
        // signal, one per dummy transition.
        let mut members: Vec<Vec<TransBranch>> = Vec::new();
        let mut cluster_of_signal: FxHashMap<usize, usize> = FxHashMap::default();
        for raw in enumerate_branches(self, with_codes) {
            let slot = match self.label(raw.trans) {
                TransitionLabel::Edge { signal, .. } => {
                    *cluster_of_signal.entry(signal.index()).or_insert_with(|| {
                        members.push(Vec::new());
                        members.len() - 1
                    })
                }
                TransitionLabel::Dummy => {
                    members.push(Vec::new());
                    members.len() - 1
                }
            };
            members[slot].push(TransBranch {
                enabled: raw.enabled.iter().map(|&(sv, v)| (current(sv), v)).collect(),
                changed: raw.changed,
                pinned: raw.pinned.iter().map(|&(sv, v)| (next(sv), v)).collect(),
            });
        }

        // Frame condition x′ᵥ ↔ xᵥ, interned once per state variable.
        let mut frame_iffs: Vec<Option<Bdd>> = vec![None; num_state_vars];
        let mut frame_of = |m: &mut BddManager, sv: usize| {
            *frame_iffs[sv].get_or_insert_with(|| {
                let cur = m.var(current(sv));
                let nxt = m.var(next(sv));
                m.iff(cur, nxt)
            })
        };
        let clusters: Vec<Cluster> = members
            .into_iter()
            .filter(|branches| !branches.is_empty())
            .map(|branches| {
                // The cluster quantifies the union of its members' changed
                // sets, so members that leave one of those variables alone
                // need an explicit frame conjunct to carry its value across.
                let mut changed_union: Vec<usize> =
                    branches.iter().flat_map(|b| b.changed.iter().copied()).collect();
                changed_union.sort_unstable();
                changed_union.dedup();
                let mut relation = m.bottom();
                for branch in &branches {
                    let mut lits = branch.enabled.clone();
                    lits.extend(&branch.pinned);
                    let mut rel = m.cube_of(&lits);
                    for &sv in changed_union.iter().rev() {
                        if !branch.changed.contains(&sv) {
                            let frame = frame_of(&mut m, sv);
                            rel = m.and(rel, frame);
                        }
                    }
                    relation = m.or(relation, rel);
                }
                let quant_vars: Vec<VarId> = changed_union.iter().map(|&sv| current(sv)).collect();
                let quant = m.quant_cube(&quant_vars);
                Cluster { relation, quant }
            })
            .collect();

        // --- Fixpoint ------------------------------------------------------
        let limit = max_iterations.unwrap_or(4 * num_places.max(8));
        let mut reachable = initial;
        let mut frontier = initial;
        let mut converged = false;
        let mut iterations = 0;
        // The relation build above may already have tripped the budget;
        // surface that before imaging anything.
        if budget.is_some() {
            m.check_budget()?;
        }
        for _ in 0..limit {
            // One chained round: one fused relational product per cluster
            // (conjoin with the cluster relation and quantify the current
            // copies in a single pass, then shift the next copies back
            // down), each cluster imaging the frontier plus whatever the
            // clusters before it found this round.
            let mut from = frontier;
            let mut found = m.bottom();
            for cluster in &clusters {
                let step = m.and_exists_with(from, cluster.relation, cluster.quant);
                if step.is_false() {
                    continue;
                }
                let step = m.unprime(step);
                let fresh = m.and_not(step, reachable);
                if fresh.is_false() {
                    continue;
                }
                reachable = m.or(reachable, fresh);
                from = m.or(from, fresh);
                found = m.or(found, fresh);
            }
            iterations += 1;
            // One budget check per image round: flushes the batched node
            // charges and samples the deadline, and catches any poison an
            // in-round trip left behind before the truncated round is
            // mistaken for a fixpoint.
            if budget.is_some() {
                m.check_budget()?;
            }
            if found.is_false() {
                converged = true;
                break;
            }
            frontier = found;
        }

        Ok(SymbolicStateSpace {
            manager: m,
            reachable,
            initial,
            num_places,
            num_signals,
            pos,
            converged,
            iterations,
        })
    }
}

/// Unwraps a budget-free reachability result.  Internal invariant: the inner
/// fixpoint only fails through its budget, so with no budget attached the
/// result is always `Ok`.
fn infallible(result: Result<SymbolicStateSpace, StgError>) -> SymbolicStateSpace {
    result.expect("reachability without a budget cannot fail")
}

/// Maps a truncated fixpoint to the typed diagnostic the fallible entry
/// points promise.
fn ensure_converged(space: SymbolicStateSpace) -> Result<SymbolicStateSpace, StgError> {
    if space.converged {
        Ok(space)
    } else {
        Err(StgError::NotConverged { iterations: space.iterations })
    }
}

impl SymbolicStateSpace {
    /// Number of state variables (places plus code signals); the manager
    /// holds twice as many BDD variables (a current and a next copy each).
    fn num_state_vars(&self) -> usize {
        self.num_places + self.num_signals
    }

    /// Number of reachable markings (or marking/code pairs), as an exact
    /// count saturating at `u128::MAX`.
    pub fn state_count(&self) -> u128 {
        let extra = self.num_state_vars() as u32;
        if self.manager.num_vars() >= 128 {
            // The manager counts in floating point beyond 128 variables;
            // divide out the unconstrained next-state copies there too.
            let approx = self.state_count_f64();
            if approx >= u128::MAX as f64 {
                u128::MAX
            } else {
                approx as u128
            }
        } else {
            // The reachable set never depends on the next-state copies, so
            // the count over all variables is an exact multiple of 2^extra.
            self.manager.sat_count(self.reachable) >> extra
        }
    }

    /// Number of reachable markings as a float (robust beyond 128 places).
    pub fn state_count_f64(&self) -> f64 {
        self.manager.sat_count_f64(self.reachable) / 2f64.powi(self.num_state_vars() as i32)
    }

    /// Number of BDD nodes representing the reachable set — the compression
    /// factor the paper relies on.
    pub fn bdd_size(&self) -> usize {
        self.manager.size(self.reachable)
    }

    /// Node-count and cache statistics of the underlying manager.
    pub fn manager_stats(&self) -> BddStats {
        self.manager.stats()
    }

    /// Returns `true` if the given marking (as a vector of booleans indexed
    /// by place, extended with signal values if the space is code-encoded)
    /// is reachable.
    pub fn contains(&self, assignment: &[bool]) -> bool {
        // Spread the state assignment over the interleaved current copies;
        // the next copies are don't-cares for the reachable set.
        let mut full = vec![false; 2 * self.num_state_vars()];
        for (state_var, &value) in assignment.iter().enumerate() {
            full[2 * self.pos[state_var]] = value;
        }
        self.manager.eval(self.reachable, &full)
    }

    /// Number of place variables.
    pub fn num_places(&self) -> usize {
        self.num_places
    }

    /// Number of signal (code) variables, 0 for a places-only space.
    pub fn num_signals(&self) -> usize {
        self.num_signals
    }

    /// The reachable set as a BDD over the *current* copies of the state
    /// variables (the next copies are unconstrained).
    pub fn reachable(&self) -> Bdd {
        self.reachable
    }

    /// Shared access to the manager that owns [`Self::reachable`].
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    /// Mutable access to the manager, for downstream symbolic analyses
    /// (projection, cover extraction) that build further BDDs over the
    /// reachable set.
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.manager
    }

    /// The manager variable holding the *current* value of place `place`.
    pub fn current_var_of_place(&self, place: usize) -> VarId {
        assert!(place < self.num_places, "place {place} out of range");
        (2 * self.pos[place]) as VarId
    }

    /// The manager variable holding the *current* value of signal `signal`
    /// (only meaningful for code-encoded spaces).
    pub fn current_var_of_signal(&self, signal: usize) -> VarId {
        assert!(signal < self.num_signals, "signal {signal} out of range");
        (2 * self.pos[self.num_places + signal]) as VarId
    }

    /// The initial state as a cube over the *current* variable copies (the
    /// initial marking, extended with the seeded signal values for a
    /// code-encoded space).
    pub fn initial_state(&self) -> Bdd {
        self.initial
    }

    /// The firing branches of every transition of `stg`, expressed over this
    /// space's *current* variable copies (see [`TransitionBranch`]).
    ///
    /// `stg` must be the model the space was built from; the branch
    /// enumeration is the exact one the reachability engine used, so images
    /// computed from these branches agree with [`Self::reachable`].
    pub fn transition_branches(&self, stg: &Stg) -> Vec<TransitionBranch> {
        self.branches(stg, self.num_signals > 0)
    }

    /// [`Self::transition_branches`], with or without the code literals.
    fn branches(&self, stg: &Stg, with_codes: bool) -> Vec<TransitionBranch> {
        assert_eq!(stg.net().num_places(), self.num_places, "space/model mismatch");
        let current = |lits: &[(usize, bool)]| -> Vec<(VarId, bool)> {
            lits.iter().map(|&(sv, v)| ((2 * self.pos[sv]) as VarId, v)).collect()
        };
        enumerate_branches(stg, with_codes)
            .into_iter()
            .map(|raw| TransitionBranch {
                trans: raw.trans,
                enabled: current(&raw.enabled),
                pinned: current(&raw.pinned),
            })
            .collect()
    }

    /// The excitation predicates of `signal` over the current place copies,
    /// indexed by [`Polarity`] declaration order (`[rise, fall, toggle]`):
    /// some transition of that polarity has its whole preset marked.
    pub fn excitations(&mut self, stg: &Stg, signal: SignalId) -> [Bdd; 3] {
        let mut by_polarity = [self.manager.bottom(); 3];
        for t in stg.transitions_of_signal(signal) {
            let TransitionLabel::Edge { polarity, .. } = stg.label(t) else { continue };
            let lits: Vec<(VarId, bool)> = stg
                .net()
                .preset(t)
                .iter()
                .map(|p| (self.current_var_of_place(p.index()), true))
                .collect();
            let cube = self.manager.cube_of(&lits);
            let slot = &mut by_polarity[polarity as usize];
            *slot = self.manager.or(*slot, cube);
        }
        by_polarity
    }

    /// The seed guard of a code-encoded space: decides, on the space itself,
    /// whether the seed (`initial_code`) labels every reachable marking of
    /// `stg` with exactly one code.
    ///
    /// Let `P = ∃codes. Reach` be the markings the space covers.  The guard
    /// holds iff every place-only firing from `P` stays in `P`, and
    /// `|Reach| = |P|` (one code per marking).  It is exact: `P` is always
    /// contained in the place-reachable set and contains the initial
    /// marking, so a `P` closed under firing *is* the place-reachable set —
    /// the guard accepts exactly what comparing against a places-only
    /// fixpoint would accept, without running one.
    ///
    /// # Errors
    ///
    /// [`StgError::SeedMismatch`] naming the first blocked transition (or
    /// `None` when a marking carries two codes), and [`StgError::Budget`]
    /// when the space's budget trips.
    pub fn check_seed(&mut self, stg: &Stg) -> Result<(), StgError> {
        let signal_vars: Vec<VarId> =
            (0..self.num_signals).map(|s| self.current_var_of_signal(s)).collect();
        let coded = self.manager.exists_many(self.reachable, &signal_vars);
        let mut blocked_transition = None;
        for branch in self.branches(stg, false) {
            // A firing leaves `P` from the sources where `P`, cofactored at
            // the branch's post-values, no longer holds.
            let m = &mut self.manager;
            let enabled = m.cube_of(&branch.enabled);
            let src = m.and(coded, enabled);
            let pinned = m.cube_of(&branch.pinned);
            let after = m.restrict_cube(coded, pinned);
            if !m.implies(src, after) {
                blocked_transition = Some(stg.net().transition_name(branch.trans).to_owned());
                break;
            }
        }
        // The verdict is only meaningful on unpoisoned results.
        self.manager.check_budget()?;
        // `coded` depends on the current place copies only.
        let free_vars = (self.manager.num_vars() - self.num_places) as i32;
        let coded_markings = self.manager.sat_count_f64(coded) / 2f64.powi(free_vars);
        let coded_states = self.state_count_f64();
        let close = |a: f64, b: f64| (a - b).abs() <= (a.abs().max(b.abs())) * 1e-9 + 0.25;
        if blocked_transition.is_none() && close(coded_states, coded_markings) {
            return Ok(());
        }
        let round = |v: f64| if v >= u128::MAX as f64 { u128::MAX } else { v.round() as u128 };
        Err(StgError::SeedMismatch {
            blocked_transition,
            coded_markings: round(coded_markings),
            coded_states: round(coded_states),
        })
    }
}

/// Symbolic encoding-property checks on a code-encoded state space.
impl Stg {
    /// Returns `true` if two distinct reachable markings share the same
    /// binary code (Unique State Coding violated), determined symbolically.
    ///
    /// # Panics
    ///
    /// Panics if reachability does not converge within the default iteration
    /// cap (`4 × places`) — an answer computed from a truncated set would be
    /// silently wrong.  Use [`Self::try_symbolic_usc_violation`] to handle
    /// that case as a typed error.
    pub fn symbolic_usc_violation(&self, initial_code: u64) -> bool {
        self.try_symbolic_usc_violation(initial_code, &ReachabilityConfig::default())
            .expect("reachability did not converge within the default iteration cap")
    }

    /// Fallible [`Self::symbolic_usc_violation`]: honours the budget and
    /// reports non-convergence as [`StgError::NotConverged`] instead of
    /// answering from a truncated set.
    pub fn try_symbolic_usc_violation(
        &self,
        initial_code: u64,
        config: &ReachabilityConfig,
    ) -> Result<bool, StgError> {
        let space = self.try_symbolic_encoded_state_space(initial_code, config)?;
        let states = space.state_count_f64();
        let (num_places, num_signals) = (space.num_places, space.num_signals);
        let place_vars: Vec<VarId> =
            (0..num_places).map(|p| space.current_var_of_place(p)).collect();
        let mut m = space.manager;
        // Project onto the code variables: quantify away the current place
        // copies (the next copies are free in `reachable` already).
        let codes = m.exists_many(space.reachable, &place_vars);
        // `codes` depends only on the current signal copies; every other of
        // the 2·(places + signals) manager variables is free.
        let free_vars = (2 * (num_places + num_signals) - num_signals) as i32;
        let distinct_codes = m.sat_count_f64(codes) / 2f64.powi(free_vars);
        if let Some(trip) = m.take_budget_trip() {
            return Err(StgError::Budget(trip));
        }
        Ok(states > distinct_codes + 0.5)
    }

    /// Returns `true` if the STG has a CSC conflict, determined symbolically:
    /// some code is shared by a state that enables a non-input signal and a
    /// state that does not.
    ///
    /// # Panics
    ///
    /// Panics if reachability does not converge within the default iteration
    /// cap; see [`Self::symbolic_usc_violation`].  Use
    /// [`Self::try_symbolic_csc_violation`] for the typed diagnostic.
    pub fn symbolic_csc_violation(&self, initial_code: u64) -> bool {
        self.try_symbolic_csc_violation(initial_code, &ReachabilityConfig::default())
            .expect("reachability did not converge within the default iteration cap")
    }

    /// Fallible [`Self::symbolic_csc_violation`]: honours the budget and
    /// reports non-convergence as [`StgError::NotConverged`] instead of
    /// answering from a truncated set.
    pub fn try_symbolic_csc_violation(
        &self,
        initial_code: u64,
        config: &ReachabilityConfig,
    ) -> Result<bool, StgError> {
        let mut space = self.try_symbolic_encoded_state_space(initial_code, config)?;
        let place_vars: Vec<VarId> =
            (0..space.num_places).map(|p| space.current_var_of_place(p)).collect();
        let reachable = space.reachable;
        for signal in self.non_input_signals() {
            // Enabled(signal) as a function of places: some transition of the
            // signal has all its input places marked.
            let excitations = space.excitations(self, signal);
            let m = &mut space.manager;
            let enabled = m.or_many(excitations);
            let with = m.and(reachable, enabled);
            let without = m.and_not(reachable, enabled);
            let codes_with = m.exists_many(with, &place_vars);
            let codes_without = m.exists_many(without, &place_vars);
            let clash = m.and(codes_with, codes_without);
            if let Some(trip) = m.take_budget_trip() {
                return Err(StgError::Budget(trip));
            }
            if !clash.is_false() {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use crate::benchmarks;

    #[test]
    fn symbolic_and_explicit_state_counts_agree() {
        for stg in [
            benchmarks::handshake(),
            benchmarks::pulser(),
            benchmarks::vme_read(),
            benchmarks::parallel_handshakes(3),
            benchmarks::parallelizer(4),
        ] {
            let explicit = stg.state_graph(1_000_000).unwrap().num_states() as u128;
            let space = stg.symbolic_state_space(None);
            assert!(space.converged, "{} did not converge", stg.name());
            assert_eq!(space.state_count(), explicit, "mismatch for {}", stg.name());
        }
    }

    #[test]
    fn chained_fixpoints_match_the_explicit_state_graph() {
        // Chaining only fires enabled transitions, so its set is a subset of
        // the true reachable set: equal counts plus every explicit state
        // being a member make the two sets identical.
        for stg in [
            benchmarks::handshake(),
            benchmarks::pulser(),
            benchmarks::vme_read(),
            benchmarks::master_read_like(),
            benchmarks::sequencer(4),
            benchmarks::parallel_handshakes(5),
            benchmarks::parallelizer(4),
            benchmarks::pulser_bank(2),
        ] {
            let sg = stg.state_graph(1_000_000).unwrap();
            let explicit = sg.num_states() as u128;
            let places = stg.symbolic_state_space(None);
            // The encoded space exercises the code bits; a consistent STG
            // carries one code per marking.
            let encoded = stg.symbolic_encoded_state_space(sg.code(sg.ts.initial()), None);
            assert!(places.converged && encoded.converged, "{}", stg.name());
            assert!(places.iterations > 0, "{}", stg.name());
            assert_eq!(places.state_count(), explicit, "{}", stg.name());
            assert_eq!(encoded.state_count(), explicit, "{}", stg.name());
            for (state, marking) in sg.markings.iter().enumerate() {
                let mut assignment = marking.to_bools();
                assert!(places.contains(&assignment), "{}: marking {marking}", stg.name());
                let code = sg.code(ts::StateId(state as u32));
                assignment.extend((0..sg.num_signals()).map(|s| (code >> s) & 1 != 0));
                assert!(encoded.contains(&assignment), "{}: state {state}", stg.name());
            }
        }
    }

    #[test]
    fn chained_rounds_and_arena_are_pinned() {
        // An interleaving product converges in a few chained rounds, where
        // breadth-first rounds need the sum of its components' depths (73
        // on par_hs24).  Each count includes the final round, which finds
        // nothing new.
        for (stg, rounds, arena) in [
            (benchmarks::parallel_handshakes(24), 3, Some(96_777)),
            (benchmarks::pipeline_2ph(16), 18, None),
            (benchmarks::wide_conflict(16), 4, None),
            (benchmarks::pulser_bank(5), 4, None),
            (benchmarks::counter(4), 17, None),
        ] {
            let space = stg.symbolic_encoded_state_space(0, None);
            assert!(space.converged, "{}", stg.name());
            assert_eq!(space.iterations, rounds, "{}", stg.name());
            if let Some(arena) = arena {
                assert_eq!(space.manager_stats().num_nodes, arena, "{}", stg.name());
            }
        }
    }

    #[test]
    fn symbolic_counts_scale_beyond_explicit_limits() {
        // 4^12 ≈ 16.7 million markings: cheap symbolically, expensive
        // explicitly.
        let stg = benchmarks::parallel_handshakes(12);
        let space = stg.symbolic_state_space(None);
        assert!(space.converged);
        assert_eq!(space.state_count(), 4u128.pow(12));
        assert!(space.bdd_size() < 10_000, "BDD must stay compact");
        let stats = space.manager_stats();
        assert!(stats.cache_hits > 0, "the fixpoint must reuse memoised images");
    }

    #[test]
    fn encoded_space_matches_state_graph() {
        let stg = benchmarks::pulser();
        let space = stg.symbolic_encoded_state_space(0, None);
        assert!(space.converged);
        // Each of the 6 markings has exactly one code, so the encoded space
        // also has 6 states.
        assert_eq!(space.state_count(), 6);
    }

    #[test]
    fn toggle_edges_flip_their_code_bit_symbolically() {
        use crate::{Polarity, SignalKind, StgBuilder};
        // c~ / d+ / c~ / d- ring: the same shape the explicit engine's
        // toggle test uses; c alternates 0,1,0,1 around the cycle.
        let mut b = StgBuilder::new("toggle");
        let c = b.add_signal("c", SignalKind::Output);
        let d = b.add_signal("d", SignalKind::Output);
        let c1 = b.add_edge(c, Polarity::Toggle);
        let dp = b.add_edge(d, Polarity::Rise);
        let c2 = b.add_edge(c, Polarity::Toggle);
        let dm = b.add_edge(d, Polarity::Fall);
        b.connect_cycle(&[c1, dp, c2, dm]);
        let stg = b.build().unwrap();
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.num_states(), 4);
        // The symbolic (marking, code) space must agree with the explicit
        // graph: 4 markings, each with a distinct code (c toggles).
        let space = stg.symbolic_encoded_state_space(0, None);
        assert!(space.converged);
        assert_eq!(space.state_count(), sg.num_states() as u128);
    }

    #[test]
    fn the_seed_guard_names_the_edge_a_wrong_seed_blocks() {
        use crate::StgError;
        let config = super::ReachabilityConfig::default();
        for stg in [benchmarks::handshake(), benchmarks::vme_read(), benchmarks::pulser_bank(2)] {
            let mut space = stg.try_symbolic_encoded_state_space(0, &config).unwrap();
            assert_eq!(space.check_seed(&stg), Ok(()), "{}", stg.name());
        }
        // req = 1 blocks req+ at once; ack = 1 lets req+ fire, then blocks ack+.
        let stg = benchmarks::handshake();
        for (seed, blocked) in [(0b01, "req+"), (0b10, "ack+")] {
            let mut space = stg.try_symbolic_encoded_state_space(seed, &config).unwrap();
            match space.check_seed(&stg) {
                Err(StgError::SeedMismatch { blocked_transition: Some(t), .. }) => {
                    assert_eq!(t, blocked, "seed {seed:#b}");
                }
                other => panic!("seed {seed:#b}: expected a blocked edge, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_seed_guard_reports_a_doubly_coded_marking_without_a_witness() {
        use crate::{Polarity, SignalKind, StgBuilder, StgError};
        // From `p0`, either toggle `c` or skip it; both land in `p1`, which
        // is therefore reached with both values of `c` under any seed.
        let mut b = StgBuilder::new("choice_toggle");
        let c = b.add_signal("c", SignalKind::Output);
        let toggle = b.add_edge(c, Polarity::Toggle);
        let skip = b.add_dummy("skip");
        let back = b.add_dummy("back");
        let p0 = b.add_place("p0", true);
        let p1 = b.add_place("p1", false);
        for t in [toggle, skip] {
            b.arc_place_to_transition(p0, t);
            b.arc_transition_to_place(t, p1);
        }
        b.arc_place_to_transition(p1, back);
        b.arc_transition_to_place(back, p0);
        let stg = b.build().unwrap();
        let config = super::ReachabilityConfig::default();
        let mut space = stg.try_symbolic_encoded_state_space(0, &config).unwrap();
        let verdict = space.check_seed(&stg);
        assert_eq!(
            verdict,
            Err(StgError::SeedMismatch {
                blocked_transition: None,
                coded_markings: 2,
                coded_states: 4
            })
        );
    }

    #[test]
    fn symbolic_usc_and_csc_checks() {
        assert!(!benchmarks::handshake().symbolic_usc_violation(0));
        assert!(!benchmarks::handshake().symbolic_csc_violation(0));
        assert!(benchmarks::pulser().symbolic_usc_violation(0));
        assert!(benchmarks::pulser().symbolic_csc_violation(0));
        assert!(benchmarks::vme_read().symbolic_csc_violation(0));
        assert!(!benchmarks::parallelizer(3).symbolic_csc_violation(0));
    }

    #[test]
    fn initial_marking_is_reachable() {
        let stg = benchmarks::vme_read();
        let space = stg.symbolic_state_space(None);
        let assignment = stg.net().initial_marking().to_bools();
        assert!(space.contains(&assignment));
    }

    #[test]
    fn wide_designs_compute_encoded_spaces_past_64_signals() {
        // 40 handshakes = 80 signals: beyond any u64 code, fine symbolically.
        let stg = benchmarks::parallel_handshakes(40);
        let space = stg.symbolic_encoded_state_space(0, None);
        assert!(space.converged);
        assert_eq!(space.num_signals(), 80);
        let states = space.state_count_f64();
        let expected = 4f64.powi(40);
        assert!(
            (states / expected - 1.0).abs() < 1e-9,
            "expected ~4^40 encoded states, got {states:e}"
        );
    }

    #[test]
    fn iteration_cap_is_respected() {
        let stg = benchmarks::parallel_handshakes(4);
        let space = stg.symbolic_state_space(Some(1));
        assert!(!space.converged);
        assert_eq!(space.iterations, 1);
        let full = stg.symbolic_state_space(None);
        assert!(full.converged);
        assert!(full.iterations > space.iterations);
    }

    #[test]
    fn try_reachability_reports_truncation_as_typed_error() {
        use super::ReachabilityConfig;
        use crate::StgError;
        let stg = benchmarks::parallel_handshakes(4);
        let config = ReachabilityConfig { max_iterations: Some(1), ..Default::default() };
        match stg.try_symbolic_state_space(&config) {
            Err(StgError::NotConverged { iterations }) => assert_eq!(iterations, 1),
            other => panic!("expected NotConverged, got {other:?}"),
        }
        // With the default cap the same net converges and returns Ok.
        let space = stg.try_symbolic_state_space(&ReachabilityConfig::default()).unwrap();
        assert!(space.converged);
    }

    #[test]
    fn node_budget_interrupts_reachability() {
        use super::ReachabilityConfig;
        use crate::StgError;
        use bdd::{Budget, Resource};
        let stg = benchmarks::parallel_handshakes(8);
        let budget = Budget::new(Some(512), None, None);
        let config = ReachabilityConfig::with_budget(budget.clone());
        match stg.try_symbolic_state_space(&config) {
            Err(StgError::Budget(trip)) => {
                assert_eq!(trip.resource, Resource::Nodes);
                assert_eq!(trip.stage, "reachability");
                assert!(trip.spent > trip.limit);
            }
            other => panic!("expected a budget trip, got {other:?}"),
        }
        assert!(budget.nodes_spent() > 512);
    }

    #[test]
    fn budget_trip_surfaces_from_the_encoding_checks() {
        use super::ReachabilityConfig;
        use crate::StgError;
        use bdd::Budget;
        let stg = benchmarks::parallel_handshakes(8);
        let config = ReachabilityConfig::with_budget(Budget::new(Some(512), None, None));
        assert!(matches!(stg.try_symbolic_csc_violation(0, &config), Err(StgError::Budget(_))));
    }
}
