//! BDD-based symbolic state-space exploration.
//!
//! The DAC'96 paper attributes petrify's capacity to handle "extremely large
//! state graphs" to the symbolic (OBDD) representation of the state graph.
//! This module provides that engine, built around the one-pass branch image
//! [`bdd::BddManager::image_cube`]:
//!
//! * **One BDD variable per state variable** — one per place, plus one per
//!   signal for code-encoded spaces, each signal placed right after the
//!   lowest-numbered place that feeds its transitions.  No analysis needs
//!   a copy for the next state: a branch's image is computed on the same
//!   variables, and pair questions (the CSC solver's code-tied
//!   conflict-pair counts) walk two sets together
//!   ([`bdd::BddManager::tied_pair_count`]).
//! * **Firing branches, interned once** — each transition fires through
//!   one [`Branch`] per pre-value of its code bit (two for a toggle, one
//!   otherwise): a cube of enabling literals (marked preset, the signal's
//!   pre-value) and a cube of post-values for the variables it changes.
//!   The image of a set under a branch is `pinned ∧ ∃changed. set ∧
//!   enabled`, one memoised recursion that builds no relation.  The space
//!   interns its branches at construction, in transition index order, and
//!   every consumer — the fixpoint, the seed guard, the CSC solver's region
//!   analyses, the logic derivation and the netlist check — reads them
//!   from there.
//! * **Causal firing order** — the branches fire in an order computed once
//!   per net: breadth-first from the initially marked places, a transition
//!   entering when the first of its preset places is reached (transitions
//!   never reached follow in index order; a toggle's two branches stay
//!   adjacent).  A token can then travel a whole handshake or ring within
//!   one round, and the transitions an insertion adds land next to their
//!   triggers.
//! * **Chained reachability** — each round fires the branches one after
//!   another in that order; a branch images the reachable set as the
//!   branches before it left it, so one round carries a token as far along
//!   the order as it can travel.  The round ends when every branch has
//!   fired, and a round that finds nothing new ends the fixpoint.
//!   Chaining only fires enabled transitions, so it computes the same least
//!   fixpoint as breadth-first search, whatever the order; and after round
//!   `k` the reachable set holds every state within `k` steps of the
//!   initial one, so it never needs more rounds than breadth-first search.
//!   No round cap bounds it: a finite state space converges, and a budget
//!   bounds a governed fixpoint.  A product of handshakes converges in 2
//!   rounds, the last of which finds nothing new.  The same loop, with one
//!   transition skipped, answers [`SymbolicStateSpace::reachable_without`].
//!
//! * **One CSC decision per space** — each signal's excitation is the pair
//!   `(up, down)` of the enabled cubes of the branches that raise or lower
//!   it ([`SymbolicStateSpace::excitation`]).  From it the space derives,
//!   once, each non-input signal's ON set `Reach ∧ (up ∨ a ∧ ¬down)`, its
//!   OFF set `Reach ∧ ¬ON`, their code projections and the conflict codes
//!   `ON_codes ∧ OFF_codes` ([`SymbolicStateSpace::coding`]), and the CSC
//!   decision over all of them ([`SymbolicStateSpace::csc_decision`]).
//!   The code bit fixes the signal's pre-value, so a code's ON and OFF
//!   states are its excited and unexcited states in some order: the
//!   conflict codes are exactly the codes carried by an excited and an
//!   unexcited state.  Logic analysis, the solver and
//!   [`Stg::symbolic_csc_violation`] all read this one decision.
//!
//! The symbolic engine is used by the Table 1 harness to count state spaces
//! far beyond what explicit enumeration can touch (e.g. `4^24` markings for
//! a 24-wide parallel composition) and to detect the presence of encoding
//! conflicts without building the explicit graph.

use crate::error::{BarredEdge, StgError};
use crate::model::{Stg, TransitionLabel};
use crate::signal::{Polarity, SignalId};
use bdd::{Bdd, BddManager, BddStats, Budget, BudgetExceeded, VarId};
use petri::{PlaceId, TransId};
use std::cell::Cell;
use std::collections::VecDeque;

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
/// The default has no resource budget.
#[derive(Clone, Debug, Default)]
pub struct ReachabilityConfig {
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
    /// The BDD variable of each logical state variable (places
    /// `0..num_places`, then signals): its position in the variable order.
    pos: Vec<usize>,
    /// The firing branches, in transition index order.
    branches: Vec<Branch>,
    /// Indices into `branches`, in the causal order the fixpoint fires them.
    order: Vec<usize>,
    /// The non-input signals, in id order (none in a places-only space).
    non_inputs: Vec<SignalId>,
    /// Each signal's excitation `(up, down)`, once computed.
    excitations: Vec<Option<(Bdd, Bdd)>>,
    /// Each non-input signal's coding, once computed.
    codings: Vec<Option<SignalCoding>>,
    /// The CSC decision, once computed.
    decision: Option<CscDecision>,
    /// Whether the seed guard passed.
    seed_checked: bool,
    /// Number of chained image rounds the fixpoint performed, counting the
    /// last one, which finds nothing new.
    pub iterations: usize,
}

/// One firing branch of an STG transition, interned in its space's manager.
///
/// A rising or falling edge fires through one branch; a toggle through two
/// (one per pre-value of its code bit); a dummy through one that touches no
/// code variable.  The next state differs from the current one only on the
/// changed variables, and there by the constants of [`Self::pinned`], so no
/// analysis needs next-state variables: the image of a set `A` under a
/// branch is `pinned ∧ ∃changed. A ∧ enabled`
/// ([`BddManager::image_cube`]), and "the target satisfies `Q`" is the
/// cofactor of `Q` at `pinned` ([`BddManager::restrict_cube`]).
#[derive(Clone, Debug)]
pub struct Branch {
    /// The net transition the branch belongs to.
    pub trans: TransId,
    /// The signal the branch switches and its post-value (`true`: the
    /// branch raises it); `None` for a dummy, and in a places-only space.
    pub edge: Option<(SignalId, bool)>,
    /// Cube of the enabling literals: every preset place marked, plus the
    /// signal's pre-value for a coded edge.
    pub enabled: Bdd,
    /// `enabled`'s literals, sorted by variable.  A set whose
    /// [`BddManager::value_span`] excludes one of them has an empty image
    /// under the branch.
    pub enabled_lits: Vec<(VarId, bool)>,
    /// Cube of the post-values of the variables the branch changes:
    /// cleared places 0, newly marked places 1, the code bit its post-value.
    pub pinned: Bdd,
    /// The variables the branch changes (`pinned`'s), sorted.  A branch
    /// whose changed variables miss a predicate's support never changes
    /// membership in it: its firings neither enter nor leave.
    pub changed: Vec<VarId>,
    /// Every variable the branch mentions (enabling ∪ changed), sorted.
    pub vars: Vec<VarId>,
}

/// What a code-encoded space decides about one non-input signal `a` with
/// excitation `(up, down)` ([`SymbolicStateSpace::coding`]).
#[derive(Clone, Copy, Debug)]
pub struct SignalCoding {
    /// The reachable states whose next value of `a` is 1: `Reach ∧ (up ∨
    /// a ∧ ¬down)` — excited to rise, or at 1 and not excited to fall.
    pub on: Bdd,
    /// The reachable states whose next value is 0, `Reach ∧ ¬on`.
    pub off: Bdd,
    /// The codes of `on` (the place variables quantified away).
    pub on_codes: Bdd,
    /// The codes of `off`.
    pub off_codes: Bdd,
    /// `on_codes ∧ off_codes`: the codes whose states need different next
    /// values, empty exactly when CSC holds for `a`.
    pub conflicts: Bdd,
}

/// The CSC decision of a code-encoded space
/// ([`SymbolicStateSpace::csc_decision`]).
#[derive(Clone, Debug, Default)]
pub struct CscDecision {
    /// The non-input signals with conflict codes, in id order, each with
    /// its [`SignalCoding::conflicts`].
    pub conflicted: Vec<(SignalId, Bdd)>,
    /// The number of conflict codes summed over those signals, as a float
    /// (wide designs exceed every integer type).
    pub conflict_codes: f64,
}

impl CscDecision {
    /// [`Self::conflict_codes`] as an integer, saturating at `usize::MAX`.
    pub fn conflict_count(&self) -> usize {
        if self.conflict_codes >= usize::MAX as f64 {
            usize::MAX
        } else {
            self.conflict_codes.round() as usize
        }
    }
}

/// Interns the firing branches of every transition in `m`, in transition
/// index order.  State variables are indexed places `0..num_places`, then
/// signals, and `var` maps each to its BDD variable; `with_codes`
/// adds the signal's code literals to the coded edges, without it every
/// label is treated like a dummy.
fn intern_branches(
    stg: &Stg,
    with_codes: bool,
    m: &mut BddManager,
    var: &dyn Fn(usize) -> VarId,
) -> Vec<Branch> {
    let net = stg.net();
    let mut branches = Vec::new();
    for t in (0..net.num_transitions()).map(TransId::from) {
        let (pre, post) = (net.preset(t), net.postset(t));
        let enabled: Vec<(usize, bool)> = pre.iter().map(|p| (p.index(), true)).collect();
        let mut pinned: Vec<(usize, bool)> =
            pre.iter().filter(|p| !post.contains(p)).map(|p| (p.index(), false)).collect();
        pinned.extend(post.iter().filter(|p| !pre.contains(p)).map(|p| (p.index(), true)));
        // The code bit's post-value per branch; a toggle fires from either
        // value and lands on the opposite one.
        let (signal, post_values): (Option<SignalId>, &[Option<bool>]) = match stg.label(t) {
            TransitionLabel::Edge { signal, polarity } if with_codes => (
                Some(signal),
                match polarity {
                    Polarity::Rise => &[Some(true)],
                    Polarity::Fall => &[Some(false)],
                    Polarity::Toggle => &[Some(true), Some(false)],
                },
            ),
            _ => (None, &[None]),
        };
        for &post_value in post_values {
            let (mut enabled, mut pinned) = (enabled.clone(), pinned.clone());
            let edge = signal.zip(post_value);
            if let Some((signal, value)) = edge {
                let sv = net.num_places() + signal.index();
                enabled.push((sv, !value));
                pinned.push((sv, value));
            }
            let on_vars = |lits: Vec<(usize, bool)>| -> Vec<(VarId, bool)> {
                let mut lits: Vec<(VarId, bool)> =
                    lits.into_iter().map(|(sv, v)| (var(sv), v)).collect();
                lits.sort_unstable();
                lits
            };
            let (enabled_lits, pinned) = (on_vars(enabled), on_vars(pinned));
            let changed: Vec<VarId> = pinned.iter().map(|&(v, _)| v).collect();
            let mut vars: Vec<VarId> = enabled_lits.iter().map(|&(v, _)| v).collect();
            vars.extend_from_slice(&changed);
            vars.sort_unstable();
            vars.dedup();
            branches.push(Branch {
                trans: t,
                edge,
                enabled: m.cube_of(&enabled_lits),
                enabled_lits,
                pinned: m.cube_of(&pinned),
                changed,
                vars,
            });
        }
    }
    branches
}

/// The order the chained fixpoint fires transitions in: breadth-first over
/// the net from the initially marked places.  A transition enters the order
/// when the first of its preset places is reached, and its postset places
/// join the queue; transitions never reached come last, in index order.
fn causal_order(stg: &Stg) -> Vec<TransId> {
    let net = stg.net();
    let mut place_seen = vec![false; net.num_places()];
    let mut ordered = vec![false; net.num_transitions()];
    let mut order = Vec::with_capacity(net.num_transitions());
    let mut queue: VecDeque<PlaceId> = (0..net.num_places())
        .map(PlaceId::from)
        .filter(|&p| net.initial_marking().is_marked(p))
        .collect();
    for p in &queue {
        place_seen[p.index()] = true;
    }
    while let Some(p) = queue.pop_front() {
        for &t in net.place_postset(p) {
            if std::mem::replace(&mut ordered[t.index()], true) {
                continue;
            }
            order.push(t);
            for &q in net.postset(t) {
                if !std::mem::replace(&mut place_seen[q.index()], true) {
                    queue.push_back(q);
                }
            }
        }
    }
    order.extend((0..net.num_transitions()).map(TransId::from).filter(|t| !ordered[t.index()]));
    order
}

/// The chained fixpoint from `initial`, firing the `branches` in `order`
/// but those of `skip`: the reachable set and the rounds it took.
///
/// Each round fires the branches one after another: a branch images the
/// reachable set as the branches before it left it, and adds its image.  No
/// frontier or difference set is interned, so the arena holds only the
/// growing reachable set and the images; a sub-DAG a branch imaged before
/// is looked up in the operation cache (while the cache still holds it)
/// rather than imaged again.  A round that adds nothing ends the fixpoint.
/// Each round ends with a budget check when the manager carries a budget:
/// it flushes the batched node charges, samples the deadline and catches
/// any poison an in-round trip left behind before the truncated round is
/// mistaken for a fixpoint.
fn chained_fixpoint(
    m: &mut BddManager,
    branches: &[Branch],
    order: &[usize],
    initial: Bdd,
    skip: Option<TransId>,
) -> Result<(Bdd, usize), BudgetExceeded> {
    let mut reachable = initial;
    let mut rounds = 0;
    loop {
        let before = reachable;
        for b in order.iter().map(|&i| &branches[i]).filter(|b| Some(b.trans) != skip) {
            let step = m.image_cube(reachable, b.enabled, b.pinned);
            reachable = m.or(reachable, step);
        }
        rounds += 1;
        if m.budget().is_some() {
            m.check_budget()?;
        }
        if reachable == before {
            return Ok((reachable, rounds));
        }
    }
}

impl Stg {
    /// Computes the reachable markings symbolically (place variables only).
    pub fn symbolic_state_space(&self) -> SymbolicStateSpace {
        self.try_symbolic_state_space(&ReachabilityConfig::default()).expect(UNBUDGETED)
    }

    /// Fallible reachability over the place variables: honours the budget in
    /// `config`.
    ///
    /// No flow stage runs this fixpoint; the fuzz harness keeps it as an
    /// oracle of [`SymbolicStateSpace::check_seed`].
    ///
    /// # Errors
    ///
    /// The budget's trip, labelled with `config.stage` (default
    /// `"reachability"`).
    pub fn try_symbolic_state_space(
        &self,
        config: &ReachabilityConfig,
    ) -> Result<SymbolicStateSpace, BudgetExceeded> {
        self.symbolic_space_inner(false, 0, config)
    }

    /// Fallible reachability over the (marking, code) pairs; see
    /// [`Self::try_symbolic_state_space`].
    ///
    /// # Errors
    ///
    /// The budget's trip.
    pub fn try_symbolic_encoded_state_space(
        &self,
        initial_code: u64,
        config: &ReachabilityConfig,
    ) -> Result<SymbolicStateSpace, BudgetExceeded> {
        self.symbolic_space_inner(true, initial_code, config)
    }

    /// Computes the reachable (marking, code) pairs symbolically.
    ///
    /// State variables are the places followed by one variable per signal.
    /// `initial_code` gives the signal values in the initial marking (bit
    /// `i` = signal `i`); the benchmark suite starts every signal at 0.
    pub fn symbolic_encoded_state_space(&self, initial_code: u64) -> SymbolicStateSpace {
        self.try_symbolic_encoded_state_space(initial_code, &ReachabilityConfig::default())
            .expect(UNBUDGETED)
    }

    /// The encoded state space under the seed the guard infers from
    /// `guess`, and that seed (bit `i` = signal `i`).
    ///
    /// Each round builds the space and runs [`SymbolicStateSpace::check_seed`]
    /// on it.  A barred signal starts at the wrong value — in a consistent
    /// STG the edge's marking fixes its pre-value — so the next round flips
    /// the bits of every barred signal.  Each round fixes at least one
    /// signal for good, so a signal barred a second time means the STG has
    /// no consistent labelling.  The returned space has passed the guard.
    ///
    /// # Errors
    ///
    /// * [`StgError::Inconsistent`] for a signal barred twice (its witness
    ///   marking as the state) or a marking with two codes,
    /// * [`StgError::SeedMismatch`] when a barred signal lies past bit 63
    ///   of the `u64` seed,
    /// * [`StgError::Budget`] when the budget trips.
    pub fn seeded_encoded_state_space(
        &self,
        guess: u64,
        config: &ReachabilityConfig,
    ) -> Result<(SymbolicStateSpace, u64), StgError> {
        let (mut seed, mut flipped) = (guess, 0u64);
        loop {
            let mut space = self.try_symbolic_encoded_state_space(seed, config)?;
            let barred = match space.check_seed(self) {
                Ok(()) => return Ok((space, seed)),
                Err(StgError::SeedMismatch { barred }) => barred,
                Err(other) => return Err(other),
            };
            if barred.iter().any(|b| b.signal.index() >= 64) {
                return Err(StgError::SeedMismatch { barred });
            }
            for b in barred {
                let bit = 1u64 << b.signal.index();
                if flipped & bit != 0 {
                    let signal = self.signal(b.signal).name.clone();
                    return Err(StgError::Inconsistent { signal, state: b.marking });
                }
                flipped |= bit;
                seed ^= bit;
            }
        }
    }

    fn symbolic_space_inner(
        &self,
        with_codes: bool,
        initial_code: u64,
        config: &ReachabilityConfig,
    ) -> Result<SymbolicStateSpace, BudgetExceeded> {
        let budget = config.budget.as_ref();
        if let Some(budget) = budget {
            budget.set_stage(config.stage.unwrap_or("reachability"));
        }
        FIXPOINTS.with(|count| count.set(count.get() + 1));
        let net = self.net();
        let num_places = net.num_places();
        let num_signals = if with_codes { self.num_signals() } else { 0 };
        // One BDD variable per state variable: the state variable at
        // *position* k of the chosen order is BDD variable k.
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
        let var = |state_var: usize| pos[state_var] as VarId;
        // Pre-size the arena and unique table: reachability fixpoints build
        // nodes monotonically, and sizing up front avoids growth rehashing
        // in the middle of the image iteration.
        let mut m = BddManager::with_capacity(
            num_state_vars.max(1),
            (num_state_vars.max(8) * 1024).min(1 << 20),
        );
        if let Some(budget) = budget {
            m.set_budget(budget.clone());
        }

        // Initial state cube.
        let mut initial_lits: Vec<(VarId, bool)> = (0..num_places)
            .map(|p| (var(p), net.initial_marking().is_marked(PlaceId::from(p))))
            .collect();
        if with_codes {
            for s in 0..num_signals {
                // Signals past the width of the `u64` seed start at 0; wide
                // designs (>64 signals) are exactly what the symbolic engine
                // exists for, so the shift must not overflow.
                let bit = s < 64 && (initial_code >> s) & 1 != 0;
                initial_lits.push((var(num_places + s), bit));
            }
        }
        let initial = m.cube_of(&initial_lits);

        // The firing branches, kept in transition index order and fired in
        // causal order; the stable sort keeps a toggle's two branches
        // adjacent.
        let branches = intern_branches(self, with_codes, &mut m, &var);
        let mut rank = vec![0; net.num_transitions()];
        for (r, t) in causal_order(self).into_iter().enumerate() {
            rank[t.index()] = r;
        }
        let mut order: Vec<usize> = (0..branches.len()).collect();
        order.sort_by_key(|&i| rank[branches[i].trans.index()]);

        // The set-up above may already have tripped the budget; surface that
        // before imaging anything.
        if budget.is_some() {
            m.check_budget()?;
        }
        let (reachable, iterations) = chained_fixpoint(&mut m, &branches, &order, initial, None)?;

        Ok(SymbolicStateSpace {
            manager: m,
            reachable,
            initial,
            num_places,
            num_signals,
            pos,
            branches,
            order,
            non_inputs: if with_codes { self.non_input_signals() } else { Vec::new() },
            excitations: vec![None; num_signals],
            codings: vec![None; num_signals],
            decision: None,
            seed_checked: false,
            iterations,
        })
    }
}

/// Why an unbudgeted fixpoint cannot fail: only a budget stops it.
const UNBUDGETED: &str = "reachability without a budget cannot fail";

impl SymbolicStateSpace {
    /// Number of reachable markings (or marking/code pairs), as an exact
    /// count saturating at `u128::MAX` (counted in floating point from 128
    /// state variables on).
    pub fn state_count(&self) -> u128 {
        self.manager.sat_count(self.reachable)
    }

    /// Number of reachable markings as a float (robust beyond 128 places).
    pub fn state_count_f64(&self) -> f64 {
        self.manager.sat_count_f64(self.reachable)
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
        let mut full = vec![false; self.manager.num_vars()];
        for (state_var, &value) in assignment.iter().enumerate() {
            full[self.pos[state_var]] = value;
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

    /// The reachable set as a BDD over the state variables.
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

    /// The manager variable of place `place`.
    pub fn var_of_place(&self, place: usize) -> VarId {
        assert!(place < self.num_places, "place {place} out of range");
        self.pos[place] as VarId
    }

    /// The manager variable of signal `signal` (only meaningful for
    /// code-encoded spaces).
    pub fn var_of_signal(&self, signal: usize) -> VarId {
        assert!(signal < self.num_signals, "signal {signal} out of range");
        self.pos[self.num_places + signal] as VarId
    }

    /// The initial state as a cube (the initial marking, extended with the
    /// seeded signal values for a code-encoded space).
    pub fn initial_state(&self) -> Bdd {
        self.initial
    }

    /// The states reachable from the initial state *without ever firing*
    /// transition `avoid`: the chained fixpoint of [`Self::reachable`], in
    /// the same firing order, with `avoid`'s branches skipped.  It does not
    /// count toward [`fixpoints_run`].
    ///
    /// A budget trip poisons the manager; the result is then empty and
    /// meaningless, and the caller's next budget check reports the trip.
    pub fn reachable_without(&mut self, avoid: TransId) -> Bdd {
        let m = &mut self.manager;
        match chained_fixpoint(m, &self.branches, &self.order, self.initial, Some(avoid)) {
            Ok((reachable, _)) => reachable,
            Err(_) => m.bottom(),
        }
    }

    /// The firing branches of every transition, in transition index order
    /// (see [`Branch`]): the very branches the fixpoint fired, so images
    /// computed from them agree with [`Self::reachable`].
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    /// The manager and the branches at once, for analyses that image or
    /// cofactor sets under the branches.
    pub fn manager_with_branches(&mut self) -> (&mut BddManager, &[Branch]) {
        (&mut self.manager, &self.branches)
    }

    /// The non-input signals of the model, in id order (none in a
    /// places-only space).
    pub fn non_input_signals(&self) -> &[SignalId] {
        &self.non_inputs
    }

    /// The excitation `(up, down)` of `signal`: the disjunctions of the
    /// enabled cubes of the branches that raise it and of those that lower
    /// it.  Computed once per space; a result computed on a poisoned
    /// manager is returned but not kept.
    pub fn excitation(&mut self, signal: SignalId) -> (Bdd, Bdd) {
        if let Some(excitation) = self.excitations[signal.index()] {
            return excitation;
        }
        let m = &mut self.manager;
        let (mut up, mut down) = (m.bottom(), m.bottom());
        for b in &self.branches {
            match b.edge {
                Some((s, true)) if s == signal => up = m.or(up, b.enabled),
                Some((s, false)) if s == signal => down = m.or(down, b.enabled),
                _ => {}
            }
        }
        if !m.budget_tripped() {
            self.excitations[signal.index()] = Some((up, down));
        }
        (up, down)
    }

    /// The ON and OFF sets of non-input `signal`, their code projections
    /// and their conflict codes (see [`SignalCoding`]), computed once per
    /// space.
    ///
    /// # Errors
    ///
    /// The budget trip of the space's manager, if it is poisoned; nothing
    /// is kept then.
    pub fn coding(&mut self, signal: SignalId) -> Result<SignalCoding, BudgetExceeded> {
        if let Some(coding) = self.codings[signal.index()] {
            return Ok(coding);
        }
        let (up, down) = self.excitation(signal);
        let place_vars: Vec<VarId> = (0..self.num_places).map(|p| self.var_of_place(p)).collect();
        let a = self.var_of_signal(signal.index());
        let reachable = self.reachable;
        let m = &mut self.manager;
        let a = m.var(a);
        let hold = m.and_not(a, down);
        let next_high = m.or(up, hold);
        let on = m.and(reachable, next_high);
        let off = m.and_not(reachable, next_high);
        let places = m.quant_cube(&place_vars);
        let on_codes = m.exists_cube(on, places);
        let off_codes = m.exists_cube(off, places);
        let conflicts = m.and(on_codes, off_codes);
        m.check_budget()?;
        let coding = SignalCoding { on, off, on_codes, off_codes, conflicts };
        self.codings[signal.index()] = Some(coding);
        Ok(coding)
    }

    /// The CSC decision: every non-input signal's [`Self::coding`], and
    /// which of them carry conflict codes.  Computed once per space; asking
    /// again touches no BDD.
    ///
    /// # Errors
    ///
    /// The budget trip of the space's manager; nothing is kept then.
    pub fn csc_decision(&mut self) -> Result<CscDecision, BudgetExceeded> {
        if let Some(decision) = &self.decision {
            return Ok(decision.clone());
        }
        // Conflict codes depend on the signal variables only.
        let free_vars = (self.manager.num_vars() - self.num_signals) as i32;
        let mut decision = CscDecision::default();
        for i in 0..self.non_inputs.len() {
            let signal = self.non_inputs[i];
            let conflicts = self.coding(signal)?.conflicts;
            if !conflicts.is_false() {
                decision.conflict_codes +=
                    self.manager.sat_count_f64(conflicts) / 2f64.powi(free_vars);
                decision.conflicted.push((signal, conflicts));
            }
        }
        self.decision = Some(decision.clone());
        Ok(decision)
    }

    /// The seed guard of a code-encoded space: decides, on the space itself,
    /// whether the seed (`initial_code`) labels `stg` consistently.  A
    /// passed verdict is remembered, so the guard runs once per space.
    ///
    /// It tests two things.  No reachable state may mark the preset of a
    /// signal edge while its code bars the edge (a rising edge at 1, a
    /// falling one at 0): the coded fixpoint does not fire such an edge,
    /// where the explicit engine reports the labelling inconsistent.  And
    /// each marking the space covers, `P = ∃codes. Reach`, must carry one
    /// code: `|Reach| = |P|`.  With no edge barred, every firing the net
    /// allows fires from every reachable state, so `P` is the
    /// place-reachable set and the guard is exact against the explicit
    /// engine's consistency verdict under the same seed.
    ///
    /// # Errors
    ///
    /// * [`StgError::SeedMismatch`] with one witness per barred signal: the
    ///   seed starts each of them at the wrong value,
    /// * [`StgError::Inconsistent`] naming a signal and a marking that
    ///   carries two codes — reached along firings no seed bars, so no seed
    ///   labels the STG consistently,
    /// * [`StgError::Budget`] when the space's budget trips.
    pub fn check_seed(&mut self, stg: &Stg) -> Result<(), StgError> {
        if self.seed_checked {
            return Ok(());
        }
        let mut barred: Vec<BarredEdge> = Vec::new();
        for b in &self.branches {
            let Some((signal, post)) = b.edge else { continue };
            let toggle = matches!(
                stg.label(b.trans),
                TransitionLabel::Edge { polarity: Polarity::Toggle, .. }
            );
            if toggle || barred.iter().any(|e| e.signal == signal) {
                continue;
            }
            // The enabling cube with the code literal flipped to the
            // post-value: the states that mark the preset but bar the edge.
            let var = self.var_of_signal(signal.index());
            let lits: Vec<(VarId, bool)> = b
                .enabled_lits
                .iter()
                .map(|&(v, value)| (v, if v == var { post } else { value }))
                .collect();
            let m = &mut self.manager;
            let bars = m.cube_of(&lits);
            if m.intersects(self.reachable, bars) {
                let witness = m.and(self.reachable, bars);
                barred.push(BarredEdge {
                    signal,
                    transition: stg.net().transition_name(b.trans).to_owned(),
                    marking: self.marking_of(stg, witness),
                });
            }
        }
        barred.sort_by_key(|b| b.signal);
        self.manager.check_budget()?;
        if !barred.is_empty() {
            return Err(StgError::SeedMismatch { barred });
        }
        let signal_vars: Vec<VarId> =
            (0..self.num_signals).map(|s| self.var_of_signal(s)).collect();
        let codes = self.manager.quant_cube(&signal_vars);
        let coded = self.manager.exists_cube(self.reachable, codes);
        self.manager.check_budget()?;
        // `coded` depends on the place variables only.
        let free_vars = (self.manager.num_vars() - self.num_places) as i32;
        let coded_markings = self.manager.sat_count_f64(coded) / 2f64.powi(free_vars);
        let coded_states = self.state_count_f64();
        let close = |a: f64, b: f64| (a - b).abs() <= (a.abs().max(b.abs())) * 1e-9 + 0.25;
        if !close(coded_states, coded_markings) {
            // Find a signal that takes both values on one marking.
            for (s, &var) in signal_vars.iter().enumerate() {
                let m = &mut self.manager;
                let (high, low) = (m.literal(var, true), m.literal(var, false));
                let (high, low) = (m.and(self.reachable, high), m.and(self.reachable, low));
                let (high, low) = (m.exists_cube(high, codes), m.exists_cube(low, codes));
                let both = m.and(high, low);
                self.manager.check_budget()?;
                if !both.is_false() {
                    let signal = stg.signal(SignalId::from(s)).name.clone();
                    let state = self.marking_of(stg, both);
                    return Err(StgError::Inconsistent { signal, state });
                }
            }
        }
        self.seed_checked = true;
        Ok(())
    }

    /// The marked places of one state of the non-empty `set`, as `{p, q}`.
    fn marking_of(&self, stg: &Stg, set: Bdd) -> String {
        let lits = self.manager.any_sat(set).unwrap_or_default();
        let marked: Vec<&str> = (0..self.num_places)
            .filter(|&p| lits.contains(&(self.var_of_place(p), true)))
            .map(|p| stg.net().place_name(PlaceId::from(p)))
            .collect();
        format!("{{{}}}", marked.join(", "))
    }
}

/// Symbolic encoding-property checks on a code-encoded state space.
impl Stg {
    /// Returns `true` if the STG has a CSC conflict, determined symbolically:
    /// some code is shared by a state that enables a non-input signal and a
    /// state that does not.
    pub fn symbolic_csc_violation(&self, initial_code: u64) -> bool {
        self.try_symbolic_csc_violation(initial_code, &ReachabilityConfig::default())
            .expect(UNBUDGETED)
    }

    /// Budgeted [`Self::symbolic_csc_violation`].
    ///
    /// # Errors
    ///
    /// The budget's trip.
    pub fn try_symbolic_csc_violation(
        &self,
        initial_code: u64,
        config: &ReachabilityConfig,
    ) -> Result<bool, BudgetExceeded> {
        let mut space = self.try_symbolic_encoded_state_space(initial_code, config)?;
        Ok(!space.csc_decision()?.conflicted.is_empty())
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
            let space = stg.symbolic_state_space();
            assert_eq!(space.state_count(), explicit, "mismatch for {}", stg.name());
        }
    }

    #[test]
    fn chained_fixpoints_match_the_explicit_state_graph() {
        // Chaining only fires enabled transitions, so its set is a subset of
        // the true reachable set: equal counts plus every explicit state
        // being a member make the two sets identical.  The fuzz seeds (each
        // under 100 k states) add nets of random shape, and so firing
        // orders no hand-written model has.
        let mut models = vec![
            benchmarks::handshake(),
            benchmarks::pulser(),
            benchmarks::vme_read(),
            benchmarks::master_read_like(),
            benchmarks::sequencer(4),
            benchmarks::parallel_handshakes(5),
            benchmarks::parallelizer(4),
            benchmarks::pulser_bank(2),
        ];
        models.extend((0..40).map(crate::fuzz::random_stg));
        for stg in models {
            let sg = stg.state_graph(100_000).unwrap();
            let explicit = sg.num_states() as u128;
            let places = stg.symbolic_state_space();
            // The encoded space exercises the code bits; a consistent STG
            // carries one code per marking.
            let encoded = stg.symbolic_encoded_state_space(sg.code(sg.ts.initial()));
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
    fn the_causal_order_follows_the_tokens_and_puts_unreached_transitions_last() {
        use crate::{Polarity, SignalKind, StgBuilder};
        use petri::{PlaceId, TransId};
        // `stuck` waits on a place nothing marks and feeds `after`; both are
        // declared before the handshake, so index order would fire them
        // first.
        let mut b = StgBuilder::new("unreached");
        let stuck = b.add_dummy("stuck");
        let after = b.add_dummy("after");
        let never = b.add_place("never", false);
        let between = b.add_place("between", false);
        b.arc_place_to_transition(never, stuck);
        b.arc_transition_to_place(stuck, between);
        b.arc_place_to_transition(between, after);
        let req = b.add_signal("req", SignalKind::Input);
        let ack = b.add_signal("ack", SignalKind::Output);
        let cycle = [
            b.add_edge(req, Polarity::Rise),
            b.add_edge(ack, Polarity::Rise),
            b.add_edge(req, Polarity::Fall),
            b.add_edge(ack, Polarity::Fall),
        ];
        b.connect_cycle(&cycle);
        let unreached = b.build().unwrap();
        for (stg, unreached_count) in
            [(benchmarks::counter(2), 0), (benchmarks::pipeline_4ph(3), 0), (unreached, 2)]
        {
            let net = stg.net();
            let order = super::causal_order(&stg);
            let mut indices: Vec<usize> = order.iter().map(|t| t.index()).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..net.num_transitions()).collect::<Vec<_>>(), "{}", stg.name());
            // The places a token can ever reach, closed independently of
            // the order.
            let initially = |p: usize| net.initial_marking().is_marked(PlaceId::from(p));
            let mut reachable: Vec<bool> = (0..net.num_places()).map(initially).collect();
            let mut grew = true;
            while grew {
                grew = false;
                for t in (0..net.num_transitions()).map(TransId::from) {
                    if net.preset(t).iter().any(|p| reachable[p.index()]) {
                        for q in net.postset(t) {
                            grew |= !std::mem::replace(&mut reachable[q.index()], true);
                        }
                    }
                }
            }
            let reached = |t: TransId| net.preset(t).iter().any(|p| reachable[p.index()]);
            // Each reached transition has a preset place that is initially
            // marked or marked by a transition before it.
            let mut marked: Vec<bool> = (0..net.num_places()).map(initially).collect();
            let split = order.iter().take_while(|&&t| reached(t)).count();
            for &t in &order[..split] {
                let name = net.transition_name(t);
                assert!(net.preset(t).iter().any(|p| marked[p.index()]), "{}: {name}", stg.name());
                for q in net.postset(t) {
                    marked[q.index()] = true;
                }
            }
            // The unreached ones follow, in index order.
            let rest = &order[split..];
            assert_eq!(rest.len(), unreached_count, "{}", stg.name());
            assert!(rest.iter().all(|&t| !reached(t)), "{}", stg.name());
            assert!(rest.windows(2).all(|w| w[0] < w[1]), "{}", stg.name());
        }
    }

    #[test]
    fn chained_rounds_and_arena_are_pinned() {
        // Causally ordered firing carries a token through a whole handshake
        // or ring within one round, where breadth-first rounds need the sum
        // of the components' depths (73 on par_hs24).  Each count includes
        // the final round, which finds nothing new.  Per-signal clusters
        // fired in declaration order needed (rounds, arena): counter4
        // (17, 9,070), seq8 (11, 1,838), pipe4_4 (9, 4,955), pulser_bank5
        // (4, 8,170), par_hs24 (3, 85,811), wide_conflict16 (4, 44,739),
        // pipe2_16 (18, 36,799) and pipe2_32 (34, 270,375).
        for (stg, rounds, arena) in [
            (benchmarks::counter(4), 2, 1_421),
            (benchmarks::sequencer(8), 2, 721),
            (benchmarks::pipeline_4ph(4), 8, 2_713),
            (benchmarks::pulser_bank(5), 2, 3_247),
            (benchmarks::parallel_handshakes(24), 2, 36_937),
            (benchmarks::wide_conflict(16), 2, 19_216),
            (benchmarks::pipeline_2ph(16), 10, 24_736),
            (benchmarks::pipeline_2ph(32), 18, 198_096),
        ] {
            let space = stg.symbolic_encoded_state_space(0);
            assert_eq!(space.iterations, rounds, "{}", stg.name());
            assert_eq!(space.manager_stats().num_nodes, arena, "{}", stg.name());
        }
    }

    #[test]
    fn symbolic_counts_scale_beyond_explicit_limits() {
        // 4^12 ≈ 16.7 million markings: cheap symbolically, expensive
        // explicitly.
        let stg = benchmarks::parallel_handshakes(12);
        let space = stg.symbolic_state_space();
        assert_eq!(space.state_count(), 4u128.pow(12));
        assert!(space.bdd_size() < 10_000, "BDD must stay compact");
        let stats = space.manager_stats();
        assert!(stats.cache_hits > 0, "the fixpoint must reuse memoised images");
    }

    #[test]
    fn encoded_space_matches_state_graph() {
        let stg = benchmarks::pulser();
        let space = stg.symbolic_encoded_state_space(0);
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
        let space = stg.symbolic_encoded_state_space(0);
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
        // req = 1 bars req+ at once; ack = 1 lets req+ fire, then bars ack+;
        // with both wrong, req+ is barred and ack+ is never marked.
        let stg = benchmarks::handshake();
        for (seed, barred) in [(0b01, &["req+"][..]), (0b10, &["ack+"]), (0b11, &["req+"])] {
            let mut space = stg.try_symbolic_encoded_state_space(seed, &config).unwrap();
            match space.check_seed(&stg) {
                Err(StgError::SeedMismatch { barred: edges }) => {
                    let names: Vec<&str> = edges.iter().map(|e| e.transition.as_str()).collect();
                    assert_eq!(names, barred, "seed {seed:#b}");
                }
                other => panic!("seed {seed:#b}: expected barred edges, got {other:?}"),
            }
        }
        // Each handshake of the bank is barred on its own.
        let stg = benchmarks::pulser_bank(2);
        let mut space = stg.try_symbolic_encoded_state_space(u64::MAX, &config).unwrap();
        let Err(StgError::SeedMismatch { barred }) = space.check_seed(&stg) else {
            panic!("an all-ones seed bars edges");
        };
        assert!(barred.len() >= 2, "{barred:?}");
        assert!(barred.windows(2).all(|w| w[0].signal < w[1].signal), "{barred:?}");
    }

    #[test]
    fn the_seed_guard_names_a_doubly_coded_marking() {
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
        let inconsistent = Err(StgError::Inconsistent { signal: "c".into(), state: "{p1}".into() });
        let config = super::ReachabilityConfig::default();
        for seed in [0, 1] {
            let mut space = stg.try_symbolic_encoded_state_space(seed, &config).unwrap();
            assert_eq!(space.check_seed(&stg), inconsistent, "seed {seed}");
        }
        let inferred = stg.seeded_encoded_state_space(0, &config).map(|_| ());
        assert_eq!(inferred, inconsistent);
    }

    #[test]
    fn symbolic_csc_checks() {
        assert!(!benchmarks::handshake().symbolic_csc_violation(0));
        assert!(benchmarks::pulser().symbolic_csc_violation(0));
        assert!(benchmarks::vme_read().symbolic_csc_violation(0));
        assert!(!benchmarks::parallelizer(3).symbolic_csc_violation(0));
    }

    #[test]
    fn the_csc_decision_matches_the_explicit_state_graph() {
        // A signal's conflict codes are exactly the codes the explicit graph
        // carries on both a state that excites the signal and one that does
        // not.
        let mut models: Vec<crate::Stg> = benchmarks::table2_suite()
            .into_iter()
            .chain(benchmarks::corpus_suite())
            .map(|(_, model, _)| model)
            .collect();
        models.extend((0..40).map(crate::fuzz::random_stg));
        let mut conflicted_signals = 0;
        for stg in models {
            let sg = stg.state_graph(100_000).unwrap();
            let seed = sg.code(sg.ts.initial());
            let mut space = stg.symbolic_encoded_state_space(seed);
            let decision = space.csc_decision().unwrap();
            // Asking again is free: the decision is kept on the space.
            let stats = space.manager_stats();
            let again = space.csc_decision().unwrap();
            assert_eq!(space.manager_stats(), stats, "{}", stg.name());
            assert_eq!(again.conflicted, decision.conflicted, "{}", stg.name());
            let mut explicit_total = 0;
            for &signal in &stg.non_input_signals() {
                let bit = 1u64 << signal.index();
                // Per code: whether some state excites the signal, and
                // whether some state does not.
                let mut sides: std::collections::BTreeMap<u64, [bool; 2]> = Default::default();
                for state in (0..sg.num_states()).map(|s| ts::StateId(s as u32)) {
                    let excited = sg.enabled_signal_mask(state) & bit != 0;
                    sides.entry(sg.code(state)).or_default()[usize::from(excited)] = true;
                }
                let explicit: Vec<u64> =
                    sides.iter().filter(|(_, side)| side[0] && side[1]).map(|(&c, _)| c).collect();
                explicit_total += explicit.len();
                let name = &stg.signal(signal).name;
                let codes = decision.conflicted.iter().find(|(s, _)| *s == signal).map(|e| e.1);
                assert_eq!(codes.is_some(), !explicit.is_empty(), "{}: {name}", stg.name());
                let Some(codes) = codes else { continue };
                conflicted_signals += 1;
                let m = space.manager();
                let free = (m.num_vars() - space.num_signals()) as i32;
                assert_eq!(m.sat_count_f64(codes) / 2f64.powi(free), explicit.len() as f64);
                for code in explicit {
                    let mut assignment = vec![false; m.num_vars()];
                    for s in 0..space.num_signals() {
                        assignment[space.var_of_signal(s) as usize] = (code >> s) & 1 != 0;
                    }
                    assert!(m.eval(codes, &assignment), "{}: {name} at {code:b}", stg.name());
                }
            }
            assert_eq!(decision.conflict_codes, explicit_total as f64, "{}", stg.name());
        }
        assert!(conflicted_signals >= 20, "{conflicted_signals} conflicted signals");
    }

    #[test]
    fn initial_marking_is_reachable() {
        let stg = benchmarks::vme_read();
        let space = stg.symbolic_state_space();
        let assignment = stg.net().initial_marking().to_bools();
        assert!(space.contains(&assignment));
    }

    #[test]
    fn wide_designs_compute_encoded_spaces_past_64_signals() {
        // 40 handshakes = 80 signals: beyond any u64 code, fine symbolically.
        let stg = benchmarks::parallel_handshakes(40);
        let space = stg.symbolic_encoded_state_space(0);
        assert_eq!(space.num_signals(), 80);
        // One BDD variable per place and per signal: no next-state copies.
        assert_eq!(space.manager().num_vars(), space.num_places() + 80);
        let states = space.state_count_f64();
        let expected = 4f64.powi(40);
        assert!(
            (states / expected - 1.0).abs() < 1e-9,
            "expected ~4^40 encoded states, got {states:e}"
        );
    }

    #[test]
    fn node_budget_interrupts_reachability() {
        use super::ReachabilityConfig;
        use bdd::{Budget, Resource};
        let stg = benchmarks::parallel_handshakes(8);
        let budget = Budget::new(Some(512), None, None);
        let config = ReachabilityConfig::with_budget(budget.clone());
        match stg.try_symbolic_state_space(&config) {
            Err(trip) => {
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
        use bdd::Budget;
        let stg = benchmarks::parallel_handshakes(8);
        let config = ReachabilityConfig::with_budget(Budget::new(Some(512), None, None));
        assert!(stg.try_symbolic_csc_violation(0, &config).is_err());
    }
}
