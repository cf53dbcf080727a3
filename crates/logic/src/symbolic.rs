//! Symbolic derivation of next-state functions.
//!
//! Both entry points build the ON- and OFF-set of every non-input signal as
//! BDDs, detect CSC violations as a non-empty `ON ∧ OFF` intersection, and
//! extract covers with interval ISOP (`isop(ON, ¬OFF)`), so the whole
//! don't-care space — in particular every unreachable code — is absorbed
//! without being represented:
//!
//! * [`derive_next_state_functions`] starts from an explicit
//!   [`EncodedGraph`] (the object the explicit CSC solver produces): each
//!   state contributes its code cube to the buckets, and all minimization
//!   happens on the BDDs.
//! * [`analyze_space`] never enumerates states at all: the reachable set is
//!   the encoded [`SymbolicStateSpace`] of the `stg` symbolic engine, the
//!   per-signal excitation predicates are preset-marked cubes, and the
//!   ON/OFF *code* sets come from quantifying the place variables away.
//!   This is the path that scales to state spaces (and signal counts) the
//!   explicit representation cannot touch; [`analyze_stg_with`] wraps it
//!   for callers that hold only the STG.
//!
//! An ISOP cover is irredundant but its cubes are not necessarily prime, so
//! a cheap BDD-exact polish pass expands every cube against the OFF-set and
//! drops cubes whose ON contribution is covered by the rest.

use crate::area::LogicDiagnostic;
use crate::cube::{Cover, Cube};
use crate::nextstate::{code_pattern, LogicError, NextStateFunctions, SignalFunction};
use bdd::{Bdd, BddManager, VarId};
use csc::EncodedGraph;
use stg::{
    Polarity, ReachabilityConfig, SignalId, Stg, StgError, SymbolicStateSpace, TransitionLabel,
};
use ts::StateId;

/// Derives and minimizes the next-state function of every non-input signal
/// of an encoded state graph.
///
/// The *next value* of signal `a` in state `s` is 1 exactly when `a` is
/// rising in `s` or stable at 1 (i.e. not falling); the function maps the
/// state's *code* to that value, which is well-defined precisely when CSC
/// holds.
///
/// # Errors
///
/// [`LogicError::CscViolation`] when two states with equal codes need
/// different next values, and [`LogicError::TooManySignals`] past 64
/// signals: codes of an [`EncodedGraph`] are 64-bit words
/// ([`analyze_space`] has no cap).
pub fn derive_next_state_functions(graph: &EncodedGraph) -> Result<NextStateFunctions, LogicError> {
    let num_signals = graph.num_signals();
    if num_signals > 64 {
        return Err(LogicError::TooManySignals { count: num_signals });
    }
    let mut m = BddManager::with_capacity(num_signals.max(1), 1 << 12);
    let nodes_before = m.num_nodes();

    // Bucket every state's code cube into ON/OFF per non-input signal.
    let non_inputs: Vec<usize> =
        (0..num_signals).filter(|&i| graph.signals[i].kind.is_non_input()).collect();
    let mut on = vec![m.bottom(); num_signals];
    let mut off = vec![m.bottom(); num_signals];
    let mut lits: Vec<(VarId, bool)> = Vec::with_capacity(num_signals);
    for s in 0..graph.num_states() {
        let state = StateId::from(s);
        let code = graph.code(state);
        lits.clear();
        lits.extend((0..num_signals).map(|i| (i as VarId, (code >> i) & 1 != 0)));
        let cube = m.cube_of(&lits);
        let (known, value) = next_value_masks(graph, state);
        for &i in &non_inputs {
            let bit = 1u64 << i;
            let next = if known & bit != 0 { value & bit != 0 } else { code & bit != 0 };
            let bucket = if next { &mut on } else { &mut off };
            bucket[i] = m.or(bucket[i], cube);
        }
    }

    let mut functions = Vec::with_capacity(non_inputs.len());
    for &i in &non_inputs {
        let name = graph.signals[i].name.clone();
        let function = extract_function(
            &mut m,
            SignalId::from(i),
            name,
            on[i],
            off[i],
            num_signals,
            &|var| var as usize,
        )?;
        functions.push(function);
    }
    Ok(NextStateFunctions {
        functions,
        num_variables: num_signals,
        bdd_nodes: m.num_nodes() - nodes_before,
    })
}

/// The required next value of every signal in `state`, as (known-mask,
/// value-mask) over the signal bits: a known bit means some enabled edge of
/// that signal dictates the value, otherwise the signal holds its current
/// value.
fn next_value_masks(graph: &EncodedGraph, state: StateId) -> (u64, u64) {
    let code = graph.codes[state.index()];
    let mut known = 0u64;
    let mut value = 0u64;
    for &(event, _) in graph.ts.successors(state) {
        if let Some((signal, polarity)) = graph.event_edges[event.index()] {
            let bit = 1u64 << signal.index();
            let next = match polarity {
                Polarity::Rise => true,
                Polarity::Fall => false,
                Polarity::Toggle => code & bit == 0,
            };
            known |= bit;
            if next {
                value |= bit;
            } else {
                value &= !bit;
            }
        }
    }
    (known, value)
}

/// Everything the fully symbolic pipeline learns about an STG in one pass:
/// the derived functions, the implementability diagnostics, and the state
/// counts (so callers — e.g. the flow facade — do not re-run reachability).
#[derive(Clone, Debug)]
pub struct SymbolicLogicReport {
    /// The derived and minimized next-state functions.
    pub functions: NextStateFunctions,
    /// Typed implementability diagnostics (output persistency); empty when
    /// the specification admits a hazard-free implementation.
    pub diagnostics: Vec<LogicDiagnostic>,
    /// Reachable markings of the net, as a float: the encoded space's state
    /// count, which the seed guard proved to be one code per reachable
    /// marking.
    pub markings: f64,
}

/// [`analyze_space`] on a freshly built encoded state space: reachability
/// under `reach` (its budget and iteration cap), then the seed
/// guard, the next-state functions and the output-persistency check.
///
/// `initial_code` seeds the signal values of the initial marking (bit `i` =
/// signal `i`; signals past bit 63 start at 0), as in
/// [`stg::Stg::try_symbolic_encoded_state_space`].  Callers that already
/// hold the space — the flow facade — call [`analyze_space`] directly.
///
/// ```
/// use logic::analyze_stg_with;
///
/// // Two independent handshakes: 16 reachable markings, each ack follows
/// // its own request with a single literal, no persistency hazards.
/// let model = stg::benchmarks::parallel_handshakes(2);
/// let report = analyze_stg_with(&model, 0, &stg::ReachabilityConfig::default())?;
/// assert_eq!(report.markings, 16.0);
/// assert_eq!(report.functions.total_literals(), 2);
/// assert!(report.diagnostics.is_empty());
/// # Ok::<(), logic::LogicError>(())
/// ```
///
/// # Errors
///
/// [`LogicError::ReachabilityNotConverged`] if the fixpoint hits its cap,
/// [`LogicError::Budget`] when the budget trips, and every error of
/// [`analyze_space`].
pub fn analyze_stg_with(
    stg: &Stg,
    initial_code: u64,
    reach: &ReachabilityConfig,
) -> Result<SymbolicLogicReport, LogicError> {
    let mut space =
        stg.try_symbolic_encoded_state_space(initial_code, reach).map_err(reachability_error)?;
    analyze_space(stg, &mut space)
}

/// Maps a reachability or seed-guard failure onto the logic error space.
/// Both fail only through the budget, a truncated fixpoint or a seed
/// mismatch, so the catch-all arm is an internal invariant.
fn reachability_error(e: StgError) -> LogicError {
    match e {
        StgError::Budget(trip) => LogicError::Budget(trip),
        StgError::NotConverged { iterations } => {
            LogicError::ReachabilityNotConverged { iterations }
        }
        StgError::SeedMismatch { blocked_transition, coded_markings, coded_states } => {
            LogicError::InitialCodeMismatch { blocked_transition, coded_markings, coded_states }
        }
        other => unreachable!("reachability cannot fail with {other:?}"),
    }
}

/// Derives the next-state functions of a (CSC-satisfying, consistent) STG
/// from its code-encoded state space, without ever enumerating states.
///
/// `space` must be `stg`'s encoded space
/// ([`stg::Stg::try_symbolic_encoded_state_space`]); the analysis only adds
/// BDDs to its manager, so the same space serves the solver and the netlist
/// check afterwards.  The seed guard
/// ([`stg::SymbolicStateSpace::check_seed`]) runs first, so a wrong seed is
/// reported, never turned into logic.
///
/// The next value of signal `a` in a reachable state is determined from the
/// excitation predicates of its transitions (preset-marked cubes): rising —
/// or toggling out of 0 — demands 1, falling (or toggling out of 1) demands
/// 0, and an unexcited signal holds its current value.  Projecting the
/// resulting state sets onto the code variables yields the ON/OFF sets of
/// the paper; a code in both is exactly a CSC violation.
///
/// # Errors
///
/// [`LogicError::InitialCodeMismatch`] if the space's seed does not label
/// the reachable markings consistently (some edge is blocked by a wrong
/// signal value, or a marking gets two codes), [`LogicError::CscViolation`]
/// when CSC does not hold, and [`LogicError::Budget`] when the budget
/// attached to the space's manager trips.
pub fn analyze_space(
    stg: &Stg,
    space: &mut SymbolicStateSpace,
) -> Result<SymbolicLogicReport, LogicError> {
    // The space's manager already holds the fixpoint (and, in a flow, the
    // solver's work): report only what this derivation adds to the arena.
    let nodes_before = space.manager().num_nodes();
    space.check_seed(stg).map_err(reachability_error)?;
    let markings = space.state_count_f64();
    let num_places = space.num_places();
    let num_signals = space.num_signals();
    let place_vars: Vec<VarId> = (0..num_places).map(|p| space.current_var_of_place(p)).collect();
    let signal_vars: Vec<VarId> =
        (0..num_signals).map(|s| space.current_var_of_signal(s)).collect();
    // Inverse map, manager variable → signal index, for the ISOP cubes.
    let mut signal_of_var = vec![usize::MAX; 2 * (num_places + num_signals)];
    for (s, &v) in signal_vars.iter().enumerate() {
        signal_of_var[v as usize] = s;
    }
    // Excitation predicates per polarity: some transition of the signal
    // has its whole preset marked.
    let non_inputs = stg.non_input_signals();
    let excitations: Vec<[Bdd; 3]> =
        non_inputs.iter().map(|&signal| space.excitations(stg, signal)).collect();
    let reachable = space.reachable();
    let m = space.manager_mut();
    let place_quant = m.quant_cube(&place_vars);

    if let Some(budget) = m.budget() {
        budget.set_stage("isop");
    }
    let mut functions = Vec::new();
    for (&signal, &[rise, fall, toggle]) in non_inputs.iter().zip(&excitations) {
        m.check_budget()?;
        let a = m.var(signal_vars[signal.index()]);
        // next = 1 ⟺ rising ∨ toggling out of 0 ∨ (stable at 1: neither
        // falling nor toggling).
        let not_a = m.not(a);
        let toggle_up = m.and(toggle, not_a);
        let not_fall = m.not(fall);
        let not_toggle = m.not(toggle);
        let hold_high = {
            let quiet = m.and(not_fall, not_toggle);
            m.and(a, quiet)
        };
        let on_pred = {
            let excited = m.or(rise, toggle_up);
            m.or(excited, hold_high)
        };
        let on_states = m.and(reachable, on_pred);
        let off_states = m.and_not(reachable, on_pred);
        // Project away the marking: what remains are the code sets.
        let on_codes = m.exists_cube(on_states, place_quant);
        let off_codes = m.exists_cube(off_states, place_quant);
        let function = extract_function(
            m,
            signal,
            stg.signal(signal).name.clone(),
            on_codes,
            off_codes,
            num_signals,
            &|var| signal_of_var[var as usize],
        )?;
        functions.push(function);
    }
    let diagnostics = persistency_diagnostics(stg, m, reachable, &place_vars, &signal_vars);
    m.check_budget()?;
    let bdd_nodes = space.manager().num_nodes() - nodes_before;
    Ok(SymbolicLogicReport {
        functions: NextStateFunctions { functions, num_variables: num_signals, bdd_nodes },
        diagnostics,
        markings,
    })
}

/// Symbolic output-persistency check: a non-input edge `t` is violated when
/// some reachable state enables both `t` and another transition `u` whose
/// firing disables `t` — structurally, `u` consumes a token `t` needs
/// (`pre(t) ∩ (pre(u) ∖ post(u)) ≠ ∅`) or switches `t`'s own signal away
/// from the value `t` requires.  The structural filter keeps the pair scan
/// cheap; co-enabledness is decided exactly on the reachable set.
fn persistency_diagnostics(
    stg: &Stg,
    m: &mut BddManager,
    reachable: Bdd,
    place_vars: &[VarId],
    signal_vars: &[VarId],
) -> Vec<LogicDiagnostic> {
    let net = stg.net();
    struct TransInfo {
        enabled: Bdd,
        pre: Vec<usize>,
        consumed: Vec<usize>,
        edge: Option<(usize, Polarity)>,
    }
    let infos: Vec<TransInfo> = (0..net.num_transitions())
        .map(|t| {
            let t_id = petri::TransId::from(t);
            let pre: Vec<usize> = net.preset(t_id).iter().map(|p| p.index()).collect();
            let post: Vec<usize> = net.postset(t_id).iter().map(|p| p.index()).collect();
            let consumed: Vec<usize> = pre.iter().copied().filter(|p| !post.contains(p)).collect();
            let edge = match stg.label(t_id) {
                TransitionLabel::Edge { signal, polarity } => Some((signal.index(), polarity)),
                TransitionLabel::Dummy => None,
            };
            let mut lits: Vec<(VarId, bool)> = pre.iter().map(|&p| (place_vars[p], true)).collect();
            if let Some((s, polarity)) = edge {
                match polarity {
                    Polarity::Rise => lits.push((signal_vars[s], false)),
                    Polarity::Fall => lits.push((signal_vars[s], true)),
                    Polarity::Toggle => {}
                }
            }
            let enabled = m.cube_of(&lits);
            TransInfo { enabled, pre, consumed, edge }
        })
        .collect();

    // The value `t` requires on its own signal, and the value `u` leaves the
    // signal at (None = no constraint / value-independent).
    let required = |polarity: Polarity| match polarity {
        Polarity::Rise => Some(false),
        Polarity::Fall => Some(true),
        Polarity::Toggle => None,
    };
    let mut diagnostics = Vec::new();
    let mut reported: Vec<String> = Vec::new();
    for (t, t_info) in infos.iter().enumerate() {
        let Some((t_signal, t_polarity)) = t_info.edge else { continue };
        if !stg.signal(SignalId::from(t_signal)).kind.is_non_input() {
            continue;
        }
        let signal_name = &stg.signal(SignalId::from(t_signal)).name;
        if reported.contains(signal_name) {
            continue;
        }
        for (u, u_info) in infos.iter().enumerate() {
            if u == t {
                continue;
            }
            let steals_token = t_info.pre.iter().any(|p| u_info.consumed.contains(p));
            let flips_value = match (required(t_polarity), u_info.edge) {
                (Some(needed), Some((u_signal, u_polarity))) if u_signal == t_signal => {
                    match u_polarity {
                        Polarity::Rise => !needed,
                        Polarity::Fall => needed,
                        // A co-enabled toggle starts from the value `t`
                        // requires and always leaves the opposite one.
                        Polarity::Toggle => true,
                    }
                }
                _ => false,
            };
            if !steals_token && !flips_value {
                continue;
            }
            let both = m.and(t_info.enabled, u_info.enabled);
            let witness = m.and(reachable, both);
            if !witness.is_false() {
                reported.push(signal_name.clone());
                diagnostics.push(LogicDiagnostic::OutputNotPersistent {
                    signal: signal_name.clone(),
                    disabled_by: net.transition_name(petri::TransId::from(u)).to_owned(),
                });
                break;
            }
        }
    }
    diagnostics
}

/// Checks `on ∧ off = ∅`, extracts the exact ON/OFF covers and the
/// DC-absorbing minimized cover, and maps the ISOP literals back onto
/// signal indices via `signal_of_var`.
fn extract_function(
    m: &mut BddManager,
    signal: SignalId,
    name: String,
    on: Bdd,
    off: Bdd,
    num_signals: usize,
    signal_of_var: &dyn Fn(VarId) -> usize,
) -> Result<SignalFunction, LogicError> {
    let clash = m.and(on, off);
    if !clash.is_false() {
        return Err(LogicError::CscViolation {
            signal: name,
            code: clash_code(m, clash, num_signals, signal_of_var),
        });
    }
    let upper = m.not(off);
    let minimized_isop = m.isop(on, upper);
    let minimized = refine_cover(m, minimized_isop.cubes, on, off);
    let on_cover = m.isop(on, on).cubes;
    let off_cover = m.isop(off, off).cubes;
    Ok(SignalFunction {
        signal,
        name,
        on_set: cubes_to_cover(&on_cover, num_signals, signal_of_var),
        off_set: cubes_to_cover(&off_cover, num_signals, signal_of_var),
        minimized: cubes_to_cover(&minimized, num_signals, signal_of_var),
    })
}

/// A witness code from the `ON ∧ OFF` intersection, rendered most
/// significant signal first (unconstrained signals read as 0).
fn clash_code(
    m: &BddManager,
    clash: Bdd,
    num_signals: usize,
    signal_of_var: &dyn Fn(VarId) -> usize,
) -> String {
    let mut code_bits = vec![false; num_signals];
    if let Some(lits) = m.one_sat(clash) {
        for (var, value) in lits {
            let s = signal_of_var(var);
            if s < num_signals {
                code_bits[s] = value;
            }
        }
    }
    if num_signals <= 64 {
        let code = code_bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
        code_pattern(code, num_signals)
    } else {
        code_bits.iter().rev().map(|&b| if b { '1' } else { '0' }).collect()
    }
}

/// Polishes an ISOP cover with BDD-exact passes: greedily expand each cube
/// against the OFF-set (drop literals while the cube stays disjoint from
/// it, making the cube prime), then drop cubes whose ON contribution the
/// rest of the cover already provides.  Both passes only ever reduce the
/// literal count; correctness is maintained exactly because the checks run
/// on the ON/OFF BDDs, not on cube lists.
fn refine_cover(
    m: &mut BddManager,
    cubes: Vec<Vec<(VarId, bool)>>,
    on: Bdd,
    off: Bdd,
) -> Vec<Vec<(VarId, bool)>> {
    let mut expanded: Vec<Vec<(VarId, bool)>> = cubes
        .into_iter()
        .map(|mut lits| {
            let mut i = 0;
            while i < lits.len() {
                let mut trial = lits.clone();
                trial.remove(i);
                let cube = m.cube_of(&trial);
                let overlap = m.and(cube, off);
                if overlap.is_false() {
                    lits = trial;
                } else {
                    i += 1;
                }
            }
            lits
        })
        .collect();
    // Widest-first removal order, ties broken lexicographically, so the
    // result is deterministic.
    expanded.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let mut alive = vec![true; expanded.len()];
    let mut alive_count = expanded.len();
    for i in 0..expanded.len() {
        if alive_count <= 1 {
            break;
        }
        let mut rest = m.bottom();
        for (j, lits) in expanded.iter().enumerate() {
            if j != i && alive[j] {
                let cube = m.cube_of(lits);
                rest = m.or(rest, cube);
            }
        }
        let cube = m.cube_of(&expanded[i]);
        let contribution = m.and(cube, on);
        if m.implies(contribution, rest) {
            alive[i] = false;
            alive_count -= 1;
        }
    }
    expanded.into_iter().zip(alive).filter_map(|(lits, keep)| keep.then_some(lits)).collect()
}

/// Maps manager-variable cubes onto [`Cube`]s over the signal space.
fn cubes_to_cover(
    cubes: &[Vec<(VarId, bool)>],
    num_signals: usize,
    signal_of_var: &dyn Fn(VarId) -> usize,
) -> Cover {
    cubes
        .iter()
        .map(|lits| {
            let mapped: Vec<(usize, bool)> = lits
                .iter()
                .map(|&(var, value)| {
                    let s = signal_of_var(var);
                    debug_assert!(s < num_signals, "cover literal on a non-signal variable");
                    (s, value)
                })
                .collect();
            Cube::from_literals(num_signals, &mapped)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::benchmarks;

    /// The functions of the symbolic STG pipeline, seeded with
    /// `initial_code`, under the default reachability configuration.
    fn functions_of(model: &Stg, initial_code: u64) -> Result<NextStateFunctions, LogicError> {
        analyze_stg_with(model, initial_code, &ReachabilityConfig::default())
            .map(|report| report.functions)
    }

    fn report_of(model: &Stg) -> SymbolicLogicReport {
        analyze_stg_with(model, 0, &ReachabilityConfig::default()).unwrap()
    }

    fn graph_of(model: &Stg) -> EncodedGraph {
        EncodedGraph::from_state_graph(&model.state_graph(1_000_000).unwrap())
    }

    /// Indicator equality of two covers over every code of a (small) space.
    fn same_semantics(a: &Cover, b: &Cover, num_signals: usize) -> bool {
        assert!(num_signals <= 16, "exhaustive check only for small spaces");
        (0..(1u64 << num_signals)).all(|code| a.contains_minterm(code) == b.contains_minterm(code))
    }

    #[test]
    fn stg_engine_matches_the_graph_derivation_on_csc_holding_models() {
        for model in [
            benchmarks::handshake(),
            benchmarks::parallel_handshakes(3),
            benchmarks::parallelizer(3),
        ] {
            let graph = graph_of(&model);
            let initial_code = graph.code(graph.ts.initial());
            let from_graph = derive_next_state_functions(&graph).unwrap();
            let from_stg = functions_of(&model, initial_code).unwrap();
            let n = from_graph.num_variables;
            for (g, s) in from_graph.functions.iter().zip(&from_stg.functions) {
                assert_eq!(g.name, s.name, "{}", model.name());
                assert!(same_semantics(&g.on_set, &s.on_set, n), "{} {}", model.name(), g.name);
                assert!(same_semantics(&g.off_set, &s.off_set, n), "{} {}", model.name(), g.name);
                assert_eq!(g.literals(), s.literals(), "{} {}", model.name(), g.name);
            }
        }
    }

    /// A free choice between two outputs: `x+` releases one token that
    /// either `a+` or `b+` consumes, and each branch acknowledges through
    /// its own `x-` instance.  CSC holds (every state has a unique code),
    /// but firing either output disables the other — the canonical output
    /// persistency violation.
    fn output_choice() -> Stg {
        use stg::{SignalKind, StgBuilder};
        let mut bld = StgBuilder::new("choice");
        let x = bld.add_signal("x", SignalKind::Input);
        let a = bld.add_signal("a", SignalKind::Output);
        let b = bld.add_signal("b", SignalKind::Output);
        let xp = bld.add_edge(x, Polarity::Rise);
        let ap = bld.add_edge(a, Polarity::Rise);
        let xma = bld.add_edge(x, Polarity::Fall);
        let am = bld.add_edge(a, Polarity::Fall);
        let bp = bld.add_edge(b, Polarity::Rise);
        let xmb = bld.add_edge(x, Polarity::Fall);
        let bm = bld.add_edge(b, Polarity::Fall);
        let choice = bld.add_place("choice", false);
        bld.arc_transition_to_place(xp, choice);
        bld.arc_place_to_transition(choice, ap);
        bld.arc_place_to_transition(choice, bp);
        bld.connect(ap, xma, false);
        bld.connect(xma, am, false);
        bld.connect(bp, xmb, false);
        bld.connect(xmb, bm, false);
        let idle = bld.add_place("idle", true);
        bld.arc_transition_to_place(am, idle);
        bld.arc_transition_to_place(bm, idle);
        bld.arc_place_to_transition(idle, xp);
        bld.build().unwrap()
    }

    #[test]
    fn persistency_violations_surface_symbolically() {
        let model = output_choice();
        let sg = model.state_graph(1_000).unwrap();
        assert!(sg.complete_state_coding_holds(), "the choice must not hide a CSC conflict");
        // Ground truth from the explicit graph-level check.
        let graph = EncodedGraph::from_state_graph(&sg);
        let mut explicit: Vec<String> = crate::area::output_persistency_violations(&graph)
            .into_iter()
            .map(|d| match d {
                LogicDiagnostic::OutputNotPersistent { signal, .. } => signal,
                other => panic!("unexpected diagnostic {other:?}"),
            })
            .collect();
        explicit.sort();
        assert_eq!(explicit, ["a", "b"], "both outputs lose the race");
        // The fully symbolic analysis must find the same signals.
        let report = report_of(&model);
        let mut symbolic: Vec<String> = report
            .diagnostics
            .into_iter()
            .map(|d| match d {
                LogicDiagnostic::OutputNotPersistent { signal, .. } => signal,
                other => panic!("unexpected diagnostic {other:?}"),
            })
            .collect();
        symbolic.sort();
        assert_eq!(symbolic, explicit);
        // Persistent models report nothing.
        let clean = report_of(&benchmarks::parallel_handshakes(3));
        assert!(clean.diagnostics.is_empty());
    }

    #[test]
    fn stg_engine_detects_csc_violations() {
        let err = functions_of(&benchmarks::pulser(), 0).unwrap_err();
        assert!(matches!(err, LogicError::CscViolation { .. }), "{err}");
        // vme_read's conflict also shows up without the explicit graph.
        let err = functions_of(&benchmarks::vme_read(), 0).unwrap_err();
        assert!(matches!(err, LogicError::CscViolation { .. }), "{err}");
    }

    /// The transition the all-zero seed blocks first in the re-encoded
    /// pulser.
    const BLOCKED_BY_ZERO_SEED: &str = "csc0-";

    #[test]
    fn wrong_initial_code_is_rejected_not_mislabelled() {
        // The re-synthesized pulser starts with some signals at 1; seeding
        // the symbolic engine with all-zeros blocks edges and truncates the
        // space.  That must surface as InitialCodeMismatch, never as a
        // (wrong) function set.
        let solution =
            csc::solve_stg(&benchmarks::pulser(), &csc::SolverConfig::default()).unwrap();
        let encoded = solution.stg.expect("pulser re-synthesizes");
        let sg = encoded.state_graph(10_000).unwrap();
        let true_code = sg.code(sg.ts.initial());
        assert_ne!(true_code, 0, "the regression needs a non-zero initial code");
        let err = functions_of(&encoded, 0).unwrap_err();
        let LogicError::InitialCodeMismatch { blocked_transition: Some(blocked), .. } = &err else {
            panic!("expected a blocked transition as the witness, got {err}");
        };
        assert_eq!(blocked, BLOCKED_BY_ZERO_SEED, "{err}");
        assert!(err.to_string().contains(BLOCKED_BY_ZERO_SEED), "{err}");
        // Only an edge of a wrongly seeded signal can be blocked: every
        // other signal follows its true value along every firing sequence.
        let t = (0..encoded.net().num_transitions())
            .map(petri::TransId::from)
            .find(|&t| encoded.net().transition_name(t) == blocked)
            .expect("the witness names a transition of the net");
        let TransitionLabel::Edge { signal, .. } = encoded.label(t) else {
            panic!("a dummy cannot be blocked by a code");
        };
        assert_ne!((true_code >> signal.index()) & 1, 0, "{blocked}: its signal is seeded right");
        // With the correct seed the derivation agrees with the one on the
        // explicit graph.
        let funcs = functions_of(&encoded, true_code).unwrap();
        let from_graph = derive_next_state_functions(&EncodedGraph::from_state_graph(&sg)).unwrap();
        assert_eq!(funcs.total_literals(), from_graph.total_literals());
        assert_eq!(funcs.total_cubes(), from_graph.total_cubes());
    }

    #[test]
    fn stg_engine_reports_non_convergence() {
        let capped =
            ReachabilityConfig { max_iterations: Some(1), ..ReachabilityConfig::default() };
        let err = analyze_stg_with(&benchmarks::parallel_handshakes(4), 0, &capped).unwrap_err();
        assert!(matches!(err, LogicError::ReachabilityNotConverged { iterations: 1 }), "{err}");
    }

    #[test]
    fn wide_designs_derive_past_64_signals() {
        // 40 independent handshakes: 80 signals, 4^40 states.  Every ack
        // follows its own request with a single literal.
        let model = benchmarks::parallel_handshakes(40);
        let funcs = functions_of(&model, 0).unwrap();
        assert_eq!(funcs.num_variables, 80);
        assert_eq!(funcs.functions.len(), 40);
        for f in &funcs.functions {
            assert_eq!(f.literals(), 1, "{}: ack_i = req_i", f.name);
            assert_eq!(f.cubes(), 1, "{}", f.name);
        }
        assert_eq!(funcs.total_literals(), 40);
        assert!(funcs.bdd_nodes > 0);
    }

    #[test]
    fn derivation_nodes_exclude_the_prebuilt_space() {
        // par_hs8's fixpoint fills the arena before the derivation starts;
        // the report counts only the nodes the derivation adds.
        let model = benchmarks::parallel_handshakes(8);
        let mut space =
            model.try_symbolic_encoded_state_space(0, &ReachabilityConfig::default()).unwrap();
        let before = space.manager().num_nodes();
        let funcs = analyze_space(&model, &mut space).unwrap().functions;
        let after = space.manager().num_nodes();
        assert_eq!(funcs.bdd_nodes, after - before);
        assert!(funcs.bdd_nodes > 0 && funcs.bdd_nodes < after, "{} of {after}", funcs.bdd_nodes);
    }

    #[test]
    fn minimized_covers_respect_dont_cares() {
        // The counter's code space is mostly unreachable; the minimized
        // covers must still separate ON from OFF exactly on the reachable
        // codes.  counter(2) violates CSC before solving, so use the solved
        // graph.
        let solution = csc::solve_stg(&benchmarks::counter(2), &csc::SolverConfig::default());
        let graph = solution.unwrap().graph;
        let funcs = derive_next_state_functions(&graph).unwrap();
        for f in &funcs.functions {
            for s in 0..graph.num_states() {
                let code = graph.code(StateId::from(s));
                let on = f.on_set.contains_minterm(code);
                assert_ne!(on, f.off_set.contains_minterm(code), "{}: code {code:b}", f.name);
                assert_eq!(f.minimized.contains_minterm(code), on, "{}: code {code:b}", f.name);
            }
        }
    }
}
