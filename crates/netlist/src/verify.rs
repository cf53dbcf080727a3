//! Closed-loop symbolic verification of an emitted netlist against its
//! source STG.
//!
//! The circuit transition model is one BDD cluster per gate output over the
//! *code* variables of the encoded symbolic state space: a gate's next
//! value is `set ∧ ¬q ∨ q ∧ ¬reset` (a complex gate is the degenerate case
//! `set = F`, `reset = ¬F`), so its rising excitation is `set ∧ ¬q` and its
//! falling excitation is `reset ∧ q`.  Verification then asks two
//! questions on the reachable (marking, code) pairs of the **specification**:
//!
//! * **Projection trace equivalence** — in every reachable state, the gate
//!   excitation must coincide with the STG's enabled edges of that signal.
//!   Comparing excitations state by state over the composed reachable
//!   space finds the *first* divergence between circuit and specification
//!   (the standard product-machine argument), so emptiness of the
//!   difference is both sound and complete for trace containment in either
//!   direction, projected on the STG's signals.
//! * **Speed independence** — no transition of *another* signal may
//!   withdraw a gate's excitation before the gate fires.  For each firing
//!   branch `u` of the space ([`stg::Branch`]), "the successor still
//!   excites `a`" is the cofactor of the excitation at `u`'s pinned
//!   literals, so the check needs no next-state variables at all.
//!
//! The STG side of both checks is the space's own excitation of each
//! signal ([`SymbolicStateSpace::excitation`]), the one the logic analysis
//! derived the gates from.
//!
//! Every check honours the budget attached to the space's manager (the
//! [`ReachabilityConfig`]'s budget for [`verify`]): a tripped ceiling
//! surfaces as [`NetlistError::Budget`], never as a hang.

use crate::{cover_bdd, GateKind, Netlist, NetlistError};
use bdd::{Bdd, BddManager, VarId};
use std::fmt;
use stg::{ReachabilityConfig, Stg, SymbolicStateSpace};

/// A typed, witness-carrying verification finding.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistDiagnostic {
    /// The circuit and the specification disagree on an excitation in a
    /// reachable state: the gate is excited where the STG enables no such
    /// edge, or an enabled edge finds its gate unexcited.
    TraceDivergence {
        /// The diverging signal.
        signal: String,
        /// The divergence direction: `true` for a rising excitation.
        rising: bool,
        /// Whether the *circuit* side is excited at the witness (the STG
        /// side is then the opposite).
        circuit_excited: bool,
        /// Witness code (binary, most significant signal first).
        code: String,
    },
    /// Another signal's transition withdraws a gate's excitation before the
    /// gate fires — the circuit is not speed-independent.
    HazardNotPersistent {
        /// The gate whose excitation is lost.
        signal: String,
        /// The transition whose firing withdraws it.
        disabled_by: String,
        /// Witness code of the state where both are enabled (binary, most
        /// significant signal first).
        code: String,
    },
}

impl fmt::Display for NetlistDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistDiagnostic::TraceDivergence { signal, rising, circuit_excited, code } => {
                let direction = if *rising { "rise" } else { "fall" };
                let side = if *circuit_excited { "circuit" } else { "specification" };
                write!(
                    f,
                    "netlist diverges from the STG on '{signal}' ({direction}): only the {side} \
                     is excited at code {code}"
                )
            }
            NetlistDiagnostic::HazardNotPersistent { signal, disabled_by, code } => write!(
                f,
                "netlist gate '{signal}' is not speed-independent: excitation withdrawn by \
                 {disabled_by} at code {code}"
            ),
        }
    }
}

/// The verdict of one closed-loop verification run.
#[derive(Clone, Debug)]
pub struct NetlistVerification {
    /// Reachable (marking, code) pairs of the composed model, as a float.
    pub states_f64: f64,
    /// Whether every reachable excitation of the circuit matches the STG.
    pub trace_equivalent: bool,
    /// Whether no gate excitation can be withdrawn by another signal.
    pub speed_independent: bool,
    /// Witness-carrying findings (empty exactly when both verdicts hold).
    pub diagnostics: Vec<NetlistDiagnostic>,
}

impl NetlistVerification {
    /// Whether the netlist passed both checks.
    pub fn passed(&self) -> bool {
        self.trace_equivalent && self.speed_independent
    }
}

/// Per-gate excitation BDDs over the current code variables.
struct GateExcitation {
    signal: usize,
    name: String,
    excite_up: Bdd,
    excite_down: Bdd,
}

/// [`verify_space`] on a freshly built encoded state space of `stg`
/// (reachability under `config`, seeded with `initial_code` as in
/// [`logic::analyze_stg_with`]).  The flow (`synthkit::run_flow`) does not
/// rebuild the space: it calls [`verify_space`] on the space its logic
/// analysis used.
///
/// # Errors
///
/// [`NetlistError::Budget`] from the governed reachability analysis, and
/// every error of [`verify_space`].
pub fn verify(
    stg: &Stg,
    netlist: &Netlist,
    initial_code: u64,
    config: &ReachabilityConfig,
) -> Result<NetlistVerification, NetlistError> {
    let mut config = config.clone();
    if config.stage.is_none() {
        config.stage = Some("netlist-verify");
    }
    let mut space = stg.try_symbolic_encoded_state_space(initial_code, &config)?;
    verify_space(stg, &mut space, netlist)
}

/// Verifies an emitted netlist against its source STG on the STG's
/// encoded state space; see the module docs for the model.
///
/// `space` must be `stg`'s encoded space
/// ([`stg::Stg::try_symbolic_encoded_state_space`]).  The check only adds
/// BDDs to its manager and charges the budget attached to it, labelling
/// trips `netlist-verify`.
///
/// Gates are matched to STG signals by *name*, so both a freshly
/// synthesized netlist and one re-read through [`crate::parse_eqn`] (whose
/// variable numbering differs) verify against the same specification.
///
/// # Errors
///
/// [`NetlistError::UnknownSignal`] / [`NetlistError::MissingGate`] when the
/// netlist and the STG describe different signal sets, and
/// [`NetlistError::Budget`] when the budget trips.
pub fn verify_space(
    stg: &Stg,
    space: &mut SymbolicStateSpace,
    netlist: &Netlist,
) -> Result<NetlistVerification, NetlistError> {
    let num_signals = stg.num_signals();
    if netlist.num_variables != num_signals {
        return Err(NetlistError::WidthMismatch {
            signals: num_signals,
            variables: netlist.num_variables,
        });
    }
    // Netlist variable → STG signal index, by name.
    let stg_index_of = |name: &str| (0..num_signals).find(|&s| stg.signal(s.into()).name == name);
    let mut stg_of_var = Vec::with_capacity(netlist.num_variables);
    for name in &netlist.signal_names {
        match stg_index_of(name) {
            Some(s) => stg_of_var.push(s),
            None => return Err(NetlistError::UnknownSignal { name: name.clone() }),
        }
    }
    for signal in stg.non_input_signals() {
        let name = &stg.signal(signal).name;
        if netlist.gate_of(name).is_none() {
            return Err(NetlistError::MissingGate { signal: name.clone() });
        }
    }

    let states_f64 = space.state_count_f64();
    let signal_vars: Vec<VarId> = (0..num_signals).map(|s| space.var_of_signal(s)).collect();
    // Netlist variable → manager variable (through the STG signal index).
    let var_of: Vec<VarId> = stg_of_var.iter().map(|&s| signal_vars[s]).collect();
    let reachable = space.reachable();
    // The STG's excitation `(up, down)` of each gate's signal.
    let excitations: Vec<(Bdd, Bdd)> = netlist
        .gates
        .iter()
        .map(|gate| space.excitation(stg_of_var[gate.signal.index()].into()))
        .collect();
    let (m, branches) = space.manager_with_branches();
    if let Some(budget) = m.budget() {
        budget.set_stage("netlist-verify");
    }

    // One excitation cluster per gate: next(q) = set ∧ ¬q ∨ q ∧ ¬reset.
    let mut gates = Vec::with_capacity(netlist.gates.len());
    for gate in &netlist.gates {
        m.check_budget()?;
        let stg_signal = stg_of_var[gate.signal.index()];
        let q = m.var(signal_vars[stg_signal]);
        let (set, reset) = match &gate.kind {
            GateKind::Complex { cover } => {
                let f = cover_bdd(m, cover, &var_of);
                (f, m.not(f))
            }
            GateKind::CElement { set, reset } => {
                (cover_bdd(m, set, &var_of), cover_bdd(m, reset, &var_of))
            }
        };
        let excite_up = m.and_not(set, q);
        let excite_down = m.and(reset, q);
        gates.push(GateExcitation {
            signal: stg_signal,
            name: gate.name.clone(),
            excite_up,
            excite_down,
        });
    }

    let mut diagnostics = Vec::new();

    // Projection trace equivalence: per gate, compare the circuit
    // excitations against the STG's enabled edges on the reachable set.
    let mut trace_equivalent = true;
    for (gate, &(stg_up, stg_down)) in gates.iter().zip(&excitations) {
        m.check_budget()?;
        for (stg_side, circuit_side, rising) in
            [(stg_up, gate.excite_up, true), (stg_down, gate.excite_down, false)]
        {
            let differ = m.xor(stg_side, circuit_side);
            let witness = m.and(reachable, differ);
            if !witness.is_false() {
                trace_equivalent = false;
                let circuit_excited = !m.and(witness, circuit_side).is_false();
                diagnostics.push(NetlistDiagnostic::TraceDivergence {
                    signal: gate.name.clone(),
                    rising,
                    circuit_excited,
                    code: witness_code(m, witness, &signal_vars),
                });
                break; // one divergence per gate is enough of a witness
            }
        }
    }

    // Speed independence: for every gate `a` and every branch `u` of a
    // *different* signal, firing `u` from a reachable state must not
    // withdraw `a`'s excitation.  Dummy branches change no code variable
    // and cannot affect a gate excitation, so they are skipped.
    let mut speed_independent = true;
    'gates: for gate in &gates {
        m.check_budget()?;
        for branch in branches {
            match branch.edge {
                Some((signal, _)) if signal.index() != gate.signal => {}
                _ => continue,
            }
            for excite in [gate.excite_up, gate.excite_down] {
                let successor = m.restrict_cube(excite, branch.pinned);
                let withdrawn = m.and_not(excite, successor);
                let co_enabled = m.and(withdrawn, branch.enabled);
                let witness = m.and(reachable, co_enabled);
                if !witness.is_false() {
                    speed_independent = false;
                    diagnostics.push(NetlistDiagnostic::HazardNotPersistent {
                        signal: gate.name.clone(),
                        disabled_by: stg.net().transition_name(branch.trans).to_owned(),
                        code: witness_code(m, witness, &signal_vars),
                    });
                    continue 'gates; // one hazard per gate
                }
            }
        }
    }
    m.check_budget()?;

    Ok(NetlistVerification { states_f64, trace_equivalent, speed_independent, diagnostics })
}

/// Renders a witness state's code (most significant signal first;
/// unconstrained signals read as 0).
fn witness_code(m: &BddManager, witness: Bdd, signal_vars: &[VarId]) -> String {
    let mut bits = vec![false; signal_vars.len()];
    if let Some(lits) = m.one_sat(witness) {
        for (var, value) in lits {
            if let Some(s) = signal_vars.iter().position(|&v| v == var) {
                bits[s] = value;
            }
        }
    }
    bits.iter().rev().map(|&b| if b { '1' } else { '0' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::functions_of;
    use crate::{parse_eqn, synthesize};
    use bdd::Budget;

    fn verify_default(stg: &Stg, netlist: &Netlist, initial_code: u64) -> NetlistVerification {
        verify(stg, netlist, initial_code, &ReachabilityConfig::default()).unwrap()
    }

    #[test]
    fn clean_handshakes_verify_speed_independent_and_trace_equivalent() {
        let model = stg::benchmarks::parallel_handshakes(3);
        let functions = functions_of(&model);
        let net = synthesize(&model, &functions).unwrap();
        let verdict = verify_default(&model, &net, 0);
        assert!(verdict.passed(), "{:?}", verdict.diagnostics);
        assert_eq!(verdict.states_f64, 64.0);
    }

    #[test]
    fn a_shared_space_verifies_like_a_fresh_one() {
        // The flow hands the analysis' space to the check instead of
        // rebuilding it: verdicts and witnesses must not change.
        for model in [stg::benchmarks::arbiter(), stg::benchmarks::parallel_handshakes(3)] {
            let config = ReachabilityConfig::default();
            let mut space = model.try_symbolic_encoded_state_space(0, &config).unwrap();
            let analysis = logic::analyze_space(&model, &mut space).unwrap();
            let net = synthesize(&model, &analysis.functions).unwrap();
            let shared = verify_space(&model, &mut space, &net).unwrap();
            let fresh = verify_default(&model, &net, 0);
            assert_eq!(shared.passed(), fresh.passed(), "{}", model.name());
            assert_eq!(shared.states_f64, fresh.states_f64, "{}", model.name());
            assert_eq!(shared.diagnostics, fresh.diagnostics, "{}", model.name());
        }
    }

    #[test]
    fn solved_vme_read_netlist_closes_the_loop() {
        let solution =
            csc::solve_stg_symbolic(&stg::benchmarks::vme_read(), &csc::SolverConfig::default())
                .unwrap();
        let functions = functions_of(&solution.stg);
        let net = synthesize(&solution.stg, &functions).unwrap();
        let verdict = verify_default(&solution.stg, &net, 0);
        assert!(verdict.passed(), "{:?}", verdict.diagnostics);
        // The re-parsed `.eqn` verifies identically, even though the parser
        // renumbers the variables.
        let parsed = parse_eqn(&net.to_eqn()).unwrap();
        let verdict = verify_default(&solution.stg, &parsed, 0);
        assert!(verdict.passed(), "{:?}", verdict.diagnostics);
    }

    #[test]
    fn a_corrupted_cover_is_caught_as_trace_divergence() {
        let model = stg::benchmarks::parallel_handshakes(2);
        let functions = functions_of(&model);
        let mut net = synthesize(&model, &functions).unwrap();
        // Invert the first gate's cover: ack = !req instead of req.
        let gate = &mut net.gates[0];
        let GateKind::Complex { cover } = &gate.kind else { panic!("complex expected") };
        let mut lits: Vec<(usize, bool)> = Vec::new();
        for cube in cover.cubes() {
            for i in 0..cube.num_vars() {
                match cube.literal(i) {
                    logic::Literal::One => lits.push((i, false)),
                    logic::Literal::Zero => lits.push((i, true)),
                    logic::Literal::DontCare => {}
                }
            }
        }
        gate.kind = GateKind::Complex {
            cover: Cover::from_cubes(vec![logic::Cube::from_literals(net.num_variables, &lits)]),
        };
        let verdict = verify_default(&model, &net, 0);
        assert!(!verdict.trace_equivalent);
        assert!(verdict
            .diagnostics
            .iter()
            .any(|d| matches!(d, NetlistDiagnostic::TraceDivergence { .. })));
    }

    use logic::Cover;

    #[test]
    fn signal_set_mismatches_are_typed() {
        let model = stg::benchmarks::parallel_handshakes(2);
        let functions = functions_of(&model);
        let mut net = synthesize(&model, &functions).unwrap();
        net.signal_names[0] = "bogus".to_owned();
        let err = verify(&model, &net, 0, &ReachabilityConfig::default()).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownSignal { .. }), "{err}");

        let mut net = synthesize(&model, &functions).unwrap();
        net.gates.remove(0);
        let err = verify(&model, &net, 0, &ReachabilityConfig::default()).unwrap_err();
        assert!(matches!(err, NetlistError::MissingGate { .. }), "{err}");
    }

    #[test]
    fn budget_trips_surface_as_typed_errors() {
        let model = stg::benchmarks::parallel_handshakes(6);
        let functions = functions_of(&model);
        let net = synthesize(&model, &functions).unwrap();
        let config = ReachabilityConfig::with_budget(Budget::new(Some(16), None, None));
        let err = verify(&model, &net, 0, &config).unwrap_err();
        assert!(matches!(err, NetlistError::Budget(_)), "{err}");
    }
}
