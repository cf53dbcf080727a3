//! Gate-level back-end of the state-encoding toolkit.
//!
//! The synthesis flow ends in circuits, not covers: a solved, CSC-satisfying
//! specification is only correct if the *implemented gates* still realise the
//! specified behaviour without hazards.  This crate closes that loop:
//!
//! * [`synthesize`] turns the minimized next-state covers
//!   ([`logic::NextStateFunctions`]) into a [`Netlist`] of **complex gates**
//!   (one sum-of-products per combinational output) and **generalized
//!   C-elements** (a set cover and a reset cover driving a state-holding
//!   element) — the two implementation styles of the source paper.  A signal
//!   whose minimized cover depends on the signal itself needs state holding
//!   and becomes a C-element; the set/reset covers are split from the ON/OFF
//!   sets with interval ISOP so every don't-care code is absorbed.
//! * [`Netlist::to_eqn`] and [`Netlist::to_verilog`] emit the circuit as a
//!   line-based `.eqn` description (parseable back via [`parse_eqn`]) and as
//!   structural Verilog.
//! * [`verify`] (or [`verify_space`], on an encoded state space the caller
//!   already holds) replays the **emitted netlist** — not the covers it
//!   came from — against the source STG on the symbolic reachability engine:
//!   every gate's excitation (`set ∧ ¬q ∨ q ∧ ¬reset`) must coincide with
//!   the STG's enabled edges in every reachable state (projection trace
//!   equivalence), and no other transition may withdraw an excitation
//!   before the gate fires (speed independence).  Failures carry typed,
//!   witness-bearing diagnostics; resource ceilings surface as typed budget
//!   errors, never as a hang or a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eqn;
mod verify;

pub use eqn::{parse_eqn, EqnParseError};
pub use verify::{verify, verify_space, NetlistDiagnostic, NetlistVerification};

use bdd::{Bdd, BddManager, VarId};
use logic::{Cover, Cube, Literal, NextStateFunctions};
use std::fmt;
use stg::{SignalId, Stg};

/// The implementation style of one gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateKind {
    /// A combinational complex gate: the output is the sum-of-products of
    /// `cover` over the signal values.
    Complex {
        /// The minimized ON-cover implemented by the gate.
        cover: Cover,
    },
    /// A generalized C-element: `set` drives the output to 1, `reset`
    /// drives it to 0, and the element holds its value when neither cover
    /// is active.
    CElement {
        /// The set (turn-on) cover.
        set: Cover,
        /// The reset (turn-off) cover.
        reset: Cover,
    },
}

/// One gate of the netlist: the implementation of a non-input signal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// The signal this gate drives (index into the netlist's signal space).
    pub signal: SignalId,
    /// The driven signal's name.
    pub name: String,
    /// The implementation style and its cover(s).
    pub kind: GateKind,
}

impl Gate {
    /// Total literal count of the gate's cover(s).
    pub fn literals(&self) -> usize {
        match &self.kind {
            GateKind::Complex { cover } => cover.literal_count(),
            GateKind::CElement { set, reset } => set.literal_count() + reset.literal_count(),
        }
    }

    /// Whether the gate is a generalized C-element.
    pub fn is_c_element(&self) -> bool {
        matches!(self.kind, GateKind::CElement { .. })
    }
}

/// A gate-level implementation of a specification: one gate per non-input
/// signal, over a shared signal variable space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Netlist {
    /// Model name (the STG's name).
    pub name: String,
    /// Names of all signals, indexed by cover variable.
    pub signal_names: Vec<String>,
    /// Variable indices of the input signals (driven by the environment).
    pub inputs: Vec<usize>,
    /// The gates, in signal order.
    pub gates: Vec<Gate>,
    /// Width of the cover variable space (= number of signals).
    pub num_variables: usize,
}

impl Netlist {
    /// Total literal count over all gates.
    pub fn literals(&self) -> usize {
        self.gates.iter().map(Gate::literals).sum()
    }

    /// Number of generalized C-elements.
    pub fn c_elements(&self) -> usize {
        self.gates.iter().filter(|g| g.is_c_element()).count()
    }

    /// The gate driving the named signal, if any.
    pub fn gate_of(&self, name: &str) -> Option<&Gate> {
        self.gates.iter().find(|g| g.name == name)
    }
}

/// Errors of netlist construction and verification.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// The functions' variable space does not match the specification's
    /// signal count.
    WidthMismatch {
        /// Signals of the specification.
        signals: usize,
        /// Variables of the next-state functions.
        variables: usize,
    },
    /// A netlist signal name does not appear in the specification (or vice
    /// versa), so the two cannot be compared or verified against each other.
    UnknownSignal {
        /// The offending signal name.
        name: String,
    },
    /// A non-input signal of the specification has no driving gate.
    MissingGate {
        /// The undriven signal.
        signal: String,
    },
    /// Symbolic reachability hit its iteration cap before converging.
    NotConverged {
        /// Image steps performed before giving up.
        iterations: usize,
    },
    /// A resource budget (node ceiling, step ceiling, deadline or
    /// cancellation) tripped during verification.
    Budget(bdd::BudgetExceeded),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::WidthMismatch { signals, variables } => write!(
                f,
                "next-state functions span {variables} variables but the specification has \
                 {signals} signals"
            ),
            NetlistError::UnknownSignal { name } => {
                write!(f, "signal '{name}' does not exist on both sides of the comparison")
            }
            NetlistError::MissingGate { signal } => {
                write!(f, "non-input signal '{signal}' has no driving gate")
            }
            NetlistError::NotConverged { iterations } => {
                write!(f, "symbolic reachability did not converge within {iterations} iterations")
            }
            NetlistError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetlistError {}

impl From<bdd::BudgetExceeded> for NetlistError {
    fn from(value: bdd::BudgetExceeded) -> Self {
        NetlistError::Budget(value)
    }
}

/// Synthesizes a gate netlist from an STG and its derived next-state
/// functions.
///
/// # Errors
///
/// [`NetlistError::WidthMismatch`] when the functions were derived from a
/// different signal space than `stg`'s.
pub fn synthesize(stg: &Stg, functions: &NextStateFunctions) -> Result<Netlist, NetlistError> {
    let signals: Vec<(String, bool)> =
        stg.signals().iter().map(|s| (s.name.clone(), !s.kind.is_non_input())).collect();
    synthesize_named(stg.name(), &signals, functions)
}

/// [`synthesize`] from bare signal descriptors `(name, is_input)` — the
/// entry point for callers that hold an encoded state graph instead of an
/// STG.
///
/// # Errors
///
/// [`NetlistError::WidthMismatch`] when `functions.num_variables` differs
/// from `signals.len()`.
pub fn synthesize_named(
    name: &str,
    signals: &[(String, bool)],
    functions: &NextStateFunctions,
) -> Result<Netlist, NetlistError> {
    let n = signals.len();
    if functions.num_variables != n {
        return Err(NetlistError::WidthMismatch { signals: n, variables: functions.num_variables });
    }
    let identity: Vec<VarId> = (0..n).map(|i| i as VarId).collect();
    let mut gates = Vec::with_capacity(functions.functions.len());
    for function in &functions.functions {
        let mut m = BddManager::with_capacity(n.max(1), 1 << 10);
        let on = cover_bdd(&mut m, &function.on_set, &identity);
        let off = cover_bdd(&mut m, &function.off_set, &identity);
        let minimized = cover_bdd(&mut m, &function.minimized, &identity);
        let own = function.signal.index() as VarId;
        // A cover that feeds the gate's own output back describes a
        // state-holding element; split it into set/reset covers.  A cover
        // free of its own output is a plain combinational gate.
        let kind = if m.support(minimized).contains(&own) {
            let a = m.var(own);
            let not_a = m.not(a);
            let on_or_off = m.or(on, off);
            let dc = m.not(on_or_off);
            // Set must fire exactly on the rising excitations and may
            // extend into the don't-care codes (never into OFF); reset
            // mirrors it on the falling side.  This keeps `set ∧ reset`
            // empty on every reachable code by construction.
            let set_lower = m.and(on, not_a);
            let set_upper = m.or(on, dc);
            let set = m.isop(set_lower, set_upper);
            let reset_lower = m.and(off, a);
            let reset_upper = m.or(off, dc);
            let reset = m.isop(reset_lower, reset_upper);
            GateKind::CElement {
                set: isop_cover(&set.cubes, n),
                reset: isop_cover(&reset.cubes, n),
            }
        } else {
            GateKind::Complex { cover: function.minimized.clone() }
        };
        gates.push(Gate { signal: function.signal, name: function.name.clone(), kind });
    }
    let inputs = (0..n).filter(|&i| signals[i].1).collect();
    Ok(Netlist {
        name: name.to_owned(),
        signal_names: signals.iter().map(|(name, _)| name.clone()).collect(),
        inputs,
        gates,
        num_variables: n,
    })
}

/// Semantic comparison of two netlists: every gate present in either must
/// exist in both (matched by name), with the same implementation style and
/// canonically equal covers.  Variable spaces are matched by signal *name*,
/// so a parsed `.eqn` netlist compares against its source even though the
/// text reorders the variables.
///
/// # Errors
///
/// [`NetlistError::UnknownSignal`] when a cover mentions a signal the other
/// netlist does not declare.
pub fn equivalent(a: &Netlist, b: &Netlist) -> Result<bool, NetlistError> {
    if a.gates.len() != b.gates.len() {
        return Ok(false);
    }
    let n = a.num_variables;
    let mut m = BddManager::with_capacity(n.max(1), 1 << 12);
    let identity: Vec<VarId> = (0..n).map(|i| i as VarId).collect();
    // b-variable → a-variable translation, by name.
    let mut b_to_a = Vec::with_capacity(b.num_variables);
    for name in &b.signal_names {
        match a.signal_names.iter().position(|an| an == name) {
            Some(index) => b_to_a.push(index as VarId),
            None => return Err(NetlistError::UnknownSignal { name: name.clone() }),
        }
    }
    for gate in &a.gates {
        let Some(other) = b.gate_of(&gate.name) else {
            return Err(NetlistError::UnknownSignal { name: gate.name.clone() });
        };
        let same = match (&gate.kind, &other.kind) {
            (GateKind::Complex { cover: ca }, GateKind::Complex { cover: cb }) => {
                cover_bdd(&mut m, ca, &identity) == cover_bdd(&mut m, cb, &b_to_a)
            }
            (
                GateKind::CElement { set: sa, reset: ra },
                GateKind::CElement { set: sb, reset: rb },
            ) => {
                cover_bdd(&mut m, sa, &identity) == cover_bdd(&mut m, sb, &b_to_a)
                    && cover_bdd(&mut m, ra, &identity) == cover_bdd(&mut m, rb, &b_to_a)
            }
            _ => false,
        };
        if !same {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Builds the BDD of a cover, mapping cover variable `i` to manager
/// variable `var_of[i]`.
pub(crate) fn cover_bdd(m: &mut BddManager, cover: &Cover, var_of: &[VarId]) -> Bdd {
    let mut f = m.bottom();
    for cube in cover.cubes() {
        let lits: Vec<(VarId, bool)> = (0..cube.num_vars())
            .filter_map(|i| match cube.literal(i) {
                Literal::One => Some((var_of[i], true)),
                Literal::Zero => Some((var_of[i], false)),
                Literal::DontCare => None,
            })
            .collect();
        let c = m.cube_of(&lits);
        f = m.or(f, c);
    }
    f
}

/// Maps ISOP cubes (whose variables are already signal indices) to a
/// [`Cover`].
fn isop_cover(cubes: &[Vec<(VarId, bool)>], num_vars: usize) -> Cover {
    cubes
        .iter()
        .map(|lits| {
            let mapped: Vec<(usize, bool)> =
                lits.iter().map(|&(var, value)| (var as usize, value)).collect();
            Cube::from_literals(num_vars, &mapped)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The symbolic pipeline's functions for `model`, seeded at 0.
    pub(crate) fn functions_of(model: &stg::Stg) -> logic::NextStateFunctions {
        logic::analyze_stg_with(model, 0, &stg::ReachabilityConfig::default()).unwrap().functions
    }

    #[test]
    fn handshake_acks_become_single_literal_complex_gates() {
        let model = stg::benchmarks::parallel_handshakes(2);
        let functions = functions_of(&model);
        let net = synthesize(&model, &functions).unwrap();
        assert_eq!(net.gates.len(), 2);
        assert_eq!(net.inputs.len(), 2);
        assert_eq!(net.c_elements(), 0, "ack = req needs no state holding");
        assert_eq!(net.literals(), 2);
        for gate in &net.gates {
            assert!(matches!(&gate.kind, GateKind::Complex { cover } if cover.len() == 1));
        }
    }

    #[test]
    fn solved_vme_read_yields_state_holding_gates() {
        let solution =
            csc::solve_stg_symbolic(&stg::benchmarks::vme_read(), &csc::SolverConfig::default())
                .unwrap();
        let functions = functions_of(&solution.stg);
        let net = synthesize(&solution.stg, &functions).unwrap();
        assert_eq!(net.gates.len(), functions.functions.len());
        assert!(net.c_elements() > 0, "the VME controller needs state-holding elements");
        // Set and reset covers never overlap on any code that is not a
        // don't-care: spot-check by BDD on each C-element.
        let n = net.num_variables;
        let identity: Vec<VarId> = (0..n).map(|i| i as VarId).collect();
        for gate in &net.gates {
            if let GateKind::CElement { set, reset } = &gate.kind {
                let mut m = BddManager::with_capacity(n, 1 << 10);
                let s = cover_bdd(&mut m, set, &identity);
                let r = cover_bdd(&mut m, reset, &identity);
                let function = functions.function_of(gate.signal).unwrap();
                let on = cover_bdd(&mut m, &function.on_set, &identity);
                let off = cover_bdd(&mut m, &function.off_set, &identity);
                // set ⊇ ON ∧ ¬a, set ∩ OFF = ∅; dually for reset.
                let a = m.var(gate.signal.index() as VarId);
                let rising = m.and_not(on, a);
                assert!(m.implies(rising, s), "{}: set misses a rising excitation", gate.name);
                assert!(m.and(s, off).is_false(), "{}: set fires in OFF", gate.name);
                let falling = m.and(off, a);
                assert!(m.implies(falling, r), "{}: reset misses a falling excitation", gate.name);
                assert!(m.and(r, on).is_false(), "{}: reset fires in ON", gate.name);
            }
        }
    }

    #[test]
    fn width_mismatch_is_typed() {
        let model = stg::benchmarks::handshake();
        let functions = functions_of(&stg::benchmarks::parallel_handshakes(2));
        let err = synthesize(&model, &functions).unwrap_err();
        assert!(matches!(err, NetlistError::WidthMismatch { signals: 2, variables: 4 }), "{err}");
    }
}
