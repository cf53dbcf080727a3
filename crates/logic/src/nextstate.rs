//! The result and error types shared by the graph-driven and the
//! STG-driven derivation of next-state functions ([`crate::symbolic`]).

use crate::cube::Cover;
use std::error::Error;
use std::fmt;
use stg::SignalId;

/// Errors raised while deriving next-state functions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LogicError {
    /// Two reachable states with the same code require different next values
    /// for the signal — i.e. a CSC conflict; the functions are not
    /// implementable.
    CscViolation {
        /// The signal whose function is ill-defined.
        signal: String,
        /// The shared code of the conflicting states (binary, most
        /// significant signal first).
        code: String,
    },
    /// The graph has more than 64 signals: a [`csc::EncodedGraph`] codes its
    /// states in 64-bit words ([`crate::analyze_space`] has no width limit).
    TooManySignals {
        /// Number of signals present.
        count: usize,
    },
    /// Symbolic reachability hit its iteration cap before converging.
    ReachabilityNotConverged {
        /// Image steps performed before giving up.
        iterations: usize,
    },
    /// The seeded initial signal values do not label the reachable markings
    /// consistently: the encoded space lost markings (some edge is blocked
    /// by a wrong signal value) or codes a marking twice.  Pass the correct
    /// `initial_code` — or fall back to the explicit engine, which infers
    /// the initial values by constraint propagation.
    InitialCodeMismatch {
        /// The first transition (in net order) the seed blocks, as
        /// established by the seed guard
        /// ([`stg::SymbolicStateSpace::check_seed`]); `None` when no edge
        /// is blocked but a marking carries two codes.
        blocked_transition: Option<String>,
        /// Distinct markings covered by the encoded space, rounded.
        coded_markings: u128,
        /// (marking, code) pairs of the encoded space, rounded.
        coded_states: u128,
    },
    /// A resource budget (node ceiling, step ceiling, deadline or
    /// cancellation) tripped during the symbolic derivation.
    Budget(bdd::BudgetExceeded),
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::CscViolation { signal, code } => write!(
                f,
                "signal '{signal}' has no well-defined next-state value for code {code} (CSC violation)"
            ),
            LogicError::TooManySignals { count } => {
                write!(f, "graph-driven logic derivation supports at most 64 signals, got {count}")
            }
            LogicError::ReachabilityNotConverged { iterations } => {
                write!(f, "symbolic reachability did not converge within {iterations} iterations")
            }
            LogicError::InitialCodeMismatch { blocked_transition, coded_markings, coded_states } => {
                let cause = match blocked_transition {
                    Some(t) => format!("transition '{t}' is blocked"),
                    None => "a marking carries two codes".to_owned(),
                };
                write!(
                    f,
                    "the initial signal values label the reachable markings inconsistently: \
                     {cause} ({coded_markings} coded markings, {coded_states} marking/code \
                     pairs); pass the correct initial code"
                )
            }
            LogicError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl From<bdd::BudgetExceeded> for LogicError {
    fn from(value: bdd::BudgetExceeded) -> Self {
        LogicError::Budget(value)
    }
}

impl Error for LogicError {}

/// The ON/OFF/don't-care description of one non-input signal's next-state
/// function, together with its minimized cover.
#[derive(Clone, Debug)]
pub struct SignalFunction {
    /// The signal this function implements.
    pub signal: SignalId,
    /// The signal's name.
    pub name: String,
    /// Codes in which the implementation must drive the signal to 1.
    pub on_set: Cover,
    /// Codes in which the implementation must drive the signal to 0.
    pub off_set: Cover,
    /// The minimized cover of the ON-set (against the OFF-set).
    pub minimized: Cover,
}

impl SignalFunction {
    /// Literal count of the minimized cover.
    pub fn literals(&self) -> usize {
        self.minimized.literal_count()
    }

    /// Number of product terms of the minimized cover.
    pub fn cubes(&self) -> usize {
        self.minimized.len()
    }
}

/// The next-state functions of every non-input signal of a state graph.
#[derive(Clone, Debug)]
pub struct NextStateFunctions {
    /// One entry per non-input signal, sorted by signal id.
    pub functions: Vec<SignalFunction>,
    /// Number of signals (= number of function inputs).
    pub num_variables: usize,
    /// BDD nodes the derivation allocated: the growth of the manager's
    /// arena across it, so a shared space's fixpoint is not counted.
    pub bdd_nodes: usize,
}

impl NextStateFunctions {
    /// Total literal count over all functions (the Table 2 area estimate).
    pub fn total_literals(&self) -> usize {
        self.functions.iter().map(SignalFunction::literals).sum()
    }

    /// Total product-term count over all functions.
    pub fn total_cubes(&self) -> usize {
        self.functions.iter().map(SignalFunction::cubes).sum()
    }

    /// The function of a given signal, if it is a non-input signal.
    ///
    /// `functions` is sorted by signal id (both derivations emit signals in
    /// id order), so this is a binary search, not a linear scan.
    pub fn function_of(&self, signal: SignalId) -> Option<&SignalFunction> {
        debug_assert!(self.functions.windows(2).all(|w| w[0].signal < w[1].signal));
        self.functions
            .binary_search_by_key(&signal, |f| f.signal)
            .ok()
            .map(|index| &self.functions[index])
    }
}

/// Renders a code as a binary string, most significant signal first — the
/// format [`LogicError::CscViolation`] reports.
pub(crate) fn code_pattern(code: u64, num_signals: usize) -> String {
    if num_signals == 0 {
        return "0".to_owned();
    }
    (0..num_signals).rev().map(|i| if (code >> i) & 1 != 0 { '1' } else { '0' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive_next_state_functions;
    use csc::{solve_stg, EncodedGraph, SolverConfig};
    use stg::benchmarks;

    fn graph_of(model: &stg::Stg) -> EncodedGraph {
        EncodedGraph::from_state_graph(&model.state_graph(100_000).unwrap())
    }

    #[test]
    fn handshake_ack_function_is_req() {
        // In a four-phase handshake the next value of ack equals req.
        let graph = graph_of(&benchmarks::handshake());
        let funcs = derive_next_state_functions(&graph).unwrap();
        assert_eq!(funcs.functions.len(), 1);
        let ack = &funcs.functions[0];
        assert_eq!(ack.name, "ack");
        assert_eq!(ack.literals(), 1, "ack follows req with a single literal");
        assert_eq!(funcs.total_literals(), 1);
        assert!(funcs.function_of(ack.signal).is_some());
    }

    #[test]
    fn conflicting_graph_is_rejected_by_both_engines() {
        // The graph-driven derivation and the STG-driven one name the same
        // conflicting signal, the pulser's output y.
        let model = benchmarks::pulser();
        let from_graph = derive_next_state_functions(&graph_of(&model)).unwrap_err();
        let reach = stg::ReachabilityConfig::default();
        let from_stg = crate::analyze_stg_with(&model, 0, &reach).unwrap_err();
        for err in [from_graph, from_stg] {
            assert!(
                matches!(&err, LogicError::CscViolation { signal, .. } if signal == "y"),
                "{err}"
            );
        }
    }

    #[test]
    fn solved_pulser_has_implementable_functions() {
        let solution = solve_stg(&benchmarks::pulser(), &SolverConfig::default()).unwrap();
        let funcs = derive_next_state_functions(&solution.graph).unwrap();
        // Output y plus the inserted csc signals.
        assert_eq!(funcs.functions.len(), 1 + solution.inserted_signals.len());
        assert!(funcs.total_literals() > 0);
        // Every ON-set minterm stays covered and no OFF-set minterm is.
        for f in &funcs.functions {
            for cube in f.on_set.cubes() {
                let bits = (0..funcs.num_variables)
                    .filter(|&i| cube.literal(i) == crate::cube::Literal::One)
                    .fold(0u64, |acc, i| acc | (1 << i));
                assert!(f.minimized.contains_minterm(bits));
            }
            for cube in f.off_set.cubes() {
                let bits = (0..funcs.num_variables)
                    .filter(|&i| cube.literal(i) == crate::cube::Literal::One)
                    .fold(0u64, |acc, i| acc | (1 << i));
                assert!(!f.minimized.contains_minterm(bits));
            }
        }
    }

    #[test]
    fn solved_vme_functions_reference_the_csc_signal() {
        let solution = solve_stg(&benchmarks::vme_read(), &SolverConfig::default()).unwrap();
        let funcs = derive_next_state_functions(&solution.graph).unwrap();
        let csc_index = solution
            .graph
            .signals
            .iter()
            .position(|s| s.name.starts_with("csc"))
            .expect("a csc signal was inserted");
        // At least one implementation function must depend on the inserted
        // state signal — that is the whole point of inserting it.
        let referenced = funcs.functions.iter().any(|f| {
            f.minimized
                .cubes()
                .iter()
                .any(|c| c.literal(csc_index) != crate::cube::Literal::DontCare)
        });
        assert!(referenced);
    }

    #[test]
    fn function_lookup_uses_the_sorted_index() {
        let graph = graph_of(&benchmarks::vme_read());
        // vme_read has CSC conflicts, so look at the solved graph.
        let solution = solve_stg(&benchmarks::vme_read(), &SolverConfig::default()).unwrap();
        let funcs = derive_next_state_functions(&solution.graph).unwrap();
        for f in &funcs.functions {
            let found = funcs.function_of(f.signal).expect("every derived signal resolves");
            assert_eq!(found.name, f.name);
        }
        // Input signals have no function.
        let input = graph
            .signals
            .iter()
            .position(|s| s.kind == stg::SignalKind::Input)
            .expect("vme_read has inputs");
        assert!(funcs.function_of(SignalId::from(input)).is_none());
    }

    #[test]
    fn code_patterns_render_msb_first() {
        assert_eq!(code_pattern(0b0110, 4), "0110");
        assert_eq!(code_pattern(0b1, 3), "001");
        assert_eq!(code_pattern(0, 0), "0");
    }
}
