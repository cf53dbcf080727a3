//! Next-state function extraction.
//!
//! Two derivation engines share the same result types:
//!
//! * [`LogicStrategy::Explicit`] — the historical per-state loop: every
//!   reachable state contributes one minterm to the ON- or OFF-set of each
//!   non-input signal, and the covers are minimized by the cube-level
//!   expand/irredundant passes of [`crate::minimize_cover`].
//! * [`LogicStrategy::Symbolic`] (the default) — ON/OFF sets are built as
//!   BDDs and the covers are extracted by interval ISOP
//!   ([`bdd::BddManager::isop`]), so don't-care codes are absorbed for free
//!   and the quadratic minterm passes disappear (see [`crate::symbolic`]).
//!
//! Both produce identical ON/OFF semantics; the symbolic engine also runs
//! directly from an [`stg::Stg`] through the symbolic reachability engine
//! ([`crate::analyze_space`]), which lifts the explicit
//! path's 64-signal / explicit-state-count limits entirely.

use crate::cube::{Cover, Cube};
use bdd::FxHashSet;
use csc::EncodedGraph;
use std::error::Error;
use std::fmt;
use stg::{Polarity, SignalId};
use ts::StateId;

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
    /// The graph has more than 64 signals (explicit derivation only; the
    /// symbolic strategy has no width limit).
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
                write!(f, "explicit logic derivation supports at most 64 signals, got {count}")
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

/// Which engine derives and minimizes the next-state functions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum LogicStrategy {
    /// Per-state minterm enumeration plus the cube-level minimizer.  Capped
    /// at 64 signals and linear in the explicit state count.
    Explicit,
    /// BDD ON/OFF sets plus ISOP cover extraction.  The default: identical
    /// semantics, never more literals on the benchmark suite, and no
    /// explicit enumeration of the state space.
    #[default]
    Symbolic,
}

impl fmt::Display for LogicStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicStrategy::Explicit => write!(f, "explicit"),
            LogicStrategy::Symbolic => write!(f, "symbolic"),
        }
    }
}

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
    /// The engine that produced the covers.
    pub strategy: LogicStrategy,
    /// BDD nodes the derivation allocated: the growth of the manager's
    /// arena across it, so a shared space's fixpoint is not counted (0 for
    /// the explicit engine).
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
    /// `functions` is sorted by signal id (both engines emit signals in
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

/// Derives and minimizes the next-state function of every non-input signal
/// with the default (symbolic) strategy.
///
/// The *next value* of signal `a` in state `s` is 1 exactly when `a` is
/// rising in `s` or stable at 1 (i.e. not falling); the function maps the
/// state's *code* to that value, which is well-defined precisely when CSC
/// holds.
///
/// # Errors
///
/// Returns [`LogicError::CscViolation`] when two states with equal codes
/// need different next values.
pub fn derive_next_state_functions(graph: &EncodedGraph) -> Result<NextStateFunctions, LogicError> {
    derive_next_state_functions_with(graph, LogicStrategy::default())
}

/// [`derive_next_state_functions`] with an explicit engine choice.
///
/// # Errors
///
/// Returns [`LogicError::CscViolation`] when CSC does not hold and
/// [`LogicError::TooManySignals`] for more than 64 signals under
/// [`LogicStrategy::Explicit`].
pub fn derive_next_state_functions_with(
    graph: &EncodedGraph,
    strategy: LogicStrategy,
) -> Result<NextStateFunctions, LogicError> {
    match strategy {
        LogicStrategy::Explicit => derive_explicit(graph),
        LogicStrategy::Symbolic => crate::symbolic::derive_from_graph(graph),
    }
}

/// The required next value of every signal in `state`, as (known-mask,
/// value-mask) over the signal bits: a known bit means some enabled edge of
/// that signal dictates the value, otherwise the signal holds its current
/// value.
pub(crate) fn next_value_masks(graph: &EncodedGraph, state: StateId) -> (u64, u64) {
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

fn derive_explicit(graph: &EncodedGraph) -> Result<NextStateFunctions, LogicError> {
    let num_signals = graph.num_signals();
    if num_signals > 64 {
        return Err(LogicError::TooManySignals { count: num_signals });
    }

    // One successor scan per state yields the next-value masks for every
    // signal at once; the per-signal loop below only reads bits.
    let state_masks: Vec<(u64, u64)> =
        (0..graph.num_states()).map(|s| next_value_masks(graph, StateId::from(s))).collect();

    let mut functions = Vec::new();
    for signal_index in 0..num_signals {
        let signal = SignalId::from(signal_index);
        if !graph.signals[signal_index].kind.is_non_input() {
            continue;
        }
        let bit = 1u64 << signal_index;
        let mut on_codes: FxHashSet<u64> = FxHashSet::default();
        let mut off_codes: FxHashSet<u64> = FxHashSet::default();
        for (s, &(known, value)) in state_masks.iter().enumerate() {
            let code = graph.code(StateId::from(s));
            let next = if known & bit != 0 { value & bit != 0 } else { code & bit != 0 };
            let bucket = if next { &mut on_codes } else { &mut off_codes };
            bucket.insert(code);
        }
        // CSC check: a code demanded by both buckets is a conflict.  Take
        // the smallest witness so the report does not depend on hash order.
        if let Some(&code) =
            on_codes.iter().filter(|code| off_codes.contains(code)).min_by_key(|&&c| c)
        {
            return Err(LogicError::CscViolation {
                signal: graph.signals[signal_index].name.clone(),
                code: code_pattern(code, num_signals),
            });
        }
        let mut on_sorted: Vec<u64> = on_codes.into_iter().collect();
        on_sorted.sort_unstable();
        let mut off_sorted: Vec<u64> = off_codes.into_iter().collect();
        off_sorted.sort_unstable();
        let on_set: Cover = on_sorted.iter().map(|&c| Cube::minterm(num_signals, c)).collect();
        let off_set: Cover = off_sorted.iter().map(|&c| Cube::minterm(num_signals, c)).collect();
        let minimized = crate::minimize::minimize_cover(&on_set, &off_set);
        functions.push(SignalFunction {
            signal,
            name: graph.signals[signal_index].name.clone(),
            on_set,
            off_set,
            minimized,
        });
    }
    Ok(NextStateFunctions {
        functions,
        num_variables: num_signals,
        strategy: LogicStrategy::Explicit,
        bdd_nodes: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc::{solve_stg, SolverConfig};
    use stg::benchmarks;

    fn graph_of(model: &stg::Stg) -> EncodedGraph {
        EncodedGraph::from_state_graph(&model.state_graph(100_000).unwrap())
    }

    #[test]
    fn handshake_ack_function_is_req() {
        // In a four-phase handshake the next value of ack equals req, under
        // either engine.
        let graph = graph_of(&benchmarks::handshake());
        for strategy in [LogicStrategy::Explicit, LogicStrategy::Symbolic] {
            let funcs = derive_next_state_functions_with(&graph, strategy).unwrap();
            assert_eq!(funcs.functions.len(), 1);
            let ack = &funcs.functions[0];
            assert_eq!(ack.name, "ack");
            assert_eq!(ack.literals(), 1, "ack follows req with a single literal ({strategy})");
            assert_eq!(funcs.total_literals(), 1);
            assert!(funcs.function_of(ack.signal).is_some());
            assert_eq!(funcs.strategy, strategy);
        }
    }

    #[test]
    fn conflicting_graph_is_rejected_by_both_engines() {
        let graph = graph_of(&benchmarks::pulser());
        for strategy in [LogicStrategy::Explicit, LogicStrategy::Symbolic] {
            let err = derive_next_state_functions_with(&graph, strategy).unwrap_err();
            assert!(matches!(err, LogicError::CscViolation { .. }), "{strategy}");
            assert!(err.to_string().contains('y'), "{strategy}: {err}");
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
