//! Area estimation and speed-independence (output persistency) checks,
//! reported through typed diagnostics.

use crate::nextstate::{LogicError, NextStateFunctions};
use crate::symbolic::derive_next_state_functions;
use csc::EncodedGraph;
use std::fmt;
use stg::SignalKind;
use ts::EventId;

/// Area of one signal's implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalArea {
    /// Signal name.
    pub name: String,
    /// Literal count of the minimized next-state cover.
    pub literals: usize,
    /// Product-term count of the minimized cover.
    pub cubes: usize,
}

/// Literal-count area report for a whole state graph — the metric reported
/// in the "area" columns of Table 2.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AreaReport {
    /// Per-signal breakdown (non-input signals only).
    pub signals: Vec<SignalArea>,
    /// Sum of all literal counts.
    pub total_literals: usize,
    /// Sum of all product-term counts.
    pub total_cubes: usize,
    /// BDD nodes the derivation allocated: the growth of the manager's
    /// arena across it, so a shared space's fixpoint is not counted.
    pub bdd_nodes: usize,
}

/// One implementability problem found on an encoded graph, in the style of
/// `csc::VerifyDiagnostic`: a typed category that tests and reports can
/// match on instead of parsing strings.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LogicDiagnostic {
    /// A non-input signal can be disabled while excited: no hazard-free
    /// speed-independent implementation exists.
    OutputNotPersistent {
        /// The non-persistent signal.
        signal: String,
        /// The event that disables it.
        disabled_by: String,
    },
    /// The signal's next-state function is ill-defined because two states
    /// share the reported code but demand different next values.
    NotImplementable {
        /// The signal whose function is ill-defined.
        signal: String,
        /// The conflicting code (binary, most significant signal first).
        code: String,
    },
    /// Next-state derivation failed before producing functions (e.g. a
    /// reachability fixpoint that did not converge).
    DerivationFailed {
        /// The underlying error, rendered.
        reason: String,
    },
}

impl fmt::Display for LogicDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicDiagnostic::OutputNotPersistent { signal, disabled_by } => {
                write!(f, "output '{signal}' is not persistent (disabled by {disabled_by})")
            }
            LogicDiagnostic::NotImplementable { signal, code } => {
                write!(f, "signal '{signal}' is not implementable: CSC conflict on code {code}")
            }
            LogicDiagnostic::DerivationFailed { reason } => {
                write!(f, "logic derivation failed: {reason}")
            }
        }
    }
}

/// Converts a derivation error into its diagnostic category.
impl From<&LogicError> for LogicDiagnostic {
    fn from(error: &LogicError) -> Self {
        match error {
            LogicError::CscViolation { signal, code } => {
                LogicDiagnostic::NotImplementable { signal: signal.clone(), code: code.clone() }
            }
            other => LogicDiagnostic::DerivationFailed { reason: other.to_string() },
        }
    }
}

/// Estimates the implementation area of a CSC-satisfying encoded graph as
/// the total literal count of the minimized next-state functions.
///
/// # Errors
///
/// Returns [`LogicError::CscViolation`] when the graph does not satisfy CSC.
pub fn estimate_area(graph: &EncodedGraph) -> Result<AreaReport, LogicError> {
    Ok(area_of_functions(&derive_next_state_functions(graph)?))
}

/// Folds derived functions into an [`AreaReport`] (shared by the graph- and
/// STG-driven pipelines).
pub fn area_of_functions(functions: &NextStateFunctions) -> AreaReport {
    let signals: Vec<SignalArea> = functions
        .functions
        .iter()
        .map(|f| SignalArea { name: f.name.clone(), literals: f.literals(), cubes: f.cubes() })
        .collect();
    let total_literals = signals.iter().map(|s| s.literals).sum();
    let total_cubes = signals.iter().map(|s| s.cubes).sum();
    AreaReport { signals, total_literals, total_cubes, bdd_nodes: functions.bdd_nodes }
}

/// Returns one typed diagnostic per non-input signal that is not persistent
/// in the state graph: some other event can disable an excited output,
/// which makes a hazard-free speed-independent implementation impossible.
pub fn output_persistency_violations(graph: &EncodedGraph) -> Vec<LogicDiagnostic> {
    let mut violations = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    for e in 0..graph.ts.num_events() {
        let event = EventId::from(e);
        let Some((signal, _)) = graph.event_edges[e] else { continue };
        if graph.signals[signal.index()].kind == SignalKind::Input {
            continue;
        }
        if let Some(violation) = graph.ts.persistency_violation(event) {
            let name = graph.signals[signal.index()].name.clone();
            if !seen.contains(&name) {
                seen.push(name.clone());
                violations.push(LogicDiagnostic::OutputNotPersistent {
                    signal: name,
                    disabled_by: graph.ts.event_name(violation.disabled_by).to_owned(),
                });
            }
        }
    }
    violations
}

/// All implementability diagnostics of an encoded graph: persistency
/// violations plus the derivation outcome.  An empty result means the graph
/// has hazard-free, well-defined logic.
pub fn logic_diagnostics(graph: &EncodedGraph) -> Vec<LogicDiagnostic> {
    let mut diagnostics = output_persistency_violations(graph);
    if let Err(error) = derive_next_state_functions(graph) {
        diagnostics.push(LogicDiagnostic::from(&error));
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc::{solve_stg, SolverConfig};
    use stg::benchmarks;

    #[test]
    fn handshake_area_is_minimal() {
        let graph =
            EncodedGraph::from_state_graph(&benchmarks::handshake().state_graph(100).unwrap());
        let report = estimate_area(&graph).unwrap();
        assert_eq!(report.total_literals, 1);
        assert_eq!(report.signals.len(), 1);
        assert_eq!(report.signals[0].name, "ack");
        assert!(output_persistency_violations(&graph).is_empty());
        assert!(logic_diagnostics(&graph).is_empty());
    }

    #[test]
    fn area_grows_with_problem_size() {
        let config = SolverConfig::default();
        let small = estimate_area(&solve_stg(&benchmarks::sequencer(2), &config).unwrap().graph)
            .unwrap()
            .total_literals;
        let large = estimate_area(&solve_stg(&benchmarks::sequencer(5), &config).unwrap().graph)
            .unwrap()
            .total_literals;
        assert!(large > small, "seq5 ({large}) must need more literals than seq2 ({small})");
    }

    #[test]
    fn unsolved_graph_cannot_be_estimated() {
        let graph =
            EncodedGraph::from_state_graph(&benchmarks::vme_read().state_graph(10_000).unwrap());
        assert!(estimate_area(&graph).is_err());
        // The failure surfaces as a typed NotImplementable diagnostic.
        let diagnostics = logic_diagnostics(&graph);
        assert!(
            diagnostics.iter().any(|d| matches!(d, LogicDiagnostic::NotImplementable { .. })),
            "{diagnostics:?}"
        );
        for d in &diagnostics {
            assert!(!d.to_string().is_empty());
        }
    }

    #[test]
    fn solved_graphs_are_output_persistent() {
        let config = SolverConfig::default();
        for model in [benchmarks::pulser(), benchmarks::vme_read()] {
            let solution = solve_stg(&model, &config).unwrap();
            assert!(
                output_persistency_violations(&solution.graph).is_empty(),
                "{} lost output persistency",
                model.name()
            );
        }
    }
}
