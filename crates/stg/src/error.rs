//! Error type for STG construction and analysis.

use crate::signal::SignalId;
use bdd::BudgetExceeded;
use petri::PetriError;
use std::error::Error;
use std::fmt;

/// An edge the seed of a code-encoded state space bars: a reachable state
/// marks its transition's preset while its code already holds the edge's
/// post-value ([`crate::SymbolicStateSpace::check_seed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarredEdge {
    /// The signal the edge switches.
    pub signal: SignalId,
    /// The first barred transition of the signal, in net order.
    pub transition: String,
    /// The marked places of one reachable state the edge is barred in.
    pub marking: String,
}

/// Errors raised while building or analysing a Signal Transition Graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StgError {
    /// A problem in the underlying Petri net.
    Net(PetriError),
    /// The STG is not consistently labelled: along some firing sequence a
    /// signal would have to be both 0 and 1 in the same marking.
    Inconsistent {
        /// Name of the offending signal.
        signal: String,
        /// Name of the state-graph state where the contradiction appeared.
        state: String,
    },
    /// The STG has more signals than the *explicit* state-graph engine
    /// supports (explicit codes are packed in a 64-bit word; the symbolic
    /// engine has no such limit).
    TooManySignals {
        /// Number of signals in the STG.
        count: usize,
    },
    /// A `.g` file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        message: String,
    },
    /// A signal or transition name was referenced but never declared.
    UnknownName {
        /// The undeclared name.
        name: String,
    },
    /// The seed of a code-encoded state space bars edges its reachable
    /// markings enable ([`crate::SymbolicStateSpace::check_seed`]): each
    /// barred signal starts at the wrong value.
    SeedMismatch {
        /// One witness per barred signal, in signal id order.
        barred: Vec<BarredEdge>,
    },
    /// A resource budget (node ceiling, step ceiling, deadline or
    /// cancellation) tripped during a symbolic analysis.
    Budget(BudgetExceeded),
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::Net(e) => write!(f, "petri net error: {e}"),
            StgError::Inconsistent { signal, state } => {
                write!(f, "inconsistent labelling: signal '{signal}' has contradictory values in state {state}")
            }
            StgError::TooManySignals { count } => {
                write!(
                    f,
                    "the explicit state-graph engine supports at most 64 signals, the STG has \
                     {count} (use the symbolic engine for wider designs)"
                )
            }
            StgError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            StgError::UnknownName { name } => write!(f, "unknown signal or transition '{name}'"),
            StgError::SeedMismatch { barred } => {
                let edges: Vec<String> =
                    barred.iter().map(|b| format!("'{}' in {}", b.transition, b.marking)).collect();
                write!(f, "the initial signal values bar {}", edges.join(", "))
            }
            StgError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl Error for StgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StgError::Net(e) => Some(e),
            StgError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PetriError> for StgError {
    fn from(value: PetriError) -> Self {
        StgError::Net(value)
    }
}

impl From<BudgetExceeded> for StgError {
    fn from(value: BudgetExceeded) -> Self {
        StgError::Budget(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = StgError::Inconsistent { signal: "lds".into(), state: "m17".into() };
        assert!(e.to_string().contains("lds"));
        assert!(e.to_string().contains("m17"));
        let p = StgError::Parse { line: 12, message: "missing .graph".into() };
        assert!(p.to_string().contains("12"));
        let n: StgError = PetriError::EmptyNet.into();
        assert!(n.source().is_some());
    }
}
