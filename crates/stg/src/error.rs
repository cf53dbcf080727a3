//! Error type for STG construction and analysis.

use bdd::BudgetExceeded;
use petri::PetriError;
use std::error::Error;
use std::fmt;

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
    /// Symbolic reachability hit its iteration cap before reaching a
    /// fixpoint: the computed set is truncated and must not be used as "the
    /// reachable states".
    NotConverged {
        /// Image rounds performed before giving up.
        iterations: usize,
    },
    /// The seed of a code-encoded state space labels the reachable markings
    /// inconsistently ([`crate::SymbolicStateSpace::check_seed`]).
    SeedMismatch {
        /// The first transition (in net order) the seed blocks: enabled in
        /// a covered marking, its firing leaves the covered markings.
        /// `None` when no edge is blocked but a marking carries two codes.
        blocked_transition: Option<String>,
        /// Distinct markings the encoded space covers, rounded.
        coded_markings: u128,
        /// (marking, code) pairs of the encoded space, rounded.
        coded_states: u128,
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
            StgError::NotConverged { iterations } => {
                write!(f, "symbolic reachability did not converge within {iterations} iterations")
            }
            StgError::SeedMismatch { blocked_transition: Some(t), coded_markings, .. } => {
                write!(f, "the seed blocks '{t}', leaving {coded_markings} markings coded")
            }
            StgError::SeedMismatch { blocked_transition: None, coded_states, .. } => {
                write!(f, "the seed gives a marking two codes ({coded_states} coded states)")
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
