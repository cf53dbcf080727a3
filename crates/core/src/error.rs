//! Error type for the CSC solver.

use bdd::BudgetExceeded;
use std::error::Error;
use std::fmt;

/// Errors raised by the CSC resolution flow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CscError {
    /// The STG or state graph could not be built.
    Stg(stg::StgError),
    /// No valid insertion candidate could be found for the remaining
    /// conflicts (e.g. every candidate would delay an input signal).
    NoCandidate {
        /// Number of conflict pairs still unresolved.
        remaining_conflicts: usize,
    },
    /// The solver hit its limit on inserted signals before reaching CSC.
    SignalLimitReached {
        /// The configured limit.
        limit: usize,
        /// Conflicts still unresolved at that point.
        remaining_conflicts: usize,
    },
    /// A selected insertion turned out to produce an inconsistent encoding
    /// (this indicates an invalid I-partition and is reported rather than
    /// silently accepted).
    InconsistentInsertion {
        /// Name of the signal being inserted.
        signal: String,
    },
    /// The event insertion itself failed.
    Insertion(ts::TsError),
    /// A symbolic reachability fixpoint hit its iteration cap before
    /// converging (symbolic solver only).
    NotConverged {
        /// Image rounds performed before giving up.
        iterations: usize,
    },
    /// The symbolic solver's seed (`initial_code`) does not label the
    /// reachable markings consistently: some edge is blocked by a wrong
    /// signal value, so markings are lost or doubly coded.
    SeedMismatch {
        /// The first transition (in net order) the seed blocks, as
        /// established by the seed guard
        /// ([`stg::SymbolicStateSpace::check_seed`]); `None` when no edge
        /// is blocked but a marking carries two codes.
        blocked_transition: Option<String>,
        /// States of the encoded (marking, code) fixpoint.
        coded_states: usize,
    },
    /// A resource budget (node ceiling, step ceiling, deadline or
    /// cancellation) tripped during the symbolic solve.
    Budget(BudgetExceeded),
}

impl fmt::Display for CscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CscError::Stg(e) => write!(f, "state graph construction failed: {e}"),
            CscError::NoCandidate { remaining_conflicts } => write!(
                f,
                "no speed-independence-preserving insertion candidate found ({remaining_conflicts} conflict pairs remain)"
            ),
            CscError::SignalLimitReached { limit, remaining_conflicts } => write!(
                f,
                "inserted {limit} state signals without reaching CSC ({remaining_conflicts} conflict pairs remain)"
            ),
            CscError::InconsistentInsertion { signal } => {
                write!(f, "inserting signal '{signal}' produced an inconsistent encoding")
            }
            CscError::Insertion(e) => write!(f, "event insertion failed: {e}"),
            CscError::NotConverged { iterations } => {
                write!(f, "symbolic reachability did not converge within {iterations} iterations")
            }
            CscError::SeedMismatch { blocked_transition, coded_states } => {
                let cause = blocked_transition.as_ref().map_or_else(
                    || "a marking carries two codes".to_owned(),
                    |t| format!("the seed blocks transition '{t}'"),
                );
                write!(f, "initial code mismatch: {cause} ({coded_states} coded states)")
            }
            CscError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CscError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CscError::Stg(e) => Some(e),
            CscError::Insertion(e) => Some(e),
            CscError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BudgetExceeded> for CscError {
    fn from(value: BudgetExceeded) -> Self {
        CscError::Budget(value)
    }
}

impl From<stg::StgError> for CscError {
    fn from(value: stg::StgError) -> Self {
        CscError::Stg(value)
    }
}

impl From<ts::TsError> for CscError {
    fn from(value: ts::TsError) -> Self {
        CscError::Insertion(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_explain_the_failure() {
        let e = CscError::SignalLimitReached { limit: 3, remaining_conflicts: 2 };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('2'));
        let n = CscError::NoCandidate { remaining_conflicts: 5 };
        assert!(n.to_string().contains('5'));
        let wrapped: CscError = ts::TsError::EmptyEventName.into();
        assert!(wrapped.source().is_some());
    }
}
