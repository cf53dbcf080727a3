//! Logic derivation for speed-independent circuits.
//!
//! Once Complete State Coding holds, every non-input signal `a` has a
//! well-defined *next-state function* over the signal values: in each
//! reachable state the implementation must drive `a` to 1 exactly when `a`
//! is rising or stably high.  This crate derives those functions from an
//! encoded state graph, minimizes them with a compact two-level minimizer,
//! and reports literal counts — the "area" metric used to compare the
//! region-based CSC solver with the ASSASSIN-style baseline in Table 2 of
//! the paper.
//!
//! Contents:
//!
//! * [`Cube`] / [`Cover`] — word-array two-level representation with no
//!   limit on the variable count (inline storage up to
//!   [`Cube::INLINE_VARS`] variables),
//! * [`minimize_cover`] — expand + irredundant minimization against an
//!   OFF-set, driven by shared conflict/containment indexes,
//! * [`NextStateFunctions`] — ON/OFF/don't-care extraction per non-input
//!   signal ([`derive_next_state_functions`]), with the engine selectable
//!   through [`LogicStrategy`]: the default *symbolic* engine builds ON/OFF
//!   sets as BDDs and extracts covers by interval ISOP, the *explicit*
//!   engine enumerates one minterm per state,
//! * [`analyze_space`] — the fully symbolic pipeline on an STG's encoded
//!   state space: seed guard, ON/OFF construction, cover extraction and the
//!   persistency check all on BDDs, with no explicit state enumeration and
//!   no 64-signal cap ([`analyze_stg_with`] builds the space first),
//! * [`AreaReport`] — literal-count area estimates ([`estimate_area`] /
//!   [`estimate_area_with`]),
//! * typed implementability diagnostics ([`LogicDiagnostic`],
//!   [`output_persistency_violations`], [`logic_diagnostics`]).
//!
//! # Example
//!
//! ```
//! use csc::{solve_stg, SolverConfig};
//! use logic::estimate_area;
//! use stg::benchmarks;
//!
//! let solution = solve_stg(&benchmarks::pulser(), &SolverConfig::default())?;
//! let report = estimate_area(&solution.graph)?;
//! assert!(report.total_literals > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod cube;
mod minimize;
mod nextstate;
mod symbolic;

pub use area::{
    area_of_functions, estimate_area, estimate_area_with, logic_diagnostics,
    output_persistency_violations, AreaReport, LogicDiagnostic, SignalArea,
};
pub use cube::{Cover, Cube, Literal};
pub use minimize::minimize_cover;
pub use nextstate::{
    derive_next_state_functions, derive_next_state_functions_with, LogicError, LogicStrategy,
    NextStateFunctions, SignalFunction,
};
pub use symbolic::{analyze_space, analyze_stg_with, SymbolicLogicReport};
