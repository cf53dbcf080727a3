//! Logic derivation for speed-independent circuits.
//!
//! Once Complete State Coding holds, every non-input signal `a` has a
//! well-defined *next-state function* over the signal values: in each
//! reachable state the implementation must drive `a` to 1 exactly when `a`
//! is rising or stably high.  This crate derives those functions on BDDs,
//! extracts minimized covers by interval ISOP, and reports literal counts —
//! the "area" metric used to compare the region-based CSC solver with the
//! ASSASSIN-style baseline in Table 2 of the paper.
//!
//! Contents:
//!
//! * [`Cube`] / [`Cover`] — word-array two-level representation with no
//!   limit on the variable count (inline storage up to
//!   [`Cube::INLINE_VARS`] variables),
//! * [`NextStateFunctions`] — ON/OFF sets and minimized covers per
//!   non-input signal, derived from an explicit encoded graph
//!   ([`derive_next_state_functions`], the explicit solver's hand-off),
//! * [`analyze_space`] — the same derivation on an STG's encoded state
//!   space: seed guard, ON/OFF construction, cover extraction and the
//!   persistency check all on BDDs, with no explicit state enumeration and
//!   no 64-signal cap ([`analyze_stg_with`] builds the space first),
//! * [`AreaReport`] — literal-count area estimates ([`estimate_area`]),
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
mod nextstate;
mod symbolic;

pub use area::{
    area_of_functions, estimate_area, logic_diagnostics, output_persistency_violations, AreaReport,
    LogicDiagnostic, SignalArea,
};
pub use cube::{Cover, Cube, Literal};
pub use nextstate::{LogicError, NextStateFunctions, SignalFunction};
pub use symbolic::{
    analyze_space, analyze_stg_with, derive_next_state_functions, SymbolicLogicReport,
};
