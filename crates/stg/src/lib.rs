//! Signal Transition Graphs (STGs).
//!
//! An STG is a Petri net whose transitions are labelled with rising (`a+`)
//! and falling (`a-`) edges of circuit signals.  STGs are the input
//! formalism of the DAC'96 state-encoding paper: the designer writes an STG,
//! its reachability graph is a binary-encoded transition system, and the
//! Complete State Coding property must hold on that state graph before a
//! speed-independent circuit can be derived.
//!
//! This crate provides:
//!
//! * the STG model itself ([`Stg`], [`StgBuilder`], [`Signal`],
//!   [`SignalKind`], [`TransitionLabel`]),
//! * a reader and writer for the `astg` / SIS `.g` interchange format
//!   ([`parse_g`], [`Stg::to_g`]),
//! * binary-coded state graphs with consistency checking
//!   ([`StateGraph`], [`Stg::state_graph`]),
//! * a BDD-based symbolic reachability engine used for the very large
//!   benchmarks of Table 1 ([`symbolic`]),
//! * the benchmark suite used by the experiment harnesses
//!   ([`benchmarks`]),
//! * a structural validator with typed diagnostics ([`validate`]) and a
//!   seeded fuzzer for differential hardening ([`fuzz`]).
//!
//! # Example
//!
//! ```
//! use stg::benchmarks;
//!
//! // The VME bus controller (read cycle) — the classic CSC-conflict example.
//! let vme = benchmarks::vme_read();
//! let sg = vme.state_graph(10_000)?;
//! assert!(sg.is_consistent());
//! assert!(!sg.unique_state_coding_holds(), "the VME read cycle has code clashes");
//! # Ok::<(), stg::StgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
mod error;
pub mod fuzz;
mod model;
mod parser;
mod signal;
mod state_graph;
pub mod symbolic;
mod validate;

pub use error::{BarredEdge, StgError};
pub use model::{Stg, StgBuilder, TransitionLabel};
pub use parser::parse_g;
pub use signal::{Polarity, Signal, SignalId, SignalKind};
pub use state_graph::StateGraph;
pub use symbolic::{
    fixpoints_run, Branch, CscDecision, ReachabilityConfig, SignalCoding, SymbolicStateSpace,
};
pub use validate::{validate, Severity, ValidationIssue, ValidationReport};
