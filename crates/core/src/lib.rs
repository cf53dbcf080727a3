//! Region-based Complete State Coding (CSC) resolution.
//!
//! This crate implements the primary contribution of
//! *"Methodology and Tools for State Encoding in Asynchronous Circuit
//! Synthesis"* (Cortadella, Kishinevsky, Kondratyev, Lavagno, Yakovlev —
//! DAC 1996): an algorithm that inserts internal *state signals* into the
//! state graph of a Signal Transition Graph until every pair of states with
//! the same binary code enables the same non-input signals, while
//! preserving the observable behaviour and the speed-independence of the
//! specification.
//!
//! The flow follows the paper:
//!
//! 1. detect CSC conflict pairs on the binary-coded state graph
//!    ([`conflicts`]),
//! 2. build candidate insertion *blocks* as unions of *bricks* (minimal
//!    regions and same-event pre-/post-region intersections) using the
//!    frontier heuristic search of Fig. 4 ([`search`]),
//! 3. derive an *I-partition* from the chosen block: the minimal well-formed
//!    exit borders of the block and of its complement become the excitation
//!    regions of the new signal's rising and falling transitions
//!    ([`partition`]),
//! 4. validate that the insertion preserves speed independence and does not
//!    delay input signals, then insert the new signal ([`insert`]),
//! 5. iterate until CSC holds ([`solver`]), optionally increasing the
//!    concurrency of the inserted signal and re-synthesizing a Petri net so
//!    the designer gets an STG back rather than a flat state graph.
//!
//! The iteration is one plain loop ([`solve_state_graph`]) that recomputes
//! the conflict pairs from scratch after every insertion.  Per-stage
//! wall-clock times and candidate counters are reported in
//! [`SolveStats::stage`].
//!
//! An excitation-region-only baseline in the style of ASSASSIN
//! ([`SolverConfig::candidate_source`]) is provided for the Table 2
//! comparison.
//!
//! # Example
//!
//! ```
//! use csc::{solve_stg, SolverConfig};
//! use stg::benchmarks;
//!
//! let vme = benchmarks::vme_read();
//! let solution = solve_stg(&vme, &SolverConfig::default())?;
//! assert!(solution.graph.complete_state_coding_holds());
//! assert!(!solution.inserted_signals.is_empty());
//! # Ok::<(), csc::CscError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflicts;
mod error;
mod graph;
pub mod insert;
pub mod partition;
pub mod search;
pub mod solver;
pub mod symbolic;

pub use conflicts::{conflict_pairs, CscConflict};
pub use error::CscError;
pub use graph::EncodedGraph;
pub use insert::insert_state_signal;
pub use partition::IPartition;
pub use search::{find_best_block, find_best_block_with, CandidateSource, Cost, SearchStats};
pub use solver::{
    solve_state_graph, solve_stg, verify_solution, CscSolution, SolveStats, SolverConfig,
    StageStats, VerifyDiagnostic,
};
pub use symbolic::{
    solve_space, solve_stg_symbolic, solve_stg_symbolic_seeded, solve_stg_symbolic_with,
    ConflictCore, SolverStrategy, SymbolicSolution,
};
