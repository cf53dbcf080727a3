//! Reduced Ordered Binary Decision Diagrams (ROBDDs).
//!
//! The DAC'96 state-encoding paper attributes its capacity to handle
//! "extremely large state graphs" to two ingredients: reasoning at the
//! granularity of regions, and a *symbolic* representation of the state
//! graph by Ordered Binary Decision Diagrams.  This crate is a
//! self-contained ROBDD package built for that second ingredient: the
//! symbolic reachability and CSC-conflict engines of the `stg` crate encode
//! sets of markings as BDDs over one variable per Petri-net place.
//!
//! Design:
//!
//! * a [`BddManager`] owns all nodes; hash-consing (a unique table)
//!   guarantees canonicity, so function equality is handle equality,
//! * [`Bdd`] is a cheap copyable handle (node index) into a manager,
//! * binary operations go through a memoised Shannon-expansion `apply`,
//! * set quantification (`exists_many`/`forall_many`) runs as one fused
//!   recursion over a sorted variable cube, and the relational product
//!   [`BddManager::and_exists`] conjoins and quantifies in a single pass
//!   without materialising the intermediate conjunction — the image
//!   operator symbolic reachability is built on,
//! * emptiness questions are answered without building the BDD they ask
//!   about: [`BddManager::intersects`] and [`BddManager::implies`] stop
//!   at the first satisfying path and allocate nothing,
//!   [`BddManager::crossing`] answers which of `s ∧ (a | ¬a) ∧ (b | ¬b)`
//!   are non-empty in one three-operand walk (its four-bit mask is
//!   memoised exactly: the walk stops early only once all four bits are
//!   set), [`BddManager::restrict_cube`] cofactors at a whole cube in
//!   one memoised pass, and [`BddManager::value_span`] projects a set onto
//!   each variable in one read-only pass (a cube whose literal the span
//!   excludes cannot meet the set),
//! * satisfy-count, cube enumeration and memory/cache statistics
//!   ([`BddManager::stats`]) round out the toolkit.
//!
//! # Example
//!
//! ```
//! use bdd::BddManager;
//!
//! let mut m = BddManager::new(3);
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! let ab = m.and(a, b);
//! let f = m.or(ab, c);
//! assert_eq!(m.sat_count(f), 5); // out of 8 assignments
//! assert!(m.implies(ab, f));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod cubes;
pub mod hash;
mod isop;
mod manager;
mod node;

pub use budget::{Budget, BudgetExceeded, Resource};
pub use cubes::{Cube, CubeIter};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use isop::IsopCover;
pub use manager::{Bdd, BddManager, BddStats};
pub use node::{NodeId, VarId};
