//! Labelled transition systems for asynchronous circuit synthesis.
//!
//! A *transition system* (TS) is an arc-labelled directed graph
//! `A = (S, E, T, s_in)` with a finite set of states `S`, a finite alphabet
//! of events `E`, a transition relation `T ⊆ S × E × S` and an initial state
//! `s_in`.  Transition systems are the semantic domain on which the theory
//! of regions and the Complete State Coding (CSC) algorithms of
//! Cortadella et al. (DAC'96) operate: the reachability graph of a Petri
//! net / Signal Transition Graph is a TS, regions are subsets of its states,
//! and state-signal insertion is a transformation of the TS.
//!
//! This crate provides:
//!
//! * [`TransitionSystem`] — a compact adjacency representation with
//!   forward/backward indices,
//! * [`StateSet`] — a dense bit-set over states used pervasively by the
//!   region machinery,
//! * excitation and switching regions ([`TransitionSystem::excitation_regions`]),
//! * the behavioural predicates required for speed-independence
//!   (determinism, commutativity, event persistency),
//! * the property-preserving event-insertion scheme of Fig. 2 of the paper
//!   ([`insertion::insert_event`]),
//! * trace-equivalence utilities used to validate insertions
//!   ([`traces::projected_trace_equivalent`]).
//!
//! # Example
//!
//! ```
//! use ts::TransitionSystemBuilder;
//!
//! // The transition system of Fig. 1(a) of the DAC'96 paper.
//! let mut b = TransitionSystemBuilder::new();
//! let (s1, s2, s3, s4, s5, s6, s7) = (
//!     b.add_state("s1"), b.add_state("s2"), b.add_state("s3"),
//!     b.add_state("s4"), b.add_state("s5"), b.add_state("s6"),
//!     b.add_state("s7"),
//! );
//! b.add_transition(s1, "a", s2);
//! b.add_transition(s1, "b", s3);
//! b.add_transition(s2, "b", s4);
//! b.add_transition(s3, "a", s4);
//! b.add_transition(s4, "c", s5);
//! b.add_transition(s5, "a", s6);
//! b.add_transition(s5, "b", s7);
//! let ts = b.build(s1).expect("well-formed transition system");
//!
//! assert_eq!(ts.num_states(), 7);
//! assert!(ts.is_deterministic());
//! assert!(ts.is_commutative());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod ids;
pub mod insertion;
mod properties;
mod state_set;
mod system;
pub mod traces;

pub use builder::TransitionSystemBuilder;
pub use error::TsError;
pub use ids::{EventId, StateId};
pub use insertion::{insert_event, InsertionOutcome};
pub use properties::{CommutativityViolation, DeterminismViolation, PersistencyViolation};
pub use state_set::{SetDedup, StateSet};
pub use system::{Transition, TransitionSystem};
