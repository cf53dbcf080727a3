//! Theory of regions for transition systems.
//!
//! A *region* of a transition system is a set of states `r` such that every
//! event crosses it uniformly: all transitions labelled with a given event
//! either enter `r`, or exit `r`, or do not cross its boundary at all
//! (paper §2.2).  Regions play the role of Petri-net places: a region that
//! an event exits corresponds to a place in the event's pre-set, a region an
//! event enters corresponds to a place in its post-set.
//!
//! The DAC'96 state-encoding method builds its insertion candidates from
//! *bricks*: minimal regions plus intersections of pre-/post-regions of the
//! same event.  This crate computes all of these:
//!
//! * [`crossing`] — the crossing relation of an event with respect to a set
//!   and the [`is_region`] predicate,
//! * [`minimal`] — generation of minimal pre-/post-regions by the classical
//!   expansion algorithm,
//! * [`bricks()`] — the brick set used by the CSC heuristic search,
//! * [`synthesis`] — Petri-net synthesis from a transition system
//!   (one place per minimal pre-region, plus the excitation-closure check).
//!
//! # Example
//!
//! ```
//! use ts::TransitionSystemBuilder;
//! use regions::{minimal_regions, RegionConfig, crossing::is_region};
//!
//! let mut b = TransitionSystemBuilder::new();
//! let s0 = b.add_state("s0");
//! let s1 = b.add_state("s1");
//! b.add_transition(s0, "up", s1);
//! b.add_transition(s1, "down", s0);
//! let ts = b.build(s0)?;
//!
//! let regions = minimal_regions(&ts, &RegionConfig::default());
//! assert!(regions.iter().all(|r| is_region(&ts, r)));
//! assert_eq!(regions.len(), 2); // {s0} and {s1}
//! # Ok::<(), ts::TsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bricks;
pub mod crossing;
pub mod minimal;
pub mod synthesis;

pub use bricks::{adjacent_bricks, bricks, Brick, BrickKind};
pub use crossing::{event_crossing, is_region, is_sip_set, Crossing};
pub use minimal::{minimal_post_regions, minimal_pre_regions, minimal_regions, RegionConfig};
pub use synthesis::{excitation_closure_failures, synthesize_net, SynthesisError, SynthesizedNet};
