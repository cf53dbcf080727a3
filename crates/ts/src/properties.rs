//! Behavioural predicates required for speed-independence.
//!
//! A binary-encoded transition system is implementable as a
//! speed-independent circuit if it is deterministic, commutative and all
//! output events are persistent (paper §3).  The methods in this module
//! check these predicates and report the first counterexample found, which
//! is invaluable when an insertion candidate is rejected.

use crate::{EventId, StateId, StateSet, TransitionSystem};

/// Counterexample to determinism: a state with two transitions for the same
/// event that lead to different targets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DeterminismViolation {
    /// The branching state.
    pub state: StateId,
    /// The event that is ambiguous.
    pub event: EventId,
    /// First target.
    pub target_a: StateId,
    /// Second, different target.
    pub target_b: StateId,
}

/// Counterexample to commutativity: two events enabled in `state` whose two
/// interleavings end in different states.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CommutativityViolation {
    /// The state where both interleavings start.
    pub state: StateId,
    /// First event.
    pub event_a: EventId,
    /// Second event.
    pub event_b: EventId,
    /// End state of the `a;b` interleaving.
    pub end_ab: StateId,
    /// End state of the `b;a` interleaving.
    pub end_ba: StateId,
}

/// Counterexample to persistency of `event`: it was enabled in `state` but
/// firing `disabled_by` leads to `successor` where it is no longer enabled.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PersistencyViolation {
    /// The event whose enabling is lost.
    pub event: EventId,
    /// State where `event` was enabled.
    pub state: StateId,
    /// The interfering event.
    pub disabled_by: EventId,
    /// State reached by `disabled_by` in which `event` is disabled.
    pub successor: StateId,
}

impl TransitionSystem {
    /// Returns `true` if for every state and event there is at most one
    /// successor.
    pub fn is_deterministic(&self) -> bool {
        self.determinism_violation().is_none()
    }

    /// Returns the first determinism violation, if any.
    pub fn determinism_violation(&self) -> Option<DeterminismViolation> {
        for s in 0..self.num_states() {
            let state = StateId::from(s);
            let succ = self.successors(state);
            for i in 0..succ.len() {
                for j in (i + 1)..succ.len() {
                    if succ[i].0 == succ[j].0 && succ[i].1 != succ[j].1 {
                        return Some(DeterminismViolation {
                            state,
                            event: succ[i].0,
                            target_a: succ[i].1,
                            target_b: succ[j].1,
                        });
                    }
                }
            }
        }
        None
    }

    /// Returns `true` if whenever two events can be executed from a state in
    /// either order, both orders reach the same state.
    ///
    /// The check only constrains pairs for which *both* interleavings exist;
    /// it does not require the second interleaving to exist (that is the job
    /// of persistency / the local confluence of the underlying net).
    pub fn is_commutative(&self) -> bool {
        self.commutativity_violation().is_none()
    }

    /// Returns the first commutativity violation, if any.
    pub fn commutativity_violation(&self) -> Option<CommutativityViolation> {
        for s in 0..self.num_states() {
            let state = StateId::from(s);
            let succ = self.successors(state);
            for &(ea, ta) in succ {
                for &(eb, tb) in succ {
                    if ea >= eb {
                        continue;
                    }
                    // a then b
                    let Some(end_ab) = self.successor(ta, eb) else { continue };
                    // b then a
                    let Some(end_ba) = self.successor(tb, ea) else { continue };
                    if end_ab != end_ba {
                        return Some(CommutativityViolation {
                            state,
                            event_a: ea,
                            event_b: eb,
                            end_ab,
                            end_ba,
                        });
                    }
                }
            }
        }
        None
    }

    /// Returns `true` if `event` is persistent in the whole state space:
    /// once enabled it stays enabled until it fires.
    pub fn is_persistent(&self, event: EventId) -> bool {
        self.persistency_violation(event).is_none()
    }

    /// Returns `true` if `event` is persistent *within* the given subset of
    /// states: for every `s` in `subset` where `event` is enabled, firing any
    /// other event from `s` that stays in the system keeps `event` enabled.
    pub fn is_persistent_in(&self, event: EventId, subset: &StateSet) -> bool {
        for s in subset.iter() {
            if !self.is_enabled(s, event) {
                continue;
            }
            for &(other, target) in self.successors(s) {
                if other == event {
                    continue;
                }
                if !self.is_enabled(target, event) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns the first persistency violation of `event`, if any.
    pub fn persistency_violation(&self, event: EventId) -> Option<PersistencyViolation> {
        for &(s, _) in self.transitions_of(event) {
            for &(other, target) in self.successors(s) {
                if other == event {
                    continue;
                }
                if !self.is_enabled(target, event) {
                    return Some(PersistencyViolation {
                        event,
                        state: s,
                        disabled_by: other,
                        successor: target,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::{StateSet, TransitionSystemBuilder};

    fn diamond() -> crate::TransitionSystem {
        // A commuting diamond: a and b concurrent.
        let mut builder = TransitionSystemBuilder::new();
        let s0 = builder.add_state("s0");
        let sa = builder.add_state("sa");
        let sb = builder.add_state("sb");
        let s1 = builder.add_state("s1");
        builder.add_transition(s0, "a", sa);
        builder.add_transition(s0, "b", sb);
        builder.add_transition(sa, "b", s1);
        builder.add_transition(sb, "a", s1);
        builder.build(s0).unwrap()
    }

    #[test]
    fn diamond_is_deterministic_commutative_persistent() {
        let ts = diamond();
        assert!(ts.is_deterministic());
        assert!(ts.is_commutative());
        let a = ts.event_id("a").unwrap();
        let b = ts.event_id("b").unwrap();
        assert!(ts.is_persistent(a));
        assert!(ts.is_persistent(b));
    }

    #[test]
    fn nondeterminism_is_detected() {
        let mut builder = TransitionSystemBuilder::new();
        let s0 = builder.add_state("s0");
        let s1 = builder.add_state("s1");
        let s2 = builder.add_state("s2");
        builder.add_transition(s0, "a", s1);
        builder.add_transition(s0, "a", s2);
        let ts = builder.build(s0).unwrap();
        assert!(!ts.is_deterministic());
        let v = ts.determinism_violation().unwrap();
        assert_eq!(v.state, s0);
        assert_ne!(v.target_a, v.target_b);
    }

    #[test]
    fn broken_diamond_violates_commutativity() {
        let mut builder = TransitionSystemBuilder::new();
        let s0 = builder.add_state("s0");
        let sa = builder.add_state("sa");
        let sb = builder.add_state("sb");
        let s1 = builder.add_state("s1");
        let s2 = builder.add_state("s2");
        builder.add_transition(s0, "a", sa);
        builder.add_transition(s0, "b", sb);
        builder.add_transition(sa, "b", s1);
        builder.add_transition(sb, "a", s2); // different corner
        let ts = builder.build(s0).unwrap();
        assert!(!ts.is_commutative());
        let v = ts.commutativity_violation().unwrap();
        assert_eq!(v.state, s0);
        assert_ne!(v.end_ab, v.end_ba);
    }

    #[test]
    fn choice_violates_persistency() {
        // a and b in free choice: firing one disables the other.
        let mut builder = TransitionSystemBuilder::new();
        let s0 = builder.add_state("s0");
        let s1 = builder.add_state("s1");
        let s2 = builder.add_state("s2");
        builder.add_transition(s0, "a", s1);
        builder.add_transition(s0, "b", s2);
        let ts = builder.build(s0).unwrap();
        let a = ts.event_id("a").unwrap();
        let b = ts.event_id("b").unwrap();
        assert!(!ts.is_persistent(a));
        assert!(!ts.is_persistent(b));
        let v = ts.persistency_violation(a).unwrap();
        assert_eq!(v.state, s0);
        assert_eq!(v.disabled_by, b);
        assert!(ts.is_commutative(), "choice without diamonds is vacuously commutative");
    }

    #[test]
    fn persistency_within_a_subset() {
        let ts = diamond();
        let a = ts.event_id("a").unwrap();
        let subset = StateSet::from_states(ts.num_states(), [ts.state_id("sb").unwrap()]);
        assert!(ts.is_persistent_in(a, &subset));
        // In a free-choice system persistency fails on the choice state but
        // holds on subsets that exclude it.
        let mut builder = TransitionSystemBuilder::new();
        let s0 = builder.add_state("s0");
        let s1 = builder.add_state("s1");
        let s2 = builder.add_state("s2");
        builder.add_transition(s0, "a", s1);
        builder.add_transition(s0, "b", s2);
        builder.add_transition(s1, "a", s2);
        let choice = builder.build(s0).unwrap();
        let a = choice.event_id("a").unwrap();
        let whole = StateSet::full(choice.num_states());
        assert!(!choice.is_persistent_in(a, &whole));
        let tail = StateSet::from_states(choice.num_states(), [choice.state_id("s1").unwrap()]);
        assert!(choice.is_persistent_in(a, &tail));
    }
}
