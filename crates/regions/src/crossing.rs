//! Crossing relations, the region predicate and SIP-set checking.

use ts::{insert_event, EventId, StateSet, TransitionSystem};

/// How an event relates to a set of states (paper §2.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Crossing {
    /// Every transition of the event enters the set.
    Enter,
    /// Every transition of the event exits the set.
    Exit,
    /// No transition of the event crosses the boundary of the set.
    NotCrossing,
    /// Transitions of the event relate to the set in different ways, so the
    /// set is not a region with respect to this event.
    Violation,
}

/// Computes the crossing relation of `event` with respect to `set`.
///
/// Events with no transitions are reported as [`Crossing::NotCrossing`].
pub fn event_crossing(ts: &TransitionSystem, set: &StateSet, event: EventId) -> Crossing {
    let mut has_enter = false;
    let mut has_exit = false;
    let mut has_nocross = false;
    for &(source, target) in ts.transitions_of(event) {
        match (set.contains(source), set.contains(target)) {
            (false, true) => has_enter = true,
            (true, false) => has_exit = true,
            _ => has_nocross = true,
        }
    }
    match (has_enter, has_exit, has_nocross) {
        (true, false, false) => Crossing::Enter,
        (false, true, false) => Crossing::Exit,
        (false, false, _) => Crossing::NotCrossing,
        _ => Crossing::Violation,
    }
}

/// Returns `true` if `set` is a region of `ts`: every event crosses it
/// uniformly.
///
/// The empty set and the full state set are (trivial) regions.
pub fn is_region(ts: &TransitionSystem, set: &StateSet) -> bool {
    violating_event(ts, set).is_none()
}

/// Returns an event that violates the region condition on `set`, if any.
pub fn violating_event(ts: &TransitionSystem, set: &StateSet) -> Option<EventId> {
    (0..ts.num_events())
        .map(EventId::from)
        .find(|&e| event_crossing(ts, set, e) == Crossing::Violation)
}

/// Checks whether `set` is a *speed-independence-preserving* (SIP) insertion
/// set for `ts` (paper §3).
///
/// The check is performed directly against the definition: a dummy event is
/// inserted with `set` as its excitation region (using the scheme of Fig. 2)
/// and the result is verified to be deterministic, commutative, and to
/// preserve the persistency of every event that was persistent in the
/// original system.  This is exact but linear in the size of the system; the
/// heuristic search uses the structural sufficient conditions of
/// Property 3.1 (bricks) to avoid calling it on every candidate.
pub fn is_sip_set(ts: &TransitionSystem, set: &StateSet) -> bool {
    if set.is_empty() || set.len() == ts.num_states() {
        return false;
    }
    let Ok(outcome) = insert_event(ts, set, "__sip_probe__") else {
        return false;
    };
    let new_ts = &outcome.ts;
    if !new_ts.is_deterministic() || !new_ts.is_commutative() {
        return false;
    }
    for event in 0..ts.num_events() {
        let event = EventId::from(event);
        if ts.is_persistent(event) {
            // The inserted system shares event ids for pre-existing events.
            if !new_ts.is_persistent(event) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts::{StateId, TransitionSystemBuilder};

    fn fig1_ts() -> TransitionSystem {
        let mut b = TransitionSystemBuilder::new();
        let s: Vec<StateId> = (1..=7).map(|i| b.add_state(format!("s{i}"))).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[0], "b", s[2]);
        b.add_transition(s[1], "b", s[3]);
        b.add_transition(s[2], "a", s[3]);
        b.add_transition(s[3], "c", s[4]);
        b.add_transition(s[4], "a", s[5]);
        b.add_transition(s[4], "b", s[6]);
        b.build(s[0]).unwrap()
    }

    fn named_set(ts: &TransitionSystem, names: &[&str]) -> StateSet {
        StateSet::from_states(ts.num_states(), names.iter().map(|n| ts.state_id(n).unwrap()))
    }

    #[test]
    fn fig1_has_the_expected_regions() {
        let ts = fig1_ts();
        // {s5} alone is NOT a region: the a-transition s5 -> s6 exits it
        // while the other a-transitions do not cross it.
        let s5 = named_set(&ts, &["s5"]);
        assert_eq!(event_crossing(&ts, &s5, ts.event_id("a").unwrap()), Crossing::Violation);
        assert!(!is_region(&ts, &s5));
        // {s5, s6, s7} (everything after c) is a region: c enters it, a and
        // b do not cross it.
        let tail = named_set(&ts, &["s5", "s6", "s7"]);
        assert_eq!(event_crossing(&ts, &tail, ts.event_id("c").unwrap()), Crossing::Enter);
        assert_eq!(event_crossing(&ts, &tail, ts.event_id("a").unwrap()), Crossing::NotCrossing);
        assert!(is_region(&ts, &tail));
        // The paper's r3: the set entered by every b-transition.  In our
        // numbering it is {s3, s4, s7}: all b-transitions enter it, all
        // c-transitions exit it, a does not cross it.
        let r3 = named_set(&ts, &["s3", "s4", "s7"]);
        assert_eq!(event_crossing(&ts, &r3, ts.event_id("b").unwrap()), Crossing::Enter);
        assert_eq!(event_crossing(&ts, &r3, ts.event_id("c").unwrap()), Crossing::Exit);
        assert_eq!(event_crossing(&ts, &r3, ts.event_id("a").unwrap()), Crossing::NotCrossing);
        assert!(is_region(&ts, &r3));
        // Its a-counterpart {s2, s4, s6} is also a region.
        let r_a = named_set(&ts, &["s2", "s4", "s6"]);
        assert!(is_region(&ts, &r_a));
        assert_eq!(event_crossing(&ts, &r_a, ts.event_id("a").unwrap()), Crossing::Enter);
    }

    #[test]
    fn pair_s2_s5_is_not_a_region() {
        // The paper's counterexample: one b-transition enters the set while
        // another does not.
        let ts = fig1_ts();
        let set = named_set(&ts, &["s2", "s6"]);
        assert!(!is_region(&ts, &set));
        assert!(violating_event(&ts, &set).is_some());
    }

    #[test]
    fn trivial_sets_are_regions() {
        let ts = fig1_ts();
        assert!(is_region(&ts, &StateSet::new(ts.num_states())));
        assert!(is_region(&ts, &StateSet::full(ts.num_states())));
    }

    #[test]
    fn crossing_of_absent_event_is_not_crossing() {
        let mut b = TransitionSystemBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "x", s1);
        b.add_event("phantom");
        let ts = b.build(s0).unwrap();
        let phantom = ts.event_id("phantom").unwrap();
        let set = StateSet::from_states(ts.num_states(), [s0]);
        assert_eq!(event_crossing(&ts, &set, phantom), Crossing::NotCrossing);
    }

    #[test]
    fn regions_are_sip_sets() {
        // Property 3.1 (P1): a region of a deterministic commutative TS is a
        // SIP set.  Verify on a cyclic two-phase handshake.
        let mut b = TransitionSystemBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let s3 = b.add_state("s3");
        b.add_transition(s0, "req+", s1);
        b.add_transition(s1, "ack+", s2);
        b.add_transition(s2, "req-", s3);
        b.add_transition(s3, "ack-", s0);
        let ts = b.build(s0).unwrap();
        for pair in [[s1, s2], [s2, s3], [s0, s1]] {
            let set = StateSet::from_states(ts.num_states(), pair);
            assert!(is_region(&ts, &set), "{set:?} should be a region");
            assert!(is_sip_set(&ts, &set), "{set:?} should be SIP");
        }
    }

    #[test]
    fn non_sip_set_is_rejected() {
        // Splitting one branch of a concurrency diamond delays the other
        // event and breaks persistency.
        let mut b = TransitionSystemBuilder::new();
        let s0 = b.add_state("s0");
        let sa = b.add_state("sa");
        let sb = b.add_state("sb");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "a", sa);
        b.add_transition(s0, "b", sb);
        b.add_transition(sa, "b", s1);
        b.add_transition(sb, "a", s1);
        b.add_transition(s1, "r", s0);
        let ts = b.build(s0).unwrap();
        // {sa} is an ER-like set but a is persistent and gets delayed: after
        // inserting x with ER {sa}, from s0 firing a leads to the pre-copy of
        // sa where b is no longer enabled — persistency of b is violated.
        let set = StateSet::from_states(ts.num_states(), [sa]);
        assert!(!is_sip_set(&ts, &set));
        // The whole diamond {sa, sb, s1} together with s0 is a trivial region
        // minus s0; check that a genuine region passes.
        let region = StateSet::from_states(ts.num_states(), [sa, s1]);
        if is_region(&ts, &region) {
            assert!(is_sip_set(&ts, &region));
        }
    }

    #[test]
    fn degenerate_sets_are_not_sip() {
        let ts = fig1_ts();
        assert!(!is_sip_set(&ts, &StateSet::new(ts.num_states())));
        assert!(!is_sip_set(&ts, &StateSet::full(ts.num_states())));
    }
}
