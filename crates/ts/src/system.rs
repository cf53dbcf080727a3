//! The core transition-system representation.

use crate::{EventId, StateId, StateSet, TsError};
use std::collections::VecDeque;
use std::fmt;

/// A single labelled transition `source --event--> target`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Source state.
    pub source: StateId,
    /// Event labelling the arc.
    pub event: EventId,
    /// Target state.
    pub target: StateId,
}

/// A finite, arc-labelled transition system `A = (S, E, T, s_in)`.
///
/// The structure is immutable once built (use [`crate::TransitionSystemBuilder`]);
/// transformations such as event insertion produce new systems.
///
/// Successor and predecessor adjacency as well as a per-event transition
/// index are precomputed so that region and border computations are linear
/// scans over packed vectors.
#[derive(Clone)]
pub struct TransitionSystem {
    state_names: Vec<String>,
    event_names: Vec<String>,
    transitions: Vec<Transition>,
    initial: StateId,
    succ: Vec<Vec<(EventId, StateId)>>,
    pred: Vec<Vec<(EventId, StateId)>>,
    by_event: Vec<Vec<(StateId, StateId)>>,
}

impl TransitionSystem {
    pub(crate) fn from_parts(
        state_names: Vec<String>,
        event_names: Vec<String>,
        mut transitions: Vec<Transition>,
        initial: StateId,
    ) -> Result<Self, TsError> {
        if state_names.is_empty() {
            return Err(TsError::EmptySystem);
        }
        let n = state_names.len();
        if initial.index() >= n {
            return Err(TsError::UnknownState { index: initial.index(), num_states: n });
        }
        for t in &transitions {
            for idx in [t.source.index(), t.target.index()] {
                if idx >= n {
                    return Err(TsError::UnknownState { index: idx, num_states: n });
                }
            }
        }
        transitions.sort_by_key(|t| (t.source, t.event, t.target));
        transitions.dedup();

        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        let mut by_event = vec![Vec::new(); event_names.len()];
        for t in &transitions {
            succ[t.source.index()].push((t.event, t.target));
            pred[t.target.index()].push((t.event, t.source));
            by_event[t.event.index()].push((t.source, t.target));
        }

        Ok(TransitionSystem {
            state_names,
            event_names,
            transitions,
            initial,
            succ,
            pred,
            by_event,
        })
    }

    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// Number of distinct event labels.
    #[inline]
    pub fn num_events(&self) -> usize {
        self.event_names.len()
    }

    /// The initial state.
    #[inline]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// All transitions, sorted by `(source, event, target)`.
    #[inline]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn state_name(&self, state: StateId) -> &str {
        &self.state_names[state.index()]
    }

    /// Name of an event.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range.
    pub fn event_name(&self, event: EventId) -> &str {
        &self.event_names[event.index()]
    }

    /// All event names, indexed by [`EventId`].
    pub fn event_names(&self) -> &[String] {
        &self.event_names
    }

    /// All state names, indexed by [`StateId`].
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// Looks up an event by its label.
    pub fn event_id(&self, name: &str) -> Option<EventId> {
        self.event_names.iter().position(|n| n == name).map(EventId::from)
    }

    /// Looks up a state by its name.
    pub fn state_id(&self, name: &str) -> Option<StateId> {
        self.state_names.iter().position(|n| n == name).map(StateId::from)
    }

    /// Outgoing `(event, target)` pairs of `state`.
    #[inline]
    pub fn successors(&self, state: StateId) -> &[(EventId, StateId)] {
        &self.succ[state.index()]
    }

    /// Incoming `(event, source)` pairs of `state`.
    #[inline]
    pub fn predecessors(&self, state: StateId) -> &[(EventId, StateId)] {
        &self.pred[state.index()]
    }

    /// All `(source, target)` pairs labelled with `event`.
    #[inline]
    pub fn transitions_of(&self, event: EventId) -> &[(StateId, StateId)] {
        &self.by_event[event.index()]
    }

    /// Returns `true` if `event` is enabled at `state`.
    pub fn is_enabled(&self, state: StateId, event: EventId) -> bool {
        self.succ[state.index()].iter().any(|&(e, _)| e == event)
    }

    /// Events enabled at `state`, in increasing id order (may contain
    /// duplicates only if the system is non-deterministic).
    pub fn enabled_events(&self, state: StateId) -> Vec<EventId> {
        let mut events: Vec<EventId> = self.succ[state.index()].iter().map(|&(e, _)| e).collect();
        events.sort();
        events.dedup();
        events
    }

    /// The unique successor of `state` under `event`, if the system is
    /// deterministic for that pair.  Returns the first match otherwise.
    pub fn successor(&self, state: StateId, event: EventId) -> Option<StateId> {
        self.succ[state.index()].iter().find(|&&(e, _)| e == event).map(|&(_, t)| t)
    }

    /// Set of all states where `event` is enabled (the *excitation set*).
    pub fn excitation_set(&self, event: EventId) -> StateSet {
        let mut set = StateSet::new(self.num_states());
        for &(s, _) in &self.by_event[event.index()] {
            set.insert(s);
        }
        set
    }

    /// Set of all states entered by an occurrence of `event` (the *switching
    /// set*).
    pub fn switching_set(&self, event: EventId) -> StateSet {
        let mut set = StateSet::new(self.num_states());
        for &(_, t) in &self.by_event[event.index()] {
            set.insert(t);
        }
        set
    }

    /// Excitation regions of `event`: maximal *connected* sets of states in
    /// which `event` is enabled (paper §2.2).  Connectivity is taken over the
    /// underlying undirected graph restricted to the excitation set.
    pub fn excitation_regions(&self, event: EventId) -> Vec<StateSet> {
        self.connected_components(&self.excitation_set(event))
    }

    /// Switching regions of `event`: connected sets of states reached
    /// immediately after an occurrence of `event`.
    pub fn switching_regions(&self, event: EventId) -> Vec<StateSet> {
        self.connected_components(&self.switching_set(event))
    }

    /// Splits `set` into connected components of the underlying undirected
    /// graph restricted to `set`.
    pub fn connected_components(&self, set: &StateSet) -> Vec<StateSet> {
        let mut remaining = set.clone();
        let mut components = Vec::new();
        while let Some(seed) = remaining.first() {
            let mut component = StateSet::new(self.num_states());
            let mut queue = VecDeque::new();
            queue.push_back(seed);
            component.insert(seed);
            remaining.remove(seed);
            while let Some(s) = queue.pop_front() {
                let neighbours = self.succ[s.index()]
                    .iter()
                    .map(|&(_, t)| t)
                    .chain(self.pred[s.index()].iter().map(|&(_, p)| p));
                for n in neighbours {
                    if remaining.contains(n) {
                        remaining.remove(n);
                        component.insert(n);
                        queue.push_back(n);
                    }
                }
            }
            components.push(component);
        }
        components
    }

    /// States reachable from the initial state.
    pub fn reachable_states(&self) -> StateSet {
        self.reachable_from(self.initial)
    }

    /// States reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: StateId) -> StateSet {
        let mut seen = StateSet::new(self.num_states());
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(s) = queue.pop_front() {
            for &(_, t) in &self.succ[s.index()] {
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        seen
    }

    /// States of `set` that have at least one transition to a state outside
    /// `set` — the *exit border* `EB(set)` of the paper.
    pub fn exit_border(&self, set: &StateSet) -> StateSet {
        let mut border = StateSet::new(self.num_states());
        for s in set.iter() {
            if self.succ[s.index()].iter().any(|&(_, t)| !set.contains(t)) {
                border.insert(s);
            }
        }
        border
    }

    /// Returns a copy of the system restricted to the states reachable from
    /// the initial state.  State ids are renumbered densely; the mapping from
    /// new ids to old ids is returned alongside.
    pub fn restricted_to_reachable(&self) -> (TransitionSystem, Vec<StateId>) {
        let reachable = self.reachable_states();
        let mut old_of_new = Vec::with_capacity(reachable.len());
        let mut new_of_old = vec![None; self.num_states()];
        for old in reachable.iter() {
            new_of_old[old.index()] = Some(StateId::from(old_of_new.len()));
            old_of_new.push(old);
        }
        let state_names =
            old_of_new.iter().map(|&old| self.state_names[old.index()].clone()).collect();
        let transitions = self
            .transitions
            .iter()
            .filter_map(|t| {
                let source = new_of_old[t.source.index()]?;
                let target = new_of_old[t.target.index()]?;
                Some(Transition { source, event: t.event, target })
            })
            .collect();
        let initial = new_of_old[self.initial.index()].expect("initial state is always reachable");
        let ts = TransitionSystem::from_parts(
            state_names,
            self.event_names.clone(),
            transitions,
            initial,
        )
        .expect("restriction of a valid system is valid");
        (ts, old_of_new)
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }
}

impl fmt::Debug for TransitionSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransitionSystem")
            .field("states", &self.num_states())
            .field("events", &self.num_events())
            .field("transitions", &self.transitions.len())
            .field("initial", &self.initial)
            .finish()
    }
}

impl fmt::Display for TransitionSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TS with {} states, {} events, {} transitions; initial {}",
            self.num_states(),
            self.num_events(),
            self.transitions.len(),
            self.state_names[self.initial.index()]
        )?;
        for t in &self.transitions {
            writeln!(
                f,
                "  {} --{}--> {}",
                self.state_names[t.source.index()],
                self.event_names[t.event.index()],
                self.state_names[t.target.index()]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::TransitionSystemBuilder;
    use crate::{StateId, StateSet};

    /// Builds the transition system of Fig. 1(a) of the paper.
    pub(crate) fn fig1_ts() -> crate::TransitionSystem {
        let mut b = TransitionSystemBuilder::new();
        let s: Vec<StateId> = (1..=7).map(|i| b.add_state(format!("s{i}"))).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[0], "b", s[2]);
        b.add_transition(s[1], "b", s[3]);
        b.add_transition(s[2], "a", s[3]);
        b.add_transition(s[3], "c", s[4]);
        b.add_transition(s[4], "a", s[5]);
        b.add_transition(s[4], "b", s[6]);
        b.build(s[0]).expect("fig1 is well-formed")
    }

    #[test]
    fn basic_queries() {
        let ts = fig1_ts();
        assert_eq!(ts.num_states(), 7);
        assert_eq!(ts.num_events(), 3);
        assert_eq!(ts.num_transitions(), 7);
        assert_eq!(ts.state_name(ts.initial()), "s1");
        let a = ts.event_id("a").unwrap();
        assert_eq!(ts.event_name(a), "a");
        assert!(ts.event_id("zz").is_none());
        assert_eq!(ts.state_id("s4"), Some(StateId(3)));
    }

    #[test]
    fn successor_and_enabled() {
        let ts = fig1_ts();
        let a = ts.event_id("a").unwrap();
        let b = ts.event_id("b").unwrap();
        let s1 = ts.state_id("s1").unwrap();
        assert!(ts.is_enabled(s1, a));
        assert!(ts.is_enabled(s1, b));
        assert_eq!(ts.enabled_events(s1), vec![a, b]);
        let s2 = ts.state_id("s2").unwrap();
        assert_eq!(ts.successor(s1, a), Some(s2));
        let c = ts.event_id("c").unwrap();
        assert_eq!(ts.successor(s1, c), None);
    }

    #[test]
    fn excitation_regions_of_fig1() {
        // Event a is enabled in s1, s3 and s5.  s1 and s3 are adjacent via
        // the b-transition s1 -> s3, so they form one connected excitation
        // region; s5 forms the second (the paper reports two ERs for a).
        let ts = fig1_ts();
        let a = ts.event_id("a").unwrap();
        let mut ers = ts.excitation_regions(a);
        ers.sort_by_key(|set| set.len());
        assert_eq!(ers.len(), 2);
        assert_eq!(ers[0].len(), 1);
        assert!(ers[0].contains(ts.state_id("s5").unwrap()));
        assert_eq!(ers[1].len(), 2);
        assert!(ers[1].contains(ts.state_id("s1").unwrap()));
        assert!(ers[1].contains(ts.state_id("s3").unwrap()));
    }

    #[test]
    fn region_r3_of_fig1_is_exit_border_free() {
        // r3 = {s3, s4, s7} in paper numbering corresponds to the set of
        // states entered by b.  Check switching set machinery.
        let ts = fig1_ts();
        let b = ts.event_id("b").unwrap();
        let sw = ts.switching_set(b);
        assert_eq!(sw.len(), 3);
        assert!(sw.contains(ts.state_id("s3").unwrap()));
        assert!(sw.contains(ts.state_id("s4").unwrap()));
        assert!(sw.contains(ts.state_id("s7").unwrap()));
    }

    #[test]
    fn reachability_and_deadlocks() {
        let ts = fig1_ts();
        assert_eq!(ts.reachable_states().len(), 7);
        let dead = (0..ts.num_states()).filter(|&s| ts.successors(StateId(s as u32)).is_empty());
        assert_eq!(dead.count(), 2, "s6 and s7 have no successors");
    }

    #[test]
    fn exit_and_entry_borders() {
        let ts = fig1_ts();
        let set = StateSet::from_states(
            ts.num_states(),
            ["s2", "s3", "s4"].iter().map(|n| ts.state_id(n).unwrap()),
        );
        let eb = ts.exit_border(&set);
        assert_eq!(eb.len(), 1);
        assert!(eb.contains(ts.state_id("s4").unwrap()));
        // The set is entered only from s1: the exit border of its complement.
        let entered_from = ts.exit_border(&set.complement());
        assert_eq!(entered_from.len(), 1);
        assert!(entered_from.contains(ts.state_id("s1").unwrap()));
    }

    #[test]
    fn connected_components_of_disconnected_set() {
        let ts = fig1_ts();
        let set = StateSet::from_states(
            ts.num_states(),
            ["s1", "s6"].iter().map(|n| ts.state_id(n).unwrap()),
        );
        let comps = ts.connected_components(&set);
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn restriction_to_reachable_is_identity_for_connected_systems() {
        let ts = fig1_ts();
        let (r, map) = ts.restricted_to_reachable();
        assert_eq!(r.num_states(), ts.num_states());
        assert_eq!(map.len(), 7);
        assert_eq!(r.num_transitions(), ts.num_transitions());
    }

    #[test]
    fn restriction_drops_unreachable_states() {
        let mut b = TransitionSystemBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let orphan = b.add_state("orphan");
        let s2 = b.add_state("s2");
        b.add_transition(s0, "x", s1);
        b.add_transition(s1, "y", s2);
        b.add_transition(orphan, "x", s2);
        let ts = b.build(s0).unwrap();
        let (r, map) = ts.restricted_to_reachable();
        assert_eq!(r.num_states(), 3);
        assert!(map.iter().all(|old| ts.state_name(*old) != "orphan"));
        assert_eq!(r.num_transitions(), 2);
    }

    #[test]
    fn duplicate_transitions_are_deduplicated() {
        let mut b = TransitionSystemBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "x", s1);
        b.add_transition(s0, "x", s1);
        let ts = b.build(s0).unwrap();
        assert_eq!(ts.num_transitions(), 1);
    }

    #[test]
    fn display_contains_arrows() {
        let ts = fig1_ts();
        let text = format!("{ts}");
        assert!(text.contains("s1 --a--> s2"));
        assert!(text.contains("7 states"));
    }
}
