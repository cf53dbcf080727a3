//! Incremental construction of transition systems.

use crate::{EventId, StateId, Transition, TransitionSystem, TsError};
use std::collections::HashMap;

/// Builder for [`TransitionSystem`].
///
/// States and events are interned by name; transitions may be added in any
/// order.  [`TransitionSystemBuilder::build`] validates the result.
///
/// # Example
///
/// ```
/// use ts::TransitionSystemBuilder;
///
/// let mut b = TransitionSystemBuilder::new();
/// let p = b.add_state("p");
/// let q = b.add_state("q");
/// b.add_transition(p, "go", q);
/// let ts = b.build(p)?;
/// assert_eq!(ts.num_transitions(), 1);
/// # Ok::<(), ts::TsError>(())
/// ```
#[derive(Default, Debug, Clone)]
pub struct TransitionSystemBuilder {
    state_names: Vec<String>,
    state_index: HashMap<String, StateId>,
    event_names: Vec<String>,
    event_index: HashMap<String, EventId>,
    transitions: Vec<Transition>,
}

impl TransitionSystemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or looks up) a state by name and returns its id.
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        let name = name.into();
        if let Some(&id) = self.state_index.get(&name) {
            return id;
        }
        let id = StateId::from(self.state_names.len());
        self.state_index.insert(name.clone(), id);
        self.state_names.push(name);
        id
    }

    /// Adds (or looks up) an event label and returns its id.
    pub fn add_event(&mut self, name: impl Into<String>) -> EventId {
        let name = name.into();
        if let Some(&id) = self.event_index.get(&name) {
            return id;
        }
        let id = EventId::from(self.event_names.len());
        self.event_index.insert(name.clone(), id);
        self.event_names.push(name);
        id
    }

    /// Adds a transition labelled with `event` (interned by name).
    pub fn add_transition(&mut self, source: StateId, event: impl Into<String>, target: StateId) {
        let event = self.add_event(event);
        self.transitions.push(Transition { source, event, target });
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// Number of events added so far.
    pub fn num_events(&self) -> usize {
        self.event_names.len()
    }

    /// Finalises the system with the given initial state.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::EmptySystem`] if no state was added,
    /// [`TsError::UnknownState`] if `initial` or any transition endpoint is
    /// out of range, and [`TsError::EmptyEventName`] if an event label is
    /// empty.
    pub fn build(self, initial: StateId) -> Result<TransitionSystem, TsError> {
        if self.event_names.iter().any(|n| n.is_empty()) {
            return Err(TsError::EmptyEventName);
        }
        TransitionSystem::from_parts(self.state_names, self.event_names, self.transitions, initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_reuses_ids() {
        let mut b = TransitionSystemBuilder::new();
        let a1 = b.add_state("a");
        let a2 = b.add_state("a");
        assert_eq!(a1, a2);
        let e1 = b.add_event("x");
        let e2 = b.add_event("x");
        assert_eq!(e1, e2);
        assert_eq!(b.num_states(), 1);
        assert_eq!(b.num_events(), 1);
    }

    #[test]
    fn build_rejects_empty_system() {
        let b = TransitionSystemBuilder::new();
        assert_eq!(b.build(StateId(0)).unwrap_err(), TsError::EmptySystem);
    }

    #[test]
    fn build_rejects_bad_initial() {
        let mut b = TransitionSystemBuilder::new();
        b.add_state("only");
        let err = b.build(StateId(3)).unwrap_err();
        assert_eq!(err, TsError::UnknownState { index: 3, num_states: 1 });
    }

    #[test]
    fn build_rejects_empty_event_name() {
        let mut b = TransitionSystemBuilder::new();
        let s = b.add_state("s");
        b.add_transition(s, "", s);
        assert_eq!(b.build(s).unwrap_err(), TsError::EmptyEventName);
    }
}
