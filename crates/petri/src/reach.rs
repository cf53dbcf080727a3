//! Explicit reachability-graph construction.

use crate::{Marking, PetriError, PetriNet, TransId};
use std::collections::HashMap;
use std::collections::VecDeque;
use ts::{StateId, TransitionSystem, TransitionSystemBuilder};

/// The reachability graph of a safe Petri net.
///
/// States of the embedded [`TransitionSystem`] correspond one-to-one to the
/// reachable markings (`markings[state.index()]`); events correspond to net
/// transitions and carry the same names.
#[derive(Clone, Debug)]
pub struct ReachabilityGraph {
    /// The reachability graph as a transition system.
    pub ts: TransitionSystem,
    /// The marking of every state, indexed by [`StateId`].
    pub markings: Vec<Marking>,
}

impl ReachabilityGraph {
    /// The marking associated with `state`.
    pub fn marking(&self, state: StateId) -> &Marking {
        &self.markings[state.index()]
    }

    /// Finds the state whose marking equals `marking`, if it is reachable.
    pub fn state_of(&self, marking: &Marking) -> Option<StateId> {
        self.markings.iter().position(|m| m == marking).map(StateId::from)
    }
}

/// How many new markings the exploration adds between two calls of its
/// poll ([`PetriNet::reachability_graph_with`]).
const POLL_INTERVAL: usize = 1024;

impl PetriNet {
    /// Builds the explicit reachability graph of the net, exploring at most
    /// `max_states` markings.
    ///
    /// # Errors
    ///
    /// * [`PetriError::NotSafe`] if some reachable firing puts two tokens in
    ///   a place,
    /// * [`PetriError::StateLimitExceeded`] if more than `max_states`
    ///   markings are reachable,
    /// * [`PetriError::DeadInitialMarking`] if the initial marking enables no
    ///   transition (specifications of autonomous circuits are cyclic, so a
    ///   dead initial marking always indicates a modelling error).
    pub fn reachability_graph(&self, max_states: usize) -> Result<ReachabilityGraph, PetriError> {
        self.reachability_graph_with(max_states, || Ok(()))
    }

    /// [`Self::reachability_graph`], calling `poll` once every 1,024 new
    /// markings: an error from it ends the exploration and is returned as
    /// is.  A caller polls a deadline or a cancel flag this way.
    ///
    /// # Errors
    ///
    /// Those of [`Self::reachability_graph`], converted into `E`, and the
    /// poll's.
    pub fn reachability_graph_with<E: From<PetriError>>(
        &self,
        max_states: usize,
        mut poll: impl FnMut() -> Result<(), E>,
    ) -> Result<ReachabilityGraph, E> {
        if self.enabled_transitions(self.initial_marking()).is_empty() {
            return Err(PetriError::DeadInitialMarking.into());
        }

        let mut builder = TransitionSystemBuilder::new();
        // Intern all event names up front so that event ids equal transition ids.
        for t in 0..self.num_transitions() {
            builder.add_event(self.transition_name(TransId::from(t)));
        }

        let mut markings: Vec<Marking> = Vec::new();
        let mut index: HashMap<Marking, StateId> = HashMap::new();
        let mut queue: VecDeque<StateId> = VecDeque::new();

        let initial = self.initial_marking().clone();
        let initial_state = builder.add_state(format!("m{}", markings.len()));
        index.insert(initial.clone(), initial_state);
        markings.push(initial);
        queue.push_back(initial_state);

        while let Some(state) = queue.pop_front() {
            let marking = markings[state.index()].clone();
            for t in self.enabled_transitions(&marking) {
                let next = self.fire(&marking, t)?;
                let next_state = if let Some(&existing) = index.get(&next) {
                    existing
                } else {
                    if markings.len() >= max_states {
                        return Err(PetriError::StateLimitExceeded { limit: max_states }.into());
                    }
                    if markings.len() % POLL_INTERVAL == 0 {
                        poll()?;
                    }
                    let fresh = builder.add_state(format!("m{}", markings.len()));
                    index.insert(next.clone(), fresh);
                    markings.push(next);
                    queue.push_back(fresh);
                    fresh
                };
                builder.add_transition(state, self.transition_name(t), next_state);
            }
        }

        let ts = builder
            .build(StateId(0))
            .expect("reachability construction always produces a valid system");
        Ok(ReachabilityGraph { ts, markings })
    }

    /// Returns `true` if the net is safe (1-bounded), exploring at most
    /// `max_states` markings.
    pub fn is_safe(&self, max_states: usize) -> Result<bool, PetriError> {
        match self.reachability_graph(max_states) {
            Ok(_) => Ok(true),
            Err(PetriError::NotSafe { .. }) => Ok(false),
            Err(other) => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::PetriNetBuilder;

    fn two_stage_pipeline() -> crate::PetriNet {
        let mut b = PetriNetBuilder::new();
        let t: Vec<_> = (0..3).map(|i| b.add_transition(format!("t{i}"))).collect();
        b.connect(t[0], t[1], "s0_full", false);
        b.connect(t[1], t[0], "s0_empty", true);
        b.connect(t[1], t[2], "s1_full", false);
        b.connect(t[2], t[1], "s1_empty", true);
        b.build().unwrap()
    }

    #[test]
    fn pipeline_reachability_graph_shape() {
        let net = two_stage_pipeline();
        let rg = net.reachability_graph(100).unwrap();
        // Two independent buffers each full/empty, constrained by ordering:
        // reachable markings are (e,e), (f,e), (e,f), (f,f) = 4.
        assert_eq!(rg.ts.num_states(), 4);
        assert!(rg.ts.is_deterministic());
        assert_eq!(rg.markings.len(), 4);
        assert_eq!(rg.state_of(net.initial_marking()), Some(ts::StateId(0)));
        assert!(net.is_safe(100).unwrap());
    }

    #[test]
    fn marking_lookup_round_trips() {
        let net = two_stage_pipeline();
        let rg = net.reachability_graph(100).unwrap();
        for i in 0..rg.ts.num_states() {
            let state = ts::StateId::from(i);
            assert_eq!(rg.state_of(rg.marking(state)), Some(state));
        }
    }

    #[test]
    fn state_limit_is_enforced() {
        let net = two_stage_pipeline();
        let err = net.reachability_graph(2).unwrap_err();
        assert!(matches!(err, crate::PetriError::StateLimitExceeded { limit: 2 }));
    }

    #[test]
    fn unsafe_net_is_detected() {
        let mut b = PetriNetBuilder::new();
        let src = b.add_place("src", 1);
        let dst = b.add_place("dst", 1);
        let t = b.add_transition("t");
        let back = b.add_transition("back");
        b.add_arc_place_to_transition(src, t);
        b.add_arc_transition_to_place(t, dst);
        b.add_arc_place_to_transition(dst, back);
        b.add_arc_transition_to_place(back, src);
        let net = b.build().unwrap();
        assert!(!net.is_safe(100).unwrap());
    }

    #[test]
    fn dead_initial_marking_is_an_error() {
        let mut b = PetriNetBuilder::new();
        let p = b.add_place("p", 0);
        let t = b.add_transition("t");
        b.add_arc_place_to_transition(p, t);
        let net = b.build().unwrap();
        assert!(matches!(
            net.reachability_graph(10).unwrap_err(),
            crate::PetriError::DeadInitialMarking
        ));
    }

    #[test]
    fn event_ids_match_transition_ids() {
        let net = two_stage_pipeline();
        let rg = net.reachability_graph(100).unwrap();
        for t in 0..net.num_transitions() {
            let name = net.transition_name(crate::TransId::from(t));
            assert_eq!(rg.ts.event_id(name).unwrap().index(), t);
        }
    }
}
