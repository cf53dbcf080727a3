//! The Petri-net structure and firing rule.

use crate::{Marking, PetriError};
use std::fmt;

/// Identifier of a place.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PlaceId(pub u32);

/// Identifier of a transition.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransId(pub u32);

impl PlaceId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TransId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for PlaceId {
    fn from(value: usize) -> Self {
        PlaceId(value as u32)
    }
}

impl From<usize> for TransId {
    fn from(value: usize) -> Self {
        TransId(value as u32)
    }
}

/// A place-transition Petri net with an initial marking.
///
/// The net is immutable once built with [`crate::PetriNetBuilder`]; the
/// pre-set and post-set of every node are stored as packed, sorted vectors.
#[derive(Clone)]
pub struct PetriNet {
    place_names: Vec<String>,
    trans_names: Vec<String>,
    /// For each transition, the places it consumes from.
    pre: Vec<Vec<PlaceId>>,
    /// For each transition, the places it produces into.
    post: Vec<Vec<PlaceId>>,
    /// For each place, the transitions that consume from it.
    place_out: Vec<Vec<TransId>>,
    /// For each place, the transitions that produce into it.
    place_in: Vec<Vec<TransId>>,
    initial: Marking,
}

impl PetriNet {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        place_names: Vec<String>,
        trans_names: Vec<String>,
        pre: Vec<Vec<PlaceId>>,
        post: Vec<Vec<PlaceId>>,
        place_out: Vec<Vec<TransId>>,
        place_in: Vec<Vec<TransId>>,
        initial: Marking,
    ) -> Self {
        PetriNet { place_names, trans_names, pre, post, place_out, place_in, initial }
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.trans_names.len()
    }

    /// Total number of arcs in the flow relation.
    pub fn num_arcs(&self) -> usize {
        self.pre.iter().map(Vec::len).sum::<usize>() + self.post.iter().map(Vec::len).sum::<usize>()
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> &Marking {
        &self.initial
    }

    /// Name of a place.
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.place_names[place.index()]
    }

    /// Name of a transition.
    pub fn transition_name(&self, trans: TransId) -> &str {
        &self.trans_names[trans.index()]
    }

    /// Looks up a transition by name.
    pub fn transition_id(&self, name: &str) -> Option<TransId> {
        self.trans_names.iter().position(|n| n == name).map(TransId::from)
    }

    /// Looks up a place by name.
    pub fn place_id(&self, name: &str) -> Option<PlaceId> {
        self.place_names.iter().position(|n| n == name).map(PlaceId::from)
    }

    /// Pre-set of a transition (places it consumes from).
    pub fn preset(&self, trans: TransId) -> &[PlaceId] {
        &self.pre[trans.index()]
    }

    /// Post-set of a transition (places it produces into).
    pub fn postset(&self, trans: TransId) -> &[PlaceId] {
        &self.post[trans.index()]
    }

    /// Transitions consuming from `place`.
    pub fn place_postset(&self, place: PlaceId) -> &[TransId] {
        &self.place_out[place.index()]
    }

    /// Transitions producing into `place`.
    pub fn place_preset(&self, place: PlaceId) -> &[TransId] {
        &self.place_in[place.index()]
    }

    /// Returns `true` if `trans` is enabled in `marking`.
    pub fn is_enabled(&self, marking: &Marking, trans: TransId) -> bool {
        self.pre[trans.index()].iter().all(|&p| marking.is_marked(p))
    }

    /// All transitions enabled in `marking`.
    pub fn enabled_transitions(&self, marking: &Marking) -> Vec<TransId> {
        (0..self.num_transitions())
            .map(TransId::from)
            .filter(|&t| self.is_enabled(marking, t))
            .collect()
    }

    /// Fires `trans` in `marking`, returning the successor marking.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::NotSafe`] if firing would place a second token
    /// in a place (the paper's method requires safe nets).
    ///
    /// # Panics
    ///
    /// Panics if `trans` is not enabled; callers should check with
    /// [`PetriNet::is_enabled`] first.
    pub fn fire(&self, marking: &Marking, trans: TransId) -> Result<Marking, PetriError> {
        assert!(self.is_enabled(marking, trans), "transition {trans:?} is not enabled");
        let mut next = marking.clone();
        for &p in &self.pre[trans.index()] {
            next.set(p, false);
        }
        for &p in &self.post[trans.index()] {
            if next.is_marked(p) {
                return Err(PetriError::NotSafe {
                    place: self.place_name(p).to_owned(),
                    transition: self.transition_name(trans).to_owned(),
                });
            }
            next.set(p, true);
        }
        Ok(next)
    }

    /// Returns `true` if every place has at most one consumer and at most one
    /// producer (the net is a *marked graph*: no choice, only concurrency).
    pub fn is_marked_graph(&self) -> bool {
        (0..self.num_places()).all(|p| self.place_out[p].len() <= 1 && self.place_in[p].len() <= 1)
    }

    /// Returns `true` if the net is *free choice*: any two transitions that
    /// share an input place have identical pre-sets.
    pub fn is_free_choice(&self) -> bool {
        for p in 0..self.num_places() {
            let consumers = &self.place_out[p];
            for i in 0..consumers.len() {
                for j in (i + 1)..consumers.len() {
                    if self.pre[consumers[i].index()] != self.pre[consumers[j].index()] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl fmt::Debug for PetriNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PetriNet")
            .field("places", &self.num_places())
            .field("transitions", &self.num_transitions())
            .field("arcs", &self.num_arcs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::PetriNetBuilder;

    /// Builds the net of Fig. 1(b): a and b concurrent, then c, then a
    /// choice-free continuation.
    pub(crate) fn fig1_net() -> crate::PetriNet {
        let mut b = PetriNetBuilder::new();
        let p1 = b.add_place("p1", 1);
        let p2 = b.add_place("p2", 1);
        let p3 = b.add_place("p3", 0);
        let p4 = b.add_place("p4", 0);
        let p5 = b.add_place("p5", 0);
        let a = b.add_transition("a");
        let tb = b.add_transition("b");
        let c = b.add_transition("c");
        b.add_arc_place_to_transition(p1, a);
        b.add_arc_place_to_transition(p2, tb);
        b.add_arc_transition_to_place(a, p3);
        b.add_arc_transition_to_place(tb, p4);
        b.add_arc_place_to_transition(p3, c);
        b.add_arc_place_to_transition(p4, c);
        b.add_arc_transition_to_place(c, p5);
        b.build().unwrap()
    }

    #[test]
    fn structural_queries() {
        let net = fig1_net();
        assert_eq!(net.num_places(), 5);
        assert_eq!(net.num_transitions(), 3);
        assert_eq!(net.num_arcs(), 7);
        let c = net.transition_id("c").unwrap();
        assert_eq!(net.preset(c).len(), 2);
        assert_eq!(net.postset(c).len(), 1);
        let p3 = net.place_id("p3").unwrap();
        assert_eq!(net.place_preset(p3).len(), 1);
        assert_eq!(net.place_postset(p3).len(), 1);
        assert!(net.is_marked_graph());
        assert!(net.is_free_choice());
    }

    #[test]
    fn firing_moves_tokens() {
        let net = fig1_net();
        let a = net.transition_id("a").unwrap();
        let c = net.transition_id("c").unwrap();
        let m0 = net.initial_marking().clone();
        assert!(net.is_enabled(&m0, a));
        assert!(!net.is_enabled(&m0, c));
        let m1 = net.fire(&m0, a).unwrap();
        assert!(m1.is_marked(net.place_id("p3").unwrap()));
        assert!(!m1.is_marked(net.place_id("p1").unwrap()));
        assert_eq!(net.enabled_transitions(&m0).len(), 2);
        assert_eq!(net.enabled_transitions(&m1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "not enabled")]
    fn firing_a_disabled_transition_panics() {
        let net = fig1_net();
        let c = net.transition_id("c").unwrap();
        let _ = net.fire(net.initial_marking(), c);
    }

    #[test]
    fn unsafe_firing_is_reported() {
        let mut b = PetriNetBuilder::new();
        let p0 = b.add_place("p0", 1);
        let sink = b.add_place("sink", 1);
        let t = b.add_transition("t");
        b.add_arc_place_to_transition(p0, t);
        b.add_arc_transition_to_place(t, sink);
        let net = b.build().unwrap();
        let err = net.fire(net.initial_marking(), net.transition_id("t").unwrap()).unwrap_err();
        assert!(matches!(err, crate::PetriError::NotSafe { .. }));
    }

    #[test]
    fn non_free_choice_detection() {
        let mut b = PetriNetBuilder::new();
        let shared = b.add_place("shared", 1);
        let extra = b.add_place("extra", 1);
        let t1 = b.add_transition("t1");
        let t2 = b.add_transition("t2");
        let out = b.add_place("out", 0);
        b.add_arc_place_to_transition(shared, t1);
        b.add_arc_place_to_transition(shared, t2);
        b.add_arc_place_to_transition(extra, t2);
        b.add_arc_transition_to_place(t1, out);
        let net = b.build().unwrap();
        assert!(!net.is_free_choice());
        assert!(!net.is_marked_graph());
    }
}
