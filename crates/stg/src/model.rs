//! The STG model and its builder.

use crate::signal::{Polarity, Signal, SignalId, SignalKind};
use crate::StgError;
use petri::{PetriNet, PetriNetBuilder, PlaceId, TransId};
use std::collections::HashMap;
use std::fmt;

/// The interpretation of one Petri-net transition of an STG.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum TransitionLabel {
    /// A rising or falling edge of a signal.
    Edge {
        /// The signal.
        signal: SignalId,
        /// The direction of the edge.
        polarity: Polarity,
    },
    /// A dummy (silent) event that changes no signal.
    Dummy,
}

/// A Signal Transition Graph: a labelled safe Petri net.
///
/// Use [`StgBuilder`] to construct STGs programmatically or
/// [`crate::parse_g`] to read the `.g` interchange format.
#[derive(Clone)]
pub struct Stg {
    net: PetriNet,
    signals: Vec<Signal>,
    labels: Vec<TransitionLabel>,
    name: String,
}

impl Stg {
    pub(crate) fn from_parts(
        net: PetriNet,
        signals: Vec<Signal>,
        labels: Vec<TransitionLabel>,
        name: String,
    ) -> Self {
        debug_assert_eq!(net.num_transitions(), labels.len());
        Stg { net, signals, labels, name }
    }

    /// Wraps an existing labelled Petri net as an STG.
    ///
    /// This is the constructor used when an STG is *re-synthesized* from a
    /// transition system (e.g. after state-signal insertion): the caller
    /// provides the net, the signal table and one label per net transition.
    ///
    /// # Errors
    ///
    /// Returns [`StgError::UnknownName`] if `labels` does not have exactly
    /// one entry per transition or references a signal outside the table.
    pub fn from_labelled_net(
        net: PetriNet,
        signals: Vec<Signal>,
        labels: Vec<TransitionLabel>,
        name: impl Into<String>,
    ) -> Result<Self, StgError> {
        if labels.len() != net.num_transitions() {
            return Err(StgError::UnknownName {
                name: format!("expected {} labels, got {}", net.num_transitions(), labels.len()),
            });
        }
        for label in &labels {
            if let TransitionLabel::Edge { signal, .. } = label {
                if signal.index() >= signals.len() {
                    return Err(StgError::UnknownName {
                        name: format!("signal #{}", signal.index()),
                    });
                }
            }
        }
        Ok(Stg::from_parts(net, signals, labels, name.into()))
    }

    /// The underlying Petri net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// The model name (used by the `.g` writer).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All signals, indexed by [`SignalId`].
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Number of signals.
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// The signal with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// Looks up a signal by name.
    pub fn signal_id(&self, name: &str) -> Option<SignalId> {
        self.signals.iter().position(|s| s.name == name).map(SignalId::from)
    }

    /// The label of a net transition.
    pub fn label(&self, trans: TransId) -> TransitionLabel {
        self.labels[trans.index()]
    }

    /// All transition labels, indexed by [`TransId`].
    pub fn labels(&self) -> &[TransitionLabel] {
        &self.labels
    }

    /// Ids of all internal signals.
    pub fn internal_signals(&self) -> Vec<SignalId> {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SignalKind::Internal)
            .map(|(i, _)| SignalId::from(i))
            .collect()
    }

    /// Ids of all non-input (circuit-driven) signals.
    pub fn non_input_signals(&self) -> Vec<SignalId> {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind.is_non_input())
            .map(|(i, _)| SignalId::from(i))
            .collect()
    }

    /// Summary statistics: (places, transitions, signals).
    pub fn stats(&self) -> (usize, usize, usize) {
        (self.net.num_places(), self.net.num_transitions(), self.signals.len())
    }
}

impl fmt::Debug for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (p, t, s) = self.stats();
        f.debug_struct("Stg")
            .field("name", &self.name)
            .field("places", &p)
            .field("transitions", &t)
            .field("signals", &s)
            .finish()
    }
}

/// Builder for [`Stg`].
///
/// # Example
///
/// ```
/// use stg::{StgBuilder, Polarity, SignalKind};
///
/// // A single four-phase handshake: req+ ; ack+ ; req- ; ack-.
/// let mut b = StgBuilder::new("handshake");
/// let req = b.add_signal("req", SignalKind::Input);
/// let ack = b.add_signal("ack", SignalKind::Output);
/// let rp = b.add_edge(req, Polarity::Rise);
/// let ap = b.add_edge(ack, Polarity::Rise);
/// let rm = b.add_edge(req, Polarity::Fall);
/// let am = b.add_edge(ack, Polarity::Fall);
/// b.connect_cycle(&[rp, ap, rm, am]);
/// let stg = b.build()?;
/// assert_eq!(stg.num_signals(), 2);
/// assert_eq!(stg.net().num_transitions(), 4);
/// # Ok::<(), stg::StgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StgBuilder {
    name: String,
    signals: Vec<Signal>,
    signal_index: HashMap<String, SignalId>,
    net: PetriNetBuilder,
    labels: Vec<TransitionLabel>,
    instance_counts: HashMap<(SignalId, Polarity), u32>,
    place_counter: usize,
}

impl StgBuilder {
    /// Creates an empty builder for a model with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        StgBuilder {
            name: name.into(),
            signals: Vec::new(),
            signal_index: HashMap::new(),
            net: PetriNetBuilder::new(),
            labels: Vec::new(),
            instance_counts: HashMap::new(),
            place_counter: 0,
        }
    }

    /// Declares (or looks up) a signal.  The kind of an existing signal is
    /// left unchanged.
    pub fn add_signal(&mut self, name: impl Into<String>, kind: SignalKind) -> SignalId {
        let name = name.into();
        if let Some(&id) = self.signal_index.get(&name) {
            return id;
        }
        let id = SignalId::from(self.signals.len());
        self.signal_index.insert(name.clone(), id);
        self.signals.push(Signal { name, kind });
        id
    }

    /// Declares an input signal.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalId {
        self.add_signal(name, SignalKind::Input)
    }

    /// Declares an output signal.
    pub fn add_output(&mut self, name: impl Into<String>) -> SignalId {
        self.add_signal(name, SignalKind::Output)
    }

    /// Adds a transition labelled with an edge of `signal`.  Repeated edges
    /// of the same signal and polarity get `/2`, `/3`, … instance suffixes.
    ///
    /// # Panics
    ///
    /// Panics if `signal` was not declared with this builder.
    pub fn add_edge(&mut self, signal: SignalId, polarity: Polarity) -> TransId {
        assert!(signal.index() < self.signals.len(), "undeclared signal {signal:?}");
        let counter = self.instance_counts.entry((signal, polarity)).or_insert(0);
        *counter += 1;
        let base = format!("{}{}", self.signals[signal.index()].name, polarity.suffix());
        let name = if *counter == 1 { base } else { format!("{base}/{counter}") };
        let trans = self.net.add_transition(name);
        debug_assert_eq!(trans.index(), self.labels.len());
        self.labels.push(TransitionLabel::Edge { signal, polarity });
        trans
    }

    /// Adds a dummy (silent) transition.
    pub fn add_dummy(&mut self, name: impl Into<String>) -> TransId {
        let trans = self.net.add_transition(name);
        debug_assert_eq!(trans.index(), self.labels.len());
        self.labels.push(TransitionLabel::Dummy);
        trans
    }

    /// Adds an explicit place.
    pub fn add_place(&mut self, name: impl Into<String>, marked: bool) -> PlaceId {
        self.net.add_place(name, u32::from(marked))
    }

    /// Puts an initial token on an already-created place.
    pub fn mark_place(&mut self, place: PlaceId) {
        self.net.mark_place(place);
    }

    /// Adds an arc from a place to a transition.
    pub fn arc_place_to_transition(&mut self, place: PlaceId, trans: TransId) {
        self.net.add_arc_place_to_transition(place, trans);
    }

    /// Adds an arc from a transition to a place.
    pub fn arc_transition_to_place(&mut self, trans: TransId, place: PlaceId) {
        self.net.add_arc_transition_to_place(trans, place);
    }

    /// Connects `from` to `to` through a fresh implicit place; `marked`
    /// places an initial token on it.
    pub fn connect(&mut self, from: TransId, to: TransId, marked: bool) -> PlaceId {
        self.place_counter += 1;
        let name = format!("p{}", self.place_counter);
        self.net.connect(from, to, name, marked)
    }

    /// Connects the given transitions in a cycle `t0 → t1 → … → t0`, with
    /// the initial token on the place entering `t0` (so `t0` is enabled in
    /// the initial marking).
    pub fn connect_cycle(&mut self, transitions: &[TransId]) {
        for window in transitions.windows(2) {
            self.connect(window[0], window[1], false);
        }
        if let (Some(&last), Some(&first)) = (transitions.last(), transitions.first()) {
            self.connect(last, first, true);
        }
    }

    /// Connects the given transitions in a linear chain `t0 → t1 → …`
    /// without closing the cycle.
    pub fn connect_chain(&mut self, transitions: &[TransId]) {
        for window in transitions.windows(2) {
            self.connect(window[0], window[1], false);
        }
    }

    /// Finalises the STG.
    ///
    /// The signal count is unbounded: only the *explicit* state-graph
    /// engine packs codes into a 64-bit word
    /// ([`StgError::TooManySignals`] is raised there); the symbolic engine
    /// and the symbolic logic back-end handle any width.
    ///
    /// # Errors
    ///
    /// Returns [`StgError::Net`] if the underlying net is malformed.
    pub fn build(self) -> Result<Stg, StgError> {
        let net = self.net.build()?;
        Ok(Stg::from_parts(net, self.signals, self.labels, self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let mut b = StgBuilder::new("toy");
        let a = b.add_input("a");
        let z = b.add_output("z");
        let ap = b.add_edge(a, Polarity::Rise);
        let zp = b.add_edge(z, Polarity::Rise);
        let am = b.add_edge(a, Polarity::Fall);
        let zm = b.add_edge(z, Polarity::Fall);
        b.connect_cycle(&[ap, zp, am, zm]);
        let stg = b.build().unwrap();
        assert_eq!(stg.name(), "toy");
        assert_eq!(stg.stats(), (4, 4, 2));
        assert_eq!(stg.signal_id("z"), Some(z));
        assert_eq!(stg.signal(a).kind, SignalKind::Input);
        assert_eq!(stg.non_input_signals(), vec![z]);
        assert!(matches!(
            stg.label(ap),
            TransitionLabel::Edge { signal, polarity: Polarity::Rise } if signal == a
        ));
    }

    #[test]
    fn repeated_edges_get_instance_suffixes() {
        let mut b = StgBuilder::new("multi");
        let x = b.add_output("x");
        let first = b.add_edge(x, Polarity::Rise);
        let second = b.add_edge(x, Polarity::Rise);
        let fall = b.add_edge(x, Polarity::Fall);
        b.connect_cycle(&[first, fall, second]);
        // Need the second fall too for consistency, but name checking is the
        // point here.
        let stg = b.build().unwrap();
        assert_eq!(stg.net().transition_name(first), "x+");
        assert_eq!(stg.net().transition_name(second), "x+/2");
        assert_eq!(stg.net().transition_name(fall), "x-");
    }

    #[test]
    fn dummies_are_supported() {
        let mut b = StgBuilder::new("dummy");
        let a = b.add_input("a");
        let ap = b.add_edge(a, Polarity::Rise);
        let d = b.add_dummy("eps");
        let am = b.add_edge(a, Polarity::Fall);
        b.connect_cycle(&[ap, d, am]);
        let stg = b.build().unwrap();
        assert_eq!(stg.label(d), TransitionLabel::Dummy);
        assert_eq!(stg.internal_signals().len(), 0);
    }

    #[test]
    fn too_many_signals_is_rejected() {
        let mut b = StgBuilder::new("big");
        for i in 0..65 {
            b.add_output(format!("s{i}"));
        }
        let s0 = b.signal_index_for_test("s0");
        let up = b.add_edge(s0, Polarity::Rise);
        let dn = b.add_edge(s0, Polarity::Fall);
        b.connect_cycle(&[up, dn]);
        // Wide STGs build fine (the symbolic engines have no width limit);
        // only the explicit u64-coded state graph rejects them.
        let stg = b.build().unwrap();
        assert_eq!(stg.num_signals(), 65);
        assert!(matches!(
            stg.state_graph(1_000).unwrap_err(),
            StgError::TooManySignals { count: 65 }
        ));
    }

    impl StgBuilder {
        fn signal_index_for_test(&self, name: &str) -> SignalId {
            self.signal_index[name]
        }
    }

    #[test]
    fn signal_kind_is_not_overwritten() {
        let mut b = StgBuilder::new("kinds");
        let a1 = b.add_input("a");
        let a2 = b.add_output("a");
        assert_eq!(a1, a2);
        let up = b.add_edge(a1, Polarity::Rise);
        let dn = b.add_edge(a1, Polarity::Fall);
        b.connect_cycle(&[up, dn]);
        let stg = b.build().unwrap();
        assert_eq!(stg.signal(a1).kind, SignalKind::Input);
    }
}
