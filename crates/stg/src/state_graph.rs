//! Binary-coded state graphs.
//!
//! The state graph (SG) of an STG is the reachability graph of its Petri net
//! together with a binary signal vector per state.  Construction checks
//! *consistency*: rising and falling transitions of each signal must
//! alternate along every firing sequence, so that every reachable marking
//! can be labelled with a unique vector of signal values (paper §4).  Once
//! consistency holds, the Complete State Coding property is what stands
//! between the specification and a logic implementation.

use crate::model::{Stg, TransitionLabel};
use crate::signal::{Polarity, Signal, SignalId};
use crate::StgError;
use bdd::Budget;
use petri::{Marking, TransId};
use std::collections::HashMap;
use ts::{EventId, StateId, TransitionSystem};

/// The binary-coded state graph of an STG.
#[derive(Clone, Debug)]
pub struct StateGraph {
    /// The reachability graph; event ids coincide with net transition ids.
    pub ts: TransitionSystem,
    /// The marking of every state.
    pub markings: Vec<Marking>,
    codes: Vec<u64>,
    signals: Vec<Signal>,
    event_labels: Vec<TransitionLabel>,
}

impl Stg {
    /// Builds the explicit binary-coded state graph, exploring at most
    /// `max_states` markings.
    ///
    /// # Errors
    ///
    /// Propagates reachability errors ([`StgError::Net`]) and reports
    /// [`StgError::Inconsistent`] if the STG is not consistently labelled.
    pub fn state_graph(&self, max_states: usize) -> Result<StateGraph, StgError> {
        self.state_graph_within(max_states, None)
    }

    /// [`Self::state_graph`] under a flow budget: the exploration checks
    /// the budget's deadline and cancel flag every 1,024 new markings
    /// ([`petri::PetriNet::reachability_graph_with`]).  Its node and step
    /// ceilings do not apply, since the exploration allocates no BDD node.
    ///
    /// # Errors
    ///
    /// Those of [`Self::state_graph`], and [`StgError::Budget`] once the
    /// deadline passes or the flow is cancelled.
    pub fn state_graph_within(
        &self,
        max_states: usize,
        budget: Option<&Budget>,
    ) -> Result<StateGraph, StgError> {
        let rg = self.net().reachability_graph_with(max_states, || match budget {
            Some(budget) => budget.check_deadline().map_err(StgError::Budget),
            None => Ok(()),
        })?;
        let num_states = rg.ts.num_states();
        let num_signals = self.num_signals();
        if num_signals > 64 {
            return Err(StgError::TooManySignals { count: num_signals });
        }

        let event_labels: Vec<TransitionLabel> =
            (0..self.net().num_transitions()).map(|t| self.label(TransId::from(t))).collect();

        // Constraint propagation: known[s] is the mask of signals whose value
        // in state s has been determined, value[s] holds those values.
        let mut known = vec![0u64; num_states];
        let mut value = vec![0u64; num_states];

        let set_bit = |state: StateId,
                       signal: usize,
                       bit: bool,
                       known: &mut Vec<u64>,
                       value: &mut Vec<u64>|
         -> Result<bool, StgError> {
            let mask = 1u64 << signal;
            let s = state.index();
            if known[s] & mask != 0 {
                let current = value[s] & mask != 0;
                if current != bit {
                    return Err(StgError::Inconsistent {
                        signal: self.signals()[signal].name.clone(),
                        state: format!("m{s}"),
                    });
                }
                return Ok(false);
            }
            known[s] |= mask;
            if bit {
                value[s] |= mask;
            }
            Ok(true)
        };

        // Iterate to a fixpoint.  Each pass walks every transition once; the
        // number of passes is bounded by the diameter of the graph.  Signals
        // whose edges are all toggles have no intrinsic anchor; they are
        // anchored to 0 in the initial state and propagation is re-run.
        loop {
            loop {
                let mut changed = false;
                for t in rg.ts.transitions() {
                    let label = event_labels[t.event.index()];
                    let (switching, polarity) = match label {
                        TransitionLabel::Edge { signal, polarity } => {
                            (Some(signal), Some(polarity))
                        }
                        TransitionLabel::Dummy => (None, None),
                    };
                    for sig in 0..num_signals {
                        let mask = 1u64 << sig;
                        if switching == Some(SignalId::from(sig)) {
                            match polarity.expect("edge label has a polarity") {
                                Polarity::Rise => {
                                    changed |=
                                        set_bit(t.source, sig, false, &mut known, &mut value)?;
                                    changed |=
                                        set_bit(t.target, sig, true, &mut known, &mut value)?;
                                }
                                Polarity::Fall => {
                                    changed |=
                                        set_bit(t.source, sig, true, &mut known, &mut value)?;
                                    changed |=
                                        set_bit(t.target, sig, false, &mut known, &mut value)?;
                                }
                                Polarity::Toggle => {
                                    if known[t.source.index()] & mask != 0 {
                                        let v = value[t.source.index()] & mask != 0;
                                        changed |=
                                            set_bit(t.target, sig, !v, &mut known, &mut value)?;
                                    }
                                    if known[t.target.index()] & mask != 0 {
                                        let v = value[t.target.index()] & mask != 0;
                                        changed |=
                                            set_bit(t.source, sig, !v, &mut known, &mut value)?;
                                    }
                                }
                            }
                        } else {
                            // The signal does not switch: the value is copied in
                            // both directions.
                            if known[t.source.index()] & mask != 0 {
                                let v = value[t.source.index()] & mask != 0;
                                changed |= set_bit(t.target, sig, v, &mut known, &mut value)?;
                            }
                            if known[t.target.index()] & mask != 0 {
                                let v = value[t.target.index()] & mask != 0;
                                changed |= set_bit(t.source, sig, v, &mut known, &mut value)?;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }

            // Anchor any signal whose value is still undetermined in the
            // initial state and run propagation again; if nothing needed
            // anchoring the codes are complete.
            let initial = rg.ts.initial();
            let mut anchored = false;
            for sig in 0..num_signals {
                if known[initial.index()] & (1u64 << sig) == 0 {
                    set_bit(initial, sig, false, &mut known, &mut value)?;
                    anchored = true;
                }
            }
            if !anchored {
                break;
            }
        }

        // Signals that never switch keep the default value 0 everywhere.
        Ok(StateGraph {
            ts: rg.ts,
            markings: rg.markings,
            codes: value,
            signals: self.signals().to_vec(),
            event_labels,
        })
    }
}

impl StateGraph {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.ts.num_states()
    }

    /// Number of signals.
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// The signals of the underlying STG.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// The label of a state-graph event (events coincide with net
    /// transitions).
    pub fn event_label(&self, event: EventId) -> TransitionLabel {
        self.event_labels[event.index()]
    }

    /// The binary code of `state`, one bit per signal (bit `i` = value of
    /// signal `i`).
    pub fn code(&self, state: StateId) -> u64 {
        self.codes[state.index()]
    }

    /// The value of `signal` in `state`.
    pub fn signal_value(&self, state: StateId, signal: SignalId) -> bool {
        self.codes[state.index()] & (1 << signal.index()) != 0
    }

    /// The signal edges enabled in `state`.
    ///
    /// Allocates a fresh vector; iterative callers should reuse a buffer
    /// via [`StateGraph::enabled_edges_into`].
    pub fn enabled_edges(&self, state: StateId) -> Vec<(SignalId, Polarity)> {
        let mut edges = Vec::new();
        self.enabled_edges_into(state, &mut edges);
        edges
    }

    /// Collects the signal edges enabled in `state` into `out` (cleared
    /// first, capacity retained across calls) — the allocation-free variant
    /// for per-state sweeps.
    pub fn enabled_edges_into(&self, state: StateId, out: &mut Vec<(SignalId, Polarity)>) {
        out.clear();
        for &(event, _) in self.ts.successors(state) {
            if let TransitionLabel::Edge { signal, polarity } = self.event_labels[event.index()] {
                if !out.contains(&(signal, polarity)) {
                    out.push((signal, polarity));
                }
            }
        }
    }

    /// Bit mask of the signals with an enabled edge in `state`.
    pub fn enabled_signal_mask(&self, state: StateId) -> u64 {
        let mut mask = 0u64;
        for &(event, _) in self.ts.successors(state) {
            if let TransitionLabel::Edge { signal, .. } = self.event_labels[event.index()] {
                mask |= 1 << signal.index();
            }
        }
        mask
    }

    /// Bit mask of the *non-input* signals with an enabled edge in `state`.
    pub fn enabled_non_input_mask(&self, state: StateId) -> u64 {
        let mut mask = 0u64;
        for &(event, _) in self.ts.successors(state) {
            if let TransitionLabel::Edge { signal, .. } = self.event_labels[event.index()] {
                if self.signals[signal.index()].kind.is_non_input() {
                    mask |= 1 << signal.index();
                }
            }
        }
        mask
    }

    /// The code of a state rendered as a string, one character per signal in
    /// id order, with `*` marking signals that are excited (enabled to
    /// switch) — the notation used in Fig. 3 of the paper.
    pub fn code_string(&self, state: StateId) -> String {
        let enabled = self.enabled_signal_mask(state);
        let mut out = String::new();
        for i in 0..self.num_signals() {
            out.push(if self.codes[state.index()] & (1 << i) != 0 { '1' } else { '0' });
            if enabled & (1 << i) != 0 {
                out.push('*');
            }
        }
        out
    }

    /// Returns `true` — construction already validated consistency; exposed
    /// so callers can assert the invariant explicitly in examples and tests.
    pub fn is_consistent(&self) -> bool {
        self.ts.transitions().iter().all(|t| match self.event_labels[t.event.index()] {
            TransitionLabel::Edge { signal, polarity } => {
                let before = self.signal_value(t.source, signal);
                let after = self.signal_value(t.target, signal);
                match polarity {
                    Polarity::Rise => !before && after,
                    Polarity::Fall => before && !after,
                    Polarity::Toggle => before != after,
                }
            }
            TransitionLabel::Dummy => self.code(t.source) == self.code(t.target),
        })
    }

    /// Returns `true` if no two distinct states share the same binary code
    /// (Unique State Coding).
    pub fn unique_state_coding_holds(&self) -> bool {
        let mut seen: HashMap<u64, StateId> = HashMap::new();
        for s in 0..self.num_states() {
            let s = StateId::from(s);
            if seen.insert(self.code(s), s).is_some() {
                return false;
            }
        }
        true
    }

    /// Returns `true` if Complete State Coding holds: any two states with
    /// the same binary code enable exactly the same non-input signals.
    pub fn complete_state_coding_holds(&self) -> bool {
        let mut by_code: HashMap<u64, u64> = HashMap::new();
        for s in 0..self.num_states() {
            let s = StateId::from(s);
            let mask = self.enabled_non_input_mask(s);
            match by_code.entry(self.code(s)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != mask {
                        return false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(mask);
                }
            }
        }
        true
    }

    /// Groups the states by binary code.
    pub fn states_by_code(&self) -> HashMap<u64, Vec<StateId>> {
        let mut map: HashMap<u64, Vec<StateId>> = HashMap::new();
        for s in 0..self.num_states() {
            let s = StateId::from(s);
            map.entry(self.code(s)).or_default().push(s);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalKind;
    use crate::StgBuilder;

    fn handshake() -> Stg {
        let mut b = StgBuilder::new("handshake");
        let req = b.add_signal("req", SignalKind::Input);
        let ack = b.add_signal("ack", SignalKind::Output);
        let rp = b.add_edge(req, Polarity::Rise);
        let ap = b.add_edge(ack, Polarity::Rise);
        let rm = b.add_edge(req, Polarity::Fall);
        let am = b.add_edge(ack, Polarity::Fall);
        b.connect_cycle(&[rp, ap, rm, am]);
        b.build().unwrap()
    }

    /// Two signals, output pulses twice per input cycle — the canonical
    /// small CSC-conflict example ("pulser").
    fn pulser() -> Stg {
        let mut b = StgBuilder::new("pulser");
        let x = b.add_signal("x", SignalKind::Input);
        let y = b.add_signal("y", SignalKind::Output);
        let xp = b.add_edge(x, Polarity::Rise);
        let yp1 = b.add_edge(y, Polarity::Rise);
        let ym1 = b.add_edge(y, Polarity::Fall);
        let xm = b.add_edge(x, Polarity::Fall);
        let yp2 = b.add_edge(y, Polarity::Rise);
        let ym2 = b.add_edge(y, Polarity::Fall);
        b.connect_cycle(&[xp, yp1, ym1, xm, yp2, ym2]);
        b.build().unwrap()
    }

    #[test]
    fn handshake_state_graph_codes() {
        let sg = handshake().state_graph(100).unwrap();
        assert_eq!(sg.num_states(), 4);
        assert!(sg.is_consistent());
        assert!(sg.unique_state_coding_holds());
        assert!(sg.complete_state_coding_holds());
        // Initial state: both signals 0, req+ enabled.
        let init = sg.ts.initial();
        assert_eq!(sg.code(init), 0);
        let req = SignalId::from(0usize);
        assert!(!sg.signal_value(init, req));
        assert_eq!(sg.enabled_edges(init), vec![(req, Polarity::Rise)]);
        // The buffer-reusing variant clears stale content and agrees with
        // the allocating one for every state.
        let mut buffer = vec![(SignalId::from(9usize), Polarity::Toggle)];
        for s in 0..sg.num_states() {
            let s = StateId::from(s);
            sg.enabled_edges_into(s, &mut buffer);
            assert_eq!(buffer, sg.enabled_edges(s));
        }
        assert_eq!(sg.enabled_non_input_mask(init), 0, "only the input is enabled initially");
        assert_eq!(sg.code_string(init), "0*0");
        // Codes cycle through 00 -> 10 -> 11 -> 01.
        let codes: std::collections::HashSet<u64> =
            (0..4).map(|i| sg.code(StateId::from(i))).collect();
        assert_eq!(codes, [0b00, 0b01, 0b10, 0b11].into_iter().collect());
    }

    #[test]
    fn pulser_has_csc_conflicts_but_is_consistent() {
        let sg = pulser().state_graph(100).unwrap();
        assert_eq!(sg.num_states(), 6);
        assert!(sg.is_consistent());
        assert!(!sg.unique_state_coding_holds());
        assert!(!sg.complete_state_coding_holds());
        // Exactly two code classes have two states each.
        let groups = sg.states_by_code();
        let multi: Vec<_> = groups.values().filter(|v| v.len() > 1).collect();
        assert_eq!(multi.len(), 2);
    }

    #[test]
    fn inconsistent_stg_is_rejected() {
        // x rises twice in a row without falling: inconsistent.
        let mut b = StgBuilder::new("bad");
        let x = b.add_signal("x", SignalKind::Output);
        let first = b.add_edge(x, Polarity::Rise);
        let second = b.add_edge(x, Polarity::Rise);
        b.connect_cycle(&[first, second]);
        let stg = b.build().unwrap();
        assert!(matches!(stg.state_graph(100).unwrap_err(), StgError::Inconsistent { .. }));
    }

    #[test]
    fn toggle_transitions_resolve_their_direction() {
        let mut b = StgBuilder::new("toggle");
        let c = b.add_signal("c", SignalKind::Output);
        let d = b.add_signal("d", SignalKind::Output);
        let c1 = b.add_edge(c, Polarity::Toggle);
        let dp = b.add_edge(d, Polarity::Rise);
        let c2 = b.add_edge(c, Polarity::Toggle);
        let dm = b.add_edge(d, Polarity::Fall);
        b.connect_cycle(&[c1, dp, c2, dm]);
        let stg = b.build().unwrap();
        let sg = stg.state_graph(100).unwrap();
        assert_eq!(sg.num_states(), 4);
        assert!(sg.is_consistent());
        // c alternates 0,1,0,1 around the cycle even though its edges are
        // toggles, because d's rise/fall anchors the code values.
        assert!(sg.unique_state_coding_holds());
    }

    #[test]
    fn dummy_transitions_keep_the_code() {
        let mut b = StgBuilder::new("dummy");
        let a = b.add_signal("a", SignalKind::Input);
        let ap = b.add_edge(a, Polarity::Rise);
        let eps = b.add_dummy("eps");
        let am = b.add_edge(a, Polarity::Fall);
        b.connect_cycle(&[ap, eps, am]);
        let sg = b.build().unwrap().state_graph(100).unwrap();
        assert!(sg.is_consistent());
        assert_eq!(sg.num_states(), 3);
        assert!(!sg.unique_state_coding_holds(), "the dummy creates two states with equal codes");
        // ... but CSC still holds because no non-input signal distinguishes
        // them (there are no outputs at all).
        assert!(sg.complete_state_coding_holds());
    }

    #[test]
    fn code_strings_mark_excited_signals() {
        let sg = pulser().state_graph(100).unwrap();
        let init = sg.ts.initial();
        // x is excited in the initial state (x+ enabled) and both signals are 0.
        assert_eq!(sg.code_string(init), "0*0");
    }
}
