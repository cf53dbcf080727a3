//! The encoded graph the solver iterates on.
//!
//! After a state signal has been inserted the state graph no longer
//! corresponds to any existing Petri net, so the solver works on a
//! self-contained structure: a transition system whose events are labelled
//! with signal edges, plus a binary code per state.  Codes are recomputed
//! from the labels by the same constraint-propagation pass that the `stg`
//! crate uses, which doubles as a consistency check of every insertion.

use crate::CscError;
use stg::{Polarity, Signal, SignalId, SignalKind, StateGraph, TransitionLabel};
use ts::{EventId, StateId, TransitionSystem};

/// A binary-encoded transition system: the object the CSC solver transforms.
#[derive(Clone, Debug)]
pub struct EncodedGraph {
    /// The transition system.
    pub ts: TransitionSystem,
    /// The binary code of every state (bit `i` = value of signal `i`).
    pub codes: Vec<u64>,
    /// All signals, indexed by bit position.
    pub signals: Vec<Signal>,
    /// The signal edge carried by every event (`None` for dummies).
    pub event_edges: Vec<Option<(SignalId, Polarity)>>,
}

impl EncodedGraph {
    /// Builds an encoded graph from an STG state graph.
    pub fn from_state_graph(sg: &StateGraph) -> Self {
        let event_edges = (0..sg.ts.num_events())
            .map(|e| match sg.event_label(EventId::from(e)) {
                TransitionLabel::Edge { signal, polarity } => Some((signal, polarity)),
                TransitionLabel::Dummy => None,
            })
            .collect();
        EncodedGraph {
            ts: sg.ts.clone(),
            codes: (0..sg.num_states()).map(|s| sg.code(StateId::from(s))).collect(),
            signals: sg.signals().to_vec(),
            event_edges,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.ts.num_states()
    }

    /// Number of signals.
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// The code of `state`.
    pub fn code(&self, state: StateId) -> u64 {
        self.codes[state.index()]
    }

    /// Bit mask of the non-input signals with an enabled edge in `state`.
    pub fn enabled_non_input_mask(&self, state: StateId) -> u64 {
        let mut mask = 0u64;
        for &(event, _) in self.ts.successors(state) {
            if let Some((signal, _)) = self.event_edges[event.index()] {
                if self.signals[signal.index()].kind.is_non_input() {
                    mask |= 1 << signal.index();
                }
            }
        }
        mask
    }

    /// Returns `true` if `event` is labelled with an edge of an input signal.
    pub fn is_input_event(&self, event: EventId) -> bool {
        match self.event_edges[event.index()] {
            Some((signal, _)) => self.signals[signal.index()].kind == SignalKind::Input,
            None => false,
        }
    }

    /// Returns `true` if Complete State Coding holds.
    pub fn complete_state_coding_holds(&self) -> bool {
        crate::conflicts::conflict_pairs(self).is_empty()
    }

    /// Returns `true` if Unique State Coding holds (no two states share a
    /// code at all).
    pub fn unique_state_coding_holds(&self) -> bool {
        // FxHash, not SipHash: codes are program-generated integers.
        let mut seen = bdd::FxHashSet::default();
        self.codes.iter().all(|c| seen.insert(*c))
    }

    /// Recomputes every state code from the event labels by constraint
    /// propagation, validating consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CscError::InconsistentInsertion`] naming `context` if the
    /// labelling admits no consistent code assignment.
    pub fn recompute_codes(&mut self, context: &str) -> Result<(), CscError> {
        let num_states = self.ts.num_states();
        let num_signals = self.signals.len();
        let mut known = vec![0u64; num_states];
        let mut value = vec![0u64; num_states];

        let set_bit = |state: StateId,
                       signal: usize,
                       bit: bool,
                       known: &mut Vec<u64>,
                       value: &mut Vec<u64>|
         -> Result<bool, CscError> {
            let mask = 1u64 << signal;
            let s = state.index();
            if known[s] & mask != 0 {
                if (value[s] & mask != 0) != bit {
                    return Err(CscError::InconsistentInsertion { signal: context.to_owned() });
                }
                return Ok(false);
            }
            known[s] |= mask;
            if bit {
                value[s] |= mask;
            }
            Ok(true)
        };

        loop {
            loop {
                let mut changed = false;
                for t in self.ts.transitions() {
                    let edge = self.event_edges[t.event.index()];
                    for sig in 0..num_signals {
                        let mask = 1u64 << sig;
                        match edge {
                            Some((signal, polarity)) if signal.index() == sig => match polarity {
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
                            },
                            _ => {
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
                }
                if !changed {
                    break;
                }
            }
            let initial = self.ts.initial();
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

        self.codes = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::benchmarks;

    #[test]
    fn from_state_graph_preserves_codes_and_properties() {
        let sg = benchmarks::pulser().state_graph(1_000).unwrap();
        let graph = EncodedGraph::from_state_graph(&sg);
        assert_eq!(graph.num_states(), sg.num_states());
        assert_eq!(graph.num_signals(), 2);
        for s in 0..graph.num_states() {
            let s = StateId::from(s);
            assert_eq!(graph.code(s), sg.code(s));
            assert_eq!(graph.enabled_non_input_mask(s), sg.enabled_non_input_mask(s));
        }
        assert!(!graph.complete_state_coding_holds());
        assert!(!graph.unique_state_coding_holds());
    }

    #[test]
    fn recompute_codes_is_stable() {
        let sg = benchmarks::vme_read().state_graph(10_000).unwrap();
        let mut graph = EncodedGraph::from_state_graph(&sg);
        let before = graph.codes.clone();
        graph.recompute_codes("vme").unwrap();
        assert_eq!(before, graph.codes, "recomputation must reproduce the original codes");
    }

    #[test]
    fn input_event_classification() {
        let sg = benchmarks::handshake().state_graph(100).unwrap();
        let graph = EncodedGraph::from_state_graph(&sg);
        let req_plus = graph.ts.event_id("req+").unwrap();
        let ack_plus = graph.ts.event_id("ack+").unwrap();
        assert!(graph.is_input_event(req_plus));
        assert!(!graph.is_input_event(ack_plus));
    }
}
