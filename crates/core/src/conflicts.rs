//! CSC conflict detection.
//!
//! Two states are in *CSC conflict* when they carry the same binary signal
//! code but enable different sets of non-input signals (paper §4): no logic
//! function of the signal values can then tell them apart, so the non-input
//! signals cannot be implemented.  States with equal codes and equal enabled
//! non-input sets (USC violations that are not CSC violations) are harmless.
//!
//! The solver runs [`conflict_pairs`] once per iteration.

use crate::EncodedGraph;
use ts::StateId;

/// A pair of states witnessing a CSC violation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CscConflict {
    /// First state (smaller id).
    pub a: StateId,
    /// Second state.
    pub b: StateId,
    /// The shared binary code.
    pub code: u64,
}

/// Enumerates every CSC conflict pair of the graph, sorted by
/// `(code, a, b)` so that runs are deterministic.
pub fn conflict_pairs(graph: &EncodedGraph) -> Vec<CscConflict> {
    let mut states: Vec<StateId> = (0..graph.num_states()).map(StateId::from).collect();
    states.sort_unstable_by_key(|&s| (graph.code(s), s));
    let mut out = Vec::new();
    for bucket in states.chunk_by(|&a, &b| graph.code(a) == graph.code(b)) {
        if bucket.len() < 2 {
            continue;
        }
        let code = graph.code(bucket[0]);
        // One enabled mask per state, not one per pair.
        let masks: Vec<u64> = bucket.iter().map(|&s| graph.enabled_non_input_mask(s)).collect();
        for i in 0..bucket.len() {
            for j in (i + 1)..bucket.len() {
                if masks[i] != masks[j] {
                    out.push(CscConflict { a: bucket[i], b: bucket[j], code });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodedGraph;
    use stg::benchmarks;

    fn graph_of(stg: &stg::Stg) -> EncodedGraph {
        EncodedGraph::from_state_graph(&stg.state_graph(100_000).unwrap())
    }

    #[test]
    fn handshake_has_no_conflicts() {
        let graph = graph_of(&benchmarks::handshake());
        assert!(conflict_pairs(&graph).is_empty());
        assert!(graph.unique_state_coding_holds());
        assert!(graph.complete_state_coding_holds());
    }

    #[test]
    fn pulser_has_exactly_two_conflict_pairs() {
        let graph = graph_of(&benchmarks::pulser());
        let conflicts = conflict_pairs(&graph);
        assert_eq!(conflicts.len(), 2);
        for c in &conflicts {
            assert_eq!(graph.code(c.a), graph.code(c.b));
            assert_ne!(graph.enabled_non_input_mask(c.a), graph.enabled_non_input_mask(c.b));
            assert!(c.a < c.b);
        }
        assert!(!graph.complete_state_coding_holds());
    }

    #[test]
    fn vme_read_has_conflicts() {
        let graph = graph_of(&benchmarks::vme_read());
        assert!(!conflict_pairs(&graph).is_empty());
    }

    #[test]
    fn sequencer_conflicts_grow_with_length() {
        let small = conflict_pairs(&graph_of(&benchmarks::sequencer(2))).len();
        let large = conflict_pairs(&graph_of(&benchmarks::sequencer(6))).len();
        assert!(large > small);
    }

    #[test]
    fn usc_violations_need_not_be_csc_violations() {
        // A dummy event duplicates a code without touching outputs.
        use stg::{Polarity, StgBuilder};
        let mut b = StgBuilder::new("dummy");
        let a = b.add_input("a");
        let ap = b.add_edge(a, Polarity::Rise);
        let eps = b.add_dummy("eps");
        let am = b.add_edge(a, Polarity::Fall);
        b.connect_cycle(&[ap, eps, am]);
        let graph = graph_of(&b.build().unwrap());
        assert!(conflict_pairs(&graph).is_empty());
        assert!(!graph.unique_state_coding_holds());
        assert!(graph.complete_state_coding_holds());
    }

    #[test]
    fn conflict_enumeration_is_deterministic() {
        let graph = graph_of(&benchmarks::sequencer(4));
        let first = conflict_pairs(&graph);
        let second = conflict_pairs(&graph);
        assert_eq!(first, second);
        assert!(first
            .windows(2)
            .all(|w| (w[0].code, w[0].a, w[0].b) < (w[1].code, w[1].a, w[1].b)));
    }
}
