//! Insertion of a complete state signal (a rising and a falling transition)
//! into an encoded graph.

use crate::partition::IPartition;
use crate::{CscError, EncodedGraph};
use stg::{Polarity, Signal, SignalId, SignalKind};
use ts::{insert_event, StateSet};

/// Inserts a new internal signal `name` whose rising transition has
/// excitation region `partition.er_rise` and whose falling transition has
/// excitation region `partition.er_fall`, using the event-insertion scheme
/// of Fig. 2 twice.
///
/// The concurrent scheme keeps every state reachable: a path of the old
/// graph runs on through the pre-copies, firing the new event where it
/// leaves an excitation region, and each post-copy follows its pre-copy.
/// So the result is the inserted system itself, and its codes are
/// recomputed from scratch, which both validates that the insertion
/// produced a consistent encoding and assigns the new signal its value in
/// every state.
///
/// # Errors
///
/// Returns [`CscError::Insertion`] if either event insertion is degenerate
/// and [`CscError::InconsistentInsertion`] if the resulting labelling admits
/// no consistent code (which indicates an invalid I-partition).
pub fn insert_state_signal(
    graph: &EncodedGraph,
    name: &str,
    partition: &IPartition,
) -> Result<EncodedGraph, CscError> {
    // Insert the rising transition.
    let rise = insert_event(&graph.ts, &partition.er_rise, &format!("{name}+"))?;
    // The pre-copies of the first insertion keep their original indices, so
    // the falling excitation region maps onto the same indices in the new,
    // larger system.
    let mut er_fall = StateSet::new(rise.ts.num_states());
    for s in partition.er_fall.iter() {
        er_fall.insert(rise.pre_copy[s.index()]);
    }
    let fall = insert_event(&rise.ts, &er_fall, &format!("{name}-"))?;

    // Extend the signal table and the per-event edge table.
    let new_signal = SignalId::from(graph.signals.len());
    let mut signals = graph.signals.clone();
    signals.push(Signal { name: name.to_owned(), kind: SignalKind::Internal });
    let mut event_edges = graph.event_edges.clone();
    debug_assert_eq!(rise.event.index(), event_edges.len());
    event_edges.push(Some((new_signal, Polarity::Rise)));
    debug_assert_eq!(fall.event.index(), event_edges.len());
    event_edges.push(Some((new_signal, Polarity::Fall)));

    // Recompute all codes, which also checks consistency.
    let mut result = EncodedGraph { ts: fall.ts, codes: Vec::new(), signals, event_edges };
    result.codes = vec![0; result.ts.num_states()];
    result.recompute_codes(name)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflicts::conflict_pairs;
    use crate::search::find_best_block;
    use regions::{bricks, RegionConfig};
    use stg::benchmarks;
    use ts::traces::projected_trace_equivalent;

    fn graph_of(model: &stg::Stg) -> EncodedGraph {
        EncodedGraph::from_state_graph(&model.state_graph(100_000).unwrap())
    }

    #[test]
    fn inserting_a_signal_into_the_pulser_reduces_conflicts() {
        let graph = graph_of(&benchmarks::pulser());
        let conflicts = conflict_pairs(&graph);
        let all_bricks = bricks(&graph.ts, &RegionConfig::default());
        let best = find_best_block(&graph, &conflicts, &all_bricks, 4).unwrap();
        let part = best.partition.unwrap();
        let new_graph = insert_state_signal(&graph, "csc0", &part).unwrap();
        assert_eq!(new_graph.num_signals(), 3);
        assert!(new_graph.ts.num_states() > graph.ts.num_states());
        let remaining = conflict_pairs(&new_graph);
        assert!(remaining.len() < conflicts.len());
        // The observable behaviour (hiding the new signal) is unchanged.
        assert!(projected_trace_equivalent(&graph.ts, &new_graph.ts, &["csc0+", "csc0-"]));
        // The new signal's events are labelled correctly.
        let plus = new_graph.ts.event_id("csc0+").unwrap();
        assert_eq!(new_graph.event_edges[plus.index()].unwrap().1, Polarity::Rise);
    }

    #[test]
    fn insertion_preserves_determinism_and_speed_independence_basics() {
        let graph = graph_of(&benchmarks::vme_read());
        let conflicts = conflict_pairs(&graph);
        let all_bricks = bricks(&graph.ts, &RegionConfig::default());
        let best = find_best_block(&graph, &conflicts, &all_bricks, 4).unwrap();
        let part = best.partition.unwrap();
        let new_graph = insert_state_signal(&graph, "csc0", &part).unwrap();
        assert!(new_graph.ts.is_deterministic());
        assert!(new_graph.ts.is_commutative());
        // Output signals that were persistent stay persistent.
        for e in 0..graph.ts.num_events() {
            let e = ts::EventId::from(e);
            if !graph.is_input_event(e) && graph.ts.is_persistent(e) {
                let name = graph.ts.event_name(e);
                let new_e = new_graph.ts.event_id(name).unwrap();
                assert!(new_graph.ts.is_persistent(new_e), "event {name} lost persistency");
            }
        }
    }

    #[test]
    fn invalid_partition_is_rejected_by_consistency_check() {
        // Hand-craft a partition whose ERs touch: in a 4-cycle handshake use
        // adjacent singleton borders; the resulting labelling either stays
        // consistent (fine) or the insertion reports the inconsistency —
        // it must never panic or silently corrupt codes.
        let graph = graph_of(&benchmarks::handshake());
        let block = StateSet::from_states(graph.num_states(), [ts::StateId(1)]);
        if let Some(part) = IPartition::from_block(&graph.ts, &block) {
            match insert_state_signal(&graph, "z", &part) {
                Ok(g) => assert!(g.ts.is_deterministic()),
                Err(CscError::InconsistentInsertion { .. }) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
    }
}
