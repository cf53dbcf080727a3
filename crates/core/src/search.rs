//! The heuristic frontier search for the best insertion block (Fig. 4).
//!
//! Candidate blocks are unions of bricks.  The search keeps a frontier of
//! the `FW` best blocks, grows every frontier block by every adjacent brick,
//! keeps the grown blocks that improve on their ancestor, and repeats until
//! no block improves.  The cost function implements the priority order of
//! §5 of the paper:
//!
//! 1. the derived excitation regions must be speed-independence-preserving
//!    sets and must not delay input signals (hard validity),
//! 2. the number of solved CSC conflicts is maximised,
//! 3. the estimated logic complexity (trigger-event count of the new
//!    signal's excitation regions) is minimised,
//! 4. ties are broken towards balanced partitions.
//!
//! Each growth round scores every grown block as it is gathered, in
//! frontier × adjacent-brick order, and every sort is stable, so the chosen
//! block is a deterministic function of the graph and the brick list.

use crate::conflicts::CscConflict;
use crate::partition::IPartition;
use crate::EncodedGraph;
use regions::{adjacent_bricks, is_sip_set, Brick, BrickKind};
use ts::{EventId, SetDedup, StateId, StateSet};

/// Which candidate bricks the search may use.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum CandidateSource {
    /// Minimal regions and same-event pre-/post-region intersections — the
    /// paper's method.
    #[default]
    RegionBricks,
    /// Excitation and switching regions of existing events only — the
    /// coarser space explored by ASSASSIN-style tools (used as the Table 2
    /// baseline).
    ExcitationRegions,
}

/// The lexicographic cost of an insertion candidate (smaller is better).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Cost {
    /// Hard validity: SIP excitation regions that delay no input signal.
    pub valid: bool,
    /// CSC conflict pairs whose two states end up on the same side of the
    /// bipartition (not solved at all).
    pub unseparated_conflicts: usize,
    /// CSC conflict pairs that are separated but have an endpoint inside one
    /// of the new signal's excitation regions; these may reappear as
    /// secondary conflicts between the split copies (paper Fig. 3).
    pub border_conflicts: usize,
    /// Direct transitions between the two excitation regions (risk of a
    /// non-persistent state signal).
    pub short_circuits: usize,
    /// Trigger events of the two excitation regions (logic estimate).
    pub triggers: usize,
    /// Size imbalance of the bipartition (tie-breaker).
    pub imbalance: usize,
}

impl Cost {
    fn key(&self) -> (u8, usize, usize, usize, usize, usize) {
        (
            u8::from(!self.valid),
            // Conflicts the candidate is guaranteed to resolve come first
            // (the paper's "number of solved CSC conflicts is maximised"),
            // then the number of pairs left to secondary resolution.
            self.unresolved(),
            self.border_conflicts,
            self.short_circuits,
            self.triggers,
            self.imbalance,
        )
    }

    /// Conflict pairs the candidate is *guaranteed* to resolve: separated and
    /// away from the new signal's excitation regions.
    pub fn unresolved(&self) -> usize {
        self.unseparated_conflicts.saturating_add(self.border_conflicts)
    }

    /// The worst possible cost (used for degenerate candidates).
    pub fn worst(conflicts: usize) -> Cost {
        Cost {
            valid: false,
            unseparated_conflicts: conflicts,
            border_conflicts: 0,
            short_circuits: usize::MAX,
            triggers: usize::MAX,
            imbalance: usize::MAX,
        }
    }
}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A scored candidate block.
#[derive(Clone, Debug)]
pub struct BlockCandidate {
    /// The block of states (`b` of the bipartition).
    pub states: StateSet,
    /// The derived I-partition, when it is not degenerate.
    pub partition: Option<IPartition>,
    /// The candidate's cost.
    pub cost: Cost,
}

/// Returns `true` if an input-labelled transition leaves `set` (such a
/// transition would have to wait for the new signal, delaying the
/// environment).
fn delays_inputs(graph: &EncodedGraph, set: &StateSet) -> bool {
    graph
        .ts
        .transitions()
        .iter()
        .any(|t| set.contains(t.source) && !set.contains(t.target) && graph.is_input_event(t.event))
}

/// Repairs an excitation-region candidate so that the insertion preserves
/// speed independence: whenever an event's transition exits the set while
/// the event's (connected) excitation region is only partially covered, the
/// whole excitation region is pulled in — an event may be delayed by the new
/// signal only if it is delayed uniformly.  The set is also kept closed
/// under successors within `side` (well-formedness) and must stay inside
/// `side`; input events may never be delayed.
///
/// The closure runs over a worklist of newly added states instead of
/// cloning the set on every sweep — this is the hottest allocation site of
/// `evaluate_block`, which runs once per candidate.  Running the forward
/// closure to its fixpoint *before* the uniform-delay check (instead of
/// interleaving partial sweeps with it) also makes the check precise: a
/// transition "exits" only when it truly leaves `side`, never because its
/// in-`side` target had not been absorbed yet, so fewer candidates are
/// spuriously rejected or over-grown than in earlier revisions.
///
/// Returns `None` when no such repair exists within `side`.
fn repair_excitation_region(
    graph: &EncodedGraph,
    side: &StateSet,
    seed: &StateSet,
) -> Option<StateSet> {
    let ts = &graph.ts;
    let mut er = seed.clone();
    if !er.is_subset(side) {
        return None;
    }
    let mut worklist: Vec<StateId> = Vec::new();
    loop {
        // Well-formedness: successors inside `side` of ER states must be in
        // the ER (no transition from the border back into the interior).
        // The full forward closure runs before the uniform-delay check so
        // that "exits the ER" below can only mean "leaves `side`", never an
        // interior state the closure was still about to absorb.
        worklist.clear();
        worklist.extend(er.iter());
        while let Some(s) = worklist.pop() {
            for &(_, target) in ts.successors(s) {
                if side.contains(target) && er.insert(target) {
                    worklist.push(target);
                }
            }
        }
        // Uniform delay: an event with a transition exiting the ER must have
        // every excitation region it shares states with fully inside the ER.
        let mut changed = false;
        for e in 0..ts.num_events() {
            let e = EventId::from(e);
            let exits = ts
                .transitions_of(e)
                .iter()
                .any(|&(source, target)| er.contains(source) && !er.contains(target));
            if !exits {
                continue;
            }
            if graph.is_input_event(e) {
                return None;
            }
            for component in ts.excitation_regions(e) {
                if !component.intersects(&er) || component.is_subset(&er) {
                    continue;
                }
                if !component.is_subset(side) {
                    return None;
                }
                er.union_with(&component);
                changed = true;
            }
        }
        if !changed {
            return Some(er);
        }
    }
}

/// Scores a candidate block against the current conflict list.
pub fn evaluate_block(
    graph: &EncodedGraph,
    conflicts: &[CscConflict],
    block: &StateSet,
) -> BlockCandidate {
    let Some(raw) = IPartition::from_block(&graph.ts, block) else {
        return BlockCandidate {
            states: block.clone(),
            partition: None,
            cost: Cost::worst(conflicts.len()),
        };
    };
    // Repair both excitation regions so that the insertion is speed-
    // independence preserving; candidates whose repair escapes its side of
    // the bipartition (or would delay an input) are invalid.
    let complement = block.complement();
    let repaired = match (
        repair_excitation_region(graph, &complement, &raw.er_rise),
        repair_excitation_region(graph, block, &raw.er_fall),
    ) {
        (Some(er_rise), Some(er_fall)) => {
            let s1 = block.difference(&er_fall);
            let s0 = complement.difference(&er_rise);
            IPartition { block: block.clone(), er_rise, er_fall, s1, s0 }
        }
        _ => {
            let unseparated = conflicts.iter().filter(|c| !raw.separates(c.a, c.b)).count();
            let border = conflicts
                .iter()
                .filter(|c| raw.separates(c.a, c.b) && !raw.cleanly_separates(c.a, c.b))
                .count();
            return BlockCandidate {
                states: block.clone(),
                partition: Some(raw),
                cost: Cost {
                    valid: false,
                    unseparated_conflicts: unseparated,
                    border_conflicts: border,
                    short_circuits: usize::MAX,
                    triggers: usize::MAX,
                    imbalance: usize::MAX,
                },
            };
        }
    };
    let partition = repaired;
    let unseparated = conflicts.iter().filter(|c| !partition.separates(c.a, c.b)).count();
    let border = conflicts
        .iter()
        .filter(|c| partition.separates(c.a, c.b) && !partition.cleanly_separates(c.a, c.b))
        .count();
    let short_circuits = partition.short_circuit_transitions(&graph.ts);
    let triggers = partition.trigger_event_count(&graph.ts);
    let imbalance = partition.imbalance();
    let valid = !delays_inputs(graph, &partition.er_rise)
        && !delays_inputs(graph, &partition.er_fall)
        && is_sip_set(&graph.ts, &partition.er_rise)
        && is_sip_set(&graph.ts, &partition.er_fall);
    BlockCandidate {
        states: block.clone(),
        partition: Some(partition),
        cost: Cost {
            valid,
            unseparated_conflicts: unseparated,
            border_conflicts: border,
            short_circuits,
            triggers,
            imbalance,
        },
    }
}

/// Builds the brick set for the excitation-region-only baseline.
pub fn excitation_region_bricks(graph: &EncodedGraph) -> Vec<Brick> {
    let mut bricks = Vec::new();
    let mut seen = SetDedup::new();
    for e in 0..graph.ts.num_events() {
        let e = EventId::from(e);
        for set in graph.ts.excitation_regions(e).into_iter().chain(graph.ts.switching_regions(e)) {
            if set.is_empty() || set.len() == graph.ts.num_states() {
                continue;
            }
            if seen.insert(&set) {
                bricks.push(Brick { states: set, kind: BrickKind::ExcitationRegion(e) });
            }
        }
    }
    bricks
}

/// Counters describing one frontier-search run, threaded into
/// [`crate::SolveStats`] by the solver pipeline.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidate blocks actually scored with [`evaluate_block`].
    pub evaluated: usize,
    /// Candidate blocks skipped before scoring (duplicate state sets or
    /// degenerate full-space unions).
    pub pruned: usize,
}

/// Runs the frontier search of Fig. 4 and returns the best block found, or
/// `None` if no candidate solves at least one conflict with a valid,
/// speed-independence-preserving insertion.
///
/// Sequential convenience wrapper over [`find_best_block_with`].
pub fn find_best_block(
    graph: &EncodedGraph,
    conflicts: &[CscConflict],
    bricks: &[Brick],
    frontier_width: usize,
) -> Option<BlockCandidate> {
    find_best_block_with(graph, conflicts, bricks, frontier_width, &mut SearchStats::default())
}

/// [`find_best_block`], accumulating candidate counters into `stats`.
pub fn find_best_block_with(
    graph: &EncodedGraph,
    conflicts: &[CscConflict],
    bricks: &[Brick],
    frontier_width: usize,
    stats: &mut SearchStats,
) -> Option<BlockCandidate> {
    if conflicts.is_empty() || bricks.is_empty() {
        return None;
    }
    let mut seen = SetDedup::new();
    let seeds: Vec<&StateSet> = bricks
        .iter()
        .filter(|b| {
            let fresh = seen.insert(&b.states);
            if !fresh {
                stats.pruned += 1;
            }
            fresh
        })
        .map(|b| &b.states)
        .collect();
    stats.evaluated += seeds.len();
    let mut scored: Vec<BlockCandidate> =
        seeds.iter().map(|b| evaluate_block(graph, conflicts, b)).collect();
    scored.sort_by_key(|a| a.cost);

    let mut good_blocks: Vec<BlockCandidate> = scored.clone();
    // The first growth round starts from *every* brick so that seeds in all
    // parts of the state graph are explored; later rounds keep only the best
    // `FW` blocks as in Fig. 4.
    let mut frontier: Vec<BlockCandidate> = scored;

    // Bounded number of growth rounds; each round can only produce strictly
    // larger blocks, so termination is guaranteed anyway.
    for _ in 0..graph.num_states() {
        let mut new_frontier: Vec<BlockCandidate> = Vec::new();
        for bl in &frontier {
            for br in adjacent_bricks(&graph.ts, &bl.states, bricks) {
                let grown = bl.states.union(&br.states);
                if grown.len() == graph.num_states() || !seen.insert(&grown) {
                    stats.pruned += 1;
                    continue;
                }
                stats.evaluated += 1;
                let candidate = evaluate_block(graph, conflicts, &grown);
                if candidate.cost < bl.cost {
                    good_blocks.push(candidate.clone());
                    new_frontier.push(candidate);
                }
            }
        }
        if new_frontier.is_empty() {
            break;
        }
        new_frontier.sort_by_key(|a| a.cost);
        new_frontier.truncate(frontier_width.max(1));
        frontier = new_frontier;
    }

    // Greedy merging of good (possibly disconnected) blocks, guided by the
    // cost function.
    good_blocks.sort_by_key(|a| a.cost);
    let mut best = good_blocks.first()?.clone();
    for other in good_blocks.iter().skip(1).take(32) {
        if other.states.is_subset(&best.states) {
            continue;
        }
        let merged = best.states.union(&other.states);
        if merged.len() == graph.num_states() {
            stats.pruned += 1;
            continue;
        }
        stats.evaluated += 1;
        let candidate = evaluate_block(graph, conflicts, &merged);
        if candidate.cost < best.cost {
            best = candidate;
        }
    }

    let solves_cleanly =
        best.cost.valid && best.cost.unresolved() < conflicts.len() && best.partition.is_some();
    if solves_cleanly {
        return Some(best);
    }
    // Fall back to the best candidate that at least separates one conflict
    // pair (its borders may introduce secondary conflicts, which the outer
    // solver loop resolves on later iterations — paper Fig. 3).
    good_blocks.into_iter().find(|c| {
        c.cost.valid && c.cost.unseparated_conflicts < conflicts.len() && c.partition.is_some()
    })
}

/// Greedily enlarges the excitation regions of `partition` by adjacent
/// bricks, increasing the concurrency of the inserted signal, as long as the
/// logic estimate (trigger count) does not get worse and the insertion stays
/// valid (paper §5, step 4).
pub fn enlarge_concurrency(
    graph: &EncodedGraph,
    conflicts: &[CscConflict],
    partition: &IPartition,
    bricks: &[Brick],
) -> IPartition {
    let mut current = evaluate_block(graph, conflicts, &partition.block);
    let Some(mut best_part) = current.partition.clone() else {
        return partition.clone();
    };
    // Enlarging ER(x+) means shrinking the stable-0 region: move brick
    // states from S0 into ER(x+) by moving them out of the block's
    // complement interior — equivalently, grow the block's complement
    // border.  We approximate the paper's greedy step by trying to grow the
    // *block* itself with adjacent bricks and keeping the result whenever
    // the trigger estimate improves while validity and solved conflicts are
    // preserved.
    for _ in 0..8 {
        let mut improved = false;
        for br in adjacent_bricks(&graph.ts, &current.states, bricks) {
            let grown = current.states.union(&br.states);
            if grown.len() == graph.num_states() {
                continue;
            }
            let candidate = evaluate_block(graph, conflicts, &grown);
            if candidate.cost.valid
                && candidate.cost.unresolved() <= current.cost.unresolved()
                && candidate.cost.triggers < current.cost.triggers
            {
                if let Some(p) = candidate.partition.clone() {
                    best_part = p;
                    current = candidate;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
    best_part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflicts::conflict_pairs;
    use crate::EncodedGraph;
    use regions::{bricks, RegionConfig};
    use stg::benchmarks;

    fn graph_of(model: &stg::Stg) -> EncodedGraph {
        EncodedGraph::from_state_graph(&model.state_graph(100_000).unwrap())
    }

    #[test]
    fn cost_ordering_follows_the_paper_priorities() {
        let valid = Cost {
            valid: true,
            unseparated_conflicts: 3,
            border_conflicts: 0,
            short_circuits: 0,
            triggers: 9,
            imbalance: 4,
        };
        let invalid = Cost {
            valid: false,
            unseparated_conflicts: 0,
            border_conflicts: 0,
            short_circuits: 0,
            triggers: 0,
            imbalance: 0,
        };
        assert!(valid < invalid, "validity dominates everything else");
        let fewer_conflicts = Cost {
            valid: true,
            unseparated_conflicts: 1,
            border_conflicts: 0,
            short_circuits: 5,
            triggers: 90,
            imbalance: 40,
        };
        assert!(fewer_conflicts < valid, "solved conflicts dominate logic estimates");
        let fewer_triggers = Cost {
            valid: true,
            unseparated_conflicts: 1,
            border_conflicts: 0,
            short_circuits: 5,
            triggers: 2,
            imbalance: 40,
        };
        assert!(fewer_triggers < fewer_conflicts);
        let no_border_risk = Cost {
            valid: true,
            unseparated_conflicts: 1,
            border_conflicts: 0,
            short_circuits: 99,
            triggers: 99,
            imbalance: 99,
        };
        let border_risk = Cost {
            valid: true,
            unseparated_conflicts: 1,
            border_conflicts: 2,
            short_circuits: 0,
            triggers: 0,
            imbalance: 0,
        };
        assert!(
            no_border_risk < border_risk,
            "guaranteed resolution beats secondary-conflict risk"
        );
    }

    #[test]
    fn pulser_search_finds_a_valid_block() {
        let graph = graph_of(&benchmarks::pulser());
        let conflicts = conflict_pairs(&graph);
        assert_eq!(conflicts.len(), 2);
        let all_bricks = bricks(&graph.ts, &RegionConfig::default());
        let best = find_best_block(&graph, &conflicts, &all_bricks, 4).expect("a block must exist");
        assert!(best.cost.valid);
        assert!(best.cost.unresolved() < conflicts.len());
        let part = best.partition.unwrap();
        assert!(!part.er_rise.is_empty());
        assert!(!part.er_fall.is_empty());
        // Scoring a one-state block must not panic.
        let single = StateSet::from_states(graph.num_states(), [ts::StateId(0)]);
        let _ = evaluate_block(&graph, &conflicts, &single);
    }

    #[test]
    fn vme_search_finds_a_valid_block() {
        let graph = graph_of(&benchmarks::vme_read());
        let conflicts = conflict_pairs(&graph);
        let all_bricks = bricks(&graph.ts, &RegionConfig::default());
        let best = find_best_block(&graph, &conflicts, &all_bricks, 4).expect("a block must exist");
        assert!(best.cost.valid);
        assert!(best.cost.unresolved() < conflicts.len());
    }

    #[test]
    fn baseline_bricks_are_excitation_or_switching_regions() {
        let graph = graph_of(&benchmarks::pulser());
        let er = excitation_region_bricks(&graph);
        assert!(!er.is_empty());
        for b in &er {
            assert!(matches!(b.kind, BrickKind::ExcitationRegion(_)));
            assert!(!b.states.is_empty());
        }
    }

    #[test]
    fn input_delay_detection() {
        let graph = graph_of(&benchmarks::handshake());
        // {state where req- is enabled}: the input transition req- exits any
        // set containing its source but not its target.
        let req_minus = graph.ts.event_id("req-").unwrap();
        let source = graph.ts.transitions_of(req_minus)[0].0;
        let set = StateSet::from_states(graph.num_states(), [source]);
        assert!(delays_inputs(&graph, &set));
    }

    #[test]
    fn search_returns_none_when_there_are_no_conflicts() {
        let graph = graph_of(&benchmarks::handshake());
        let conflicts = conflict_pairs(&graph);
        assert!(conflicts.is_empty());
        let all_bricks = bricks(&graph.ts, &RegionConfig::default());
        assert!(find_best_block(&graph, &conflicts, &all_bricks, 4).is_none());
    }

    #[test]
    fn enlargement_never_invalidates_the_partition() {
        let graph = graph_of(&benchmarks::sequencer(3));
        let conflicts = conflict_pairs(&graph);
        let all_bricks = bricks(&graph.ts, &RegionConfig::default());
        let best = find_best_block(&graph, &conflicts, &all_bricks, 4).expect("block exists");
        let part = best.partition.clone().unwrap();
        let enlarged = enlarge_concurrency(&graph, &conflicts, &part, &all_bricks);
        let check = evaluate_block(&graph, &conflicts, &enlarged.block);
        assert!(check.cost.valid);
        assert!(check.cost.unresolved() <= best.cost.unresolved());
    }
}
