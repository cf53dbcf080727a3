//! Generation of minimal pre-/post-regions by the expansion algorithm.
//!
//! The classical algorithm (Cortadella et al., *Synthesizing Petri nets from
//! state-based models*, ICCAD'95) starts from the excitation set of an event
//! and repeatedly repairs the region condition: whenever some event crosses
//! the candidate set non-uniformly there are at most three ways to legalise
//! it by *growing* the set — make the event non-crossing, make it an exit
//! event, or make it an entry event.  Exploring all branches and keeping the
//! set-minimal results yields all minimal pre-regions (respectively
//! post-regions) of the event.

use crate::crossing::{event_crossing, Crossing};
use std::collections::HashSet;
use ts::{EventId, StateSet, TransitionSystem};

/// Resource limits for region generation.
///
/// The expansion search is worst-case exponential; these limits bound the
/// work per seed.  The defaults are ample for the specification-sized
/// transition systems the CSC solver explores (the large benchmark state
/// graphs are only traversed with borders and bricks, never with full
/// minimal-region enumeration per state).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RegionConfig {
    /// Maximum number of candidate sets visited per seed before the search
    /// is truncated (the regions found so far are returned).
    pub max_visited_per_seed: usize,
    /// Maximum number of regions collected per seed.
    pub max_regions_per_seed: usize,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig { max_visited_per_seed: 20_000, max_regions_per_seed: 64 }
    }
}

/// The direction a seed event is required to have with respect to the
/// resulting region.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Forced {
    /// The event must exit the region (pre-region).
    Exit(EventId),
    /// The event must enter the region (post-region).
    Enter(EventId),
}

/// All minimal pre-regions of `event`: minimal regions that `event` exits.
///
/// Every pre-region contains the excitation set of the event, so the search
/// is seeded with it.
pub fn minimal_pre_regions(
    ts: &TransitionSystem,
    event: EventId,
    config: &RegionConfig,
) -> Vec<StateSet> {
    let seed = ts.excitation_set(event);
    if seed.is_empty() {
        return Vec::new();
    }
    expand(ts, seed, Forced::Exit(event), config)
}

/// All minimal post-regions of `event`: minimal regions that `event` enters.
pub fn minimal_post_regions(
    ts: &TransitionSystem,
    event: EventId,
    config: &RegionConfig,
) -> Vec<StateSet> {
    let seed = ts.switching_set(event);
    if seed.is_empty() {
        return Vec::new();
    }
    expand(ts, seed, Forced::Enter(event), config)
}

/// The union of minimal pre- and post-regions of every event, deduplicated.
///
/// This is the region set used by `petrify` both for net synthesis and as
/// the starting "bricks" of the CSC heuristic search.  (Globally minimal
/// regions that are neither pre- nor post-region of any event correspond to
/// isolated places and are irrelevant for synthesis.)
pub fn minimal_regions(ts: &TransitionSystem, config: &RegionConfig) -> Vec<StateSet> {
    let mut seen: HashSet<StateSet> = HashSet::new();
    let mut result = Vec::new();
    for e in 0..ts.num_events() {
        let e = EventId::from(e);
        for r in minimal_pre_regions(ts, e, config)
            .into_iter()
            .chain(minimal_post_regions(ts, e, config))
        {
            if seen.insert(r.clone()) {
                result.push(r);
            }
        }
    }
    result
}

/// Expands `seed` into all minimal regions satisfying the `forced`
/// direction.
fn expand(
    ts: &TransitionSystem,
    seed: StateSet,
    forced: Forced,
    config: &RegionConfig,
) -> Vec<StateSet> {
    let full = ts.num_states();
    let mut visited: HashSet<StateSet> = HashSet::new();
    let mut results: Vec<StateSet> = Vec::new();
    let mut stack: Vec<StateSet> = vec![seed];

    while let Some(set) = stack.pop() {
        if results.len() >= config.max_regions_per_seed
            || visited.len() >= config.max_visited_per_seed
        {
            break;
        }
        if set.len() == full || !visited.insert(set.clone()) {
            continue;
        }
        // Prune: a superset of an already-found region can never be minimal.
        if results.iter().any(|r| r.is_subset(&set)) {
            continue;
        }
        match first_violation(ts, &set, forced) {
            None => {
                results.push(set);
            }
            Some(event) => {
                for next in legalizations(ts, &set, event, forced) {
                    if next.len() < full && !visited.contains(&next) {
                        stack.push(next);
                    }
                }
            }
        }
    }

    minimize(results)
}

/// Returns an event whose crossing relation must be repaired, if any.
///
/// The forced event is checked first so that the direction requirement is
/// established as early as possible.
fn first_violation(ts: &TransitionSystem, set: &StateSet, forced: Forced) -> Option<EventId> {
    match forced {
        Forced::Exit(e) => {
            if event_crossing(ts, set, e) != Crossing::Exit {
                return Some(e);
            }
        }
        Forced::Enter(e) => {
            if event_crossing(ts, set, e) != Crossing::Enter {
                return Some(e);
            }
        }
    }
    (0..ts.num_events())
        .map(EventId::from)
        .find(|&e| event_crossing(ts, set, e) == Crossing::Violation)
}

/// The candidate supersets that legalise `event` with respect to `set`.
fn legalizations(
    ts: &TransitionSystem,
    set: &StateSet,
    event: EventId,
    forced: Forced,
) -> Vec<StateSet> {
    let mut options = Vec::new();
    let forced_dir = match forced {
        Forced::Exit(e) if e == event => Some(Crossing::Exit),
        Forced::Enter(e) if e == event => Some(Crossing::Enter),
        _ => None,
    };

    if forced_dir != Some(Crossing::Enter) {
        if let Some(exit_fix) = fix_as_exit(ts, set, event) {
            options.push(exit_fix);
        }
    }
    if forced_dir != Some(Crossing::Exit) {
        if let Some(enter_fix) = fix_as_enter(ts, set, event) {
            options.push(enter_fix);
        }
    }
    if forced_dir.is_none() {
        options.push(fix_as_non_crossing(ts, set, event));
    }
    options.retain(|candidate| candidate.len() > set.len());
    options
}

/// Grow `set` so that every transition of `event` exits it: add all sources.
/// Infeasible (returns `None`) if some target is already inside.
fn fix_as_exit(ts: &TransitionSystem, set: &StateSet, event: EventId) -> Option<StateSet> {
    let mut grown = set.clone();
    for &(source, target) in ts.transitions_of(event) {
        if set.contains(target) {
            return None;
        }
        grown.insert(source);
    }
    // Adding sources may have swallowed a target of another transition of
    // the same event; re-check.
    for &(_, target) in ts.transitions_of(event) {
        if grown.contains(target) {
            return None;
        }
    }
    Some(grown)
}

/// Grow `set` so that every transition of `event` enters it: add all targets.
/// Infeasible if some source is already inside.
fn fix_as_enter(ts: &TransitionSystem, set: &StateSet, event: EventId) -> Option<StateSet> {
    let mut grown = set.clone();
    for &(source, target) in ts.transitions_of(event) {
        if set.contains(source) {
            return None;
        }
        grown.insert(target);
    }
    for &(source, _) in ts.transitions_of(event) {
        if grown.contains(source) {
            return None;
        }
    }
    Some(grown)
}

/// Grow `set` until no transition of `event` crosses it: for every crossing
/// transition add the missing endpoint, iterating to a fixpoint.
fn fix_as_non_crossing(ts: &TransitionSystem, set: &StateSet, event: EventId) -> StateSet {
    let mut grown = set.clone();
    loop {
        let mut changed = false;
        for &(source, target) in ts.transitions_of(event) {
            match (grown.contains(source), grown.contains(target)) {
                (true, false) => {
                    grown.insert(target);
                    changed = true;
                }
                (false, true) => {
                    grown.insert(source);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return grown;
        }
    }
}

/// Keeps only the set-minimal elements.
fn minimize(mut sets: Vec<StateSet>) -> Vec<StateSet> {
    sets.sort_by_key(StateSet::len);
    let mut minimal: Vec<StateSet> = Vec::new();
    for candidate in sets {
        if !minimal.iter().any(|kept| kept.is_subset(&candidate)) {
            minimal.push(candidate);
        }
    }
    minimal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossing::is_region;
    use ts::{StateId, TransitionSystemBuilder};

    fn fig1_ts() -> TransitionSystem {
        let mut b = TransitionSystemBuilder::new();
        let s: Vec<StateId> = (1..=7).map(|i| b.add_state(format!("s{i}"))).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[0], "b", s[2]);
        b.add_transition(s[1], "b", s[3]);
        b.add_transition(s[2], "a", s[3]);
        b.add_transition(s[3], "c", s[4]);
        b.add_transition(s[4], "a", s[5]);
        b.add_transition(s[4], "b", s[6]);
        b.build(s[0]).unwrap()
    }

    fn handshake() -> TransitionSystem {
        let mut b = TransitionSystemBuilder::new();
        let s: Vec<StateId> = (0..4).map(|i| b.add_state(format!("s{i}"))).collect();
        b.add_transition(s[0], "req+", s[1]);
        b.add_transition(s[1], "ack+", s[2]);
        b.add_transition(s[2], "req-", s[3]);
        b.add_transition(s[3], "ack-", s[0]);
        b.build(s[0]).unwrap()
    }

    #[test]
    fn handshake_minimal_regions_are_the_singletons() {
        let ts = handshake();
        let regions = minimal_regions(&ts, &RegionConfig::default());
        assert_eq!(regions.len(), 4);
        for r in &regions {
            assert_eq!(r.len(), 1);
            assert!(is_region(&ts, r));
        }
    }

    #[test]
    fn pre_regions_contain_the_excitation_set_and_are_exited() {
        let ts = fig1_ts();
        let config = RegionConfig::default();
        for e in 0..ts.num_events() {
            let e = EventId::from(e);
            let es = ts.excitation_set(e);
            for r in minimal_pre_regions(&ts, e, &config) {
                assert!(is_region(&ts, &r), "pre-region must be a region");
                assert!(es.is_subset(&r), "pre-region must contain the excitation set");
                assert_eq!(event_crossing(&ts, &r, e), Crossing::Exit);
            }
        }
    }

    #[test]
    fn post_regions_contain_the_switching_set_and_are_entered() {
        let ts = fig1_ts();
        let config = RegionConfig::default();
        for e in 0..ts.num_events() {
            let e = EventId::from(e);
            let sw = ts.switching_set(e);
            for r in minimal_post_regions(&ts, e, &config) {
                assert!(is_region(&ts, &r));
                assert!(sw.is_subset(&r));
                assert_eq!(event_crossing(&ts, &r, e), Crossing::Enter);
            }
        }
    }

    #[test]
    fn minimal_regions_are_pairwise_incomparable_per_event() {
        let ts = fig1_ts();
        let config = RegionConfig::default();
        for e in 0..ts.num_events() {
            let e = EventId::from(e);
            let pres = minimal_pre_regions(&ts, e, &config);
            for i in 0..pres.len() {
                for j in 0..pres.len() {
                    if i != j {
                        assert!(!pres[i].is_strict_subset(&pres[j]));
                    }
                }
            }
        }
    }

    #[test]
    fn fig1_pre_regions_reconstruct_the_net_places() {
        // Fig. 1(b) has places p1..p5; c consumes from two places, so c must
        // have at least two minimal pre-regions.
        let ts = fig1_ts();
        let config = RegionConfig::default();
        let c = ts.event_id("c").unwrap();
        let pres = minimal_pre_regions(&ts, c, &config);
        assert!(pres.len() >= 2, "c has two input places in the paper's net, got {pres:?}");
        // a and b each have pre-regions too.
        for name in ["a", "b"] {
            let e = ts.event_id(name).unwrap();
            assert!(!minimal_pre_regions(&ts, e, &config).is_empty());
        }
    }

    #[test]
    fn diamond_concurrent_events_have_disjoint_pre_regions() {
        let mut b = TransitionSystemBuilder::new();
        let s0 = b.add_state("s0");
        let sa = b.add_state("sa");
        let sb = b.add_state("sb");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "a", sa);
        b.add_transition(s0, "b", sb);
        b.add_transition(sa, "b", s1);
        b.add_transition(sb, "a", s1);
        b.add_transition(s1, "r", s0);
        let ts = b.build(s0).unwrap();
        let config = RegionConfig::default();
        let a = ts.event_id("a").unwrap();
        let b_ev = ts.event_id("b").unwrap();
        let pre_a = minimal_pre_regions(&ts, a, &config);
        let pre_b = minimal_pre_regions(&ts, b_ev, &config);
        assert!(!pre_a.is_empty());
        assert!(!pre_b.is_empty());
        // a's pre-region {s0, sb} and b's pre-region {s0, sa} intersect in
        // {s0} but neither contains the other.
        for ra in &pre_a {
            for rb in &pre_b {
                assert!(!ra.is_strict_subset(rb));
                assert!(!rb.is_strict_subset(ra));
            }
        }
    }

    #[test]
    fn events_without_occurrences_yield_no_regions() {
        let mut b = TransitionSystemBuilder::new();
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "x", s1);
        b.add_event("phantom");
        let ts = b.build(s0).unwrap();
        let phantom = ts.event_id("phantom").unwrap();
        let config = RegionConfig::default();
        assert!(minimal_pre_regions(&ts, phantom, &config).is_empty());
        assert!(minimal_post_regions(&ts, phantom, &config).is_empty());
    }

    #[test]
    fn limits_truncate_but_do_not_panic() {
        let ts = fig1_ts();
        let tiny = RegionConfig { max_visited_per_seed: 2, max_regions_per_seed: 1 };
        for e in 0..ts.num_events() {
            let regions = minimal_pre_regions(&ts, EventId::from(e), &tiny);
            assert!(regions.len() <= 1);
        }
    }
}
