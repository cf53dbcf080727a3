//! Property-preserving event insertion (paper §3, Fig. 2).
//!
//! Inserting an event `x` with insertion set `ER(x)` splits every state of
//! the set into two copies — one before and one after `x` fires — and
//! redirects transitions so that:
//!
//! * transitions *entering* `ER(x)` lead to the pre-`x` copy,
//! * transitions *exiting* `ER(x)` leave from the post-`x` copy,
//! * transitions *inside* `ER(x)` are duplicated in both copies (so that
//!   `x` is concurrent with them), and
//! * every pre-`x` copy has an `x` transition to its post-`x` copy.
//!
//! When the insertion set is a speed-independence-preserving (SIP) set —
//! e.g. a region, or an excitation region of a persistent event, or an
//! intersection of pre-regions of the same event (Property 3.1) — the
//! resulting system is again deterministic, commutative and persistent for
//! all previously persistent events, and is trace-equivalent to the original
//! system once `x` is hidden.

use crate::{EventId, StateId, StateSet, Transition, TransitionSystem, TsError};

/// Result of inserting a new event into a transition system.
#[derive(Clone, Debug)]
pub struct InsertionOutcome {
    /// The transformed system.
    pub ts: TransitionSystem,
    /// The id of the inserted event in the new system.
    pub event: EventId,
    /// For every original state, its pre-event copy in the new system.
    pub pre_copy: Vec<StateId>,
    /// For every original state, its post-event copy (only for states of the
    /// insertion set).
    pub post_copy: Vec<Option<StateId>>,
}

/// Inserts a new event `label` with insertion set `er` into `ts`.
///
/// # Errors
///
/// Returns [`TsError::DegenerateInsertionSet`] if `er` is empty or contains
/// every state, and [`TsError::EmptyEventName`] if `label` is empty.
///
/// # Example
///
/// ```
/// use ts::{insert_event, StateSet, TransitionSystemBuilder};
///
/// let mut b = TransitionSystemBuilder::new();
/// let s0 = b.add_state("s0");
/// let s1 = b.add_state("s1");
/// let s2 = b.add_state("s2");
/// b.add_transition(s0, "a", s1);
/// b.add_transition(s1, "b", s2);
/// let ts = b.build(s0)?;
///
/// let er = StateSet::from_states(ts.num_states(), [s1]);
/// let out = insert_event(&ts, &er, "x")?;
/// assert_eq!(out.ts.num_states(), 4);
/// assert!(out.ts.event_id("x").is_some());
/// # Ok::<(), ts::TsError>(())
/// ```
pub fn insert_event(
    ts: &TransitionSystem,
    er: &StateSet,
    label: &str,
) -> Result<InsertionOutcome, TsError> {
    if label.is_empty() {
        return Err(TsError::EmptyEventName);
    }
    if er.is_empty() || er.len() == ts.num_states() {
        return Err(TsError::DegenerateInsertionSet);
    }

    let n = ts.num_states();
    let mut state_names: Vec<String> = Vec::with_capacity(n + er.len());
    let mut pre_copy: Vec<StateId> = Vec::with_capacity(n);
    let mut post_copy: Vec<Option<StateId>> = vec![None; n];

    // Pre-event copies keep the original names and occupy indices 0..n so
    // that callers can correlate codes cheaply.
    for i in 0..n {
        let old = StateId::from(i);
        pre_copy.push(StateId::from(state_names.len()));
        state_names.push(ts.state_name(old).to_owned());
    }
    for s in er.iter() {
        post_copy[s.index()] = Some(StateId::from(state_names.len()));
        state_names.push(format!("{}~{}", ts.state_name(s), label));
    }

    let mut event_names: Vec<String> = ts.event_names().to_vec();
    let new_event = EventId::from(event_names.len());
    event_names.push(label.to_owned());

    let mut transitions: Vec<Transition> = Vec::with_capacity(ts.num_transitions() * 2 + er.len());
    for t in ts.transitions() {
        let src_in = er.contains(t.source);
        let dst_in = er.contains(t.target);
        match (src_in, dst_in) {
            (false, false) | (false, true) => {
                // Stays outside or enters the set: route to the pre-copy.
                transitions.push(Transition {
                    source: pre_copy[t.source.index()],
                    event: t.event,
                    target: pre_copy[t.target.index()],
                });
            }
            (true, false) => {
                // Exits the set: only possible after the new event fired.
                transitions.push(Transition {
                    source: post_copy[t.source.index()].expect("source is in the insertion set"),
                    event: t.event,
                    target: pre_copy[t.target.index()],
                });
            }
            (true, true) => {
                let post_src = post_copy[t.source.index()].expect("source in set");
                let post_dst = post_copy[t.target.index()].expect("target in set");
                transitions.push(Transition {
                    source: pre_copy[t.source.index()],
                    event: t.event,
                    target: pre_copy[t.target.index()],
                });
                transitions.push(Transition { source: post_src, event: t.event, target: post_dst });
            }
        }
    }
    for s in er.iter() {
        transitions.push(Transition {
            source: pre_copy[s.index()],
            event: new_event,
            target: post_copy[s.index()].expect("member of the insertion set"),
        });
    }

    let initial = pre_copy[ts.initial().index()];
    let new_ts = TransitionSystem::from_parts(state_names, event_names, transitions, initial)?;
    Ok(InsertionOutcome { ts: new_ts, event: new_event, pre_copy, post_copy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::projected_trace_equivalent;
    use crate::TransitionSystemBuilder;

    /// Linear pipeline s0 -a-> s1 -b-> s2 -c-> s3.
    fn chain() -> TransitionSystem {
        let mut b = TransitionSystemBuilder::new();
        let s: Vec<StateId> = (0..4).map(|i| b.add_state(format!("s{i}"))).collect();
        b.add_transition(s[0], "a", s[1]);
        b.add_transition(s[1], "b", s[2]);
        b.add_transition(s[2], "c", s[3]);
        b.build(s[0]).unwrap()
    }

    /// Cyclic system with a concurrent diamond in the middle.
    fn diamond_cycle() -> TransitionSystem {
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
        b.build(s0).unwrap()
    }

    #[test]
    fn insertion_into_a_single_state_splits_it() {
        let ts = chain();
        let s1 = ts.state_id("s1").unwrap();
        let er = StateSet::from_states(ts.num_states(), [s1]);
        let out = insert_event(&ts, &er, "x").unwrap();
        assert_eq!(out.ts.num_states(), 5);
        assert_eq!(out.post_copy.iter().flatten().count(), 1);
        // a leads to the pre-copy, x to the post-copy, b leaves from the
        // post-copy.
        let x = out.ts.event_id("x").unwrap();
        let b = out.ts.event_id("b").unwrap();
        let pre = out.pre_copy[s1.index()];
        let post = out.post_copy[s1.index()].unwrap();
        assert_eq!(out.ts.successor(pre, x), Some(post));
        assert_eq!(out.ts.successor(pre, b), None, "b must wait for x");
        assert!(out.ts.successor(post, b).is_some());
    }

    #[test]
    fn insertion_preserves_determinism_and_traces() {
        let ts = chain();
        let s1 = ts.state_id("s1").unwrap();
        let s2 = ts.state_id("s2").unwrap();
        let er = StateSet::from_states(ts.num_states(), [s1, s2]);
        let out = insert_event(&ts, &er, "x").unwrap();
        assert!(out.ts.is_deterministic());
        assert!(out.ts.is_commutative());
        assert!(projected_trace_equivalent(&ts, &out.ts, &["x"]));
    }

    #[test]
    fn concurrent_insertion_into_region_preserves_persistency() {
        let ts = diamond_cycle();
        // {sa, s1} is a region for this system? It is at least a connected
        // set; what we check here is the mechanical property of the scheme:
        // determinism/commutativity and hidden-trace equivalence.
        let sa = ts.state_id("sa").unwrap();
        let s1 = ts.state_id("s1").unwrap();
        let er = StateSet::from_states(ts.num_states(), [sa, s1]);
        let out = insert_event(&ts, &er, "csc0").unwrap();
        assert!(out.ts.is_deterministic());
        assert!(projected_trace_equivalent(&ts, &out.ts, &["csc0"]));
    }

    #[test]
    fn degenerate_sets_are_rejected() {
        let ts = chain();
        let empty = StateSet::new(ts.num_states());
        assert_eq!(insert_event(&ts, &empty, "x").unwrap_err(), TsError::DegenerateInsertionSet);
        let full = StateSet::full(ts.num_states());
        assert_eq!(insert_event(&ts, &full, "x").unwrap_err(), TsError::DegenerateInsertionSet);
        let some = StateSet::from_states(ts.num_states(), [ts.state_id("s1").unwrap()]);
        assert_eq!(insert_event(&ts, &some, "").unwrap_err(), TsError::EmptyEventName);
    }

    #[test]
    fn initial_state_inside_the_set_starts_before_the_event() {
        let ts = chain();
        let s0 = ts.state_id("s0").unwrap();
        let er = StateSet::from_states(ts.num_states(), [s0]);
        let out = insert_event(&ts, &er, "x").unwrap();
        assert_eq!(out.ts.initial(), out.pre_copy[s0.index()]);
        let x = out.ts.event_id("x").unwrap();
        assert!(out.ts.is_enabled(out.ts.initial(), x));
    }

    #[test]
    fn origin_mapping_is_consistent() {
        // Every original state keeps its index and name in its pre-copy, and
        // exactly the members of the insertion set get a post-copy.
        let ts = diamond_cycle();
        let sa = ts.state_id("sa").unwrap();
        let er = StateSet::from_states(ts.num_states(), [sa]);
        let out = insert_event(&ts, &er, "x").unwrap();
        for (i, &pre) in out.pre_copy.iter().enumerate() {
            let old = StateId::from(i);
            assert_eq!(pre, old);
            assert_eq!(out.ts.state_name(pre), ts.state_name(old));
            assert_eq!(out.post_copy[i].is_some(), er.contains(old));
        }
        let post = out.post_copy[sa.index()].unwrap();
        assert_eq!(out.ts.state_name(post), "sa~x");
    }
}
