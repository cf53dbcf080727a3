//! Property-based tests of the core invariants:
//!
//! * regions are speed-independence-preserving sets (Property 3.1, P1),
//! * event insertion over a region preserves observable traces,
//! * state-set algebra is a Boolean algebra,
//! * randomly generated marked-graph STGs have consistent state graphs and
//!   agree between the explicit and the symbolic engine (every explicit
//!   marking and (marking, code) state is in the chained fixpoint's set),
//! * the CSC solver, when it succeeds, always produces a conflict-free,
//!   deterministic, trace-equivalent encoding,
//! * both logic derivations reproduce the truth tables of the explicit
//!   state graph (the oracle in `truth_table/mod.rs`).
//!
//! (The randomized `image_cube` ≡ three-pass image property lives next to
//! the engine, in the `bdd` crate's unit tests.)
//!
//! The cases are generated by a small deterministic in-repo generator (the
//! container cannot fetch `proptest`); every run explores the same seeds, so
//! failures are reproducible from the seed printed in the assertion message.

mod truth_table;

use csc::{solve_stg, SolverConfig};
use regions::{is_region, is_sip_set, minimal_regions, RegionConfig};
use stg::{Polarity, StgBuilder};
use ts::traces::projected_trace_equivalent;
use ts::{insert_event, StateId, StateSet, TransitionSystem};

const CASES: u64 = 24;

/// SplitMix64: tiny, deterministic, statistically fine for test generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e3779b97f4a7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn members(&mut self, universe: u32, max_len: usize) -> Vec<u32> {
        let len = self.range(0, max_len + 1);
        (0..len).map(|_| (self.next_u64() % universe as u64) as u32).collect()
    }
}

/// A random ring of `2n` alternating input/output pulses with extra
/// cross-coupling places, always safe and consistent.
fn random_stg(num_pairs: usize, couplings: &[(usize, usize)]) -> stg::Stg {
    let mut b = StgBuilder::new("random");
    let mut edges = Vec::new();
    for i in 0..num_pairs {
        let input = b.add_input(format!("i{i}"));
        let output = b.add_output(format!("o{i}"));
        edges.push(b.add_edge(input, Polarity::Rise));
        edges.push(b.add_edge(output, Polarity::Rise));
        edges.push(b.add_edge(input, Polarity::Fall));
        edges.push(b.add_edge(output, Polarity::Fall));
    }
    b.connect_cycle(&edges);
    // Extra coupling places between pulse pairs add concurrency constraints.
    // The place carries an initial token only when its consumer precedes its
    // producer in the ring order, which keeps the net 1-safe.
    for &(from, to) in couplings {
        let from_index = (from * 4 + 3) % edges.len();
        let to_index = (to * 4) % edges.len();
        if edges[from_index] != edges[to_index] {
            b.connect(edges[from_index], edges[to_index], to_index <= from_index);
        }
    }
    b.build().expect("random STG is structurally valid")
}

fn ring_ts(n: usize) -> TransitionSystem {
    let mut b = ts::TransitionSystemBuilder::new();
    let states: Vec<StateId> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
    for i in 0..n {
        b.add_transition(states[i], format!("e{i}"), states[(i + 1) % n]);
    }
    b.build(states[0]).unwrap()
}

#[test]
fn state_set_algebra_laws() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let a = StateSet::from_states(64, rng.members(64, 20).iter().map(|&i| StateId(i)));
        let b = StateSet::from_states(64, rng.members(64, 20).iter().map(|&i| StateId(i)));
        assert_eq!(a.union(&b), b.union(&a), "seed {seed}");
        assert_eq!(a.intersection(&b), b.intersection(&a), "seed {seed}");
        assert_eq!(
            a.union(&b).complement(),
            a.complement().intersection(&b.complement()),
            "seed {seed}"
        );
        assert_eq!(a.difference(&b), a.intersection(&b.complement()), "seed {seed}");
        assert!(a.intersection(&b).is_subset(&a), "seed {seed}");
        assert!(a.is_subset(&a.union(&b)), "seed {seed}");
        assert_eq!(a.union(&b).len() + a.intersection(&b).len(), a.len() + b.len(), "seed {seed}");
        // The word-parallel counting shortcuts agree with the allocating ops.
        assert_eq!(a.intersects(&b), !a.is_disjoint(&b), "seed {seed}");
        assert_eq!(a.intersection_count(&b), a.intersection(&b).len(), "seed {seed}");
        assert_eq!(a.difference_count(&b), a.difference(&b).len(), "seed {seed}");
    }
}

#[test]
fn ring_arcs_are_regions_and_sip_sets() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let ring_len = rng.range(3, 10);
        let start = rng.range(0, 10) % ring_len;
        let len = rng.range(1, 8).min(ring_len - 1);
        let ts = ring_ts(ring_len);
        let states = (0..len).map(|k| StateId(((start + k) % ring_len) as u32));
        let arc = StateSet::from_states(ring_len, states);
        // In a ring with distinct labels every contiguous arc is a region…
        assert!(is_region(&ts, &arc), "seed {seed}");
        // …and regions of deterministic commutative systems are SIP sets.
        assert!(is_sip_set(&ts, &arc), "seed {seed}");
    }
}

#[test]
fn insertion_over_regions_preserves_observable_traces() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let ring_len = rng.range(3, 9);
        let start = rng.range(0, 9) % ring_len;
        let len = rng.range(1, 6).min(ring_len - 1);
        let ts = ring_ts(ring_len);
        let states = (0..len).map(|k| StateId(((start + k) % ring_len) as u32));
        let arc = StateSet::from_states(ring_len, states);
        let outcome = insert_event(&ts, &arc, "probe").unwrap();
        assert!(outcome.ts.is_deterministic(), "seed {seed}");
        assert!(outcome.ts.is_commutative(), "seed {seed}");
        assert!(projected_trace_equivalent(&ts, &outcome.ts, &["probe"]), "seed {seed}");
        assert_eq!(outcome.ts.num_states(), ring_len + arc.len(), "seed {seed}");
    }
}

#[test]
fn minimal_regions_of_rings_are_regions() {
    for ring_len in 2..9 {
        let ts = ring_ts(ring_len);
        let regions = minimal_regions(&ts, &RegionConfig::default());
        assert!(!regions.is_empty(), "ring {ring_len}");
        for r in &regions {
            assert!(is_region(&ts, r), "ring {ring_len}");
            assert!(!r.is_empty(), "ring {ring_len}");
        }
    }
}

#[test]
fn random_stgs_are_consistent_and_engines_agree() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let num_pairs = rng.range(1, 4);
        let couplings: Vec<(usize, usize)> =
            (0..rng.range(0, 3)).map(|_| (rng.range(0, 4), rng.range(0, 4))).collect();
        let model = random_stg(num_pairs, &couplings);
        match model.state_graph(200_000) {
            Ok(sg) => {
                assert!(sg.is_consistent(), "seed {seed}");
                let space = model.symbolic_state_space();
                assert_eq!(space.state_count(), sg.num_states() as u128, "seed {seed}");
                // The chained fixpoint must hold exactly the explicit
                // states: equal counts, and every explicit marking and
                // (marking, code) pair is a member.
                let encoded = model.symbolic_encoded_state_space(sg.code(sg.ts.initial()));
                assert_eq!(encoded.state_count(), sg.num_states() as u128, "seed {seed}");
                for (state, marking) in sg.markings.iter().enumerate() {
                    let mut assignment = marking.to_bools();
                    assert!(space.contains(&assignment), "seed {seed}: marking {marking}");
                    let code = sg.code(StateId(state as u32));
                    assignment.extend((0..sg.num_signals()).map(|s| (code >> s) & 1 != 0));
                    assert!(encoded.contains(&assignment), "seed {seed}: state {state}");
                }
            }
            Err(stg::StgError::Net(petri::PetriError::DeadInitialMarking)) => {
                // Some couplings deadlock the ring; that is a legal outcome
                // for the generator, not a property violation.
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
}

#[test]
fn derived_logic_matches_the_truth_tables_on_random_stgs() {
    // Both derivations — on the explicit graph and on the STG's encoded
    // space — against the truth tables of the explicit state graph, over
    // every code of the (small) signal space.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let num_pairs = rng.range(1, 4);
        let couplings: Vec<(usize, usize)> =
            (0..rng.range(0, 3)).map(|_| (rng.range(0, 4), rng.range(0, 4))).collect();
        let model = random_stg(num_pairs, &couplings);
        let Ok(sg) = model.state_graph(200_000) else { continue };
        let graph = csc::EncodedGraph::from_state_graph(&sg);
        assert!(graph.num_signals() <= 8, "generator stays small");
        let label = format!("seed {seed}");
        truth_table::check(&label, &graph, &logic::derive_next_state_functions(&graph));
        let reach = stg::ReachabilityConfig::default();
        let from_stg = logic::analyze_stg_with(&model, sg.code(sg.ts.initial()), &reach);
        truth_table::check(&format!("{label} (STG)"), &graph, &from_stg.map(|r| r.functions));
    }
}

#[test]
fn solver_results_are_always_verified() {
    for num_pairs in 1..3 {
        // Pulser banks: conflicts guaranteed, solvable, modest size.
        let model = stg::benchmarks::pulser_bank(num_pairs);
        let sg = model.state_graph(200_000).unwrap();
        let solution = solve_stg(&model, &SolverConfig::default()).unwrap();
        assert!(solution.graph.complete_state_coding_holds(), "bank {num_pairs}");
        let problems = csc::verify_solution(&sg, &solution);
        assert!(problems.is_empty(), "bank {num_pairs}: {problems:?}");
    }
}
