//! Round-trip property: an emitted `.eqn` file, parsed back, denotes the
//! same Boolean functions as the source covers — checked by canonical BDD
//! equivalence per gate, over the named benchmark suites and a sweep of
//! fuzzed STGs.  The oracle itself is exercised negatively: a mangled
//! equation must be detected as non-equivalent.

use stg::benchmarks;
use stg::fuzz::random_stg;

/// Synthesizes a netlist straight from an STG's next-state covers, or
/// `None` when the model has no implementable covers (CSC conflicts).
fn synthesized(model: &stg::Stg) -> Option<netlist::Netlist> {
    let reach = stg::ReachabilityConfig::default();
    let functions = logic::analyze_stg_with(model, 0, &reach).ok()?.functions;
    Some(netlist::synthesize(model, &functions).expect("synthesis from derived covers"))
}

fn assert_round_trips(name: &str, circuit: &netlist::Netlist) {
    let eqn = circuit.to_eqn();
    let reparsed =
        netlist::parse_eqn(&eqn).unwrap_or_else(|e| panic!("{name}: emitted .eqn re-parses: {e}"));
    assert_eq!(reparsed.name, circuit.name, "{name}: model name survives");
    assert_eq!(reparsed.gates.len(), circuit.gates.len(), "{name}: gate count survives");
    assert!(
        netlist::equivalent(circuit, &reparsed).expect("equivalence check runs"),
        "{name}: parsed .eqn is not BDD-equivalent to the source covers"
    );
}

#[test]
fn named_benchmarks_round_trip_through_eqn() {
    let mut suite = benchmarks::table2_suite();
    suite.extend(benchmarks::corpus_suite());
    let mut checked = 0;
    for (name, model, csc_holds) in suite {
        let Some(circuit) = synthesized(&model) else {
            assert!(!csc_holds, "{name}: CSC holds but the covers were not derivable");
            continue;
        };
        assert_round_trips(name, &circuit);
        checked += 1;
    }
    assert!(checked >= 5, "the suite must contain several CSC-clean models, got {checked}");
}

#[test]
fn fuzzed_models_round_trip_through_eqn() {
    let seeds: u64 =
        std::env::var("RSYNTH_FUZZ_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(200);
    let mut checked = 0;
    for seed in 0..seeds {
        let model = random_stg(seed);
        let Some(circuit) = synthesized(&model) else { continue };
        assert_round_trips(&format!("seed {seed}"), &circuit);
        checked += 1;
    }
    // Most fuzzed models carry CSC conflicts; a tenth of the sweep is
    // still a meaningful property-test population.
    assert!(checked >= seeds / 10, "too few CSC-free fuzzed models round-tripped: {checked}");
}

#[test]
fn the_equivalence_oracle_detects_a_mangled_cover() {
    let model = benchmarks::pipeline_2ph(3);
    let circuit = synthesized(&model).expect("the 2-phase pipeline is CSC-clean");
    let eqn = circuit.to_eqn();
    // Swap the polarity of one literal: `x0 &` becomes `!x0 &` in the
    // first C-element's set cover.
    let mangled = eqn.replacen("C(x0 &", "C(!x0 &", 1);
    assert_ne!(mangled, eqn, "the mangling must apply");
    let reparsed = netlist::parse_eqn(&mangled).expect("mangled text still parses");
    assert!(
        !netlist::equivalent(&circuit, &reparsed).expect("equivalence check runs"),
        "a flipped literal must be detected as non-equivalent"
    );
}
