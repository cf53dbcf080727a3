//! A narrated, stage-by-stage tutorial of Complete State Coding
//! resolution on the paper's running example (the Fig. 3 "pulser").
//!
//! Part 1 drives one *explicit* solver iteration by hand — conflict pair
//! found, candidate bricks, block chosen, I-partition derived, state
//! signal inserted — then lets [`csc::solve_state_graph`] run the same
//! loop to completion.
//!
//! Part 2 repeats the whole exercise *symbolically*: the conflict is
//! detected on reachability BDDs, the state signal is inserted directly
//! into the Petri net by [`csc::solve_stg_symbolic`] (no state graph is
//! ever built), and the next-state logic is derived from the encoded STG's
//! symbolic state space by the symbolic logic engine.
//!
//! Part 3 closes the loop to gates: the minimized covers become a
//! netlist of complex gates and generalized C-elements
//! ([`netlist::synthesize`]), emitted as `.eqn` equations, and the
//! emitted circuit is verified *against the STG it came from* by the
//! symbolic circuit checker ([`netlist::verify_space`]), on the same
//! encoded state space the logic was derived from — the same checks
//! `rsynth --emit eqn --verify-netlist` runs.
//!
//! Run with `cargo run -p synthkit --example csc_walkthrough`; the smoke
//! test in `tests/examples_smoke.rs` runs it on every `cargo test`.
//!
//! See also the "Symbolic CSC resolution" section of ARCHITECTURE.md,
//! which maps each stage printed here to the crate implementing it.

use csc::{
    conflict_pairs, find_best_block, insert_state_signal, solve_state_graph, solve_stg_symbolic,
    EncodedGraph,
};
use regions::{bricks, RegionConfig};

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The two-signal example used throughout the paper: the output pulses
    // twice per input cycle, so two code classes are reused.
    let model = stg::benchmarks::pulser();
    let sg = model.state_graph(1_000)?;
    let graph = EncodedGraph::from_state_graph(&sg);

    println!("== specification ==");
    println!("{}", model.to_g());

    println!("== state codes (x y, * = excited) ==");
    for s in 0..graph.num_states() {
        let s = ts::StateId::from(s);
        println!(
            "  {:4}  {}  enabled: {:?}",
            graph.ts.state_name(s),
            sg.code_string(s),
            graph.ts.enabled_events(s).iter().map(|&e| graph.ts.event_name(e)).collect::<Vec<_>>()
        );
    }

    let conflicts = conflict_pairs(&graph);
    println!("\n== CSC conflicts ==");
    for c in &conflicts {
        println!(
            "  {} / {} share code {:02b} but enable different outputs",
            graph.ts.state_name(c.a),
            graph.ts.state_name(c.b),
            c.code
        );
    }

    let brick_set = bricks(&graph.ts, &RegionConfig::default());
    println!("\n== bricks (candidate building blocks) ==");
    for brick in &brick_set {
        let names: Vec<&str> = brick.states.iter().map(|s| graph.ts.state_name(s)).collect();
        println!("  {:?}: {{{}}}", brick.kind, names.join(", "));
    }

    let best = find_best_block(&graph, &conflicts, &brick_set, 4)
        .expect("the pulser always has a valid insertion block");
    let partition = best.partition.clone().expect("valid candidates carry a partition");
    println!("\n== chosen block and I-partition ==");
    let show = |label: &str, set: &ts::StateSet| {
        let names: Vec<&str> = set.iter().map(|s| graph.ts.state_name(s)).collect();
        println!("  {label}: {{{}}}", names.join(", "));
    };
    show("block b (x = 1)", &partition.block);
    show("ER(x+)", &partition.er_rise);
    show("ER(x-)", &partition.er_fall);
    show("stable 1 (S1)", &partition.s1);
    show("stable 0 (S0)", &partition.s0);
    println!("  cost: {:?}", best.cost);

    let encoded = insert_state_signal(&graph, "csc0", &partition)?;
    println!("\n== after inserting csc0 ==");
    println!(
        "  {} states (was {}), CSC holds: {}",
        encoded.num_states(),
        graph.num_states(),
        encoded.complete_state_coding_holds()
    );
    for s in 0..encoded.num_states() {
        let s = ts::StateId::from(s);
        println!("  {:12}  code {:03b}", encoded.ts.state_name(s), encoded.code(s));
    }
    println!(
        "\nremaining conflicts: {} (the solver iterates until zero)",
        conflict_pairs(&encoded).len()
    );

    // The solver runs exactly the above once per iteration, recomputing
    // the conflicts after each insertion, until none remain.
    println!("\n== the explicit solver, run to completion ==");
    let solution = solve_state_graph(&sg, &csc::SolverConfig::default())?;
    println!(
        "  inserted {:?}; conflicts {} -> 0",
        solution.inserted_signals, solution.stats.initial_conflicts
    );
    println!("  stages: {}", solution.stats.stage);
    println!("  CSC holds: {}", solution.graph.complete_state_coding_holds());

    // ------------------------------------------------------------------
    // Part 2: the same problem, fully symbolically.  No state graph, no
    // StateSet — conflicts, blocks and the insertion all live on BDDs,
    // and the output is an encoded STG rather than an encoded graph.
    // ------------------------------------------------------------------
    println!("\n== the symbolic solver: no state graph at all ==");
    println!("  symbolic CSC check on the input: conflict = {}", model.symbolic_csc_violation(0));
    let symbolic = solve_stg_symbolic(&model, &csc::SolverConfig::default())?;
    for core in &symbolic.cores {
        let code: String = core.code.iter().rev().map(|&b| if b { '1' } else { '0' }).collect();
        println!("  conflict core found: signal '{}' disagrees at shared code {code}", core.signal);
    }
    println!(
        "  inserted {:?}; symbolic CSC check on the result: conflict = {}",
        symbolic.inserted_signals,
        symbolic.stg.symbolic_csc_violation(0)
    );
    println!("\n== the encoded STG (the designer's hand-back) ==");
    println!("{}", symbolic.stg.to_g());

    // Logic derivation on the encoded STG — reachability, ON/OFF sets and
    // interval-ISOP covers, all on the same BDD engine.  The encoded state
    // space is built once and serves the netlist check in Part 3 too.
    println!("== next-state logic, derived symbolically ==");
    let mut space =
        symbolic.stg.try_symbolic_encoded_state_space(0, &stg::ReachabilityConfig::default())?;
    let analysis = logic::analyze_space(&symbolic.stg, &mut space)?;
    for function in &analysis.functions.functions {
        println!(
            "  {:6} = {:2} literals in {} cube(s)",
            function.name,
            function.literals(),
            function.cubes()
        );
    }
    println!(
        "  total: {} literals, {} reachable markings",
        analysis.functions.total_literals(),
        analysis.markings
    );

    // ------------------------------------------------------------------
    // Part 3: close the loop to gates.  Covers that depend on their own
    // signal latch (generalized C-elements, split into set/reset against
    // the don't-care space); the rest are combinational complex gates.
    // ------------------------------------------------------------------
    println!("\n== the gate netlist (rsynth --emit eqn) ==");
    let circuit = netlist::synthesize(&symbolic.stg, &analysis.functions)?;
    print!("{}", circuit.to_eqn());
    println!(
        "\n  {} gates ({} generalized C-elements), {} literals",
        circuit.gates.len(),
        circuit.c_elements(),
        circuit.literals()
    );

    // The emitted circuit — not the covers it came from — is rebuilt as a
    // symbolic transition model and checked against the encoded STG's
    // reachable space (the one the logic came from): every gate excitation
    // must match the STG's (projection-trace equivalence) and no
    // transition may withdraw another gate's excitation (speed
    // independence).
    println!("\n== closed-loop verification (rsynth --verify-netlist) ==");
    let verification = netlist::verify_space(&symbolic.stg, &mut space, &circuit)?;
    println!(
        "  {} reachable states: trace-equivalent = {}, speed-independent = {}",
        verification.states_f64, verification.trace_equivalent, verification.speed_independent
    );
    for finding in &verification.diagnostics {
        println!("  !! {finding}");
    }
    assert!(verification.passed(), "the encoded pulser must verify hazard-free");

    println!("\nThe explicit and symbolic paths agree: CSC resolved with one signal,");
    println!("and the emitted netlist provably implements the encoded specification.");
    Ok(())
}
