//! Differential fuzz and fault-injection harness.
//!
//! Seeded random STGs ([`stg::fuzz`]) are driven through the governed flow
//! under deliberately tight budgets, asserting the robustness contract end
//! to end:
//!
//! * **no panics** — every outcome is a report or a typed error,
//! * **no deadline overruns** — a flow with a `timeout_ms` terminates
//!   within the deadline plus a bounded slack,
//! * **monotone ladder descent** — degradation events only ever move down
//!   the rung order, with a contiguous trail ending at the reported rung,
//! * **engine agreement** — the explicit and the symbolic reachability
//!   engines count the same states and reach the same CSC verdict,
//! * **seed-guard agreement** — the closure guard on the encoded space
//!   accepts exactly the seeds a places-only fixpoint comparison accepts,
//! * **parser hardening** — mutated `.g` text is rejected with typed
//!   errors, and the flow survives whatever still parses.
//!
//! Seed counts default to 500 per harness and can be lowered (or raised)
//! with the `RSYNTH_FUZZ_SEEDS` environment variable, e.g. for a quick CI
//! smoke pass.  A failing seed reproduces the exact same model.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use stg::fuzz::{mutate_g, random_stg, SplitMix64};
use synthkit::{run_flow, FlowOptions, FlowRung};

/// Number of seeds to drive, from `RSYNTH_FUZZ_SEEDS` or the default.
fn seed_count(default: u64) -> u64 {
    std::env::var("RSYNTH_FUZZ_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Extra wall-clock allowance on top of a configured deadline: one BDD
/// check interval plus the unbudgeted explicit rung on a tiny net.
const DEADLINE_SLACK_MS: u64 = 2_000;

#[test]
fn explicit_and_symbolic_engines_agree_on_fuzzed_models() {
    for seed in 0..seed_count(500) {
        let model = random_stg(seed);
        let sg = model.state_graph(200_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(sg.is_consistent(), "seed {seed}: inconsistent explicit state graph");
        let space = model.symbolic_state_space(None);
        assert!(space.converged, "seed {seed}: symbolic fixpoint truncated");
        assert_eq!(
            space.state_count(),
            sg.num_states() as u128,
            "seed {seed}: engines disagree on the reachable state count"
        );
        assert_eq!(
            !sg.complete_state_coding_holds(),
            model.symbolic_csc_violation(0),
            "seed {seed}: engines disagree on the CSC verdict"
        );
    }
}

/// Distinct markings a code-encoded space covers: `|∃codes. Reach|`.
fn covered_markings(space: &mut stg::SymbolicStateSpace) -> f64 {
    let signal_vars: Vec<_> =
        (0..space.num_signals()).map(|s| space.current_var_of_signal(s)).collect();
    let (reachable, places) = (space.reachable(), space.num_places());
    let m = space.manager_mut();
    let covered = m.exists_many(reachable, &signal_vars);
    m.sat_count_f64(covered) / 2f64.powi((m.num_vars() - places) as i32)
}

/// The seed guard (`SymbolicStateSpace::check_seed`) decides on the
/// encoded space what comparing it against a places-only fixpoint decides;
/// the fixpoint stays here as the guard's oracle.  Every fuzzed STG is
/// checked under its true seed and under each single-bit perturbation of
/// that seed.
#[test]
fn seed_guard_agrees_with_the_places_only_fixpoint() {
    let config = stg::ReachabilityConfig::default();
    let mut rejected = 0;
    for seed in 0..seed_count(500) {
        let model = random_stg(seed);
        let sg = model.state_graph(200_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let true_code = sg.code(sg.ts.initial());
        let markings = model.try_symbolic_state_space(&config).unwrap().state_count_f64();
        let perturbed = (0..model.num_signals().min(64)).map(|bit| true_code ^ (1 << bit));
        for code in std::iter::once(true_code).chain(perturbed) {
            let mut space = model.try_symbolic_encoded_state_space(code, &config).unwrap();
            let covered = covered_markings(&mut space);
            let oracle = covered == markings && space.state_count_f64() == covered;
            let verdict = space.check_seed(&model);
            assert_eq!(verdict.is_ok(), oracle, "seed {seed}, code {code:#b}: {verdict:?}");
            assert!(code != true_code || oracle, "seed {seed}: the true seed must pass");
            // The witness is a blocked transition exactly when markings
            // were lost, and no witness when a marking got two codes.
            if let Err(stg::StgError::SeedMismatch { blocked_transition, .. }) = &verdict {
                assert_eq!(blocked_transition.is_some(), covered < markings, "seed {seed}");
                rejected += 1;
            }
        }
    }
    // Every signal of a fuzzed STG switches, so a wrong seed bit blocks its
    // first edge: the oracle must have seen rejections, not only passes.
    assert!(rejected > 0 || seed_count(500) == 0, "no perturbed seed was rejected");
}

#[test]
fn governed_flows_never_panic_overrun_or_descend_non_monotonically() {
    for seed in 0..seed_count(500) {
        let model = random_stg(seed);
        // Derive the fault injection from the same seed: a node ceiling
        // (often absurdly tight) plus a deadline, so even an explicit rung
        // that inherits a pathological model stays bounded.
        let mut rng = SplitMix64::new(seed ^ 0x5eed_ba5e);
        let options = FlowOptions {
            node_budget: Some(32 + rng.below(4096) as u64),
            timeout_ms: Some(20 + rng.below(300) as u64),
            ..FlowOptions::default()
        };
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_flow(&model, &options)));
        let elapsed = start.elapsed().as_millis() as u64;
        let result = outcome.unwrap_or_else(|_| panic!("seed {seed}: run_flow panicked"));
        if let Some(timeout) = options.timeout_ms {
            assert!(
                elapsed < timeout + DEADLINE_SLACK_MS,
                "seed {seed}: flow overran the deadline ({elapsed} ms vs {timeout} ms)"
            );
        }
        // A typed solver error (e.g. an unsolvable conflict routed through
        // the explicit pipeline) is a legitimate outcome; the contract is
        // only that it is *typed*, which the Ok/Err split already proves.
        if let Ok(report) = result {
            // The degradation trail must descend monotonically and end
            // where the report says the flow ended.  (It need not start
            // at the symbolic rung: by-design routing — e.g. a typed
            // no-candidate failure — can hand over to the explicit rung
            // without a degradation event.)
            let mut position = FlowRung::Symbolic;
            for event in &report.degradations {
                assert!(
                    event.from >= position,
                    "seed {seed}: degradation trail moved up ({} after {position})",
                    event.from
                );
                assert!(
                    event.to > event.from,
                    "seed {seed}: ladder climbed ({} -> {})",
                    event.from,
                    event.to
                );
                position = event.to;
            }
            if let Some(last) = report.degradations.last() {
                assert_eq!(
                    report.rung, last.to,
                    "seed {seed}: reported rung does not match the trail"
                );
            }
        }
    }
}

#[test]
fn fuzzed_netlists_emit_round_trip_and_agree_with_the_cover_level_verdict() {
    let config = stg::ReachabilityConfig::default();
    for seed in 0..seed_count(500) {
        let model = random_stg(seed);
        let csc_violated = model.symbolic_csc_violation(0);
        // Cover-level agreement, direction one: the derivation succeeds
        // exactly when the covers satisfy ON ∧ OFF = ∅ over the reachable
        // codes — i.e. when the cover-level CSC check passes.
        let analysis = logic::analyze_stg_with(&model, 0, &config);
        let analysis = match analysis {
            Ok(analysis) => {
                assert!(!csc_violated, "seed {seed}: covers derived despite a CSC violation");
                analysis
            }
            Err(error) => {
                assert!(
                    csc_violated,
                    "seed {seed}: derivation failed on a CSC-clean model: {error}"
                );
                continue;
            }
        };
        // Every CSC-free fuzzed STG goes through synthesis, both emission
        // formats, re-parsing, and the closed-loop verifier — none of
        // which may panic.
        let checked = catch_unwind(AssertUnwindSafe(|| {
            let circuit = netlist::synthesize(&model, &analysis.functions)
                .unwrap_or_else(|e| panic!("seed {seed}: synthesis failed: {e}"));
            let eqn = circuit.to_eqn();
            let _verilog = circuit.to_verilog();
            let reparsed = netlist::parse_eqn(&eqn)
                .unwrap_or_else(|e| panic!("seed {seed}: emitted .eqn must re-parse: {e}"));
            assert!(
                netlist::equivalent(&circuit, &reparsed).expect("equivalence check runs"),
                "seed {seed}: .eqn round-trip changed the circuit"
            );
            netlist::verify(&model, &circuit, 0, &config)
                .unwrap_or_else(|e| panic!("seed {seed}: verification errored: {e}"))
        }));
        let verification =
            checked.unwrap_or_else(|_| panic!("seed {seed}: the netlist back-end panicked"));
        // Exact covers on a CSC-clean model always reproduce the STG's
        // excitations state by state.
        assert!(verification.trace_equivalent, "seed {seed}: netlist diverges from the STG");
        // Speed-independence agreement with the cover-level persistency
        // check is one-directional: a gate-level hazard implies a cover
        // diagnostic (the converse can fail on same-signal co-enabled
        // transitions, which the gate model merges into one excitation).
        if !verification.speed_independent {
            assert!(
                !analysis.diagnostics.is_empty(),
                "seed {seed}: gate-level hazard without a cover-level diagnostic: {:?}",
                verification.diagnostics
            );
        }
        if analysis.diagnostics.is_empty() {
            assert!(
                verification.speed_independent,
                "seed {seed}: clean covers but the netlist check failed: {:?}",
                verification.diagnostics
            );
        }
    }
}

#[test]
fn mutated_g_text_never_panics_the_parser_or_the_flow() {
    for seed in 0..seed_count(500) {
        let base = random_stg(seed % 16).to_g();
        let mutated = mutate_g(&base, seed);
        let parsed = catch_unwind(|| stg::parse_g(&mutated))
            .unwrap_or_else(|_| panic!("seed {seed}: parse_g panicked on mutated input"));
        let Ok(model) = parsed else { continue };
        // Whatever still parses must survive validation …
        let report = catch_unwind(AssertUnwindSafe(|| stg::validate(&model)))
            .unwrap_or_else(|_| panic!("seed {seed}: validate panicked"));
        if report.has_errors() {
            continue;
        }
        // … and a tightly budgeted governed flow: a typed error or a
        // (possibly degraded) report, never a panic.
        let options =
            FlowOptions { node_budget: Some(512), timeout_ms: Some(500), ..FlowOptions::default() };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_flow(&model, &options)));
        assert!(outcome.is_ok(), "seed {seed}: run_flow panicked on a mutated model");
    }
}
