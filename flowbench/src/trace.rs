//! The traced flow: the layers' public entry points called one at a time, in
//! the order `synthkit::run_flow` calls them today, each call timed from
//! here.  Every call shares one unlimited `bdd::Budget`, so the deltas of
//! its node and apply-step counters attribute BDD work to the layer that
//! did it.
//!
//! Only this module is tied to today's layer entry points; the end-to-end
//! numbers never come from it.

use crate::flow::{self, Observed, Seen};
use bdd::Budget;
use logic::LogicError;
use std::time::Instant;
use stg::ReachabilityConfig;
use synthkit::FlowOptions;

/// What the traced layers did for one design (or, summed, for one pass).
#[derive(Clone, Debug, Default)]
pub struct LayerSample {
    /// `stg::parse_g` + `stg::validate`.
    pub load_s: f64,
    /// `logic::analyze_stg_with` on the input STG.
    pub analyze_s: f64,
    /// `csc::solve_stg_symbolic_with` (near 0 when CSC already holds).
    pub solve_s: f64,
    /// `logic::analyze_stg_with` on the encoded STG (near 0 when nothing
    /// was inserted).
    pub reanalyze_s: f64,
    /// `netlist::synthesize_named` + `Netlist::to_eqn`.
    pub emit_s: f64,
    /// `netlist::verify`.
    pub verify_s: f64,
    /// A standalone `Stg::try_symbolic_encoded_state_space` on the input;
    /// not part of a flow.
    pub reach_s: f64,
    /// BDD nodes charged by the logic, solver and netlist calls.
    pub nodes_logic: u64,
    pub nodes_csc: u64,
    pub nodes_netlist: u64,
    /// BDD apply steps charged by all flow calls.
    pub steps: u64,
    /// Candidates the solver evaluated and state signals it inserted.
    pub candidates: usize,
    pub inserted: usize,
    /// Arena size and op-cache counters of the standalone fixpoint.
    pub arena_nodes: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl LayerSample {
    /// Time the traced flow calls account for (the standalone fixpoint is
    /// not part of a flow).
    pub fn flow_s(&self) -> f64 {
        self.load_s + self.analyze_s + self.solve_s + self.reanalyze_s + self.emit_s + self.verify_s
    }

    /// Divides every time by the host `slowdown`; the counters stay.
    pub fn divide_times(&mut self, slowdown: f64) {
        for seconds in [
            &mut self.load_s,
            &mut self.analyze_s,
            &mut self.solve_s,
            &mut self.reanalyze_s,
            &mut self.emit_s,
            &mut self.verify_s,
            &mut self.reach_s,
        ] {
            *seconds /= slowdown;
        }
    }

    /// Adds one design's sample to a pass total; the arena size is the
    /// pass's largest.
    pub fn accumulate(&mut self, other: &LayerSample) {
        self.load_s += other.load_s;
        self.analyze_s += other.analyze_s;
        self.solve_s += other.solve_s;
        self.reanalyze_s += other.reanalyze_s;
        self.emit_s += other.emit_s;
        self.verify_s += other.verify_s;
        self.reach_s += other.reach_s;
        self.nodes_logic += other.nodes_logic;
        self.nodes_csc += other.nodes_csc;
        self.nodes_netlist += other.nodes_netlist;
        self.steps += other.steps;
        self.candidates += other.candidates;
        self.inserted += other.inserted;
        self.arena_nodes = self.arena_nodes.max(other.arena_nodes);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

/// Runs `call`, adding its wall time to `slot`.
fn time<T>(slot: &mut f64, call: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = call();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// The budget's (nodes, steps) counters.
fn spent(budget: &Budget) -> (u64, u64) {
    (budget.nodes_spent(), budget.steps_spent())
}

/// Adds the counter growth since `before` to `nodes` and `steps`.
fn charge(budget: &Budget, before: (u64, u64), nodes: &mut u64, steps: &mut u64) {
    let (n, s) = spent(budget);
    *nodes += n - before.0;
    *steps += s - before.1;
}

/// One traced flow over `text`; the result is checked like an untraced
/// flow's.
pub fn traced_flow(text: &str, options: &FlowOptions) -> Result<(LayerSample, Observed), String> {
    let budget = Budget::unlimited();
    let reach = ReachabilityConfig::with_budget(budget.clone());
    let code = options.initial_code;
    let mut s = LayerSample::default();

    let model = time(&mut s.load_s, || flow::load(text))?;

    let before = spent(&budget);
    let first = time(&mut s.analyze_s, || logic::analyze_stg_with(&model, code, &reach));
    charge(&budget, before, &mut s.nodes_logic, &mut s.steps);

    // The solve and re-analysis stages are timed even when a conflict-free
    // design skips them, so their times read as measured (near 0), not as
    // a constant.
    let before = spent(&budget);
    let solved = time(&mut s.solve_s, || match &first {
        Err(LogicError::CscViolation { .. }) => {
            Some(csc::solve_stg_symbolic_with(&model, &options.solver, code, &reach))
        }
        _ => None,
    });
    charge(&budget, before, &mut s.nodes_csc, &mut s.steps);
    let solution = solved.transpose().map_err(|e| format!("solve: {e}"))?;
    if let Some(solution) = &solution {
        s.candidates = solution.stats.stage.candidates_evaluated;
        s.inserted = solution.inserted_signals.len();
    }

    let before = spent(&budget);
    let again = time(&mut s.reanalyze_s, || {
        solution.as_ref().map(|solution| logic::analyze_stg_with(&solution.stg, code, &reach))
    });
    charge(&budget, before, &mut s.nodes_logic, &mut s.steps);
    let analysis = match (first, again) {
        (_, Some(again)) => again.map_err(|e| format!("re-analyze: {e}"))?,
        (Ok(analysis), None) => analysis,
        (Err(e), None) => return Err(format!("analyze: {e}")),
    };
    let encoded = solution.as_ref().map_or(&model, |solution| &solution.stg);

    let (circuit, eqn) = time(&mut s.emit_s, || {
        let signals: Vec<(String, bool)> =
            encoded.signals().iter().map(|s| (s.name.clone(), !s.kind.is_non_input())).collect();
        let circuit = netlist::synthesize_named(encoded.name(), &signals, &analysis.functions)?;
        let eqn = circuit.to_eqn();
        Ok::<_, netlist::NetlistError>((circuit, eqn))
    })
    .map_err(|e| format!("emit: {e}"))?;

    let before = spent(&budget);
    let verification = time(&mut s.verify_s, || netlist::verify(encoded, &circuit, code, &reach));
    charge(&budget, before, &mut s.nodes_netlist, &mut s.steps);

    let space = time(&mut s.reach_s, || model.try_symbolic_encoded_state_space(code, &reach))
        .map_err(|e| format!("reach: {e}"))?;
    let stats = space.manager_stats();
    s.arena_nodes = stats.num_nodes;
    s.cache_hits = stats.cache_hits;
    s.cache_misses = stats.cache_misses;

    let seen = Observed {
        states: solution.as_ref().map_or(analysis.markings, |s| s.initial_states_f64),
        // The symbolic analysis only succeeds where CSC holds.
        csc: true,
        state_signals: s.inserted,
        literals: circuit.literals(),
        verdict: Seen::from(verification),
        circuit,
        eqn,
    };
    Ok((s, seen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::designs;

    #[test]
    fn the_traced_flow_gives_the_untraced_answer() {
        let options = flow::options();
        for design in designs("controllers").unwrap() {
            if !matches!(design.name, "pulser" | "vme_read" | "mixed_handshake" | "arbiter") {
                continue;
            }
            let text = (design.build)().to_g();
            let (sample, seen) = traced_flow(&text, &options).unwrap();
            flow::check(&seen, &design.expect).unwrap();
            let untraced = flow::timed(&text, &design.expect, &options).outcome.unwrap();
            assert_eq!(seen.literals, untraced.literals, "{}", design.name);
            assert_eq!(seen.state_signals, untraced.state_signals, "{}", design.name);
            assert!(sample.nodes_logic > 0 && sample.steps > 0 && sample.arena_nodes > 0);
            assert_eq!(sample.candidates > 0, design.name != "arbiter", "{}", design.name);
            assert!(sample.solve_s > 0.0 && sample.reanalyze_s > 0.0, "timed even when skipped");
        }
    }
}
