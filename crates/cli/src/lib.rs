//! High-level facade over the state-encoding toolkit.
//!
//! This crate ties the individual libraries together the way the `petrify`
//! command-line tool does: read an STG, solve Complete State Coding with the
//! region-based method (or the excitation-region baseline), derive and
//! minimize the next-state logic, and report everything as text.  The
//! [`rsynth` binary](../rsynth/index.html) is a thin wrapper over
//! [`run_flow`]; the repository's examples and integration tests use the
//! same entry points.
//!
//! The flow stays symbolic end to end: it builds one encoded state space
//! for the input STG, derives the next-state functions from it, and when a
//! CSC conflict needs state signals, the symbolic solver inserts them on
//! BDDs and hands back the encoded STG's space for the final analysis and
//! the netlist check.  No explicit state graph is built, which is what lets
//! designs with more than 64 signals (or state spaces beyond explicit
//! reach) synthesize end to end.  The explicit state-graph pipeline runs
//! only when a conflicted design selects it ([`FlowOptions::strategy`]) or
//! as the second rung of a governed run whose budget tripped.
//!
//! # Example
//!
//! ```
//! use synthkit::{run_flow, FlowOptions};
//!
//! let report = run_flow(&stg::benchmarks::vme_read(), &FlowOptions::default())?;
//! assert!(report.csc_satisfied);
//! assert!(report.inserted_signals >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bdd::Budget;
use csc::{
    conflict_pairs, solve_space, CscError, CscSolution, EncodedGraph, SolverConfig, SolverStrategy,
    StageStats, SymbolicSolution,
};
use logic::{analyze_space, area_of_functions, LogicDiagnostic, LogicError, SymbolicLogicReport};
use netlist::{NetlistError, NetlistVerification};
use std::fmt;
use std::time::{Duration, Instant};
use stg::{ReachabilityConfig, Stg, SymbolicStateSpace};

/// Options of the end-to-end flow.
#[derive(Clone, Debug)]
pub struct FlowOptions {
    /// Solver configuration (frontier width, candidate source, …).  Only
    /// the explicit solver reads the candidate source and
    /// `enlarge_concurrency`; [`FlowOptions::baseline`] selects it.
    pub solver: SolverConfig,
    /// Whether to estimate the implementation area after solving.
    pub estimate_area: bool,
    /// The first guess at the signal values in the initial state (bit `i`
    /// = signal `i`).  The flow flips the bits of every signal the seed
    /// guard finds barred and rebuilds the input's space until the guard
    /// passes ([`stg::Stg::seeded_encoded_state_space`]); a right guess
    /// costs no second fixpoint.  The benchmark suite starts at 0.
    pub initial_code: u64,
    /// Which CSC solver resolves a conflicted design.
    /// [`SolverStrategy::Symbolic`] (the default) inserts state signals on
    /// BDDs and keeps the whole flow symbolic — the only option for designs
    /// beyond 64 signals; the explicit state-graph pipeline remains
    /// selectable.  A typed failure of the symbolic solver is the flow's
    /// error, not a hand-over to the explicit one.
    pub strategy: SolverStrategy,
    /// Ceiling on BDD nodes the whole flow may allocate (`None` = no
    /// ceiling).  Any limit arms the shared [`Budget`] and with it the
    /// fallback ladder — see [`run_flow`].
    pub node_budget: Option<u64>,
    /// Wall-clock deadline for the whole flow in milliseconds, honoured
    /// within one budget check interval.
    pub timeout_ms: Option<u64>,
    /// Refuse to descend the fallback ladder: the first budget trip returns
    /// its typed error instead of degrading.
    pub no_fallback: bool,
    /// Verify the emitted gate netlist against the source STG (symbolic
    /// speed-independence and projection trace equivalence).  The check
    /// shares the flow's [`Budget`]; a tripped ceiling aborts the
    /// verification with a typed verdict instead of failing the flow.
    pub verify_netlist: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            solver: SolverConfig::default(),
            estimate_area: true,
            initial_code: 0,
            strategy: SolverStrategy::default(),
            node_budget: None,
            timeout_ms: None,
            no_fallback: false,
            verify_netlist: false,
        }
    }
}

impl FlowOptions {
    /// The ASSASSIN-style baseline flow: the explicit solver with
    /// excitation-region candidates only.
    pub fn baseline() -> Self {
        FlowOptions {
            solver: SolverConfig::excitation_region_baseline(),
            strategy: SolverStrategy::Explicit,
            ..Self::default()
        }
    }

    /// The shared resource budget of one flow run — `None` when no limit is
    /// configured, in which case the flow runs ungoverned exactly as before.
    pub fn budget(&self) -> Option<Budget> {
        if self.node_budget.is_none() && self.timeout_ms.is_none() {
            return None;
        }
        Some(Budget::new(self.node_budget, None, self.timeout_ms.map(Duration::from_millis)))
    }
}

/// The rung of the fallback ladder a flow run completed on.  Rungs are
/// ordered: a governed run only ever descends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowRung {
    /// The full symbolic pipeline (chained reachability).
    Symbolic,
    /// The explicit state-graph pipeline (possible up to 64 signals).
    Explicit,
    /// Diagnosis only: conflicts reported as far as they were detected, no
    /// state signal inserted, no logic derived.
    PartialReport,
}

impl fmt::Display for FlowRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlowRung::Symbolic => "symbolic",
            FlowRung::Explicit => "explicit",
            FlowRung::PartialReport => "partial-report",
        })
    }
}

/// One descent of the fallback ladder, recorded in
/// [`FlowReport::degradations`] so callers can see exactly what degraded
/// and why.
#[derive(Clone, Debug)]
pub struct DegradationEvent {
    /// The pipeline stage whose governor fired (`"reachability"`,
    /// `"conflict-detection"`, `"candidate-search"`, `"isop"`, or `"flow"`
    /// for structural limits).
    pub stage: String,
    /// What tripped: a budget ceiling or deadline on the symbolic rung, or
    /// on the explicit rung a structural limit such as the 64-signal cap
    /// or the explicit engine's own error.
    pub trigger: String,
    /// BDD nodes charged to the shared budget when the rung was abandoned
    /// (0 for ungoverned descents).
    pub nodes_spent: u64,
    /// Wall-clock milliseconds into the run when the rung was abandoned.
    pub elapsed_ms: u64,
    /// The abandoned rung.
    pub from: FlowRung,
    /// The rung the flow descended to.
    pub to: FlowRung,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} at {}: {} [{} bdd nodes, {} ms]",
            self.from, self.to, self.stage, self.trigger, self.nodes_spent, self.elapsed_ms
        )
    }
}

/// The gate-level back-end's contribution to a [`FlowReport`]: the
/// synthesized circuit, its size, and the closed-loop verification verdict.
#[derive(Clone, Debug)]
pub struct NetlistStage {
    /// The synthesized circuit (emit it with [`netlist::Netlist::to_eqn`]
    /// or [`netlist::Netlist::to_verilog`]).
    pub circuit: netlist::Netlist,
    /// Number of gates (one per non-input signal).
    pub gates: usize,
    /// Number of generalized C-elements among the gates.
    pub c_elements: usize,
    /// Total literal count over all gate covers.
    pub literals: usize,
    /// Wall-clock milliseconds spent synthesizing and splitting covers.
    pub build_ms: f64,
    /// Wall-clock milliseconds spent verifying (0 when not requested).
    pub verify_ms: f64,
    /// The closed-loop verification verdict.
    pub verdict: NetlistVerdict,
}

/// Outcome of verifying the emitted netlist against the source STG.
#[derive(Clone, Debug)]
pub enum NetlistVerdict {
    /// Verification was not requested ([`FlowOptions::verify_netlist`] off).
    NotRequested,
    /// The netlist is speed-independent and trace-equivalent to the STG.
    Verified {
        /// Reachable (marking, code) pairs the check explored, as a float.
        states_f64: f64,
    },
    /// The netlist violates speed independence or diverges from the STG;
    /// every finding carries a witness.
    Failed {
        /// The typed, witness-carrying findings.
        diagnostics: Vec<netlist::NetlistDiagnostic>,
    },
    /// Verification could not run to completion (budget trip, or no
    /// encoded STG to verify against) — a typed outcome, never a panic.
    Aborted {
        /// Why the check stopped.
        reason: String,
    },
}

/// Everything the flow measured for one model.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Model name.
    pub name: String,
    /// Places of the input STG.
    pub places: usize,
    /// Transitions of the input STG.
    pub transitions: usize,
    /// Signals of the input STG.
    pub signals: usize,
    /// Reachable states of the input STG — exact for explicit runs, the
    /// symbolic engine's count when the explicit graph was never built.  A
    /// partial report carries the count its symbolic rung established, or
    /// 0 when it established none, which prints as unknown.
    pub states_f64: f64,
    /// CSC conflict pairs before solving (0 when the symbolic analysis
    /// established that CSC already holds).  A partial report carries the
    /// count its symbolic rung's CSC decision established, or `None`.
    pub initial_conflicts: Option<usize>,
    /// Whether CSC holds on the final state graph.  `false` on a partial
    /// report means "not established", and the report prints it so.
    pub csc_satisfied: bool,
    /// Number of inserted state signals.
    pub inserted_signals: usize,
    /// State count of the final state graph — the encoded STG's own count,
    /// which differs from [`FlowReport::states_f64`] once state signals are
    /// inserted (0 on a partial report, as for `states_f64`).
    pub final_states_f64: f64,
    /// Estimated area in literals (`None` when not requested).
    pub literals: Option<usize>,
    /// Product terms of the minimized covers (`None` when not requested).
    pub cubes: Option<usize>,
    /// BDD nodes the logic derivation allocated, not counting the shared
    /// space's fixpoint (`None` when no area was requested).
    pub logic_bdd_nodes: Option<usize>,
    /// The CSC solver that resolved the conflicts (meaningful when
    /// [`FlowReport::inserted_signals`] is non-zero).
    pub solver_strategy: SolverStrategy,
    /// Typed implementability diagnostics (output persistency, CSC).
    pub logic_diagnostics: Vec<LogicDiagnostic>,
    /// The encoded STG the report describes: the symbolic solver's output,
    /// the input itself when CSC already held, or the STG the explicit
    /// engine re-synthesized.  `None` when the explicit engine's encoded
    /// state graph is not excitation closed, or on a partial report.
    pub encoded: Option<Stg>,
    /// Wall-clock seconds of the whole flow.
    pub cpu_seconds: f64,
    /// Per-stage solver timings and candidate counters.
    pub stage: StageStats,
    /// The fallback-ladder rung the flow completed on;
    /// [`FlowRung::Symbolic`] means the whole flow ran on BDDs, with no
    /// explicit state graph.
    pub rung: FlowRung,
    /// Every ladder descent the run took, in order (empty for ungoverned
    /// runs that never degraded).
    pub degradations: Vec<DegradationEvent>,
    /// The gate-level back-end stage: the synthesized netlist and its
    /// verification verdict (`None` when no logic was derived, e.g. under
    /// `--no-area` or on a partial report).
    pub netlist: Option<NetlistStage>,
    /// Reachability fixpoints the whole run computed, encoded or
    /// places-only, on every rung it tried.  A symbolic run builds one
    /// encoded space for the input and shares it between the analysis, the
    /// solver and the netlist check, so the count is 1 plus one per
    /// candidate net the solver verified, plus one per re-seeding round
    /// when the initial-code guess was wrong.
    pub fixpoints: usize,
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let partial = self.is_partial();
        writeln!(f, "model       : {}", self.name)?;
        writeln!(
            f,
            "input       : {} places, {} transitions, {} signals, {} states",
            self.places,
            self.transitions,
            self.signals,
            self.render_states(self.states_f64)
        )?;
        writeln!(f, "conflicts   : {}", render_conflicts(self.initial_conflicts))?;
        writeln!(
            f,
            "encoding    : {} state signal(s) inserted, {} states, CSC {}",
            self.inserted_signals,
            self.render_states(self.final_states_f64),
            match (self.csc_satisfied, partial) {
                (true, _) => "satisfied",
                (false, true) => "not established",
                (false, false) => "NOT satisfied",
            }
        )?;
        if let Some(literals) = self.literals {
            write!(f, "area        : {literals} literals")?;
            if let Some(cubes) = self.cubes {
                write!(f, ", {cubes} cubes")?;
            }
            writeln!(f)?;
        }
        if self.inserted_signals > 0 {
            writeln!(f, "csc solver  : {} engine", self.solver_strategy)?;
        }
        if !partial {
            write!(f, "logic       : symbolic engine")?;
            match self.logic_bdd_nodes {
                Some(nodes) => writeln!(f, ", {nodes} bdd nodes")?,
                None => writeln!(f)?,
            }
        }
        for diagnostic in &self.logic_diagnostics {
            writeln!(f, "  !! {diagnostic}")?;
        }
        if let Some(stage) = &self.netlist {
            writeln!(
                f,
                "netlist     : {} gates ({} C-elements), {} literals",
                stage.gates, stage.c_elements, stage.literals
            )?;
            match &stage.verdict {
                NetlistVerdict::NotRequested => {}
                NetlistVerdict::Verified { states_f64 } => {
                    writeln!(
                        f,
                        "netlist chk : speed-independent, trace-equivalent ({states_f64:.0} states)"
                    )?;
                }
                NetlistVerdict::Failed { diagnostics } => {
                    writeln!(f, "netlist chk : FAILED ({} finding(s))", diagnostics.len())?;
                    for diagnostic in diagnostics {
                        writeln!(f, "  !! {diagnostic}")?;
                    }
                }
                NetlistVerdict::Aborted { reason } => {
                    writeln!(f, "netlist chk : aborted — {reason}")?;
                }
            }
        }
        writeln!(
            f,
            "stg output  : {}",
            if self.encoded.is_some() { "re-synthesized" } else { "state graph only" }
        )?;
        if !self.degradations.is_empty() || self.rung != FlowRung::Symbolic {
            writeln!(f, "rung        : {}", self.rung)?;
        }
        for event in &self.degradations {
            writeln!(f, "  ~~ degraded {event}")?;
        }
        writeln!(f, "solver      : {}", self.stage)?;
        write!(f, "cpu         : {:.3} s", self.cpu_seconds)
    }
}

impl FlowReport {
    /// Whether the run ended on the diagnosis-only rung, which establishes
    /// neither the state counts nor the CSC verdict.
    fn is_partial(&self) -> bool {
        self.rung == FlowRung::PartialReport
    }

    /// Renders one of the report's state counts: unknown when a partial
    /// report did not establish it (0), otherwise an integer, or
    /// scientific notation past `usize::MAX` (wide designs reach 10²⁰
    /// states and more).
    fn render_states(&self, count: f64) -> String {
        if self.is_partial() && count <= 0.0 {
            "unknown".to_owned()
        } else if count >= usize::MAX as f64 {
            format!("{count:.3e}")
        } else {
            format!("{count:.0}")
        }
    }
}

/// Renders the initial conflict count: unknown on a partial report, and
/// saturated when wide designs have more conflicting codes than a usize
/// holds (every independent-component configuration aliases).
fn render_conflicts(conflicts: Option<usize>) -> String {
    match conflicts {
        None => "unknown".to_owned(),
        Some(usize::MAX) => "> 1.8e19 (saturated)".to_owned(),
        Some(n) => n.to_string(),
    }
}

/// Renders the per-stage solver breakdown of a report as an aligned
/// two-column table (stage name, value); the `rsynth` CLI prints this
/// after every report.
pub fn render_stage_table(report: &FlowReport) -> String {
    let stage = &report.stage;
    let mut out = String::new();
    out.push_str(&format!("{:<22} {:>12}\n", "solver stage", "value"));
    for (label, ms) in [
        ("conflict maintenance", stage.conflict_ms),
        ("block search", stage.search_ms),
        ("partition derivation", stage.partition_ms),
        ("signal insertion", stage.insert_ms),
    ] {
        out.push_str(&format!("{label:<22} {ms:>9.2} ms\n"));
    }
    out.push_str(&format!("{:<22} {:>12}\n", "candidates evaluated", stage.candidates_evaluated));
    out.push_str(&format!("{:<22} {:>12}\n", "candidates pruned", stage.candidates_pruned));
    out.push_str(&format!("{:<22} {:>12}\n", "candidates verified", stage.candidates_verified));
    out.push_str(&format!("{:<22} {:>12}\n", "crossing tests", stage.crossing_tests));
    out.push_str(&format!("{:<22} {:>12}\n", "cofactor crossings", stage.cofactor_crossings));
    out.push_str(&format!("{:<22} {:>12}\n", "reachability fixpoints", report.fixpoints));
    out.push_str(&format!("{:<22} {:>12}\n", "solver engine", report.solver_strategy.to_string()));
    out.push_str(&format!("{:<22} {:>12}\n", "flow rung", report.rung.to_string()));
    out.push_str(&format!("{:<22} {:>12}\n", "degradations", report.degradations.len()));
    if let Some(literals) = report.literals {
        out.push_str(&format!("{:<22} {:>12}\n", "logic literals", literals));
    }
    if let Some(cubes) = report.cubes {
        out.push_str(&format!("{:<22} {:>12}\n", "logic cubes", cubes));
    }
    if let Some(nodes) = report.logic_bdd_nodes {
        out.push_str(&format!("{:<22} {:>12}\n", "logic bdd nodes", nodes));
    }
    if let Some(stage) = &report.netlist {
        out.push_str(&format!("{:<22} {:>12}\n", "netlist gates", stage.gates));
        out.push_str(&format!("{:<22} {:>12}\n", "netlist c-elements", stage.c_elements));
        out.push_str(&format!("{:<22} {:>12}\n", "netlist literals", stage.literals));
        out.push_str(&format!("{:<22} {:>9.2} ms\n", "netlist build", stage.build_ms));
        if !matches!(stage.verdict, NetlistVerdict::NotRequested) {
            out.push_str(&format!("{:<22} {:>9.2} ms\n", "netlist verify", stage.verify_ms));
        }
    }
    out
}

/// Runs the full flow (state graph → CSC resolution → logic derivation) on
/// one STG.
///
/// The flow runs the symbolic pipeline (reachability, CSC analysis,
/// state-signal insertion and cover extraction on BDDs, no explicit state
/// graph).  It first infers the seed: starting from
/// [`FlowOptions::initial_code`], it flips every signal the seed guard
/// finds barred and rebuilds the input's space until the guard passes
/// ([`stg::Stg::seeded_encoded_state_space`]).  The symbolic rung then ends
/// in exactly one of three ways: a report, a budget trip that descends the
/// ladder below, or a typed error.  The explicit pipeline runs only after a
/// budget trip, or when [`SolverStrategy::Explicit`] is selected and a
/// conflict needs state signals.
///
/// # Resource governance
///
/// When [`FlowOptions::node_budget`] or [`FlowOptions::timeout_ms`] is set,
/// the whole run shares one [`Budget`] and descends a fallback ladder
/// instead of running away:
///
/// 1. [`FlowRung::Symbolic`] — the full symbolic pipeline,
/// 2. [`FlowRung::Explicit`] — the explicit pipeline, taken only when the
///    design fits 64 signals and the deadline still stands,
/// 3. [`FlowRung::PartialReport`] — a diagnosis-only report: conflicts as
///    far as they were detected, nothing inserted.
///
/// No second symbolic attempt sits between the first two rungs: budget
/// counters and the deadline are cumulative, so whatever ended the symbolic
/// rung would end a retry at once.
///
/// Each descent is recorded as a [`DegradationEvent`] in
/// [`FlowReport::degradations`], and a governed run returns `Ok` with a
/// partial report rather than an error when every rung is exhausted.
/// [`FlowOptions::no_fallback`] inverts that: the first trip returns its
/// typed [`CscError::Budget`].
///
/// # Errors
///
/// * [`CscError::Stg`] when no seed labels the STG consistently (a signal
///   barred twice, or a marking with two codes:
///   [`stg::StgError::Inconsistent`]) or when a barred signal lies past
///   bit 63 of the seed,
/// * the symbolic solver's typed failures ([`CscError::NoCandidate`],
///   [`CscError::SignalLimitReached`], [`CscError::InconsistentInsertion`]),
/// * the explicit pipeline's errors when it runs ungoverned.
pub fn run_flow(model: &Stg, options: &FlowOptions) -> Result<FlowReport, CscError> {
    let fixpoints_before = stg::fixpoints_run();
    let mut report = run_ladder(model, options)?;
    report.fixpoints = stg::fixpoints_run() - fixpoints_before;
    Ok(report)
}

/// The rungs of [`run_flow`], in descent order.
fn run_ladder(model: &Stg, options: &FlowOptions) -> Result<FlowReport, CscError> {
    let start = Instant::now();
    let (_, _, signals) = model.stats();
    let budget = options.budget();
    // The last rung engages only for governed runs: ungoverned flows keep
    // their typed errors instead of degrading into a partial report.
    let guarded = budget.is_some();
    let mut degradations: Vec<DegradationEvent> = Vec::new();
    // What the symbolic rung established on the way down, reported when the
    // ladder ends in a partial report.
    let mut established = Established::default();

    let reach = ReachabilityConfig { budget: budget.clone(), ..ReachabilityConfig::default() };
    match symbolic_rung(model, options, &reach, start, &mut established) {
        Ok(Some(report)) => return Ok(*report),
        // The explicit solver is selected and a conflict needs it.
        Ok(None) => {}
        Err(CscError::Budget(trip)) if !options.no_fallback => {
            degradations.push(degradation_event(
                &trip.stage,
                &trip.to_string(),
                budget.as_ref(),
                start,
                FlowRung::Symbolic,
                FlowRung::Explicit,
            ));
        }
        Err(error) => return Err(error),
    }

    // The explicit rung.  A governed run skips it — descending straight to
    // the partial report — when the design cannot fit the explicit engine
    // or the deadline is already spent.
    if guarded {
        let max_states = options.solver.max_states;
        let skip = if signals > 64 {
            Some(format!("{signals} signals exceed the 64-signal explicit limit"))
        } else if let Some(states) = established.states_f64.filter(|&n| n > max_states as f64) {
            Some(format!("{states:.0} states exceed the explicit limit of {max_states} states"))
        } else if deadline_passed(budget.as_ref()) {
            Some("deadline exhausted before the explicit rung".to_owned())
        } else {
            None
        };
        if let Some(trigger) = skip {
            degradations.push(degradation_event(
                "flow",
                &trigger,
                budget.as_ref(),
                start,
                FlowRung::Explicit,
                FlowRung::PartialReport,
            ));
            return Ok(partial_report(model, options, start, degradations, established));
        }
    }

    match explicit_pipeline(model, options, budget.as_ref(), start) {
        Ok(mut report) => {
            report.degradations = degradations;
            Ok(report)
        }
        Err(error) if guarded && !options.no_fallback => {
            degradations.push(degradation_event(
                "flow",
                &error.to_string(),
                budget.as_ref(),
                start,
                FlowRung::Explicit,
                FlowRung::PartialReport,
            ));
            Ok(partial_report(model, options, start, degradations, established))
        }
        Err(error) => Err(error),
    }
}

/// What an abandoned symbolic rung established about the input
/// (ladder-internal): a partial report prints it, and nothing else.
#[derive(Default)]
struct Established {
    /// The CSC diagnosis of the input's analysis.
    diagnosis: Vec<LogicDiagnostic>,
    /// The input's reachable state count, once its space passed the seed
    /// guard.
    states_f64: Option<f64>,
    /// The input's conflict-code count, once its space decided CSC.
    conflicts: Option<usize>,
}

/// One symbolic attempt: infer the seed and build the input's encoded state
/// space, analyze it, and if a CSC conflict surfaces with the symbolic
/// solver selected, hand the space to the solver and analyze the space of
/// its last iteration.  The netlist check runs on whichever space the final
/// analysis used, so a conflict-free, rightly seeded design computes
/// exactly one fixpoint.
///
/// `Ok(None)` hands a conflict to the explicit solver
/// ([`SolverStrategy::Explicit`]); every failure is a typed error, a budget
/// trip among them.
fn symbolic_rung(
    model: &Stg,
    options: &FlowOptions,
    reach: &ReachabilityConfig,
    start: Instant,
    established: &mut Established,
) -> Result<Option<Box<FlowReport>>, CscError> {
    let (mut space, seed) = model.seeded_encoded_state_space(options.initial_code, reach)?;
    // The space passed the seed guard: the count is the input's.
    established.states_f64 = Some(space.state_count_f64());
    let mut analysis = analyze_space(model, &mut space);
    let mut solution = None;
    // A genuine CSC conflict with the symbolic solver selected: resolve it
    // by state-signal insertion on BDDs, then analyze the encoded STG —
    // still no explicit state graph anywhere.
    if let Err(csc_violation @ LogicError::CscViolation { .. }) = &analysis {
        established.diagnosis = vec![LogicDiagnostic::from(csc_violation)];
        // The analysis decided CSC on the space; reading the decision again
        // computes nothing.
        established.conflicts = space.csc_decision().ok().map(|d| d.conflict_count());
        if options.strategy != SolverStrategy::Symbolic {
            return Ok(None);
        }
        let solved;
        (solved, space) = solve_space(model, space, &options.solver, seed, reach)?;
        analysis = analyze_space(&solved.stg, &mut space);
        solution = Some(solved);
    }
    let analysis = match analysis {
        Ok(analysis) => analysis,
        Err(LogicError::Budget(trip)) => return Err(CscError::Budget(trip)),
        // The space passed the seed guard and its CSC decision is empty.
        Err(error) => unreachable!("the analysis of a guarded, CSC-clean space failed: {error}"),
    };
    established.diagnosis.clear();
    let report = symbolic_report(model, options, &analysis, solution.as_ref(), &mut space, start);
    Ok(Some(Box::new(report)))
}

/// Synthesizes the gate netlist from derived functions.  The verdict starts
/// as [`NetlistVerdict::NotRequested`]; callers that want the closed-loop
/// check run [`NetlistStage::verify_with`].
fn build_netlist_stage(
    name: &str,
    signals: &[(String, bool)],
    functions: &logic::NextStateFunctions,
) -> Option<NetlistStage> {
    let build_start = Instant::now();
    // The functions were derived from the same signal space, so synthesis
    // cannot fail; a typed error here still degrades to "no netlist stage"
    // rather than failing the flow.
    let circuit = netlist::synthesize_named(name, signals, functions).ok()?;
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let gates = circuit.gates.len();
    let c_elements = circuit.c_elements();
    let literals = circuit.literals();
    Some(NetlistStage {
        circuit,
        gates,
        c_elements,
        literals,
        build_ms,
        verify_ms: 0.0,
        verdict: NetlistVerdict::NotRequested,
    })
}

impl NetlistStage {
    /// Closes the loop: runs `check` on the circuit and records its verdict
    /// and wall time.  A check that cannot finish (budget trip, truncated
    /// fixpoint) is a typed [`NetlistVerdict::Aborted`], not a flow failure.
    fn verify_with(
        &mut self,
        check: impl FnOnce(&netlist::Netlist) -> Result<NetlistVerification, NetlistError>,
    ) {
        let verify_start = Instant::now();
        let outcome = check(&self.circuit);
        self.verify_ms = verify_start.elapsed().as_secs_f64() * 1e3;
        self.verdict = match outcome {
            Ok(v) if v.passed() => NetlistVerdict::Verified { states_f64: v.states_f64 },
            Ok(v) => NetlistVerdict::Failed { diagnostics: v.diagnostics },
            Err(e) => NetlistVerdict::Aborted { reason: e.to_string() },
        };
    }
}

/// Signal descriptors `(name, is_input)` of an STG, for netlist synthesis.
fn signal_descriptors(stg: &Stg) -> Vec<(String, bool)> {
    stg.signals().iter().map(|s| (s.name.clone(), !s.kind.is_non_input())).collect()
}

/// Builds the report of a successful symbolic rung.  With `solution`, the
/// analysis describes the solver's encoded output STG; without it, the
/// input already satisfied CSC.  `space` is the encoded space the analysis
/// ran on; the netlist check reuses it.
fn symbolic_report(
    model: &Stg,
    options: &FlowOptions,
    analysis: &SymbolicLogicReport,
    solution: Option<&SymbolicSolution>,
    space: &mut SymbolicStateSpace,
    start: Instant,
) -> FlowReport {
    let (places, transitions, signals) = model.stats();
    let area = area_of_functions(&analysis.functions);
    let (states_f64, initial_conflicts) = match solution {
        Some(solution) => (solution.initial_states_f64, solution.stats.initial_conflicts),
        None => (analysis.markings, 0),
    };
    let encoded: &Stg = solution.map_or(model, |s| &s.stg);
    let mut netlist = if options.estimate_area {
        build_netlist_stage(encoded.name(), &signal_descriptors(encoded), &analysis.functions)
    } else {
        None
    };
    if let Some(stage) = netlist.as_mut().filter(|_| options.verify_netlist) {
        stage.verify_with(|circuit| netlist::verify_space(encoded, space, circuit));
    }
    FlowReport {
        name: model.name().to_owned(),
        places,
        transitions,
        signals,
        states_f64,
        initial_conflicts: Some(initial_conflicts),
        csc_satisfied: true,
        inserted_signals: solution.map_or(0, |s| s.inserted_signals.len()),
        final_states_f64: analysis.markings,
        literals: options.estimate_area.then_some(area.total_literals),
        cubes: options.estimate_area.then_some(area.total_cubes),
        logic_bdd_nodes: options.estimate_area.then_some(area.bdd_nodes),
        solver_strategy: if solution.is_some() {
            SolverStrategy::Symbolic
        } else {
            options.strategy
        },
        logic_diagnostics: analysis.diagnostics.clone(),
        // The solver's output (or the input itself) *is* an STG — the
        // hand-back the paper asks for.
        encoded: Some(encoded.clone()),
        cpu_seconds: start.elapsed().as_secs_f64(),
        stage: solution.map_or_else(StageStats::default, |s| s.stats.stage),
        rung: FlowRung::Symbolic,
        degradations: Vec::new(),
        netlist,
        fixpoints: 0,
    }
}

/// The explicit pipeline: state graph, conflict detection, region-based
/// solving and logic estimation — the second rung of the ladder and the
/// explicit solver's route (see [`run_flow`]).
fn explicit_pipeline(
    model: &Stg,
    options: &FlowOptions,
    budget: Option<&Budget>,
    start: Instant,
) -> Result<FlowReport, CscError> {
    let (places, transitions, signals) = model.stats();
    if let Some(budget) = budget {
        budget.set_stage("explicit-reachability");
    }
    let sg = model.state_graph_within(options.solver.max_states, budget)?;
    let initial_graph = EncodedGraph::from_state_graph(&sg);
    let initial_conflicts = conflict_pairs(&initial_graph).len();

    let mut config = options.solver.clone();
    // Share the flow's governor so the explicit solver honours the same
    // deadline (node/step ceilings do not apply to it — it allocates no
    // BDD nodes).
    config.budget = budget.cloned();
    let solution: CscSolution = csc::solve_state_graph(&sg, &config)?;

    let mut logic_diagnostics = logic::output_persistency_violations(&solution.graph);
    let mut netlist = None;
    let (literals, cubes, logic_bdd_nodes) = if options.estimate_area {
        match logic::derive_next_state_functions(&solution.graph) {
            Ok(functions) => {
                let area = area_of_functions(&functions);
                let signals: Vec<(String, bool)> = solution
                    .graph
                    .signals
                    .iter()
                    .map(|s| (s.name.clone(), !s.kind.is_non_input()))
                    .collect();
                netlist = build_netlist_stage(model.name(), &signals, &functions);
                if let Some(stage) = netlist.as_mut().filter(|_| options.verify_netlist) {
                    // The re-synthesized STG shares the graph's signal order,
                    // so the graph's initial code seeds the verification.
                    let initial_code = solution.graph.code(solution.graph.ts.initial());
                    let reach = ReachabilityConfig {
                        budget: budget.cloned(),
                        ..ReachabilityConfig::default()
                    };
                    match &solution.stg {
                        Some(stg) => stage.verify_with(|circuit| {
                            netlist::verify(stg, circuit, initial_code, &reach)
                        }),
                        None => {
                            stage.verdict = NetlistVerdict::Aborted {
                                reason: "no encoded STG to verify against".to_owned(),
                            }
                        }
                    }
                }
                (Some(area.total_literals), Some(area.total_cubes), Some(area.bdd_nodes))
            }
            Err(error) => {
                logic_diagnostics.push(LogicDiagnostic::from(&error));
                (None, None, None)
            }
        }
    } else {
        (None, None, None)
    };

    Ok(FlowReport {
        name: model.name().to_owned(),
        places,
        transitions,
        signals,
        states_f64: sg.num_states() as f64,
        initial_conflicts: Some(initial_conflicts),
        csc_satisfied: solution.graph.complete_state_coding_holds(),
        inserted_signals: solution.inserted_signals.len(),
        final_states_f64: solution.graph.num_states() as f64,
        literals,
        cubes,
        logic_bdd_nodes,
        solver_strategy: SolverStrategy::Explicit,
        logic_diagnostics,
        encoded: solution.stg,
        cpu_seconds: start.elapsed().as_secs_f64(),
        stage: solution.stats.stage,
        rung: FlowRung::Explicit,
        degradations: Vec::new(),
        netlist,
        fixpoints: 0,
    })
}

/// The last rung: everything the run still knows, nothing it does not.
fn partial_report(
    model: &Stg,
    options: &FlowOptions,
    start: Instant,
    degradations: Vec<DegradationEvent>,
    established: Established,
) -> FlowReport {
    let (places, transitions, signals) = model.stats();
    FlowReport {
        name: model.name().to_owned(),
        places,
        transitions,
        signals,
        states_f64: established.states_f64.unwrap_or(0.0),
        initial_conflicts: established.conflicts,
        csc_satisfied: false,
        inserted_signals: 0,
        final_states_f64: 0.0,
        literals: None,
        cubes: None,
        logic_bdd_nodes: None,
        solver_strategy: options.strategy,
        logic_diagnostics: established.diagnosis,
        encoded: None,
        cpu_seconds: start.elapsed().as_secs_f64(),
        stage: StageStats::default(),
        rung: FlowRung::PartialReport,
        degradations,
        netlist: None,
        fixpoints: 0,
    }
}

fn degradation_event(
    stage: &str,
    trigger: &str,
    budget: Option<&Budget>,
    start: Instant,
    from: FlowRung,
    to: FlowRung,
) -> DegradationEvent {
    DegradationEvent {
        stage: stage.to_owned(),
        trigger: trigger.to_owned(),
        nodes_spent: budget.map_or(0, Budget::nodes_spent),
        elapsed_ms: start.elapsed().as_millis() as u64,
        from,
        to,
    }
}

/// Whether the budget's wall-clock deadline (or a cooperative cancel) has
/// already fired — the guard on entering the explicit rung, whose own
/// checks are coarser (once per solver stage).
fn deadline_passed(budget: Option<&Budget>) -> bool {
    budget.is_some_and(|b| {
        b.is_cancelled() || b.deadline_ms().is_some_and(|deadline| b.elapsed_ms() >= deadline)
    })
}

/// Renders a collection of reports as an aligned text table (one row per
/// model), in the spirit of Table 2 of the paper.
pub fn render_table(reports: &[FlowReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>10} {:>10} {:>8} {:>8} {:>7} {:>9} {:>8}\n",
        "benchmark", "states", "conflicts", "signals", "area", "cubes", "cpu[s]", "csc"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<18} {:>10} {:>10} {:>8} {:>8} {:>7} {:>9.3} {:>8}\n",
            r.name,
            r.render_states(r.states_f64),
            render_conflicts(r.initial_conflicts),
            r.inserted_signals,
            r.literals.map_or_else(|| "-".to_owned(), |l| l.to_string()),
            r.cubes.map_or_else(|| "-".to_owned(), |c| c.to_string()),
            r.cpu_seconds,
            match (r.csc_satisfied, r.is_partial()) {
                (true, _) => "yes",
                (false, true) => "unknown",
                (false, false) => "no",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg::StgError;

    #[test]
    fn flow_on_the_vme_controller() {
        let report = run_flow(&stg::benchmarks::vme_read(), &FlowOptions::default()).unwrap();
        assert!(report.csc_satisfied);
        assert!(report.inserted_signals >= 1);
        assert!(report.literals.unwrap() > 0);
        assert!(report.cubes.unwrap() > 0);
        assert_eq!(report.signals, 5);
        assert_eq!(
            report.rung,
            FlowRung::Symbolic,
            "vme_read's conflict is now resolved by the symbolic solver: no explicit graph"
        );
        assert_eq!(report.solver_strategy, csc::SolverStrategy::Symbolic);
        assert!(report.logic_diagnostics.is_empty());
        let text = report.to_string();
        assert!(text.contains("vme_read"));
        assert!(text.contains("CSC satisfied"));
        assert!(text.contains("csc solver  : symbolic engine"));
        assert!(text.contains("symbolic engine"));
    }

    #[test]
    fn explicit_solver_strategy_remains_selectable() {
        let options =
            FlowOptions { strategy: csc::SolverStrategy::Explicit, ..FlowOptions::default() };
        let report = run_flow(&stg::benchmarks::vme_read(), &options).unwrap();
        assert!(report.csc_satisfied);
        assert_eq!(report.rung, FlowRung::Explicit, "the explicit strategy builds the state graph");
        assert_eq!(report.solver_strategy, csc::SolverStrategy::Explicit);
        assert!(report.inserted_signals >= 1);
    }

    #[test]
    fn conflict_free_models_stay_fully_symbolic() {
        let report =
            run_flow(&stg::benchmarks::parallel_handshakes(3), &FlowOptions::default()).unwrap();
        assert_eq!(report.rung, FlowRung::Symbolic);
        assert!(report.csc_satisfied);
        assert_eq!(report.inserted_signals, 0);
        assert_eq!(report.states_f64, 64.0, "4^3 states");
        assert_eq!(report.literals.unwrap(), 3, "each ack follows its req");
    }

    #[test]
    fn wide_designs_run_end_to_end_symbolically() {
        // 70 signals: impossible for the explicit path (u64 codes), routine
        // for the symbolic one.
        let report =
            run_flow(&stg::benchmarks::parallel_handshakes(35), &FlowOptions::default()).unwrap();
        assert_eq!(report.rung, FlowRung::Symbolic);
        assert!(report.csc_satisfied);
        assert_eq!(report.signals, 70);
        assert_eq!(report.literals.unwrap(), 35);
        assert!(report.states_f64 > 1e21, "4^35 states");
        let text = report.to_string();
        assert!(text.contains("symbolic engine"));
    }

    #[test]
    fn symbolic_first_reports_persistency_diagnostics() {
        // CSC holds on this free output choice, so the flow stays fully
        // symbolic — but it must still report that neither output is
        // persistent instead of silently declaring the design implementable.
        use stg::{Polarity, SignalKind, StgBuilder};
        let mut bld = StgBuilder::new("choice");
        let x = bld.add_signal("x", SignalKind::Input);
        let a = bld.add_signal("a", SignalKind::Output);
        let b = bld.add_signal("b", SignalKind::Output);
        let xp = bld.add_edge(x, Polarity::Rise);
        let ap = bld.add_edge(a, Polarity::Rise);
        let xma = bld.add_edge(x, Polarity::Fall);
        let am = bld.add_edge(a, Polarity::Fall);
        let bp = bld.add_edge(b, Polarity::Rise);
        let xmb = bld.add_edge(x, Polarity::Fall);
        let bm = bld.add_edge(b, Polarity::Fall);
        let choice = bld.add_place("choice", false);
        bld.arc_transition_to_place(xp, choice);
        bld.arc_place_to_transition(choice, ap);
        bld.arc_place_to_transition(choice, bp);
        bld.connect(ap, xma, false);
        bld.connect(xma, am, false);
        bld.connect(bp, xmb, false);
        bld.connect(xmb, bm, false);
        let idle = bld.add_place("idle", true);
        bld.arc_transition_to_place(am, idle);
        bld.arc_transition_to_place(bm, idle);
        bld.arc_place_to_transition(idle, xp);
        let model = bld.build().unwrap();

        let report = run_flow(&model, &FlowOptions::default()).unwrap();
        assert_eq!(report.rung, FlowRung::Symbolic);
        assert!(report.csc_satisfied);
        assert_eq!(report.logic_diagnostics.len(), 2, "{:?}", report.logic_diagnostics);
        assert!(report
            .logic_diagnostics
            .iter()
            .all(|d| matches!(d, LogicDiagnostic::OutputNotPersistent { .. })));
        let text = report.to_string();
        assert!(text.contains("not persistent"), "{text}");
    }

    #[test]
    fn a_wrongly_seeded_input_is_reseeded_and_stays_symbolic() {
        // The explicit solver's re-synthesized pulser starts its state
        // signal at 1, which the all-zero guess bars; the flow flips it and
        // stays symbolic.
        let solution =
            csc::solve_stg(&stg::benchmarks::pulser(), &csc::SolverConfig::default()).unwrap();
        let encoded = solution.stg.expect("pulser re-synthesizes");
        let options = FlowOptions { verify_netlist: true, ..FlowOptions::default() };
        let report = run_flow(&encoded, &options).unwrap();
        assert_eq!(report.rung, FlowRung::Symbolic);
        assert_eq!(report.states_f64, 8.0);
        assert_eq!((report.literals, report.cubes), (Some(8), Some(4)));
        let verdict = &report.netlist.as_ref().unwrap().verdict;
        assert!(matches!(verdict, NetlistVerdict::Verified { states_f64 } if *states_f64 == 8.0));
        assert_eq!(report.fixpoints, 2, "one wrong guess, one confirming fixpoint");
    }

    #[test]
    fn a_handshake_started_mid_cycle_is_reseeded_symbolically() {
        // 12 four-phase handshakes (4^12 states, far past the explicit
        // engine's million); handshake 0's token sits on <a0+,r0->, so r0
        // and a0 start at 1.  The zero guess bars r0- at once, and a0- once
        // r0- can fire.
        use stg::{Polarity, SignalKind, StgBuilder};
        let mut b = StgBuilder::new("mid_cycle");
        for i in 0..12 {
            let r = b.add_signal(format!("r{i}"), SignalKind::Input);
            let a = b.add_signal(format!("a{i}"), SignalKind::Output);
            let cycle = [
                b.add_edge(r, Polarity::Rise),
                b.add_edge(a, Polarity::Rise),
                b.add_edge(r, Polarity::Fall),
                b.add_edge(a, Polarity::Fall),
            ];
            for (k, pair) in cycle.iter().zip(cycle.iter().cycle().skip(1)).enumerate() {
                b.connect(*pair.0, *pair.1, k == if i == 0 { 1 } else { 3 });
            }
        }
        let model = b.build().unwrap();
        let options = FlowOptions { verify_netlist: true, ..FlowOptions::default() };
        let report = run_flow(&model, &options).unwrap();
        assert_eq!(report.rung, FlowRung::Symbolic);
        assert_eq!(report.states_f64, 16_777_216.0);
        assert!(report.csc_satisfied);
        assert_eq!(report.literals, Some(12));
        let verdict = &report.netlist.as_ref().unwrap().verdict;
        assert!(matches!(verdict, NetlistVerdict::Verified { .. }), "{verdict:?}");
        assert!(report.fixpoints <= 3, "{} fixpoints", report.fixpoints);
    }

    #[test]
    fn an_inconsistent_stg_is_a_typed_error() {
        // `a` rises twice and never falls.  The zero guess bars the second
        // a+; flipping `a` bars the first, so no seed labels the net.
        let model = stg::parse_g(
            ".model inc\n.inputs x\n.outputs a\n.graph\nx+ a+\na+ x-\nx- a+/2\na+/2 x+\n\
             .marking { <a+/2,x+> }\n.end\n",
        )
        .unwrap();
        let explicit = model.state_graph(100).unwrap_err();
        assert_eq!(explicit, StgError::Inconsistent { signal: "a".into(), state: "m3".into() });
        let options = FlowOptions { verify_netlist: true, ..FlowOptions::default() };
        match run_flow(&model, &options) {
            Err(CscError::Stg(StgError::Inconsistent { signal, state })) => {
                assert_eq!((signal.as_str(), state.as_str()), ("a", "{<x+,a+>}"));
            }
            other => panic!("expected an inconsistent labelling, got {other:?}"),
        }
    }

    #[test]
    fn table_rendering_includes_every_model() {
        let reports = vec![
            run_flow(&stg::benchmarks::handshake(), &FlowOptions::default()).unwrap(),
            run_flow(&stg::benchmarks::pulser(), &FlowOptions::default()).unwrap(),
        ];
        let table = render_table(&reports);
        assert!(table.contains("handshake"));
        assert!(table.contains("pulser"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn saturated_reports_print_each_stg_its_own_state_count() {
        // wide_conflict32's counts (6·4^32 input states, 8·4^32 once one
        // state signal is inserted) are past usize::MAX; each line must
        // render its own count in scientific notation.
        let mut report = run_flow(&stg::benchmarks::pulser(), &FlowOptions::default()).unwrap();
        report.states_f64 = 6.0 * 4f64.powi(32);
        report.final_states_f64 = 8.0 * 4f64.powi(32);
        let text = report.to_string();
        assert!(text.contains("signals, 1.107e20 states"), "{text}");
        assert!(text.contains("inserted, 1.476e20 states, CSC satisfied"), "{text}");
    }

    #[test]
    fn baseline_options_use_excitation_regions() {
        // Only the explicit solver reads the candidate source.
        let options = FlowOptions::baseline();
        assert_eq!(options.solver.candidate_source, csc::CandidateSource::ExcitationRegions);
        assert_eq!(options.strategy, SolverStrategy::Explicit);
        let report = run_flow(&stg::benchmarks::sequencer(8), &options).unwrap();
        assert_eq!(report.rung, FlowRung::Explicit);
        assert_eq!((report.inserted_signals, report.literals), (4, Some(66)));
        assert_eq!(report.stage.candidates_evaluated, 355);
    }

    #[test]
    fn reports_carry_solver_stage_stats() {
        let options =
            FlowOptions { strategy: csc::SolverStrategy::Explicit, ..FlowOptions::default() };
        let report = run_flow(&stg::benchmarks::pulser(), &options).unwrap();
        assert!(report.stage.candidates_evaluated > 0);
        let text = report.to_string();
        assert!(text.contains("solver      : conflict"), "{text}");
        let table = render_stage_table(&report);
        assert!(table.contains("block search"));
        assert!(table.contains("candidates evaluated"));
        assert!(table.contains("solver engine"));
        assert!(table.contains("logic literals"));
        assert!(table.contains("logic bdd nodes"));
        assert!(table.lines().count() >= 10);

        // The symbolic solver fills the same stage counters.
        let symbolic = run_flow(&stg::benchmarks::pulser(), &FlowOptions::default()).unwrap();
        assert_eq!(symbolic.rung, FlowRung::Symbolic);
        assert!(symbolic.stage.candidates_evaluated > 0);
        assert!(render_stage_table(&symbolic).contains("solver engine"));
    }

    /// The DegradationEvent trail of a report as `(from, to)` pairs.
    fn trail(report: &FlowReport) -> Vec<(FlowRung, FlowRung)> {
        report.degradations.iter().map(|d| (d.from, d.to)).collect()
    }

    #[test]
    fn node_budget_trip_descends_to_the_explicit_rung_and_still_solves() {
        // A 64-node ceiling trips during the very first reachability, and
        // the explicit rung (5 signals, no deadline) finishes the job.
        let options = FlowOptions { node_budget: Some(64), ..FlowOptions::default() };
        let report = run_flow(&stg::benchmarks::pulser(), &options).unwrap();
        assert_eq!(report.rung, FlowRung::Explicit);
        assert!(report.csc_satisfied);
        assert!(report.inserted_signals >= 1);
        assert_eq!(trail(&report), vec![(FlowRung::Symbolic, FlowRung::Explicit)]);
        assert_eq!(report.degradations[0].stage, "reachability");
        assert!(
            report.degradations[0].trigger.contains("nodes allocated"),
            "{}",
            report.degradations[0].trigger
        );
        assert!(report.degradations[0].nodes_spent > 64);
        let text = report.to_string();
        assert!(text.contains("rung        : explicit"), "{text}");
        assert!(text.contains("~~ degraded"), "{text}");
    }

    #[test]
    fn wide_designs_skip_the_explicit_rung_and_end_in_a_partial_report() {
        // 70 signals: when the node budget kills the symbolic rung there is
        // no explicit rung to descend to, so the ladder must record the skip
        // and return a diagnosis-only report instead of an error.
        let options = FlowOptions { node_budget: Some(64), ..FlowOptions::default() };
        let report = run_flow(&stg::benchmarks::parallel_handshakes(35), &options).unwrap();
        assert_eq!(report.rung, FlowRung::PartialReport);
        assert!(!report.csc_satisfied);
        assert_eq!(report.inserted_signals, 0);
        assert!(report.literals.is_none());
        assert_eq!(
            trail(&report),
            vec![
                (FlowRung::Symbolic, FlowRung::Explicit),
                (FlowRung::Explicit, FlowRung::PartialReport),
            ]
        );
        let skip = report.degradations.last().unwrap();
        assert_eq!(skip.stage, "flow");
        assert!(skip.trigger.contains("64-signal explicit limit"), "{}", skip.trigger);
        // Ladder descent is monotone.
        for window in report.degradations.windows(2) {
            assert!(window[0].to <= window[1].from);
        }
        assert!(render_stage_table(&report).contains("partial-report"));
        // The report states only what the run established: no state count,
        // no conflict count, no CSC verdict and no logic.
        assert_eq!(report.initial_conflicts, None);
        let text = report.to_string();
        assert!(text.contains("unknown states, CSC not established"), "{text}");
        assert!(text.contains("conflicts   : unknown"), "{text}");
        for wrong in ["0 states", "conflicts   : 0", "NOT satisfied", "logic       :"] {
            assert!(!text.contains(wrong), "{wrong:?} in {text}");
        }
        assert!(text.contains("70 signals, unknown states"), "{text}");
    }

    #[test]
    fn a_state_count_past_the_explicit_limit_skips_the_explicit_rung() {
        // The budget trips once the symbolic rung has counted 4^16 input
        // states: the explicit rung could only fail at its state cap, after
        // seconds of exploration, so the ladder ends in the partial report.
        let options = FlowOptions { node_budget: Some(20_000), ..FlowOptions::default() };
        let report = run_flow(&stg::benchmarks::parallel_handshakes(16), &options).unwrap();
        assert_eq!(report.rung, FlowRung::PartialReport);
        assert_eq!(
            trail(&report),
            vec![
                (FlowRung::Symbolic, FlowRung::Explicit),
                (FlowRung::Explicit, FlowRung::PartialReport),
            ]
        );
        let skip = report.degradations.last().unwrap();
        assert_eq!(skip.stage, "flow");
        assert_eq!(skip.trigger, "4294967296 states exceed the explicit limit of 1000000 states");
        let text = report.to_string();
        assert!(text.contains("32 signals, 4294967296 states"), "{text}");
    }

    #[test]
    fn the_explicit_rung_stops_exploring_at_the_flows_deadline() {
        // The budget trips in reachability, before the symbolic rung counts
        // the input's 4^16 states or decides CSC (so the conflict count
        // stays unknown), and the explicit rung runs.  Its exploration
        // polls the deadline and ends the ladder in the partial report,
        // instead of failing at the 1,000,000-state cap seconds later.
        let options = FlowOptions {
            node_budget: Some(16_000),
            timeout_ms: Some(1_000),
            ..FlowOptions::default()
        };
        let start = Instant::now();
        let report = run_flow(&stg::benchmarks::parallel_handshakes(16), &options).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(1_500), "{elapsed:?}");
        assert_eq!(report.rung, FlowRung::PartialReport);
        assert_eq!(report.initial_conflicts, None);
        assert_eq!(
            trail(&report),
            vec![
                (FlowRung::Symbolic, FlowRung::Explicit),
                (FlowRung::Explicit, FlowRung::PartialReport),
            ]
        );
        assert_eq!(report.degradations[0].stage, "reachability");
        let last = report.degradations.last().unwrap();
        assert!(
            last.trigger.starts_with("budget exceeded in explicit-reachability"),
            "{}",
            last.trigger
        );
    }

    #[test]
    fn a_partial_report_prints_the_state_count_its_symbolic_rung_established() {
        // The input's reachability and CSC analysis finish; the budget
        // trips later, in candidate search, and the 66 signals leave no
        // explicit rung.  The analysis decided the conflict count: two
        // codes per configuration of the 32 handshakes, 2^65 in all.
        let options = FlowOptions { node_budget: Some(200_000), ..FlowOptions::default() };
        let report = run_flow(&stg::benchmarks::wide_conflict(32), &options).unwrap();
        assert_eq!(report.rung, FlowRung::PartialReport);
        assert_eq!(report.degradations[0].stage, "candidate-search");
        assert_eq!(report.states_f64, 6.0 * 4f64.powi(32));
        assert_eq!(report.initial_conflicts, Some(usize::MAX));
        let text = report.to_string();
        assert!(text.contains("66 signals, 1.107e20 states"), "{text}");
        assert!(text.contains("0 state signal(s) inserted, unknown states, CSC not established"));
        assert!(text.contains("conflicts   : > 1.8e19 (saturated)"), "{text}");
        // A trip before the decision leaves the count unknown: see
        // `the_explicit_rung_stops_exploring_at_the_flows_deadline`.
    }

    #[test]
    fn a_trip_in_the_solvers_conflict_detection_is_labelled_with_that_stage() {
        // The input's reachability and CSC decision finish under 100,000
        // nodes; the solver's conflict detection that follows does not, and
        // its trip must not carry the analysis's "isop" label.  (A budget
        // trips in conflict-detection from about 73,000 to 107,000 nodes —
        // inside the analysis's CSC decision up to about 91,000 — below,
        // in reachability, above, in candidate search.)
        let options = FlowOptions { node_budget: Some(100_000), ..FlowOptions::default() };
        let report = run_flow(&stg::benchmarks::wide_conflict(32), &options).unwrap();
        assert_eq!(report.rung, FlowRung::PartialReport);
        let first = &report.degradations[0];
        assert_eq!(first.stage, "conflict-detection");
        assert!(
            first.trigger.contains("budget exceeded in conflict-detection"),
            "{}",
            first.trigger
        );
        assert!(report.to_string().contains("at conflict-detection"), "{report}");
    }

    #[test]
    fn no_fallback_surfaces_the_typed_budget_error() {
        let options =
            FlowOptions { node_budget: Some(64), no_fallback: true, ..FlowOptions::default() };
        let err = run_flow(&stg::benchmarks::pulser(), &options).unwrap_err();
        match err {
            CscError::Budget(trip) => {
                assert_eq!(trip.resource, bdd::Resource::Nodes);
                assert_eq!(trip.stage, "reachability");
                assert!(trip.spent > trip.limit);
            }
            other => panic!("expected a budget trip, got {other}"),
        }
    }

    #[test]
    fn deadline_trips_surface_in_the_candidate_search() {
        // The conflicted wide family spends almost all its time in the
        // candidate search, so a deadline placed at a fraction of the
        // unbudgeted runtime lands there.  Machine speed varies; adapt the
        // deadline until the trip lands in the search stage.
        let model = stg::benchmarks::wide_conflict(12);
        let unbudgeted = Instant::now();
        run_flow(&model, &FlowOptions::default()).unwrap();
        let total_ms = unbudgeted.elapsed().as_millis() as u64;
        let mut timeout_ms = (total_ms / 3).max(10);
        for _ in 0..12 {
            let options = FlowOptions { timeout_ms: Some(timeout_ms), ..FlowOptions::default() };
            let run_started = Instant::now();
            let report = run_flow(&model, &options).unwrap();
            let ran_ms = run_started.elapsed().as_millis() as u64;
            if report.rung != FlowRung::PartialReport {
                // The whole solve beat the deadline: tighten it.
                timeout_ms = (timeout_ms / 2).max(5);
                continue;
            }
            // Deadline adherence: the governed run must stop within the
            // deadline plus scheduling slack, never run away.
            assert!(
                ran_ms < timeout_ms + 2_000,
                "ran {ran_ms} ms under a {timeout_ms} ms deadline"
            );
            let first = &report.degradations[0];
            assert!(first.trigger.contains("deadline"), "{}", first.trigger);
            if first.stage == "candidate-search" {
                assert_eq!(first.from, FlowRung::Symbolic);
                assert_eq!(report.degradations.last().unwrap().to, FlowRung::PartialReport);
                return;
            }
            // The deadline landed inside a reachability sub-step (machine
            // speed skew): nudge it and scan for the search window.
            timeout_ms = timeout_ms.saturating_mul(3) / 2;
        }
        panic!("the candidate search never hit the deadline");
    }
}
