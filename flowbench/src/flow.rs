//! One flow as a designer runs it — `.g` text in, verified netlist out —
//! and its check against the design's expected answer.
//!
//! The end-to-end path is deliberately narrow: of the flow report it reads
//! only the result (input state count, CSC, inserted signals), the netlist
//! verdict and the emitted netlist, so the gated numbers survive changes to
//! the report's other fields and to the flow's internal stages.

use crate::workloads::{named_code, Expect, Verdict};
use netlist::{NetlistDiagnostic, NetlistVerification};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use synthkit::{FlowOptions, FlowReport, NetlistVerdict};

/// The flow options every workload runs with: the defaults plus closed-loop
/// verification of the emitted netlist.
pub fn options() -> FlowOptions {
    FlowOptions { verify_netlist: true, ..FlowOptions::default() }
}

/// Parses and structurally validates one design's `.g` text.
pub fn load(text: &str) -> Result<stg::Stg, String> {
    let model = stg::parse_g(text).map_err(|e| format!("parse: {e}"))?;
    let report = stg::validate(&model);
    if report.has_errors() {
        let issues: Vec<String> = report.errors().map(ToString::to_string).collect();
        return Err(format!("validation: {}", issues.join("; ")));
    }
    Ok(model)
}

/// The timed part of a flow: load, synthesize with verification, emit
/// `.eqn`.
fn run(text: &str, options: &FlowOptions) -> Result<(FlowReport, String), String> {
    let model = load(text)?;
    let report = synthkit::run_flow(&model, options).map_err(|e| format!("flow: {e}"))?;
    let eqn = report.netlist.as_ref().map(|stage| stage.circuit.to_eqn());
    let eqn = eqn.ok_or("the flow emitted no netlist")?;
    Ok((report, eqn))
}

/// The verification verdict as the benchmark saw it.
#[derive(Clone, Debug)]
pub enum Seen {
    Verified,
    Failed(Vec<NetlistDiagnostic>),
    Aborted(String),
}

impl From<Result<NetlistVerification, netlist::NetlistError>> for Seen {
    fn from(outcome: Result<NetlistVerification, netlist::NetlistError>) -> Self {
        match outcome {
            Ok(v) if v.passed() => Seen::Verified,
            Ok(v) => Seen::Failed(v.diagnostics),
            Err(e) => Seen::Aborted(e.to_string()),
        }
    }
}

/// What one flow produced, as far as the benchmark reads it.
#[derive(Clone, Debug)]
pub struct Observed {
    /// Reachable states of the input STG.
    pub states: f64,
    pub csc: bool,
    /// State signals the flow inserted.
    pub state_signals: usize,
    /// Gate literals of the emitted netlist.
    pub literals: usize,
    pub verdict: Seen,
    pub circuit: netlist::Netlist,
    /// The emitted `.eqn` text.
    pub eqn: String,
}

/// The narrow read of a flow report.
fn observe(report: &FlowReport, eqn: String) -> Result<Observed, String> {
    let stage = report.netlist.as_ref().ok_or("the flow emitted no netlist")?;
    let verdict = match &stage.verdict {
        NetlistVerdict::Verified { .. } => Seen::Verified,
        NetlistVerdict::Failed { diagnostics } => Seen::Failed(diagnostics.clone()),
        NetlistVerdict::Aborted { reason } => Seen::Aborted(reason.clone()),
        NetlistVerdict::NotRequested => Seen::Aborted("verification not run".to_owned()),
    };
    Ok(Observed {
        states: report.states_f64,
        csc: report.csc_satisfied,
        state_signals: report.inserted_signals,
        literals: stage.circuit.literals(),
        verdict,
        circuit: stage.circuit.clone(),
        eqn,
    })
}

/// Checks one flow's output against the expected answer, and that the
/// emitted `.eqn` text re-parses to the netlist that was verified.
pub fn check(seen: &Observed, expect: &Expect) -> Result<(), String> {
    if seen.states != expect.states {
        return Err(format!("{} input states, expected {}", seen.states, expect.states));
    }
    if seen.csc != expect.csc {
        return Err(format!("CSC holds: {}, expected {}", seen.csc, expect.csc));
    }
    match (&seen.verdict, expect.verdict) {
        (Seen::Verified, Verdict::Verified) => {}
        (Seen::Failed(findings), Verdict::Hazards { count, code, signals }) => {
            let expected = named_code(code, signals);
            let witnessed = findings.iter().all(|finding| match finding {
                NetlistDiagnostic::HazardNotPersistent { code, .. } => {
                    named_code(code, &seen.circuit.signal_names) == expected
                }
                _ => false,
            });
            if findings.len() != count || !witnessed {
                return Err(format!("findings {findings:?}, expected {count} hazards at {code}"));
            }
        }
        (Seen::Aborted(reason), _) => return Err(format!("verification aborted: {reason}")),
        (verdict, expected) => return Err(format!("verdict {verdict:?}, expected {expected:?}")),
    }
    let reparsed = netlist::parse_eqn(&seen.eqn).map_err(|e| format!("emitted .eqn: {e}"))?;
    match netlist::equivalent(&reparsed, &seen.circuit) {
        Ok(true) => Ok(()),
        Ok(false) => Err("the emitted .eqn differs from the verified netlist".to_owned()),
        Err(e) => Err(format!("emitted .eqn: {e}")),
    }
}

/// Runs `work` so that a panic becomes an error instead of ending the run.
pub fn guarded<T>(work: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panic: {message}"))
    })
}

/// One timed, checked flow.
pub struct Timed {
    /// Wall time of the flow, including a failing one.
    pub seconds: f64,
    /// The report, when the flow returned one.
    pub report: Option<FlowReport>,
    /// The checked output, or why the flow failed or missed its answer.
    pub outcome: Result<Observed, String>,
}

/// Times one flow over `text` and checks it against `expect`.  Errors and
/// panics are caught and returned as a failed outcome.
pub fn timed(text: &str, expect: &Expect, options: &FlowOptions) -> Timed {
    let start = Instant::now();
    let result = guarded(|| run(text, options));
    let seconds = start.elapsed().as_secs_f64();
    match result {
        Ok((report, eqn)) => {
            let outcome = guarded(|| {
                let seen = observe(&report, eqn)?;
                check(&seen, expect)?;
                Ok(seen)
            });
            Timed { seconds, report: Some(report), outcome }
        }
        Err(e) => Timed { seconds, report: None, outcome: Err(e) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::designs;

    fn design(workload: &str, name: &str) -> crate::workloads::Design {
        designs(workload).unwrap().into_iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn a_controller_flow_meets_its_expected_answer() {
        let pulser = design("controllers", "pulser");
        let flow = timed(&(pulser.build)().to_g(), &pulser.expect, &options());
        let seen = flow.outcome.expect("pulser synthesizes and verifies");
        assert!(flow.seconds > 0.0);
        assert_eq!(seen.state_signals, 1);
        assert!(seen.literals > 0);
        assert!(seen.eqn.contains("csc0"), "{}", seen.eqn);
    }

    #[test]
    fn the_arbiter_fails_with_its_two_hazard_witnesses() {
        let arbiter = design("controllers", "arbiter");
        let flow = timed(&(arbiter.build)().to_g(), &arbiter.expect, &options());
        match flow.outcome.expect("the arbiter's failure is its expected answer").verdict {
            Seen::Failed(findings) => assert_eq!(findings.len(), 2),
            other => panic!("expected hazards, got {other:?}"),
        }
    }

    #[test]
    fn a_wrong_answer_an_error_and_a_panic_are_failures() {
        let pulser = design("controllers", "pulser");
        let text = (pulser.build)().to_g();
        let wrong = Expect { states: 7.0, ..pulser.expect };
        let err = timed(&text, &wrong, &options()).outcome.unwrap_err();
        assert!(err.contains("input states"), "{err}");

        let err = timed(".model broken\n.graph\n", &pulser.expect, &options()).outcome;
        assert!(err.is_err());

        let err = guarded::<()>(|| panic!("boom")).unwrap_err();
        assert_eq!(err, "panic: boom");
    }
}
