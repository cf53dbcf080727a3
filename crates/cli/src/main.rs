//! `rsynth` — command-line driver for region-based state encoding.
//!
//! ```text
//! rsynth --benchmark vme_read              # run a built-in benchmark
//! rsynth path/to/model.g                   # read an STG in .g format
//! rsynth --benchmark seq8 --baseline       # excitation-region baseline (explicit)
//! rsynth --benchmark par_hs40              # >64 signals, no explicit graph
//! rsynth --benchmark wide_conflict32 --solver symbolic  # conflicted, 66 signals
//! rsynth --benchmark vme_read --solver explicit  # force the state-graph solver
//! rsynth --benchmark wide_conflict32 --node-budget 200000 --timeout-ms 5000
//! rsynth --list                            # list built-in benchmarks
//! rsynth path/to/model.g --write-g out.g   # write the encoded STG back
//! ```

use csc::SolverStrategy;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use synthkit::{render_stage_table, run_flow, FlowOptions, FlowReport, FlowRung};

fn print_usage() {
    eprintln!(
        "usage: rsynth [<model.g>] [--benchmark <name>] [options]

input:
  <model.g>                 read an STG in the .g interchange format
  --benchmark <name>        run a built-in benchmark (see --list)
  --list                    list the built-in benchmarks and exit

solver:
  --solver symbolic|explicit  CSC solver: BDD state-signal insertion (the
                            default; no signal-count limit, output is an
                            encoded STG) or the explicit state-graph
                            pipeline (capped at 64 signals)
  --baseline                excitation-region candidates only (the
                            ASSASSIN-style Table 2 baseline; selects the
                            explicit solver)
  --fw <n>                  frontier width of the block search (default 4)
  --enlarge                 greedily enlarge inserted-signal concurrency
                            (selects the explicit solver)

logic:
  --no-area                 skip the logic derivation / area estimate

resources:
  --node-budget <n>         cap the BDD nodes the flow may allocate; on
                            overrun the flow degrades rung by rung
                            (symbolic, explicit, partial report) instead
                            of running away
  --timeout-ms <n>          cooperative wall-clock deadline for the whole
                            flow, in milliseconds
  --no-fallback             surface the typed budget error instead of
                            descending the degradation ladder

output:
  --emit eqn|verilog        print the synthesized gate netlist (complex
                            gates and generalized C-elements) after the
                            report, as Berkeley .eqn equations or
                            structural Verilog
  --verify-netlist          symbolically verify the emitted netlist against
                            the encoded STG: speed independence and
                            projection-trace equivalence, budget-governed
  --write-g <path>          write the encoded STG back in .g format
  --help, -h                show this help"
    );
}

fn builtin(name: &str) -> Option<stg::Stg> {
    match name {
        "handshake" => Some(stg::benchmarks::handshake()),
        "pulser" => Some(stg::benchmarks::pulser()),
        "vme_read" => Some(stg::benchmarks::vme_read()),
        "master_read_like" => Some(stg::benchmarks::master_read_like()),
        "arbiter" => Some(stg::benchmarks::arbiter()),
        "mixed_handshake" => Some(stg::benchmarks::mixed_handshake()),
        _ => {
            if let Some(n) = name.strip_prefix("pipe4_") {
                return n.parse().ok().map(stg::benchmarks::pipeline_4ph);
            }
            if let Some(n) = name.strip_prefix("pipe2_") {
                return n.parse().ok().map(stg::benchmarks::pipeline_2ph);
            }
            if let Some(n) = name.strip_prefix("seq") {
                return n.parse().ok().map(stg::benchmarks::sequencer);
            }
            if let Some(n) = name.strip_prefix("counter") {
                return n.parse().ok().map(stg::benchmarks::counter);
            }
            if let Some(n) = name.strip_prefix("par_hs") {
                return n.parse().ok().map(stg::benchmarks::parallel_handshakes);
            }
            if let Some(n) = name.strip_prefix("pulser_bank") {
                return n.parse().ok().map(stg::benchmarks::pulser_bank);
            }
            if let Some(n) = name.strip_prefix("wide_conflict") {
                return n.parse().ok().map(stg::benchmarks::wide_conflict);
            }
            if let Some(n) = name.strip_prefix("par") {
                return n.parse().ok().map(stg::benchmarks::parallelizer);
            }
            None
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EmitFormat {
    Eqn,
    Verilog,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input_path: Option<String> = None;
    let mut benchmark: Option<String> = None;
    let mut options = FlowOptions::default();
    let mut write_g: Option<String> = None;
    let mut emit: Option<EmitFormat> = None;
    let mut solver: Option<SolverStrategy> = None;
    // The explicit-only flag given, if any.
    let mut explicit_only: Option<&str> = None;
    let mut index = 0;
    while index < args.len() {
        match args[index].as_str() {
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            "--list" => {
                let mut text = String::from("built-in benchmarks:\n");
                for (name, _, _) in stg::benchmarks::table2_suite() {
                    text += &format!("  {name}\n");
                }
                text += "gate-level corpus:\n";
                for (name, _, _) in stg::benchmarks::corpus_suite() {
                    text += &format!("  {name}\n");
                }
                text += "  parN, par_hsN, seqN, counterN, pulser_bankN, wide_conflictN, \
                         pipe4_N, pipe2_N (parameterised)\n";
                // A closed pipe (`| head`) ends the listing quietly.
                let _ = std::io::stdout().lock().write_all(text.as_bytes());
                return ExitCode::SUCCESS;
            }
            "--baseline" => {
                options.solver.candidate_source = csc::CandidateSource::ExcitationRegions;
                explicit_only = Some("--baseline");
            }
            "--enlarge" => {
                options.solver.enlarge_concurrency = true;
                explicit_only = Some("--enlarge");
            }
            "--no-area" => options.estimate_area = false,
            "--fw" => {
                index += 1;
                match args.get(index).and_then(|v| v.parse().ok()) {
                    Some(fw) => options.solver.frontier_width = fw,
                    None => {
                        eprintln!("--fw needs a positive integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--solver" => {
                index += 1;
                match args.get(index).map(String::as_str) {
                    Some("symbolic") => solver = Some(SolverStrategy::Symbolic),
                    Some("explicit") => solver = Some(SolverStrategy::Explicit),
                    _ => {
                        eprintln!("--solver needs 'symbolic' or 'explicit'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--node-budget" => {
                index += 1;
                match args.get(index).and_then(|v| v.parse().ok()) {
                    Some(nodes) => options.node_budget = Some(nodes),
                    None => {
                        eprintln!("--node-budget needs a positive integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--timeout-ms" => {
                index += 1;
                match args.get(index).and_then(|v| v.parse().ok()) {
                    Some(ms) => options.timeout_ms = Some(ms),
                    None => {
                        eprintln!("--timeout-ms needs a positive integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--no-fallback" => options.no_fallback = true,
            "--verify-netlist" => options.verify_netlist = true,
            "--emit" => {
                index += 1;
                match args.get(index).map(String::as_str) {
                    Some("eqn") => emit = Some(EmitFormat::Eqn),
                    Some("verilog") => emit = Some(EmitFormat::Verilog),
                    _ => {
                        eprintln!("--emit needs 'eqn' or 'verilog'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--benchmark" => {
                index += 1;
                benchmark = args.get(index).cloned();
            }
            "--write-g" => {
                index += 1;
                write_g = args.get(index).cloned();
            }
            other if !other.starts_with('-') => input_path = Some(other.to_owned()),
            other => {
                eprintln!("unknown option '{other}'");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
        index += 1;
    }
    // Only the explicit solver reads the candidate source and the
    // concurrency enlargement.
    options.strategy = match (solver, explicit_only) {
        (Some(SolverStrategy::Symbolic), Some(flag)) => {
            eprintln!("{flag} needs the explicit solver; it cannot run with --solver symbolic");
            return ExitCode::FAILURE;
        }
        (_, Some(_)) => SolverStrategy::Explicit,
        (solver, None) => solver.unwrap_or_default(),
    };

    let model = match (&input_path, &benchmark) {
        (Some(path), _) => match std::fs::read_to_string(path) {
            Ok(text) => match stg::parse_g(&text) {
                Ok(model) => model,
                Err(e) => {
                    eprintln!("failed to parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, Some(name)) => match builtin(name) {
            Some(model) => model,
            None => {
                eprintln!("unknown benchmark '{name}' (try --list)");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => {
            print_usage();
            return ExitCode::FAILURE;
        }
    };

    // Structural validation runs before any reachability analysis: errors
    // describe nets without a well-defined safe state graph, so the flow
    // would only fail later and deeper.  Warnings are advisory.
    let validation = stg::validate(&model);
    for warning in validation.warnings() {
        eprintln!("warning: {warning}");
    }
    if validation.has_errors() {
        for error in validation.errors() {
            eprintln!("error: {error}");
        }
        eprintln!("the STG failed structural validation; refusing to start the flow");
        return ExitCode::FAILURE;
    }

    let report = match run_flow(&model, &options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("state encoding failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A reader that stops early (`| head`) closes the pipe: end quietly.
    match print_report(&report, emit) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("could not write the report: {e}");
            return ExitCode::FAILURE;
        }
        _ => {}
    }
    if let Some(path) = write_g {
        // The report carries the STG it describes, whichever rung
        // produced it.
        match &report.encoded {
            Some(encoded) => match std::fs::write(&path, encoded.to_g()) {
                Ok(()) => {
                    let _ = writeln!(std::io::stdout(), "encoded STG written to {path}");
                }
                Err(e) => eprintln!("could not write {path}: {e}"),
            },
            None if report.rung == FlowRung::PartialReport => {
                eprintln!("the flow ended in a partial report; no STG was written")
            }
            None => {
                eprintln!("the encoded state graph is not excitation closed; no STG was written")
            }
        }
    }
    ExitCode::SUCCESS
}

/// Writes the report, its stage table and the emitted netlist to a locked
/// standard output.
fn print_report(report: &FlowReport, emit: Option<EmitFormat>) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{report}")?;
    writeln!(out, "\n{}", render_stage_table(report))?;
    if let Some(format) = emit {
        match &report.netlist {
            Some(stage) => {
                let text = match format {
                    EmitFormat::Eqn => stage.circuit.to_eqn(),
                    EmitFormat::Verilog => stage.circuit.to_verilog(),
                };
                writeln!(out, "\n{text}")?;
            }
            None => eprintln!(
                "no netlist was synthesized (area estimation disabled or logic derivation \
                 failed); nothing to emit"
            ),
        }
    }
    out.flush()
}
