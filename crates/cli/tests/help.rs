//! Snapshot test of the `rsynth` usage text: every current flag must be
//! documented, and the help must not drift from the option parser without
//! this test noticing.

use std::io::Read;
use std::process::{Command, Stdio};

/// Runs the built `rsynth` binary with the given arguments.
fn rsynth(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rsynth")).args(args).output().expect("rsynth binary runs")
}

const EXPECTED_HELP: &str = "usage: rsynth [<model.g>] [--benchmark <name>] [options]

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
  --help, -h                show this help
";

#[test]
fn help_text_matches_the_snapshot() {
    let out = rsynth(&["--help"]);
    assert!(out.status.success(), "--help exits successfully");
    let text = String::from_utf8(out.stderr).expect("usage text is UTF-8");
    assert_eq!(text, EXPECTED_HELP, "usage text drifted; update the parser or the snapshot");
}

#[test]
fn every_parsed_flag_is_documented() {
    // The option parser and the help text live in the same file; this
    // cross-checks that each flag the parser accepts appears in the help.
    let out = rsynth(&["--help"]);
    let text = String::from_utf8(out.stderr).unwrap();
    for flag in [
        "--benchmark",
        "--list",
        "--solver",
        "--baseline",
        "--fw",
        "--enlarge",
        "--no-area",
        "--node-budget",
        "--timeout-ms",
        "--no-fallback",
        "--emit",
        "--verify-netlist",
        "--write-g",
        "--help",
    ] {
        assert!(text.contains(flag), "flag {flag} missing from the usage text");
    }
}

#[test]
fn unknown_options_fail_with_usage() {
    // `--logic` and `--jobs` are not options: they fail like any misspelt
    // flag.
    for args in [&["--frobnicate"][..], &["--logic", "explicit"], &["--jobs", "2"]] {
        let out = rsynth(args);
        assert!(!out.status.success(), "{args:?}");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(text.contains(&format!("unknown option '{}'", args[0])), "{args:?}: {text}");
        assert!(text.contains("usage: rsynth"), "{args:?}");
    }
}

#[test]
fn budget_flags_drive_the_degradation_ladder() {
    // A 64-node ceiling is far too small for the symbolic rung, so the flow
    // descends to the explicit engine and reports the trail.
    let out = rsynth(&["--benchmark", "pulser", "--node-budget", "64"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("rung        : explicit"), "{text}");
    assert!(text.contains("~~ degraded"), "{text}");
    // --no-fallback surfaces the typed budget error instead.
    let out = rsynth(&["--benchmark", "pulser", "--node-budget", "64", "--no-fallback"]);
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("budget exceeded"), "{text}");
    // Malformed values are rejected up front.
    assert!(!rsynth(&["--benchmark", "pulser", "--node-budget", "lots"]).status.success());
    assert!(!rsynth(&["--benchmark", "pulser", "--timeout-ms", "soon"]).status.success());
}

#[test]
fn write_g_writes_the_stg_the_report_describes() {
    // A degraded run's report describes the explicit engine's solution, so
    // the file must be the one `--solver explicit` writes, not a fresh
    // ungoverned symbolic solve.
    let dir = std::env::temp_dir();
    let degraded = dir.join(format!("rsynth_write_g_degraded_{}.g", std::process::id()));
    let explicit = dir.join(format!("rsynth_write_g_explicit_{}.g", std::process::id()));
    let out = rsynth(&[
        "--benchmark",
        "pulser",
        "--node-budget",
        "64",
        "--write-g",
        degraded.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8(out.stdout).unwrap().contains("rung        : explicit"));
    let out = rsynth(&[
        "--benchmark",
        "pulser",
        "--solver",
        "explicit",
        "--write-g",
        explicit.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let degraded_text = std::fs::read_to_string(&degraded).unwrap();
    let explicit_text = std::fs::read_to_string(&explicit).unwrap();
    let _ = std::fs::remove_file(&degraded);
    let _ = std::fs::remove_file(&explicit);
    assert_eq!(degraded_text, explicit_text);
}

#[test]
fn structurally_broken_inputs_are_rejected_before_the_flow() {
    let path = std::env::temp_dir().join("rsynth_dead_marking_test.g");
    std::fs::write(&path, ".model broken\n.inputs a\n.graph\na+ a-\na- a+\n.marking { }\n.end\n")
        .unwrap();
    let out = rsynth(&[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("failed structural validation"), "{text}");
    assert!(text.contains("no token"), "{text}");
}

#[test]
fn emit_and_verify_flags_drive_the_gate_level_back_end() {
    let out = rsynth(&["--benchmark", "vme_read", "--emit", "eqn", "--verify-netlist"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("netlist chk : speed-independent, trace-equivalent"), "{text}");
    assert!(text.contains(".model vme_read"), "{text}");
    assert!(text.contains("= C("), "expected a generalized C-element in {text}");
    let out = rsynth(&["--benchmark", "pipe2_2", "--emit", "verilog"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("module pipe2_2"), "{text}");
    assert!(text.contains("gc_element"), "{text}");
    // Nothing to emit without the logic stage; the report still succeeds.
    let out = rsynth(&["--benchmark", "handshake", "--emit", "eqn", "--no-area"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("nothing to emit"), "{text}");
    // Malformed formats are rejected up front.
    assert!(!rsynth(&["--benchmark", "handshake", "--emit", "blif"]).status.success());
}

#[test]
fn solver_flag_selects_the_engine() {
    let out = rsynth(&["--benchmark", "pulser", "--solver", "symbolic"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("csc solver  : symbolic engine"), "{text}");
    let out = rsynth(&["--benchmark", "pulser", "--solver", "explicit"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("csc solver  : explicit engine"), "{text}");
    let out = rsynth(&["--benchmark", "pulser", "--solver", "bogus"]);
    assert!(!out.status.success());
}

#[test]
fn explicit_only_flags_select_the_explicit_solver() {
    // Only the explicit solver reads the candidate source and the
    // concurrency enlargement.
    for flag in ["--baseline", "--enlarge"] {
        let out = rsynth(&["--benchmark", "seq8", flag]);
        assert!(out.status.success(), "{flag}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("csc solver  : explicit engine"), "{flag}: {text}");
        for args in [[flag, "--solver", "symbolic"], ["--solver", "symbolic", flag]] {
            let out = rsynth(&[&["--benchmark", "seq8"][..], &args].concat());
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let text = String::from_utf8(out.stderr).unwrap();
            assert!(text.contains(&format!("{flag} needs the explicit solver")), "{text}");
        }
    }
    let out = rsynth(&["--benchmark", "seq8", "--baseline", "--solver", "explicit"]);
    assert!(out.status.success());
}

#[test]
fn baseline_keeps_the_search_flags_given_before_it() {
    // `--baseline` sets only the candidate source: `--fw` and `--enlarge`
    // act the same on either side of it.
    let decisions = |args: &[&str]| {
        let out = rsynth(&[&["--benchmark", "seq8"][..], args].concat());
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<String> = text
            .lines()
            .filter(|l| {
                ["encoding", "area", "candidates evaluated"].iter().any(|p| l.starts_with(p))
            })
            .map(str::to_owned)
            .collect();
        assert_eq!(lines.len(), 3, "{args:?}: {text}");
        lines
    };
    let after = decisions(&["--baseline", "--fw", "8"]);
    assert!(after[0].contains("36 states") && after[1].contains("80 literals"), "{after:?}");
    assert!(after[2].ends_with(" 567"), "{after:?}");
    assert_eq!(decisions(&["--fw", "8", "--baseline"]), after);
    assert_eq!(decisions(&["--enlarge", "--baseline"]), decisions(&["--baseline", "--enlarge"]));
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // The reader goes away before the report is written, as `| head` or
    // `| true` does.
    let mut child = Command::new(env!("CARGO_BIN_EXE_rsynth"))
        .args(["--benchmark", "pipe4_4", "--verify-netlist"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rsynth binary runs");
    drop(child.stdout.take());
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "{status}: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
