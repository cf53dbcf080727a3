//! `flowbench` — the end-to-end synthesis benchmark.
//!
//! Each flow takes one design's `.g` text through `stg::parse_g` →
//! `stg::validate` → `synthkit::run_flow` (default options plus netlist
//! verification) → `Netlist::to_eqn`, and its output is checked against the
//! design's hand-written expected answer.  One process runs one workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path flowbench/Cargo.toml -- \
//!     --workload controllers --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The output is a metric table, one row per design, and as its last line
//! one JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
//! from a traced run with `--trace 1`.  Every time is divided by the host
//! slowdown that a reference kernel, timed between flows, reads
//! (`host.rs`).  See `README.md` for what each metric measures and which
//! layer should move it.

mod flow;
mod host;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: flowbench --workload <controllers|wide_clean|wide_conflict> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 0, seconds: 30.0, trace: false };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload '{}'", parsed.workload));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flowbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let designs = workloads::designs(&args.workload).expect("workload checked by parse_args");
    let mut reference = host::Reference::new();
    let mut setup = Vec::new();
    let inputs = runner::set_up(&designs, &mut reference, &mut setup)?;
    let record = runner::run(&inputs, &mut reference, setup, args.seed, args.seconds, args.trace)?;
    let end_to_end = record.end_to_end(stats::peak_rss_mib()?);

    println!(
        "workload {} (seed {}, {} passes, trace {})",
        args.workload,
        args.seed,
        record.passes(),
        u8::from(args.trace)
    );
    let metrics = if args.trace {
        // The untraced flows of a traced run give every end-to-end figure
        // too; they are printed for reference, and only `--trace 0` runs
        // report them.
        println!("end-to-end, from this traced run (not reported):");
        print!("{}", stats::render_table(&end_to_end));
        println!("per-layer:");
        record.per_layer()
    } else {
        end_to_end
    };
    print!("{}", stats::render_table(&metrics));
    let row = |values: Vec<f64>| values.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>();
    println!("untraced pass seconds: {}", row(record.pass_seconds()).join(" "));
    println!("host slowdown per pass: {}", row(record.slowdowns()).join(" "));
    println!(
        "{:<18} {:>12} {:>8} {:>9} {:>7}  outcome",
        "design", "median_ms", "samples", "literals", "signals"
    );
    for (input, row) in inputs.iter().zip(&record.rows) {
        let (literals, signals, outcome) = match &row.last {
            Some(Ok((literals, signals))) => (literals.to_string(), signals.to_string(), "ok"),
            Some(Err(e)) => ("-".to_owned(), "-".to_owned(), e.as_str()),
            None => ("-".to_owned(), "-".to_owned(), "not run"),
        };
        println!(
            "{:<18} {:>12.3} {:>8} {:>9} {:>7}  {}",
            input.design.name,
            stats::median(&row.seconds) * 1e3,
            row.seconds.len(),
            literals,
            signals,
            outcome
        );
    }
    for failure in &record.failures {
        eprintln!("failed: {failure}");
    }
    let failed = record.failures.len();
    println!("{}", stats::result_line(failed == 0, record.attempted, failed, &metrics));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_benchmark_command_line_is_accepted() {
        let args = parse("--workload wide_clean --seed 42 --seconds 30 --trace 1").unwrap();
        assert_eq!(args.workload, "wide_clean");
        assert_eq!(args.seed, 42);
        assert_eq!(args.seconds, 30.0);
        assert!(args.trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload controllers --trace 2").is_err());
        assert!(parse("--workload controllers --seed").is_err());
        assert!(parse("--workload controllers --bogus 1").is_err());
    }
}
