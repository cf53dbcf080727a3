//! Robustness bench: the governed flow under deliberately tight budgets.
//!
//! Run with `cargo bench -p bench --bench robustness`; set
//! `BENCH_OUT=BENCH_robustness.json` to record the machine-readable
//! baseline tracked at the repository root.
//!
//! Each row times [`synthkit::run_flow`] with a resource budget chosen to
//! force part of the fallback ladder, then attaches the degradation
//! columns of one untimed pass: the rung the flow ended on, the number of
//! degradation events, and the BDD nodes and wall-clock milliseconds the
//! shared budget had absorbed when each stage was abandoned.  The headline
//! row is `wide_conflict32` — 66 signals, beyond the explicit
//! representation limit — under a node ceiling that trips reachability
//! almost immediately, so the flow must descend the whole ladder and
//! still terminate inside its deadline with a partial report.

use bench::harness::{black_box, Criterion};
use std::time::{Duration, Instant};
use stg::benchmarks;
use stg::Stg;
use synthkit::{run_flow, FlowOptions, FlowReport, FlowRung};

/// Extra wall-clock allowance on top of a configured deadline: one BDD
/// check interval plus bookkeeping between rungs (same contract as the
/// fuzz harness).
const DEADLINE_SLACK_MS: u64 = 2_000;

/// Numeric encoding of the rung a flow ended on, for the metrics column:
/// the ladder position, counted from the top.
fn rung_index(rung: FlowRung) -> f64 {
    match rung {
        FlowRung::Symbolic => 0.0,
        FlowRung::Explicit => 1.0,
        FlowRung::PartialReport => 2.0,
    }
}

/// The degradation columns of one report: final rung, event count, CSC
/// outcome, and per-stage budget spend at each abandonment point.
fn degradation_metrics(report: &FlowReport) -> Vec<(String, f64)> {
    let mut metrics = vec![
        ("rung".to_string(), rung_index(report.rung)),
        ("degradations".to_string(), report.degradations.len() as f64),
        ("csc_satisfied".to_string(), report.csc_satisfied as u8 as f64),
        ("signals_inserted".to_string(), report.inserted_signals as f64),
    ];
    // Key the per-stage spend by the rung being abandoned: monotone
    // descent guarantees each rung appears at most once in the trail, so
    // the columns stay unique even when two rungs trip in the same stage.
    for event in &report.degradations {
        metrics.push((format!("nodes_leaving_{}", event.from), event.nodes_spent as f64));
        metrics.push((format!("ms_leaving_{}", event.from), event.elapsed_ms as f64));
    }
    metrics
}

/// One governed row: time the flow, then attach the degradation columns
/// of an untimed pass, asserting the run honours its own deadline.
fn governed_row(
    group: &mut bench::harness::BenchmarkGroup<'_>,
    name: &str,
    model: &Stg,
    options: &FlowOptions,
    expect_rung: FlowRung,
) {
    group.bench_function(name, |b| b.iter(|| black_box(run_flow(model, options).map(|r| r.rung))));
    let start = Instant::now();
    let report = run_flow(model, options)
        .unwrap_or_else(|e| panic!("{name}: governed flow returned an error: {e}"));
    let elapsed = start.elapsed().as_millis() as u64;
    if let Some(timeout) = options.timeout_ms {
        assert!(
            elapsed < timeout + DEADLINE_SLACK_MS,
            "{name}: flow overran its deadline ({elapsed} ms vs {timeout} ms)"
        );
    }
    assert_eq!(report.rung, expect_rung, "{name}: unexpected final rung");
    let metrics = degradation_metrics(&report);
    let borrowed: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    group.attach_metrics(&borrowed);
}

fn degradation_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("robustness/degradation");
    // One sample per row: the interesting rows are budget-tripped flows
    // whose cost is dominated by the descent itself, not sampling noise.
    group.sample_size(1).measurement_time(Duration::from_millis(1));

    // The headline row: 66 signals, so the explicit rung is out of reach;
    // a tight node ceiling kills the symbolic rung and the ladder must
    // bottom out in a diagnosis-only partial report — within the deadline.
    let wide = benchmarks::wide_conflict(32);
    let tight = FlowOptions {
        node_budget: Some(200_000),
        timeout_ms: Some(5_000),
        ..FlowOptions::default()
    };
    governed_row(&mut group, "wide_conflict32_tight", &wide, &tight, FlowRung::PartialReport);

    // A solvable descent: the same ceiling that kills the symbolic rung
    // on a 5-signal model leaves the explicit rung free to finish the job.
    let pulser = benchmarks::pulser();
    let strangled = FlowOptions { node_budget: Some(64), ..FlowOptions::default() };
    governed_row(&mut group, "pulser_node64", &pulser, &strangled, FlowRung::Explicit);

    // The control row: the same model with a roomy budget never degrades,
    // so the columns document the zero-overhead baseline of governance.
    let roomy = FlowOptions { node_budget: Some(1 << 22), ..FlowOptions::default() };
    governed_row(&mut group, "pulser_roomy", &pulser, &roomy, FlowRung::Symbolic);

    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    degradation_rows(&mut c);
    c.finish();
}
