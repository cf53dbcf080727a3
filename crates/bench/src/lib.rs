//! Experiment harnesses that regenerate the paper's evaluation artifacts.
//!
//! * [`table1_rows`] — "Results for STGs with a large number of states"
//!   (Table 1): places / transitions / signals / reachable states / CPU for
//!   workloads with exploding state spaces, using the symbolic engine for
//!   the state counts and the explicit solver where feasible.
//! * [`table2_rows`] — "Experimental results compared with ASSASSIN"
//!   (Table 2): per-benchmark area (literal count) and CPU for the
//!   region-based method and the excitation-region baseline.
//! * [`frontier_width_sweep`] — ablation of the `FW` quality/time knob.
//! * [`concurrency_enlargement_comparison`] — ablation of step 4 of the
//!   algorithm (greedy ER enlargement).
//!
//! Each function returns plain data; the `table1`/`table2`/`ablation_*`
//! binaries print them as aligned text tables and the wall-clock benches
//! (built on the in-repo [`harness`] module) measure the underlying
//! runtimes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use csc::{solve_stg, SolverConfig};
use logic::estimate_area;
use std::time::Instant;
use stg::Stg;

/// One row of the Table 1 reproduction.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Places of the STG.
    pub places: usize,
    /// Transitions of the STG.
    pub transitions: usize,
    /// Signals of the STG.
    pub signals: usize,
    /// Reachable states (symbolic count, exact).
    pub states: f64,
    /// BDD nodes representing the reachable set.
    pub bdd_nodes: usize,
    /// Whether the specification needs state signals at all (`None` when the
    /// symbolic CSC check was skipped because the variable count is large).
    pub has_csc_conflicts: Option<bool>,
    /// State signals inserted by the explicit solver (`None` when the state
    /// space was too large for the explicit pass).
    pub inserted_signals: Option<usize>,
    /// Wall-clock seconds of the whole row (symbolic + explicit pass).
    pub cpu_seconds: f64,
}

/// One row of the Table 2 reproduction.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Reachable states.
    pub states: usize,
    /// Area (literals) and CPU of the region-based method, when it solved
    /// the benchmark.
    pub region: Option<(usize, f64)>,
    /// Area (literals) and CPU of the excitation-region baseline, when it
    /// solved the benchmark.
    pub baseline: Option<(usize, f64)>,
}

/// The workloads of the Table 1 reproduction: wide concurrency (the `parN`
/// and `pipeN` classes) and concurrent conflict-rich banks (the
/// `master-read`/`adfast` class), at sizes whose *symbolic* analysis is
/// immediate while explicit enumeration ranges from easy to impossible.
pub fn table1_workloads() -> Vec<(Stg, usize)> {
    vec![
        (stg::benchmarks::parallel_handshakes(8), 200_000),
        (stg::benchmarks::parallel_handshakes(12), 0),
        (stg::benchmarks::parallel_handshakes(16), 0),
        (stg::benchmarks::parallelizer(12), 20_000),
        (stg::benchmarks::parallelizer(16), 0),
        (stg::benchmarks::pulser_bank(3), 20_000),
        (stg::benchmarks::pulser_bank(6), 0),
        (stg::benchmarks::master_read_like(), 20_000),
        (stg::benchmarks::vme_read(), 20_000),
    ]
}

/// Runs the Table 1 experiment on the default workloads.
pub fn table1_rows() -> Vec<Table1Row> {
    table1_rows_for(table1_workloads())
}

/// Runs the Table 1 experiment on a caller-supplied workload list (each
/// entry is a model plus the explicit-state budget, 0 = symbolic only).
pub fn table1_rows_for(workloads: Vec<(Stg, usize)>) -> Vec<Table1Row> {
    workloads
        .into_iter()
        .map(|(model, explicit_limit)| {
            let start = Instant::now();
            let (places, transitions, signals) = model.stats();
            let space = model.symbolic_state_space();
            // The per-signal symbolic CSC check is only run while the
            // variable count stays moderate; the huge pure-concurrency
            // workloads are conflict-free by construction anyway.
            let has_conflicts =
                if places + signals <= 48 { Some(model.symbolic_csc_violation(0)) } else { None };
            let inserted_signals = if explicit_limit > 0 {
                let config = SolverConfig { max_states: explicit_limit, ..SolverConfig::default() };
                solve_stg(&model, &config).ok().map(|s| s.inserted_signals.len())
            } else {
                None
            };
            Table1Row {
                name: model.name().to_owned(),
                places,
                transitions,
                signals,
                states: space.state_count_f64(),
                bdd_nodes: space.bdd_size(),
                has_csc_conflicts: has_conflicts,
                inserted_signals,
                cpu_seconds: start.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// Renders Table 1 as aligned text.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>7} {:>7} {:>8} {:>14} {:>10} {:>9} {:>8} {:>9}\n",
        "benchmark",
        "places",
        "trans.",
        "signals",
        "states",
        "bdd nodes",
        "csc?",
        "inserted",
        "cpu[s]"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>7} {:>7} {:>8} {:>14.6e} {:>10} {:>9} {:>8} {:>9.3}\n",
            r.name,
            r.places,
            r.transitions,
            r.signals,
            r.states,
            r.bdd_nodes,
            match r.has_csc_conflicts {
                Some(true) => "conflict",
                Some(false) => "ok",
                None => "n/a",
            },
            r.inserted_signals.map_or_else(|| "-".to_owned(), |n| n.to_string()),
            r.cpu_seconds
        ));
    }
    out
}

/// Runs the Table 2 experiment (region-based method vs. the ASSASSIN-style
/// excitation-region baseline) over the named benchmark suite.
pub fn table2_rows() -> Vec<Table2Row> {
    stg::benchmarks::table2_suite()
        .into_iter()
        .map(|(name, model, _)| {
            let states = model.state_graph(1_000_000).map(|sg| sg.num_states()).unwrap_or_default();
            let region = measure(&model, &SolverConfig::default());
            let baseline = measure(&model, &SolverConfig::excitation_region_baseline());
            Table2Row { name: name.to_owned(), states, region, baseline }
        })
        .collect()
}

fn measure(model: &Stg, config: &SolverConfig) -> Option<(usize, f64)> {
    let start = Instant::now();
    let solution = solve_stg(model, config).ok()?;
    let area = estimate_area(&solution.graph).ok()?;
    Some((area.total_literals, start.elapsed().as_secs_f64()))
}

/// Renders Table 2 as aligned text.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>7} | {:>10} {:>9} | {:>10} {:>9}\n",
        "benchmark", "states", "base area", "base cpu", "regn area", "regn cpu"
    ));
    let fmt = |cell: &Option<(usize, f64)>| match cell {
        Some((area, cpu)) => (area.to_string(), format!("{cpu:.3}")),
        None => ("fail".to_owned(), "-".to_owned()),
    };
    let mut totals = (0usize, 0f64, 0usize, 0f64);
    for r in rows {
        let (ba, bc) = fmt(&r.baseline);
        let (ra, rc) = fmt(&r.region);
        out.push_str(&format!(
            "{:<18} {:>7} | {:>10} {:>9} | {:>10} {:>9}\n",
            r.name, r.states, ba, bc, ra, rc
        ));
        if let Some((a, c)) = r.baseline {
            totals.0 += a;
            totals.1 += c;
        }
        if let Some((a, c)) = r.region {
            totals.2 += a;
            totals.3 += c;
        }
    }
    out.push_str(&format!(
        "{:<18} {:>7} | {:>10} {:>9.3} | {:>10} {:>9.3}\n",
        "total", "", totals.0, totals.1, totals.2, totals.3
    ));
    out
}

/// Ablation A: solution quality and runtime as a function of the frontier
/// width `FW`.  Returns `(fw, inserted signals, literals, seconds)` rows for
/// the given model.
pub fn frontier_width_sweep(model: &Stg, widths: &[usize]) -> Vec<(usize, usize, usize, f64)> {
    widths
        .iter()
        .filter_map(|&fw| {
            let config = SolverConfig { frontier_width: fw, ..SolverConfig::default() };
            let start = Instant::now();
            let solution = solve_stg(model, &config).ok()?;
            let literals = estimate_area(&solution.graph).ok()?.total_literals;
            Some((fw, solution.inserted_signals.len(), literals, start.elapsed().as_secs_f64()))
        })
        .collect()
}

/// Ablation B: effect of greedy concurrency enlargement (step 4) on the
/// number of inserted signals and the literal count.
/// Returns `(enlarged, inserted signals, literals, seconds)`.
pub fn concurrency_enlargement_comparison(model: &Stg) -> Vec<(bool, usize, usize, f64)> {
    [false, true]
        .into_iter()
        .filter_map(|enlarge| {
            let config = SolverConfig { enlarge_concurrency: enlarge, ..SolverConfig::default() };
            let start = Instant::now();
            let solution = solve_stg(model, &config).ok()?;
            let literals = estimate_area(&solution.graph).ok()?.total_literals;
            Some((
                enlarge,
                solution.inserted_signals.len(),
                literals,
                start.elapsed().as_secs_f64(),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_cover_the_whole_suite() {
        let rows = table2_rows();
        assert_eq!(rows.len(), stg::benchmarks::table2_suite().len());
        // The region-based method must solve every benchmark of the suite.
        for row in &rows {
            assert!(row.region.is_some(), "{} not solved by the region method", row.name);
            assert!(row.states > 0);
        }
        let text = render_table2(&rows);
        assert!(text.contains("vme_read"));
        assert!(text.contains("total"));
    }

    #[test]
    fn table1_rows_report_huge_state_counts() {
        // A trimmed workload list keeps the debug-mode test fast; the full
        // list is exercised by the `table1` binary and Criterion bench.
        let rows = table1_rows_for(vec![
            (stg::benchmarks::parallel_handshakes(16), 0),
            (stg::benchmarks::vme_read(), 20_000),
        ]);
        let par16 = rows.iter().find(|r| r.name == "par_hs16").unwrap();
        assert!(par16.states > 4e9, "4^16 markings expected, got {}", par16.states);
        let small = rows.iter().find(|r| r.name == "vme_read").unwrap();
        assert!(small.inserted_signals.unwrap_or(0) >= 1);
        assert_eq!(small.has_csc_conflicts, Some(true));
        let text = render_table1(&rows);
        assert!(text.contains("par_hs16"));
    }

    #[test]
    fn frontier_sweep_and_enlargement_run() {
        let model = stg::benchmarks::sequencer(3);
        let sweep = frontier_width_sweep(&model, &[1, 4]);
        assert_eq!(sweep.len(), 2);
        for (_, signals, literals, _) in &sweep {
            assert!(*signals >= 1);
            assert!(*literals > 0);
        }
        let enlargement = concurrency_enlargement_comparison(&model);
        assert_eq!(enlargement.len(), 2);
    }
}
