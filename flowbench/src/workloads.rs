//! The three workloads and the hand-written answer every design must give.
//!
//! The answers do not come from the flow under test.  The input
//! reachable-state counts are closed forms of the generators (4ⁿ for
//! `par_hsN`, 6·4ⁿ for `wide_conflictN`, …).  For the controllers without
//! one they are the explicit state-graph count, which a self-test
//! re-derives with the explicit engine rather than the symbolic one the
//! flow uses.  Every design must leave the flow with CSC holding, and every
//! emitted circuit must verify — except `arbiter`, the negative control,
//! whose mutual-exclusion grant cannot be built from speed-independent
//! gates and must fail with its two hazard witnesses.

use stg::Stg;

/// The verdict the closed-loop verification of the emitted circuit must
/// reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Speed-independent and trace-equivalent to the STG.
    Verified,
    /// Exactly `count` speed-independence findings, each witnessed at the
    /// state `code` — written, like the verifier's codes, most significant
    /// (last) signal first, over the generator's signal order `signals`.
    /// The `.g` text declares inputs first, so the flow reports the same
    /// state under another bit order; the check compares by signal name.
    Hazards { count: usize, code: &'static str, signals: &'static [&'static str] },
}

/// The `(signal, value)` pairs a witness code spells over `signals`
/// (most significant = last signal first), sorted by name; `None` when the
/// widths differ.
pub fn named_code<S: AsRef<str>>(code: &str, signals: &[S]) -> Option<Vec<(String, bool)>> {
    if code.len() != signals.len() {
        return None;
    }
    let mut values: Vec<(String, bool)> = code
        .chars()
        .rev()
        .zip(signals)
        .map(|(bit, name)| (name.as_ref().to_owned(), bit == '1'))
        .collect();
    values.sort();
    Some(values)
}

/// What one flow over a design must report.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// Reachable (marking, code) states of the input STG.
    pub states: f64,
    /// Whether CSC holds after the flow.
    pub csc: bool,
    /// The netlist verification verdict.
    pub verdict: Verdict,
}

/// One design of a workload: its `rsynth --list` name, its generator and
/// its expected answer.
#[derive(Clone, Debug)]
pub struct Design {
    pub name: &'static str,
    pub build: fn() -> Stg,
    pub expect: Expect,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["controllers", "wide_clean", "wide_conflict"];

const fn verified(states: f64) -> Expect {
    Expect { states, csc: true, verdict: Verdict::Verified }
}

/// The designs of a workload, or `None` for an unknown name.
pub fn designs(workload: &str) -> Option<Vec<Design>> {
    use stg::benchmarks as b;
    let d = |name, build, expect| Design { name, build, expect };
    Some(match workload {
        // Table 2 / corpus class: small conflicted controllers, where the
        // CSC solver dominates.  `arbiter` is the negative control.
        "controllers" => vec![
            d("pulser", b::pulser, verified(6.0)),
            d("vme_read", b::vme_read, verified(14.0)),
            d("master_read_like", b::master_read_like, verified(20.0)),
            // seqN: a ring of 2n + 4 states.
            d("seq4", || b::sequencer(4), verified(12.0)),
            d("seq8", || b::sequencer(8), verified(20.0)),
            // counterN: a ring of 8n + 2 states.
            d("counter2", || b::counter(2), verified(18.0)),
            d("counter4", || b::counter(4), verified(34.0)),
            // pulser_bankN: n independent 6-state pulsers.
            d("pulser_bank2", || b::pulser_bank(2), verified(6f64.powi(2))),
            d("pipe4_3", || b::pipeline_4ph(3), verified(108.0)),
            d("pipe4_4", || b::pipeline_4ph(4), verified(580.0)),
            d("mixed_handshake", b::mixed_handshake, verified(10.0)),
            // Both requests pending and the mutex free: r1 = r2 = 1,
            // g1 = g2 = 0, where either grant withdraws the other.
            d(
                "arbiter",
                b::arbiter,
                Expect {
                    states: 12.0,
                    csc: true,
                    verdict: Verdict::Hazards {
                        count: 2,
                        code: "0101",
                        signals: &["r1", "g1", "r2", "g2"],
                    },
                },
            ),
        ],
        // Table 1 class: conflict-free wide concurrency; the CSC solver
        // never runs.
        "wide_clean" => vec![
            // par_hsN: n independent 4-state handshakes.
            d("par_hs16", || b::parallel_handshakes(16), verified(4f64.powi(16))),
            d("par_hs20", || b::parallel_handshakes(20), verified(4f64.powi(20))),
            d("par_hs24", || b::parallel_handshakes(24), verified(4f64.powi(24))),
            // pipe2_N: N two-phase stages, 2^(N+1) states.
            d("pipe2_16", || b::pipeline_2ph(16), verified(2f64.powi(17))),
        ],
        // Local conflicts inside wide nets.
        "wide_conflict" => vec![
            // wide_conflictN: a 6-state conflicted pulser beside n
            // independent handshakes.
            d("wide_conflict12", || b::wide_conflict(12), verified(6.0 * 4f64.powi(12))),
            d("wide_conflict16", || b::wide_conflict(16), verified(6.0 * 4f64.powi(16))),
            d("pulser_bank5", || b::pulser_bank(5), verified(6f64.powi(5))),
        ],
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_designs_with_distinct_names() {
        for workload in WORKLOADS {
            let designs = designs(workload).expect("listed workloads exist");
            let mut names: Vec<_> = designs.iter().map(|d| d.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), designs.len(), "{workload}");
        }
        assert!(designs("nope").is_none());
    }

    #[test]
    fn generators_produce_the_named_models() {
        for workload in WORKLOADS {
            for design in designs(workload).unwrap() {
                assert_eq!((design.build)().name(), design.name);
            }
        }
    }

    #[test]
    fn expected_state_counts_match_the_explicit_state_graph() {
        for workload in WORKLOADS {
            for design in designs(workload).unwrap() {
                if design.expect.states > 200_000.0 {
                    continue;
                }
                let graph = (design.build)().state_graph(200_000).unwrap();
                assert_eq!(graph.num_states() as f64, design.expect.states, "{}", design.name);
            }
        }
    }

    #[test]
    fn witness_codes_compare_by_signal_name() {
        let generator = named_code("0101", &["r1", "g1", "r2", "g2"]).unwrap();
        // The same state with the inputs declared first.
        assert_eq!(named_code("0011", &["r1", "r2", "g1", "g2"]), Some(generator.clone()));
        assert_ne!(named_code("0101", &["r1", "r2", "g1", "g2"]), Some(generator));
        assert_eq!(named_code("01", &["r1", "r2", "g1"]), None);
    }
}
