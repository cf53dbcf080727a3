//! The closed loop: one client runs passes over a workload's designs, the
//! next flow starting only when the previous one returned.  The seed
//! shuffles the design order of every pass.  The host-speed reference
//! kernel runs before a pass's first flow and after each flow, and every
//! time the pass measures is divided by the host slowdown it read.

use crate::flow::{self, Observed};
use crate::host::{self, Reference};
use crate::stats::{geomean, median, ratio, Metric};
use crate::trace::{self, LayerSample};
use crate::workloads::Design;
use std::time::Instant;
use stg::fuzz::SplitMix64;
use synthkit::FlowRung;

/// One design with its generated `.g` text — all the program sees of it.
pub struct Input {
    pub design: Design,
    pub text: String,
}

/// Generates every design's `.g` text and checks that it loads.
fn prepare(designs: &[Design]) -> Result<Vec<Input>, String> {
    designs
        .iter()
        .map(|design| {
            let text = flow::guarded(|| Ok((design.build)().to_g()))?;
            flow::load(&text).map_err(|e| format!("{}: {e}", design.name))?;
            Ok(Input { design: design.clone(), text })
        })
        .collect()
}

/// How many times the inputs are prepared before the first pass, and again
/// after every pass; `setup_s` is the median of all of them.  Repeating the
/// set-up through the run keeps its median from resting on the first
/// milliseconds of the process.
const SETUP_REPEATS: usize = 5;

/// Prepares the inputs `SETUP_REPEATS` times, recording each duration
/// divided by the host slowdown the reference read just before and after.
pub fn set_up(
    designs: &[Design],
    reference: &mut Reference,
    times: &mut Vec<f64>,
) -> Result<Vec<Input>, String> {
    let before = reference.time();
    let mut inputs = Vec::new();
    let mut raw = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        inputs = prepare(designs)?;
        raw.push(start.elapsed().as_secs_f64());
    }
    let slowdown = host::slowdown(&[before, reference.time()]);
    times.extend(raw.iter().map(|seconds| seconds / slowdown));
    Ok(inputs)
}

/// A Fisher–Yates shuffle of `0..n`.
fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The per-design record of a run.
#[derive(Clone, Debug, Default)]
pub struct DesignRow {
    /// Untraced flow times divided by their pass's host slowdown, one per
    /// pass.
    pub seconds: Vec<f64>,
    /// The last checked output, or the last failure.
    pub last: Option<Result<(usize, usize), String>>,
}

/// Sums of one untraced pass.
#[derive(Clone, Debug, Default)]
struct Pass {
    /// Summed wall time of the flows.
    seconds: f64,
    /// The host slowdown over the pass.
    slowdown: f64,
    literals: usize,
    state_signals: usize,
    /// Flows that did not finish on the symbolic rung.
    fallbacks: usize,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Record {
    pub rows: Vec<DesignRow>,
    /// Durations of every set-up.
    setup: Vec<f64>,
    passes: Vec<Pass>,
    /// Per traced pass, the layer totals.
    traced: Vec<LayerSample>,
    pub attempted: usize,
    /// `design: reason` for every failed flow.
    pub failures: Vec<String>,
}

impl Record {
    fn new(designs: usize, setup: Vec<f64>) -> Self {
        Record { rows: vec![DesignRow::default(); designs], setup, ..Record::default() }
    }

    fn tally(&mut self, name: &str, outcome: &Result<Observed, String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{name}: {e}"));
        }
    }

    /// Number of untraced passes.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Each untraced pass's summed flow time, in run order.
    pub fn pass_seconds(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.seconds).collect()
    }

    /// Each untraced pass's host slowdown, in run order.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.slowdown).collect()
    }

    /// Untraced passes' summed flow time (the paper's "total CPU") divided
    /// by their host slowdown, median over passes.
    fn suite_s(&self) -> f64 {
        median(&self.passes.iter().map(|p| p.seconds / p.slowdown).collect::<Vec<_>>())
    }

    fn per_pass(&self, field: impl Fn(&Pass) -> usize) -> f64 {
        median(&self.passes.iter().map(|p| field(p) as f64).collect::<Vec<_>>())
    }

    fn per_traced(&self, field: impl Fn(&LayerSample) -> f64) -> f64 {
        median(&self.traced.iter().map(field).collect::<Vec<_>>())
    }

    /// Failed flows over attempted flows.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failures.len() as f64, self.attempted as f64)
    }

    /// The gated end-to-end metrics, from untraced flows only.
    pub fn end_to_end(&self, peak_rss_mib: f64) -> Vec<Metric> {
        let per_design: Vec<f64> = self.rows.iter().map(|row| median(&row.seconds)).collect();
        let n = self.passes();
        vec![
            Metric {
                name: "setup_s",
                value: median(&self.setup),
                unit: "s",
                samples: self.setup.len(),
            },
            Metric { name: "suite_s", value: self.suite_s(), unit: "s", samples: n },
            Metric {
                name: "flow_s.geomean",
                value: geomean(&per_design),
                unit: "s",
                samples: n * self.rows.len(),
            },
            Metric { name: "peak_rss_mb", value: peak_rss_mib, unit: "MB", samples: 1 },
            Metric {
                name: "literals",
                value: self.per_pass(|p| p.literals),
                unit: "count",
                samples: n,
            },
        ]
    }

    /// The per-layer metrics of a traced run.
    pub fn per_layer(&self) -> Vec<Metric> {
        let n = self.traced.len();
        let t = |name, field: fn(&LayerSample) -> f64| Metric {
            name,
            value: self.per_traced(field),
            unit: "s",
            samples: n,
        };
        let c = |name, field: fn(&LayerSample) -> f64| Metric {
            name,
            value: self.per_traced(field),
            unit: "count",
            samples: n,
        };
        vec![
            t("csc.solve_s", |s| s.solve_s),
            c("csc.candidates", |s| s.candidates as f64),
            Metric {
                name: "csc.accept_ratio",
                value: self.per_traced(|s| ratio(s.inserted as f64, s.candidates as f64)),
                unit: "ratio",
                samples: n,
            },
            t("logic.analyze_s", |s| s.analyze_s),
            t("logic.reanalyze_s", |s| s.reanalyze_s),
            t("stg.reach_s", |s| s.reach_s),
            t("stg.load_s", |s| s.load_s),
            t("netlist.verify_s", |s| s.verify_s),
            t("netlist.emit_s", |s| s.emit_s),
            c("bdd.nodes.logic", |s| s.nodes_logic as f64),
            c("bdd.nodes.csc", |s| s.nodes_csc as f64),
            c("bdd.nodes.netlist", |s| s.nodes_netlist as f64),
            c("bdd.steps", |s| s.steps as f64),
            c("bdd.arena_nodes", |s| s.arena_nodes as f64),
            Metric {
                name: "bdd.cache_hit_ratio",
                value: self.per_traced(|s| {
                    ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64)
                }),
                unit: "ratio",
                samples: n,
            },
            Metric {
                name: "synthkit.unattributed_s",
                value: self.suite_s() - self.per_traced(LayerSample::flow_s),
                unit: "s",
                samples: n,
            },
            Metric {
                name: "synthkit.fallbacks",
                value: self.per_pass(|p| p.fallbacks),
                unit: "count",
                samples: self.passes(),
            },
            Metric {
                name: "state_signals",
                value: self.per_pass(|p| p.state_signals),
                unit: "count",
                samples: self.passes(),
            },
            Metric {
                name: "failed_share",
                value: self.failed_share(),
                unit: "ratio",
                samples: self.attempted,
            },
        ]
    }
}

/// One untraced pass in `order`.
fn untraced_pass(
    inputs: &[Input],
    order: &[usize],
    reference: &mut Reference,
    record: &mut Record,
) {
    let options = flow::options();
    let mut pass = Pass::default();
    let mut kernel = vec![reference.time()];
    let mut seconds = Vec::with_capacity(order.len());
    for &i in order {
        let input = &inputs[i];
        let flow = flow::timed(&input.text, &input.design.expect, &options);
        kernel.push(reference.time());
        seconds.push((i, flow.seconds));
        pass.seconds += flow.seconds;
        if let Some(report) = &flow.report {
            pass.fallbacks += usize::from(report.rung != FlowRung::Symbolic);
        }
        if let Ok(seen) = &flow.outcome {
            pass.literals += seen.literals;
            pass.state_signals += seen.state_signals;
        }
        record.tally(input.design.name, &flow.outcome);
        record.rows[i].last = Some(flow.outcome.map(|seen| (seen.literals, seen.state_signals)));
    }
    pass.slowdown = host::slowdown(&kernel);
    for (i, seconds) in seconds {
        record.rows[i].seconds.push(seconds / pass.slowdown);
    }
    record.passes.push(pass);
}

/// One traced pass in `order`; its layer times are divided by the pass's
/// host slowdown like an untraced pass's.
fn traced_pass(inputs: &[Input], order: &[usize], reference: &mut Reference, record: &mut Record) {
    let options = flow::options();
    let mut total = LayerSample::default();
    let mut kernel = vec![reference.time()];
    for &i in order {
        let input = &inputs[i];
        let outcome = flow::guarded(|| {
            let (sample, seen) = trace::traced_flow(&input.text, &options)?;
            flow::check(&seen, &input.design.expect)?;
            total.accumulate(&sample);
            Ok(seen)
        });
        kernel.push(reference.time());
        record.tally(input.design.name, &outcome);
    }
    total.divide_times(host::slowdown(&kernel));
    record.traced.push(total);
}

/// Runs passes until `seconds` are used up (always at least one).  A pass
/// is untraced, or with `trace` an untraced pass followed by a traced one
/// over the same order.  Another pass starts only while it is expected to
/// end before the deadline.  `setup` holds the durations of the set-ups
/// that made `inputs`; the set-up is repeated after every pass.
pub fn run(
    inputs: &[Input],
    reference: &mut Reference,
    setup: Vec<f64>,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Record, String> {
    let designs: Vec<Design> = inputs.iter().map(|input| input.design.clone()).collect();
    let mut rng = SplitMix64::new(seed);
    let mut record = Record::new(inputs.len(), setup);
    let start = Instant::now();
    let mut pass_walls = Vec::new();
    loop {
        let pass_start = Instant::now();
        let order = shuffled(inputs.len(), &mut rng);
        untraced_pass(inputs, &order, reference, &mut record);
        if trace {
            traced_pass(inputs, &order, reference, &mut record);
        }
        pass_walls.push(pass_start.elapsed().as_secs_f64());
        set_up(&designs, reference, &mut record.setup)?;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + median(&pass_walls) >= seconds {
            return Ok(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{designs, Verdict};

    /// The quick designs of a workload.
    fn quick(workload: &str, names: &[&str]) -> Vec<Input> {
        let designs: Vec<Design> =
            designs(workload).unwrap().into_iter().filter(|d| names.contains(&d.name)).collect();
        assert_eq!(designs.len(), names.len());
        prepare(&designs).unwrap()
    }

    const CONTROLLERS: [&str; 6] =
        ["pulser", "vme_read", "seq4", "pulser_bank2", "mixed_handshake", "arbiter"];

    #[test]
    fn pass_times_are_divided_by_their_host_slowdown() {
        let mut record = Record::new(1, vec![0.001]);
        for (seconds, slowdown) in [(2.0, 1.0), (3.0, 1.5), (4.4, 1.1), (9.0, 1.0)] {
            record.passes.push(Pass { seconds, slowdown, ..Pass::default() });
        }
        // Scaled: 2, 2, 4 and 9 s.
        assert_eq!(record.suite_s(), 3.0);
        assert_eq!(record.pass_seconds(), [2.0, 3.0, 4.4, 9.0]);
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(12, &mut SplitMix64::new(7));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert_eq!(a, shuffled(12, &mut SplitMix64::new(7)));
        assert_ne!(a, shuffled(12, &mut SplitMix64::new(8)));
    }

    #[test]
    fn a_clean_run_has_no_failures_and_every_metric() {
        let inputs = quick("controllers", &CONTROLLERS);
        let record = run(&inputs, &mut Reference::new(), Vec::new(), 1, 0.0, true).unwrap();
        assert_eq!(record.passes(), 1, "a zero-second run still makes one pass");
        assert!(record.failures.is_empty(), "{:?}", record.failures);
        assert_eq!(record.attempted, 2 * inputs.len());
        let e2e = record.end_to_end(100.0);
        assert!(e2e.iter().all(|m| m.value > 0.0), "{e2e:?}");
        let layers = record.per_layer();
        assert_eq!(layers.len(), 19);
        let value = |name| layers.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("failed_share"), 0.0);
        assert_eq!(value("synthkit.fallbacks"), 0.0);
        assert!(value("csc.candidates") > 0.0 && value("csc.accept_ratio") > 0.0);
    }

    #[test]
    fn a_flipped_verdict_is_counted_as_a_failure() {
        let mut inputs = quick("controllers", &CONTROLLERS);
        let arbiter = inputs.iter_mut().find(|i| i.design.name == "arbiter").unwrap();
        arbiter.design.expect.verdict = Verdict::Verified;
        let record = run(&inputs, &mut Reference::new(), Vec::new(), 3, 0.0, false).unwrap();
        assert_eq!(record.failures.len(), 1, "{:?}", record.failures);
        assert!(record.failures[0].starts_with("arbiter: verdict"), "{:?}", record.failures);
        assert!(record.failed_share() > 0.0);
        // The run kept going past the failure.
        assert_eq!(record.attempted, inputs.len());
        assert!(record.rows.iter().all(|row| row.seconds.len() == 1));
    }

    #[test]
    fn a_broken_design_does_not_stop_the_run() {
        let mut inputs = quick("controllers", &["pulser", "vme_read"]);
        inputs[0].text =
            ".model broken\n.inputs a\n.graph\na+ a-\na- a+\n.marking { }\n.end\n".into();
        let record = run(&inputs, &mut Reference::new(), Vec::new(), 0, 0.0, true).unwrap();
        assert_eq!(record.attempted, 4);
        assert_eq!(record.failures.len(), 2, "{:?}", record.failures);
        assert!(matches!(record.rows[1].last, Some(Ok(_))));
    }

    #[test]
    fn work_counters_repeat_across_runs_and_seeds() {
        let counters = |record: &Record| {
            let layers = record.per_layer();
            let keep = [
                "state_signals",
                "csc.candidates",
                "bdd.nodes.logic",
                "bdd.nodes.csc",
                "bdd.nodes.netlist",
                "bdd.steps",
            ];
            let mut out: Vec<(&str, f64)> = layers
                .iter()
                .filter(|m| keep.contains(&m.name))
                .map(|m| (m.name, m.value))
                .collect();
            out.push(("literals", record.per_pass(|p| p.literals)));
            out
        };
        for (workload, names) in [
            ("controllers", &CONTROLLERS[..]),
            ("wide_clean", &["par_hs16", "pipe2_16"][..]),
            ("wide_conflict", &["wide_conflict12", "pulser_bank5"][..]),
        ] {
            let inputs = quick(workload, names);
            let counted = |seed| {
                counters(&run(&inputs, &mut Reference::new(), Vec::new(), seed, 0.0, true).unwrap())
            };
            let first = counted(1);
            assert_eq!(first, counted(1), "{workload}: same seed");
            assert_eq!(first, counted(2), "{workload}: other seed");
            assert!(first.iter().any(|&(name, v)| name == "bdd.steps" && v > 0.0));
        }
    }
}
