//! Summary statistics, the peak-memory probe and the result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive `values`; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// The aligned metric table printed before the result line.
pub fn render_table(metrics: &[Metric]) -> String {
    let mut out = format!("{:<26} {:>16} {:<6} {:>8}\n", "metric", "value", "unit", "samples");
    for m in metrics {
        let _ = writeln!(out, "{:<26} {:>16.6} {:<6} {:>8}", m.name, m.value, m.unit, m.samples);
    }
    out
}

/// The single-line JSON result: `correct`, `attempted`, `failed` and every
/// metric with its value (printed with all its digits) and unit.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
        // One slow outlier does not move the median.
        assert_eq!(median(&[1.0, 1.0, 100.0]), 1.0);
    }

    #[test]
    fn geomean_weighs_every_design_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        // Doubling one small design moves the geomean as much as doubling
        // one large design.
        let base = geomean(&[0.001, 1.0]);
        assert!((geomean(&[0.002, 1.0]) - geomean(&[0.001, 2.0])).abs() < 1e-12);
        assert!(geomean(&[0.002, 1.0]) > base);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\tflowbench\nVmPeak:\t  220000 kB\nVmHWM:\t  115712 kB\nVmRSS:\t   90000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(113.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t garbage kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 1024 MB\n"), None);
        let live = peak_rss_mib().expect("Linux exposes VmHWM");
        assert!(live > 0.0);
    }

    #[test]
    fn result_line_carries_every_metric_with_all_digits() {
        let metrics = [
            Metric { name: "suite_s", value: 1.234_567_891_234, unit: "s", samples: 5 },
            Metric { name: "literals", value: 425.0, unit: "count", samples: 5 },
        ];
        let line = result_line(true, 60, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 60, \"failed\": 0, \"metrics\": {\
             \"suite_s\": {\"value\": 1.234567891234, \"unit\": \"s\"}, \
             \"literals\": {\"value\": 425.0, \"unit\": \"count\"}}}"
        );
        let table = render_table(&metrics);
        assert!(table.contains("suite_s") && table.contains("count"));
    }
}
