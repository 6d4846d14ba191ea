//! Metric collection, order statistics and the one-line JSON result.

use qdp_telemetry::json;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`: the operation counts, the failed
/// checks, the metrics of the selected mode and free-form detail lines.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness check (empty = every check passed).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub details: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, line: impl Into<String>) {
        self.details.push(line.into());
    }

    /// Record a failed check; `op_failed` also counts a failed operation.
    pub fn fail(&mut self, msg: impl Into<String>, op_failed: bool) {
        self.failures.push(msg.into());
        if op_failed {
            self.failed += 1;
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(&m.name),
                    json::number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms")];

/// Report [`END_TO_END`]: the set-up time, this process's peak RSS, and
/// the operations' median wall time (see [`mix_median`]).
pub fn end_to_end(out: &mut Outcome, setup_s: f64, op_ms: &[&[f64]]) -> Result<(), String> {
    let values = [setup_s, peak_rss_mb()?, mix_median(op_ms)];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        out.metric(*name, v, unit);
    }
    Ok(())
}

/// Percentile `p` (0..=100) of `xs` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Median wall time of a mix of operation kinds: each kind's median,
/// weighted by its share of the operations. For one kind it is the plain
/// median. A mix whose kinds take very different times has a plain median
/// at the edge between two of them, where it jumps with the order of a few
/// operations; each kind's own median does not.
pub fn mix_median(kinds: &[&[f64]]) -> f64 {
    let n: usize = kinds.iter().map(|k| k.len()).sum();
    if n == 0 {
        return 0.0;
    }
    kinds
        .iter()
        .map(|k| k.len() as f64 * median(k))
        .sum::<f64>()
        / n as f64
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, or `None` when the sample is too small for any.
pub fn highest_supported_percentile(n: usize) -> Option<usize> {
    [99, 95, 90, 75, 50]
        .into_iter()
        .find(|p| n * (100 - p) >= 10 * 100)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn mix_median_weights_each_kind_by_its_share() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(mix_median(&[&xs]), median(&xs));
        assert_eq!(mix_median(&[&[1.0, 1.0, 1.0], &[10.0]]), 3.25);
        assert_eq!(mix_median(&[&[], &[5.0]]), 5.0);
        assert_eq!(mix_median(&[]), 0.0);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(15), None);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("op_p50_ms", 1.25, "ms");
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.fail("bad", true);
        assert!(o
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }
}
