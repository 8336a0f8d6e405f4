//! Statistics helpers and the one-line JSON result the benchmark prints.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations measured (requests, frame batches, replays).
    pub attempted: u64,
    /// Operations that errored, came back `Unknown` or disagreed with
    /// their reference.
    pub failed: u64,
    /// Set-up consistency failures (a reference that could not be
    /// reproduced); any makes the run incorrect.
    pub setup_errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// First few failure messages, for the human-readable summary.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(message);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.setup_errors.is_empty()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.name,
                metric.value,
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports, from the per-operation
/// latencies (seconds) of its measured loop.
pub fn end_to_end(out: &mut Outcome, setup_s: f64, latencies: &[f64], items: u64) {
    let busy: f64 = latencies.iter().sum();
    out.push("setup_s", setup_s, "s");
    out.push("request_p50_ms", quantile(latencies, 0.5) * 1e3, "ms");
    out.push("request_p90_ms", quantile(latencies, 0.9) * 1e3, "ms");
    out.push("requests_per_s", share(latencies.len() as f64, busy), "1/s");
    out.push("items_per_s", share(items as f64, busy), "1/s");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((median(&v) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn json_has_the_contract_keys() {
        let mut out = Outcome::default();
        out.check(Ok(()));
        out.push("setup_s", 0.5, "s");
        let json = out.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
