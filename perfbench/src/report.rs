//! Metric collection, order statistics, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Named metrics with units, in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.values.iter()
    }
}

/// What one run of a workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each; empty means correct.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
    /// A value that is not finite cannot be written as JSON; it is written
    /// as 0 and the run is marked incorrect.
    pub fn result_line(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, (v, _))| !v.is_finite())
            .map(|(k, _)| k.clone())
            .collect();
        for name in bad {
            self.problems.push(format!("metric {name} is not finite"));
            if let Some(entry) = self.metrics.values.get_mut(&name) {
                entry.0 = 0.0;
            }
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank quantile of an ascending slice; 0 if empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile with the sample count behind it, for the report lines.
pub fn describe_percentiles(label: &str, sorted: &[f64], scale: f64, unit: &str) -> String {
    let n = sorted.len();
    format!(
        "{label}: p50 {:.4} {unit}, p99 {:.4} {unit} (n={n}, {} samples above p99)",
        quantile(sorted, 0.50) * scale,
        quantile(sorted, 0.99) * scale,
        n - ((0.99 * n as f64).ceil() as usize).min(n)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
    }

    #[test]
    fn result_line_has_the_four_keys_and_rejects_nan() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.set("wall_s", 1.25, "s");
        o.metrics.set("p99_ms", f64::NAN, "ms");
        let line = o.result_line();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"p99_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
    }
}
