//! A run's result: named metrics with units, printed for people and as one
//! JSON line for machines.

use std::fmt::Write as _;

/// One reported metric. `value` is `None` when the metric does not apply to
/// the workload (a read percentile on a write-only run, a fraction with a
/// zero denominator); it is printed as `n/a` and written as JSON `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `events_per_s` or `group.self_s`.
    pub name: &'static str,
    /// Unit, e.g. `1/s`, `ms`, `count`.
    pub unit: &'static str,
    /// `host` or `virtual` for end-to-end metrics, empty for layer metrics.
    pub clock: &'static str,
    /// The measured value.
    pub value: Option<f64>,
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Whether every correctness check of the run passed.
    pub correct: bool,
    /// Client requests issued across every repetition.
    pub attempted: u64,
    /// Requests that failed (give-ups and local sheds).
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Free-form context lines (digests, sample counts, layer shares).
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        clock: &'static str,
        value: Option<f64>,
    ) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push(Metric {
            name,
            unit,
            clock,
            value: value.filter(|v| v.is_finite()),
        });
    }

    /// Appends a count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.push(name, "count", "", Some(value as f64));
    }

    /// The metric called `name`, if reported.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The value of the metric called `name`, if reported and applicable.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(|m| m.value)
    }

    /// The human-readable report followed by the JSON result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for m in &self.metrics {
            let value = m
                .value
                .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.6}"));
            let _ = writeln!(
                out,
                "{:<36} {:>20} {:<12} {}",
                m.name, value, m.unit, m.clock
            );
        }
        out.push_str(&self.json_line());
        out.push('\n');
        out
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {name:
    /// {"value": .., "unit": ..}, ..}}` with full-precision values.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = m
                .value
                .map_or_else(|| "null".to_owned(), |v| format!("{v:?}"));
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_keeps_full_precision_and_writes_null_for_not_applicable() {
        let mut r = Report {
            correct: true,
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.push("events_per_s", "1/s", "host", Some(1_234.567_890_123));
        r.push("read_p50_ms", "ms", "virtual", None);
        r.push("nan_is_not_a_value", "fraction", "", Some(f64::NAN));
        r.count("sim.events", 42);
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"events_per_s\": {\"value\": 1234.567890123, \"unit\": \"1/s\"}, \
             \"read_p50_ms\": {\"value\": null, \"unit\": \"ms\"}, \
             \"nan_is_not_a_value\": {\"value\": null, \"unit\": \"fraction\"}, \
             \"sim.events\": {\"value\": 42.0, \"unit\": \"count\"}}}"
        );
        let text = r.render();
        assert!(text.contains("n/a"));
        assert!(text.ends_with(&format!("{}\n", r.json_line())));
    }
}
