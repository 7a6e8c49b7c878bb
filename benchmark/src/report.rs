//! What a run reports: named metrics with units, the human-readable
//! table, and the one-line JSON result the driver reads.

use crate::ops::Gate;
use crate::stats::Sliced;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Where the value came from: slice distribution, sample counts.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Metric { name, value, unit, note: note.into() }
    }

    /// A quiet-quartile metric with its slice distribution beside it.
    pub fn sliced(name: &'static str, s: &Sliced, unit: &'static str, samples: usize) -> Self {
        Metric::new(
            name,
            s.value,
            unit,
            format!(
                "slices min/median/max {:.2}/{:.2}/{:.2} over {} slices, {samples} samples, in order {:.0?}",
                s.min, s.median, s.max, s.slices, s.series
            ),
        )
    }
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub gate: Gate,
    pub metrics: Vec<Metric>,
    /// FNV-1a over every answer of the fixed verify phase.
    pub checksum: u64,
    /// Extra human-readable lines (predicted pairings, span file).
    pub remarks: Vec<String>,
}

impl Outcome {
    pub fn print_human(&self) {
        let kind = if self.traced { "per-layer (traced run)" } else { "end-to-end" };
        println!("== {} — {kind} ==", self.workload);
        for m in &self.metrics {
            let note = if m.note.is_empty() { String::new() } else { format!("  [{}]", m.note) };
            println!("  {:<38} {:>16.4} {:<6}{note}", m.name, m.value, m.unit);
        }
        let g = &self.gate;
        println!(
            "  fail_rate {} ({} failed of {} attempted)   checksum {:016x}",
            g.failed as f64 / g.attempted.max(1) as f64,
            g.failed,
            g.attempted,
            self.checksum
        );
        for r in &self.remarks {
            println!("  {r}");
        }
        for p in &g.problems {
            println!("  PROBLEM: {p}");
        }
    }

    /// The driver's contract: one JSON object, last line of stdout.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_number(m.value), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.correct(),
            self.gate.attempted.max(1),
            self.gate.failed,
            metrics.join(", ")
        )
    }
}

/// A float as a JSON number with all its digits (Rust's `Display` is
/// the shortest text that parses back to the same value and never uses
/// an exponent); non-finite values have no JSON form and become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut gate = Gate::default();
        gate.op(true, String::new);
        let out = Outcome {
            workload: "w",
            traced: false,
            gate,
            metrics: vec![Metric::new("p50_us", 12.5, "us", ""), Metric::new("setup_s", 0.25, "s", "")],
            checksum: 7,
            remarks: vec![],
        };
        assert_eq!(
            out.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1e21), "1000000000000000000000");
    }
}
