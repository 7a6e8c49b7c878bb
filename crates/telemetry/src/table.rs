//! Human-readable per-stage latency tables.

use gupster_netsim::SimTime;

use crate::hub::TelemetryHub;

/// Formats a duration compactly: microseconds under 1 ms, otherwise
/// milliseconds with two decimals.
pub(crate) fn fmt_time(t: SimTime) -> String {
    if t.0 < 1_000 {
        format!("{}us", t.0)
    } else {
        format!("{:.2}ms", t.0 as f64 / 1_000.0)
    }
}

/// Renders the hub's per-stage latency statistics as an aligned table
/// (same visual shape as the experiment tables in `gupster-bench`).
pub(crate) fn render_stage_table(hub: &TelemetryHub, title: &str) -> String {
    let headers = ["stage", "count", "p50", "p95", "p99", "mean", "max"];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for stage in hub.stages() {
        if let Some(s) = hub.stage_stats(&stage) {
            rows.push(vec![
                stage,
                s.count.to_string(),
                fmt_time(s.p50),
                fmt_time(s.p95),
                fmt_time(s.p99),
                fmt_time(s.mean),
                fmt_time(s.max),
            ]);
        }
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect();
        format!("  {}\n", parts.join("  ").trim_end())
    };
    let mut out = format!("\n== {title} ==\n");
    out.push_str(&line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>()));
    out.push_str(&line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>()));
    for row in &rows {
        out.push_str(&line(row));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(SimTime::ZERO), "0us");
        assert_eq!(fmt_time(SimTime::micros(999)), "999us");
        assert_eq!(fmt_time(SimTime::micros(1_500)), "1.50ms");
        assert_eq!(fmt_time(SimTime::millis(42)), "42.00ms");
    }

    #[test]
    fn table_lists_every_stage() {
        let hub = Arc::new(TelemetryHub::new());
        {
            let mut t = hub.tracer("registry.lookup");
            t.span("policy.decide", SimTime::micros(5));
            t.span("token.sign", SimTime::micros(20));
        }
        let table = hub.render_stage_table("stage latency");
        assert!(table.contains("== stage latency =="));
        for stage in ["registry.lookup", "policy.decide", "token.sign"] {
            assert!(table.contains(stage), "missing {stage} in:\n{table}");
        }
        assert!(table.contains("p99"));
        // Aligned: every data line has the same column count.
        let lines: Vec<&str> = table.lines().filter(|l| l.starts_with("  ")).collect();
        assert!(lines.len() >= 5);
    }
}
