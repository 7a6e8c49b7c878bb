//! The machine-readable benchmark artifact (`BENCH_registry.json`).
//!
//! E16 writes one comparison row per line; the `bench_compare` binary
//! reads two such files (a checked-in baseline and a fresh run) and
//! fails the build when the *simulated* referral-path throughput
//! regresses. The format is deliberately line-oriented JSON — the
//! workspace is dependency-free, so both sides use the hand-rolled
//! writer here and [`gupster_telemetry::scan`] instead of a serde stack.
//!
//! Only the `*_sim_ops` columns participate in the CI gate: simulated
//! ops/sec is derived from the deterministic stage cost model (µs per
//! entry/candidate examined), so it is byte-identical across machines.
//! Wall-clock columns are informative only.

use std::fmt::Write as _;

use gupster_telemetry::scan::{scan_f64, scan_str};

/// One benchmark comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// What was measured: `coverage`, `policy` or `pipeline`.
    pub kind: String,
    /// The sweep position: registered components (coverage/pipeline) or
    /// provisioned rules (policy).
    pub scale: u64,
    /// Simulated ops/sec of the naive scan (0 when not measured).
    pub naive_sim_ops: f64,
    /// Simulated ops/sec of the indexed fast path.
    pub indexed_sim_ops: f64,
    /// Wall-clock ops/sec of the naive scan (0 when not measured).
    pub naive_wall_ops: f64,
    /// Wall-clock ops/sec of the indexed fast path.
    pub indexed_wall_ops: f64,
    /// Mean entries the indexed path actually examined per op.
    pub mean_candidates: f64,
}

/// Serializes rows as line-oriented JSON (one row object per line)
/// under the historical `e16_registry_scale` experiment name.
pub fn render(mode: &str, rows: &[BenchRow]) -> String {
    render_named("e16_registry_scale", mode, rows)
}

/// Serializes rows for an arbitrary experiment (`e17_shards` writes
/// `BENCH_shards.json` through this). The parser ignores the
/// experiment line, so all artifacts share one row format.
pub fn render_named(experiment: &str, mode: &str, rows: &[BenchRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"experiment\": \"{experiment}\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"kind\": \"{}\", \"scale\": {}, \"naive_sim_ops\": {:.1}, \
             \"indexed_sim_ops\": {:.1}, \"naive_wall_ops\": {:.1}, \
             \"indexed_wall_ops\": {:.1}, \"mean_candidates\": {:.2}}}{comma}",
            r.kind,
            r.scale,
            r.naive_sim_ops,
            r.indexed_sim_ops,
            r.naive_wall_ops,
            r.indexed_wall_ops,
            r.mean_candidates,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Parses the rows back out of [`render`]'s output. Lines without a
/// `"kind"` field are structural and skipped; a malformed row line is
/// an error (a truncated artifact must fail the gate loudly).
pub fn parse(text: &str) -> Result<Vec<BenchRow>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        if !line.contains("\"kind\"") {
            continue;
        }
        rows.push(BenchRow {
            kind: scan_str(line, "kind")?,
            scale: scan_f64(line, "scale")? as u64,
            naive_sim_ops: scan_f64(line, "naive_sim_ops")?,
            indexed_sim_ops: scan_f64(line, "indexed_sim_ops")?,
            naive_wall_ops: scan_f64(line, "naive_wall_ops").unwrap_or(0.0),
            indexed_wall_ops: scan_f64(line, "indexed_wall_ops").unwrap_or(0.0),
            mean_candidates: scan_f64(line, "mean_candidates").unwrap_or(0.0),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kind: &str, scale: u64) -> BenchRow {
        BenchRow {
            kind: kind.to_string(),
            scale,
            naive_sim_ops: 999.9,
            indexed_sim_ops: 333333.3,
            naive_wall_ops: 1_234_567.8,
            indexed_wall_ops: 9_876_543.2,
            mean_candidates: 2.01,
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let rows = vec![row("coverage", 1000), row("policy", 64), row("pipeline", 100_000)];
        let text = render("full", &rows);
        assert!(text.contains("\"mode\": \"full\""));
        let back = parse(&text).unwrap();
        assert_eq!(back, rows);
    }

    /// Every line-JSON reader in the workspace, fed damaged rows: each
    /// must refuse with an `Err` naming the offending key — never
    /// panic, never read a damaged row as a smaller valid one.
    #[test]
    fn damaged_rows_are_errors_in_every_reader() {
        use gupster_telemetry::slo::parse_slo_json;
        use gupster_telemetry::ObsSnapshot;

        let bench = |t: &str| parse(t).map(drop);
        let slo = |t: &str| parse_slo_json(t).map(drop);
        let obs = |t: &str| ObsSnapshot::parse_json(t).map(drop);
        type Reader<'a> = &'a dyn Fn(&str) -> Result<(), String>;
        let table: [(&str, Reader, &str, &str); 12] = [
            // truncated mid-string, mid-number's key, and mid-row
            ("bench", &bench, r#"{"kind": "cover"#, "kind"),
            ("bench", &bench, r#"{"kind": "coverage", "scale": 5, "naive_sim_"#, "naive_sim_ops"),
            ("slo", &slo, r#"{"name": "p99", "stage": "shard.req"#, "stage"),
            ("slo", &slo, r#"{"shard": 0, "stage": "x", "count": 3, "p99_us": 7, "share""#, "share"),
            ("obs", &obs, r#"{"row": "fleet", "requests": 10, "busy_"#, "busy_us"),
            ("obs", &obs, r#"{"row": "hot_user", "name": "u7"#, "name"),
            // a required key missing
            ("bench", &bench, r#"{"kind": "coverage", "scale": 5, "naive_sim_ops": 1.0}"#, "indexed_sim_ops"),
            ("slo", &slo, r#"{"name": "p99", "stage": "s", "budget_us": 9, "burn_rate": 1.0}"#, "target"),
            ("obs", &obs, r#"{"row": "layout", "makespan_us": 4}"#, "shards"),
            // a number that is not one
            ("bench", &bench, r#"{"kind": "coverage", "scale": many}"#, "scale"),
            ("slo", &slo, r#"{"shard": 0, "stage": "x", "count": -3, "p99_us": 7, "share": 0.5}"#, "count"),
            ("obs", &obs, r#"{"row": "fleet", "requests": 1e3, "busy_us": 5}"#, "requests"),
        ];
        for (reader, read, text, key) in table {
            let err = read(text).expect_err(text);
            assert!(err.contains(key), "{reader} on {text}: {err}");
        }
    }

    #[test]
    fn parse_rejects_truncated_rows() {
        let err = parse("{\"kind\": \"coverage\", \"scale\": 5}").unwrap_err();
        assert!(err.contains("naive_sim_ops"), "{err}");
        assert!(parse("no rows at all\n{ }\n").unwrap().is_empty());
    }
}
