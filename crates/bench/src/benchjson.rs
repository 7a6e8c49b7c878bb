//! The machine-readable benchmark artifact (`BENCH_registry.json` and
//! the other row-shaped `BENCH_*.json` files).
//!
//! E16 writes one comparison row per line; the `bench_compare` binary
//! checks that a fresh run reproduces the checked-in file line for
//! line. Every column except `naive_wall_ops` / `indexed_wall_ops` is
//! derived from the deterministic stage cost model (µs per
//! entry/candidate examined), so it is byte-identical across machines;
//! the gate ignores the two wall-clock columns.

use std::fmt::Write as _;

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
/// `BENCH_shards.json` through this); all artifacts share one row
/// format.
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
