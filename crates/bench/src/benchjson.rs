//! The machine-readable benchmark artifacts (`BENCH_registry.json` and
//! the other row-shaped `BENCH_*.json` files).
//!
//! An experiment writes one [`Row`] per line: a `kind`, then the
//! experiment's own named fields in the order it added them. The name
//! says what a value is:
//!
//! * a plain name (`naive_examined`, `delta_bytes`, `items`) is a count
//!   of work done or a sweep position — deterministic;
//! * a `sim_` name is read off a simulated model (netsim latencies, the
//!   admission queues and their service table) — deterministic;
//! * a [`WALL_PREFIX`] name is measured on the wall clock and differs
//!   from run to run.
//!
//! The `bench_compare` gate masks the wall-clock values and requires
//! everything else to reproduce byte for byte.

use std::fmt::Write as _;

/// Names of wall-clock fields start with this; `bench_compare` ignores
/// their values.
pub const WALL_PREFIX: &str = "wall_";

/// One benchmark row: its kind and its named values.
#[derive(Debug, Clone)]
pub struct Row {
    /// What the row measured (`coverage`, `merge_all`, `sync`, …).
    pub kind: &'static str,
    fields: Vec<(&'static str, String)>,
}

impl Row {
    /// An empty row of `kind`.
    pub fn new(kind: &'static str) -> Self {
        Row { kind, fields: Vec::new() }
    }

    /// Adds an integer field.
    pub fn count(mut self, name: &'static str, value: u64) -> Self {
        self.fields.push((name, value.to_string()));
        self
    }

    /// Adds a real-valued field, printed with one decimal (rates).
    pub fn real(mut self, name: &'static str, value: f64) -> Self {
        self.fields.push((name, format!("{value:.1}")));
        self
    }

    /// Adds a real-valued field, printed with two decimals (ratios).
    pub fn ratio(mut self, name: &'static str, value: f64) -> Self {
        self.fields.push((name, format!("{value:.2}")));
        self
    }
}

/// Serializes `rows` as line-oriented JSON, one row object per line.
pub fn render(experiment: &str, mode: &str, rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"experiment\": \"{experiment}\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(s, "    {{\"kind\": \"{}\"", r.kind);
        for (name, value) in &r.fields {
            let _ = write!(s, ", \"{name}\": {value}");
        }
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(s, "}}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Writes `rows` to `$GUPSTER_BENCH_OUT`, or to `default_path` when it
/// is unset, in the current sweep mode; reports the outcome on the
/// console.
pub fn write(experiment: &str, default_path: &str, rows: &[Row]) {
    let out = std::env::var("GUPSTER_BENCH_OUT").unwrap_or_else(|_| default_path.into());
    match std::fs::write(&out, render(experiment, crate::experiments::mode(), rows)) {
        Ok(()) => println!("\n  wrote {} rows to {out}", rows.len()),
        Err(e) => eprintln!("  cannot write {out}: {e}"),
    }
}
