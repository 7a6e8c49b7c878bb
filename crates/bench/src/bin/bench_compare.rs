//! The CI determinism gate for the checked-in `BENCH_*.json` baselines:
//! a fresh quick-mode run must reproduce its baseline line for line.
//!
//! ```text
//! GUPSTER_BENCH_OUT=/tmp/fresh.json \
//!     cargo run --release -p gupster-bench --bin experiments -- --quick e16
//! cargo run --release -p gupster-bench --bin bench_compare -- \
//!     BENCH_registry.json /tmp/fresh.json
//! ```
//!
//! Every value an experiment writes is a count, a seeded simulated
//! value, or a wall-clock measurement, and the field's name says which
//! (see `gupster_bench::benchjson`): wall-clock fields are named
//! `wall_…`. The gate masks the value of every such field and then
//! compares the files byte for byte: a row present on one side only, a
//! changed `"mode"`, a missing or renamed field, a truncated line or
//! any other differing byte fails (exit 1). The same rule covers
//! `BENCH_slo.json`, which has no wall-clock fields. Absolute floors —
//! count ratios, p99 budgets, SLO verdicts — are asserted inside the
//! experiments themselves, so a run that breaks one exits non-zero
//! before this gate runs; relative floors follow from equality.

use gupster_bench::benchjson::WALL_PREFIX;

/// `line` with the value of every `"wall_…"` field cut out, up to the
/// next `,` or `}`.
fn mask_wall(line: &str) -> String {
    let key = format!("\"{WALL_PREFIX}");
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(end_of_key) =
        rest.find(&key).and_then(|at| rest[at..].find("\":").map(|colon| at + colon + 2))
    {
        out.push_str(&rest[..end_of_key]);
        rest = &rest[end_of_key..];
        rest = &rest[rest.find([',', '}']).unwrap_or(rest.len())..];
    }
    out.push_str(rest);
    out
}

/// A differing line: its 1-based number and both sides' masked text,
/// `None` past a file's end.
type Difference = (usize, Option<String>, Option<String>);

/// The first line at which the two files differ once the wall-clock
/// values are masked; `None` when they are equal. Lines are split on
/// `\n` alone, so a lost trailing newline is a difference too.
fn first_difference(baseline: &str, fresh: &str) -> Option<Difference> {
    let b: Vec<&str> = baseline.split('\n').collect();
    let f: Vec<&str> = fresh.split('\n').collect();
    (0..b.len().max(f.len())).find_map(|i| {
        let (bl, fl) = (b.get(i).map(|l| mask_wall(l)), f.get(i).map(|l| mask_wall(l)));
        (bl != fl).then_some((i + 1, bl, fl))
    })
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_compare: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json>");
        std::process::exit(2);
    };
    match first_difference(&read(baseline_path), &read(fresh_path)) {
        None => println!("bench_compare: {fresh_path} reproduces {baseline_path}"),
        Some((line, b, f)) => {
            eprintln!("bench_compare: {fresh_path} differs from {baseline_path} at line {line}");
            let show = |l: Option<String>| l.unwrap_or_else(|| "<end of file>".into());
            eprintln!("  baseline: {}", show(b));
            eprintln!("  fresh:    {}", show(f));
            std::process::exit(1);
        }
    }
}
