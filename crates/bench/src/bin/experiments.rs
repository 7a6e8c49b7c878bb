//! The experiment runner: regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p gupster-bench --bin experiments -- all
//! cargo run --release -p gupster-bench --bin experiments -- e5 e10
//! cargo run --release -p gupster-bench --bin experiments -- --trace-out traces.jsonl e2 e5
//! cargo run --release -p gupster-bench --bin experiments -- --quick e16 e22
//! cargo run --release -p gupster-bench --bin experiments -- dashboard OBS_snapshot.json
//! ```
//!
//! `--trace-out <path>` additionally writes every span recorded by the
//! instrumented experiments (e2, e5, e14, e15) to `path` as JSON lines;
//! the printed tables are unchanged.
//!
//! `--quick` runs the scale experiments (e16–e22) on their reduced
//! sweeps, the ones the checked-in `BENCH_*.json` files record; CI's
//! `bench_compare` gate runs them this way.
//!
//! `dashboard <snapshot.json>` re-renders an `OBS_snapshot.json`
//! written by E18 as the text dashboard, without re-running anything.

use gupster_bench::experiments;
use gupster_telemetry::ObsSnapshot;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--quick] [--trace-out <path>] <e1..e22 | all>...\n\
         \x20      experiments dashboard <snapshot.json>"
    );
    std::process::exit(2);
}

fn render_dashboard(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("dashboard: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let snap = ObsSnapshot::parse_json(&text).unwrap_or_else(|e| {
        eprintln!("dashboard: cannot parse {path}: {e}");
        std::process::exit(2);
    });
    print!("{}", snap.render_dashboard());
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("dashboard") {
        let Some(path) = raw.get(1) else {
            eprintln!("dashboard needs a snapshot file argument");
            usage();
        };
        render_dashboard(path);
        return;
    }
    let mut picks: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == "--trace-out" {
            let Some(path) = raw.get(i + 1) else {
                eprintln!("--trace-out needs a file argument");
                usage();
            };
            experiments::set_trace_out(path.into());
            i += 2;
        } else if raw[i] == "--quick" {
            experiments::set_quick();
            i += 1;
        } else {
            picks.push(raw[i].clone());
            i += 1;
        }
    }
    if picks.is_empty() {
        usage();
    }
    for a in &picks {
        if !experiments::run(a) {
            eprintln!("unknown experiment '{a}' (expected e1..e22 or all)");
            std::process::exit(2);
        }
    }
}
