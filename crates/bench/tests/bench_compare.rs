//! The `bench_compare` contract: a fresh artifact passes only when it
//! equals the baseline line for line outside the values of its
//! `wall_…` fields. Run against small rendered files of both formats
//! (named-field rows and `BENCH_slo.json`).

use gupster_bench::benchjson::{render, Row, WALL_PREFIX};
use gupster_netsim::SimTime;
use gupster_telemetry::slo::{
    evaluate_availability, render_slo_json, AttributionRow, SloOutcome, SloSpec,
};

/// One row of each field kind: counts, a simulated rate and ratio, and
/// wall-clock rates; `rename` swaps one count's name, `drop_count`
/// leaves it out.
fn rows_with(wall: f64, rename: bool, drop_count: bool) -> Vec<Row> {
    let examined = if rename { "naive_scanned" } else { "naive_examined" };
    let mut coverage = Row::new("coverage").count("components", 1_000);
    if !drop_count {
        coverage = coverage.count(examined, 500_000);
    }
    vec![
        coverage
            .count("indexed_examined", 500)
            .real("wall_naive_ops", wall)
            .real("wall_indexed_ops", 2.0 * wall),
        Row::new("policy")
            .count("rules", 64)
            .count("naive_rules_considered", 128_000)
            .count("indexed_rules_considered", 3_236)
            .real("wall_naive_ops", 3.0 * wall),
        Row::new("pipeline")
            .count("components", 10_000)
            .real("sim_ops", 38_461.5)
            .ratio("sim_imbalance", 1.02)
            .real("wall_ops", wall),
    ]
}

fn rows(wall: f64) -> Vec<Row> {
    rows_with(wall, false, false)
}

fn bench_file(mode: &str, rows: &[Row]) -> String {
    render("e16_registry_scale", mode, rows)
}

fn slo_file(attribution: &[AttributionRow]) -> String {
    let spec = SloSpec {
        name: "fault-availability".to_string(),
        stage: "resilience.request".to_string(),
        p99_budget: SimTime::micros(256),
        target: 0.99,
    };
    let outcomes: Vec<SloOutcome> =
        vec![evaluate_availability(spec, 4_093, 3, SimTime::micros(170), SimTime::micros(369_311))];
    render_slo_json("e18_observability", "quick", &outcomes, attribution)
}

fn attribution(shards: usize) -> Vec<AttributionRow> {
    (0..shards)
        .map(|shard| AttributionRow {
            shard,
            stage: "shard.request".to_string(),
            count: 493 + shard as u64,
            p99: SimTime::micros(170),
            share: 0.1221,
        })
        .collect()
}

/// Byte offsets inside a wall-clock value, i.e. the bytes the gate
/// ignores.
fn wall_bytes(text: &str) -> Vec<std::ops::Range<usize>> {
    let key = format!("\"{WALL_PREFIX}");
    text.match_indices(&key)
        .map(|(at, _)| {
            let start = at + text[at..].find("\": ").expect("a key") + 3;
            let len = text[start..].find([',', '}']).expect("value is terminated");
            start..start + len
        })
        .collect()
}

/// Every copy of `text` with one digit bumped, and whether that digit
/// sits in a wall-clock value.
fn digit_mutations(text: &str) -> Vec<(String, bool)> {
    let wall = wall_bytes(text);
    text.char_indices()
        .filter(|(_, c)| c.is_ascii_digit())
        .map(|(at, c)| {
            let bumped = char::from_digit((c.to_digit(10).unwrap() + 1) % 10, 10).unwrap();
            let mutated = format!("{}{bumped}{}", &text[..at], &text[at + 1..]);
            (mutated, wall.iter().any(|r| r.contains(&at)))
        })
        .collect()
}

fn exit_code(baseline: &str, fresh: &str, case: &str) -> i32 {
    let dir = std::env::temp_dir();
    let tag = format!("{}-{case}", std::process::id()).replace(|c: char| !c.is_alphanumeric(), "-");
    let b = dir.join(format!("bc-{tag}-base.json"));
    let f = dir.join(format!("bc-{tag}-fresh.json"));
    std::fs::write(&b, baseline).unwrap();
    std::fs::write(&f, fresh).unwrap();
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg(&b)
        .arg(&f)
        .output()
        .expect("bench_compare runs")
        .status;
    let _ = std::fs::remove_file(&b);
    let _ = std::fs::remove_file(&f);
    status.code().expect("exited normally")
}

#[test]
fn gate_passes_only_on_equality_outside_wall_clock_fields() {
    let bench = bench_file("quick", &rows(466.0));
    let slo = slo_file(&attribution(3));
    let drop_line = |text: &str, needle: &str| -> String {
        text.split_inclusive('\n').filter(|l| !l.contains(needle)).collect()
    };
    let mut added = rows(466.0);
    added.push(added[0].clone());
    let cut_mid_row = &bench[..bench.rfind("\"sim_imbalance\"").unwrap()];
    let mut table: Vec<(String, &str, String, i32)> = vec![
        ("bench identical".into(), &bench, bench.clone(), 0),
        ("slo identical".into(), &slo, slo.clone(), 0),
        ("bench wall-only".into(), &bench, bench_file("quick", &rows(12_345.6)), 0),
        ("bench renamed field".into(), &bench, bench_file("quick", &rows_with(466.0, true, false)), 1),
        ("bench missing field".into(), &bench, bench_file("quick", &rows_with(466.0, false, true)), 1),
        ("bench mode".into(), &bench, bench_file("full", &rows(466.0)), 1),
        ("bench dropped row".into(), &bench, drop_line(&bench, "\"policy\""), 1),
        ("bench added row".into(), &bench, bench_file("quick", &added), 1),
        ("bench truncated".into(), &bench, cut_mid_row.to_string(), 1),
        ("slo mode".into(), &slo, slo.replace("\"quick\"", "\"full\""), 1),
        ("slo dropped row".into(), &slo, drop_line(&slo, "\"shard\": 1,"), 1),
        ("slo added row".into(), &slo, slo_file(&attribution(4)), 1),
        ("slo truncated".into(), &slo, slo.trim_end_matches('\n').to_string(), 1),
    ];
    // Every digit of both files, counts, `sim_` values, `"share"` and
    // `"count"` included: a bump fails unless it is wall-clock.
    for (base, format) in [(&bench, "bench"), (&slo, "slo")] {
        for (i, (mutated, in_wall)) in digit_mutations(base).into_iter().enumerate() {
            table.push((format!("{format} digit {i}"), base, mutated, if in_wall { 0 } else { 1 }));
        }
    }
    for (case, base, fresh, expect) in &table {
        assert_eq!(exit_code(base, fresh, case), *expect, "{case}:\n{fresh}");
    }
}
