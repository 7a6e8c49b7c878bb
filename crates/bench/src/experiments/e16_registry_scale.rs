//! E16 — registry at scale: the indexed lookup fast path (DESIGN.md §7)
//! against the retained naive scans.
//!
//! Three sweeps over one mega-user whose address book splits into N
//! per-item components (the worst case §4.5 allows — every item its own
//! data-store registration):
//!
//! 1. **coverage** — point lookups through the path trie vs. the naive
//!    entry scan, 1k→100k components (plus an indexed-only 1M row);
//!    outputs are asserted byte-identical.
//! 2. **policy** — `Pdp::decide` over the bucketed rule index vs. the
//!    full rule scan as the rule count grows.
//! 3. **pipeline** — full `Gupster::lookup` referrals at scale, with
//!    the `index.*` counters from the telemetry hub and the measured
//!    wall rate.
//!
//! Every row lands in `BENCH_registry.json` (see [`crate::benchjson`]);
//! CI re-runs the reduced sweep (`experiments --quick e16`) and
//! `bench_compare` fails the build unless it reproduces the checked-in
//! quick-mode file exactly. The coverage and policy rows carry the work
//! each path did — entries or rules examined — and the pipeline row the
//! trie and memo hits, all machine-independent. The gate ignores the
//! `wall_` fields.

use std::time::Instant;

use gupster_core::{CoverageMap, Gupster};
use gupster_policy::{Condition, Effect, Pdp, PolicyRepository, Purpose, RequestContext, Rule, WeekTime};
use gupster_rng::Rng;
use gupster_schema::gup_schema;
use gupster_store::StoreId;
use gupster_xpath::{Path, PathCache};

use crate::benchjson::{self, Row};
use crate::table::{f2, print_table};
use crate::workload::{rng, Zipf};

const TRIALS: usize = 500;

fn item_path(i: usize) -> String {
    format!("/user[@id='scale']/address-book/item[@id='{i}']")
}

fn build_coverage(n: usize) -> CoverageMap {
    let mut cov = CoverageMap::new();
    for i in 0..n {
        cov.register(
            Path::parse(&item_path(i)).expect("static"),
            StoreId::new(format!("store-{}", i % 16)),
        );
    }
    cov
}

/// Zipf-sampled point requests, parsed through the client's
/// [`PathCache`] so repeated textual queries skip the parser.
fn sample_requests(n: usize, trials: usize, seed: u64, cache: &mut PathCache) -> Vec<Path> {
    let zipf = Zipf::new(n, 0.99);
    let mut r = rng(seed);
    (0..trials)
        .map(|_| cache.parse(&item_path(zipf.sample(&mut r))).expect("static"))
        .collect()
}

fn ops(count: usize, dt: std::time::Duration) -> f64 {
    count as f64 / dt.as_secs_f64()
}

/// Coverage sweep: trie-indexed match vs. naive scan. The naive scan
/// examines every registered entry per request; the trie only its
/// candidates.
fn coverage_sweep(quick: bool, rows_out: &mut Vec<Row>) {
    let sizes: &[usize] = if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000] };
    let mut table = Vec::new();
    for &n in sizes {
        let cov = build_coverage(n);
        let mut cache = PathCache::new(1024);
        let reqs = sample_requests(n, TRIALS, 16, &mut cache);

        let t0 = Instant::now();
        let naive: Vec<_> = reqs.iter().map(|q| cov.match_request_naive(q)).collect();
        let naive_dt = t0.elapsed();

        let mut candidates_total = 0u64;
        let t1 = Instant::now();
        let indexed: Vec<_> = reqs
            .iter()
            .map(|q| {
                let (m, s) = cov.match_request_with_stats(q);
                assert!(s.used_index, "point lookups must ride the trie");
                candidates_total += s.candidates as u64;
                m
            })
            .collect();
        let indexed_dt = t1.elapsed();
        assert_eq!(naive, indexed, "indexed coverage match diverged at n={n}");

        let naive_examined = (n * TRIALS) as u64;
        let examined_ratio = naive_examined as f64 / candidates_total.max(1) as f64;
        if n >= 10_000 {
            assert!(
                examined_ratio >= 10.0,
                "acceptance: ≥10× fewer entries examined at n={n}, got {examined_ratio:.1}×"
            );
        }
        let (naive_ops, indexed_ops) = (ops(TRIALS, naive_dt), ops(TRIALS, indexed_dt));
        table.push(vec![
            n.to_string(),
            n.to_string(),
            f2(candidates_total as f64 / TRIALS as f64),
            format!("{examined_ratio:.0}x"),
            format!("{naive_ops:.0}"),
            format!("{indexed_ops:.0}"),
            format!("{:.1}x", indexed_ops / naive_ops),
        ]);
        rows_out.push(
            Row::new("coverage")
                .count("components", n as u64)
                .count("requests", TRIALS as u64)
                .count("naive_examined", naive_examined)
                .count("indexed_examined", candidates_total)
                .real("wall_naive_ops", naive_ops)
                .real("wall_indexed_ops", indexed_ops),
        );
        println!(
            "  n={n}: path cache {} hits / {} misses over {TRIALS} parses",
            cache.hits, cache.misses
        );
    }

    if !quick {
        // 1M components: indexed-only (a naive scan at this size is the
        // point of the index), spot-checked against the oracle.
        let n = 1_000_000;
        let cov = build_coverage(n);
        let mut cache = PathCache::new(1024);
        let reqs = sample_requests(n, TRIALS, 16, &mut cache);
        let mut candidates_total = 0u64;
        let t0 = Instant::now();
        let indexed: Vec<_> = reqs
            .iter()
            .map(|q| {
                let (m, s) = cov.match_request_with_stats(q);
                candidates_total += s.candidates as u64;
                m
            })
            .collect();
        let dt = t0.elapsed();
        for k in [0usize, 117, 499] {
            assert_eq!(indexed[k], cov.match_request_naive(&reqs[k]), "1M spot check {k}");
        }
        table.push(vec![
            n.to_string(),
            "-".into(),
            f2(candidates_total as f64 / TRIALS as f64),
            "-".into(),
            "-".into(),
            format!("{:.0}", ops(TRIALS, dt)),
            "-".into(),
        ]);
        rows_out.push(
            Row::new("coverage")
                .count("components", n as u64)
                .count("requests", TRIALS as u64)
                .count("indexed_examined", candidates_total)
                .real("wall_indexed_ops", ops(TRIALS, dt)),
        );
    }

    print_table(
        "E16a — coverage match: naive scan vs. path-trie index (Zipf 0.99 point lookups)",
        &[
            "components",
            "naive examined/op",
            "indexed examined/op",
            "examined ratio",
            "naive ops/s",
            "indexed ops/s",
            "wall speedup",
        ],
        &table,
    );
}

/// One synthetic shield: `n_rules` rules spread over 32 components with
/// mixed effects, conditions and priorities.
fn build_rules(n_rules: usize) -> PolicyRepository {
    let mut repo = PolicyRepository::new();
    for j in 0..n_rules {
        let scope = format!("/user/component{:02}/part{}", j % 32, j / 32);
        let cond = match j % 3 {
            0 => "relationship='family'",
            1 => "relationship='co-worker' and time in Mon-Fri 09:00-18:00",
            _ => "true",
        };
        let rule = Rule {
            id: format!("r{j}"),
            scope: Path::parse(&scope).expect("static"),
            condition: Condition::parse(cond).expect("static"),
            effect: if j % 5 == 0 { Effect::Deny } else { Effect::Permit },
            priority: (j % 7) as i32,
        };
        repo.put("scale", rule);
    }
    repo
}

/// Policy sweep: bucketed rule index vs. full rule scan.
fn policy_sweep(quick: bool, rows_out: &mut Vec<Row>) {
    let counts: &[usize] = if quick { &[16, 64] } else { &[16, 64, 256] };
    const DECIDE_TRIALS: usize = 2_000;
    let pdp = Pdp::new();
    let mut table = Vec::new();
    for &n_rules in counts {
        let repo = build_rules(n_rules);
        let mut r = rng(23);
        let reqs: Vec<(Path, RequestContext)> = (0..DECIDE_TRIALS)
            .map(|_| {
                let path = format!("/user/component{:02}/part{}", r.gen_range(0..40), r.gen_range(0..4));
                let rel = ["family", "co-worker", "boss", "third-party"][r.gen_range(0..4)];
                let ctx = RequestContext::query(
                    "rick",
                    rel,
                    WeekTime::at(r.gen_range(0..7), r.gen_range(0..24), 0),
                );
                (Path::parse(&path).expect("static"), ctx)
            })
            .collect();

        let mut naive_considered = 0u64;
        let t0 = Instant::now();
        let naive: Vec<_> = reqs
            .iter()
            .map(|(p, c)| {
                let (d, cost) = pdp.decide_with_cost_naive(&repo, "scale", p, c);
                naive_considered += cost.rules_considered;
                d
            })
            .collect();
        let naive_dt = t0.elapsed();

        let mut indexed_considered = 0u64;
        let t1 = Instant::now();
        let indexed: Vec<_> = reqs
            .iter()
            .map(|(p, c)| {
                let (d, cost) = pdp.decide_with_cost(&repo, "scale", p, c);
                indexed_considered += cost.rules_considered;
                d
            })
            .collect();
        let indexed_dt = t1.elapsed();
        assert_eq!(naive, indexed, "indexed decide diverged at {n_rules} rules");

        let (naive_ops, indexed_ops) = (ops(DECIDE_TRIALS, naive_dt), ops(DECIDE_TRIALS, indexed_dt));
        table.push(vec![
            n_rules.to_string(),
            format!("{:.1}", naive_considered as f64 / DECIDE_TRIALS as f64),
            format!("{:.1}", indexed_considered as f64 / DECIDE_TRIALS as f64),
            format!("{naive_ops:.0}"),
            format!("{indexed_ops:.0}"),
            format!("{:.1}x", indexed_ops / naive_ops),
        ]);
        rows_out.push(
            Row::new("policy")
                .count("rules", n_rules as u64)
                .count("requests", DECIDE_TRIALS as u64)
                .count("naive_rules_considered", naive_considered)
                .count("indexed_rules_considered", indexed_considered)
                .real("wall_naive_ops", naive_ops)
                .real("wall_indexed_ops", indexed_ops),
        );
    }
    print_table(
        "E16b — Pdp::decide: full rule scan vs. bucketed rule index",
        &[
            "rules",
            "naive considered/op",
            "indexed considered/op",
            "naive ops/s",
            "indexed ops/s",
            "wall speedup",
        ],
        &table,
    );
}

/// Full-pipeline referrals at scale, with the index counters.
fn pipeline_at(n: usize, ops_count: usize, rows_out: &mut Vec<Row>) {
    let mut g = Gupster::new(gup_schema(), b"bench-key");
    for i in 0..n {
        g.register_component(
            "scale",
            Path::parse(&item_path(i)).expect("static"),
            StoreId::new(format!("store-{}", i % 16)),
        )
        .expect("schema-valid");
    }
    g.set_relationship("scale", "friend", "family");
    g.pap
        .provision("scale", "fam-book", Effect::Permit, "/user/address-book", "relationship='family'", 0)
        .expect("valid");
    g.pap
        .provision("scale", "no-cache", Effect::Deny, "/user/address-book", "purpose='cache'", 5)
        .expect("valid");
    g.pap
        .provision("scale", "fam-presence", Effect::Permit, "/user/presence", "relationship='family'", 0)
        .expect("valid");

    let zipf = Zipf::new(n, 0.99);
    let mut r = rng(17);
    let mut cache = PathCache::new(4096);
    let t0 = Instant::now();
    for op in 0..ops_count {
        let q = cache.parse(&item_path(zipf.sample(&mut r))).expect("static");
        g.lookup("scale", &q, "friend", Purpose::Query, WeekTime::at(1, 10, 0), op as u64)
            .expect("family is permitted");
    }
    let dt = t0.elapsed();

    let hub = g.telemetry();
    println!("E16c — referral pipeline at {n} components ({ops_count} lookups)");
    let c = hub.counter_snapshot();
    let (memo_len, memo_hits, memo_misses) = g.memo_stats();
    println!(
        "  index counters: trie_hits={} memo_hits={} fallback_scans={}",
        c.trie_hits, c.memo_hits, c.fallback_scans
    );
    println!(
        "  decision memo: {memo_len} live entries, {memo_hits} hits / {memo_misses} misses; \
         path cache: {} hits / {} misses",
        cache.hits, cache.misses
    );
    println!(
        "  wall: {:.0} referrals/s ({:.1}µs/op)",
        ops(ops_count, dt),
        dt.as_micros() as f64 / ops_count as f64
    );
    assert_eq!(c.fallback_scans, 0, "point lookups must never fall back");
    assert!(c.memo_hits > 0, "Zipf repeats must hit the decision memo");

    rows_out.push(
        Row::new("pipeline")
            .count("components", n as u64)
            .count("lookups", ops_count as u64)
            .count("trie_hits", c.trie_hits)
            .count("memo_hits", c.memo_hits)
            .real("wall_ops", ops(ops_count, dt)),
    );
    super::dump_traces(&hub);
}

/// Runs the experiment.
pub fn run() {
    let quick = super::quick();
    println!("\nE16 — registry at scale ({} sweep)", super::mode());
    let mut rows: Vec<Row> = Vec::new();

    coverage_sweep(quick, &mut rows);
    policy_sweep(quick, &mut rows);
    // The 10k pipeline row runs in BOTH modes with identical seeds and
    // op counts, so the quick CI run intersects the checked-in full
    // baseline on it.
    pipeline_at(10_000, 5_000, &mut rows);
    if !quick {
        pipeline_at(100_000, 5_000, &mut rows);
    }

    benchjson::write("e16_registry_scale", "BENCH_registry.json", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_head_to_head_small() {
        let cov = build_coverage(200);
        let mut cache = PathCache::new(64);
        for q in sample_requests(200, 50, 3, &mut cache) {
            let (m, s) = cov.match_request_with_stats(&q);
            assert!(s.used_index);
            assert_eq!(m, cov.match_request_naive(&q));
        }
    }

    #[test]
    fn policy_head_to_head_small() {
        let repo = build_rules(48);
        let pdp = Pdp::new();
        let mut r = rng(9);
        for _ in 0..50 {
            let p = Path::parse(&format!("/user/component{:02}/part0", r.gen_range(0..40))).unwrap();
            let ctx = RequestContext::query("rick", "family", WeekTime::at(2, 10, 0));
            assert_eq!(
                pdp.decide_with_cost(&repo, "scale", &p, &ctx).0,
                pdp.decide_with_cost_naive(&repo, "scale", &p, &ctx).0
            );
        }
    }
}
