//! SLO tracking: error budgets and burn rates over the simulated
//! clock, and the `BENCH_slo.json` artifact the CI gate reads.
//!
//! The paper's delivery constraint — resolve reach-me profiles in
//! "hundreds of milliseconds" — is an SLO, so we model it the SRE way:
//!
//! * an [`SloSpec`] names an objective: a latency budget (`p99 ≤
//!   budget`) over a stage histogram, an availability target
//!   (`good/(good+bad) ≥ target`), or both;
//! * the **error budget** is the allowed bad fraction, `1 − target`;
//! * the **burn rate** is `observed bad fraction / error budget` over
//!   the evaluated simulated window — 1.0 means the run consumed its
//!   budget exactly, above 1.0 the objective regressed.
//!
//! For latency objectives a request is *bad* when its duration exceeds
//! the budget; the count comes from
//! [`crate::Histogram::count_over`], so it is deterministic,
//! merge-stable and conservative by at most one log₂ bucket. Every
//! evaluation happens on simulated time, so the artifact is
//! byte-identical run to run and across shard counts, and
//! `bench_compare --slo` re-derives the verdict from the recorded
//! observations instead of trusting a pre-computed pass flag.

use std::fmt::Write as _;

use gupster_netsim::SimTime;

use crate::histogram::Histogram;
use crate::scan::{scan_f64, scan_str, scan_u64};

/// One service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (`call-path-p99`, `fault-availability`, …).
    pub name: String,
    /// The stage histogram the objective measures (informational).
    pub stage: String,
    /// p99 latency budget; `SimTime::ZERO` means no latency objective.
    pub p99_budget: SimTime,
    /// Availability target in `[0, 1]`; `0.0` means no availability
    /// objective. Also defines the error budget for the burn rate.
    pub target: f64,
}

/// The evaluated outcome of one [`SloSpec`] over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloOutcome {
    /// The objective.
    pub spec: SloSpec,
    /// Events evaluated (requests).
    pub count: u64,
    /// Observed p99.
    pub p99: SimTime,
    /// Events within the objective.
    pub good: u64,
    /// Events outside the objective.
    pub bad: u64,
    /// `good / count` (1.0 when empty).
    pub availability: f64,
    /// Allowed bad fraction, `1 − target`.
    pub error_budget: f64,
    /// `(bad/count) / error_budget`; 0.0 when no target is set.
    pub burn_rate: f64,
    /// The simulated window the outcome covers.
    pub window: SimTime,
    /// Whether every stated objective held.
    pub ok: bool,
}

fn finish(spec: SloSpec, count: u64, p99: SimTime, bad: u64, window: SimTime) -> SloOutcome {
    let good = count - bad;
    let availability = if count == 0 { 1.0 } else { good as f64 / count as f64 };
    let error_budget = 1.0 - spec.target;
    let burn_rate = if spec.target <= 0.0 || count == 0 {
        0.0
    } else if error_budget <= 0.0 {
        // A 100% target has no budget: any bad event is infinite burn.
        if bad > 0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        (bad as f64 / count as f64) / error_budget
    };
    let ok = verdict(spec.p99_budget, p99, spec.target, availability, burn_rate);
    SloOutcome {
        spec,
        count,
        p99,
        good,
        bad,
        availability,
        error_budget,
        burn_rate,
        window,
        ok,
    }
}

/// The pass/fail rule, shared by the evaluator and the CI gate (which
/// re-derives it from the recorded observations): the observed p99
/// must fit the latency budget, and the availability must meet the
/// target — equivalently, the burn rate must not exceed 1.0.
pub fn verdict(
    p99_budget: SimTime,
    p99: SimTime,
    target: f64,
    availability: f64,
    burn_rate: f64,
) -> bool {
    let latency_ok = p99_budget == SimTime::ZERO || p99 <= p99_budget;
    let availability_ok = target <= 0.0 || (availability >= target && burn_rate <= 1.0);
    latency_ok && availability_ok
}

/// Evaluates a latency objective over a stage histogram: events above
/// the p99 budget burn the error budget.
pub fn evaluate_latency(spec: SloSpec, hist: &Histogram, window: SimTime) -> SloOutcome {
    let count = hist.count();
    let bad = hist.count_over(spec.p99_budget);
    finish(spec, count, hist.p99(), bad, window)
}

/// Evaluates an availability objective from explicit good/bad event
/// counts (e.g. the E15 fault sweep's served vs. failed requests),
/// with the observed p99 carried for reporting.
pub fn evaluate_availability(
    spec: SloSpec,
    good: u64,
    bad: u64,
    p99: SimTime,
    window: SimTime,
) -> SloOutcome {
    finish(spec, good + bad, p99, bad, window)
}

/// One per-shard p99 attribution row of the `BENCH_slo.json` artifact:
/// how much of the fleet's tail a shard (and its dominant stage)
/// carries.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Shard index.
    pub shard: usize,
    /// The attributed stage (`shard.request` for the call path).
    pub stage: String,
    /// Requests the shard processed.
    pub count: u64,
    /// The shard's own p99 for the stage.
    pub p99: SimTime,
    /// The shard's share of fleet-wide busy time, `[0, 1]`.
    pub share: f64,
}

/// Serializes outcomes and attribution rows as the line-oriented
/// `BENCH_slo.json` artifact.
pub fn render_slo_json(
    experiment: &str,
    mode: &str,
    outcomes: &[SloOutcome],
    attribution: &[AttributionRow],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"experiment\": \"{experiment}\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"slos\": [");
    for (i, o) in outcomes.iter().enumerate() {
        let comma = if i + 1 < outcomes.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"stage\": \"{}\", \"count\": {}, \"p99_us\": {}, \
             \"budget_us\": {}, \"good\": {}, \"bad\": {}, \"availability\": {:.6}, \
             \"target\": {:.6}, \"error_budget\": {:.6}, \"burn_rate\": {:.6}, \
             \"window_us\": {}, \"ok\": {}}}{comma}",
            o.spec.name,
            o.spec.stage,
            o.count,
            o.p99.0,
            o.spec.p99_budget.0,
            o.good,
            o.bad,
            o.availability,
            o.spec.target,
            o.error_budget,
            o.burn_rate,
            o.window.0,
            o.ok
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"attribution\": [");
    for (i, a) in attribution.iter().enumerate() {
        let comma = if i + 1 < attribution.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"shard\": {}, \"stage\": \"{}\", \"count\": {}, \"p99_us\": {}, \
             \"share\": {:.4}}}{comma}",
            a.shard, a.stage, a.count, a.p99.0, a.share
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Parses [`render_slo_json`] output back into outcomes and
/// attribution rows. The recorded `ok` flag is ignored — callers
/// re-derive the verdict via [`verdict`] so a tampered or stale flag
/// cannot pass the gate.
pub fn parse_slo_json(text: &str) -> Result<(Vec<SloOutcome>, Vec<AttributionRow>), String> {
    let mut outcomes = Vec::new();
    let mut attribution = Vec::new();
    // Rows are recognised by their *first* key, so a row cut short
    // anywhere after it is an error, not a skipped line.
    for line in text.lines() {
        if line.contains("\"name\"") {
            let spec = SloSpec {
                name: scan_str(line, "name")?,
                stage: scan_str(line, "stage")?,
                p99_budget: SimTime(scan_u64(line, "budget_us")?),
                target: scan_f64(line, "target")?,
            };
            let count = scan_u64(line, "count")?;
            let p99 = SimTime(scan_u64(line, "p99_us")?);
            let bad = scan_u64(line, "bad")?;
            let window = SimTime(scan_u64(line, "window_us")?);
            outcomes.push(finish(spec, count, p99, bad, window));
        } else if line.contains("\"shard\"") {
            attribution.push(AttributionRow {
                shard: scan_u64(line, "shard")? as usize,
                stage: scan_str(line, "stage")?,
                count: scan_u64(line, "count")?,
                p99: SimTime(scan_u64(line, "p99_us")?),
                share: scan_f64(line, "share")?,
            });
        }
    }
    Ok((outcomes, attribution))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, budget_us: u64, target: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            stage: "shard.request".to_string(),
            p99_budget: SimTime(budget_us),
            target,
        }
    }

    #[test]
    fn latency_objective_burns_on_over_budget_samples() {
        // Exactly 1% of samples over budget: the error budget is spent
        // to the last drop but not exceeded, and p99 still sits in the
        // fast bucket — the objective holds at burn rate 1.0.
        let mut at_budget = Histogram::new();
        for _ in 0..990 {
            at_budget.record(SimTime::micros(100));
        }
        for _ in 0..10 {
            at_budget.record(SimTime::micros(50_000));
        }
        let o = evaluate_latency(spec("p99", 1_000, 0.99), &at_budget, SimTime::millis(500));
        assert_eq!((o.count, o.bad), (1000, 10));
        assert!((o.availability - 0.99).abs() < 1e-9);
        assert!((o.burn_rate - 1.0).abs() < 1e-9, "{}", o.burn_rate);
        assert!(o.ok);

        // 3% over budget: p99 lands on the slow samples and the burn
        // rate triples — both halves of the verdict fail.
        let mut blown = Histogram::new();
        for _ in 0..970 {
            blown.record(SimTime::micros(100));
        }
        for _ in 0..30 {
            blown.record(SimTime::micros(50_000));
        }
        let o = evaluate_latency(spec("p99", 1_000, 0.99), &blown, SimTime::millis(500));
        assert_eq!(o.bad, 30);
        assert_eq!(o.p99, SimTime::micros(50_000));
        assert!((o.burn_rate - 3.0).abs() < 1e-9, "{}", o.burn_rate);
        assert!(!o.ok);

        let relaxed = evaluate_latency(spec("p99", 100_000, 0.99), &blown, SimTime::millis(500));
        assert!(relaxed.ok);
        assert_eq!(relaxed.bad, 0, "all samples fit the relaxed budget");
    }

    #[test]
    fn availability_objective_and_budget_math() {
        let o = evaluate_availability(
            spec("avail", 0, 0.99),
            995,
            5,
            SimTime::micros(800),
            SimTime::secs(1),
        );
        assert_eq!(o.count, 1000);
        assert!((o.error_budget - 0.01).abs() < 1e-9);
        assert!((o.burn_rate - 0.5).abs() < 1e-9);
        assert!(o.ok);

        let burned = evaluate_availability(
            spec("avail", 0, 0.99),
            970,
            30,
            SimTime::micros(800),
            SimTime::secs(1),
        );
        assert!((burned.burn_rate - 3.0).abs() < 1e-9);
        assert!(!burned.ok);
    }

    #[test]
    fn perfect_target_has_no_budget() {
        let clean =
            evaluate_availability(spec("strict", 0, 1.0), 10, 0, SimTime::ZERO, SimTime::ZERO);
        assert!(clean.ok);
        assert_eq!(clean.burn_rate, 0.0);
        let dirty =
            evaluate_availability(spec("strict", 0, 1.0), 9, 1, SimTime::ZERO, SimTime::ZERO);
        assert!(dirty.burn_rate.is_infinite());
        assert!(!dirty.ok);
    }

    #[test]
    fn empty_windows_are_vacuously_ok() {
        let o = evaluate_latency(spec("p99", 1_000, 0.99), &Histogram::new(), SimTime::ZERO);
        assert!(o.ok);
        assert_eq!(o.availability, 1.0);
        assert_eq!(o.burn_rate, 0.0);
    }

    #[test]
    fn slo_json_round_trips_and_rederives_verdicts() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record(SimTime::micros(i * 7));
        }
        let outcomes = vec![
            evaluate_latency(spec("call-path-p99", 2_000, 0.99), &h, SimTime::millis(100)),
            evaluate_availability(
                spec("fault-availability", 0, 0.99),
                990,
                10,
                SimTime::micros(900),
                SimTime::secs(2),
            ),
        ];
        let attribution = vec![AttributionRow {
            shard: 3,
            stage: "shard.request".to_string(),
            count: 250,
            p99: SimTime::micros(700),
            share: 0.2512,
        }];
        let text = render_slo_json("e18_observability", "full", &outcomes, &attribution);
        let (back, attr) = parse_slo_json(&text).unwrap();
        assert_eq!(back, outcomes);
        assert_eq!(attr, attribution);
        // The verdict survives the round trip by re-derivation.
        assert_eq!(back[0].ok, outcomes[0].ok);
        assert_eq!(render_slo_json("e18_observability", "full", &back, &attr), text);
    }
}
