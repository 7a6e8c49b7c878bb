//! E18 — the fleet observability plane (DESIGN.md §9): per-shard
//! metrics, tail-latency attribution and SLO burn-rate gates.
//!
//! Three sections, all over the E17 shard workload so the numbers are
//! comparable:
//!
//! 1. **Snapshot sweep** — the same seeded stream runs at 1, 2, 4 and
//!    8 shards with exemplar capture armed at the calibrated p99. The
//!    merged fleet section of every [`ObsSnapshot`]
//!    ([`ObsSnapshot::fleet_json`]) is asserted byte-identical across
//!    shard counts — histograms merge bucket-wise, counters sum,
//!    exemplar top-k selection runs under a total order — while the
//!    per-shard gauges show the actual deployment shape.
//! 2. **SLO evaluation** — two objectives in the SRE error-budget
//!    style: the call-path p99 against a fixed simulated budget, and
//!    availability under the E15 fault sweep's headline 10% fault
//!    rate. Burn rate is `(bad fraction) / (error budget)`; both
//!    objectives must hold (burn ≤ 1.0) for the experiment to pass.
//! 3. **Dashboard** — the widest run's snapshot rendered as the text
//!    dashboard (per-shard utilization bars, queue depths, hit rates,
//!    ladder counts, hottest users/paths, tail exemplars).
//!
//! Artifacts: `BENCH_slo.json` (SLO outcomes + per-shard p99
//! attribution; CI's `bench_compare` requires a quick run to reproduce
//! the checked-in file exactly) and
//! `OBS_snapshot.json` (the full snapshot; re-render it any time with
//! `experiments dashboard OBS_snapshot.json`). `experiments --quick`
//! shrinks the stream for CI; the SLO verdicts and the identity
//! assertions are checked in both modes.

use gupster_core::ShardedRegistry;
use gupster_netsim::SimTime;
use gupster_telemetry::slo::{
    evaluate_availability, evaluate_latency, render_slo_json, AttributionRow, SloOutcome, SloSpec,
};
use gupster_telemetry::{stage, Histogram, ObsSnapshot};
use gupster_xml::MergeKeys;

use crate::table::{f2, pct, print_table};

use super::e15_reliability::fault_sweep;
use super::e17_shards::{build_workload, provision, ShardWorkload};

/// Shard counts swept for the identity assertion.
const SHARDS: [usize; 4] = [1, 2, 4, 8];
/// Requests per scatter window (matches E17).
const WINDOW: usize = 512;
/// Fleet-wide tail exemplars kept (top-k by duration).
const EXEMPLAR_CAP: usize = 8;
/// Simulated p99 budget for the sharded call path. The merged
/// `shard.request` p99 of the seeded stream sits at 171µs (the
/// log₂-bucketed histogram reports the bucket top); 256µs leaves 50%
/// headroom before the gate trips — and is still three orders of
/// magnitude inside the paper's "hundreds of milliseconds" delivery
/// class.
const P99_BUDGET: SimTime = SimTime::micros(256);
/// Availability target under the E15 fault ladder (Req. 12's bar).
const AVAILABILITY_TARGET: f64 = 0.99;
/// The E15 fault rate the availability objective is evaluated at.
const FAULT_RATE: f64 = 0.10;

/// One full pass of the stream at `shards` shards with the exemplar
/// policy armed, returning the registry (for histogram access) and its
/// snapshot.
fn obs_pass(
    w: &ShardWorkload,
    shards: usize,
    threshold: SimTime,
    cap: usize,
) -> (ShardedRegistry, ObsSnapshot) {
    let keys = MergeKeys::new().with_key("item", "id");
    let mut reg = provision(w, shards);
    reg.set_span_limit(0); // exemplars keep their own span trees
    reg.set_exemplar_policy(threshold, cap);
    for window in w.requests.chunks(WINDOW) {
        let (_, _) = reg.answer_batch(&w.pool, window, &keys, true);
    }
    let snap = reg.obs_snapshot();
    (reg, snap)
}

/// The fleet-wide merged histogram for one stage (bucket-wise merge,
/// so shard-count invariant).
fn merged_histogram(reg: &ShardedRegistry, label: &str) -> Histogram {
    let mut merged = Histogram::new();
    for g in reg.shards() {
        for (name, h) in g.telemetry().stage_histograms() {
            if name == label {
                merged.merge(&h);
            }
        }
    }
    merged
}

/// Evaluates both SLOs for one pass. The outcomes derive only from
/// merged (shard-count-invariant) data, so the rendered rows are
/// byte-identical at every shard count.
fn evaluate_slos(reg: &ShardedRegistry, snap: &ObsSnapshot) -> Vec<SloOutcome> {
    let call_path = evaluate_latency(
        SloSpec {
            name: "call-path-p99".to_string(),
            stage: stage::SHARD_REQUEST.to_string(),
            p99_budget: P99_BUDGET,
            target: AVAILABILITY_TARGET,
        },
        &merged_histogram(reg, stage::SHARD_REQUEST),
        snap.fleet.busy,
    );

    // Availability rides the E15 resilience ladder at its headline
    // fault rate: same seed as E15, so this is the number the E15
    // report prints.
    let sweep = fault_sweep(15);
    let row = sweep
        .rows
        .iter()
        .find(|r| (r.rate - FAULT_RATE).abs() < 1e-9)
        .expect("E15 sweeps the headline rate");
    let window = SimTime::millis(200 * (row.requests as u64 + 5)); // the sweep's horizon
    let availability = evaluate_availability(
        SloSpec {
            name: "fault-availability".to_string(),
            stage: stage::RESILIENCE_REQUEST.to_string(),
            p99_budget: SimTime::ZERO,
            target: AVAILABILITY_TARGET,
        },
        (row.fresh + row.stale) as u64,
        row.failed as u64,
        row.p99,
        window,
    );
    vec![call_path, availability]
}

/// Per-shard p99 attribution rows from the deployment-shaped part of
/// the snapshot: who carries the tail, and what share of fleet busy
/// time each shard holds.
fn attribution(snap: &ObsSnapshot) -> Vec<AttributionRow> {
    snap.shards
        .iter()
        .map(|s| AttributionRow {
            shard: s.shard,
            stage: stage::SHARD_REQUEST.to_string(),
            count: s.requests,
            p99: s.p99_request,
            share: if snap.fleet.busy.0 == 0 {
                0.0
            } else {
                s.busy.0 as f64 / snap.fleet.busy.0 as f64
            },
        })
        .collect()
}

/// Runs the experiment.
pub fn run() {
    let mode = super::mode();
    let (n_users, n_requests) = if super::quick() { (300, 4_096) } else { (1_200, 20_480) };
    println!("\nE18 — fleet observability plane ({mode} sweep)");
    let w = build_workload(n_users, n_requests, 17);

    // Calibration: one pass with exemplars off fixes the tail
    // threshold at the observed call-path p99, identically for every
    // shard count (per-request simulated costs don't depend on the
    // layout).
    let (calib_reg, _) = obs_pass(&w, 1, SimTime(u64::MAX), 0);
    let threshold = merged_histogram(&calib_reg, stage::SHARD_REQUEST).p99();
    drop(calib_reg);

    let mut table = Vec::new();
    let mut baseline: Option<(String, String)> = None;
    let mut widest: Option<(ShardedRegistry, ObsSnapshot)> = None;
    for &shards in &SHARDS {
        let (reg, snap) = obs_pass(&w, shards, threshold, EXEMPLAR_CAP);
        let fleet = snap.fleet_json();
        let slos = evaluate_slos(&reg, &snap);
        let slo_rows = render_slo_json("e18_observability", mode, &slos, &[]);
        let (base_fleet, base_slos) = baseline.get_or_insert((fleet.clone(), slo_rows.clone()));
        assert_eq!(
            *base_fleet, fleet,
            "fleet snapshot diverged from the 1-shard run at {shards} shards"
        );
        assert_eq!(
            *base_slos, slo_rows,
            "SLO outcomes diverged from the 1-shard run at {shards} shards"
        );
        let util_min =
            snap.shards.iter().map(|s| s.utilization).fold(f64::INFINITY, f64::min);
        let util_max = snap.shards.iter().map(|s| s.utilization).fold(0.0, f64::max);
        let exemplar_max =
            snap.fleet.exemplars.first().map(|e| e.duration).unwrap_or(SimTime::ZERO);
        table.push(vec![
            shards.to_string(),
            snap.makespan.to_string(),
            format!("{}..{}", f2(util_min), f2(util_max)),
            snap.fleet.exemplars.len().to_string(),
            exemplar_max.to_string(),
        ]);
        widest = Some((reg, snap));
    }
    let (reg, snap) = widest.expect("sweep ran");
    print_table(
        &format!(
            "E18a — snapshot sweep ({n_requests} requests over {n_users} users, exemplar \
             threshold {threshold})"
        ),
        &["shards", "sim makespan", "utilization", "exemplars", "slowest"],
        &table,
    );
    println!(
        "  paper check: the merged fleet section (counters, stage histograms, exemplar top-k, \
         hot keys) is byte-identical at every shard count — observability does not depend on \
         the deployment layout."
    );

    // -------------------------------------------------------- SLOs —
    let slos = evaluate_slos(&reg, &snap);
    let attr = attribution(&snap);
    let slo_table: Vec<Vec<String>> = slos
        .iter()
        .map(|o| {
            vec![
                o.spec.name.clone(),
                o.count.to_string(),
                o.p99.to_string(),
                if o.spec.p99_budget == SimTime::ZERO {
                    "-".to_string()
                } else {
                    o.spec.p99_budget.to_string()
                },
                pct(o.availability),
                if o.spec.target <= 0.0 { "-".to_string() } else { pct(o.spec.target) },
                f2(o.burn_rate),
                if o.ok { "ok".to_string() } else { "VIOLATED".to_string() },
            ]
        })
        .collect();
    print_table(
        "E18b — SLO error budgets and burn rates (burn 1.0 = budget exactly spent)",
        &["objective", "events", "p99", "budget", "availability", "target", "burn", "verdict"],
        &slo_table,
    );
    for o in &slos {
        assert!(o.ok, "SLO {} violated: {o:?}", o.spec.name);
    }
    let attr_table: Vec<Vec<String>> = attr
        .iter()
        .map(|a| {
            vec![
                a.shard.to_string(),
                a.count.to_string(),
                a.p99.to_string(),
                pct(a.share),
            ]
        })
        .collect();
    print_table(
        "E18c — per-shard p99 attribution (share of fleet busy time)",
        &["shard", "requests", "p99(shard.request)", "busy share"],
        &attr_table,
    );

    // --------------------------------------------------- dashboard —
    println!("{}", snap.render_dashboard());

    let slo_out = std::env::var("GUPSTER_SLO_OUT").unwrap_or_else(|_| "BENCH_slo.json".into());
    match std::fs::write(&slo_out, render_slo_json("e18_observability", mode, &slos, &attr)) {
        Ok(()) => println!("  wrote {} SLOs + {} attribution rows to {slo_out}", slos.len(), attr.len()),
        Err(e) => eprintln!("  cannot write {slo_out}: {e}"),
    }
    let obs_out = std::env::var("GUPSTER_OBS_OUT").unwrap_or_else(|_| "OBS_snapshot.json".into());
    match std::fs::write(&obs_out, snap.render_json()) {
        Ok(()) => println!("  wrote the {}-shard snapshot to {obs_out}", snap.shards.len()),
        Err(e) => eprintln!("  cannot write {obs_out}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_fleet_identical_with_exemplars() {
        let w = build_workload(60, 1_024, 5);
        let (calib, _) = obs_pass(&w, 1, SimTime(u64::MAX), 0);
        let threshold = merged_histogram(&calib, stage::SHARD_REQUEST).p99();
        let (_, base) = obs_pass(&w, 1, threshold, 4);
        assert!(!base.fleet.exemplars.is_empty(), "p99 threshold must catch the tail");
        for shards in [2usize, 4] {
            let (_, snap) = obs_pass(&w, shards, threshold, 4);
            assert_eq!(base.fleet_json(), snap.fleet_json(), "diverged at {shards} shards");
            assert_eq!(snap.shards.len(), shards);
        }
    }

    #[test]
    fn slo_rows_hold_and_shares_partition() {
        let w = build_workload(60, 1_024, 5);
        let (reg, snap) = obs_pass(&w, 2, SimTime(u64::MAX), 0);
        let slos = evaluate_slos(&reg, &snap);
        assert_eq!(slos.len(), 2);
        for o in &slos {
            assert!(o.ok, "{o:?}");
            assert!(o.burn_rate <= 1.0);
        }
        let attr = attribution(&snap);
        assert_eq!(attr.len(), 2);
        let total_share: f64 = attr.iter().map(|a| a.share).sum();
        assert!((total_share - 1.0).abs() < 1e-9, "busy shares must partition: {total_share}");
    }
}
