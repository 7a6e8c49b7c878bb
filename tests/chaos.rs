//! Seeded chaos suite: RNG-generated fault schedules driven through
//! the full referral pipeline under the resilience ladder.
//!
//! Invariants, per request, across every seed:
//!
//! * the request **terminates** (no panic, no unbounded retry);
//! * a fresh `Ok` answer is byte-correct and within the deadline
//!   budget;
//! * a degraded answer is **explicitly** stale (provenance says so)
//!   and still byte-correct for this workload (the profile never
//!   changes mid-run);
//! * an `Err` is one of the typed fault/deadline errors — never a
//!   silent wrong answer, never an internal panic.
//!
//! And across runs: the same seed reproduces the same outcome
//! sequence, byte for byte.
//!
//! The final test crosses the two failure planes: a 10% fault
//! schedule *while the service is overloaded*, driven through the
//! open-loop admission engine.

mod common;

use common::{book_request, build_pool, fault_world, keys as merge_keys, provision, request_stream, FaultWorld};
use gupster::core::patterns::PatternExecutor;
use gupster::core::{
    AdmissionConfig, GupsterError, OpenLoopRequest, Priority, RequestOutcome, ResilientExecutor,
    ServedVia, ShardRequest, ShardedRegistry,
};
use gupster::netsim::{FaultRates, FaultSchedule, SimTime};
use gupster::policy::WeekTime;
use gupster::schema::gup_schema;

const SEEDS: u64 = 50;
const REQUESTS: usize = 40;
const BUDGET: SimTime = SimTime::secs(3);

/// Three stores, ten address-book items per slice.
fn world(seed: u64) -> FaultWorld {
    fault_world(seed, 3, 10, b"chaos")
}

/// One request's outcome, reduced to the fields that must replay
/// identically for a given seed (request ids are hub-assigned and
/// excluded on purpose).
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Fresh { wall: SimTime, retries: u32, fallbacks: u32 },
    Stale { wall: SimTime, age: Option<u64> },
    Fault(String),
}

/// Drives one seeded chaos run and checks the per-request invariants.
fn chaos_run(seed: u64) -> Vec<Outcome> {
    let gap = SimTime::millis(150);
    let keys = merge_keys();
    let request = book_request();
    let t = WeekTime::at(0, 12, 0);
    let mut w = world(seed);
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, seed).with_budget(BUDGET);
    // Fault-free reference answer (also warms the stale cache).
    let reference = rex
        .fetch(&mut w.gupster, &w.pool, "alice", &request, "alice", t, 0, &keys)
        .expect("fault-free reference")
        .result;
    // A hostile schedule: link flaps, node outages, latency spikes and
    // occasional bisections, all derived from the seed.
    let rates = FaultRates::links(0.08)
        .with_node_outages(0.02)
        .with_latency_spikes(0.02)
        .with_partitions(0.01);
    let horizon = SimTime(gap.0 * (REQUESTS as u64 + 5));
    w.net.install_faults(FaultSchedule::generate(seed, &rates, &w.fault_nodes, horizon));

    let mut outcomes = Vec::new();
    for i in 0..REQUESTS {
        w.net.advance(gap);
        match rex.fetch(&mut w.gupster, &w.pool, "alice", &request, "alice", t, 1 + i as u64, &keys)
        {
            Ok(run) => {
                assert_eq!(
                    run.result, reference,
                    "seed {seed} req {i}: answered wrong — the one forbidden outcome"
                );
                if run.stale {
                    assert_eq!(run.served, ServedVia::StaleCache, "seed {seed} req {i}");
                    assert!(run.stale_age.is_some(), "seed {seed} req {i}: unmarked staleness");
                    outcomes.push(Outcome::Stale { wall: run.wall, age: run.stale_age });
                } else {
                    assert!(
                        matches!(run.served, ServedVia::Pattern(_)),
                        "seed {seed} req {i}: fresh answer without pattern provenance"
                    );
                    assert!(
                        run.wall <= BUDGET,
                        "seed {seed} req {i}: fresh answer past its deadline ({})",
                        run.wall
                    );
                    outcomes.push(Outcome::Fresh {
                        wall: run.wall,
                        retries: run.retries,
                        fallbacks: run.fallbacks,
                    });
                }
            }
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        GupsterError::LinkDown { .. }
                            | GupsterError::StoreUnavailable(_)
                            | GupsterError::Store(_)
                            | GupsterError::DeadlineExceeded { .. }
                    ),
                    "seed {seed} req {i}: untyped failure {e:?}"
                );
                outcomes.push(Outcome::Fault(e.to_string()));
            }
        }
    }
    outcomes
}

#[test]
fn fifty_seeded_schedules_uphold_the_invariants() {
    let mut total = 0usize;
    let mut answered = 0usize;
    let mut degraded = 0usize;
    for seed in 0..SEEDS {
        for o in chaos_run(seed) {
            total += 1;
            match o {
                Outcome::Fresh { .. } => answered += 1,
                Outcome::Stale { .. } => {
                    answered += 1;
                    degraded += 1;
                }
                Outcome::Fault(_) => {}
            }
        }
    }
    assert_eq!(total, SEEDS as usize * REQUESTS);
    // The ladder must be doing real work: under this schedule some
    // requests degrade, yet overall availability stays high.
    assert!(degraded > 0, "no request ever degraded — faults not biting?");
    let availability = answered as f64 / total as f64;
    assert!(availability >= 0.99, "availability {availability} across {total} chaotic requests");
}

#[test]
fn same_seed_reproduces_the_same_outcome_sequence() {
    for seed in [3u64, 17, 41] {
        let a = chaos_run(seed);
        let b = chaos_run(seed);
        assert_eq!(a, b, "seed {seed} diverged between two runs");
    }
}

#[test]
fn different_seeds_explore_different_schedules() {
    // Not an invariant of the system, but of the test harness: if every
    // seed produced identical outcomes the sweep would be testing one
    // schedule fifty times.
    let runs: Vec<_> = (0..SEEDS).map(chaos_run).collect();
    assert!(
        runs.windows(2).any(|w| w[0] != w[1]),
        "all {SEEDS} seeds produced identical outcome sequences"
    );
}

// ------------------------------------- faults under overload —

/// Stable FNV-1a over the request identity — the injected fault
/// schedule must not depend on `std` hasher seeding or shard count.
fn fault_hash(r: &ShardRequest) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in r.owner.as_bytes().iter().chain(r.requester.as_bytes()).chain(&r.now.to_le_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The two failure planes at once: ~10% of admitted requests hit an
/// injected store fault while arrivals come in faster than the
/// service drains them. Invariants:
///
/// * every request resolves to availability (fresh or explicitly
///   stale) or a typed rejection — never a hang, never an untyped
///   error;
/// * both planes actually bite (sheds > 0, injected faults > 0);
/// * the outcome stream, the shed counters and the merged fleet
///   observability section are byte-identical at every shard count —
///   neither overload nor faults may leak deployment shape.
#[test]
fn faults_under_overload_yield_only_typed_outcomes_at_any_shard_count() {
    const N: usize = 400;
    let pool = build_pool();
    let keys = merge_keys();
    // ~2x the drain rate: tight 3us gaps overload the default queues
    // (see tests/overload.rs, which sweeps the same workload).
    let arrivals: Vec<OpenLoopRequest> = request_stream(N)
        .into_iter()
        .enumerate()
        .map(|(op, request)| OpenLoopRequest {
            request,
            arrival: SimTime::micros(op as u64 * 3),
            class: if op.is_multiple_of(4) { Priority::CallDelivery } else { Priority::ProfileEdit },
        })
        .collect();
    let probe = |_start: SimTime, r: &ShardRequest| -> Option<GupsterError> {
        fault_hash(r).is_multiple_of(10).then(|| GupsterError::StoreUnavailable("injected".to_string()))
    };
    let config = AdmissionConfig { capacity: 16, ..AdmissionConfig::default() };

    let mut runs = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut reg = ShardedRegistry::new(gup_schema(), b"chaos", shards);
        provision(|u, path, store| reg.register_component(u, path, store).unwrap());
        let (outcomes, report) = reg.answer_open_loop(&pool, &arrivals, &keys, &config, Some(&probe));

        let mut injected = 0u64;
        for (i, o) in outcomes.iter().enumerate() {
            match o {
                RequestOutcome::Answer(Ok(_)) | RequestOutcome::Stale { .. } => {}
                RequestOutcome::Overloaded(cause) => {
                    assert!(cause.depth >= cause.capacity, "request {i}: shed below capacity");
                }
                RequestOutcome::Answer(Err(e)) => {
                    // Injected store faults, plus the workload's own
                    // deliberate error cases (unknown user, a path the
                    // owner has no components for).
                    assert!(
                        matches!(
                            e,
                            GupsterError::StoreUnavailable(_)
                                | GupsterError::UnknownUser(_)
                                | GupsterError::NoCoverage(_)
                        ),
                        "request {i}: untyped failure {e:?}"
                    );
                    if matches!(e, GupsterError::StoreUnavailable(_)) {
                        injected += 1;
                    }
                }
            }
        }
        assert!(
            report.shed_calls + report.shed_edits > 0,
            "{shards} shards: overload never bit"
        );
        assert!(injected + report.stale_served > 0, "{shards} shards: faults never bit");
        runs.push((
            shards,
            outcomes.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>(),
            (report.shed_calls, report.shed_edits, report.stale_served, report.admitted),
            reg.obs_snapshot().fleet,
        ));
    }
    let (_, ref_outcomes, ref_sheds, ref_fleet) = &runs[0];
    for (shards, outcomes, sheds, fleet) in &runs[1..] {
        assert_eq!(ref_outcomes, outcomes, "outcome stream diverged at {shards} shards");
        assert_eq!(ref_sheds, sheds, "shed counters diverged at {shards} shards");
        assert_eq!(ref_fleet, fleet, "fleet obs section diverged at {shards} shards");
    }
}
