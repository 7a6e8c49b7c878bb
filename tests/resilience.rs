//! Integration test for the graceful-degradation ladder: kill the
//! referred store's links mid-stream and watch the request degrade
//! referral → chaining → stale-cache, in order, with provenance
//! marking the stage that answered. The stale rung is the shard
//! registry's, shared with the open-loop engine, and it never serves
//! past the privacy shield.

mod common;

use common::{
    book_request as request, build_pool, fault_world, keys as merge_keys, p, provision, user,
    FaultWorld,
};
use gupster::core::patterns::{PatternExecutor, QueryPattern};
use gupster::core::{
    AdmissionConfig, Gupster, GupsterError, OpenLoopRequest, Priority, RequestOutcome,
    ResilientExecutor, ServedVia, ShardRequest, ShardedRegistry, StorePool,
};
use gupster::netsim::{FaultSchedule, SimTime};
use gupster::policy::{Effect, Purpose, WeekTime};
use gupster::schema::gup_schema;
use gupster::telemetry::stage;
use gupster::xml::MergeKeys;

/// Two stores, one address-book item each.
fn world() -> FaultWorld {
    fault_world(42, 2, 1, b"resilience")
}

const FOREVER: SimTime = SimTime(u64::MAX / 2);

#[test]
fn ladder_degrades_referral_to_chaining_to_stale_in_order() {
    let mut w = world();
    let keys = merge_keys();
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, 7);
    let t = WeekTime::at(0, 12, 0);

    // Rung 0: healthy network — referral answers fresh.
    let healthy =
        rex.fetch(&mut w.gupster, &w.pool, "alice", &request(), "alice", t, 0, &keys).unwrap();
    assert_eq!(healthy.served, ServedVia::Pattern(QueryPattern::Referral));
    assert!(!healthy.stale);
    assert_eq!(healthy.fallbacks, 0);
    let reference = healthy.result.clone();

    // Rung 1: the client loses its direct links to every store — the
    // referred fetch fan-out dies, but GUPster can still reach the
    // stores, so the request degrades to chaining.
    let mut cut_client = FaultSchedule::new();
    for &node in &w.store_nodes {
        cut_client = cut_client.link_down(w.client, node, SimTime::ZERO, FOREVER);
    }
    w.net.install_faults(cut_client.clone());
    let chained =
        rex.fetch(&mut w.gupster, &w.pool, "alice", &request(), "alice", t, 10, &keys).unwrap();
    assert_eq!(chained.served, ServedVia::Pattern(QueryPattern::Chaining));
    assert!(!chained.stale);
    assert_eq!(chained.fallbacks, 1, "exactly one rung fallen through");
    assert!(chained.retries > 0, "referral was retried before falling back");
    assert!(
        matches!(chained.errors.first(), Some(GupsterError::LinkDown { .. })),
        "{:?}",
        chained.errors
    );
    assert_eq!(chained.result, reference);

    // Rung 3: every store goes dark mid-stream — no rung can fetch, so
    // the previously-fetched answer is served stale, explicitly marked.
    let mut all_dark = cut_client;
    for &node in &w.store_nodes {
        all_dark = all_dark.node_offline(node, SimTime::ZERO, FOREVER);
    }
    w.net.install_faults(all_dark);
    let stale =
        rex.fetch(&mut w.gupster, &w.pool, "alice", &request(), "alice", t, 60, &keys).unwrap();
    assert_eq!(stale.served, ServedVia::StaleCache);
    assert!(stale.stale);
    assert_eq!(stale.fallbacks, 2, "fell through the whole ladder");
    assert_eq!(stale.result, reference, "stale serve replays the last good answer");
    assert_eq!(stale.stale_age, Some(50), "age = now(60) - last fresh fetch(10)");
    assert!(stale.errors.iter().any(|e| matches!(e, GupsterError::StoreUnavailable(_))));

    // Provenance in the trace: the degraded request is one rooted tree
    // with fallback marks and a stale-serve mark under the root.
    let hub = w.gupster.telemetry();
    let spans: Vec<_> =
        hub.spans().into_iter().filter(|s| s.request == stale.request).collect();
    assert!(gupster::telemetry::single_rooted_tree(&spans));
    assert_eq!(spans[0].stage, stage::RESILIENCE_REQUEST);
    assert_eq!(spans.iter().filter(|s| s.stage == stage::FALLBACK).count(), 2);
    assert_eq!(spans.iter().filter(|s| s.stage == stage::STALE_SERVE).count(), 1);
    let c = hub.counter_snapshot();
    assert!(c.retries > 0);
    assert!(c.fallbacks >= 3);
    assert_eq!(c.stale_serves, 1);
}

#[test]
fn refusals_are_never_papered_over_by_the_stale_cache() {
    let mut w = world();
    let keys = merge_keys();
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, 7);
    let t = WeekTime::at(0, 12, 0);
    // alice warms her own cache…
    rex.fetch(&mut w.gupster, &w.pool, "alice", &request(), "alice", t, 0, &keys).unwrap();
    // …but mallory's refusal aborts immediately: no retries, no stale
    // serve of alice's copy.
    let err = rex
        .fetch(&mut w.gupster, &w.pool, "alice", &request(), "mallory", t, 1, &keys)
        .unwrap_err();
    assert!(matches!(err, GupsterError::AccessDenied { .. }), "{err:?}");
    assert_eq!(w.gupster.telemetry().counter_snapshot().stale_serves, 0);
}

#[test]
fn deadline_budget_is_a_typed_error_when_nothing_can_serve() {
    let mut w = world();
    let keys = merge_keys();
    // Every store dark from the start: the cache is cold, every rung
    // fails, and a tiny budget runs out during the retries.
    let mut all_dark = FaultSchedule::new();
    for &node in &w.store_nodes {
        all_dark = all_dark.node_offline(node, SimTime::ZERO, FOREVER);
    }
    w.net.install_faults(all_dark);
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, 7).with_budget(SimTime::micros(200));
    let err = rex
        .fetch(&mut w.gupster, &w.pool, "alice", &request(), "alice", WeekTime::at(0, 12, 0), 0, &keys)
        .unwrap_err();
    match err {
        GupsterError::DeadlineExceeded { elapsed, budget } => {
            assert_eq!(budget, SimTime::micros(200));
            assert!(elapsed >= budget, "{elapsed} < {budget}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(w.gupster.telemetry().counter_snapshot().deadline_exceeded, 1);
}

#[test]
fn the_stale_cache_remembers_no_more_views_than_it_holds() {
    let mut w = world();
    let keys = merge_keys();
    w.gupster
        .pap
        .provision(
            "alice",
            "anyone",
            gupster::policy::Effect::Permit,
            "/user/address-book",
            "relationship='third-party'",
            0,
        )
        .unwrap();
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, 7);
    let t = WeekTime::at(0, 12, 0);
    for i in 0..5_000 {
        let caller = format!("caller{i:04}");
        rex.fetch(&mut w.gupster, &w.pool, "alice", &request(), &caller, t, 0, &keys).unwrap();
    }
    // The shard's stale rung is bounded to 4096 views. Everything the
    // cache retains, not just its own count: no side table may remember
    // an evicted view. (The registry as a whole legitimately remembers
    // every caller in its provenance audit trail.)
    let stale = w.gupster.stale_answers();
    assert_eq!(stale.len(), 4096);
    let retained = format!("{stale:?}");
    let remembered: std::collections::BTreeSet<&str> =
        retained.match_indices("caller").filter_map(|(at, _)| retained.get(at..at + 10)).collect();
    assert_eq!(remembered.len(), 4096, "evicted views must leave nothing behind");
}

/// Grants rick alice's whole address book and fetches it once through
/// the ladder, warming the stale rung.
fn warm_rick(
    rex: &mut ResilientExecutor<'_>,
    gupster: &mut Gupster,
    pool: &StorePool,
    keys: &MergeKeys,
) {
    gupster.set_relationship("alice", "rick", "co-worker");
    gupster
        .pap
        .provision("alice", "book", Effect::Permit, "/user/address-book", "relationship='co-worker'", 0)
        .unwrap();
    let fresh = rex
        .fetch(gupster, pool, "alice", &request(), "rick", WeekTime::at(0, 12, 0), 0, keys)
        .unwrap();
    assert!(!fresh.stale);
    assert!(format!("{:?}", fresh.result).contains("slice1"), "the whole book reaches slice1");
}

#[test]
fn a_narrowed_grant_is_not_widened_by_a_stale_serve() {
    let mut w = world();
    let keys = merge_keys();
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, 7);
    warm_rick(&mut rex, &mut w.gupster, &w.pool, &keys);
    // alice narrows rick's grant to slice0, then every store goes dark.
    assert!(w.gupster.pap.withdraw("alice", "book"));
    w.gupster
        .pap
        .provision(
            "alice",
            "slice0",
            Effect::Permit,
            "/user/address-book/item[@type='slice0']",
            "relationship='co-worker'",
            0,
        )
        .unwrap();
    let mut all_dark = FaultSchedule::new();
    for &node in &w.store_nodes {
        all_dark = all_dark.node_offline(node, SimTime::ZERO, FOREVER);
    }
    w.net.install_faults(all_dark);
    let t = WeekTime::at(0, 12, 0);
    for now in [10, 20] {
        match rex.fetch(&mut w.gupster, &w.pool, "alice", &request(), "rick", t, now, &keys) {
            Ok(run) => {
                assert!(!run.stale, "the whole-book answer outlived its grant: {run:?}");
                assert!(!format!("{:?}", run.result).contains("slice1"), "{run:?}");
            }
            // The error a cold stale rung would give: the stores are dark.
            Err(e) => assert!(
                matches!(e, GupsterError::StoreUnavailable(_) | GupsterError::LinkDown { .. }),
                "{e:?}"
            ),
        }
    }
    assert_eq!(w.gupster.telemetry().counter_snapshot().stale_serves, 0);
}

#[test]
fn a_withdrawn_grant_is_refused_even_with_no_budget_left() {
    let mut w = world();
    let keys = merge_keys();
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, 7);
    warm_rick(&mut rex, &mut w.gupster, &w.pool, &keys);
    assert!(w.gupster.pap.withdraw("alice", "book"));
    // No budget: the ladder gives up before any lookup runs, so the
    // stale rung's own shield check is all that stands in the way.
    rex.budget = SimTime::ZERO;
    let err = rex
        .fetch(&mut w.gupster, &w.pool, "alice", &request(), "rick", WeekTime::at(0, 12, 0), 5, &keys)
        .unwrap_err();
    assert!(matches!(err, GupsterError::AccessDenied { .. }), "{err:?}");
    assert_eq!(w.gupster.telemetry().counter_snapshot().stale_serves, 0);
}

/// The open-loop engine keeps the shard's stale rung across runs, and
/// a shed request is served from it only while the shield still
/// allows: the owner's own shed requests ride run 1's answer, rick's
/// resolve to `Overloaded` (or, when admitted, `AccessDenied`) once
/// his grant is withdrawn.
#[test]
fn open_loop_stale_serves_outlive_a_run_but_not_a_grant() {
    let pool = build_pool();
    let keys = merge_keys();
    let owner = user(0);
    let book = p(&format!("/user[@id='{owner}']/address-book"));
    let mut reg = ShardedRegistry::new(gup_schema(), b"resilience", 2);
    provision(|u, path, store| reg.register_component(u, path, store).unwrap());
    let g = reg.shard_mut(&owner);
    g.set_relationship(&owner, "rick", "co-worker");
    g.pap
        .provision(&owner, "book", Effect::Permit, "/user/address-book", "relationship='co-worker'", 0)
        .unwrap();
    let ask = |requester: &str, now: u64, arrival: SimTime| OpenLoopRequest {
        request: ShardRequest {
            owner: owner.clone(),
            path: book.clone(),
            requester: requester.to_string(),
            purpose: Purpose::Query,
            time: WeekTime::at(1, 10, 0),
            now,
        },
        arrival,
        class: Priority::ProfileEdit,
    };
    // One waiting seat per queue: a burst on one owner sheds at once.
    let config = AdmissionConfig { capacity: 1, ..AdmissionConfig::default() };

    // Run 1: quiet arrivals — both views answered fresh.
    let quiet = [ask(&owner, 0, SimTime::ZERO), ask("rick", 1, SimTime::millis(10))];
    let (outcomes, _) = reg.answer_open_loop(&pool, &quiet, &keys, &config, None);
    assert!(outcomes.iter().all(|o| matches!(o, RequestOutcome::Answer(Ok(_)))), "{outcomes:?}");

    assert!(reg.shard_mut(&owner).pap.withdraw(&owner, "book"));

    // Run 2, same registry: twelve arrivals at one instant, alternating
    // owner and rick. One runs, one waits, the rest are shed.
    let burst: Vec<OpenLoopRequest> = (0..12u64)
        .map(|i| ask(if i % 2 == 0 { &owner } else { "rick" }, 10 + i, SimTime::ZERO))
        .collect();
    let (outcomes, report) = reg.answer_open_loop(&pool, &burst, &keys, &config, None);
    assert!(report.shed_edits >= 8, "{report:?}");
    let mut owner_stale = 0;
    for (a, o) in burst.iter().zip(&outcomes) {
        if a.request.requester == "rick" {
            assert!(
                matches!(
                    o,
                    RequestOutcome::Overloaded(_)
                        | RequestOutcome::Answer(Err(GupsterError::AccessDenied { .. }))
                ),
                "rick after the withdraw: {o:?}"
            );
        } else if matches!(o, RequestOutcome::Stale { .. }) {
            owner_stale += 1;
        }
    }
    assert!(owner_stale > 0, "run 1's answer must cover the owner's shed requests: {outcomes:?}");
}

/// A stale serve is a disclosure. With no budget left the ladder runs
/// no lookup, so the stale rung's serve is the request's one record: a
/// copy of the fill's disclosure, stamped with the serve's clock.
#[test]
fn a_ladder_stale_serve_leaves_one_disclosure_record() {
    let mut w = world();
    let keys = merge_keys();
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, 7);
    warm_rick(&mut rex, &mut w.gupster, &w.pool, &keys);
    let before = w.gupster.provenance.disclosures_of("alice");
    rex.budget = SimTime::ZERO;
    let run = rex
        .fetch(&mut w.gupster, &w.pool, "alice", &request(), "rick", WeekTime::at(0, 12, 0), 5, &keys)
        .unwrap();
    assert_eq!(run.served, ServedVia::StaleCache);
    let after = w.gupster.provenance.disclosures_of("alice");
    assert_eq!(after.len(), before.len() + 1, "one record per stale serve");
    let (fill, serve) = (before.last().unwrap(), after.last().unwrap());
    assert_eq!((serve.requester.as_str(), serve.when), ("rick", 5));
    assert_eq!((&serve.paths, &serve.stores), (&fill.paths, &fill.stores));
}

/// The open-loop engine's owner, its book and a registry whose stale
/// rung holds the owner's view of it: one quiet run answered it fresh.
fn open_loop_world() -> (ShardedRegistry, StorePool, String, impl Fn(&str, u64) -> OpenLoopRequest) {
    let pool = build_pool();
    let owner = user(0);
    let book = p(&format!("/user[@id='{owner}']/address-book"));
    let mut reg = ShardedRegistry::new(gup_schema(), b"resilience", 2);
    provision(|u, path, store| reg.register_component(u, path, store).unwrap());
    let who = owner.clone();
    let ask = move |requester: &str, now: u64| OpenLoopRequest {
        request: ShardRequest {
            owner: who.clone(),
            path: book.clone(),
            requester: requester.to_string(),
            purpose: Purpose::Query,
            time: WeekTime::at(1, 10, 0),
            now,
        },
        arrival: SimTime::ZERO,
        class: Priority::ProfileEdit,
    };
    let quiet = [ask(&owner, 0)];
    let config = AdmissionConfig::default();
    let (outcomes, _) = reg.answer_open_loop(&pool, &quiet, &merge_keys(), &config, None);
    assert!(matches!(outcomes[0], RequestOutcome::Answer(Ok(_))), "{outcomes:?}");
    (reg, pool, owner, ask)
}

/// A request whose stores fail transiently is served from the stale
/// rung, and that serve leaves one disclosure record. The probe fails
/// it before its lookup, so the serve is its only record.
#[test]
fn an_open_loop_transient_stale_serve_leaves_one_disclosure_record() {
    let (mut reg, pool, owner, ask) = open_loop_world();
    let before = reg.shard_mut(&owner).provenance.disclosures_of(&owner);
    let down = |_: SimTime, r: &ShardRequest| Some(GupsterError::StoreUnavailable(r.owner.clone()));
    let config = AdmissionConfig::default();
    let (outcomes, report) =
        reg.answer_open_loop(&pool, &[ask(&owner, 7)], &merge_keys(), &config, Some(&down));
    assert!(matches!(outcomes[0], RequestOutcome::Stale { .. }), "{outcomes:?}");
    assert_eq!(report.stale_served, 1);
    let after = reg.shard_mut(&owner).provenance.disclosures_of(&owner);
    assert_eq!(after.len(), before.len() + 1, "one record per stale serve");
    let serve = after.last().unwrap();
    assert_eq!((serve.requester.as_str(), serve.when), (&*owner, 7));
}

/// A shed request served from the stale rung leaves one disclosure
/// record. The two requests ahead of it run, but their requester has no
/// grant, so their lookups disclose nothing.
#[test]
fn an_open_loop_shed_stale_serve_leaves_one_disclosure_record() {
    let (mut reg, pool, owner, ask) = open_loop_world();
    let before = reg.shard_mut(&owner).provenance.disclosures_of(&owner);
    // One waiting seat: the first arrival runs, the second waits, the
    // third is shed.
    let config = AdmissionConfig { capacity: 1, ..AdmissionConfig::default() };
    let burst = [ask("mallory", 7), ask("mallory", 8), ask(&owner, 9)];
    let (outcomes, report) = reg.answer_open_loop(&pool, &burst, &merge_keys(), &config, None);
    assert_eq!(report.shed_edits, 1, "{report:?}");
    assert!(matches!(outcomes[2], RequestOutcome::Stale { .. }), "{outcomes:?}");
    let after = reg.shard_mut(&owner).provenance.disclosures_of(&owner);
    assert_eq!(after.len(), before.len() + 1, "one record per stale serve");
    let serve = after.last().unwrap();
    assert_eq!((serve.requester.as_str(), serve.when), (&*owner, 9));
}

/// A stale serve is disclosed under the purpose it is served for, not
/// the fill's. The ladder asks with `Purpose::Query`, so a view that an
/// open-loop `Purpose::Cache` request filled is recorded as a query
/// when the ladder serves it.
#[test]
fn a_stale_serve_records_the_purpose_it_was_served_under() {
    let (mut reg, pool, owner, ask) = open_loop_world();
    let mut fill = ask(&owner, 1);
    fill.request.purpose = Purpose::Cache;
    let config = AdmissionConfig::default();
    let (outcomes, _) = reg.answer_open_loop(&pool, &[fill], &merge_keys(), &config, None);
    assert!(matches!(outcomes[0], RequestOutcome::Answer(Ok(_))), "{outcomes:?}");
    let g = reg.shard_mut(&owner);
    let filled = g.provenance.disclosures_of(&owner);
    assert_eq!(filled.last().unwrap().purpose, Purpose::Cache);

    // No budget: the ladder runs no rung and goes straight to the stale
    // rung, so the network is never asked.
    let w = world();
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, 7);
    rex.budget = SimTime::ZERO;
    let book = p(&format!("/user[@id='{owner}']/address-book"));
    let run = rex
        .fetch(g, &pool, &owner, &book, &owner, WeekTime::at(1, 10, 0), 5, &merge_keys())
        .unwrap();
    assert_eq!(run.served, ServedVia::StaleCache);
    let after = g.provenance.disclosures_of(&owner);
    assert_eq!(after.len(), filled.len() + 1, "one record per stale serve");
    let serve = after.last().unwrap();
    assert_eq!((serve.when, serve.purpose), (5, Purpose::Query));
    assert_eq!(serve.paths, filled.last().unwrap().paths);
}
