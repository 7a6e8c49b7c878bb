//! Integration test for the graceful-degradation ladder: kill the
//! referred store's links mid-stream and watch the request degrade
//! referral → chaining → stale-cache, in order, with provenance
//! marking the stage that answered.

mod common;

use common::{book_request as request, fault_world, keys as merge_keys, FaultWorld};
use gupster::core::patterns::{PatternExecutor, QueryPattern};
use gupster::core::{GupsterError, ResilientExecutor, ServedVia};
use gupster::netsim::{FaultSchedule, SimTime};
use gupster::policy::WeekTime;
use gupster::telemetry::stage;

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
        batch_fetches: false,
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
        batch_fetches: false,
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
        batch_fetches: false,
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
        batch_fetches: false,
    };
    let mut rex = ResilientExecutor::new(exec, 7);
    let t = WeekTime::at(0, 12, 0);
    for i in 0..1_000 {
        let caller = format!("caller{i:04}");
        rex.fetch(&mut w.gupster, &w.pool, "alice", &request(), &caller, t, 0, &keys).unwrap();
    }
    // The stale cache is bounded to 256 views. Everything the executor
    // retains, not just the cache's own count: no side table may
    // remember an evicted view.
    assert_eq!(rex.stale_cache().len(), 256);
    let retained = format!("{rex:?}");
    let remembered: std::collections::BTreeSet<&str> =
        retained.match_indices("caller").filter_map(|(at, _)| retained.get(at..at + 10)).collect();
    assert_eq!(remembered.len(), 256, "evicted views must leave nothing behind");
}
