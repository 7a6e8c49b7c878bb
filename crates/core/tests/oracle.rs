//! The coverage trie, the fanout index and the sync plane against their
//! `gupster-oracle` references on small hand-built worlds. The seeded
//! differential suites in the root package run the same comparisons
//! over random populations.

use std::sync::Arc;

use gupster_core::{CoverageMap, Gupster, ShardedFanout, StorePool, SyncPlane};
use gupster_oracle::{naive_match, NaiveFanout, NaivePlane};
use gupster_policy::WeekTime;
use gupster_schema::gup_schema;
use gupster_store::{ChangeEvent, DataStore, StoreId, UpdateOp, XmlStore};
use gupster_sync::ReconcilePolicy;
use gupster_telemetry::TelemetryHub;
use gupster_xml::{parse, EditOp, Element, MergeKeys, NodePath};
use gupster_xpath::Path;

fn p(s: &str) -> Path {
    Path::parse(s).unwrap()
}

fn sid(s: &str) -> StoreId {
    StoreId::new(s)
}

#[test]
fn indexed_match_reports_stats_and_agrees_with_naive() {
    let mut cov = CoverageMap::new();
    for i in 0..50 {
        cov.register(p(&format!("/user/address-book/item[@id='{i}']")), sid("s"));
    }
    cov.register(p("/user/presence"), sid("s2"));
    let req = p("/user/address-book/item[@id='7']");
    let (m, stats) = cov.match_request_with_stats(&req);
    assert!(stats.used_index);
    assert_eq!(stats.registered, 51);
    assert!(stats.candidates <= 2, "point lookup must prune: {stats:?}");
    assert_eq!(m, naive_match(&cov, &req));
    // Wildcard request: naive fallback, still identical semantics.
    let wild = p("//item");
    let (m, stats) = cov.match_request_with_stats(&wild);
    assert!(!stats.used_index);
    assert_eq!(stats.candidates, 51);
    assert_eq!(m, naive_match(&cov, &wild));
}

#[test]
fn index_stays_correct_after_unregister_shifts_indices() {
    let mut cov = CoverageMap::new();
    cov.register(p("/user/presence"), sid("s1"));
    cov.register(p("/user/address-book"), sid("s2"));
    cov.register(p("/user/calendar"), sid("s3"));
    assert!(cov.unregister(&p("/user/presence"), &sid("s1")));
    for req in ["/user/address-book", "/user/calendar", "/user/presence"] {
        assert_eq!(cov.match_request(&p(req)), naive_match(&cov, &p(req)), "{req}");
    }
    assert_eq!(cov.match_request(&p("/user/calendar")).full[0].0, sid("s3"));
}

fn fanout_world() -> (Gupster, StorePool) {
    let mut g = Gupster::new(gup_schema(), b"k");
    let mut s = XmlStore::new("gup.spcs.com");
    s.put_profile(
        parse(r#"<user id="alice"><presence>online</presence><address-book/></user>"#).unwrap(),
    )
    .unwrap();
    s.drain_events();
    g.register_component("alice", p("/user[@id='alice']/presence"), sid("gup.spcs.com")).unwrap();
    g.register_component("alice", p("/user[@id='alice']/address-book"), sid("gup.spcs.com"))
        .unwrap();
    let mut pool = StorePool::new();
    pool.add(Box::new(s));
    (g, pool)
}

#[test]
fn indexed_matches_naive_on_the_seed_world() {
    let (mut g, mut pool) = fanout_world();
    let mut subs = ShardedFanout::new(1);
    let mut naive = NaiveFanout::new();
    for scope in [p("/user[@id='alice']/presence"), p("/user[@id='alice']")] {
        let id = subs.subscribe(&mut g, "alice", &scope, "alice", WeekTime::at(0, 9, 0), 0).unwrap();
        naive.subscribe(id, "alice", &scope, "alice");
    }
    pool.update(
        &StoreId::new("gup.spcs.com"),
        "alice",
        &UpdateOp::SetText(p("/user/presence"), "busy".into()),
    )
    .unwrap();
    let events: Vec<ChangeEvent> = pool.drain_all_events().map(|(_, e)| e).collect();
    for e in &events {
        let fast = subs.on_event(e);
        let slow = naive.on_event(e);
        assert_eq!(fast.notifications, slow.notifications);
        assert!(fast.indexed);
        assert!(fast.examined <= slow.examined);
    }
}

fn set_name(v: &str) -> EditOp {
    EditOp::SetText {
        path: NodePath::root().keyed("item", "id", "1").child("name", 0),
        text: v.into(),
    }
}

#[test]
fn oracle_plane_matches_delta_outcomes() {
    let book = || parse(r#"<address-book><item id="1"><name>Mom</name></item></address-book>"#).unwrap();
    let keys = || MergeKeys::new().with_key("item", "id");
    let hub = Arc::new(TelemetryHub::new());
    let mut plane = SyncPlane::new(2, ReconcilePolicy::LastWriterWins);
    let mut oracle = NaivePlane::new(ReconcilePolicy::LastWriterWins);
    for i in 0..4 {
        let owner = format!("user{i}");
        plane.add_user(&owner, book(), keys(), 2);
        oracle.add_user(&owner, book(), keys(), 2);
        for (device, text) in [(0, "left"), (1, "right")] {
            plane.edit_device(&owner, device, set_name(text)).unwrap();
            oracle.edit_device(&owner, device, set_name(text)).unwrap();
        }
    }
    let delta = plane.reconcile(&hub);
    let naive = oracle.reconcile();
    let delta_docs: Vec<Element> =
        (0..4).map(|i| plane.hub_doc(&format!("user{i}")).root_element()).collect();
    let naive_docs: Vec<Element> =
        (0..4).map(|i| oracle.hub_doc(&format!("user{i}")).root_element()).collect();
    assert_eq!(delta_docs, naive_docs, "converged documents must be byte-identical");
    assert_eq!(delta.conflicts, naive.conflicts);
    assert_eq!(delta.converged_users, naive.converged_users);
    assert_eq!(delta.shipped, naive.shipped);
    assert!(delta.compared <= naive.compared);
    assert!(delta.bytes_exchanged <= naive.bytes_exchanged);
}
