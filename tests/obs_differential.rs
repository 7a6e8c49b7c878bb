//! Differential suite for the observability plane (DESIGN.md §9).
//!
//! The contract under test: the merged fleet section of an
//! [`ObsSnapshot`] — counters, stage histograms, exemplar top-k, hot
//! keys — is a function of the *workload*, not of the deployment
//! layout. For a seeded request stream it must be byte-identical
//! across shard counts.

use gupster::core::{ShardRequest, ShardedRegistry, StorePool};
use gupster::policy::{Purpose, WeekTime};
use gupster::schema::gup_schema;
use gupster::store::{StoreId, XmlStore};
use gupster::telemetry::{ObsSnapshot, SimTime};
use gupster::xml::{Element, MergeKeys};
use gupster::xpath::Path;

fn p(s: &str) -> Path {
    Path::parse(s).unwrap()
}

const USERS: usize = 24;

fn user(i: usize) -> String {
    format!("user{i:02}")
}

/// Every user's presence plus a split address book on three stores.
fn provision(reg: &mut ShardedRegistry) {
    for i in 0..USERS {
        let u = user(i);
        reg.register_component(
            &u,
            p(&format!("/user[@id='{u}']/presence")),
            StoreId::new(format!("store{}", i % 3)),
        )
        .unwrap();
        reg.register_component(
            &u,
            p(&format!("/user[@id='{u}']/address-book/item[@type='personal']")),
            StoreId::new(format!("store{}", (i + 1) % 3)),
        )
        .unwrap();
        reg.register_component(
            &u,
            p(&format!("/user[@id='{u}']/address-book/item[@type='corporate']")),
            StoreId::new(format!("store{}", (i + 2) % 3)),
        )
        .unwrap();
    }
}

fn build_pool() -> StorePool {
    let mut stores: Vec<XmlStore> = (0..3).map(|j| XmlStore::new(format!("store{j}"))).collect();
    for i in 0..USERS {
        let u = user(i);
        let mut doc = Element::new("user").with_attr("id", u.clone());
        doc.push_child(Element::new("presence").with_text(format!("online-{i}")));
        stores[i % 3].put_profile(doc).unwrap();

        let mut doc = Element::new("user").with_attr("id", u.clone());
        let mut book = Element::new("address-book");
        book.push_child(
            Element::new("item")
                .with_attr("id", "p0")
                .with_attr("type", "personal")
                .with_child(Element::new("name").with_text(format!("Friend of {u}"))),
        );
        doc.push_child(book);
        stores[(i + 1) % 3].put_profile(doc).unwrap();

        let mut doc = Element::new("user").with_attr("id", u.clone());
        let mut book = Element::new("address-book");
        book.push_child(
            Element::new("item")
                .with_attr("id", "c0")
                .with_attr("type", "corporate")
                .with_child(Element::new("name").with_text(format!("Desk of {u}"))),
        );
        doc.push_child(book);
        stores[(i + 2) % 3].put_profile(doc).unwrap();
    }
    let mut pool = StorePool::new();
    for s in stores {
        pool.add(Box::new(s));
    }
    pool
}

/// A deterministic stream with duplicates (singleflight fodder),
/// merged answers (the tail the exemplars must catch) and a hot user.
fn request_stream(n: usize) -> Vec<ShardRequest> {
    (0..n)
        .map(|op| {
            // Every fifth request repeats the previous op's owner —
            // in-window duplicates for the singleflight table.
            let u = if op % 5 == 4 { user((op - 1) * 7 % USERS) } else { user(op * 7 % USERS) };
            let path = match op % 5 {
                2 | 3 => format!("/user[@id='{u}']/address-book"),
                _ => format!("/user[@id='{u}']/presence"),
            };
            ShardRequest {
                owner: u.clone(),
                path: p(&path),
                requester: u,
                purpose: Purpose::Query,
                time: WeekTime::at(1, 10, 0),
                now: op as u64,
            }
        })
        .collect()
}

/// Runs the stream in two scatter windows and snapshots.
fn snapshot(
    requests: &[ShardRequest],
    shards: usize,
    exemplar_threshold: SimTime,
    cap: usize,
) -> ObsSnapshot {
    let pool = build_pool();
    let keys = MergeKeys::new().with_key("item", "id");
    let mut reg = ShardedRegistry::new(gup_schema(), b"obs", shards);
    provision(&mut reg);
    reg.set_span_limit(0);
    reg.set_exemplar_policy(exemplar_threshold, cap);
    for window in requests.chunks(requests.len().div_ceil(2).max(1)) {
        let (results, _) = reg.answer_batch(&pool, window, &keys, true);
        assert!(results.iter().all(Result::is_ok), "workload is fault-free");
    }
    reg.obs_snapshot()
}

#[test]
fn fleet_snapshot_byte_identical_across_shard_counts() {
    let requests = request_stream(160);
    // Tail threshold between the presence path (~3 stage costs) and
    // the merged two-store answer — only merged answers exemplify.
    let threshold = SimTime::micros(100);
    let base = snapshot(&requests, 1, threshold, 6);
    assert!(!base.fleet.exemplars.is_empty(), "threshold must catch the merged tail");
    assert_eq!(base.fleet.requests, 160);
    assert!(base.fleet.totals.batched_fetches > 0, "merged answers fetch per store");
    let base_json = base.fleet_json();
    for shards in [2usize, 4, 8] {
        let snap = snapshot(&requests, shards, threshold, 6);
        assert_eq!(
            base_json,
            snap.fleet_json(),
            "fleet section diverged at {shards} shards"
        );
        // The layout section is allowed — required, even — to differ.
        assert_eq!(snap.shards.len(), shards);
        let busy_sum: u64 = snap.shards.iter().map(|s| s.busy.0).sum();
        assert_eq!(busy_sum, snap.fleet.busy.0, "shard busy times must partition fleet busy");
    }
}

#[test]
fn exemplar_selection_is_shard_count_invariant() {
    let requests = request_stream(160);
    let threshold = SimTime::micros(100);
    let base = snapshot(&requests, 1, threshold, 4);
    for shards in [2usize, 8] {
        let snap = snapshot(&requests, shards, threshold, 4);
        let keys = |s: &ObsSnapshot| -> Vec<(u64, SimTime, String)> {
            s.fleet
                .exemplars
                .iter()
                .map(|e| (e.key, e.duration, e.provenance.clone()))
                .collect()
        };
        assert_eq!(keys(&base), keys(&snap), "exemplar top-k diverged at {shards} shards");
        // Keys are global submission indices, not per-shard ids.
        for e in &snap.fleet.exemplars {
            assert!((e.key as usize) < requests.len());
        }
    }
}

#[test]
fn snapshot_survives_its_own_codec() {
    let requests = request_stream(80);
    let snap = snapshot(&requests, 4, SimTime::micros(100), 4);
    let text = snap.render_json();
    let back = ObsSnapshot::parse_json(&text).unwrap();
    assert_eq!(back.render_json(), text, "render∘parse must be the identity on artifacts");
    assert_eq!(back.fleet_json(), snap.fleet_json());
}
