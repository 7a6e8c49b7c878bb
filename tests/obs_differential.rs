//! Differential suite for the observability plane (DESIGN.md §9).
//!
//! The contract under test: the merged fleet section of an
//! [`ObsSnapshot`] — counters, stage histograms, exemplar top-k, hot
//! keys — is a function of the *workload*, not of the deployment
//! layout. For a seeded request stream it must be byte-identical
//! across shard counts.

use gupster::core::{
    fetch_merge_traced, AdmissionConfig, OpenLoopRequest, Priority, ShardRequest, ShardedRegistry,
    StorePool,
};
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
/// merged answers and a hot user.
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

/// Runs the stream open-loop, 50µs apart, in two runs, and snapshots.
/// A presence read is a call delivery and a book a bulk read, so each
/// admitted request's trace lasts its class's service time: the merged
/// books are the tail the exemplars must catch.
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
    for run in requests.chunks(requests.len().div_ceil(2).max(1)) {
        let arrivals: Vec<OpenLoopRequest> = (0..)
            .zip(run)
            .map(|(i, r)| OpenLoopRequest {
                class: if is_book(r) { Priority::ProfileEdit } else { Priority::CallDelivery },
                request: r.clone(),
                arrival: SimTime::micros(50 * i),
            })
            .collect();
        let config = AdmissionConfig::default();
        let (outcomes, report) = reg.answer_open_loop(&pool, &arrivals, &keys, &config, None);
        assert_eq!(report.fresh as usize, outcomes.len(), "workload is fault-free and admitted");
    }
    reg.obs_snapshot()
}

fn is_book(r: &ShardRequest) -> bool {
    r.path.to_string().ends_with("/address-book")
}

#[test]
fn fleet_snapshot_byte_identical_across_shard_counts() {
    let requests = request_stream(160);
    // Tail threshold between the call and bulk service times — only
    // merged answers exemplify.
    let threshold = SimTime::micros(100);
    let base = snapshot(&requests, 1, threshold, 6);
    assert!(!base.fleet.exemplars.is_empty(), "threshold must catch the merged tail");
    assert_eq!(base.fleet.requests, 160);
    assert!(base.fleet.totals.batched_fetches > 0, "merged answers fetch per store");
    // Each book is split over two stores: one round each.
    let books = requests.iter().filter(|r| is_book(r)).count() as u64;
    assert_eq!(base.fleet.totals.batched_fetches, 2 * books);
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

/// Only netsim legs and the admission service table advance simulated
/// time (DESIGN.md §10): a read's CPU stages open their spans, one per
/// stage as before, but every span is zero-width.
#[test]
fn a_warm_read_advances_no_simulated_time() {
    let pool = build_pool();
    let keys = MergeKeys::new().with_key("item", "id");
    let at = WeekTime::at(1, 10, 0);

    // One traced read of a book split over two stores, warm: its lookup
    // has run once already.
    let mut reg = ShardedRegistry::new(gup_schema(), b"obs", 1);
    provision(&mut reg);
    let u = user(0);
    let book = p(&format!("/user[@id='{u}']/address-book"));
    let g = reg.shard_mut(&u);
    g.lookup(&u, &book, &u, Purpose::Query, at, 0).unwrap();
    let out = g.lookup(&u, &book, &u, Purpose::Query, at, 1).unwrap();
    assert_ne!(out.referral.entries[0].store, out.referral.entries[1].store);
    let hub = g.telemetry();
    let mut tracer = hub.tracer("test.read");
    let answer: Vec<Element> =
        fetch_merge_traced(&pool, &out.referral, &g.signer(), 1, &keys, &mut tracer).unwrap();
    assert_eq!(answer.len(), 1);
    assert_eq!(tracer.now(), SimTime::ZERO);
    drop(tracer);
    // Two lookups, then the read: one span per stage as before, the
    // read's two store rounds included.
    let stages: Vec<(String, u64)> =
        hub.stage_histograms().into_iter().map(|(s, h)| (s, h.count())).collect();
    let expected = [
        ("coverage.index", 2),
        ("coverage.match", 2),
        ("fetch.merge", 1),
        ("policy.decide", 2),
        ("query.rewrite", 2),
        ("registry.lookup", 2),
        ("store.fetch", 2),
        ("test.read", 1),
        ("token.sign", 2),
        ("token.verify", 1),
        ("xml.merge", 1),
        ("xml.parse", 1),
        ("xml.serialize", 1),
    ];
    assert_eq!(stages, expected.map(|(s, n)| (s.to_string(), n)));
    for (stage, h) in hub.stage_histograms() {
        assert_eq!(h.max(), SimTime::ZERO, "{stage} advanced simulated time");
    }

    // One answer_batch window: one span per stage run, the counts the
    // benchmark's traced runs read.
    let mut reg = ShardedRegistry::new(gup_schema(), b"obs", 1);
    provision(&mut reg);
    let (results, _) = reg.answer_batch(&pool, &request_stream(160), &keys, true);
    assert!(results.iter().all(Result::is_ok));
    let snap = reg.obs_snapshot();
    let counts: Vec<(&str, u64)> = snap.fleet.stages.iter().map(|r| (&*r.stage, r.stats.count)).collect();
    assert_eq!(
        counts,
        [
            ("coverage.index", 48),
            ("coverage.match", 48),
            ("fetch.singleflight", 112),
            ("policy.decide", 48),
            ("query.rewrite", 48),
            ("registry.lookup", 48),
            ("shard.request", 160),
            ("store.fetch", 72),
            ("token.sign", 48),
            ("token.verify", 48),
            ("xml.merge", 48),
            ("xml.parse", 48),
            ("xml.serialize", 48),
        ]
    );
    for row in &snap.fleet.stages {
        assert_eq!(row.stats.max, SimTime::ZERO, "{} advanced simulated time", row.stage);
    }
}
