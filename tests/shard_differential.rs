//! Differential suite for the sharded scatter-gather executor and the
//! per-store (batched) fetch path (DESIGN.md §8).
//!
//! The contract under test: sharding is a pure *execution*
//! optimization — for a seeded workload the referrals, answers and
//! errors must be byte-identical to the sequential path at every shard
//! count — and the resilience ladder's per-store fetches replay
//! byte-identically under an injected fault schedule.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{build_pool, keys, p, provision, request_stream};
use gupster::core::patterns::PatternExecutor;
use gupster::core::cache::CachedClient;
use gupster::core::{fetch_merge, Gupster, ResilientExecutor, ShardRequest, ShardedRegistry, StorePool};
use gupster::netsim::{FaultRates, FaultSchedule, LatencyModel, SimTime};
use gupster::netsim::{Domain, Network, NodeId};
use gupster::policy::{Effect, Purpose, WeekTime};
use gupster::schema::gup_schema;
use gupster::store::{
    Capabilities, ChangeEvent, DataStore, Fragment, StoreError, StoreId, UpdateOp, XmlStore,
};
use gupster::xml::Element;
use gupster::xpath::Path;

// ------------------------------------------- sequential vs. sharded —

#[test]
fn sharded_lookups_byte_identical_to_sequential() {
    let requests = request_stream(120);
    let mut seq = Gupster::new(gup_schema(), b"diff");
    provision(|u, path, store| seq.register_component(u, path, store).unwrap());
    let expected: Vec<String> = requests
        .iter()
        .map(|r| {
            match seq.lookup(&r.owner, &r.path, &r.requester, r.purpose, r.time, r.now) {
                Ok(out) => format!("{:?}", out.referral),
                Err(e) => format!("{e:?}"),
            }
        })
        .collect();

    for shards in [1usize, 2, 8] {
        let mut reg = ShardedRegistry::new(gup_schema(), b"diff", shards);
        provision(|u, path, store| reg.register_component(u, path, store).unwrap());
        let (results, report) = reg.lookup_batch(&requests);
        let got: Vec<String> = results
            .iter()
            .map(|r| match r {
                Ok(out) => format!("{:?}", out.referral),
                Err(e) => format!("{e:?}"),
            })
            .collect();
        assert_eq!(expected, got, "lookup stream diverged at {shards} shards");
        assert_eq!(report.shard_sim.len(), shards);
        assert!(report.makespan <= report.total_sim);
    }
}

#[test]
fn sharded_answers_byte_identical_across_shards_and_batching() {
    let requests = request_stream(120);
    let pool = build_pool();
    let keys = keys();

    // Sequential oracle: one registry, plain fetch_merge.
    let mut seq = Gupster::new(gup_schema(), b"diff");
    provision(|u, path, store| seq.register_component(u, path, store).unwrap());
    let signer = seq.signer();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| {
            match seq
                .lookup(&r.owner, &r.path, &r.requester, r.purpose, r.time, r.now)
                .and_then(|out| fetch_merge(&pool, &out.referral, &signer, r.now, &keys))
            {
                Ok(elems) => format!("{elems:?}"),
                Err(e) => format!("{e:?}"),
            }
        })
        .collect();

    let mut sim_makespans = Vec::new();
    for shards in [1usize, 2, 8] {
        let mut reg = ShardedRegistry::new(gup_schema(), b"diff", shards);
        provision(|u, path, store| reg.register_component(u, path, store).unwrap());
        let (results, report) = reg.answer_batch(&pool, &requests, &keys, true);
        let got: Vec<String> = results
            .iter()
            .map(|r| match r {
                Ok(elems) => format!("{elems:?}"),
                Err(e) => format!("{e:?}"),
            })
            .collect();
        assert_eq!(expected, got, "answer stream diverged at {shards} shards");
        sim_makespans.push((shards, report.makespan));
    }
    // More shards, shorter simulated makespan — the scaling direction
    // E17 measures at volume.
    let one = sim_makespans.iter().find(|(s, _)| *s == 1).unwrap().1;
    let eight = sim_makespans.iter().find(|(s, _)| *s == 8).unwrap().1;
    assert!(eight < one, "8 shards {eight:?} vs 1 shard {one:?}");
}

// -------------------------------------------------- singleflight —

/// A store wrapper counting reads — proof the singleflight table
/// actually deduplicates, not just that answers agree.
struct CountingStore {
    inner: XmlStore,
    queries: Arc<AtomicU64>,
}

impl DataStore for CountingStore {
    fn id(&self) -> &StoreId {
        self.inner.id()
    }
    fn fragments(&self, path: &Path) -> Result<Vec<Fragment<'_>>, StoreError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.fragments(path)
    }
    fn update(&mut self, user: &str, op: &UpdateOp) -> Result<(), StoreError> {
        self.inner.update(user, op)
    }
    fn users(&self) -> Vec<String> {
        self.inner.users()
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn drain_events(&mut self) -> Vec<ChangeEvent> {
        self.inner.drain_events()
    }
}

#[test]
fn duplicate_concurrent_fetches_hit_the_store_once() {
    let mut inner = XmlStore::new("s1");
    inner
        .put_profile(
            gupster::xml::parse(r#"<user id="alice"><presence>online</presence></user>"#).unwrap(),
        )
        .unwrap();
    let queries = Arc::new(AtomicU64::new(0));
    let mut pool = StorePool::new();
    pool.add(Box::new(CountingStore { inner, queries: Arc::clone(&queries) }));

    let mut reg = ShardedRegistry::new(gup_schema(), b"sf", 1);
    reg.register_component("alice", p("/user[@id='alice']/presence"), StoreId::new("s1"))
        .unwrap();
    let requests: Vec<ShardRequest> = (0..6)
        .map(|_| ShardRequest {
            owner: "alice".to_string(),
            path: p("/user[@id='alice']/presence"),
            requester: "alice".to_string(),
            purpose: Purpose::Query,
            time: WeekTime::at(0, 12, 0),
            now: 5,
        })
        .collect();
    let (results, _) = reg.answer_batch(&pool, &requests, &keys(), true);
    for r in &results {
        assert_eq!(r.as_ref().unwrap()[0].text(), "online");
    }
    // One flight serves all six identical requests.
    assert_eq!(queries.load(Ordering::Relaxed), 1);
    assert_eq!(reg.counter_totals().singleflight_hits, 5);

    // A fresh batch is a fresh window: the table must not cache across
    // scatter windows (stores may change between them).
    let (_, _) = reg.answer_batch(&pool, &requests[..2], &keys(), true);
    assert_eq!(queries.load(Ordering::Relaxed), 2);
}

// ------------------------------------- fault ladder, batched fetches —

struct LadderWorld {
    net: Network,
    client: NodeId,
    gupster_node: NodeId,
    fault_nodes: Vec<NodeId>,
    store_nodes: std::collections::HashMap<StoreId, NodeId>,
    gupster: Gupster,
    pool: StorePool,
}

/// A 4-slice address book on 2 stores, shield-narrowed for rick so
/// referrals carry several fragments per store. All links use
/// `LatencyModel::fixed`, so two runs of one seed advance the simulated
/// clock identically and see the exact same fault windows — making
/// byte-identical outcomes a fair demand even under faults.
fn ladder_world(seed: u64) -> LadderWorld {
    const K: usize = 4;
    let mut net = Network::new(seed);
    let client = net.add_node("client", Domain::Client);
    let gupster_node = net.add_node("gupster.net", Domain::Internet);
    let mut gupster = Gupster::new(gup_schema(), b"lad");
    let mut pool = StorePool::new();
    let mut store_nodes = std::collections::HashMap::new();
    let mut fault_nodes = vec![client, gupster_node];
    for j in 0..K / 2 {
        let label = format!("store{j}.net");
        let node = net.add_node(label.clone(), Domain::Internet);
        fault_nodes.push(node);
        let mut store = XmlStore::new(label.clone());
        let mut doc = Element::new("user").with_attr("id", "alice");
        let mut book = Element::new("address-book");
        for s in (0..K).filter(|s| s / 2 == j) {
            for i in (s..24).step_by(K) {
                book.push_child(
                    Element::new("item")
                        .with_attr("id", i.to_string())
                        .with_attr("type", format!("slice{s}"))
                        .with_child(Element::new("name").with_text(format!("Contact {i}"))),
                );
            }
        }
        doc.push_child(book);
        store.put_profile(doc).unwrap();
        store_nodes.insert(StoreId::new(label), node);
        pool.add(Box::new(store));
    }
    for s in 0..K {
        gupster
            .register_component(
                "alice",
                p(&format!("/user[@id='alice']/address-book/item[@type='slice{s}']")),
                StoreId::new(format!("store{}.net", s / 2)),
            )
            .unwrap();
    }
    gupster.set_relationship("alice", "rick", "co-worker");
    gupster
        .pap
        .provision(
            "alice",
            "cw-items",
            Effect::Permit,
            "/user/address-book/item",
            "relationship='co-worker'",
            0,
        )
        .unwrap();
    for s in 0..K {
        gupster
            .pap
            .provision(
                "alice",
                &format!("cw-slice{s}"),
                Effect::Permit,
                &format!("/user/address-book/item[@type='slice{s}']"),
                "relationship='co-worker'",
                0,
            )
            .unwrap();
    }
    // Fixed latencies: transfer time no longer depends on bytes or leg
    // count, so batching cannot shift the fault timeline.
    let nodes: Vec<NodeId> = fault_nodes.clone();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            net.set_link(a, b, LatencyModel::fixed(SimTime::millis(8)));
        }
    }
    LadderWorld { net, client, gupster_node, fault_nodes, store_nodes, gupster, pool }
}

fn ladder_run(seed: u64) -> Vec<String> {
    const REQUESTS: usize = 80;
    let gap = SimTime::millis(200);
    let request = p("/user[@id='alice']/address-book");
    let mut w = ladder_world(seed);
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.store_nodes.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, seed).with_budget(SimTime::secs(2));
    rex.fetch(&mut w.gupster, &w.pool, "alice", &request, "rick", WeekTime::at(1, 10, 0), 0, &keys())
        .expect("fault-free warm-up");
    let rates = FaultRates::links(0.10).with_node_outages(0.02).with_latency_spikes(0.01);
    let horizon = SimTime(gap.0 * (REQUESTS as u64 + 5));
    w.net.install_faults(FaultSchedule::generate(seed, &rates, &w.fault_nodes, horizon));

    let mut outcomes = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        w.net.advance(gap);
        match rex.fetch(
            &mut w.gupster,
            &w.pool,
            "alice",
            &request,
            "rick",
            WeekTime::at(1, 10, 0),
            1 + i as u64,
            &keys(),
        ) {
            Ok(run) => {
                outcomes.push(format!(
                    "via={:?} stale={} wall={:?} result={:?}",
                    run.served, run.stale, run.wall, run.result
                ));
            }
            Err(e) => outcomes.push(format!("err={e:?}")),
        }
    }
    outcomes
}

#[test]
fn fault_ladder_batched_byte_identical_under_fixed_latency() {
    let first = ladder_run(42);
    let again = ladder_run(42);
    assert_eq!(first.len(), again.len());
    for (i, (a, b)) in first.iter().zip(&again).enumerate() {
        assert_eq!(a, b, "request {i} diverged under the fault ladder");
    }
    // The schedule actually bit (some requests degraded or failed) —
    // otherwise this proves nothing about the ladder.
    assert!(
        first.iter().any(|o| o.contains("err=") || !o.contains("via=Pattern(Referral)")),
        "fault schedule never interfered; weaken the seed check"
    );
    // And a different seed produces a different stream (the equality
    // above is not vacuous determinism).
    assert_ne!(first, ladder_run(43));
}

// --------------------------------- every entry point fetches per store —

/// Alice's address book as two components on one store, and two
/// permits for rick that split his request for it into two paths: his
/// referral lists two fragments, both bound for `s1`.
fn two_fragments_on_one_store(g: &mut Gupster) {
    for kind in ["personal", "corporate"] {
        let component = format!("/user[@id='alice']/address-book/item[@type='{kind}']");
        g.register_component("alice", p(&component), StoreId::new("s1")).unwrap();
    }
    g.set_relationship("alice", "rick", "co-worker");
    for (id, scope) in [
        ("cw-items", "/user/address-book/item"),
        ("cw-personal", "/user/address-book/item[@type='personal']"),
    ] {
        g.pap.provision("alice", id, Effect::Permit, scope, "relationship='co-worker'", 0).unwrap();
    }
}

fn one_store_pool() -> StorePool {
    let mut book = Element::new("address-book");
    for (id, kind) in [("1", "personal"), ("2", "corporate"), ("3", "personal")] {
        book.push_child(
            Element::new("item")
                .with_attr("id", id)
                .with_attr("type", kind)
                .with_child(Element::new("name").with_text(format!("Contact {id}"))),
        );
    }
    let mut store = XmlStore::new("s1");
    store.put_profile(Element::new("user").with_attr("id", "alice").with_child(book)).unwrap();
    let mut pool = StorePool::new();
    pool.add(Box::new(store));
    pool
}

/// The `store.fetch` spans and batched-fetch bumps `g`'s hub recorded.
fn fetch_rounds(g: &Gupster) -> (usize, u64) {
    let hub = g.telemetry();
    let spans = hub.spans().iter().filter(|s| s.stage == "store.fetch").count();
    (spans, hub.counter_snapshot().batched_fetches)
}

#[test]
fn every_fetch_entry_point_fetches_per_store() {
    let pool = one_store_pool();
    let request = p("/user[@id='alice']/address-book");
    let at = WeekTime::at(1, 10, 0);

    let mut g = Gupster::new(gup_schema(), b"one");
    two_fragments_on_one_store(&mut g);
    let out = g.lookup("alice", &request, "rick", Purpose::Query, at, 0).unwrap();
    assert!(out.referral.merge_required);
    assert_eq!(out.referral.entries.len(), 2);
    assert!(out.referral.entries.iter().all(|e| e.store == StoreId::new("s1")));
    let expected = fetch_merge(&pool, &out.referral, &g.signer(), 0, &keys()).unwrap();

    let mut g = Gupster::new(gup_schema(), b"one");
    two_fragments_on_one_store(&mut g);
    let answer = CachedClient::new(16, 60)
        .fetch(&mut g, &pool, "alice", &request, "rick", at, 0, &keys())
        .unwrap();
    assert_eq!(*answer, *expected);
    assert_eq!(fetch_rounds(&g), (1, 1), "CachedClient::fetch");

    let mut net = Network::new(1);
    let client = net.add_node("phone", Domain::Client);
    let gupster_node = net.add_node("gupster.net", Domain::Internet);
    let store_node = net.add_node("s1", Domain::Internet);
    let mut g = Gupster::new(gup_schema(), b"one");
    two_fragments_on_one_store(&mut g);
    let exec = PatternExecutor {
        net: &net,
        client,
        gupster_node,
        store_nodes: [(StoreId::new("s1"), store_node)].into_iter().collect(),
    };
    let run = ResilientExecutor::new(exec, 1)
        .fetch(&mut g, &pool, "alice", &request, "rick", at, 0, &keys())
        .unwrap();
    assert_eq!(*run.result, *expected);
    assert_eq!(fetch_rounds(&g), (1, 1), "ResilientExecutor::fetch");
    let m = net.metrics();
    assert_eq!((m.batched_rpcs, m.coalesced_fragments), (1, 2), "one RPC carries both fragments");

    let mut reg = ShardedRegistry::new(gup_schema(), b"one", 1);
    two_fragments_on_one_store(reg.shard_mut("alice"));
    let rick = ShardRequest {
        owner: "alice".to_string(),
        path: request.clone(),
        requester: "rick".to_string(),
        purpose: Purpose::Query,
        time: at,
        now: 0,
    };
    let (results, _) = reg.answer_batch(&pool, &[rick], &keys(), true);
    assert_eq!(**results[0].as_ref().unwrap(), *expected);
    assert_eq!(fetch_rounds(reg.shard("alice")), (1, 1), "ShardedRegistry::answer_batch");
}
