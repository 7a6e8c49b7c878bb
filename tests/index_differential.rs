//! Seeded differential suite for the indexed lookup fast path
//! (DESIGN.md §7): across random coverage maps, wildcard mixes, rule
//! sets and priorities, the path-trie `CoverageMap::match_request` and
//! the bucketed `Pdp::decide` must stay byte-identical to the retained
//! naive implementations — including under registration churn and the
//! E15 fault ladder's chaining/recruiting fallbacks.

use std::collections::HashMap;

use gupster::core::patterns::PatternExecutor;
use gupster::core::{CoverageMap, Gupster, ResilientExecutor, StorePool};
use gupster::netsim::{Domain, FaultRates, FaultSchedule, Network, SimTime};
use gupster::policy::{
    Condition, Effect, Pdp, PolicyRepository, RequestContext, Rule, WeekTime,
};
use gupster::schema::gup_schema;
use gupster::store::StoreId;
use gupster::xml::{Element, MergeKeys};
use gupster::xpath::Path;
use gupster_rng::check::cases;
use gupster_rng::{Rng, StdRng};

const SEGMENTS: [&str; 7] =
    ["address-book", "item", "presence", "devices", "device", "calendar", "name"];
const CONDITIONS: [&str; 6] = [
    "true",
    "relationship='family'",
    "purpose='query'",
    "relationship='boss' or relationship='family'",
    "relationship='co-worker' and time in Mon-Fri 09:00-18:00",
    "not relationship='third-party'",
];
const RELATIONSHIPS: [&str; 5] = ["family", "boss", "co-worker", "friend", "third-party"];

/// One random step: a name from the alphabet, sometimes a `*` wildcard,
/// sometimes an `[@id=…]` predicate.
fn step(r: &mut StdRng) -> String {
    if r.gen_range(0..8) == 0 {
        return "*".to_string();
    }
    let mut s = (*r.pick(&SEGMENTS)).to_string();
    if r.gen_range(0..3) == 0 {
        s.push_str(&format!("[@id='{}']", r.gen_range(0..5)));
    }
    s
}

/// `/user/<step>{min..=max}` — the shape every registration, request
/// and rule scope in the system takes.
fn rand_path(r: &mut StdRng, min: usize, max: usize) -> Path {
    let mut text = String::from("/user");
    for _ in 0..r.gen_range(min..max + 1) {
        text.push('/');
        text.push_str(&step(r));
    }
    Path::parse(&text).expect("generator emits valid syntax")
}

// The explicit deref is load-bearing: without it `Rng::pick` infers
// its item type as unsized `str` and the call fails to compile.
#[allow(clippy::explicit_auto_deref)]
fn rand_ctx(r: &mut StdRng) -> RequestContext<'static> {
    RequestContext::query(
        "rick",
        *r.pick(&RELATIONSHIPS),
        WeekTime::at(r.gen_range(0..7), r.gen_range(0..24), 0),
    )
}

#[test]
fn trie_match_is_byte_identical_to_naive_scan() {
    cases(250, 0xC0FE, |r| {
        let mut cov = CoverageMap::new();
        for _ in 0..r.gen_range(0..25) {
            cov.register(rand_path(r, 1, 4), StoreId::new(format!("s{}", r.gen_range(0..5))));
        }
        for _ in 0..8 {
            let q = rand_path(r, 1, 4);
            let naive = cov.match_request_naive(&q);
            assert_eq!(cov.match_request(&q), naive, "query {q} over {} entries", cov.entries().len());
            let (m, stats) = cov.match_request_with_stats(&q);
            assert_eq!(m, naive);
            assert!(
                stats.candidates <= cov.registration_count(),
                "index examined more than the naive scan would"
            );
        }
    });
}

#[test]
fn trie_match_survives_register_unregister_churn() {
    cases(120, 0x17E, |r| {
        let mut cov = CoverageMap::new();
        let mut live: Vec<(Path, StoreId)> = Vec::new();
        for round in 0..6 {
            // Mutate: mostly register, sometimes drop a live entry or a
            // whole store (the recruiting/decommissioning shapes).
            for _ in 0..r.gen_range(1..6) {
                match r.gen_range(0..10) {
                    0..=6 => {
                        let p = rand_path(r, 1, 3);
                        let s = StoreId::new(format!("s{}", r.gen_range(0..4)));
                        cov.register(p.clone(), s.clone());
                        live.push((p, s));
                    }
                    7..=8 if !live.is_empty() => {
                        let (p, s) = live.swap_remove(r.gen_range(0..live.len()));
                        cov.unregister(&p, &s);
                        live.retain(|(lp, ls)| !(lp == &p && ls == &s));
                    }
                    _ => {
                        let s = StoreId::new(format!("s{}", r.gen_range(0..4)));
                        cov.unregister_store(&s);
                        live.retain(|(_, ls)| ls != &s);
                    }
                }
            }
            for _ in 0..4 {
                let q = rand_path(r, 1, 3);
                assert_eq!(
                    cov.match_request(&q),
                    cov.match_request_naive(&q),
                    "round {round}, query {q}"
                );
            }
        }
    });
}

#[test]
fn bucketed_decide_is_byte_identical_to_full_scan() {
    let pdp = Pdp::new();
    cases(250, 0xDEC1DE, |r| {
        let mut repo = PolicyRepository::new();
        let n = r.gen_range(0..18);
        for j in 0..n {
            let cond = *r.pick(&CONDITIONS);
            repo.put(
                "alice",
                Rule {
                    id: format!("r{j}"),
                    scope: rand_path(r, 1, 3),
                    condition: Condition::parse(cond).expect("static"),
                    effect: if r.gen_range(0..4) == 0 { Effect::Deny } else { Effect::Permit },
                    priority: r.gen_range(0..7) - 3,
                },
            );
        }
        // Churn a few removals so the rebuilt index is also exercised.
        for _ in 0..r.gen_range(0..3) {
            if n > 0 {
                repo.remove("alice", &format!("r{}", r.gen_range(0..n)));
            }
        }
        for _ in 0..6 {
            let q = rand_path(r, 1, 3);
            let ctx = rand_ctx(r);
            let (d, cost) = pdp.decide_with_cost(&repo, "alice", &q, &ctx);
            let (dn, cost_n) = pdp.decide_with_cost_naive(&repo, "alice", &q, &ctx);
            assert_eq!(d, dn, "query {q}, ctx {ctx:?}");
            assert!(cost.rules_considered <= cost_n.rules_considered);
        }
    });
}

/// The E15 interplay: a chaos run (link flaps, node outages, latency
/// spikes) with registration churn and PAP writes between requests.
/// The churn re-registers what it removes, so the semantic coverage
/// never changes — every fresh or stale answer must stay byte-identical
/// to the fault-free reference, and the trie must agree with the naive
/// scan after every mutation.
#[test]
fn indexes_stay_correct_under_the_fault_ladder() {
    const REQUESTS: usize = 25;
    let keys = MergeKeys::new().with_key("item", "id");
    let request = Path::parse("/user[@id='alice']/address-book").unwrap();
    let t = WeekTime::at(0, 12, 0);

    for seed in 0..12u64 {
        let mut net = Network::new(seed);
        let client = net.add_node("phone", Domain::Client);
        let gupster_node = net.add_node("gupster.net", Domain::Internet);
        let mut gupster = Gupster::new(gup_schema(), b"chaos");
        let mut pool = StorePool::new();
        let mut fault_nodes = vec![client, gupster_node];
        let mut node_map = HashMap::new();
        let mut slices: Vec<(Path, StoreId)> = Vec::new();
        for s in 0..3 {
            let label = format!("store{s}.net");
            let node = net.add_node(label.clone(), Domain::Internet);
            fault_nodes.push(node);
            let mut store = gupster::store::XmlStore::new(label.clone());
            let mut doc = Element::new("user").with_attr("id", "alice");
            let mut book = Element::new("address-book");
            for i in (s..30).step_by(3) {
                book.push_child(
                    Element::new("item")
                        .with_attr("id", i.to_string())
                        .with_attr("type", format!("slice{s}"))
                        .with_child(Element::new("name").with_text(format!("Contact {i}"))),
                );
            }
            doc.push_child(book);
            store.put_profile(doc).unwrap();
            let path =
                Path::parse(&format!("/user[@id='alice']/address-book/item[@type='slice{s}']"))
                    .unwrap();
            let sid = StoreId::new(label.clone());
            gupster.register_component("alice", path.clone(), sid.clone()).unwrap();
            slices.push((path, sid));
            node_map.insert(StoreId::new(label), node);
            pool.add(Box::new(store));
        }

        let exec = PatternExecutor { net: &net, client, gupster_node, store_nodes: node_map };
        let mut rex = ResilientExecutor::new(exec, seed).with_budget(SimTime::secs(3));
        let reference = rex
            .fetch(&mut gupster, &pool, "alice", &request, "alice", t, 0, &keys)
            .expect("fault-free reference")
            .result;

        let rates = FaultRates::links(0.08).with_node_outages(0.02).with_latency_spikes(0.02);
        let gap = SimTime::millis(150);
        let horizon = SimTime(gap.0 * (REQUESTS as u64 + 5));
        net.install_faults(FaultSchedule::generate(seed, &rates, &fault_nodes, horizon));

        let mut answered = 0usize;
        for i in 0..REQUESTS {
            net.advance(gap);
            // Churn: drop every slice registration and re-register them
            // in the original order (stores leaving and being
            // re-recruited; order preserved so the merged answer stays
            // byte-identical), plus a PAP write that bumps the policy
            // generation and flushes the memo.
            for (p, s) in &slices {
                assert!(gupster.unregister_component("alice", p, s));
            }
            for (p, s) in &slices {
                gupster.register_component("alice", p.clone(), s.clone()).unwrap();
            }
            gupster
                .pap
                .provision("alice", "churn", Effect::Permit, "/user/wallet", "true", 0)
                .unwrap();
            let cov = gupster.coverage_of("alice").expect("registered");
            assert_eq!(
                cov.match_request(&request),
                cov.match_request_naive(&request),
                "seed {seed} req {i}: trie diverged after churn"
            );

            if let Ok(run) =
                rex.fetch(&mut gupster, &pool, "alice", &request, "alice", t, 1 + i as u64, &keys)
            {
                assert_eq!(run.result, reference, "seed {seed} req {i}: wrong answer under churn");
                answered += 1;
            }
        }
        assert!(answered > 0, "seed {seed}: every chaotic request failed");
    }
}
