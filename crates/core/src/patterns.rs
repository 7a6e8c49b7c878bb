//! Distributed query patterns: referral, chaining, recruiting (§5.2).
//!
//! "Offering a larger variety of distributed query patterns like
//! chaining, referral, recruiting (where the request is actually
//! migrated to a different node) will be needed" — especially for thin
//! clients (a cell phone) that cannot merge fragments themselves.
//!
//! All three patterns produce the *same answer*; they move different
//! bytes across different links. The executor runs the real registry +
//! stores for correctness and charges the simulated network for costs,
//! so experiment E5 reports both. Whoever fetches — client, GUPster or
//! the recruited store — fetches per store: one coalesced RPC to each
//! destination store, whatever the number of fragments it holds.

use std::collections::HashMap;

use gupster_netsim::{Journey, Network, NodeId, SimTime};
use gupster_policy::{Purpose, WeekTime};
use gupster_store::StoreId;
use gupster_telemetry::{stage, RequestId, Tracer};
use gupster_xml::{Element, MergeKeys};
use gupster_xpath::Path;

use crate::client::{fetch_merge_traced, SharedAnswer, StorePool};
use crate::error::GupsterError;
use crate::registry::Gupster;

/// Which §5.2 pattern to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPattern {
    /// GUPster returns a referral; the client fetches and merges.
    Referral,
    /// GUPster fetches from the stores, merges, and returns data.
    Chaining,
    /// The request migrates to a capable data store, which fetches the
    /// other fragments, merges, and answers the client directly.
    Recruiting,
}

impl QueryPattern {
    /// The stage label of this pattern's root span — the three trees
    /// are shaped identically so experiment E5 can compare them per
    /// stage.
    pub(crate) fn stage(&self) -> &'static str {
        match self {
            QueryPattern::Referral => "pattern.referral",
            QueryPattern::Chaining => "pattern.chaining",
            QueryPattern::Recruiting => "pattern.recruiting",
        }
    }
}

/// The measured execution of one pattern.
#[derive(Debug, Clone)]
pub struct PatternRun {
    /// The merged result (identical across patterns).
    pub result: SharedAnswer,
    /// End-to-end wall clock.
    pub wall: SimTime,
    /// Result/fragment payload bytes that crossed the *client's* access
    /// link (thin clients care about exactly this).
    pub client_bytes: usize,
    /// Fragment bytes that flowed *through GUPster* (its scalability
    /// story depends on this staying near zero, §5.3).
    pub gupster_bytes: usize,
    /// Total one-way messages.
    pub messages: u64,
    /// The traced request id — the network's per-request hop list
    /// ([`gupster_netsim::Metrics::hops_of`]) and the trace export are
    /// both keyed by it.
    pub request: RequestId,
}

/// Executes query patterns over a simulated network.
#[derive(Debug)]
pub struct PatternExecutor<'a> {
    /// The network to charge.
    pub net: &'a Network,
    /// The client's node.
    pub client: NodeId,
    /// GUPster's node.
    pub gupster_node: NodeId,
    /// Where each store lives.
    pub store_nodes: HashMap<StoreId, NodeId>,
}

/// The fragment fan-out: groups per-fragment calls by destination node,
/// preserving first-seen order, into one `(node, request, response,
/// fragments)` call per distinct node for [`Journey::try_batch_rpcs`] —
/// the network side of the one fetch round per store that
/// [`fetch_merge_traced`] charges. The request carries one header plus
/// ~16 bytes per additional fragment path; the response carries the
/// group's summed fragment bytes.
fn group_calls(frag_bytes: &[(NodeId, usize)], header: usize) -> Vec<(NodeId, usize, usize, u64)> {
    let mut order: Vec<NodeId> = Vec::new();
    let mut agg: HashMap<NodeId, (usize, u64)> = HashMap::new();
    for (node, bytes) in frag_bytes {
        let slot = agg.entry(*node).or_insert_with(|| {
            order.push(*node);
            (0, 0)
        });
        slot.0 += *bytes;
        slot.1 += 1;
    }
    order
        .into_iter()
        .map(|node| {
            let (bytes, frags) = agg[&node];
            (node, header + 16 * (frags as usize - 1), bytes, frags)
        })
        .collect()
}

/// Local merge throughput: ~100 MB/s ⇒ 10 µs per KB.
fn merge_cost(bytes: usize) -> SimTime {
    SimTime::micros((bytes as u64).div_ceil(1024) * 10)
}

impl<'a> PatternExecutor<'a> {
    fn store_node(&self, id: &StoreId) -> Result<NodeId, GupsterError> {
        self.store_nodes
            .get(id)
            .copied()
            .ok_or_else(|| GupsterError::Store(format!("no node for store {id}")))
    }

    /// Runs one pattern end to end.
    ///
    /// The run is traced as one request: a `pattern.*` root span with
    /// the registry pipeline, the network legs (`net.lookup`,
    /// `net.fetch`, `net.return`) and the fetch/merge stages as
    /// children, and every simulated message tagged with the request id
    /// so the network's per-request hop list lines up with the trace.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        pattern: QueryPattern,
        gupster: &mut Gupster,
        pool: &StorePool,
        owner: &str,
        request: &Path,
        requester: &str,
        time: WeekTime,
        now: u64,
        keys: &MergeKeys,
    ) -> Result<PatternRun, GupsterError> {
        let hub = gupster.telemetry();
        let mut tracer = hub.tracer(pattern.stage());
        self.net.begin_request(tracer.request().0);
        let run = self.run_pattern(
            pattern, gupster, pool, owner, request, requester, time, now, keys, &mut tracer,
        );
        self.net.end_request();
        run
    }

    /// Runs one pattern nested under a caller-owned trace — the
    /// resilience layer uses this so every retry and fallback attempt
    /// of one request shares a single rooted span tree. The caller owns
    /// `begin_request`/`end_request` on the network.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_traced(
        &self,
        pattern: QueryPattern,
        gupster: &mut Gupster,
        pool: &StorePool,
        owner: &str,
        request: &Path,
        requester: &str,
        time: WeekTime,
        now: u64,
        keys: &MergeKeys,
        tracer: &mut Tracer,
    ) -> Result<PatternRun, GupsterError> {
        tracer.enter(pattern.stage());
        let run = self.run_pattern(
            pattern, gupster, pool, owner, request, requester, time, now, keys, tracer,
        );
        tracer.exit();
        run
    }

    #[allow(clippy::too_many_arguments)]
    fn run_pattern(
        &self,
        pattern: QueryPattern,
        gupster: &mut Gupster,
        pool: &StorePool,
        owner: &str,
        request: &Path,
        requester: &str,
        time: WeekTime,
        now: u64,
        keys: &MergeKeys,
        tracer: &mut Tracer,
    ) -> Result<PatternRun, GupsterError> {
        // Read the counter only: a metrics snapshot would copy every
        // request's hop list, making a long run quadratic.
        let m0 = self.net.with_metrics(|m| m.messages);
        let mut journey = Journey::start();
        let leg = |journey: &Journey, t0: SimTime| SimTime(journey.elapsed().0 - t0.0);

        // Client → GUPster: the lookup (all patterns start here).
        let request_bytes = request.to_string().len() + 64;
        let out =
            gupster.lookup_traced(owner, request, requester, Purpose::Query, time, now, tracer)?;
        let referral = &out.referral;
        let signer = gupster.signer();

        // The fragments and their sizes (correctness via the real pool).
        let entries: Vec<_> = if referral.merge_required {
            referral.entries.iter().collect()
        } else {
            referral.choices().take(1).collect()
        };
        let mut frag_bytes: Vec<(NodeId, usize)> = Vec::new();
        for e in &entries {
            let store =
                pool.get(&e.store).ok_or_else(|| GupsterError::Store(e.store.to_string()))?;
            frag_bytes.push((self.store_node(&e.store)?, store.result_bytes(&e.path)));
        }
        let total_frag_bytes: usize = frag_bytes.iter().map(|(_, b)| b).sum();

        let (result, client_bytes, gupster_bytes) = match pattern {
            QueryPattern::Referral => {
                // Lookup RPC returns the referral…
                let t0 = journey.elapsed();
                journey.try_rpc(self.net, self.client, self.gupster_node, request_bytes, referral.byte_size())?;
                tracer.span(stage::NET_LOOKUP, leg(&journey, t0));
                // …then the client fetches all fragments in parallel…
                let t0 = journey.elapsed();
                let calls = group_calls(&frag_bytes, referral.token.byte_size() + 32);
                journey.try_batch_rpcs(self.net, self.client, &calls)?;
                tracer.span(stage::NET_FETCH, leg(&journey, t0));
                // …and merges locally.
                let result: SharedAnswer =
                    fetch_merge_traced(pool, referral, &signer, now, keys, tracer)?;
                journey.compute(merge_cost(total_frag_bytes));
                (result, total_frag_bytes, 0)
            }
            QueryPattern::Chaining => {
                // Client sends the request; GUPster fans out, merges,
                // returns the result.
                let t0 = journey.elapsed();
                journey.try_send(self.net, self.client, self.gupster_node, request_bytes)?;
                tracer.span(stage::NET_LOOKUP, leg(&journey, t0));
                let t0 = journey.elapsed();
                let calls = group_calls(&frag_bytes, referral.token.byte_size() + 32);
                journey.try_batch_rpcs(self.net, self.gupster_node, &calls)?;
                tracer.span(stage::NET_FETCH, leg(&journey, t0));
                let result: SharedAnswer =
                    fetch_merge_traced(pool, referral, &signer, now, keys, tracer)?;
                journey.compute(merge_cost(total_frag_bytes));
                let result_bytes: usize = result.iter().map(Element::byte_size).sum();
                let t0 = journey.elapsed();
                journey.try_send(self.net, self.gupster_node, self.client, result_bytes)?;
                tracer.span(stage::NET_RETURN, leg(&journey, t0));
                (result, result_bytes, total_frag_bytes)
            }
            QueryPattern::Recruiting => {
                // Pick the first capable store as the executor; the
                // request migrates there. A single fragment needs no
                // merging, so any store can execute it; with several
                // fragments and no chain-capable store the match is
                // ambiguous — silently recruiting an incapable store
                // would produce a partial answer, so fail typed instead.
                let executor = match entries.iter().find(|e| {
                    pool.get(&e.store)
                        .map(|s| s.capabilities().can_chain)
                        .unwrap_or(false)
                }) {
                    Some(e) => e.store.clone(),
                    None if entries.len() == 1 => entries[0].store.clone(),
                    None => {
                        return Err(GupsterError::AmbiguousCoverage {
                            path: request.to_string(),
                            candidates: entries.iter().map(|e| e.store.to_string()).collect(),
                        })
                    }
                };
                let exec_node = self.store_node(&executor)?;
                let t0 = journey.elapsed();
                journey.try_send(self.net, self.client, self.gupster_node, request_bytes)?;
                journey.try_send(self.net, self.gupster_node, exec_node, referral.byte_size())?;
                tracer.span(stage::NET_LOOKUP, leg(&journey, t0));
                // Executor fetches the *other* fragments in parallel.
                let remote: Vec<(NodeId, usize)> = frag_bytes
                    .iter()
                    .filter(|(node, _)| *node != exec_node)
                    .copied()
                    .collect();
                let t0 = journey.elapsed();
                let calls = group_calls(&remote, referral.token.byte_size() + 32);
                journey.try_batch_rpcs(self.net, exec_node, &calls)?;
                tracer.span(stage::NET_FETCH, leg(&journey, t0));
                let result: SharedAnswer =
                    fetch_merge_traced(pool, referral, &signer, now, keys, tracer)?;
                journey.compute(merge_cost(total_frag_bytes));
                let result_bytes: usize = result.iter().map(Element::byte_size).sum();
                let t0 = journey.elapsed();
                journey.try_send(self.net, exec_node, self.client, result_bytes)?;
                tracer.span(stage::NET_RETURN, leg(&journey, t0));
                (result, result_bytes, 0)
            }
        };

        let m1 = self.net.with_metrics(|m| m.messages);
        Ok(PatternRun {
            result,
            wall: journey.elapsed(),
            client_bytes,
            gupster_bytes,
            messages: m1 - m0,
            request: tracer.request(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_netsim::Domain;
    use gupster_policy::Effect;
    use gupster_schema::gup_schema;
    use gupster_store::{DataStore, XmlStore};
    use gupster_xml::parse;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    struct World {
        net: Network,
        client: NodeId,
        gupster_node: NodeId,
        nodes: HashMap<StoreId, NodeId>,
        gupster: Gupster,
        pool: StorePool,
    }

    fn world() -> World {
        let mut net = Network::new(77);
        let client = net.add_node("phone", Domain::Client);
        let gupster_node = net.add_node("gupster.net", Domain::Internet);
        let yahoo_node = net.add_node("gup.yahoo.com", Domain::Internet);
        let lucent_node = net.add_node("gup.lucent.com", Domain::Intranet);
        let mut gupster = Gupster::new(gup_schema(), b"k");
        let mut yahoo = XmlStore::new("gup.yahoo.com");
        let mut items = String::new();
        for i in 0..50 {
            items.push_str(&format!(
                r#"<item id="p{i}" type="personal"><name>Person {i}</name><phone>908-555-{i:04}</phone></item>"#
            ));
        }
        yahoo
            .put_profile(
                parse(&format!(r#"<user id="arnaud"><address-book>{items}</address-book></user>"#))
                    .unwrap(),
            )
            .unwrap();
        let mut lucent = XmlStore::new("gup.lucent.com");
        lucent
            .put_profile(
                parse(
                    r#"<user id="arnaud"><address-book><item id="c1" type="corporate"><name>Rick</name></item></address-book></user>"#,
                )
                .unwrap(),
            )
            .unwrap();
        gupster
            .register_component(
                "arnaud",
                p("/user[@id='arnaud']/address-book/item[@type='personal']"),
                StoreId::new("gup.yahoo.com"),
            )
            .unwrap();
        gupster
            .register_component(
                "arnaud",
                p("/user[@id='arnaud']/address-book/item[@type='corporate']"),
                StoreId::new("gup.lucent.com"),
            )
            .unwrap();
        let mut pool = StorePool::new();
        pool.add(Box::new(yahoo));
        pool.add(Box::new(lucent));
        let mut nodes = HashMap::new();
        nodes.insert(StoreId::new("gup.yahoo.com"), yahoo_node);
        nodes.insert(StoreId::new("gup.lucent.com"), lucent_node);
        World { net, client, gupster_node, nodes, gupster, pool }
    }

    fn run(w: &mut World, pattern: QueryPattern) -> PatternRun {
        let exec = PatternExecutor {
            net: &w.net,
            client: w.client,
            gupster_node: w.gupster_node,
            store_nodes: w.nodes.clone(),
        };
        exec.execute(
            pattern,
            &mut w.gupster,
            &w.pool,
            "arnaud",
            &p("/user[@id='arnaud']/address-book"),
            "arnaud",
            WeekTime::at(0, 12, 0),
            100,
            &MergeKeys::new().with_key("item", "id"),
        )
        .unwrap()
    }

    #[test]
    fn all_patterns_same_answer() {
        let mut w = world();
        let a = run(&mut w, QueryPattern::Referral);
        let b = run(&mut w, QueryPattern::Chaining);
        let c = run(&mut w, QueryPattern::Recruiting);
        assert_eq!(a.result.len(), 1);
        assert_eq!(a.result[0].children_named("item").count(), 51);
        // Order of items may vary only if stores answered differently —
        // they don't; results are byte-identical here.
        assert_eq!(a.result, b.result);
        assert_eq!(b.result, c.result);
    }

    #[test]
    fn referral_keeps_gupster_thin() {
        let mut w = world();
        let a = run(&mut w, QueryPattern::Referral);
        let b = run(&mut w, QueryPattern::Chaining);
        assert_eq!(a.gupster_bytes, 0);
        assert!(b.gupster_bytes > 1000, "{}", b.gupster_bytes);
    }

    #[test]
    fn chaining_spares_the_client_raw_fragments() {
        let mut w = world();
        let a = run(&mut w, QueryPattern::Referral);
        let b = run(&mut w, QueryPattern::Chaining);
        // The client downloads the merged result once instead of all
        // fragments; with two overlapping fragments sizes are close, but
        // referral also ships the raw fragments over the client's access
        // link.
        assert!(a.client_bytes >= b.client_bytes, "{} vs {}", a.client_bytes, b.client_bytes);
    }

    #[test]
    fn recruiting_bypasses_client_and_gupster_for_fragments() {
        let mut w = world();
        let c = run(&mut w, QueryPattern::Recruiting);
        assert_eq!(c.gupster_bytes, 0);
        assert!(c.wall > SimTime::ZERO);
        assert!(c.messages >= 4);
    }

    #[test]
    fn batched_fetches_same_answer_fewer_messages() {
        let mut w = world();
        // Within one permitted path the referral lists each store at
        // most once, so multi-fragment stores arise from the shield
        // narrowing a request into several permitted paths. Rick's
        // rules split the address-book query into `item` (partial on
        // both stores) plus `item[@type='personal']` (full on yahoo) —
        // three fragments, two of them bound for yahoo.
        w.gupster.set_relationship("arnaud", "rick", "co-worker");
        for (id, scope) in [
            ("cw-items", "/user/address-book/item"),
            ("cw-pers", "/user/address-book/item[@type='personal']"),
        ] {
            w.gupster
                .pap
                .provision("arnaud", id, Effect::Permit, scope, "relationship='co-worker'", 0)
                .unwrap();
        }
        let exec = PatternExecutor {
            net: &w.net,
            client: w.client,
            gupster_node: w.gupster_node,
            store_nodes: w.nodes.clone(),
        };
        let run = exec
            .execute(
                QueryPattern::Referral,
                &mut w.gupster,
                &w.pool,
                "arnaud",
                &p("/user[@id='arnaud']/address-book"),
                "rick",
                WeekTime::at(0, 12, 0),
                100,
                &MergeKeys::new().with_key("item", "id"),
            )
            .unwrap();
        // The narrowed answer: every item once, merged by id across the
        // overlapping fragments.
        assert_eq!(run.result.len(), 51);
        assert!(run.result.iter().all(|e| e.name == "item"));
        // 3 fragments on 2 stores: 2 per-store RPCs + the lookup RPC
        // = 6 messages (one fetch RPC per fragment would be 8).
        assert_eq!(run.messages, 6);
        let m = w.net.metrics();
        assert_eq!(m.batched_rpcs, 2);
        assert_eq!(m.coalesced_fragments, 3);
        let hub = w.gupster.telemetry();
        assert_eq!(hub.counter_snapshot().batched_fetches, 2);
    }

    #[test]
    fn every_pattern_yields_one_rooted_trace_with_hops() {
        let mut w = world();
        for pattern in
            [QueryPattern::Referral, QueryPattern::Chaining, QueryPattern::Recruiting]
        {
            let run = {
                let exec = PatternExecutor {
                    net: &w.net,
                    client: w.client,
                    gupster_node: w.gupster_node,
                    store_nodes: w.nodes.clone(),
                };
                exec.execute(
                    pattern,
                    &mut w.gupster,
                    &w.pool,
                    "arnaud",
                    &p("/user[@id='arnaud']/address-book"),
                    "arnaud",
                    WeekTime::at(0, 12, 0),
                    100,
                    &MergeKeys::new().with_key("item", "id"),
                )
                .unwrap()
            };
            let hub = w.gupster.telemetry();
            let spans: Vec<_> =
                hub.spans().into_iter().filter(|s| s.request == run.request).collect();
            assert!(
                gupster_telemetry::single_rooted_tree(&spans),
                "{pattern:?}: {spans:?}"
            );
            assert_eq!(spans[0].stage, pattern.stage());
            for s in ["registry.lookup", "token.verify", "store.fetch", "xml.merge", "net.lookup", "net.fetch"] {
                assert!(spans.iter().any(|x| x.stage == s), "{pattern:?} missing {s}");
            }
            // Every simulated message of the run is attributed to it.
            let hops = w.net.with_metrics(|m| m.hops_of(run.request.0).len() as u64);
            assert_eq!(hops, run.messages, "{pattern:?}");
        }
    }

    #[test]
    fn recruiting_rejects_ambiguous_chain_incapable_coverage() {
        // Two chain-incapable relational adapters cover the request:
        // neither can merge the other's fragment, so recruiting either
        // would silently drop data. The executor must fail typed.
        let mut net = Network::new(5);
        let client = net.add_node("phone", gupster_netsim::Domain::Client);
        let gupster_node = net.add_node("gupster.net", gupster_netsim::Domain::Internet);
        let a_node = net.add_node("gup.a.com", gupster_netsim::Domain::Internet);
        let b_node = net.add_node("gup.b.com", gupster_netsim::Domain::Internet);
        let mut gupster = Gupster::new(gup_schema(), b"k");
        let mut pool = StorePool::new();
        for (name, node) in [("gup.a.com", a_node), ("gup.b.com", b_node)] {
            let mut adapter = gupster_store::RelationalAdapter::new(name);
            adapter.add_subscriber("alice", "Alice", "908-555-0100");
            adapter.add_contact("alice", if node == a_node { "x" } else { "y" }, "C", "1-555");
            assert!(!adapter.capabilities().can_chain);
            pool.add(Box::new(adapter));
            let _ = node;
        }
        gupster
            .register_component(
                "alice",
                p("/user[@id='alice']/address-book/item[@type='x']"),
                StoreId::new("gup.a.com"),
            )
            .unwrap();
        gupster
            .register_component(
                "alice",
                p("/user[@id='alice']/address-book/item[@type='y']"),
                StoreId::new("gup.b.com"),
            )
            .unwrap();
        let mut nodes = HashMap::new();
        nodes.insert(StoreId::new("gup.a.com"), a_node);
        nodes.insert(StoreId::new("gup.b.com"), b_node);
        let exec = PatternExecutor { net: &net, client, gupster_node, store_nodes: nodes };
        let err = exec
            .execute(
                QueryPattern::Recruiting,
                &mut gupster,
                &pool,
                "alice",
                &p("/user[@id='alice']/address-book"),
                "alice",
                WeekTime::at(0, 12, 0),
                0,
                &MergeKeys::new().with_key("item", "id"),
            )
            .unwrap_err();
        match err {
            GupsterError::AmbiguousCoverage { path, candidates } => {
                assert!(path.contains("address-book"), "{path}");
                assert_eq!(candidates, vec!["gup.a.com".to_string(), "gup.b.com".to_string()]);
            }
            other => panic!("expected AmbiguousCoverage, got {other:?}"),
        }
    }

    #[test]
    fn recruiting_accepts_single_chain_incapable_fragment() {
        // One fragment needs no merging, so even a chain-incapable
        // adapter can execute the recruited request.
        let mut net = Network::new(5);
        let client = net.add_node("phone", gupster_netsim::Domain::Client);
        let gupster_node = net.add_node("gupster.net", gupster_netsim::Domain::Internet);
        let a_node = net.add_node("gup.a.com", gupster_netsim::Domain::Internet);
        let mut gupster = Gupster::new(gup_schema(), b"k");
        let mut pool = StorePool::new();
        let mut adapter = gupster_store::RelationalAdapter::new("gup.a.com");
        adapter.add_subscriber("alice", "Alice", "908-555-0100");
        adapter.add_contact("alice", "x", "C", "1-555");
        assert!(!adapter.capabilities().can_chain);
        pool.add(Box::new(adapter));
        gupster
            .register_component(
                "alice",
                p("/user[@id='alice']/address-book/item[@type='x']"),
                StoreId::new("gup.a.com"),
            )
            .unwrap();
        let mut nodes = HashMap::new();
        nodes.insert(StoreId::new("gup.a.com"), a_node);
        let exec = PatternExecutor { net: &net, client, gupster_node, store_nodes: nodes };
        let run = exec
            .execute(
                QueryPattern::Recruiting,
                &mut gupster,
                &pool,
                "alice",
                &p("/user[@id='alice']/address-book"),
                "alice",
                WeekTime::at(0, 12, 0),
                0,
                &MergeKeys::new().with_key("item", "id"),
            )
            .unwrap();
        let items: usize = run.result.iter().map(|r| r.children_named("item").count()).sum();
        assert_eq!(items, 1);
    }
}
