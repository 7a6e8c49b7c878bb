//! E17 — multi-core scaling: sharded request execution and batched,
//! coalesced store fetches (DESIGN.md §8).
//!
//! Two sections:
//!
//! 1. **Shard sweep** — a Zipf-skewed stream of full answers (lookup +
//!    fetch-merge through the per-shard singleflight) runs through a
//!    [`ShardedRegistry`] at 1, 2, 4 and 8 shards. Outputs are asserted
//!    byte-identical across shard counts. Each row reports the routing
//!    imbalance (the busiest shard's routed requests over the mean), a
//!    count, beside the measured wall throughput and its speedup over
//!    one shard, which only a host with a core per shard can show.
//! 2. **Batch sweep** — the E15 fault schedule replayed over a
//!    privacy-narrowed split address book whose referrals carry
//!    several fragments per store, through the resilience ladder's
//!    per-store fetches. Reports per-request messages, the coalesced
//!    RPCs and the fragments they carried, availability and the
//!    throughput netsim's clock shows per split width.
//!
//! Every row lands in `BENCH_shards.json` (see [`crate::benchjson`]);
//! CI re-runs the reduced sweep (`experiments --quick e17`) and
//! `bench_compare` requires it to reproduce the checked-in file
//! exactly. The `wall_` fields are informative only and ignored by the
//! gate; the counts and the netsim-timed `sim_` field are
//! machine-independent.

use std::time::Instant;

use gupster_core::patterns::PatternExecutor;
use gupster_core::{Gupster, ResilientExecutor, ShardRequest, ShardedRegistry, StorePool};
use gupster_netsim::{Domain, FaultRates, FaultSchedule, Network, NodeId, SimTime};
use gupster_policy::{Effect, Purpose, WeekTime};
use gupster_rng::Rng;
use gupster_schema::gup_schema;
use gupster_store::{StoreId, XmlStore};
use gupster_xml::{Element, MergeKeys};
use gupster_xpath::Path;

use crate::benchjson::{self, Row};
use crate::table::{f2, pct, print_table};
use crate::workload::{rng, Zipf};

/// Requests dispatched per scatter window (one singleflight window).
const WINDOW: usize = 512;
/// Shard counts swept in both modes.
const SHARDS: [usize; 4] = [1, 2, 4, 8];
/// Split widths swept in section B.
const SPLITS: [usize; 3] = [2, 4, 8];

// ---------------------------------------------------------------- A —

/// The shard-sweep workload: a shared multi-tenant store pool plus a
/// pre-built request stream (identical for every shard count).
pub(crate) struct ShardWorkload {
    pub(crate) users: Vec<String>,
    pub(crate) pool: StorePool,
    pub(crate) requests: Vec<ShardRequest>,
}

pub(crate) fn build_workload(n_users: usize, n_requests: usize, seed: u64) -> ShardWorkload {
    const N_STORES: usize = 6;
    let users: Vec<String> = (0..n_users).map(|i| format!("user{i:05}")).collect();

    // Six multi-tenant stores; each user's presence and two
    // address-book slices land on three of them round-robin.
    let mut stores: Vec<XmlStore> =
        (0..N_STORES).map(|j| XmlStore::new(format!("store{j}.net"))).collect();
    for (i, u) in users.iter().enumerate() {
        let mut presence = Element::new("user").with_attr("id", u.clone());
        presence.push_child(Element::new("presence").with_text(format!("online-{i}")));
        stores[i % N_STORES].put_profile(presence).expect("id");

        let mut personal = Element::new("user").with_attr("id", u.clone());
        let mut book = Element::new("address-book");
        for k in 0..3 {
            book.push_child(
                Element::new("item")
                    .with_attr("id", format!("p{k}"))
                    .with_attr("type", "personal")
                    .with_child(Element::new("name").with_text(format!("Friend {k} of {u}"))),
            );
        }
        personal.push_child(book);
        stores[(i + 1) % N_STORES].put_profile(personal).expect("id");

        let mut corporate = Element::new("user").with_attr("id", u.clone());
        let mut book = Element::new("address-book");
        for k in 0..2 {
            book.push_child(
                Element::new("item")
                    .with_attr("id", format!("c{k}"))
                    .with_attr("type", "corporate")
                    .with_child(Element::new("name").with_text(format!("Desk {k} of {u}"))),
            );
        }
        corporate.push_child(book);
        stores[(i + 2) % N_STORES].put_profile(corporate).expect("id");
    }
    let mut pool = StorePool::new();
    for s in stores {
        pool.add(Box::new(s));
    }

    // Mildly skewed user popularity (hot users exist but no single
    // user dominates a shard), 70/30 presence vs. merged address-book.
    let zipf = Zipf::new(n_users, 0.4);
    let mut r = rng(seed);
    let requests: Vec<ShardRequest> = (0..n_requests)
        .map(|op| {
            let u = &users[zipf.sample(&mut r)];
            let path = if r.gen_range(0..10) < 7 {
                format!("/user[@id='{u}']/presence")
            } else {
                format!("/user[@id='{u}']/address-book")
            };
            ShardRequest {
                owner: u.clone(),
                path: Path::parse(&path).expect("static"),
                requester: u.clone(),
                purpose: Purpose::Query,
                time: WeekTime::at(1, 10, 0),
                now: op as u64,
            }
        })
        .collect();
    ShardWorkload { users, pool, requests }
}

pub(crate) fn provision(w: &ShardWorkload, shards: usize) -> ShardedRegistry {
    const N_STORES: usize = 6;
    let mut reg = ShardedRegistry::new(gup_schema(), b"e17", shards);
    reg.set_span_limit(0); // histograms only; spans would grow unbounded
    for (i, u) in w.users.iter().enumerate() {
        reg.register_component(
            u,
            Path::parse(&format!("/user[@id='{u}']/presence")).expect("static"),
            StoreId::new(format!("store{}.net", i % N_STORES)),
        )
        .expect("valid");
        reg.register_component(
            u,
            Path::parse(&format!("/user[@id='{u}']/address-book/item[@type='personal']"))
                .expect("static"),
            StoreId::new(format!("store{}.net", (i + 1) % N_STORES)),
        )
        .expect("valid");
        reg.register_component(
            u,
            Path::parse(&format!("/user[@id='{u}']/address-book/item[@type='corporate']"))
                .expect("static"),
            StoreId::new(format!("store{}.net", (i + 2) % N_STORES)),
        )
        .expect("valid");
    }
    reg
}

/// One full pass of the request stream at `shards` shards. Returns the
/// compact per-request outputs (for cross-count identity checks), the
/// requests routed to each shard and the wall duration.
fn shard_pass(
    w: &ShardWorkload,
    shards: usize,
    keys: &MergeKeys,
) -> (Vec<String>, Vec<usize>, std::time::Duration) {
    let mut reg = provision(w, shards);
    let mut outputs = Vec::with_capacity(w.requests.len());
    let mut routed = vec![0; shards];
    let t0 = Instant::now();
    for window in w.requests.chunks(WINDOW) {
        let (results, report) = reg.answer_batch(&w.pool, window, keys, true);
        for (total, n) in routed.iter_mut().zip(report.shard_requests) {
            *total += n;
        }
        for res in results {
            outputs.push(match res {
                Ok(elems) => format!("{elems:?}"),
                Err(e) => format!("{e:?}"),
            });
        }
    }
    let wall = t0.elapsed();
    // The deduped flights are the only fetch work; every duplicate in a
    // window must have ridden the singleflight table.
    let totals = reg.counter_totals();
    assert!(totals.singleflight_hits > 0, "workload has duplicates by construction");
    (outputs, routed, wall)
}

fn shard_sweep(quick: bool, rows_out: &mut Vec<Row>) {
    let (n_users, n_requests) = if quick { (300, 4_096) } else { (1_200, 20_480) };
    let w = build_workload(n_users, n_requests, 17);
    let keys = MergeKeys::new().with_key("item", "id");

    let mut table = Vec::new();
    let mut baseline: Option<(Vec<String>, f64)> = None;
    for &shards in &SHARDS {
        let (outputs, routed, wall) = shard_pass(&w, shards, &keys);
        let wall_ops = n_requests as f64 / wall.as_secs_f64();
        let (base_out, base_ops) = baseline.get_or_insert((outputs.clone(), wall_ops));
        assert_eq!(
            *base_out, outputs,
            "sharded output diverged from the 1-shard run at {shards} shards"
        );
        let busiest = routed.iter().copied().max().unwrap_or(0);
        let imbalance = (busiest * shards) as f64 / n_requests as f64;
        let wall_speedup = wall_ops / *base_ops;
        table.push(vec![
            shards.to_string(),
            busiest.to_string(),
            f2(imbalance),
            format!("{wall_ops:.0}"),
            format!("{wall_speedup:.2}x"),
        ]);
        rows_out.push(
            Row::new("shards")
                .count("shards", shards as u64)
                .count("busiest_requests", busiest as u64)
                .ratio("imbalance", imbalance)
                .real("wall_ops", wall_ops)
                .ratio("wall_speedup", wall_speedup),
        );
    }
    print_table(
        &format!(
            "E17a — sharded answer throughput ({n_requests} requests over {n_users} users, \
             windows of {WINDOW})"
        ),
        &["shards", "busiest shard", "imbalance", "wall ops/s", "wall speedup"],
        &table,
    );
    println!(
        "  paper check: user-keyed state makes the registry embarrassingly partitionable — \
         the owner hash spreads requests evenly while outputs stay byte-identical. The wall \
         speedup is what this host's cores allow."
    );
}

// ---------------------------------------------------------------- B —

struct FaultWorld {
    net: Network,
    client: NodeId,
    gupster_node: NodeId,
    fault_nodes: Vec<NodeId>,
    store_nodes: std::collections::HashMap<StoreId, NodeId>,
    gupster: Gupster,
    pool: StorePool,
}

/// A `k`-way split address book on `k/2` stores (two slices per store),
/// shield-narrowed for requester `rick` so every referral carries
/// several fragments per store — the shape batching collapses.
fn build_fault_world(k: usize, seed: u64) -> FaultWorld {
    let mut net = Network::new(seed);
    let client = net.add_node("client", Domain::Client);
    let gupster_node = net.add_node("gupster.net", Domain::Internet);
    let mut gupster = Gupster::new(gup_schema(), b"e17");
    let mut pool = StorePool::new();
    let mut store_nodes = std::collections::HashMap::new();
    let mut fault_nodes = vec![client, gupster_node];
    let n_stores = (k / 2).max(1);
    for j in 0..n_stores {
        let label = format!("store{j}.net");
        let node = net.add_node(label.clone(), Domain::Internet);
        fault_nodes.push(node);
        let mut store = XmlStore::new(label.clone());
        let mut doc = Element::new("user").with_attr("id", "alice");
        let mut book = Element::new("address-book");
        for s in (0..k).filter(|s| s / 2 == j) {
            for i in (s..48).step_by(k) {
                book.push_child(
                    Element::new("item")
                        .with_attr("id", i.to_string())
                        .with_attr("type", format!("slice{s}"))
                        .with_child(Element::new("name").with_text(format!("Contact {i}"))),
                );
            }
        }
        doc.push_child(book);
        store.put_profile(doc).expect("id");
        store_nodes.insert(StoreId::new(label), node);
        pool.add(Box::new(store));
    }
    for s in 0..k {
        gupster
            .register_component(
                "alice",
                Path::parse(&format!("/user[@id='alice']/address-book/item[@type='slice{s}']"))
                    .expect("static"),
                StoreId::new(format!("store{}.net", s / 2)),
            )
            .expect("valid");
    }
    // Rick's shield: one broad item permit (partial on every store)
    // plus one permit per slice (full). The narrowed referral then
    // lists each store up to three times — fragments a batched fetch
    // coalesces into one RPC per store.
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
        .expect("valid");
    for s in 0..k {
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
            .expect("valid");
    }
    FaultWorld { net, client, gupster_node, fault_nodes, store_nodes, gupster, pool }
}

struct BatchCell {
    fresh: usize,
    stale: usize,
    failed: usize,
    sim_wall: SimTime,
    messages_per_req: f64,
    /// Coalesced per-store fetch RPCs netsim counted.
    batched_rpcs: u64,
    /// Fragments those RPCs carried.
    coalesced_fragments: u64,
}

/// Replays the request stream through the resilience ladder at one
/// (split width, fault rate) cell. Fully deterministic for a given
/// seed.
fn batch_cell(k: usize, rate: f64, seed: u64) -> BatchCell {
    const REQUESTS: usize = 150;
    let gap = SimTime::millis(200);
    let keys = MergeKeys::new().with_key("item", "id");
    let request = Path::parse("/user[@id='alice']/address-book").expect("static");
    let mut w = build_fault_world(k, seed ^ 0xE17);
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.store_nodes.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, seed).with_budget(SimTime::secs(2));
    rex.fetch(&mut w.gupster, &w.pool, "alice", &request, "rick", WeekTime::at(1, 10, 0), 0, &keys)
        .expect("fault-free warm-up");
    let rates =
        FaultRates::links(rate).with_node_outages(rate / 5.0).with_latency_spikes(rate / 10.0);
    let horizon = SimTime(gap.0 * (REQUESTS as u64 + 5));
    w.net.install_faults(FaultSchedule::generate(seed, &rates, &w.fault_nodes, horizon));
    w.net.reset_metrics();

    let (mut fresh, mut stale, mut failed) = (0usize, 0usize, 0usize);
    let mut sim_wall = SimTime::ZERO;
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
            &keys,
        ) {
            Ok(run) => {
                if run.stale {
                    stale += 1;
                } else {
                    fresh += 1;
                }
                sim_wall += run.wall;
            }
            Err(_) => failed += 1,
        }
    }
    let m = w.net.metrics();
    BatchCell {
        fresh,
        stale,
        failed,
        sim_wall,
        messages_per_req: m.messages as f64 / REQUESTS as f64,
        batched_rpcs: m.batched_rpcs,
        coalesced_fragments: m.coalesced_fragments,
    }
}

fn batch_sweep(rows_out: &mut Vec<Row>) {
    const RATE: f64 = 0.10; // the E15 ladder's headline fault rate
    let mut table = Vec::new();
    for &k in &SPLITS {
        // Fault-free leg first: every referral lists each store up to
        // three times, so each per-store RPC must carry more than one
        // fragment.
        let calm = batch_cell(k, 0.0, 15);
        assert_eq!(calm.failed, 0, "fault-free requests failed at k={k}");
        assert!(
            calm.coalesced_fragments > calm.batched_rpcs,
            "batching must coalesce fragments at k={k}: {} fragments in {} RPCs",
            calm.coalesced_fragments,
            calm.batched_rpcs
        );

        // Faulted leg: the ladder must hold availability.
        let faulted = batch_cell(k, RATE, 15);
        assert_eq!(faulted.fresh + faulted.stale + faulted.failed, 150, "lost requests");
        let avail = 1.0 - faulted.failed as f64 / 150.0;
        assert!(avail >= 0.9, "availability {avail} at k={k}");
        let ops = 1e6 * (faulted.fresh + faulted.stale) as f64 / faulted.sim_wall.0.max(1) as f64;
        table.push(vec![
            k.to_string(),
            f2(calm.messages_per_req),
            calm.batched_rpcs.to_string(),
            f2(calm.coalesced_fragments as f64 / calm.batched_rpcs as f64),
            format!("{ops:.0}"),
            pct(avail),
        ]);
        rows_out.push(
            Row::new("batch")
                .count("slices", k as u64)
                .count("batched_rpcs", calm.batched_rpcs)
                .count("coalesced_fragments", calm.coalesced_fragments)
                .real("sim_batched_ops", ops)
                .ratio("batched_messages_per_request", calm.messages_per_req),
        );
    }
    print_table(
        "E17b — per-store fetches under the E15 fault ladder (150 requests, 10% faults)",
        &["slices", "msgs/req", "store RPCs", "fragments/RPC", "sim ops/s", "avail"],
        &table,
    );
    println!(
        "  paper check: one header per destination store — each fetch RPC carries every \
         fragment its store holds, while answers and availability hold."
    );
}

/// Runs the experiment.
pub fn run() {
    println!("\nE17 — multi-core sharding and batched fetches ({} sweep)", super::mode());
    let mut rows: Vec<Row> = Vec::new();
    shard_sweep(super::quick(), &mut rows);
    // Section B is cheap and runs identically in both modes, so the
    // quick CI sweep intersects the checked-in baseline on every row.
    batch_sweep(&mut rows);

    benchjson::write("e17_shards", "BENCH_shards.json", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_shard_sweep_is_identical_and_balanced() {
        let w = build_workload(40, 512, 3);
        let keys = MergeKeys::new().with_key("item", "id");
        let (base, _, _) = shard_pass(&w, 1, &keys);
        for shards in [2usize, 4] {
            let (outputs, routed, _) = shard_pass(&w, shards, &keys);
            assert_eq!(base, outputs, "diverged at {shards} shards");
            assert_eq!(routed.len(), shards);
            assert_eq!(routed.iter().sum::<usize>(), 512);
        }
    }

    #[test]
    fn narrowed_referral_batches_fewer_messages() {
        let calm = batch_cell(2, 0.0, 7);
        assert_eq!(calm.failed, 0);
        // One store, three fragments per referral: one RPC each.
        assert_eq!(calm.batched_rpcs, 150);
        assert_eq!(calm.coalesced_fragments, 450);
        assert_eq!(calm.messages_per_req, 4.0);
    }
}
