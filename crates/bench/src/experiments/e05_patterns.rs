//! E5 — §5.2: referral vs. chaining vs. recruiting. Reports wall-clock,
//! bytes over the client's access link and bytes through GUPster, for a
//! thin (slow access link) and a thick client, across split fan-outs.

use std::collections::HashMap;
use std::sync::Arc;

use gupster_core::patterns::{PatternExecutor, QueryPattern};
use gupster_core::{Gupster, StorePool};
use gupster_netsim::{Domain, LatencyModel, Network, NodeId, SimTime};
use gupster_policy::WeekTime;
use gupster_schema::gup_schema;
use gupster_store::{StoreId, XmlStore};
use gupster_telemetry::TelemetryHub;
use gupster_xml::{Element, MergeKeys};
use gupster_xpath::Path;

use crate::table::{bytes, print_table};

struct World {
    net: Network,
    client: NodeId,
    gupster_node: NodeId,
    store_nodes: HashMap<StoreId, NodeId>,
    gupster: Gupster,
    pool: StorePool,
}

fn build(k: usize, entries: usize, thin_client: bool) -> World {
    let mut net = Network::new(55);
    let client = net.add_node("client", Domain::Client);
    let gupster_node = net.add_node("gupster.net", Domain::Internet);
    let mut gupster = Gupster::new(gup_schema(), b"e5");
    let mut pool = StorePool::new();
    let mut store_nodes = HashMap::new();
    for s in 0..k {
        let label = format!("store{s}.net");
        let node = net.add_node(label.clone(), Domain::Internet);
        if thin_client {
            // A 2003 cell phone's access link: slow and lossy.
            net.set_link(
                client,
                node,
                LatencyModel {
                    base: SimTime::millis(150),
                    jitter: SimTime::millis(50),
                    per_kb: SimTime::millis(8),
                },
            );
        }
        let mut store = XmlStore::new(label.clone());
        let mut doc = Element::new("user").with_attr("id", "alice");
        let mut book = Element::new("address-book");
        for i in (s..entries).step_by(k) {
            book.push_child(
                Element::new("item")
                    .with_attr("id", i.to_string())
                    .with_attr("type", format!("slice{s}"))
                    .with_child(Element::new("name").with_text(format!("Contact number {i}")))
                    .with_child(Element::new("phone").with_text(format!("908-555-{i:04}"))),
            );
        }
        doc.push_child(book);
        store.put_profile(doc).expect("id");
        gupster
            .register_component(
                "alice",
                Path::parse(&format!("/user[@id='alice']/address-book/item[@type='slice{s}']"))
                    .expect("static"),
                StoreId::new(label.clone()),
            )
            .expect("valid");
        store_nodes.insert(StoreId::new(label), node);
        pool.add(Box::new(store));
    }
    if thin_client {
        net.set_link(
            client,
            gupster_node,
            LatencyModel {
                base: SimTime::millis(150),
                jitter: SimTime::millis(50),
                per_kb: SimTime::millis(8),
            },
        );
    }
    World { net, client, gupster_node, store_nodes, gupster, pool }
}

/// Runs the experiment.
pub fn run() {
    let keys = MergeKeys::new().with_key("item", "id");
    let request = Path::parse("/user[@id='alice']/address-book").expect("static");
    let mut rows = Vec::new();
    // One hub per pattern, shared across every world, so the stage
    // tables below aggregate all runs of that pattern.
    let referral_hub = Arc::new(TelemetryHub::new());
    let chaining_hub = Arc::new(TelemetryHub::new());
    let recruiting_hub = Arc::new(TelemetryHub::new());
    for thin in [false, true] {
        for k in [2usize, 4, 8] {
            for pattern in
                [QueryPattern::Referral, QueryPattern::Chaining, QueryPattern::Recruiting]
            {
                let mut w = build(k, 200, thin);
                let hub = match pattern {
                    QueryPattern::Referral => &referral_hub,
                    QueryPattern::Chaining => &chaining_hub,
                    QueryPattern::Recruiting => &recruiting_hub,
                };
                w.gupster.set_telemetry(Arc::clone(hub));
                let exec = PatternExecutor {
                    net: &w.net,
                    client: w.client,
                    gupster_node: w.gupster_node,
                    store_nodes: w.store_nodes.clone(),
                };
                let run = exec
                    .execute(
                        pattern,
                        &mut w.gupster,
                        &w.pool,
                        "alice",
                        &request,
                        "alice",
                        WeekTime::at(0, 12, 0),
                        0,
                        &keys,
                    )
                    .expect("covered");
                rows.push(vec![
                    if thin { "thin (phone)" } else { "thick (PC)" }.to_string(),
                    k.to_string(),
                    format!("{pattern:?}"),
                    run.wall.to_string(),
                    bytes(run.client_bytes),
                    bytes(run.gupster_bytes),
                    run.messages.to_string(),
                ]);
            }
        }
    }
    print_table(
        "E5 / §5.2 — distributed query patterns (200-entry book, k-way split)",
        &["client", "k", "pattern", "wall", "client bytes", "GUPster bytes", "msgs"],
        &rows,
    );
    println!("  paper check: referral keeps GUPster data-free; chaining/recruiting suit thin clients.");
    for (name, hub) in [
        ("referral", &referral_hub),
        ("chaining", &chaining_hub),
        ("recruiting", &recruiting_hub),
    ] {
        println!();
        println!(
            "{}",
            hub.render_stage_table(&format!("E5 — {name} per-stage latency (all runs)"))
        );
        super::dump_traces(hub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thin_client_prefers_offload() {
        let keys = MergeKeys::new().with_key("item", "id");
        let request = Path::parse("/user[@id='alice']/address-book").unwrap();
        let mut walls = HashMap::new();
        for pattern in [QueryPattern::Referral, QueryPattern::Chaining] {
            let mut w = build(4, 200, true);
            let exec = PatternExecutor {
                net: &w.net,
                client: w.client,
                gupster_node: w.gupster_node,
                store_nodes: w.store_nodes.clone(),
            };
            let run = exec
                .execute(
                    pattern,
                    &mut w.gupster,
                    &w.pool,
                    "alice",
                    &request,
                    "alice",
                    WeekTime::at(0, 12, 0),
                    0,
                    &keys,
                )
                .unwrap();
            walls.insert(format!("{pattern:?}"), (run.wall, run.client_bytes));
        }
        // On a thin client the chaining pattern moves fewer bytes over
        // the access link than fetching all fragments directly.
        assert!(walls["Chaining"].1 <= walls["Referral"].1);
    }

    #[test]
    fn runs() {
        super::run();
    }
}
