//! Example 1 of the paper (§2.1): Alice's roaming profile.
//!
//! Alice's data is spread across SprintPCS (US cell), Vodafone (GSM SIM
//! abroad), Yahoo! (personal address book + calendar) and Lucent
//! (corporate address book). This example shows the three things the
//! paper says are "difficult or impossible" without GUPster:
//!
//! 1. accessing her corporate calendar while traveling in Europe,
//! 2. sharing her address book among SprintPCS, Vodafone and Yahoo!,
//! 3. keeping her data when she switches from SprintPCS to AT&T.
//!
//! ```text
//! cargo run --example roaming_profile
//! ```

use gupster::core::{fetch_merge, Gupster, StorePool};
use gupster::netsim::topology::ConvergedNetwork;
use gupster::policy::{Purpose, WeekTime};
use gupster::schema::gup_schema;
use gupster::store::{StoreId, UpdateOp, XmlStore};
use gupster::sync::{two_way_sync, ReconcilePolicy, Replica};
use gupster::xml::{parse, MergeKeys};
use gupster::xpath::Path;

fn main() {
    // The converged network of Figure 1, populated with Alice's data.
    let mut world = ConvergedNetwork::build(2003);
    world.populate_alice();
    println!("Figure-5 inventory of Alice's data:");
    for row in world.placement_table() {
        println!("  {:<9} {:<22} {} ({} records)", row.network, row.element, row.data, row.records);
    }

    // GUPster over the web-side stores (the HLRs stay behind their
    // carriers; presence is GUP-enabled through the carrier store in a
    // real deployment).
    let mut gupster = Gupster::new(gup_schema(), b"alice-key");
    let reg = |g: &mut Gupster, path: &str, store: &str| {
        g.register_component("alice", Path::parse(path).unwrap(), StoreId::new(store)).unwrap();
    };
    reg(&mut gupster, "/user[@id='alice']/address-book/item[@type='personal']", "gup.yahoo.com");
    reg(&mut gupster, "/user[@id='alice']/address-book/item[@type='corporate']", "gup.lucent.com");
    reg(&mut gupster, "/user[@id='alice']/calendar", "gup.yahoo.com");
    reg(&mut gupster, "/user[@id='alice']/identity", "gup.yahoo.com");

    // Move the stores into a pool (in deployment they stay remote).
    let mut pool = StorePool::new();
    let ConvergedNetwork { portal, enterprise, .. } = world;
    pool.add(Box::new(portal.store));
    pool.add(Box::new(enterprise.adapter));

    let keys = MergeKeys::new().with_key("item", "id");
    let signer = gupster.signer();

    // 1. Corporate calendar access from Europe: the referral mechanism
    //    doesn't care where Alice roams — the meta-data lookup finds
    //    Yahoo! regardless of her serving network.
    let cal = Path::parse("/user[@id='alice']/calendar").unwrap();
    let out = gupster
        .lookup("alice", &cal, "alice", Purpose::Query, WeekTime::at(2, 9, 0), 10)
        .unwrap();
    let r = fetch_merge(&pool, &out.referral, &signer, 10, &keys).unwrap();
    println!("\n1. calendar while roaming → {} event(s) via {}", r[0].children_named("event").count(), out.referral.entries[0].store);

    // 2. One address book across providers: personal (Yahoo!) plus
    //    corporate (Lucent) merged by the client.
    let book = Path::parse("/user[@id='alice']/address-book").unwrap();
    let out = gupster
        .lookup("alice", &book, "alice", Purpose::Query, WeekTime::at(2, 9, 0), 11)
        .unwrap();
    let merged = fetch_merge(&pool, &out.referral, &signer, 11, &keys).unwrap();
    println!("\n2. unified address book ({} entries):", merged[0].children_named("item").count());
    for item in merged[0].children_named("item") {
        println!(
            "   [{}] {} — {}",
            item.attr("type").unwrap_or("?"),
            item.child("name").map(|n| n.text()).unwrap_or_default(),
            item.child("phone").map(|n| n.text()).unwrap_or_default()
        );
    }

    // The phone keeps a synchronized replica of the personal book
    // (Req. 4/7): edit on the phone, sync back to Yahoo!.
    let portal_book = pool
        .get(&StoreId::new("gup.yahoo.com"))
        .unwrap()
        .query(&Path::parse("/user[@id='alice']/address-book").unwrap())
        .unwrap()
        .remove(0);
    let mut phone = Replica::new("alice-phone", portal_book.clone(), keys.clone());
    let mut portal_replica = Replica::new("gup.yahoo.com", portal_book, keys.clone());
    phone
        .edit(gupster::xml::EditOp::Insert {
            parent: gupster::xml::NodePath::root(),
            element: parse(r#"<item id="99" type="personal"><name>Hans</name><phone>+49-30-1234</phone></item>"#).unwrap(),
        })
        .unwrap();
    let report = two_way_sync(&mut phone, &mut portal_replica, ReconcilePolicy::LastWriterWins).unwrap();
    println!(
        "\n   phone↔portal sync: shipped {} edit(s), converged={}, {} bytes",
        report.shipped_to_second, report.converged, report.bytes_exchanged
    );
    // Push the synced copy back into the portal store.
    pool.update(
        &StoreId::new("gup.yahoo.com"),
        "alice",
        &UpdateOp::Replace(Path::parse("/user/address-book").unwrap(), (*portal_replica.doc).clone()),
    )
    .unwrap();

    // 3. Carrier switch without data loss: SprintPCS's registrations
    //    vanish; everything Alice kept at the portal/enterprise stays.
    let mut att = XmlStore::new("gup.att.com");
    att.put_profile(parse(r#"<user id="alice"><presence>online</presence></user>"#).unwrap())
        .unwrap();
    pool.add(Box::new(att));
    let dropped = gupster.unregister_store("alice", &StoreId::new("gup.spcs.com"));
    gupster
        .register_component(
            "alice",
            Path::parse("/user[@id='alice']/presence").unwrap(),
            StoreId::new("gup.att.com"),
        )
        .unwrap();
    let out = gupster
        .lookup("alice", &book, "alice", Purpose::Query, WeekTime::at(2, 9, 0), 12)
        .unwrap();
    let merged = fetch_merge(&pool, &out.referral, &signer, 12, &keys).unwrap();
    println!(
        "\n3. after switching carriers (dropped {dropped} SprintPCS registrations): book still has {} entries (incl. Hans), presence now at gup.att.com",
        merged[0].children_named("item").count()
    );
}
