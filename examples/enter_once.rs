//! "Enter once, use everywhere" (Requirement 11): self-provisioning.
//!
//! Alice changes her phone number *once*, through GUPster. The update is
//! validated against the GUP schema, routed to the store that owns the
//! component, and propagated to every subscriber (her phone, the
//! enterprise directory's cache) through push subscriptions — no
//! re-entry anywhere.
//!
//! ```text
//! cargo run --example enter_once
//! ```

use gupster::core::subs::ShardedFanout;
use gupster::core::{fetch_merge, Gupster, StorePool};
use gupster::policy::{Purpose, WeekTime};
use gupster::schema::{gup_schema, sample_profile};
use gupster::store::{StoreId, UpdateOp, XmlStore};
use gupster::xml::MergeKeys;
use gupster::xpath::Path;

fn main() {
    let mut gupster = Gupster::new(gup_schema(), b"enter-once");
    let mut portal = XmlStore::new("gup.yahoo.com");
    portal.put_profile(sample_profile("alice")).unwrap();
    for comp in ["address-book", "devices", "identity", "presence", "calendar"] {
        gupster
            .register_component(
                "alice",
                Path::parse(&format!("/user[@id='alice']/{comp}")).unwrap(),
                StoreId::new("gup.yahoo.com"),
            )
            .unwrap();
    }
    let mut pool = StorePool::new();
    pool.add(Box::new(portal));
    pool.drain_all_events().for_each(drop);

    // Her phone and the enterprise both subscribe to device changes.
    let mut subs = ShardedFanout::new(1);
    let devices = Path::parse("/user[@id='alice']/devices").unwrap();
    subs.subscribe(&mut gupster, "alice", &devices, "alice", WeekTime::at(0, 9, 0), 0)
        .expect("owner may subscribe");
    // (Subscribers other than the owner would need shield rules; the
    // owner's own devices subscribe as her.)
    subs.subscribe(&mut gupster, "alice", &devices, "alice", WeekTime::at(0, 9, 0), 0)
        .expect("second device");
    println!("{} subscriptions active", subs.len());

    // 1. Schema-checked provisioning: an ill-typed update is refused
    //    before it reaches any store.
    let bad = Path::parse("/user[@id='alice']/devices/device[@id='d1']/numbers").unwrap();
    match gupster.route_update("alice", &bad, "alice", WeekTime::at(0, 10, 0), 1) {
        Err(e) => println!("\nmis-typed path refused at GUPster: {e}"),
        Ok(_) => unreachable!("schema filter must reject"),
    }

    // 2. The real update, entered once.
    let target = Path::parse("/user[@id='alice']/devices/device[@id='d1']/number").unwrap();
    let routing = gupster
        .route_update("alice", &target, "alice", WeekTime::at(0, 10, 0), 2)
        .expect("owner provisions");
    println!("\nupdate routed to: {}", routing.referral);
    for entry in &routing.referral.entries {
        pool.update(
            &entry.store,
            "alice",
            &UpdateOp::SetText(Path::clone(&entry.path), "908-555-9999".into()),
        )
        .expect("store applies");
    }

    // Validate the updated profile against the GUP schema (Req. 11's
    // "provisioning should provide some guarantees").
    let schema = gup_schema();
    let full = pool
        .get(&StoreId::new("gup.yahoo.com"))
        .unwrap()
        .query(&Path::parse("/user[@id='alice']").unwrap())
        .unwrap();
    let errs = schema.validate(&full[0]);
    println!("post-update schema validation: {} error(s)", errs.len());

    // 3. Everyone learns about it — push notifications, no re-entry.
    //    Each one passes the privacy shield before it is sent; both
    //    subscriptions are Alice's, so the window coalesces their two
    //    matches into one message.
    subs.stage_window(&gupster, &mut pool, WeekTime::at(0, 10, 0));
    let batches = subs.flush_window(&gupster);
    let notes: Vec<_> = batches.iter().flat_map(|b| &b.notifications).collect();
    println!("\npush notifications delivered: {}", notes.len());
    for n in notes {
        println!("  → subscriber {} notified of change at {}", n.subscriber, n.path);
    }

    // 4. Any application now reads the new value through the normal
    //    referral flow.
    let keys = MergeKeys::new();
    let signer = gupster.signer();
    let out = gupster
        .lookup("alice", &target, "alice", Purpose::Query, WeekTime::at(0, 10, 5), 3)
        .unwrap();
    let r = fetch_merge(&pool, &out.referral, &signer, 3, &keys).unwrap();
    let numbers: Vec<String> = r.iter().map(|e| e.text().into_owned()).collect();
    println!("\nread back everywhere: device number = {numbers:?}");
    assert_eq!(numbers, vec!["908-555-9999"]);
}
