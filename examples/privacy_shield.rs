//! The privacy shield (§4.6): provisioning and enforcement.
//!
//! Alice provisions the paper's own example policies through the PAP:
//!
//! * any co-worker can access her presence during working hours;
//! * her boss and her family can access her presence at any time;
//! * her family can access her personal address book and calendar.
//!
//! GUPster then acts as repository, decision point and enforcement
//! point: requests are rewritten (narrowed) or refused, and every
//! referral carries a signed, time-stamped query that the stores verify.
//!
//! ```text
//! cargo run --example privacy_shield
//! ```

use gupster::core::{fetch_merge, Gupster, GupsterError, StorePool};
use gupster::policy::{Effect, Purpose, WeekTime};
use gupster::schema::{gup_schema, sample_profile};
use gupster::store::{StoreId, XmlStore};
use gupster::xml::MergeKeys;
use gupster::xpath::Path;

fn main() {
    let mut gupster = Gupster::new(gup_schema(), b"shield-key");
    let mut store = XmlStore::new("gup.yahoo.com");
    store.put_profile(sample_profile("alice")).unwrap();
    gupster
        .register_component(
            "alice",
            Path::parse("/user[@id='alice']/address-book").unwrap(),
            StoreId::new("gup.yahoo.com"),
        )
        .unwrap();
    for comp in ["presence", "calendar", "devices", "identity"] {
        gupster
            .register_component(
                "alice",
                Path::parse(&format!("/user[@id='alice']/{comp}")).unwrap(),
                StoreId::new("gup.yahoo.com"),
            )
            .unwrap();
    }
    let mut pool = StorePool::new();
    pool.add(Box::new(store));

    // Alice declares who is who (relationships drive the conditions).
    gupster.set_relationship("alice", "rick", "co-worker");
    gupster.set_relationship("alice", "dan", "boss");
    gupster.set_relationship("alice", "mom", "family");

    // Provision the §4.6 policies through the administration point.
    gupster
        .pap
        .provision(
            "alice",
            "coworkers-presence",
            Effect::Permit,
            "/user/presence",
            "relationship='co-worker' and time in Mon-Fri 09:00-18:00",
            0,
        )
        .unwrap();
    gupster
        .pap
        .provision(
            "alice",
            "boss-family-presence",
            Effect::Permit,
            "/user/presence",
            "relationship='boss' or relationship='family'",
            0,
        )
        .unwrap();
    gupster
        .pap
        .provision(
            "alice",
            "family-personal-book",
            Effect::Permit,
            "/user/address-book/item[@type='personal']",
            "relationship='family'",
            0,
        )
        .unwrap();
    gupster
        .pap
        .provision("alice", "family-calendar", Effect::Permit, "/user/calendar", "relationship='family'", 0)
        .unwrap();

    println!("Alice's privacy shield:");
    for line in gupster.pap.list("alice") {
        println!("  {line}");
    }

    let keys = MergeKeys::new().with_key("item", "id");
    let signer = gupster.signer();
    let mut ask = |who: &str, what: &str, when: WeekTime, label: &str| {
        let path = Path::parse(what).unwrap();
        print!("\n{label}\n  {who} asks for {what} → ");
        match gupster.lookup("alice", &path, who, Purpose::Query, when, 100) {
            Ok(out) => {
                let narrowed = if out.narrowed { " (narrowed by the shield)" } else { "" };
                println!("referral{narrowed}: {}", out.referral);
                let r = fetch_merge(&pool, &out.referral, &signer, 100, &keys).unwrap();
                for frag in &r {
                    println!("  fetched: {}", frag.to_xml());
                }
            }
            Err(GupsterError::AccessDenied { .. }) => println!("REFUSED by the privacy shield"),
            Err(e) => println!("error: {e}"),
        }
    };

    ask("rick", "/user[@id='alice']/presence", WeekTime::at(1, 11, 0), "co-worker, Tuesday 11:00");
    ask("rick", "/user[@id='alice']/presence", WeekTime::at(1, 22, 0), "co-worker, Tuesday 22:00");
    ask("dan", "/user[@id='alice']/presence", WeekTime::at(6, 3, 0), "boss, Sunday 03:00");
    ask("mom", "/user[@id='alice']/address-book", WeekTime::at(3, 15, 0), "family asks for the WHOLE book");
    ask("mallory", "/user[@id='alice']/presence", WeekTime::at(1, 11, 0), "a stranger");
    ask("rick", "/user[@id='alice']/calendar", WeekTime::at(1, 11, 0), "co-worker asks for the calendar");

    // The signed-query protocol: a tampered or stale token is refused by
    // the data store (§5.3 Security).
    let path = Path::parse("/user[@id='alice']/presence").unwrap();
    let out = gupster
        .lookup("alice", &path, "dan", Purpose::Query, WeekTime::at(1, 11, 0), 200)
        .unwrap();
    let mut forged = out.referral.clone();
    forged.token.paths = vec!["/user[@id='alice']/wallet".to_string()].into();
    println!("\nforged token accepted by store? {:?}", fetch_merge(&pool, &forged, &signer, 200, &keys).is_ok());
    println!("stale token (61s later) accepted? {:?}", fetch_merge(&pool, &out.referral, &signer, 261, &keys).is_ok());
    println!("fresh, untampered token accepted? {:?}", fetch_merge(&pool, &out.referral, &signer, 210, &keys).is_ok());
}
