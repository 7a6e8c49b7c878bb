//! Integration tests spanning the whole stack: registry + policy +
//! stores + adapters + sync + netsim, exercising the paper's §2
//! scenarios end to end.

use gupster::core::subs::ShardedFanout;
use gupster::core::{fetch_merge, Gupster, GupsterError, StorePool};
use gupster::netsim::topology::ConvergedNetwork;
use gupster::policy::{Effect, Purpose, WeekTime};
use gupster::schema::{gup_schema, sample_profile};
use gupster::store::{LdapAdapter, RelationalAdapter, StoreId, UpdateOp, XmlStore};
use gupster::sync::{two_way_sync, ReconcilePolicy, Replica};
use gupster::xml::{parse, MergeKeys};
use gupster::xpath::Path;

fn p(s: &str) -> Path {
    Path::parse(s).unwrap()
}

fn keys() -> MergeKeys {
    MergeKeys::new().with_key("item", "id")
}

fn noon() -> WeekTime {
    WeekTime::at(2, 12, 0)
}

/// Three heterogeneous stores — native XML, relational (HLR-style), and
/// LDAP — all GUP-enabled, federated under one registry.
fn heterogeneous_world() -> (Gupster, StorePool) {
    let mut g = Gupster::new(gup_schema(), b"it");

    let mut portal = XmlStore::new("gup.yahoo.com");
    portal.put_profile(sample_profile("alice")).unwrap();

    let mut carrier = RelationalAdapter::new("gup.spcs.com");
    carrier.add_subscriber("alice", "Alice Smith", "908-555-0199");

    let mut enterprise = LdapAdapter::new("gup.lucent.com", "lucent");
    enterprise.add_user("alice", "Alice Smith", "Smith").unwrap();
    enterprise.add_contact("alice", "corporate", "Rick Hull", "908-582-4393").unwrap();

    g.register_component("alice", p("/user[@id='alice']/address-book"), StoreId::new("gup.yahoo.com"))
        .unwrap();
    g.register_component("alice", p("/user[@id='alice']/calendar"), StoreId::new("gup.yahoo.com"))
        .unwrap();
    g.register_component("alice", p("/user[@id='alice']/presence"), StoreId::new("gup.spcs.com"))
        .unwrap();
    g.register_component(
        "alice",
        p("/user[@id='alice']/address-book/item[@type='corporate']"),
        StoreId::new("gup.lucent.com"),
    )
    .unwrap();

    let mut pool = StorePool::new();
    pool.add(Box::new(portal));
    pool.add(Box::new(carrier));
    pool.add(Box::new(enterprise));
    pool.drain_all_events().for_each(drop);
    (g, pool)
}

#[test]
fn federated_lookup_across_three_backend_kinds() {
    let (mut g, pool) = heterogeneous_world();
    let signer = g.signer();

    // Presence comes from the relational adapter.
    let out = g
        .lookup("alice", &p("/user[@id='alice']/presence"), "alice", Purpose::Query, noon(), 0)
        .unwrap();
    assert_eq!(*out.referral.entries[0].store, StoreId::new("gup.spcs.com"));
    let r = fetch_merge(&pool, &out.referral, &signer, 0, &keys()).unwrap();
    assert_eq!(r[0].text(), "unknown");

    // The whole address book merges XML-native and LDAP-wrapped data.
    let out = g
        .lookup("alice", &p("/user[@id='alice']/address-book"), "alice", Purpose::Query, noon(), 1)
        .unwrap();
    assert!(out.referral.merge_required);
    let r = fetch_merge(&pool, &out.referral, &signer, 1, &keys()).unwrap();
    assert_eq!(r.len(), 1);
    let names: Vec<String> = r[0]
        .children_named("item")
        .filter_map(|i| i.child("name").map(|n| n.text().into_owned()))
        .collect();
    assert!(names.iter().any(|n| n == "Rick Hull"), "LDAP data present: {names:?}");
    assert!(names.iter().any(|n| n == "Mom"), "portal data present: {names:?}");
}

#[test]
fn provisioning_flows_through_adapters() {
    let (mut g, mut pool) = heterogeneous_world();
    // Update presence through the registry's routing.
    let routing = g
        .route_update("alice", &p("/user[@id='alice']/presence"), "alice", noon(), 2)
        .unwrap();
    assert_eq!(routing.referral.entries.len(), 1);
    pool.update(
        &routing.referral.entries[0].store,
        "alice",
        &UpdateOp::SetText(Path::clone(&routing.referral.entries[0].path), "busy".into()),
    )
    .unwrap();
    let signer = g.signer();
    let out = g
        .lookup("alice", &p("/user[@id='alice']/presence"), "alice", Purpose::Query, noon(), 3)
        .unwrap();
    let r = fetch_merge(&pool, &out.referral, &signer, 3, &keys()).unwrap();
    assert_eq!(r[0].text(), "busy");
}

#[test]
fn shield_narrowing_interacts_with_heterogeneous_coverage() {
    let (mut g, pool) = heterogeneous_world();
    g.set_relationship("alice", "mom", "family");
    g.pap
        .provision(
            "alice",
            "family-personal",
            Effect::Permit,
            "/user/address-book/item[@type='personal']",
            "relationship='family'",
            0,
        )
        .unwrap();
    let out = g
        .lookup("alice", &p("/user[@id='alice']/address-book"), "mom", Purpose::Query, noon(), 4)
        .unwrap();
    assert!(out.narrowed);
    let signer = g.signer();
    let r = fetch_merge(&pool, &out.referral, &signer, 4, &keys()).unwrap();
    // Only personal items came back — the corporate (LDAP) split is out
    // of the narrowed scope.
    for frag in &r {
        assert_eq!(frag.attr("type"), Some("personal"), "{}", frag.to_xml());
    }
    assert!(!r.is_empty());
}

#[test]
fn subscriptions_deliver_across_the_federation() {
    let (mut g, mut pool) = heterogeneous_world();
    let mut subs = ShardedFanout::new(1);
    subs.subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "alice", noon(), 0)
        .unwrap();
    pool.update(
        &StoreId::new("gup.spcs.com"),
        "alice",
        &UpdateOp::SetText(p("/user/presence"), "away".into()),
    )
    .unwrap();
    subs.stage_window(&g, &mut pool, noon());
    let batches = subs.flush_window(&g);
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].notifications.len(), 1);
    assert_eq!(batches[0].notifications[0].owner, "alice");
}

#[test]
fn phone_sync_roundtrip_through_portal_store() {
    let (_, mut pool) = heterogeneous_world();
    let portal_book = pool
        .get(&StoreId::new("gup.yahoo.com"))
        .unwrap()
        .query(&p("/user[@id='alice']/address-book"))
        .unwrap()
        .remove(0);
    let mut phone = Replica::new("phone", portal_book.clone(), keys());
    let mut portal = Replica::new("portal", portal_book, keys());

    // Edit on the phone; conflicting edit at the portal.
    phone
        .edit(gupster::xml::EditOp::Insert {
            parent: gupster::xml::NodePath::root(),
            element: parse(r#"<item id="50" type="personal"><name>Eve</name></item>"#).unwrap(),
        })
        .unwrap();
    portal
        .edit(gupster::xml::EditOp::SetText {
            path: gupster::xml::NodePath::root().keyed("item", "id", "1").child("name", 0),
            text: "Mother".into(),
        })
        .unwrap();
    let report = two_way_sync(&mut phone, &mut portal, ReconcilePolicy::LastWriterWins).unwrap();
    assert!(report.converged);
    assert_eq!(phone.doc, portal.doc);
    // Write the converged book back through the pool.
    pool.update(
        &StoreId::new("gup.yahoo.com"),
        "alice",
        &UpdateOp::Replace(p("/user/address-book"), (*portal.doc).clone()),
    )
    .unwrap();
    let back = pool
        .get(&StoreId::new("gup.yahoo.com"))
        .unwrap()
        .query(&p("/user[@id='alice']/address-book/item[@id='50']/name"))
        .unwrap();
    assert_eq!(back[0].text(), "Eve");
}

#[test]
fn spurious_and_denied_requests_never_reach_stores() {
    let (mut g, _pool) = heterogeneous_world();
    let before = g.stats.clone();
    assert!(matches!(
        g.lookup("alice", &p("/user/mp3s"), "alice", Purpose::Query, noon(), 0),
        Err(GupsterError::SpuriousQuery(_))
    ));
    assert!(matches!(
        g.lookup("alice", &p("/user[@id='alice']/calendar"), "stranger", Purpose::Query, noon(), 0),
        Err(GupsterError::AccessDenied { .. })
    ));
    assert_eq!(g.stats.spurious, before.spurious + 1);
    assert_eq!(g.stats.denied, before.denied + 1);
    assert_eq!(g.stats.referrals, before.referrals);
}

#[test]
fn converged_network_call_flows_still_work_under_profile_load() {
    // The GUPster layer must not disturb the underlying call flows.
    let mut world = ConvergedNetwork::build(99);
    world.populate_alice();
    // Wireless call delivery to Alice's cell.
    let origin = world.sprintpcs.areas[1].1;
    let (t, _) = world.sprintpcs.call_delivery(&world.net, origin, "908-555-0199").unwrap();
    assert!(t < gupster::netsim::SimTime::millis(200));
    // PSTN call to her office.
    let (_, outcome) =
        world.pstn.call_setup(&world.net, world.pstn.node, "201-555-1234", "908-582-3000");
    assert!(matches!(outcome, gupster::netsim::pstn::CallOutcome::Connected { .. }));
    // SIP invite to her softphone.
    let (_, invite) = world.proxy.route_invite(
        &world.net,
        &world.registrar,
        world.client,
        "sip:alice@voip.net",
    );
    assert!(matches!(invite, gupster::netsim::voip::InviteOutcome::Ringing(_)));
}

#[test]
fn carrier_switch_preserves_portal_data() {
    let (mut g, pool) = heterogeneous_world();
    let dropped = g.unregister_store("alice", &StoreId::new("gup.spcs.com"));
    assert_eq!(dropped, 1);
    // Presence is gone…
    assert!(matches!(
        g.lookup("alice", &p("/user[@id='alice']/presence"), "alice", Purpose::Query, noon(), 9),
        Err(GupsterError::NoCoverage(_))
    ));
    // …but the book still answers.
    let out = g
        .lookup("alice", &p("/user[@id='alice']/address-book"), "alice", Purpose::Query, noon(), 9)
        .unwrap();
    let signer = g.signer();
    let r = fetch_merge(&pool, &out.referral, &signer, 9, &keys()).unwrap();
    assert!(!r.is_empty());
}
