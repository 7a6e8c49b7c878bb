//! Multi-replica synchronization: Alice's phone, PDA and the portal's
//! primary copy (Req. 4: "telephone book may be stored in the end-user's
//! phone, with a 'primary' copy held by an internet portal"; GUP's
//! terminal management includes "between terminals (e.g., phone ↔
//! laptop)"). The portal is the hub of a star: devices sync with it, not
//! with each other.

use gupster_sync::{two_way_sync, ReconcilePolicy, Replica, SyncReport};
use gupster_xml::{parse, EditOp, Element, MergeKeys, NodePath};

fn keys() -> MergeKeys {
    MergeKeys::new().with_key("item", "id")
}

fn base() -> Element {
    parse(
        r#"<address-book><item id="1"><name>Mom</name></item><item id="2"><name>Rick</name></item></address-book>"#,
    )
    .unwrap()
}

fn insert(id: &str, name: &str) -> EditOp {
    EditOp::Insert {
        parent: NodePath::root(),
        element: Element::new("item")
            .with_attr("id", id)
            .with_child(Element::new("name").with_text(name)),
    }
}

fn rename(id: &str, name: &str) -> EditOp {
    EditOp::SetText {
        path: NodePath::root().keyed("item", "id", id).child("name", 0),
        text: name.into(),
    }
}

fn sync(a: &mut Replica, b: &mut Replica) -> SyncReport {
    two_way_sync(a, b, ReconcilePolicy::LastWriterWins).unwrap()
}

#[test]
fn star_propagates_edits_between_devices_via_portal() {
    let mut portal = Replica::new("portal", base(), keys());
    let mut phone = Replica::new("phone", base(), keys());
    let mut pda = Replica::new("pda", base(), keys());

    // Edit on the phone.
    phone.edit(insert("3", "Bob")).unwrap();
    // Phone syncs with the hub; PDA syncs afterwards.
    sync(&mut phone, &mut portal);
    let r = sync(&mut pda, &mut portal);
    assert!(r.converged);
    assert_eq!(pda.doc.root_element().children_named("item").count(), 3);
    assert_eq!(phone.doc, portal.doc);
    assert_eq!(pda.doc, portal.doc);
}

#[test]
fn concurrent_device_edits_converge_through_hub() {
    let mut portal = Replica::new("portal", base(), keys());
    let mut phone = Replica::new("phone", base(), keys());
    let mut pda = Replica::new("pda", base(), keys());
    // Prime anchors.
    sync(&mut phone, &mut portal);
    sync(&mut pda, &mut portal);

    // Disjoint concurrent edits on both devices.
    phone.edit(insert("10", "PhoneContact")).unwrap();
    pda.edit(insert("20", "PdaContact")).unwrap();
    pda.edit(rename("1", "Mother")).unwrap();

    // Two rounds of star sync reach global convergence.
    sync(&mut phone, &mut portal);
    sync(&mut pda, &mut portal);
    sync(&mut phone, &mut portal);
    assert_eq!(phone.doc, portal.doc);
    assert_eq!(pda.doc, portal.doc);
    assert_eq!(portal.doc.root_element().children_named("item").count(), 4);
    let book = portal.doc.root_element();
    let mom = book
        .children_named("item")
        .into_iter()
        .find(|i| i.attr("id") == Some("1"))
        .unwrap()
        .child("name")
        .unwrap()
        .text();
    assert_eq!(mom, "Mother");
}

#[test]
fn conflicting_device_edits_resolve_consistently_everywhere() {
    let mut portal = Replica::new("portal", base(), keys());
    let mut phone = Replica::new("phone", base(), keys());
    let mut pda = Replica::new("pda", base(), keys());
    sync(&mut phone, &mut portal);
    sync(&mut pda, &mut portal);

    // Both devices rename the same contact concurrently.
    phone.edit(rename("1", "PhoneName")).unwrap();
    pda.edit(rename("1", "PdaName")).unwrap();
    pda.edit(rename("2", "bump")).unwrap(); // pda's clock runs ahead

    sync(&mut phone, &mut portal);
    sync(&mut pda, &mut portal);
    sync(&mut phone, &mut portal);

    // Everyone agrees on one winner.
    assert_eq!(phone.doc, portal.doc);
    assert_eq!(pda.doc, portal.doc);
    let book = portal.doc.root_element();
    let name = book
        .children_named("item")
        .into_iter()
        .find(|i| i.attr("id") == Some("1"))
        .unwrap()
        .child("name")
        .unwrap()
        .text();
    assert!(name == "PhoneName" || name == "PdaName");
}

#[test]
fn device_restored_from_backup_slow_syncs_and_rejoins() {
    let mut portal = Replica::new("portal", base(), keys());
    let mut phone = Replica::new("phone", base(), keys());
    sync(&mut phone, &mut portal);
    portal.edit(insert("5", "New")).unwrap();
    sync(&mut phone, &mut portal);

    // The phone is wiped and restored from an old backup.
    let mut phone = Replica::new("phone", base(), keys());
    let r = sync(&mut phone, &mut portal);
    // Anchors are gone on the phone side but the portal remembers a
    // newer anchor for "phone" than the fresh log head → slow sync.
    assert!(r.slow_sync);
    assert!(r.converged);
    assert_eq!(phone.doc, portal.doc);
    assert_eq!(phone.doc.root_element().children_named("item").count(), 3);
}

#[test]
fn hub_sequences_many_devices() {
    let mut portal = Replica::new("portal", base(), keys());
    let mut devices: Vec<Replica> =
        (0..6).map(|i| Replica::new(format!("dev{i}").as_str(), base(), keys())).collect();
    for d in &mut devices {
        sync(d, &mut portal);
    }
    for (i, d) in devices.iter_mut().enumerate() {
        d.edit(insert(&format!("d{i}"), &format!("FromDevice{i}"))).unwrap();
    }
    // Two passes around the star.
    for _ in 0..2 {
        for d in &mut devices {
            sync(d, &mut portal);
        }
    }
    for d in &devices {
        assert_eq!(d.doc, portal.doc, "{} diverged", d.id);
    }
    assert_eq!(portal.doc.root_element().children_named("item").count(), 2 + devices.len());
}
