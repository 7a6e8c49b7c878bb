//! The arena edit operations checked against the owned-tree machinery
//! of `gupster-oracle`: an [`EditOp`] applied with
//! [`EditOp::apply_to`] leaves the tree `gupster_oracle::apply` leaves
//! (and fails where it fails); [`ArenaDoc::add_missing_entries`] adds
//! what the inserts of the owned `diff` add; and arena equality is
//! owned-tree equality.

use gupster_oracle::{apply, canonicalize, diff};
use gupster_rng::check::cases;
use gupster_rng::{Rng, StdRng};
use gupster_xml::{ArenaDoc, EditOp, Element, MergeKeys, NodePath};

fn keys() -> MergeKeys {
    MergeKeys::new().with_key("item", "id")
}

fn word(rng: &mut StdRng) -> String {
    (*rng.pick(&["a", "b", "c"])).to_string()
}

/// An address book: items with unique ids among six, each with a name,
/// maybe a phone and a note attribute; a `note` field; a few unkeyed
/// `tag` entries, repeats allowed.
fn book(rng: &mut StdRng) -> Element {
    let mut b = Element::new("address-book");
    for i in 0..6 {
        if rng.gen_bool(0.6) {
            let mut item = Element::new("item")
                .with_attr("id", format!("c{i}"))
                .with_child(Element::new("name").with_text(word(rng)));
            if rng.gen_bool(0.3) {
                item.push_child(Element::new("phone").with_text(word(rng)));
            }
            if rng.gen_bool(0.3) {
                item.set_attr("note", word(rng));
            }
            b.push_child(item);
        }
    }
    if rng.gen_bool(0.7) {
        b.push_child(Element::new("note").with_text(word(rng)));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        b.push_child(Element::new("tag").with_text(word(rng)));
    }
    b
}

fn item(rng: &mut StdRng) -> NodePath {
    NodePath::root().keyed("item", "id", format!("c{}", rng.gen_range(0..7usize)))
}

fn op(rng: &mut StdRng) -> EditOp {
    match rng.gen_range(0..9u32) {
        0 => EditOp::Insert {
            parent: if rng.gen_bool(0.8) { NodePath::root() } else { item(rng) },
            element: Element::new("item").with_attr("id", "n").with_child(Element::new("name").with_text(word(rng))),
        },
        1 => EditOp::Delete { path: item(rng) },
        2 => EditOp::Delete { path: NodePath::root().child("tag", rng.gen_range(0..3usize)) },
        3 => EditOp::Delete { path: NodePath::root() },
        4 => EditOp::SetAttr { path: item(rng), name: "note".into(), value: word(rng) },
        5 => EditOp::RemoveAttr { path: item(rng), name: (*rng.pick(&["note", "id", "never-set"])).into() },
        6 => EditOp::SetText { path: NodePath::root().child("tag", rng.gen_range(0..3usize)), text: word(rng) },
        _ => EditOp::SetText { path: item(rng).child("name", 0), text: word(rng) },
    }
}

#[test]
fn apply_to_matches_the_owned_apply() {
    cases(300, 0xED17, |rng| {
        let mut model = book(rng);
        let mut doc = ArenaDoc::from_element(&model);
        for step in 0..30 {
            let op = op(rng);
            let got = op.apply_to(&mut doc);
            let want = apply(&op, &mut model);
            assert_eq!(got, want, "step {step}: {op:?}");
            assert_eq!(doc.root_element(), model, "step {step}: {op:?}");
            assert_eq!(doc.to_xml(), model.to_xml(), "step {step}: {op:?}");
        }
    });
}

#[test]
fn add_missing_entries_matches_the_owned_diff_inserts() {
    let keys = keys();
    cases(400, 0xADD5, |rng| {
        let (winner, loser) = (book(rng), book(rng));
        let mut owned = winner.clone();
        for op in diff(&winner, &loser, &keys) {
            if let EditOp::Insert { .. } = op {
                apply(&op, &mut owned).unwrap();
            }
        }
        let mut arena = ArenaDoc::from_element(&winner);
        arena.add_missing_entries(&ArenaDoc::from_element(&loser), &keys);
        // The owned diff lists new keyed entries in hash-map order;
        // compare in canonical order, which fixes every list here.
        let mut got = arena.root_element();
        canonicalize(&mut got, &keys);
        canonicalize(&mut owned, &keys);
        assert_eq!(got, owned, "{} + {}", winner.to_xml(), loser.to_xml());
        // Adding again adds nothing.
        let before = arena.to_xml();
        arena.add_missing_entries(&ArenaDoc::from_element(&loser), &keys);
        assert_eq!(arena.to_xml(), before);
    });
}

#[test]
fn arena_equality_is_owned_equality() {
    cases(400, 0xE0A1, |rng| {
        let a = book(rng);
        let mut b = if rng.gen_bool(0.5) { a.clone() } else { book(rng) };
        if rng.gen_bool(0.3) {
            b.attrs.reverse();
            for c in b.child_elements_mut() {
                c.attrs.reverse();
            }
        }
        let (da, db) = (ArenaDoc::from_element(&a), ArenaDoc::from_element(&b));
        assert_eq!(da == db, a == b, "{} vs {}", a.to_xml(), b.to_xml());
        // However the rows lie: an edited and compacted copy compares
        // as the tree it holds.
        let mut edited = db.clone();
        let root = edited.root();
        edited.set_attr(root, "v", "1");
        edited.remove_attr(root, "v");
        assert_eq!(da == edited, a == b);
        edited.compact();
        assert_eq!(da == edited, a == b);
    });
}
