//! Randomized invariant tests local to the XML crate: parser robustness
//! (no panics on arbitrary input), escaping totality, and NodePath laws.
//! Deterministic — see `gupster_rng::check`.

use gupster_rng::check::{self, cases};
use gupster_rng::Rng;
use gupster_xml::{parse, ArenaDoc, Element, NodePath};

/// The parser must never panic, whatever bytes arrive (stores parse
/// fragments received from untrusted peers).
#[test]
fn parser_never_panics() {
    cases(256, 0x1ab1, |rng| {
        let input = check::printable(rng, 0, 200);
        let _ = parse(&input);
    });
}

/// Fuzzing *around* valid documents: random single-byte mutations
/// either parse or error, but never panic, and a successful parse
/// never produces an element with an empty name.
#[test]
fn mutated_documents_never_panic() {
    cases(512, 0x1ab2, |rng| {
        let base = r#"<user id="a"><book><item id="1"><n>Bob</n></item></book></user>"#;
        let mut bytes = base.as_bytes().to_vec();
        let pos = rng.gen_range(0usize..60);
        let byte = (rng.gen_range(0u32..=255)) as u8;
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        if let Ok(s) = String::from_utf8(bytes) {
            if let Ok(doc) = parse(&s) {
                assert!(!doc.name.is_empty());
            }
        }
    });
}

/// Attribute values with arbitrary printable content round-trip.
#[test]
fn attr_values_roundtrip() {
    cases(256, 0x1ab3, |rng| {
        let value = check::printable(rng, 0, 40);
        let e = Element::new("e").with_attr("k", value.clone());
        let back = parse(&e.to_xml()).unwrap();
        assert_eq!(back.attr("k"), Some(value.as_str()));
    });
}

/// Both counting walks report exactly what the serializer writes,
/// whatever needs escaping, at every node — not only at the root.
#[test]
fn byte_size_counts_the_serialized_form() {
    fn tree(rng: &mut gupster_rng::StdRng, depth: u32) -> Element {
        let mut e = Element::new(*rng.pick(&["a", "item", "name"]));
        for k in ["k", "id"] {
            if rng.gen_bool(0.5) {
                e.set_attr(k, check::printable(rng, 0, 12));
            }
        }
        for _ in 0..rng.gen_range(0usize..4) {
            if depth == 0 || rng.gen_bool(0.4) {
                e.push_text(check::printable(rng, 0, 12));
            } else {
                e.push_child(tree(rng, depth - 1));
            }
        }
        e
    }
    cases(256, 0x1ab7, |rng| {
        let e = tree(rng, 3);
        let doc = ArenaDoc::from_owned(e.clone());
        let mut pending = vec![(doc.root(), &e)];
        while let Some((id, owned)) = pending.pop() {
            let bytes = owned.to_xml().len();
            assert_eq!(owned.byte_size(), bytes);
            assert_eq!(doc.byte_size(id), bytes);
            pending.extend(doc.child_elements(id).zip(owned.child_elements()));
        }
    });
}

/// set_attr then attr is the identity; remove_attr removes.
#[test]
fn attr_store_laws() {
    cases(256, 0x1ab4, |rng| {
        let k = check::lowercase(rng, 1, 8);
        let v1 = check::printable(rng, 0, 10);
        let v2 = check::printable(rng, 0, 10);
        let mut e = Element::new("x");
        e.set_attr(k.clone(), v1);
        e.set_attr(k.clone(), v2.clone());
        assert_eq!(e.attr(&k), Some(v2.as_str()));
        assert_eq!(e.attrs.len(), 1);
        assert_eq!(e.remove_attr(&k), Some(v2));
        assert_eq!(e.attr(&k), None);
    });
}

/// ensure() then resolve() round-trips for arbitrary keyed paths,
/// and is idempotent on the tree shape.
#[test]
fn nodepath_ensure_resolve() {
    cases(256, 0x1ab5, |rng| {
        let segs = check::vec_of(rng, 1, 4, |r| {
            let name = check::lowercase(r, 1, 6);
            let key = r.gen_bool(0.5).then(|| check::alnum(r, 1, 4));
            (name, key)
        });
        let mut path = NodePath::root();
        for (name, key) in &segs {
            path = match key {
                Some(k) => path.keyed(name.clone(), "id", k.clone()),
                None => path.child(name.clone(), 0),
            };
        }
        let mut tree = Element::new("root");
        path.ensure(&mut tree).set_text("payload");
        assert_eq!(path.resolve(&tree).unwrap().text(), "payload");
        let size_before = tree.subtree_size();
        path.ensure(&mut tree);
        assert_eq!(tree.subtree_size(), size_before, "ensure must be idempotent");
        // And removal empties it.
        assert!(path.remove(&mut tree).is_ok());
        assert!(path.resolve(&tree).is_none());
    });
}

/// Deep text concatenation equals the sum of the parts.
#[test]
fn deep_text_is_document_order() {
    cases(256, 0x1ab6, |rng| {
        let t1 = check::lowercase(rng, 0, 6);
        let t2 = check::lowercase(rng, 0, 6);
        let t3 = check::lowercase(rng, 0, 6);
        let e = Element::new("a")
            .with_text(t1.clone())
            .with_child(Element::new("b").with_text(t2.clone()))
            .with_text(t3.clone());
        assert_eq!(e.deep_text(), format!("{t1}{t2}{t3}"));
        assert_eq!(e.text(), format!("{t1}{t3}"));
    });
}
