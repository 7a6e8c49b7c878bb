//! Randomized invariant tests over the core data structures: XML
//! round-trips, deep-union algebra, XPath containment soundness, sync
//! convergence, token integrity, datatype normalizers. Deterministic —
//! see `gupster_rng::check`.

use std::collections::BTreeMap;

use gupster::core::Signer;
use gupster::schema::DataType;
use gupster::sync::{two_way_sync, ReconcilePolicy, Replica};
use gupster::xml::{parse, EditOp, Element, MergeKeys, Node, NodePath};
use gupster::xpath::{contains, covers, may_overlap, Path};
use gupster_oracle::{apply, diff, merge, resolve, select, select_node_paths};
use gupster_rng::check::{self, cases};
use gupster_rng::{Rng, StdRng};

// ---------------------------------------------------------------- XML --

/// Small tag/attr/text alphabets keep counterexamples readable.
fn tag(rng: &mut StdRng) -> String {
    (*rng.pick(&["a", "b", "c", "item", "name"])).to_string()
}

/// Arbitrary-ish text including XML-hostile characters, but no
/// leading/trailing whitespace ambiguity (parser trims element-content
/// indentation, so whitespace-only strings are excluded).
fn text_value(rng: &mut StdRng) -> String {
    check::printable_nonblank(rng, 1, 12)
}

/// Trees whose elements contain EITHER text or child elements (never
/// mixed, never adjacent text nodes) — the profile-document shape; these
/// round-trip exactly.
fn element(rng: &mut StdRng, depth: u32) -> Element {
    let mut e = Element::new(tag(rng));
    if rng.gen_bool(0.5) {
        e.set_attr("k", text_value(rng));
    }
    if depth == 0 || rng.gen_bool(0.4) {
        if rng.gen_bool(0.6) {
            e.push_text(text_value(rng));
        }
    } else {
        for _ in 0..rng.gen_range(0usize..4) {
            e.push_child(element(rng, depth - 1));
        }
    }
    e
}

#[test]
fn parse_after_serialize_is_identity() {
    cases(256, 0xee_01, |rng| {
        let e = element(rng, 3);
        let compact = parse(&e.to_xml()).unwrap();
        assert_eq!(&compact, &e);
        let pretty = parse(&e.to_pretty_xml()).unwrap();
        assert_eq!(&pretty, &e);
    });
}

#[test]
fn byte_size_matches_serialization() {
    cases(256, 0xee_02, |rng| {
        let e = element(rng, 3);
        assert_eq!(e.byte_size(), e.to_xml().len());
    });
}

// --------------------------------------------------------- deep union --

/// Keyed forests: every child of the root carries a unique id, so the
/// deep-union algebra laws hold exactly.
fn keyed_forest(rng: &mut StdRng) -> Element {
    let mut m: BTreeMap<u32, String> = BTreeMap::new();
    for _ in 0..rng.gen_range(0usize..8) {
        m.insert(rng.gen_range(0u32..20), text_value(rng));
    }
    let mut root = Element::new("book");
    for (id, name) in m {
        root.push_child(
            Element::new("item")
                .with_attr("id", id.to_string())
                .with_child(Element::new("name").with_text(name)),
        );
    }
    root
}

fn item_ids(e: &Element) -> Vec<String> {
    let mut ids: Vec<String> =
        e.children_named("item").filter_map(|i| i.attr("id").map(str::to_string)).collect();
    ids.sort();
    ids
}

#[test]
fn merge_idempotent() {
    cases(256, 0xee_03, |rng| {
        let a = keyed_forest(rng);
        let keys = MergeKeys::new().with_key("item", "id");
        let m = merge(&a, &a, &keys).unwrap();
        assert_eq!(m, a);
    });
}

#[test]
fn merge_union_of_identities() {
    cases(256, 0xee_04, |rng| {
        let a = keyed_forest(rng);
        let b = keyed_forest(rng);
        let keys = MergeKeys::new().with_key("item", "id");
        if let Ok(m) = merge(&a, &b, &keys) {
            // The merged id set is exactly the union.
            let mut expect = item_ids(&a);
            expect.extend(item_ids(&b));
            expect.sort();
            expect.dedup();
            assert_eq!(item_ids(&m), expect);
        }
        // (A conflict — same id, different name — is allowed to error.)
    });
}

#[test]
fn merge_commutative_up_to_identity_set() {
    cases(256, 0xee_05, |rng| {
        let a = keyed_forest(rng);
        let b = keyed_forest(rng);
        let keys = MergeKeys::new().with_key("item", "id");
        match (merge(&a, &b, &keys), merge(&b, &a, &keys)) {
            (Ok(ab), Ok(ba)) => assert_eq!(item_ids(&ab), item_ids(&ba)),
            (Err(_), Err(_)) => {}
            (x, y) => panic!("asymmetric outcome: {x:?} vs {y:?}"),
        }
    });
}

#[test]
fn diff_apply_reaches_target() {
    cases(256, 0xee_06, |rng| {
        let a = keyed_forest(rng);
        let b = keyed_forest(rng);
        let keys = MergeKeys::new().with_key("item", "id");
        let ops = diff(&a, &b, &keys);
        let mut patched = a.clone();
        for op in &ops {
            apply(op, &mut patched).unwrap();
        }
        // Same identity sets and same per-id content.
        assert_eq!(item_ids(&patched), item_ids(&b));
        for item in b.children_named("item") {
            let id = item.attr("id").unwrap();
            let got = patched
                .children_named("item")
                .into_iter()
                .find(|i| i.attr("id") == Some(id))
                .unwrap();
            assert_eq!(got, item);
        }
    });
}

#[test]
fn empty_diff_iff_equal() {
    cases(256, 0xee_07, |rng| {
        let a = keyed_forest(rng);
        let keys = MergeKeys::new().with_key("item", "id");
        assert!(diff(&a, &a, &keys).is_empty());
    });
}

// -------------------------------------------------------------- xpath --

/// Random core-fragment paths over the keyed-forest documents.
fn small_path(rng: &mut StdRng) -> Path {
    let steps = rng.gen_range(1usize..4);
    let mut s = String::new();
    for _ in 0..steps {
        let name = *rng.pick(&["book", "item", "name", "*"]);
        s.push('/');
        s.push_str(name);
        if name == "item" && rng.gen_bool(0.5) {
            s.push_str(&format!("[@id='{}']", rng.gen_range(0u32..20)));
        }
    }
    Path::parse(&s).unwrap()
}

#[test]
fn containment_sound_wrt_evaluation() {
    cases(512, 0xee_08, |rng| {
        let p = small_path(rng);
        let q = small_path(rng);
        let doc = keyed_forest(rng);
        if contains(&p, &q) {
            let sel_p: Vec<*const Element> =
                select(&p, &doc).into_iter().map(|e| e as *const _).collect();
            let sel_q: Vec<*const Element> =
                select(&q, &doc).into_iter().map(|e| e as *const _).collect();
            for n in &sel_p {
                assert!(sel_q.contains(n), "p={p} q={q} doc={}", doc.to_xml());
            }
        }
    });
}

#[test]
fn covers_sound_wrt_subtrees() {
    cases(512, 0xee_09, |rng| {
        let c = small_path(rng);
        let r = small_path(rng);
        let doc = keyed_forest(rng);
        // If c covers r, every node selected by r is inside the subtree
        // of some node selected by c.
        if covers(&c, &r) {
            let c_roots = select(&c, &doc);
            for node in select(&r, &doc) {
                let inside = c_roots.iter().any(|root| subtree_contains(root, node));
                assert!(inside, "c={c} r={r} doc={}", doc.to_xml());
            }
        }
    });
}

#[test]
fn overlap_reflexive_and_symmetric() {
    cases(512, 0xee_0a, |rng| {
        let p = small_path(rng);
        let q = small_path(rng);
        assert!(may_overlap(&p, &p));
        assert_eq!(may_overlap(&p, &q), may_overlap(&q, &p));
    });
}

#[test]
fn containment_reflexive_transitive_spot() {
    cases(512, 0xee_0b, |rng| {
        let p = small_path(rng);
        let q = small_path(rng);
        let r = small_path(rng);
        assert!(contains(&p, &p));
        if contains(&p, &q) && contains(&q, &r) {
            assert!(contains(&p, &r), "p={p} q={q} r={r}");
        }
    });
}

#[test]
fn select_node_paths_agree_with_select() {
    cases(256, 0xee_0c, |rng| {
        let p = small_path(rng);
        let doc = keyed_forest(rng);
        let by_ref: Vec<String> = select(&p, &doc).iter().map(|e| e.to_xml()).collect();
        let by_addr: Vec<String> = select_node_paths(&p, &doc)
            .iter()
            .map(|a| resolve(a, &doc).unwrap().to_xml())
            .collect();
        assert_eq!(by_ref, by_addr);
    });
}

#[test]
fn parse_display_roundtrip() {
    cases(512, 0xee_0d, |rng| {
        let p = small_path(rng);
        let reparsed = Path::parse(&p.to_string()).unwrap();
        assert_eq!(reparsed, p);
    });
}

fn subtree_contains(root: &Element, target: &Element) -> bool {
    if std::ptr::eq(root, target) {
        return true;
    }
    root.child_elements().any(|c| subtree_contains(c, target))
}

// ---------------------------------------------------------------- sync --

#[test]
fn sync_converges_under_concurrent_edits() {
    cases(64, 0xee_0e, |rng| {
        let edits_a = check::vec_of(rng, 0, 5, |r| (r.gen_range(0u32..10), text_value(r)));
        let edits_b = check::vec_of(rng, 0, 5, |r| (r.gen_range(0u32..10), text_value(r)));
        let keys = MergeKeys::new().with_key("item", "id");
        let mut base = Element::new("book");
        for i in 0..10u32 {
            base.push_child(
                Element::new("item")
                    .with_attr("id", i.to_string())
                    .with_child(Element::new("name").with_text("base")),
            );
        }
        let mut a = Replica::new("a", base.clone(), keys.clone());
        let mut b = Replica::new("b", base, keys);
        for (id, v) in &edits_a {
            a.edit(EditOp::SetText {
                path: NodePath::root().keyed("item", "id", id.to_string()).child("name", 0),
                text: v.clone(),
            })
            .unwrap();
        }
        for (id, v) in &edits_b {
            b.edit(EditOp::SetText {
                path: NodePath::root().keyed("item", "id", id.to_string()).child("name", 0),
                text: v.clone(),
            })
            .unwrap();
        }
        let r = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert!(r.converged, "{r:?}");
        assert_eq!(&a.doc, &b.doc);
        // A second sync is a no-op.
        let r2 = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert_eq!(r2.shipped_to_first + r2.shipped_to_second, 0);
    });
}

// --------------------------------------------------------------- token --

#[test]
fn token_tampering_always_detected() {
    cases(256, 0xee_0f, |rng| {
        let user = check::lowercase(rng, 1, 8);
        let requester = check::lowercase(rng, 1, 8);
        let path = format!("/{}", check::lowercase(rng, 1, 12));
        let t = rng.gen_range(0u64..100_000);
        let mutated_user = check::lowercase(rng, 1, 8);
        let mutated_path = format!("/{}", check::lowercase(rng, 1, 12));
        let signer = Signer::new(b"prop-key", 30);
        let q = signer.sign(&user, &requester, vec![path.clone()], t);
        assert!(signer.verify(&q, t).is_ok());
        if mutated_user != user {
            let mut bad = q.clone();
            bad.user = mutated_user.into();
            assert!(signer.verify(&bad, t).is_err());
        }
        if mutated_path != path {
            let mut bad = q.clone();
            bad.paths = vec![mutated_path].into();
            assert!(signer.verify(&bad, t).is_err());
        }
    });
}

#[test]
fn token_freshness_window_is_tight() {
    cases(256, 0xee_10, |rng| {
        let t = rng.gen_range(0u64..1_000_000);
        let dt = rng.gen_range(0u64..200);
        let signer = Signer::new(b"prop-key", 30);
        let q = signer.sign("u", "r", vec![], t);
        let ok = signer.verify(&q, t + dt).is_ok();
        assert_eq!(ok, dt <= 30);
    });
}

// ----------------------------------------------------------- datatypes --

#[test]
fn normalize_idempotent() {
    cases(256, 0xee_11, |rng| {
        let raw = check::printable(rng, 0, 20);
        for dt in [
            DataType::Text,
            DataType::Integer,
            DataType::Boolean,
            DataType::PhoneNumber,
            DataType::Email,
            DataType::Uri,
        ] {
            let once = dt.normalize(&raw);
            let twice = dt.normalize(&once);
            assert_eq!(&once, &twice, "{dt:?} on {raw:?}");
        }
    });
}

#[test]
fn phone_normalization_ignores_punctuation() {
    cases(256, 0xee_12, |rng| {
        let digits = check::vec_of(rng, 3, 11, |r| r.gen_range(0u8..10));
        let plain: String = digits.iter().map(|d| d.to_string()).collect();
        let dashed: String = digits
            .iter()
            .enumerate()
            .map(|(i, d)| if i > 0 && i % 3 == 0 { format!("-{d}") } else { d.to_string() })
            .collect();
        assert!(DataType::PhoneNumber.values_equal(&plain, &dashed));
    });
}

#[test]
fn element_text_escaping_total() {
    cases(256, 0xee_13, |rng| {
        let s = check::printable(rng, 0, 30);
        // Any printable text survives a serialize/parse cycle.
        let e = Element::new("t").with_text(s.clone());
        let back = parse(&e.to_xml()).unwrap();
        // Whitespace-only text is preserved for leaf elements.
        assert_eq!(back.text(), s);
    });
}

#[test]
fn node_path_display_stable() {
    cases(128, 0xee_14, |rng| {
        let idx = rng.gen_range(0usize..5);
        let key = check::lowercase(rng, 1, 6);
        let p = NodePath::root().child("a", idx).keyed("item", "id", key);
        let s = p.to_string();
        assert!(s.starts_with("/a"));
        assert!(s.contains("item[@id="));
        let _ = Node::Text("x".into()); // keep the import honest
    });
}
