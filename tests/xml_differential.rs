//! Differential suite for the zero-copy XML hot path (DESIGN.md §10).
//!
//! The contract under test: the arena representation is a pure
//! *representation* change — for any input, parsing, merging and
//! serializing through [`gupster::xml::ArenaDoc`] / [`MergeOut`] must be
//! byte-identical to the owned [`Element`] oracle, including which
//! inputs are rejected and with what error. All randomness is seeded
//! (`gupster_rng::check`), so failures replay exactly.

use gupster_oracle::{merge, merge_all};
use gupster_rng::check::{self, cases};
use gupster_rng::{Rng, SeedableRng, StdRng};
use gupster::core::{fetch_merge, Gupster, ShardRequest, ShardedRegistry, StorePool};
use gupster::policy::{Purpose, WeekTime};
use gupster::schema::gup_schema;
use gupster::store::{StoreId, XmlStore};
use gupster::xml::{merge_arena, merge_arena_all, ArenaDoc, Element, MergeKeys, MergeOut};
use gupster::xpath::Path;

// ------------------------------------------------- doc generation —

const TAGS: [&str; 7] = ["user", "book", "item", "name", "phone", "note", "a"];
const ATTRS: [&str; 4] = ["id", "name", "type", "kind"];

/// Random *raw source* text for one element subtree: entities, CDATA,
/// comments, whitespace padding and self-closing tags all appear, so
/// both the zero-copy slice path and every copying fallback of the
/// arena parser get exercised.
fn gen_elem_src(rng: &mut StdRng, depth: usize, out: &mut String) {
    let tag = *rng.pick(&TAGS);
    out.push('<');
    out.push_str(tag);
    let n_attrs = rng.gen_range(0usize..3);
    for i in 0..n_attrs {
        out.push(' ');
        out.push_str(ATTRS[(rng.gen_range(0usize..ATTRS.len()) + i) % ATTRS.len()]);
        out.push_str("=\"");
        gen_attr_value(rng, out);
        out.push('"');
    }
    if depth == 0 || rng.gen_bool(0.25) {
        if rng.gen_bool(0.5) {
            out.push_str("/>");
        } else {
            out.push_str("></");
            out.push_str(tag);
            out.push('>');
        }
        return;
    }
    out.push('>');
    let kids = rng.gen_range(1usize..4);
    for _ in 0..kids {
        match rng.gen_range(0u32..10) {
            0..=2 => gen_text(rng, out),
            3 => {
                out.push_str("<!--");
                out.push_str(&check::lowercase(rng, 0, 6));
                out.push_str("-->");
            }
            4 => {
                out.push_str("<![CDATA[");
                out.push_str(&check::lowercase(rng, 0, 6));
                if rng.gen_bool(0.4) {
                    out.push_str("<&>");
                }
                out.push_str("]]>");
            }
            _ => gen_elem_src(rng, depth - 1, out),
        }
        if rng.gen_bool(0.3) {
            out.push_str(["", " ", "\n  ", "\t"][rng.gen_range(0usize..4)]);
        }
    }
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

fn gen_text(rng: &mut StdRng, out: &mut String) {
    for _ in 0..rng.gen_range(1usize..8) {
        match rng.gen_range(0u32..12) {
            0 => out.push_str("&amp;"),
            1 => out.push_str("&lt;"),
            2 => out.push_str("&gt;"),
            3 => out.push_str("&quot;"),
            4 => out.push_str("&apos;"),
            5 => out.push(' '),
            _ => out.push_str(&check::lowercase(rng, 1, 3)),
        }
    }
}

fn gen_attr_value(rng: &mut StdRng, out: &mut String) {
    for _ in 0..rng.gen_range(0usize..5) {
        match rng.gen_range(0u32..8) {
            0 => out.push_str("&amp;"),
            1 => out.push_str("&lt;"),
            2 => out.push_str("&#65;"),
            _ => out.push_str(&check::alnum(rng, 1, 3)),
        }
    }
}

fn gen_doc_src(rng: &mut StdRng) -> String {
    let mut out = String::new();
    if rng.gen_bool(0.3) {
        out.push_str("<?xml version=\"1.0\"?>");
    }
    if rng.gen_bool(0.2) {
        out.push_str("\n<!-- prolog -->\n");
    }
    let depth = rng.gen_range(1usize..4);
    gen_elem_src(rng, depth, &mut out);
    if rng.gen_bool(0.2) {
        out.push('\n');
    }
    out
}

/// Both parsers must agree on `src`: same accept/reject decision, same
/// error, and on accept the same tree and the same serialized bytes.
fn assert_parse_agreement(src: &str) {
    let owned = gupster::xml::parse(src);
    let arena = ArenaDoc::parse(src);
    match (owned, arena) {
        (Ok(o), Ok(a)) => {
            assert_eq!(a.root_element(), o, "tree disagreement on {src:?}");
            assert_eq!(a.to_xml(), o.to_xml(), "byte disagreement on {src:?}");
        }
        (Err(eo), Err(ea)) => {
            assert_eq!(ea.to_string(), eo.to_string(), "error disagreement on {src:?}");
        }
        (o, a) => panic!(
            "accept/reject disagreement on {src:?}: owned={:?} arena={:?}",
            o.map(|e| e.to_xml()),
            a.map(|d| d.to_xml())
        ),
    }
}

#[test]
fn random_documents_parse_identically() {
    cases(400, 0xd1f1, |rng| {
        assert_parse_agreement(&gen_doc_src(rng));
    });
}

/// Single-byte mutations of valid documents: the parsers must still
/// agree, including on which mutations turn the document invalid.
#[test]
fn mutated_documents_parse_identically() {
    cases(600, 0xd1f2, |rng| {
        let mut bytes = gen_doc_src(rng).into_bytes();
        for _ in 0..rng.gen_range(1usize..3) {
            let pos = rng.gen_range(0usize..bytes.len());
            bytes[pos] = *rng.pick(b"<>&;\"'= abc/![-x");
        }
        if let Ok(src) = String::from_utf8(bytes) {
            assert_parse_agreement(&src);
        }
    });
}

// ------------------------------------------------ merge generation —

/// A random profile fragment built through the Element API — keyed
/// items with overlapping ids across fragments, occasional text
/// conflicts, nested unkeyed children.
fn gen_fragment(rng: &mut StdRng) -> Element {
    let mut book = Element::new("book");
    if rng.gen_bool(0.7) {
        book.set_attr("id", "alice");
    }
    if rng.gen_bool(0.3) {
        book.set_attr("kind", check::lowercase(rng, 1, 4));
    }
    for _ in 0..rng.gen_range(0usize..5) {
        let mut item = Element::new("item");
        if rng.gen_bool(0.85) {
            // Small id space forces cross-fragment identity collisions.
            item.set_attr("id", rng.gen_range(0u32..4).to_string());
        }
        if rng.gen_bool(0.4) {
            item.set_attr("type", *rng.pick(&["personal", "corporate"]));
        }
        for _ in 0..rng.gen_range(0usize..3) {
            let tag = *rng.pick(&["name", "phone", "note"]);
            let mut child = Element::new(tag);
            if rng.gen_bool(0.8) {
                // A handful of values: agreements and conflicts both occur.
                child.set_text(*rng.pick(&["x", "y", "z&<", " x "]));
            }
            item.push_child(child);
        }
        book.push_child(item);
    }
    if rng.gen_bool(0.3) {
        book.push_child(Element::new("presence").with_text(*rng.pick(&["online", "away"])));
    }
    book
}

fn gen_keys(rng: &mut StdRng) -> MergeKeys {
    let mut keys = match rng.gen_range(0u32..3) {
        0 => MergeKeys::new(),
        1 => MergeKeys::new().with_key("item", "id"),
        _ => MergeKeys::new().with_key("item", "type"),
    };
    keys.use_default_keys = rng.gen_bool(0.7);
    keys
}

/// Pairwise merge: arena result (or error) must be byte-identical to
/// the owned oracle, in both fragment orders.
#[test]
fn random_merges_match_owned_oracle() {
    cases(500, 0xd1f3, |rng| {
        let keys = gen_keys(rng);
        let a = gen_fragment(rng);
        let b = gen_fragment(rng);
        let da = ArenaDoc::from_element(&a);
        let db = ArenaDoc::from_element(&b);
        for ((x, y), (dx, dy)) in [((&a, &b), (&da, &db)), ((&b, &a), (&db, &da))] {
            let owned = merge(x, y, &keys);
            let arena = merge_arena(dx, dy, &keys);
            match (owned, arena) {
                (Ok(o), Ok(m)) => {
                    assert_eq!(m.to_element(), o);
                    assert_eq!(m.to_xml(), o.to_xml());
                }
                (Err(eo), Err(ea)) => assert_eq!(ea.to_string(), eo.to_string()),
                (o, m) => panic!(
                    "merge disagreement: owned={:?} arena={:?}",
                    o.map(|e| e.to_xml()),
                    m.map(|m| m.to_xml())
                ),
            }
        }
    });
}

/// N-way merge across shuffled fragment orders: `merge_arena_all` must
/// track the owned left fold exactly, order by order.
#[test]
fn random_merge_all_matches_owned_fold() {
    cases(300, 0xd1f4, |rng| {
        let keys = gen_keys(rng);
        let mut frags: Vec<Element> = (0..rng.gen_range(0usize..5)).map(|_| gen_fragment(rng)).collect();
        // A seeded shuffle: merge is order-sensitive on conflicts, and
        // the arena path must agree in every order, not just one.
        for i in (1..frags.len()).rev() {
            frags.swap(i, rng.gen_range(0usize..=i));
        }
        let docs: Vec<ArenaDoc> = frags.iter().map(ArenaDoc::from_element).collect();
        let refs: Vec<&ArenaDoc> = docs.iter().collect();
        match (merge_all(&frags, &keys), merge_arena_all(&refs, &keys)) {
            (Ok(o), Ok(m)) => {
                assert_eq!(m.to_element(), o);
                assert_eq!(m.to_xml(), o.to_xml());
            }
            (Err(eo), Err(ea)) => assert_eq!(ea.to_string(), eo.to_string()),
            (o, m) => panic!(
                "merge_all disagreement: owned={:?} arena={:?}",
                o.map(|e| e.to_xml()),
                m.map(|m| m.to_xml())
            ),
        }
    });
}

/// Parse → merge → serialize over raw sources: the full hot path in one
/// differential, sharing text between the retained parse buffers and
/// the merge output.
#[test]
fn parsed_fragments_merge_identically() {
    cases(200, 0xd1f5, |rng| {
        let keys = gen_keys(rng);
        let src_a = fragment_src(rng);
        let src_b = fragment_src(rng);
        let (oa, ob) =
            (gupster::xml::parse(&src_a).unwrap(), gupster::xml::parse(&src_b).unwrap());
        let (da, db) = (ArenaDoc::parse(&src_a).unwrap(), ArenaDoc::parse(&src_b).unwrap());
        match (merge(&oa, &ob, &keys), merge_arena(&da, &db, &keys)) {
            (Ok(o), Ok(m)) => assert_eq!(m.to_xml(), o.to_xml()),
            (Err(eo), Err(ea)) => assert_eq!(ea.to_string(), eo.to_string()),
            (o, m) => panic!(
                "disagreement on {src_a:?} + {src_b:?}: owned={:?} arena={:?}",
                o.map(|e| e.to_xml()),
                m.map(|m| m.to_xml())
            ),
        }
    });

    fn fragment_src(rng: &mut StdRng) -> String {
        gen_fragment(rng).to_xml()
    }
}

/// Structural sharing must never mutate a source: merging, then
/// re-merging the same accumulator, then serializing, leaves every
/// input document byte-identical to a fresh parse.
#[test]
fn merge_never_disturbs_source_documents() {
    cases(100, 0xd1f6, |rng| {
        let keys = gen_keys(rng);
        let frags: Vec<Element> = (0..3).map(|_| gen_fragment(rng)).collect();
        let docs: Vec<ArenaDoc> = frags.iter().map(ArenaDoc::from_element).collect();
        let before: Vec<String> = docs.iter().map(ArenaDoc::to_xml).collect();
        let mut acc = MergeOut::from_doc(&docs[0]);
        for d in &docs[1..] {
            if let Ok(next) = acc.merge_with(d, &keys) {
                acc = next;
            }
        }
        let _ = acc.to_xml();
        let after: Vec<String> = docs.iter().map(ArenaDoc::to_xml).collect();
        assert_eq!(before, after, "merge mutated a source arena");
    });
}

// ------------------------------------------- E17-shape sharded check —

/// The rewired fetch pipeline (arena merge inside `fetch_merge`) must
/// leave the sharded scatter-gather answers unchanged: sequential
/// oracle vs. sharded execution over a seeded randomized federation.
#[test]
fn sharded_answers_unchanged_by_arena_fetch_path() {
    const USERS: usize = 12;
    let keys = MergeKeys::new().with_key("item", "id");
    let mut rng = StdRng::seed_from_u64(0xd1f7);

    // Randomized split profiles over three stores.
    let mut stores: Vec<XmlStore> = (0..3).map(|j| XmlStore::new(format!("store{j}"))).collect();
    let mut seq = Gupster::new(gup_schema(), b"xmldiff");
    let mut reg1 = ShardedRegistry::new(gup_schema(), b"xmldiff", 1);
    let mut reg4 = ShardedRegistry::new(gup_schema(), b"xmldiff", 4);
    for i in 0..USERS {
        let u = format!("user{i:02}");
        for (slice, ty) in [("personal", "personal"), ("corporate", "corporate")] {
            let store = rng.gen_range(0usize..3);
            let mut doc = Element::new("user").with_attr("id", u.clone());
            let mut book = Element::new("address-book");
            for k in 0..rng.gen_range(1usize..4) {
                book.push_child(
                    Element::new("item")
                        .with_attr("id", format!("{}{k}", &ty[..1]))
                        .with_attr("type", ty)
                        .with_child(
                            Element::new("name")
                                .with_text(check::printable_nonblank(&mut rng, 1, 8)),
                        ),
                );
            }
            doc.push_child(book);
            stores[store].put_profile(doc).unwrap();
            let path = Path::parse(&format!(
                "/user[@id='{u}']/address-book/item[@type='{slice}']"
            ))
            .unwrap();
            let sid = StoreId::new(format!("store{store}"));
            seq.register_component(&u, path.clone(), sid.clone()).unwrap();
            reg1.register_component(&u, path.clone(), sid.clone()).unwrap();
            reg4.register_component(&u, path, sid).unwrap();
        }
    }
    let mut pool = StorePool::new();
    for s in stores {
        pool.add(Box::new(s));
    }

    let requests: Vec<ShardRequest> = (0..40)
        .map(|op| {
            let u = format!("user{:02}", rng.gen_range(0usize..USERS));
            ShardRequest {
                owner: u.clone(),
                path: Path::parse(&format!("/user[@id='{u}']/address-book")).unwrap(),
                requester: u,
                purpose: Purpose::Query,
                time: WeekTime::at(1, 10, 0),
                now: op as u64,
            }
        })
        .collect();

    let signer = seq.signer();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| {
            match seq
                .lookup(&r.owner, &r.path, &r.requester, r.purpose, r.time, r.now)
                .and_then(|out| fetch_merge(&pool, &out.referral, &signer, r.now, &keys))
            {
                Ok(elems) => format!("{elems:?}"),
                Err(e) => format!("{e:?}"),
            }
        })
        .collect();

    for (reg, shards) in [(&mut reg1, 1usize), (&mut reg4, 4)] {
        let (results, _) = reg.answer_batch(&pool, &requests, &keys, true);
        let got: Vec<String> = results
            .iter()
            .map(|r| match r {
                Ok(elems) => format!("{elems:?}"),
                Err(e) => format!("{e:?}"),
            })
            .collect();
        assert_eq!(expected, got, "answers diverged at {shards} shards");
    }
}
