//! Model test for the arena edit surface: the same random edits applied
//! to an [`ArenaDoc`] and to an owned [`Element`] must leave the two
//! equal after every step — tree, bytes and counted size, at every live
//! node — however the document was built and across compactions. The
//! document's dead-row and dead-byte counts must be exact: a compacted
//! copy holds precisely the rows and value bytes it reports as live.
//! A tree materialized before an edit or a compaction shares the
//! document's bytes, and must still read exactly as it did after.
//! Deterministic — see `gupster_rng::check`.

use gupster_rng::check::{self, cases};
use gupster_rng::{Rng, StdRng};
use gupster_xml::{parse, ArenaDoc, Element, Name, Node, NodeId, Value};

const TAGS: [&str; 4] = ["a", "item", "name", "café"];
const ATTRS: [&str; 4] = ["id", "k", "n", "mark"];

/// Values with markup characters, multi-byte UTF-8 and the empty string.
fn value(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 12] = ['a', 'Z', ' ', '&', '<', '>', '"', '\'', ';', 'é', '€', '𝄞'];
    check::string_of(rng, &ALPHABET, 0, 6)
}

fn tree(rng: &mut StdRng, depth: u32) -> Element {
    let mut e = Element::new(*rng.pick(&TAGS));
    for k in ATTRS {
        if rng.gen_bool(0.4) {
            e.set_attr(k, value(rng));
        }
    }
    for _ in 0..rng.gen_range(0..4usize) {
        if depth == 0 || rng.gen_bool(0.35) {
            e.push_text(value(rng));
        } else {
            e.push_child(tree(rng, depth - 1));
        }
    }
    e
}

/// Every live element with its path of element-child positions.
fn live(doc: &ArenaDoc) -> Vec<(NodeId, Vec<usize>)> {
    let mut out = Vec::new();
    let mut stack = vec![(doc.root(), Vec::new())];
    while let Some((id, path)) = stack.pop() {
        for (i, c) in doc.child_elements(id).enumerate() {
            let mut p = path.clone();
            p.push(i);
            stack.push((c, p));
        }
        out.push((id, path));
    }
    out
}

fn at<'e>(e: &'e Element, path: &[usize]) -> &'e Element {
    path.iter().fold(e, |e, &i| e.child_elements().nth(i).expect("mirrored"))
}

fn at_mut<'e>(e: &'e mut Element, path: &[usize]) -> &'e mut Element {
    path.iter().fold(e, |e, &i| e.child_elements_mut().nth(i).expect("mirrored"))
}

/// Index in `e.children` of its `i`-th element child.
fn slot(e: &Element, i: usize) -> usize {
    let mut elems = e.children.iter().enumerate().filter(|(_, c)| matches!(c, Node::Element(_)));
    elems.nth(i).expect("element child").0
}

fn agree(doc: &ArenaDoc, model: &Element, what: &str) {
    assert_eq!(doc.root_element(), *model, "{what}");
    assert_eq!(doc.to_xml(), model.to_xml(), "{what}");
    for (id, path) in live(doc) {
        let m = at(model, &path);
        assert_eq!(doc.to_element(id), *m, "{what} at {path:?}");
        assert_eq!(doc.byte_size(id), m.byte_size(), "{what} at {path:?}");
    }
    let mut packed = doc.clone();
    packed.compact();
    assert_eq!(packed.to_xml(), model.to_xml(), "{what}");
    assert_eq!(packed.owned_value_bytes(), 0, "{what}");
    assert_eq!(
        (packed.live_rows(), packed.live_value_bytes()),
        (doc.live_rows(), doc.live_value_bytes()),
        "{what}: dead counts are exact"
    );
}

#[test]
fn random_edits_match_the_owned_tree_model() {
    cases(200, 0x1ab8, |rng| {
        let start = tree(rng, 3);
        let (mut doc, mut model) = if rng.gen_bool(0.5) {
            let xml = start.to_xml();
            // The same document indented: the parse drops the
            // indentation as it reads, so it is born without garbage.
            let indented = xml.replace("><", ">\n  <");
            let doc = ArenaDoc::parse(&indented).expect("own output, indented");
            assert_eq!((doc.dead_rows(), doc.dead_value_bytes()), (0, 0), "{indented}");
            agree(&doc, &parse(&indented).expect("own output, indented"), "indented parse");
            let doc = ArenaDoc::parse(&xml).expect("own output");
            assert_eq!((doc.dead_rows(), doc.dead_value_bytes()), (0, 0), "{xml}");
            (doc, parse(&xml).expect("own output"))
        } else {
            (ArenaDoc::from_element(&start), start)
        };
        agree(&doc, &model, "as built");
        for step in 0..25 {
            let earlier = doc.root_element();
            let earlier_xml = earlier.to_xml();
            let nodes = live(&doc);
            let (id, path) = rng.pick(&nodes).clone();
            let kids: Vec<NodeId> = doc.child_elements(id).collect();
            let what = match rng.gen_range(0..6u32) {
                0 => {
                    let t = tree(rng, 1);
                    let fresh = doc.graft_element(&t);
                    doc.push_child(id, fresh);
                    at_mut(&mut model, &path).push_child(t);
                    "push_child"
                }
                1 => {
                    let v = value(rng);
                    doc.set_text(id, &v);
                    at_mut(&mut model, &path).set_text(v);
                    "set_text"
                }
                2 => {
                    let (k, v) = (*rng.pick(&ATTRS), value(rng));
                    doc.set_attr(id, k, &v);
                    at_mut(&mut model, &path).set_attr(k, v);
                    "set_attr"
                }
                3 if !kids.is_empty() => {
                    let i = rng.gen_range(0..kids.len());
                    assert!(doc.remove_child(id, kids[i]));
                    assert!(!doc.remove_child(id, kids[i]), "already gone");
                    let m = at_mut(&mut model, &path);
                    m.children.remove(slot(m, i));
                    "remove_child"
                }
                4 if !kids.is_empty() => {
                    let i = rng.gen_range(0..kids.len());
                    let t = tree(rng, 1);
                    let fresh = doc.graft_element(&t);
                    assert!(doc.replace_child(id, kids[i], fresh));
                    let m = at_mut(&mut model, &path);
                    let s = slot(m, i);
                    m.children[s] = Node::Element(t);
                    "replace_child"
                }
                _ => {
                    doc.compact();
                    assert_eq!((doc.dead_rows(), doc.dead_value_bytes()), (0, 0));
                    "compact"
                }
            };
            agree(&doc, &model, &format!("step {step}: {what} at {path:?}"));
            assert_eq!(earlier.to_xml(), earlier_xml, "step {step}: {what} changed an earlier answer");
        }
    });
}

/// Shared values must not make trees bigger than `String` values did:
/// a larger node or attribute pair would cost bytes on every answer.
#[test]
fn shared_values_keep_the_tree_as_small_as_string_values() {
    use std::mem::size_of;
    #[allow(dead_code)]
    enum StringNode {
        Element(Element),
        Text(String),
    }
    assert!(size_of::<Node>() <= size_of::<StringNode>());
    assert!(size_of::<(Name, Value)>() <= size_of::<(Name, String)>());
    assert_eq!(size_of::<Value>(), size_of::<String>());
}
