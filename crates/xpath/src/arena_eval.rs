//! Evaluation of path expressions over arena documents.
//!
//! Mirrors [`eval`](crate::ast::Path::select) step for step, but walks a
//! [`gupster_xml::ArenaDoc`] by [`NodeId`] instead of chasing `&Element`
//! pointers. Selection never clones a subtree: the result is a set of
//! node ids into the arena, and context deduplication compares ids
//! directly (the arena analogue of pointer identity).

use gupster_xml::{ArenaDoc, NodeId};

use crate::ast::{Axis, NameTest, Path, Predicate};

impl Path {
    /// Selects the element nodes addressed by this path within `doc`.
    ///
    /// Arena counterpart of [`Path::select`]: the first step is matched
    /// against the document root, and for a path whose final step is an
    /// attribute step the *owner elements* of matching attributes are
    /// returned (read the values with `ArenaDoc::attr`).
    pub fn select_arena(&self, doc: &ArenaDoc) -> Vec<NodeId> {
        let mut contexts: Vec<ACtx> = vec![ACtx::Document];
        for step in &self.steps {
            if step.axis == Axis::Attribute {
                return contexts
                    .into_iter()
                    .filter_map(ACtx::node)
                    .filter(|&n| match &step.test {
                        NameTest::Any => doc.attr_count(n) > 0,
                        NameTest::Name(a) => doc.attr(n, a).is_some(),
                    })
                    .collect();
            }
            let mut next: Vec<ACtx> = Vec::new();
            for ctx in &contexts {
                let mut candidates: Vec<NodeId> = Vec::new();
                match step.axis {
                    Axis::Child => match ctx {
                        ACtx::Document => {
                            if step.test.accepts(doc.name(doc.root())) {
                                candidates.push(doc.root());
                            }
                        }
                        ACtx::Node(e) => {
                            candidates.extend(
                                doc.child_elements(*e).filter(|&c| step.test.accepts(doc.name(c))),
                            );
                        }
                    },
                    Axis::Descendant => match ctx {
                        ACtx::Document => {
                            collect_self_and_descendants(doc, doc.root(), &step.test, &mut candidates)
                        }
                        ACtx::Node(e) => collect_descendants(doc, *e, &step.test, &mut candidates),
                    },
                    Axis::Attribute => unreachable!("handled above"),
                }
                apply_predicates(doc, &step.predicates, &mut candidates);
                next.extend(candidates.into_iter().map(ACtx::Node));
            }
            dedup_ids(&mut next);
            contexts = next;
            if contexts.is_empty() {
                break;
            }
        }
        contexts.into_iter().filter_map(ACtx::node).collect()
    }
}

#[derive(Clone, Copy)]
enum ACtx {
    /// The virtual document node above the root element.
    Document,
    /// A real element in the arena.
    Node(NodeId),
}

impl ACtx {
    fn node(self) -> Option<NodeId> {
        match self {
            ACtx::Document => None,
            ACtx::Node(n) => Some(n),
        }
    }
}

fn collect_descendants(doc: &ArenaDoc, e: NodeId, test: &NameTest, out: &mut Vec<NodeId>) {
    for c in doc.child_elements(e) {
        if test.accepts(doc.name(c)) {
            out.push(c);
        }
        collect_descendants(doc, c, test, out);
    }
}

fn collect_self_and_descendants(doc: &ArenaDoc, e: NodeId, test: &NameTest, out: &mut Vec<NodeId>) {
    if test.accepts(doc.name(e)) {
        out.push(e);
    }
    collect_descendants(doc, e, test, out);
}

fn apply_predicates(doc: &ArenaDoc, preds: &[Predicate], candidates: &mut Vec<NodeId>) {
    for p in preds {
        match p {
            Predicate::Position(n) => {
                let idx = n - 1;
                if idx < candidates.len() {
                    let kept = candidates[idx];
                    candidates.clear();
                    candidates.push(kept);
                } else {
                    candidates.clear();
                }
            }
            Predicate::AttrEq(a, v) => {
                candidates.retain(|&e| doc.attr(e, a) == Some(v.as_str()))
            }
            Predicate::AttrExists(a) => candidates.retain(|&e| doc.attr(e, a).is_some()),
            Predicate::ChildEq(c, v) => candidates.retain(|&e| {
                doc.child_elements(e).any(|ch| doc.name(ch) == c && doc.text(ch).trim() == v)
            }),
            Predicate::ChildExists(c) => {
                candidates.retain(|&e| doc.child_elements(e).any(|ch| doc.name(ch) == c))
            }
        }
    }
}

/// Contexts are deduplicated by node id — within one arena, equal ids
/// *are* the same node, so this matches the owned evaluator's
/// pointer-identity dedup exactly.
fn dedup_ids(ctxs: &mut Vec<ACtx>) {
    let mut seen: Vec<Option<NodeId>> = Vec::new();
    ctxs.retain(|c| {
        let key = c.node();
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_xml::Element;

    const DOC: &str = r#"<user id="arnaud">
                 <address-book>
                   <item id="1" type="personal"><name>Mom</name><phone>111</phone></item>
                   <item id="2" type="corporate"><name>Rick</name><phone>222</phone></item>
                   <item id="3" type="personal"><name>Bob</name></item>
                 </address-book>
                 <presence>online</presence>
                 <devices>
                   <device kind="phone"><name>SprintPCS</name></device>
                   <device kind="pda"><name>Palm</name></device>
                 </devices>
               </user>"#;

    /// Asserts the arena evaluator agrees with the owned one on `path`
    /// over `src`, node for node (compared through serialization).
    fn agree(src: &str, path: &str) {
        let owned: Element = gupster_xml::parse(src).unwrap();
        let doc = ArenaDoc::parse(src).unwrap();
        let p = Path::parse(path).unwrap();
        let a: Vec<String> = p.select(&owned).iter().map(|e| e.to_xml()).collect();
        let b: Vec<String> =
            p.select_arena(&doc).iter().map(|&n| doc.to_element(n).to_xml()).collect();
        assert_eq!(a, b, "select disagreement on {path}");
    }

    #[test]
    fn mirrors_owned_eval() {
        for path in [
            "/user",
            "/nope",
            "/user[@id='arnaud']",
            "/user[@id='rick']",
            "/user[@id='arnaud']/presence",
            "/user/address-book/item[@type='personal']",
            "/user/address-book/item[@type='corporate']",
            "/user/@id",
            "/user/devices/device/@kind",
            "/user/@missing",
            "//item",
            "//name",
            "//user",
            "/user//name",
            "/user/address-book//name",
            "/user/*",
            "/*",
            "/user/address-book/item[2]/name",
            "/user/address-book/item[9]",
            "/user/address-book/item[@type='personal'][2]/name",
            "/user/address-book/item[name='Rick']",
            "/user/address-book/item[phone]",
            "/user/address-book/item[name='Nobody']",
            "/user/devices/device/@*",
            "/",
        ] {
            agree(DOC, path);
        }
    }

    #[test]
    fn no_duplicate_results_from_descendant() {
        agree("<a><b><b><c/></b></b></a>", "//b//c");
        let doc = ArenaDoc::parse("<a><b><b><c/></b></b></a>").unwrap();
        assert_eq!(Path::parse("//b//c").unwrap().select_arena(&doc).len(), 1);
    }

    #[test]
    fn selection_is_zero_copy() {
        let doc = ArenaDoc::parse(DOC).unwrap();
        let hits = Path::parse("/user/address-book/item[@type='personal']")
            .unwrap()
            .select_arena(&doc);
        assert_eq!(hits.len(), 2);
        // The ids address straight into the arena — no tree was built.
        assert_eq!(doc.attr(hits[0], "id"), Some("1"));
        assert_eq!(doc.attr(hits[1], "id"), Some("3"));
    }
}
