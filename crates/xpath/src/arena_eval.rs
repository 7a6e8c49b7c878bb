//! Evaluation of path expressions over arena documents.
//!
//! Mirrors [`eval`](crate::ast::Path::select) step for step, but walks a
//! [`gupster_xml::ArenaDoc`] by [`NodeId`] instead of chasing `&Element`
//! pointers. Selection never clones a subtree: the result is a set of
//! node ids into the arena, and context deduplication compares ids
//! directly (the arena analogue of pointer identity).
//!
//! Selection works in one id buffer the caller owns, and allocates only
//! when that buffer must grow: it holds a step's contexts with its
//! results behind them, predicates filter each context's run of results
//! in place, and deduplication (needed only after a descendant step)
//! compacts the results in place too. A caller that keeps its buffer
//! from one read to the next selects without allocating.

use gupster_xml::{ArenaDoc, NodeId};

use crate::ast::{Axis, NameTest, Path, Predicate};

impl Path {
    /// Selects the element nodes addressed by this path within `doc`
    /// into `ids`, replacing what it held, in document order.
    ///
    /// Arena counterpart of [`Path::select`]: the first step is matched
    /// against the document root, and for a path whose final step is an
    /// attribute step the *owner elements* of matching attributes are
    /// selected (read the values with `ArenaDoc::attr`).
    pub fn select_arena(&self, doc: &ArenaDoc, ids: &mut Vec<NodeId>) {
        // One buffer: a step's contexts lie at its front, each appends
        // what it selects behind them, and the contexts are then drained
        // off the front. It is empty before the first step: the virtual
        // document node above the root is the context there, and an
        // attribute step from it selects nothing.
        ids.clear();
        for (i, step) in self.steps.iter().enumerate() {
            if step.axis == Axis::Attribute {
                ids.retain(|&n| match &step.test {
                    NameTest::Any => doc.attr_count(n) > 0,
                    NameTest::Name(a) => doc.attr(n, a).is_some(),
                });
                return;
            }
            if i == 0 {
                let root = doc.root();
                if step.axis == Axis::Descendant {
                    collect_self_and_descendants(doc, root, &step.test, ids);
                } else if step.test.accepts(doc.name(root)) {
                    ids.push(root);
                }
                apply_predicates(doc, &step.predicates, ids, 0);
            } else {
                let contexts = ids.len();
                for at in 0..contexts {
                    let (ctx, run) = (ids[at], ids.len());
                    if step.axis == Axis::Descendant {
                        collect_descendants(doc, ctx, &step.test, ids);
                    } else {
                        ids.extend(doc.child_elements(ctx).filter(|&c| step.test.accepts(doc.name(c))));
                    }
                    apply_predicates(doc, &step.predicates, ids, run);
                }
                ids.drain(..contexts);
            }
            // Distinct contexts have distinct children, since a node has
            // one parent; only descendant runs of nested contexts overlap.
            if step.axis == Axis::Descendant {
                dedup_ids(ids);
            }
            if ids.is_empty() {
                break;
            }
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

/// Filters one context's candidates, `ids[run..]`, through `preds` in
/// place; `ids[..run]` (earlier contexts' results) is left alone.
fn apply_predicates(doc: &ArenaDoc, preds: &[Predicate], ids: &mut Vec<NodeId>, run: usize) {
    for p in preds {
        match p {
            Predicate::Position(n) => match n.checked_sub(1).and_then(|k| (run..ids.len()).nth(k)) {
                Some(at) => {
                    ids[run] = ids[at];
                    ids.truncate(run + 1);
                }
                None => ids.truncate(run),
            },
            Predicate::AttrEq(a, v) => keep(ids, run, |e| doc.attr(e, a) == Some(v.as_str())),
            Predicate::AttrExists(a) => keep(ids, run, |e| doc.attr(e, a).is_some()),
            Predicate::ChildEq(c, v) => keep(ids, run, |e| {
                doc.child_elements(e).any(|ch| doc.name(ch) == c && doc.text(ch).trim() == v)
            }),
            Predicate::ChildExists(c) => {
                keep(ids, run, |e| doc.child_elements(e).any(|ch| doc.name(ch) == c))
            }
        }
    }
}

/// `retain` over `ids[run..]` only, keeping order.
fn keep(ids: &mut Vec<NodeId>, run: usize, mut pred: impl FnMut(NodeId) -> bool) {
    let mut kept = run;
    for at in run..ids.len() {
        let id = ids[at];
        if pred(id) {
            ids[kept] = id;
            kept += 1;
        }
    }
    ids.truncate(kept);
}

/// Drops every id after its first occurrence, in place. Within one
/// arena equal ids *are* the same node, so this matches the owned
/// evaluator's pointer-identity dedup exactly.
fn dedup_ids(ids: &mut Vec<NodeId>) {
    let mut kept = 0;
    for at in 0..ids.len() {
        let id = ids[at];
        if !ids[..kept].contains(&id) {
            ids[kept] = id;
            kept += 1;
        }
    }
    ids.truncate(kept);
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
    /// over `src`, node for node (compared through serialization),
    /// selecting into `ids` whatever it held before.
    fn agree(src: &str, path: &str, ids: &mut Vec<NodeId>) {
        let owned: Element = gupster_xml::parse(src).unwrap();
        let doc = ArenaDoc::parse(src).unwrap();
        let p = Path::parse(path).unwrap();
        let a: Vec<String> = p.select(&owned).iter().map(|e| e.to_xml()).collect();
        p.select_arena(&doc, ids);
        let b: Vec<String> = ids.iter().map(|&n| doc.to_element(n).to_xml()).collect();
        assert_eq!(a, b, "select disagreement on {path}");
    }

    #[test]
    fn mirrors_owned_eval() {
        // One buffer for every path: each selection replaces the last.
        let mut ids = Vec::new();
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
            agree(DOC, path, &mut ids);
        }
    }

    #[test]
    fn no_duplicate_results_from_descendant() {
        let mut ids = Vec::new();
        agree("<a><b><b><c/></b></b></a>", "//b//c", &mut ids);
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn selection_is_zero_copy() {
        let doc = ArenaDoc::parse(DOC).unwrap();
        let mut hits = Vec::new();
        let path = Path::parse("/user/address-book/item[@type='personal']").unwrap();
        path.select_arena(&doc, &mut hits);
        assert_eq!(hits.len(), 2);
        // The ids address straight into the arena — no tree was built.
        assert_eq!(doc.attr(hits[0], "id"), Some("1"));
        assert_eq!(doc.attr(hits[1], "id"), Some("3"));
    }
}
