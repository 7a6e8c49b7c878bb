//! Locating selected nodes as stable [`NodePath`]s.
//!
//! Data stores apply *updates* at XPath targets (Req. 11 provisioning).
//! Rust's ownership model makes returning `&mut` for several nodes at
//! once impossible, so updates resolve a path expression to a set of
//! [`NodePath`] addresses first, then mutate through each address.

use gupster_xml::{Element, NodePath};

use crate::ast::{Axis, NameTest, Path, Predicate};

impl Path {
    /// Returns a [`NodePath`] (indexed child steps from the root) for
    /// every element this expression selects in `root`. The addresses
    /// are returned in document order; the same invariant as
    /// [`Path::select`] holds: `path.select(root)` and resolving each
    /// returned address yield the same elements.
    pub fn select_node_paths(&self, root: &Element) -> Vec<NodePath> {
        let mut contexts: Vec<Located> = vec![Located::Document];
        for step in &self.steps {
            if step.axis == Axis::Attribute {
                // Attribute steps address their owner element.
                return contexts
                    .into_iter()
                    .filter_map(|c| match c {
                        Located::Document => None,
                        Located::Node(p) => {
                            let e = p.resolve(root).expect("address valid");
                            let ok = match &step.test {
                                NameTest::Any => !e.attrs.is_empty(),
                                NameTest::Name(n) => e.attr(n).is_some(),
                            };
                            ok.then_some(p)
                        }
                    })
                    .collect();
            }
            let mut next: Vec<NodePath> = Vec::new();
            for ctx in &contexts {
                let mut candidates: Vec<NodePath> = Vec::new();
                match (ctx, step.axis) {
                    (Located::Document, Axis::Child) => {
                        if step.test.accepts(&root.name) {
                            candidates.push(NodePath::root());
                        }
                    }
                    (Located::Document, Axis::Descendant) => {
                        if step.test.accepts(&root.name) {
                            candidates.push(NodePath::root());
                        }
                        collect_descendants(root, NodePath::root(), &step.test, &mut candidates);
                    }
                    (Located::Node(p), Axis::Child) => {
                        let e = p.resolve(root).expect("address valid");
                        push_children(e, p, &step.test, &mut candidates);
                    }
                    (Located::Node(p), Axis::Descendant) => {
                        let e = p.resolve(root).expect("address valid");
                        collect_descendants(e, p.clone(), &step.test, &mut candidates);
                    }
                    (_, Axis::Attribute) => unreachable!("handled above"),
                }
                apply_predicates(root, &step.predicates, &mut candidates);
                next.extend(candidates);
            }
            // Cross-context duplicates (possible with //): full dedup.
            let mut seen = std::collections::HashSet::new();
            next.retain(|p| seen.insert(p.clone()));
            contexts = next.into_iter().map(Located::Node).collect();
            if contexts.is_empty() {
                break;
            }
        }
        contexts
            .into_iter()
            .filter_map(|c| match c {
                Located::Document => None,
                Located::Node(p) => Some(p),
            })
            .collect()
    }
}

enum Located {
    Document,
    Node(NodePath),
}

fn push_children(e: &Element, at: &NodePath, test: &NameTest, out: &mut Vec<NodePath>) {
    let mut occurrence: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for c in e.child_elements() {
        let occ = occurrence.entry(&*c.name).or_insert(0);
        let this = *occ;
        *occ += 1;
        if test.accepts(&c.name) {
            out.push(at.clone().child(c.name.clone(), this));
        }
    }
}

fn collect_descendants(e: &Element, at: NodePath, test: &NameTest, out: &mut Vec<NodePath>) {
    let mut occurrence: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for c in e.child_elements() {
        let occ = occurrence.entry(&*c.name).or_insert(0);
        let this = *occ;
        *occ += 1;
        let cp = at.clone().child(c.name.clone(), this);
        if test.accepts(&c.name) {
            out.push(cp.clone());
        }
        collect_descendants(c, cp, test, out);
    }
}

fn apply_predicates(root: &Element, preds: &[Predicate], candidates: &mut Vec<NodePath>) {
    for p in preds {
        match p {
            Predicate::Position(n) => {
                let idx = n - 1;
                if idx < candidates.len() {
                    let kept = candidates[idx].clone();
                    candidates.clear();
                    candidates.push(kept);
                } else {
                    candidates.clear();
                }
            }
            Predicate::AttrEq(a, v) => candidates.retain(|p| {
                p.resolve(root).is_some_and(|e| e.attr(a) == Some(v.as_str()))
            }),
            Predicate::AttrExists(a) => {
                candidates.retain(|p| p.resolve(root).is_some_and(|e| e.attr(a).is_some()))
            }
            Predicate::ChildEq(c, v) => candidates.retain(|p| {
                p.resolve(root).is_some_and(|e| {
                    e.child_elements().any(|ch| ch.name == *c && ch.text().trim() == v)
                })
            }),
            Predicate::ChildExists(c) => candidates.retain(|p| {
                p.resolve(root).is_some_and(|e| e.child_elements().any(|ch| ch.name == *c))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_xml::parse;

    fn doc() -> Element {
        parse(
            r#"<user id="a"><book><item id="1" type="p"><n>A</n></item><item id="2" type="c"><n>B</n></item></book><book><item id="3" type="p"><n>C</n></item></book></user>"#,
        )
        .unwrap()
    }

    fn agrees(expr: &str) {
        let d = doc();
        let path = Path::parse(expr).unwrap();
        let by_ref: Vec<String> = path.select(&d).iter().map(|e| e.to_xml()).collect();
        let by_addr: Vec<String> = path
            .select_node_paths(&d)
            .iter()
            .map(|p| p.resolve(&d).expect("resolvable").to_xml())
            .collect();
        assert_eq!(by_ref, by_addr, "{expr}");
    }

    #[test]
    fn addresses_agree_with_select() {
        for expr in [
            "/user",
            "/user/book",
            "/user/book/item",
            "/user/book/item[@type='p']",
            "/user/book[2]/item",
            "//item",
            "//item[@id='3']",
            "/user/*",
            "//n",
            "/user/book/item[n='B']",
            "/user/@id",
            "/nothing",
        ] {
            agrees(expr);
        }
    }

    #[test]
    fn addresses_usable_for_mutation() {
        let mut d = doc();
        let addrs = Path::parse("//item[@type='p']").unwrap().select_node_paths(&d);
        assert_eq!(addrs.len(), 2);
        for a in &addrs {
            a.resolve_mut(&mut d).unwrap().set_attr("marked", "yes");
        }
        assert_eq!(
            Path::parse("//item[@marked='yes']").unwrap().select(&d).len(),
            2
        );
    }

    #[test]
    fn no_duplicate_addresses_from_descendant() {
        let d = parse("<a><b><b><c/></b></b></a>").unwrap();
        let addrs = Path::parse("//b//c").unwrap().select_node_paths(&d);
        assert_eq!(addrs.len(), 1);
    }
}
