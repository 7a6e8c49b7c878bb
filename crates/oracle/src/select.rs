//! Path selection over owned [`Element`] trees: the evaluator the
//! arena selection ([`Path::select_arena`]) replaced, and the locator
//! that resolves a path to [`NodePath`] addresses for a model to edit
//! through. Both follow the XPath fragment's semantics directly, one
//! step at a time, with pointer identity standing for node identity.

use std::collections::{HashMap, HashSet};

use gupster_xml::{Element, NodePath};
use gupster_xpath::{Axis, NameTest, Path, Predicate};

use crate::tree::resolve;

/// True if `test` accepts the tag or attribute `name`.
fn accepts(test: &NameTest, name: &str) -> bool {
    match test {
        NameTest::Any => true,
        NameTest::Name(n) => n == name,
    }
}

/// The elements `path` selects within the document rooted at `root`.
///
/// The first step is matched against `root` itself (GUPster paths are
/// absolute into a profile document, `/user[@id=…]/…`). For a path
/// whose final step is an attribute step, the *owner elements* of the
/// matching attributes are returned; [`select_strings`] reads the
/// attribute values.
pub fn select<'a>(path: &Path, root: &'a Element) -> Vec<&'a Element> {
    // The virtual document node is the sole context at the start.
    let mut contexts: Vec<Ctx<'a>> = vec![Ctx::Document(root)];
    for step in &path.steps {
        if step.axis == Axis::Attribute {
            // Owner elements that actually carry a matching attribute.
            return contexts
                .into_iter()
                .filter_map(Ctx::element)
                .filter(|e| match &step.test {
                    NameTest::Any => !e.attrs.is_empty(),
                    NameTest::Name(n) => e.attr(n).is_some(),
                })
                .collect();
        }
        let mut next: Vec<Ctx<'a>> = Vec::new();
        for ctx in &contexts {
            let mut candidates: Vec<&'a Element> = Vec::new();
            match step.axis {
                Axis::Child => match ctx {
                    Ctx::Document(r) => {
                        if accepts(&step.test, &r.name) {
                            candidates.push(r);
                        }
                    }
                    Ctx::Node(e) => {
                        let children = e.child_elements().filter(|c| accepts(&step.test, &c.name));
                        candidates.extend(children);
                    }
                },
                Axis::Descendant => {
                    match ctx {
                        Ctx::Document(r) => {
                            collect_self_and_descendants(r, &step.test, &mut candidates)
                        }
                        Ctx::Node(e) => collect_descendants(e, &step.test, &mut candidates),
                    };
                }
                Axis::Attribute => unreachable!("handled above"),
            }
            apply_predicates(&step.predicates, &mut candidates);
            next.extend(candidates.into_iter().map(Ctx::Node));
        }
        dedup_by_identity(&mut next);
        contexts = next;
        if contexts.is_empty() {
            break;
        }
    }
    contexts.into_iter().filter_map(Ctx::element).collect()
}

/// String values `path` selects: attribute values if it targets an
/// attribute, otherwise the trimmed direct text of selected elements.
pub fn select_strings(path: &Path, root: &Element) -> Vec<String> {
    if let Some(last) = path.steps.last() {
        if last.axis == Axis::Attribute {
            return select(path, root)
                .into_iter()
                .flat_map(|e| match &last.test {
                    NameTest::Any => e.attrs.iter().map(|(_, v)| v.to_string()).collect::<Vec<_>>(),
                    NameTest::Name(n) => e.attr(n).map(|v| vec![v.to_string()]).unwrap_or_default(),
                })
                .collect();
        }
    }
    select(path, root).into_iter().map(|e| e.text().trim().to_string()).collect()
}

#[derive(Clone, Copy)]
enum Ctx<'a> {
    /// The virtual document node above the root element.
    Document(&'a Element),
    /// A real element.
    Node(&'a Element),
}

impl<'a> Ctx<'a> {
    fn element(self) -> Option<&'a Element> {
        match self {
            Ctx::Document(_) => None,
            Ctx::Node(e) => Some(e),
        }
    }
}

fn collect_descendants<'a>(e: &'a Element, test: &NameTest, out: &mut Vec<&'a Element>) {
    for c in e.child_elements() {
        if accepts(test, &c.name) {
            out.push(c);
        }
        collect_descendants(c, test, out);
    }
}

fn collect_self_and_descendants<'a>(e: &'a Element, test: &NameTest, out: &mut Vec<&'a Element>) {
    if accepts(test, &e.name) {
        out.push(e);
    }
    collect_descendants(e, test, out);
}

fn apply_predicates(preds: &[Predicate], candidates: &mut Vec<&Element>) {
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
            Predicate::AttrEq(a, v) => candidates.retain(|e| e.attr(a) == Some(v.as_str())),
            Predicate::AttrExists(a) => candidates.retain(|e| e.attr(a).is_some()),
            Predicate::ChildEq(c, v) => candidates.retain(|e| {
                e.child_elements().any(|ch| ch.name == *c && ch.text().trim() == v)
            }),
            Predicate::ChildExists(c) => {
                candidates.retain(|e| e.child_elements().any(|ch| ch.name == *c))
            }
        }
    }
}

fn dedup_by_identity(ctxs: &mut Vec<Ctx<'_>>) {
    let mut seen: Vec<*const Element> = Vec::new();
    ctxs.retain(|c| {
        let ptr: *const Element = match c {
            Ctx::Document(e) | Ctx::Node(e) => *e,
        };
        if seen.contains(&ptr) {
            false
        } else {
            seen.push(ptr);
            true
        }
    });
}

/// A [`NodePath`] (indexed child steps from the root) for every element
/// `path` selects in `root`, in document order: resolving each address
/// yields exactly the elements [`select`] returns. A model store edits
/// through these, since Rust cannot hand out `&mut` to several nodes of
/// one tree at once.
pub fn select_node_paths(path: &Path, root: &Element) -> Vec<NodePath> {
    let mut contexts: Vec<Located> = vec![Located::Document];
    for step in &path.steps {
        if step.axis == Axis::Attribute {
            // Attribute steps address their owner element.
            return contexts
                .into_iter()
                .filter_map(|c| match c {
                    Located::Document => None,
                    Located::Node(p) => {
                        let e = resolve(&p, root).expect("address valid");
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
                    if accepts(&step.test, &root.name) {
                        candidates.push(NodePath::root());
                    }
                }
                (Located::Document, Axis::Descendant) => {
                    if accepts(&step.test, &root.name) {
                        candidates.push(NodePath::root());
                    }
                    locate_descendants(root, NodePath::root(), &step.test, &mut candidates);
                }
                (Located::Node(p), Axis::Child) => {
                    let e = resolve(p, root).expect("address valid");
                    locate_children(e, p, &step.test, &mut candidates);
                }
                (Located::Node(p), Axis::Descendant) => {
                    let e = resolve(p, root).expect("address valid");
                    locate_descendants(e, p.clone(), &step.test, &mut candidates);
                }
                (_, Axis::Attribute) => unreachable!("handled above"),
            }
            filter_located(root, &step.predicates, &mut candidates);
            next.extend(candidates);
        }
        // Cross-context duplicates (possible with //): full dedup.
        let mut seen = HashSet::new();
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

enum Located {
    Document,
    Node(NodePath),
}

fn locate_children(e: &Element, at: &NodePath, test: &NameTest, out: &mut Vec<NodePath>) {
    let mut occurrence: HashMap<&str, usize> = HashMap::new();
    for c in e.child_elements() {
        let occ = occurrence.entry(&*c.name).or_insert(0);
        let this = *occ;
        *occ += 1;
        if accepts(test, &c.name) {
            out.push(at.clone().child(c.name.clone(), this));
        }
    }
}

fn locate_descendants(e: &Element, at: NodePath, test: &NameTest, out: &mut Vec<NodePath>) {
    let mut occurrence: HashMap<&str, usize> = HashMap::new();
    for c in e.child_elements() {
        let occ = occurrence.entry(&*c.name).or_insert(0);
        let this = *occ;
        *occ += 1;
        let cp = at.clone().child(c.name.clone(), this);
        if accepts(test, &c.name) {
            out.push(cp.clone());
        }
        locate_descendants(c, cp, test, out);
    }
}

fn filter_located(root: &Element, preds: &[Predicate], candidates: &mut Vec<NodePath>) {
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
                resolve(p, root).is_some_and(|e| e.attr(a) == Some(v.as_str()))
            }),
            Predicate::AttrExists(a) => {
                candidates.retain(|p| resolve(p, root).is_some_and(|e| e.attr(a).is_some()))
            }
            Predicate::ChildEq(c, v) => candidates.retain(|p| {
                resolve(p, root).is_some_and(|e| {
                    e.child_elements().any(|ch| ch.name == *c && ch.text().trim() == v)
                })
            }),
            Predicate::ChildExists(c) => candidates.retain(|p| {
                resolve(p, root).is_some_and(|e| e.child_elements().any(|ch| ch.name == *c))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::resolve_mut;
    use gupster_xml::parse;

    fn doc() -> Element {
        parse(
            r#"<user id="arnaud">
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
               </user>"#,
        )
        .unwrap()
    }

    fn p(path: &str) -> Path {
        Path::parse(path).unwrap()
    }

    fn sel(path: &str, root: &Element) -> Vec<String> {
        select(&p(path), root).iter().map(|e| e.to_xml()).collect()
    }

    #[test]
    fn root_step_matches_document_element() {
        let d = doc();
        assert_eq!(select(&p("/user"), &d).len(), 1);
        assert_eq!(select(&p("/nope"), &d).len(), 0);
        assert_eq!(select(&p("/user[@id='arnaud']"), &d).len(), 1);
        assert_eq!(select(&p("/user[@id='rick']"), &d).len(), 0);
    }

    #[test]
    fn paper_lookup_queries() {
        let d = doc();
        // "retrieve presence information for Alice"-style lookups (§2.3).
        assert_eq!(select_strings(&p("/user[@id='arnaud']/presence"), &d), vec!["online"]);
        assert_eq!(sel("/user/address-book/item[@type='personal']", &d).len(), 2);
        assert_eq!(sel("/user/address-book/item[@type='corporate']", &d).len(), 1);
    }

    #[test]
    fn attribute_selection() {
        let d = doc();
        assert_eq!(select_strings(&p("/user/@id"), &d), vec!["arnaud"]);
        assert_eq!(select_strings(&p("/user/devices/device/@kind"), &d), vec!["phone", "pda"]);
        // Owner elements are returned by select().
        assert_eq!(select(&p("/user/@id"), &d).len(), 1);
        assert!(select(&p("/user/@missing"), &d).is_empty());
    }

    #[test]
    fn descendant_axis() {
        let d = doc();
        assert_eq!(sel("//item", &d).len(), 3);
        assert_eq!(sel("//name", &d).len(), 5);
        assert_eq!(sel("//user", &d).len(), 1); // includes the root itself
        assert_eq!(sel("/user//name", &d).len(), 5);
        assert_eq!(sel("/user/address-book//name", &d).len(), 3);
    }

    #[test]
    fn wildcard() {
        let d = doc();
        assert_eq!(sel("/user/*", &d).len(), 3);
        assert_eq!(sel("/*", &d).len(), 1);
    }

    #[test]
    fn position_predicate() {
        let d = doc();
        assert_eq!(select_strings(&p("/user/address-book/item[2]/name"), &d), vec!["Rick"]);
        assert!(select(&p("/user/address-book/item[9]"), &d).is_empty());
        // Successive filters: personal items, then second of those.
        assert_eq!(
            select_strings(&p("/user/address-book/item[@type='personal'][2]/name"), &d),
            vec!["Bob"]
        );
    }

    #[test]
    fn child_eq_predicate() {
        let d = doc();
        assert_eq!(sel("/user/address-book/item[name='Rick']", &d).len(), 1);
        assert_eq!(sel("/user/address-book/item[phone]", &d).len(), 2);
        assert_eq!(sel("/user/address-book/item[name='Nobody']", &d).len(), 0);
    }

    #[test]
    fn no_duplicate_results_from_descendant() {
        let d = parse("<a><b><b><c/></b></b></a>").unwrap();
        // //b//c: both b's reach the same c.
        assert_eq!(sel("//b//c", &d).len(), 1);
    }

    #[test]
    fn empty_path_selects_nothing_but_matches_root_queries() {
        let d = doc();
        // "/" addresses the document; we return no element for it.
        assert!(select(&p("/"), &d).is_empty());
    }

    fn book() -> Element {
        parse(
            r#"<user id="a"><book><item id="1" type="p"><n>A</n></item><item id="2" type="c"><n>B</n></item></book><book><item id="3" type="p"><n>C</n></item></book></user>"#,
        )
        .unwrap()
    }

    fn agrees(expr: &str) {
        let d = book();
        let path = p(expr);
        let by_ref: Vec<String> = select(&path, &d).iter().map(|e| e.to_xml()).collect();
        let by_addr: Vec<String> = select_node_paths(&path, &d)
            .iter()
            .map(|a| resolve(a, &d).expect("resolvable").to_xml())
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
        let mut d = book();
        let addrs = select_node_paths(&p("//item[@type='p']"), &d);
        assert_eq!(addrs.len(), 2);
        for a in &addrs {
            resolve_mut(a, &mut d).unwrap().set_attr("marked", "yes");
        }
        assert_eq!(select(&p("//item[@marked='yes']"), &d).len(), 2);
    }

    #[test]
    fn no_duplicate_addresses_from_descendant() {
        let d = parse("<a><b><b><c/></b></b></a>").unwrap();
        let addrs = select_node_paths(&p("//b//c"), &d);
        assert_eq!(addrs.len(), 1);
    }
}
