//! Evaluation of path expressions over XML trees.

use gupster_xml::Element;

use crate::ast::{Axis, NameTest, Path, Predicate};

impl Path {
    /// Selects the elements addressed by this path within the document
    /// rooted at `root`.
    ///
    /// The first step is matched against `root` itself (GUPster paths are
    /// absolute into a profile document, `/user[@id=…]/…`). For a path
    /// whose final step is an attribute step, the *owner elements* of the
    /// matching attributes are returned; use [`Path::select_strings`] to
    /// obtain the attribute values.
    pub fn select<'a>(&self, root: &'a Element) -> Vec<&'a Element> {
        // The virtual document node is the sole context at the start.
        let mut contexts: Vec<Ctx<'a>> = vec![Ctx::Document(root)];
        for step in &self.steps {
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
                            if step.test.accepts(&r.name) {
                                candidates.push(r);
                            }
                        }
                        Ctx::Node(e) => {
                            candidates
                                .extend(e.child_elements().filter(|c| step.test.accepts(&c.name)));
                        }
                    },
                    Axis::Descendant => {
                        match ctx {
                            Ctx::Document(r) => collect_self_and_descendants(r, &step.test, &mut candidates),
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

    /// Selects string values: attribute values if the path targets an
    /// attribute, otherwise the trimmed direct text of selected elements.
    pub fn select_strings(&self, root: &Element) -> Vec<String> {
        if let Some(last) = self.steps.last() {
            if last.axis == Axis::Attribute {
                return self
                    .select(root)
                    .into_iter()
                    .flat_map(|e| match &last.test {
                        NameTest::Any => {
                            e.attrs.iter().map(|(_, v)| v.to_string()).collect::<Vec<_>>()
                        }
                        NameTest::Name(n) => {
                            e.attr(n).map(|v| vec![v.to_string()]).unwrap_or_default()
                        }
                    })
                    .collect();
            }
        }
        self.select(root).into_iter().map(|e| e.text().trim().to_string()).collect()
    }
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
        if test.accepts(&c.name) {
            out.push(c);
        }
        collect_descendants(c, test, out);
    }
}

fn collect_self_and_descendants<'a>(e: &'a Element, test: &NameTest, out: &mut Vec<&'a Element>) {
    if test.accepts(&e.name) {
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

#[cfg(test)]
mod tests {
    use super::*;
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

    fn sel(path: &str, root: &Element) -> Vec<String> {
        Path::parse(path).unwrap().select(root).iter().map(|e| e.to_xml()).collect()
    }

    #[test]
    fn root_step_matches_document_element() {
        let d = doc();
        assert_eq!(Path::parse("/user").unwrap().select(&d).len(), 1);
        assert_eq!(Path::parse("/nope").unwrap().select(&d).len(), 0);
        assert_eq!(Path::parse("/user[@id='arnaud']").unwrap().select(&d).len(), 1);
        assert_eq!(Path::parse("/user[@id='rick']").unwrap().select(&d).len(), 0);
    }

    #[test]
    fn paper_lookup_queries() {
        let d = doc();
        // "retrieve presence information for Alice"-style lookups (§2.3).
        assert_eq!(
            Path::parse("/user[@id='arnaud']/presence").unwrap().select_strings(&d),
            vec!["online"]
        );
        assert_eq!(sel("/user/address-book/item[@type='personal']", &d).len(), 2);
        assert_eq!(sel("/user/address-book/item[@type='corporate']", &d).len(), 1);
    }

    #[test]
    fn attribute_selection() {
        let d = doc();
        assert_eq!(Path::parse("/user/@id").unwrap().select_strings(&d), vec!["arnaud"]);
        assert_eq!(
            Path::parse("/user/devices/device/@kind").unwrap().select_strings(&d),
            vec!["phone", "pda"]
        );
        // Owner elements are returned by select().
        assert_eq!(Path::parse("/user/@id").unwrap().select(&d).len(), 1);
        assert!(Path::parse("/user/@missing").unwrap().select(&d).is_empty());
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
        assert_eq!(
            Path::parse("/user/address-book/item[2]/name").unwrap().select_strings(&d),
            vec!["Rick"]
        );
        assert!(Path::parse("/user/address-book/item[9]").unwrap().select(&d).is_empty());
        // Successive filters: personal items, then second of those.
        assert_eq!(
            Path::parse("/user/address-book/item[@type='personal'][2]/name")
                .unwrap()
                .select_strings(&d),
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
        assert!(Path::parse("/").unwrap().select(&d).is_empty());
    }
}
