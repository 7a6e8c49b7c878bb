//! Declarative structural transformations for adapters.
//!
//! §5.3 Data transformation: "we assume the existence of some
//! wrappers/mediators in charge of transforming the data into the right
//! structure. The transformation can be virtual or physical." A
//! [`Transform`] pipeline is the mediator's rule set; adapters apply it
//! on the way out (publish as GUP) and, where invertible, on the way in.

use gupster_xml::{Element, Node};

/// One transformation rule applied to every element of a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transform {
    /// Rename elements with tag `from` to `to`.
    RenameTag {
        /// Old tag.
        from: String,
        /// New tag.
        to: String,
    },
    /// Rename attribute `from` to `to` on elements with tag `on`.
    RenameAttr {
        /// Element tag the rule applies to.
        on: String,
        /// Old attribute name.
        from: String,
        /// New attribute name.
        to: String,
    },
    /// Move the text of elements with tag `on` into an attribute.
    TextToAttr {
        /// Element tag.
        on: String,
        /// Attribute to create.
        attr: String,
    },
    /// Wrap every element with tag `each` in a new parent tag.
    WrapEach {
        /// Tag to wrap.
        each: String,
        /// Wrapper tag.
        wrapper: String,
    },
    /// Drop elements with the given tag (and their subtrees).
    Drop {
        /// Tag to remove.
        tag: String,
    },
    /// Apply a named value normalization to the text of elements with
    /// the given tag (e.g. phone-number canonicalization).
    NormalizeText {
        /// Element tag.
        on: String,
        /// Normalizer name: `phone`, `lowercase` or `trim`.
        normalizer: String,
    },
}

/// A pipeline of transformation rules applied in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pipeline {
    /// Rules, applied first to last.
    pub rules: Vec<Transform>,
}

impl Pipeline {
    /// An empty (identity) pipeline.
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Builder: appends a rule.
    pub fn then(mut self, rule: Transform) -> Self {
        self.rules.push(rule);
        self
    }

    /// Applies the pipeline to a tree, returning the transformed copy.
    pub fn apply(&self, input: &Element) -> Element {
        let mut e = input.clone();
        for rule in &self.rules {
            e = apply_rule(rule, e);
        }
        e
    }
}

fn apply_rule(rule: &Transform, mut e: Element) -> Element {
    // Recurse first so wrapping at this level doesn't re-trigger below.
    let children = std::mem::take(&mut e.children);
    e.children = children
        .into_iter()
        .filter_map(|c| match c {
            Node::Element(ce) => {
                if let Transform::Drop { tag } = rule {
                    if ce.name == *tag {
                        return None;
                    }
                }
                let transformed = apply_rule(rule, ce);
                Some(Node::Element(transformed))
            }
            t @ Node::Text(_) => Some(t),
        })
        .collect();

    match rule {
        Transform::RenameTag { from, to } => {
            if e.name == *from {
                e.name = to.clone();
            }
        }
        Transform::RenameAttr { on, from, to } => {
            if e.name == *on {
                if let Some(v) = e.remove_attr(from) {
                    e.set_attr(to.clone(), v);
                }
            }
        }
        Transform::TextToAttr { on, attr } => {
            if e.name == *on {
                let t = e.text().trim().to_string();
                if !t.is_empty() {
                    e.children.retain(|c| matches!(c, Node::Element(_)));
                    e.set_attr(attr.clone(), t);
                }
            }
        }
        Transform::WrapEach { each, wrapper } => {
            let children = std::mem::take(&mut e.children);
            e.children = children
                .into_iter()
                .map(|c| match c {
                    Node::Element(ce) if ce.name == *each => {
                        let mut w = Element::new(wrapper.clone());
                        w.push_child(ce);
                        Node::Element(w)
                    }
                    other => other,
                })
                .collect();
        }
        Transform::Drop { .. } => {} // handled during recursion
        Transform::NormalizeText { on, normalizer } => {
            if e.name == *on {
                let t = e.text();
                let n = match normalizer.as_str() {
                    "phone" => {
                        let plus = t.trim_start().starts_with('+');
                        let digits: String = t.chars().filter(char::is_ascii_digit).collect();
                        if plus {
                            format!("+{digits}")
                        } else {
                            digits
                        }
                    }
                    "lowercase" => t.trim().to_lowercase(),
                    _ => t.trim().to_string(),
                };
                if !n.is_empty() || !t.trim().is_empty() {
                    e.set_text(n);
                }
            }
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_xml::parse;

    #[test]
    fn rename_tag_recursive() {
        let input = parse("<entry><entry/><other/></entry>").unwrap();
        let out = Pipeline::new()
            .then(Transform::RenameTag { from: "entry".into(), to: "item".into() })
            .apply(&input);
        assert_eq!(out.to_xml(), "<item><item/><other/></item>");
    }

    #[test]
    fn rename_attr_on_specific_tag() {
        let input = parse(r#"<book><item uid="1"/><note uid="2"/></book>"#).unwrap();
        let out = Pipeline::new()
            .then(Transform::RenameAttr { on: "item".into(), from: "uid".into(), to: "id".into() })
            .apply(&input);
        assert_eq!(out.child("item").unwrap().attr("id"), Some("1"));
        assert_eq!(out.child("note").unwrap().attr("uid"), Some("2"));

        // Onto an existing attribute: the pair collapses into one that
        // keeps the target's position and takes the renamed value.
        let input = parse(r#"<book><entry uid="1" kind="a"/><entry uid="2"/></book>"#).unwrap();
        let out = Pipeline::new()
            .then(Transform::RenameAttr {
                on: "entry".into(),
                from: "uid".into(),
                to: "kind".into(),
            })
            .apply(&input);
        assert_eq!(out.to_xml(), r#"<book><entry kind="1"/><entry kind="2"/></book>"#);
    }

    #[test]
    fn text_to_attr() {
        let input = parse("<item><kind>personal</kind><name>Mom</name></item>").unwrap();
        let out = Pipeline::new()
            .then(Transform::TextToAttr { on: "kind".into(), attr: "value".into() })
            .apply(&input);
        assert_eq!(out.child("kind").unwrap().attr("value"), Some("personal"));
        assert_eq!(out.child("kind").unwrap().text(), "");
    }

    #[test]
    fn wrap_each() {
        let input = parse("<book><row/><row/></book>").unwrap();
        let out = Pipeline::new()
            .then(Transform::WrapEach { each: "row".into(), wrapper: "item".into() })
            .apply(&input);
        assert_eq!(out.children_named("item").count(), 2);
        assert!(out.children_named("item").next().unwrap().child("row").is_some());
    }

    #[test]
    fn drop_subtrees() {
        let input = parse("<u><secret><deep/></secret><ok/></u>").unwrap();
        let out =
            Pipeline::new().then(Transform::Drop { tag: "secret".into() }).apply(&input);
        assert_eq!(out.to_xml(), "<u><ok/></u>");
    }

    #[test]
    fn normalize_phone_text() {
        let input = parse("<phone>(908) 582-4393</phone>").unwrap();
        let out = Pipeline::new()
            .then(Transform::NormalizeText { on: "phone".into(), normalizer: "phone".into() })
            .apply(&input);
        assert_eq!(out.text(), "9085824393");
    }

    #[test]
    fn pipeline_order_matters() {
        // Rename then wrap: the wrapper sees the new name.
        let input = parse("<b><row/></b>").unwrap();
        let out = Pipeline::new()
            .then(Transform::RenameTag { from: "row".into(), to: "item".into() })
            .then(Transform::WrapEach { each: "item".into(), wrapper: "cell".into() })
            .apply(&input);
        assert_eq!(out.to_xml(), "<b><cell><item/></cell></b>");

        // Rename → wrap → drop → normalise, each rule seeing the last's
        // output.
        let input = parse(concat!(
            r#"<book flavor="x"><entry uid="1">Mom</entry><entry uid="2"><deep uid="9"/></entry>"#,
            "<secret><x/></secret><phone>(908) 582-4393</phone></book>",
        ))
        .unwrap();
        let out = Pipeline::new()
            .then(Transform::RenameTag { from: "entry".into(), to: "item".into() })
            .then(Transform::WrapEach { each: "item".into(), wrapper: "cell".into() })
            .then(Transform::Drop { tag: "secret".into() })
            .then(Transform::NormalizeText { on: "phone".into(), normalizer: "phone".into() })
            .apply(&input);
        assert_eq!(
            out.to_xml(),
            concat!(
                r#"<book flavor="x"><cell><item uid="1">Mom</item></cell>"#,
                r#"<cell><item uid="2"><deep uid="9"/></item></cell><phone>9085824393</phone></book>"#,
            )
        );
    }

    #[test]
    fn identity_pipeline() {
        let input = parse(r#"<a x="1"><b>t</b></a>"#).unwrap();
        assert_eq!(Pipeline::new().apply(&input), input);
        // Rules naming tags and attributes the document never uses.
        let out = Pipeline::new()
            .then(Transform::RenameTag { from: "never-seen".into(), to: "x".into() })
            .then(Transform::RenameAttr {
                on: "a".into(),
                from: "never-seen".into(),
                to: "x".into(),
            })
            .apply(&input);
        assert_eq!(out, input);
    }
}
