//! Stable node addressing for updates, diffs and change logs.
//!
//! A [`NodePath`] names one element inside a tree by a chain of steps.
//! Each step selects a child element by tag name plus either a *key
//! attribute* (preferred — stable under reordering, which matters for
//! synchronizing address books whose entries move around) or an
//! occurrence index among same-named siblings.

use std::fmt;

use crate::error::XmlError;
use crate::node::{Element, Node};

/// One step in a [`NodePath`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Step {
    /// Child tag name to descend into.
    pub name: String,
    /// If set, select the child whose attribute `key.0` equals `key.1`.
    pub key: Option<(String, String)>,
    /// Occurrence index (0-based) among children matching name (and key,
    /// if set). Almost always 0 when a key is given.
    pub index: usize,
}

impl Step {
    /// A step selecting the `index`-th child named `name`.
    pub(crate) fn indexed(name: impl Into<String>, index: usize) -> Self {
        Step { name: name.into(), key: None, index }
    }

    /// A step selecting the child named `name` whose attribute `attr`
    /// equals `value`.
    pub(crate) fn keyed(
        name: impl Into<String>,
        attr: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        Step { name: name.into(), key: Some((attr.into(), value.into())), index: 0 }
    }

    fn matches(&self, e: &Element) -> bool {
        if e.name != self.name {
            return false;
        }
        match &self.key {
            Some((a, v)) => e.attr(a) == Some(v.as_str()),
            None => true,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if let Some((a, v)) = &self.key {
            write!(f, "[@{a}='{v}']")?;
        }
        if self.index != 0 {
            write!(f, "[{}]", self.index + 1)?;
        }
        Ok(())
    }
}

/// A path from a tree's root element to one descendant element.
///
/// The root element itself is the empty path; steps descend from there.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NodePath {
    /// Steps from the root, outermost first.
    pub steps: Vec<Step>,
}

impl NodePath {
    /// The empty path (the root element).
    pub fn root() -> Self {
        NodePath::default()
    }

    /// Builder: appends an indexed step.
    pub fn child(mut self, name: impl Into<String>, index: usize) -> Self {
        self.steps.push(Step::indexed(name, index));
        self
    }

    /// Builder: appends a keyed step.
    pub fn keyed(
        mut self,
        name: impl Into<String>,
        attr: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        self.steps.push(Step::keyed(name, attr, value));
        self
    }

    /// True if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &NodePath) -> bool {
        other.steps.len() >= self.steps.len()
            && self.steps.iter().zip(&other.steps).all(|(a, b)| a == b)
    }

    /// Resolves the path against `root`, returning the addressed element.
    pub fn resolve<'a>(&self, root: &'a Element) -> Option<&'a Element> {
        let mut cur = root;
        for step in &self.steps {
            cur = cur
                .child_elements()
                .filter(|e| step.matches(e))
                .nth(step.index)?;
        }
        Some(cur)
    }

    /// Resolves the path mutably.
    pub fn resolve_mut<'a>(&self, root: &'a mut Element) -> Option<&'a mut Element> {
        let mut cur = root;
        for step in &self.steps {
            cur = cur
                .child_elements_mut()
                .filter(|e| step.matches(e))
                .nth(step.index)?;
        }
        Some(cur)
    }

    /// Resolves the path, creating missing elements along the way (keyed
    /// steps create an element carrying the key attribute).
    pub fn ensure<'a>(&self, root: &'a mut Element) -> &'a mut Element {
        let mut cur = root;
        for step in &self.steps {
            let mut seen = 0usize;
            let pos = cur.children.iter().position(|c| match c {
                Node::Element(e) if step.matches(e) => {
                    if seen == step.index {
                        true
                    } else {
                        seen += 1;
                        false
                    }
                }
                _ => false,
            });
            let idx = match pos {
                Some(i) => i,
                None => {
                    let mut fresh = Element::new(step.name.clone());
                    if let Some((a, v)) = &step.key {
                        fresh.set_attr(a.clone(), v.clone());
                    }
                    cur.children.push(Node::Element(fresh));
                    cur.children.len() - 1
                }
            };
            cur = match &mut cur.children[idx] {
                Node::Element(e) => e,
                Node::Text(_) => unreachable!("position only matches elements"),
            };
        }
        cur
    }

    /// Removes the addressed element from the tree. Errors if the path
    /// does not resolve. The root itself cannot be removed.
    pub fn remove(&self, root: &mut Element) -> Result<Element, XmlError> {
        let Some((last, prefix)) = self.steps.split_last() else {
            return Err(XmlError::PathNotFound("cannot remove the root".into()));
        };
        let parent = NodePath { steps: prefix.to_vec() }
            .resolve_mut(root)
            .ok_or_else(|| XmlError::PathNotFound(self.to_string()))?;
        let mut seen = 0usize;
        let pos = parent.children.iter().position(|c| match c {
            Node::Element(e) if last.matches(e) => {
                if seen == last.index {
                    true
                } else {
                    seen += 1;
                    false
                }
            }
            _ => false,
        });
        match pos {
            Some(i) => match parent.children.remove(i) {
                Node::Element(e) => Ok(e),
                Node::Text(_) => unreachable!(),
            },
            None => Err(XmlError::PathNotFound(self.to_string())),
        }
    }
}

impl fmt::Display for NodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return f.write_str("/");
        }
        for step in &self.steps {
            write!(f, "/{step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn sample() -> Element {
        parse(
            r#"<user id="alice"><book><item id="a"><n>A</n></item><item id="b"><n>B</n></item><item><n>C</n></item></book></user>"#,
        )
        .unwrap()
    }

    #[test]
    fn keyed_resolution() {
        let root = sample();
        let p = NodePath::root().child("book", 0).keyed("item", "id", "b");
        assert_eq!(p.resolve(&root).unwrap().child("n").unwrap().text(), "B");
    }

    #[test]
    fn indexed_resolution() {
        let root = sample();
        let p = NodePath::root().child("book", 0).child("item", 2);
        assert_eq!(p.resolve(&root).unwrap().child("n").unwrap().text(), "C");
    }

    #[test]
    fn missing_resolution_is_none() {
        let root = sample();
        assert!(NodePath::root().child("nope", 0).resolve(&root).is_none());
        assert!(NodePath::root()
            .child("book", 0)
            .keyed("item", "id", "zz")
            .resolve(&root)
            .is_none());
    }

    #[test]
    fn ensure_creates_with_key() {
        let mut root = Element::new("user");
        let p = NodePath::root().child("book", 0).keyed("item", "id", "x");
        p.ensure(&mut root).push_text("hi");
        assert_eq!(p.resolve(&root).unwrap().text(), "hi");
        assert_eq!(p.resolve(&root).unwrap().attr("id"), Some("x"));
        // Idempotent.
        p.ensure(&mut root);
        assert_eq!(root.child("book").unwrap().child_elements().count(), 1);
    }

    #[test]
    fn remove_keyed() {
        let mut root = sample();
        let p = NodePath::root().child("book", 0).keyed("item", "id", "a");
        let removed = p.remove(&mut root).unwrap();
        assert_eq!(removed.child("n").unwrap().text(), "A");
        assert!(p.resolve(&root).is_none());
        assert!(p.remove(&mut root).is_err());
    }

    #[test]
    fn remove_root_rejected() {
        let mut root = sample();
        assert!(NodePath::root().remove(&mut root).is_err());
    }

    #[test]
    fn display_format() {
        let p = NodePath::root().child("book", 0).keyed("item", "id", "b").child("n", 1);
        assert_eq!(p.to_string(), "/book/item[@id='b']/n[2]");
        assert_eq!(NodePath::root().to_string(), "/");
    }

    #[test]
    fn prefix_check() {
        let a = NodePath::root().child("book", 0);
        let b = NodePath::root().child("book", 0).child("item", 1);
        assert!(a.is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
        assert!(!b.is_prefix_of(&a));
        assert!(NodePath::root().is_prefix_of(&a));
    }
}
