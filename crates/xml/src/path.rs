//! Stable node addressing for updates, diffs and change logs.
//!
//! A [`NodePath`] names one element inside a tree by a chain of steps.
//! Each step selects a child element by tag name plus either a *key
//! attribute* (preferred — stable under reordering, which matters for
//! synchronizing address books whose entries move around) or an
//! occurrence index among same-named siblings.
//!
//! A path resolves to a [`NodeId`] of an [`ArenaDoc`], the form every
//! replica and store keeps its documents in; resolution fails with
//! [`XmlError::PathNotFound`], never a panic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::fmt;

use crate::arena::{ArenaDoc, NodeId};
use crate::error::XmlError;
use crate::intern::NameInterner;

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

    /// The child of `parent` this step selects: the `index`-th child
    /// element with the step's name (and key). Names are compared as
    /// interned ids; a name or key attribute never interned is on no
    /// node.
    fn find(&self, doc: &ArenaDoc, parent: NodeId) -> Option<NodeId> {
        let name = NameInterner::lookup(&self.name)?;
        let key = match &self.key {
            Some((a, v)) => Some((NameInterner::lookup(a)?, v.as_str())),
            None => None,
        };
        doc.child_elements(parent)
            .filter(|&c| {
                doc.name_id(c) == name
                    && key.is_none_or(|(a, v)| doc.attr_by_id(c, a) == Some(v))
            })
            .nth(self.index)
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

    /// Resolves the path in `doc`, returning the addressed element.
    pub fn resolve_arena(&self, doc: &ArenaDoc) -> Result<NodeId, XmlError> {
        self.steps
            .iter()
            .try_fold(doc.root(), |at, step| step.find(doc, at))
            .ok_or_else(|| XmlError::PathNotFound(self.to_string()))
    }

    /// Resolves the path in `doc` to the addressed element and its
    /// parent. The root has no parent, so its path does not resolve.
    pub fn resolve_parent_arena(&self, doc: &ArenaDoc) -> Result<(NodeId, NodeId), XmlError> {
        let not_found = || XmlError::PathNotFound(self.to_string());
        let (last, prefix) = self.steps.split_last().ok_or_else(not_found)?;
        let parent = prefix.iter().try_fold(doc.root(), |at, step| step.find(doc, at));
        let parent = parent.ok_or_else(not_found)?;
        let node = last.find(doc, parent).ok_or_else(not_found)?;
        Ok((parent, node))
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
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample() -> ArenaDoc {
        ArenaDoc::parse(
            r#"<user id="alice"><book><item id="a"><n>A</n></item><item id="b"><n>B</n></item><item><n>C</n></item></book></user>"#,
        )
        .unwrap()
    }

    fn text_at(doc: &ArenaDoc, p: &NodePath) -> String {
        let n = doc.child_elements(p.resolve_arena(doc).unwrap()).next().unwrap();
        doc.text(n).into_owned()
    }

    #[test]
    fn keyed_resolution() {
        let doc = sample();
        let p = NodePath::root().child("book", 0).keyed("item", "id", "b");
        assert_eq!(text_at(&doc, &p), "B");
    }

    #[test]
    fn indexed_resolution() {
        let doc = sample();
        let p = NodePath::root().child("book", 0).child("item", 2);
        assert_eq!(text_at(&doc, &p), "C");
    }

    #[test]
    fn missing_resolution_is_an_error() {
        let doc = sample();
        for p in [
            NodePath::root().child("nope", 0),
            NodePath::root().child("book", 0).keyed("item", "id", "zz"),
            NodePath::root().child("book", 0).keyed("item", "never-interned-attr", "a"),
            NodePath::root().child("book", 0).child("item", 3),
        ] {
            assert_eq!(p.resolve_arena(&doc), Err(XmlError::PathNotFound(p.to_string())));
            assert!(p.resolve_parent_arena(&doc).is_err());
        }
    }

    #[test]
    fn parent_resolution() {
        let doc = sample();
        let book = NodePath::root().child("book", 0);
        let p = book.clone().keyed("item", "id", "a");
        let (parent, node) = p.resolve_parent_arena(&doc).unwrap();
        assert_eq!(parent, book.resolve_arena(&doc).unwrap());
        assert_eq!(node, p.resolve_arena(&doc).unwrap());
        assert_eq!(NodePath::root().resolve_arena(&doc), Ok(doc.root()));
        assert!(NodePath::root().resolve_parent_arena(&doc).is_err(), "the root has no parent");
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
