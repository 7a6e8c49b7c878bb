//! The owned XML tree value model.

use std::borrow::Cow;
use std::fmt;

use crate::writer;

/// An element or attribute name in an owned [`Element`]. Trees built by
/// the parser and the builders own their names; trees materialized out
/// of an arena ([`crate::ArenaDoc::to_element`],
/// [`crate::MergeOut::to_element`]) borrow the interned `&'static str`
/// instead of copying it. Equality, hashing and serialization see only
/// the characters, never which of the two a name is.
pub type Name = Cow<'static, str>;

/// A child of an [`Element`]: either a nested element or a text run.
///
/// Comments and processing instructions are dropped at parse time — they
/// carry no profile data and the paper's coverage language (§4.5) only
/// addresses elements and attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// A run of character data (entity references already resolved).
    Text(String),
}

impl Node {
    /// Returns the contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// Returns the contained element mutably, if this node is one.
    pub fn as_element_mut(&mut self) -> Option<&mut Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// Returns the contained text, if this node is a text run.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Element(_) => None,
            Node::Text(t) => Some(t),
        }
    }
}

/// An XML element: a tag name, ordered attributes, and ordered children.
///
/// Attribute order is preserved for deterministic serialization, but
/// equality and hashing treat attributes as a set keyed by name (XML
/// semantics: attribute order is not significant). Duplicate attribute
/// names are rejected by the parser and by [`Element::set_attr`].
#[derive(Debug, Clone, Default)]
pub struct Element {
    /// Tag name (no namespace handling; GUP schema names are plain).
    pub name: Name,
    /// Attributes in document order.
    pub attrs: Vec<(Name, String)>,
    /// Children in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: Cow::Owned(name.into()), attrs: Vec::new(), children: Vec::new() }
    }

    /// Builder: adds (or replaces) an attribute and returns `self`.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder: appends a child element and returns `self`.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: appends a text child and returns `self`.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Returns the value of the named attribute, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Sets an attribute, replacing any existing value for the same name.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        match self.attrs.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.attrs.push((Cow::Owned(name), value)),
        }
    }

    /// Removes the named attribute, returning its value if it was present.
    pub fn remove_attr(&mut self, name: &str) -> Option<String> {
        let idx = self.attrs.iter().position(|(n, _)| n == name)?;
        Some(self.attrs.remove(idx).1)
    }

    /// Iterates over child elements (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Iterates mutably over child elements (skipping text nodes).
    pub fn child_elements_mut(&mut self) -> impl Iterator<Item = &mut Element> {
        self.children.iter_mut().filter_map(Node::as_element_mut)
    }

    /// Returns the first child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Returns the first child element with the given tag name, mutably.
    pub fn child_mut(&mut self, name: &str) -> Option<&mut Element> {
        self.child_elements_mut().find(|e| e.name == name)
    }

    /// Iterates over child elements with the given tag name. Borrowing
    /// and lazy — no `Vec` is allocated on this (hot) path.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Appends a child element.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Appends a text child.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// The concatenation of all *direct* text children. Borrows when
    /// there is at most one text child (the overwhelmingly common case
    /// for profile leaves) — no allocation on that fast path.
    pub fn text(&self) -> Cow<'_, str> {
        let mut texts = self.children.iter().filter_map(Node::as_text);
        let Some(first) = texts.next() else { return Cow::Borrowed("") };
        match texts.next() {
            None => Cow::Borrowed(first),
            Some(second) => {
                let mut out = String::with_capacity(first.len() + second.len());
                out.push_str(first);
                out.push_str(second);
                for t in texts {
                    out.push_str(t);
                }
                Cow::Owned(out)
            }
        }
    }

    /// The concatenation of all text in the subtree, document order.
    pub fn deep_text(&self) -> String {
        let mut out = String::new();
        fn walk(e: &Element, out: &mut String) {
            for ch in &e.children {
                match ch {
                    Node::Text(t) => out.push_str(t),
                    Node::Element(c) => walk(c, out),
                }
            }
        }
        walk(self, &mut out);
        out
    }

    /// Replaces all text children with a single text node.
    pub fn set_text(&mut self, text: impl Into<String>) {
        self.children.retain(|c| matches!(c, Node::Element(_)));
        self.children.push(Node::Text(text.into()));
    }

    /// True if the element has no children at all.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Number of element nodes in the subtree, including `self`.
    pub fn subtree_size(&self) -> usize {
        1 + self.child_elements().map(Element::subtree_size).sum::<usize>()
    }

    /// Depth of the subtree (a leaf element has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.child_elements().map(Element::depth).max().unwrap_or(0)
    }

    /// Serialized size in bytes of the compact form — `to_xml().len()`,
    /// counted without building the string. Used by the network
    /// simulator to charge transfer time for profile payloads.
    pub fn byte_size(&self) -> usize {
        writer::compact_len(self)
    }

    /// Compact (single-line) XML serialization.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        writer::write_compact(self, &mut out);
        out
    }

    /// Indented XML serialization (two spaces per level).
    pub fn to_pretty_xml(&self) -> String {
        let mut out = String::new();
        writer::write_pretty(self, 0, &mut out);
        out
    }

    /// Follows a chain of child tag names, returning the first match at
    /// each step. Convenience for digging into profile documents:
    /// `profile.get_path(&["MyContacts", "address-book"])`.
    pub fn get_path(&self, path: &[&str]) -> Option<&Element> {
        let mut cur = self;
        for seg in path {
            cur = cur.child(seg)?;
        }
        Some(cur)
    }

    /// Like [`Element::get_path`] but creates missing intermediate
    /// elements along the way.
    pub fn get_or_create_path(&mut self, path: &[&str]) -> &mut Element {
        let mut cur = self;
        for seg in path {
            // Two-phase to satisfy the borrow checker on older NLL.
            let pos = cur.children.iter().position(
                |c| matches!(c, Node::Element(e) if e.name == *seg),
            );
            let idx = match pos {
                Some(i) => i,
                None => {
                    cur.children.push(Node::Element(Element::new(*seg)));
                    cur.children.len() - 1
                }
            };
            cur = match &mut cur.children[idx] {
                Node::Element(e) => e,
                Node::Text(_) => unreachable!("position matched an element"),
            };
        }
        cur
    }
}

impl PartialEq for Element {
    fn eq(&self, other: &Self) -> bool {
        if self.name != other.name
            || self.attrs.len() != other.attrs.len()
            || self.children != other.children
        {
            return false;
        }
        // Attribute *sets* must match regardless of order.
        self.attrs
            .iter()
            .all(|(n, v)| other.attr(n) == Some(v.as_str()))
    }
}

impl Eq for Element {}

impl std::hash::Hash for Element {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        // Order-insensitive attribute hash: XOR of per-pair hashes.
        let mut acc: u64 = 0;
        for (n, v) in &self.attrs {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::hash::Hash::hash(&(n, v), &mut h);
            acc ^= std::hash::Hasher::finish(&h);
        }
        state.write_u64(acc);
        self.children.hash(state);
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let e = Element::new("user")
            .with_attr("id", "arnaud")
            .with_child(Element::new("presence").with_text("online"));
        assert_eq!(e.attr("id"), Some("arnaud"));
        assert_eq!(e.child("presence").unwrap().text(), "online");
        assert_eq!(e.to_xml(), r#"<user id="arnaud"><presence>online</presence></user>"#);
    }

    #[test]
    fn attr_set_replaces() {
        let mut e = Element::new("a").with_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attrs.len(), 1);
        assert_eq!(e.attr("k"), Some("2"));
    }

    #[test]
    fn remove_attr_returns_value() {
        let mut e = Element::new("a").with_attr("k", "1");
        assert_eq!(e.remove_attr("k"), Some("1".into()));
        assert_eq!(e.remove_attr("k"), None);
    }

    #[test]
    fn equality_ignores_attr_order() {
        let a = Element::new("e").with_attr("x", "1").with_attr("y", "2");
        let b = Element::new("e").with_attr("y", "2").with_attr("x", "1");
        assert_eq!(a, b);
        let c = Element::new("e").with_attr("x", "1").with_attr("y", "3");
        assert_ne!(a, c);
    }

    #[test]
    fn equality_respects_child_order() {
        let a = Element::new("e")
            .with_child(Element::new("p"))
            .with_child(Element::new("q"));
        let b = Element::new("e")
            .with_child(Element::new("q"))
            .with_child(Element::new("p"));
        assert_ne!(a, b);
    }

    #[test]
    fn hash_consistent_with_eq_across_attr_order() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Element::new("e").with_attr("x", "1").with_attr("y", "2");
        let b = Element::new("e").with_attr("y", "2").with_attr("x", "1");
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn owned_and_borrowed_names_are_the_same_element() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let owned = Element::new("user")
            .with_attr("id", "a & b")
            .with_child(Element::new("presence").with_attr("note", "<x>").with_text("on"));
        let borrowed = Element {
            name: Cow::Borrowed("user"),
            attrs: vec![(Cow::Borrowed("id"), "a & b".into())],
            children: vec![Node::Element(Element {
                name: Cow::Borrowed("presence"),
                attrs: vec![(Cow::Borrowed("note"), "<x>".into())],
                children: vec![Node::Text("on".into())],
            })],
        };
        assert!(matches!(owned.name, Cow::Owned(_)));
        assert_eq!(owned, borrowed);
        let hash = |e: &Element| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&owned), hash(&borrowed));
        assert_eq!(owned.to_xml(), borrowed.to_xml());
        assert_eq!(owned.byte_size(), borrowed.byte_size());
    }

    #[test]
    fn text_and_deep_text() {
        let e = Element::new("a")
            .with_text("x")
            .with_child(Element::new("b").with_text("y"))
            .with_text("z");
        assert_eq!(e.text(), "xz");
        assert_eq!(e.deep_text(), "xyz");
    }

    #[test]
    fn set_text_preserves_element_children() {
        let mut e = Element::new("a")
            .with_text("old")
            .with_child(Element::new("b"));
        e.set_text("new");
        assert_eq!(e.text(), "new");
        assert!(e.child("b").is_some());
    }

    #[test]
    fn get_path_and_create() {
        let mut root = Element::new("MyProfile");
        root.get_or_create_path(&["MyContacts", "address-book"]).set_text("x");
        assert_eq!(root.get_path(&["MyContacts", "address-book"]).unwrap().text(), "x");
        assert!(root.get_path(&["Nope"]).is_none());
        // Re-walking must not duplicate intermediates.
        root.get_or_create_path(&["MyContacts", "address-book"]);
        assert_eq!(root.children_named("MyContacts").count(), 1);
    }

    #[test]
    fn size_and_depth() {
        let e = Element::new("a")
            .with_child(Element::new("b").with_child(Element::new("c")))
            .with_child(Element::new("d"));
        assert_eq!(e.subtree_size(), 4);
        assert_eq!(e.depth(), 3);
    }
}
