//! Edit operations against a profile tree.
//!
//! The synchronization subsystem (Req. 6/7 of the paper) ships *changes*,
//! not whole documents, between replicas: each replica logs the
//! [`EditOp`]s made to it, and a sync session replays a peer's ops
//! ([`EditOp::apply_to`], through [`NodePath::resolve_arena`]). Each op
//! names its target by a [`NodePath`], so two ops conflict when their
//! targets overlap. When a session cannot reconcile two documents op by
//! op, it keeps one and adds the other's entries it lacks
//! ([`ArenaDoc::add_missing_entries`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::HashMap;

use crate::arena::{ArenaDoc, NodeId};
use crate::error::XmlError;
use crate::keys::MergeKeys;
use crate::node::Element;
use crate::path::NodePath;

/// One edit operation against a tree.
///
/// An op applies to an arena document, through [`NodePath::resolve_arena`]
/// and the [`crate::ArenaDoc`] edit methods; there is no second
/// implementation over owned trees to drift from it:
///
/// ```compile_fail,E0599
/// use gupster_xml::{EditOp, Element, NodePath};
/// let op = EditOp::Delete { path: NodePath::root().child("item", 0) };
/// let _ = op.apply(&mut Element::new("book"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Insert `element` as a child of the element at `parent`.
    Insert {
        /// Path of the parent under which to insert.
        parent: NodePath,
        /// The subtree to insert.
        element: Element,
    },
    /// Remove the element at `path`.
    Delete {
        /// Path of the element to remove.
        path: NodePath,
    },
    /// Replace the direct text content of the element at `path`.
    SetText {
        /// Path of the element whose text changes.
        path: NodePath,
        /// New text value.
        text: String,
    },
    /// Set (or add) an attribute on the element at `path`.
    SetAttr {
        /// Path of the element whose attribute changes.
        path: NodePath,
        /// Attribute name.
        name: String,
        /// New attribute value.
        value: String,
    },
    /// Remove an attribute from the element at `path`.
    RemoveAttr {
        /// Path of the element whose attribute is removed.
        path: NodePath,
        /// Attribute name.
        name: String,
    },
}

impl EditOp {
    /// The path this operation touches (the parent path for inserts).
    pub fn target(&self) -> &NodePath {
        match self {
            EditOp::Insert { parent, .. } => parent,
            EditOp::Delete { path }
            | EditOp::SetText { path, .. }
            | EditOp::SetAttr { path, .. }
            | EditOp::RemoveAttr { path, .. } => path,
        }
    }

    /// Applies this operation to `doc` through
    /// [`NodePath::resolve_arena`] and the arena edit methods, each
    /// exactly its owned-tree namesake ([`Element::push_child`],
    /// [`Element::set_text`], ...). A target that does not resolve is
    /// [`XmlError::PathNotFound`], as is the root for a `Delete`, and
    /// nothing changes.
    pub fn apply_to(&self, doc: &mut ArenaDoc) -> Result<(), XmlError> {
        match self {
            EditOp::Insert { parent, element } => {
                let parent = parent.resolve_arena(doc)?;
                let fresh = doc.graft_element(element);
                doc.push_child(parent, fresh);
            }
            EditOp::Delete { path } if path.steps.is_empty() => {
                return Err(XmlError::PathNotFound("cannot remove the root".into()));
            }
            EditOp::Delete { path } => {
                let (parent, node) = path.resolve_parent_arena(doc)?;
                doc.remove_child(parent, node);
            }
            EditOp::SetText { path, text } => doc.set_text(path.resolve_arena(doc)?, text),
            EditOp::SetAttr { path, name, value } => {
                doc.set_attr(path.resolve_arena(doc)?, name, value)
            }
            EditOp::RemoveAttr { path, name } => {
                doc.remove_attr(path.resolve_arena(doc)?, name);
            }
        }
        Ok(())
    }

    /// True if two operations touch overlapping paths (one a prefix of
    /// the other) — the conflict test used by sync reconciliation.
    pub fn overlaps(&self, other: &EditOp) -> bool {
        let (a, b) = (self.target(), other.target());
        a.is_prefix_of(b) || b.is_prefix_of(a)
    }
}

/// A child's tag and [`MergeKeys::identity`] key.
type Identity<'d> = (&'static str, &'static str, &'d str);

/// The element children of `id`: the keyed ones by identity (the last
/// of equal identities kept), and the unkeyed ones in order.
fn entries<'d>(
    d: &'d ArenaDoc,
    id: NodeId,
    keys: &MergeKeys,
) -> (HashMap<Identity<'d>, NodeId>, Vec<NodeId>) {
    let (mut keyed, mut unkeyed) = (HashMap::new(), Vec::new());
    for c in d.child_elements(id) {
        match keys.identity_in(d, c) {
            Some((attr, value)) => {
                keyed.insert((d.name(c), attr, value), c);
            }
            None => unkeyed.push(c),
        }
    }
    (keyed, unkeyed)
}

impl ArenaDoc {
    /// Adds to this document the entries of `from` it lacks, keeping
    /// everything it holds: what the inserts of a structural diff from
    /// this document to `from` would add, found in one walk of both.
    /// Keyed entries match by [`MergeKeys::identity`] (the last of
    /// equal identities on each side standing for all of them), and
    /// the walk descends into every pair; an unkeyed tag that occurs
    /// once on each side is one field, descended into likewise; other
    /// unkeyed entries are a multiset, matched by equality. Added
    /// entries go after the existing ones, keyed first, each in
    /// `from`'s order, copied with [`ArenaDoc::graft_subtree`].
    ///
    /// A sync session settles a conflict it cannot merge this way: the
    /// winning replica's document plus the loser's entries.
    pub fn add_missing_entries(&mut self, from: &ArenaDoc, keys: &MergeKeys) {
        self.add_missing_at(self.root(), from, from.root(), keys);
    }

    fn add_missing_at(&mut self, at: NodeId, from: &ArenaDoc, f: NodeId, keys: &MergeKeys) {
        let (pairs, added) = {
            let (mine, mine_unkeyed) = entries(self, at, keys);
            let (theirs, theirs_unkeyed) = entries(from, f, keys);
            let (mut pairs, mut added) = (Vec::new(), Vec::new());
            for c in from.child_elements(f) {
                let Some((attr, value)) = keys.identity_in(from, c) else { continue };
                let k = (from.name(c), attr, value);
                if theirs.get(&k) != Some(&c) {
                    continue;
                }
                match mine.get(&k) {
                    Some(&m) => pairs.push((m, c)),
                    None => added.push(c),
                }
            }
            let once = |d: &ArenaDoc, side: &[NodeId], tag| {
                side.iter().filter(|&&c| d.name(c) == tag).count() == 1
            };
            let field = |tag| once(self, &mine_unkeyed, tag) && once(from, &theirs_unkeyed, tag);
            let mut rest = Vec::new();
            for &c in &theirs_unkeyed {
                let tag = from.name(c);
                match mine_unkeyed.iter().find(|&&m| field(tag) && self.name(m) == tag) {
                    Some(&m) => pairs.push((m, c)),
                    None => rest.push(c),
                }
            }
            for &m in mine_unkeyed.iter().filter(|&&m| !field(self.name(m))) {
                if let Some(i) = rest.iter().position(|&c| self.subtree_eq(m, from, c)) {
                    rest.remove(i);
                }
            }
            added.extend(rest);
            (pairs, added)
        };
        for (m, c) in pairs {
            self.add_missing_at(m, from, c, keys);
        }
        for c in added {
            let fresh = self.graft_subtree(from, c);
            self.push_child(at, fresh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_detection() {
        let p1 = EditOp::SetText {
            path: NodePath::root().keyed("item", "id", "1"),
            text: "x".into(),
        };
        let p2 = EditOp::Delete { path: NodePath::root().keyed("item", "id", "1").child("n", 0) };
        let p3 = EditOp::Delete { path: NodePath::root().keyed("item", "id", "2") };
        assert!(p1.overlaps(&p2));
        assert!(!p1.overlaps(&p3));
    }
}
