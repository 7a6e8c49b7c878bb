//! Structural diff between two profile trees.
//!
//! The synchronization subsystem (Req. 6/7 of the paper) ships *changes*,
//! not whole documents, between replicas. [`diff`] computes a minimal-ish
//! edit script of [`EditOp`]s that transforms tree `a` into tree `b`;
//! [`EditOp::apply`] replays one op. Keyed children (per [`MergeKeys`])
//! are matched by identity so that reordering an address book does not
//! produce spurious inserts/deletes.

use std::collections::HashMap;

use crate::error::XmlError;
use crate::merge::MergeKeys;
use crate::node::Element;
use crate::path::{NodePath, Step};

/// One edit operation against a tree.
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

    /// Applies this operation to `root`.
    pub fn apply(&self, root: &mut Element) -> Result<(), XmlError> {
        match self {
            EditOp::Insert { parent, element } => {
                let p = parent
                    .resolve_mut(root)
                    .ok_or_else(|| XmlError::PathNotFound(parent.to_string()))?;
                p.push_child(element.clone());
                Ok(())
            }
            EditOp::Delete { path } => path.remove(root).map(|_| ()),
            EditOp::SetText { path, text } => {
                let e = path
                    .resolve_mut(root)
                    .ok_or_else(|| XmlError::PathNotFound(path.to_string()))?;
                e.set_text(text.clone());
                Ok(())
            }
            EditOp::SetAttr { path, name, value } => {
                let e = path
                    .resolve_mut(root)
                    .ok_or_else(|| XmlError::PathNotFound(path.to_string()))?;
                e.set_attr(name.clone(), value.clone());
                Ok(())
            }
            EditOp::RemoveAttr { path, name } => {
                let e = path
                    .resolve_mut(root)
                    .ok_or_else(|| XmlError::PathNotFound(path.to_string()))?;
                e.remove_attr(name);
                Ok(())
            }
        }
    }

    /// True if two operations touch overlapping paths (one a prefix of
    /// the other) — the conflict test used by sync reconciliation.
    pub fn overlaps(&self, other: &EditOp) -> bool {
        let (a, b) = (self.target(), other.target());
        a.is_prefix_of(b) || b.is_prefix_of(a)
    }
}

/// Computes an edit script turning `a` into `b`.
///
/// Both roots must share a tag name (else a single whole-tree replace is
/// meaningless; callers diff per component). Keyed children are matched
/// by identity, unkeyed children by exact equality.
pub fn diff(a: &Element, b: &Element, keys: &MergeKeys) -> Vec<EditOp> {
    let mut ops = Vec::new();
    diff_into(a, b, keys, NodePath::root(), &mut ops);
    ops
}

fn diff_into(a: &Element, b: &Element, keys: &MergeKeys, at: NodePath, ops: &mut Vec<EditOp>) {
    // Attributes.
    for (n, v) in &b.attrs {
        if a.attr(n) != Some(v.as_str()) {
            ops.push(EditOp::SetAttr { path: at.clone(), name: n.to_string(), value: v.clone() });
        }
    }
    for (n, _) in &a.attrs {
        if b.attr(n).is_none() {
            ops.push(EditOp::RemoveAttr { path: at.clone(), name: n.to_string() });
        }
    }

    // Text.
    let (ta, tb) = (a.text(), b.text());
    if ta.trim() != tb.trim() && !(ta.trim().is_empty() && tb.trim().is_empty()) {
        ops.push(EditOp::SetText { path: at.clone(), text: tb.into_owned() });
    }

    // Children: match keyed by identity, unkeyed by equality.
    #[derive(Default)]
    struct SideIndex<'e> {
        keyed: HashMap<(&'e str, &'e str, &'e str), &'e Element>,
        unkeyed: Vec<&'e Element>,
    }
    fn index<'e>(e: &'e Element, keys: &MergeKeys) -> SideIndex<'e> {
        let mut ix = SideIndex::default();
        for ch in e.child_elements() {
            match keys.identity(ch) {
                Some((ka, kv)) => {
                    ix.keyed.insert((&*ch.name, ka, kv), ch);
                }
                None => ix.unkeyed.push(ch),
            }
        }
        ix
    }

    let ia = index(a, keys);
    let ib = index(b, keys);

    // Keyed: present in both → recurse; only in a → delete; only in b → insert.
    for (k, ea) in &ia.keyed {
        let step = Step::keyed(k.0, k.1, k.2);
        let mut child_path = at.clone();
        child_path.steps.push(step);
        match ib.keyed.get(k) {
            Some(eb) => diff_into(ea, eb, keys, child_path, ops),
            None => ops.push(EditOp::Delete { path: child_path }),
        }
    }
    for (k, eb) in &ib.keyed {
        if !ia.keyed.contains_key(k) {
            ops.push(EditOp::Insert { parent: at.clone(), element: (*eb).clone() });
        }
    }

    // Unkeyed children that occur exactly once per side under the same
    // tag are the same logical singleton field — recurse into them.
    // Everything else is a multiset difference by equality. Deletions are
    // emitted deepest-index-first so earlier removals don't shift later
    // occurrence indices.
    let count_tag = |side: &[&Element], tag: &str| side.iter().filter(|e| e.name == tag).count();
    let singleton = |tag: &str| count_tag(&ia.unkeyed, tag) == 1 && count_tag(&ib.unkeyed, tag) == 1;

    for ea in &ia.unkeyed {
        if singleton(&ea.name) {
            let eb = ib.unkeyed.iter().find(|e| e.name == ea.name).expect("counted");
            let mut child_path = at.clone();
            child_path.steps.push(Step::indexed(ea.name.clone(), 0));
            diff_into(ea, eb, keys, child_path, ops);
        }
    }

    let mut b_remaining: Vec<&Element> =
        ib.unkeyed.iter().copied().filter(|e| !singleton(&e.name)).collect();
    let mut deletions: Vec<NodePath> = Vec::new();
    let mut occurrence: HashMap<&str, usize> = HashMap::new();
    for ea in &ia.unkeyed {
        let occ = occurrence.entry(&*ea.name).or_insert(0);
        let this_occ = *occ;
        *occ += 1;
        if singleton(&ea.name) {
            continue;
        }
        if let Some(pos) = b_remaining.iter().position(|eb| *eb == *ea) {
            b_remaining.remove(pos);
        } else {
            let mut p = at.clone();
            p.steps.push(Step::indexed(ea.name.clone(), this_occ));
            deletions.push(p);
        }
    }
    // Reverse so higher occurrence indices are removed first.
    for p in deletions.into_iter().rev() {
        ops.push(EditOp::Delete { path: p });
    }
    for eb in b_remaining {
        ops.push(EditOp::Insert { parent: at.clone(), element: eb.clone() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    fn apply_all(mut tree: Element, ops: &[EditOp]) -> Element {
        for op in ops {
            op.apply(&mut tree).unwrap_or_else(|e| panic!("apply {op:?}: {e}"));
        }
        tree
    }

    #[test]
    fn identical_trees_empty_diff() {
        let a = parse(r#"<b><item id="1"><n>Bob</n></item></b>"#).unwrap();
        assert!(diff(&a, &a, &keys()).is_empty());
    }

    #[test]
    fn text_change() {
        let a = parse(r#"<b><item id="1"><n>Bob</n></item></b>"#).unwrap();
        let b = parse(r#"<b><item id="1"><n>Robert</n></item></b>"#).unwrap();
        let ops = diff(&a, &b, &keys());
        assert_eq!(ops.len(), 1);
        assert_eq!(apply_all(a, &ops), b);
    }

    #[test]
    fn keyed_insert_delete() {
        let a = parse(r#"<b><item id="1"/><item id="2"/></b>"#).unwrap();
        let b = parse(r#"<b><item id="2"/><item id="3"/></b>"#).unwrap();
        let ops = diff(&a, &b, &keys());
        let got = apply_all(a, &ops);
        // Order-insensitive comparison of items.
        let mut gx: Vec<_> = got.children_named("item").map(|e| e.to_xml()).collect();
        let mut bx: Vec<_> = b.children_named("item").map(|e| e.to_xml()).collect();
        gx.sort();
        bx.sort();
        assert_eq!(gx, bx);
    }

    #[test]
    fn reorder_of_keyed_children_is_noop() {
        let a = parse(r#"<b><item id="1"><n>A</n></item><item id="2"><n>B</n></item></b>"#).unwrap();
        let b = parse(r#"<b><item id="2"><n>B</n></item><item id="1"><n>A</n></item></b>"#).unwrap();
        assert!(diff(&a, &b, &keys()).is_empty());
    }

    #[test]
    fn attribute_changes() {
        let a = parse(r#"<e x="1" y="2"/>"#).unwrap();
        let b = parse(r#"<e x="9" z="3"/>"#).unwrap();
        let ops = diff(&a, &b, &keys());
        assert_eq!(apply_all(a, &ops), b);
    }

    #[test]
    fn unkeyed_multiset_diff_applies() {
        let a = parse(r#"<l><v>1</v><v>2</v><v>2</v></l>"#).unwrap();
        let b = parse(r#"<l><v>2</v><v>3</v></l>"#).unwrap();
        let ops = diff(&a, &b, &MergeKeys::new());
        let got = apply_all(a, &ops);
        let mut gx: Vec<_> = got.children_named("v").map(|e| e.text()).collect();
        let mut bx: Vec<_> = b.children_named("v").map(|e| e.text()).collect();
        gx.sort();
        bx.sort();
        assert_eq!(gx, bx);
    }

    #[test]
    fn nested_recursion() {
        let a = parse(r#"<b><item id="1"><phones><v>111</v></phones></item></b>"#).unwrap();
        let b = parse(r#"<b><item id="1"><phones><v>111</v><v>222</v></phones></item></b>"#).unwrap();
        let ops = diff(&a, &b, &keys());
        assert_eq!(ops.len(), 1);
        assert!(matches!(&ops[0], EditOp::Insert { .. }));
        assert_eq!(apply_all(a, &ops), b);
    }

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

    #[test]
    fn apply_to_missing_path_errors() {
        let mut t = parse("<a/>").unwrap();
        let op = EditOp::SetText { path: NodePath::root().child("x", 0), text: "v".into() };
        assert!(op.apply(&mut t).is_err());
    }
}
