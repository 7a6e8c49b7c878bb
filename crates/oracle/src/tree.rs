//! The owned-tree edit machinery the arena replaced: deep-union merge,
//! structural diff, [`EditOp`] application, [`NodePath`] resolution and
//! canonical sibling order, all over [`Element`]s. Sync replicas and
//! stores hold arenas; these are the references the differential suites
//! and the replica model hold them to.

use std::collections::HashMap;

use gupster_xml::{EditOp, Element, MergeKeys, Node, NodePath, Step, XmlError};

/// True if `step` selects `e` among its siblings (before counting the
/// occurrence index): same tag and, for a keyed step, the key value.
fn step_matches(step: &Step, e: &Element) -> bool {
    e.name == step.name
        && match &step.key {
            Some((a, v)) => e.attr(a) == Some(v.as_str()),
            None => true,
        }
}

/// Resolves `path` against `root`, returning the addressed element.
pub fn resolve<'a>(path: &NodePath, root: &'a Element) -> Option<&'a Element> {
    let mut cur = root;
    for step in &path.steps {
        cur = cur.child_elements().filter(|e| step_matches(step, e)).nth(step.index)?;
    }
    Some(cur)
}

/// Resolves `path` against `root` mutably.
pub fn resolve_mut<'a>(path: &NodePath, root: &'a mut Element) -> Option<&'a mut Element> {
    let mut cur = root;
    for step in &path.steps {
        cur = cur.child_elements_mut().filter(|e| step_matches(step, e)).nth(step.index)?;
    }
    Some(cur)
}

/// The child-list position of the element `step` selects under `parent`.
fn position(step: &Step, parent: &Element) -> Option<usize> {
    let mut seen = 0usize;
    parent.children.iter().position(|c| match c {
        Node::Element(e) if step_matches(step, e) => {
            seen += 1;
            seen > step.index
        }
        _ => false,
    })
}

/// Resolves `path` against `root`, creating missing elements along the
/// way (keyed steps create an element carrying the key attribute).
pub fn ensure<'a>(path: &NodePath, root: &'a mut Element) -> &'a mut Element {
    let mut cur = root;
    for step in &path.steps {
        let idx = match position(step, cur) {
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

/// Removes the element `path` addresses from the tree. Errors if the
/// path does not resolve. The root itself cannot be removed.
pub fn remove(path: &NodePath, root: &mut Element) -> Result<Element, XmlError> {
    let Some((last, prefix)) = path.steps.split_last() else {
        return Err(XmlError::PathNotFound("cannot remove the root".into()));
    };
    let not_found = || XmlError::PathNotFound(path.to_string());
    let parent = resolve_mut(&NodePath { steps: prefix.to_vec() }, root).ok_or_else(not_found)?;
    let i = position(last, parent).ok_or_else(not_found)?;
    match parent.children.remove(i) {
        Node::Element(e) => Ok(e),
        Node::Text(_) => unreachable!("position only matches elements"),
    }
}

/// The element `path` addresses, or the error an op on it fails with.
fn target<'a>(path: &NodePath, root: &'a mut Element) -> Result<&'a mut Element, XmlError> {
    resolve_mut(path, root).ok_or_else(|| XmlError::PathNotFound(path.to_string()))
}

/// Applies `op` to `root`; a failed op changes nothing.
pub fn apply(op: &EditOp, root: &mut Element) -> Result<(), XmlError> {
    match op {
        EditOp::Insert { parent, element } => target(parent, root)?.push_child(element.clone()),
        EditOp::Delete { path } => {
            remove(path, root)?;
        }
        EditOp::SetText { path, text } => target(path, root)?.set_text(text.clone()),
        EditOp::SetAttr { path, name, value } => {
            target(path, root)?.set_attr(name.clone(), value.clone())
        }
        EditOp::RemoveAttr { path, name } => {
            target(path, root)?.remove_attr(name);
        }
    }
    Ok(())
}

/// Stable-sorts element children at every level by `(tag, "attr=value")`
/// of their [`MergeKeys::identity`] (empty when keyless), formatting
/// each key for every comparison. Only element-content lists are
/// sorted: mixed content keeps its order.
pub fn canonicalize(e: &mut Element, keys: &MergeKeys) {
    for ch in e.child_elements_mut() {
        canonicalize(ch, keys);
    }
    if !e.children.iter().all(|c| matches!(c, Node::Element(_))) {
        return;
    }
    let key = |n: &Node| match n {
        Node::Element(el) => (
            el.name.clone(),
            keys.identity(el).map(|(a, v)| format!("{a}={v}")).unwrap_or_default(),
        ),
        Node::Text(_) => unreachable!("all elements, checked above"),
    };
    e.children.sort_by(|x, y| key(x).cmp(&key(y)));
}

/// Deep-union merge of two elements denoting the same logical node.
///
/// Requirements: `a.name == b.name`. Attributes are unioned (conflicting
/// values for the same attribute are an error). Keyed children with equal
/// identity merge recursively; all other children are unioned with
/// duplicate suppression. If both sides have (non-whitespace) text and it
/// differs, the merge conflicts.
///
/// ```
/// use gupster_oracle::merge;
/// use gupster_xml::{parse, MergeKeys};
///
/// // The Figure-9 scenario: personal entries at Yahoo!, corporate at
/// // Lucent — merged back into one address book by the client.
/// let yahoo = parse(r#"<address-book><item id="1"><name>Mom</name></item></address-book>"#).unwrap();
/// let lucent = parse(r#"<address-book><item id="2"><name>Rick</name></item></address-book>"#).unwrap();
/// let keys = MergeKeys::new().with_key("item", "id");
/// let book = merge(&yahoo, &lucent, &keys).unwrap();
/// assert_eq!(book.children_named("item").count(), 2);
/// ```
pub fn merge<'e>(a: &'e Element, b: &'e Element, keys: &MergeKeys) -> Result<Element, XmlError> {
    if a.name != b.name {
        return Err(XmlError::MergeConflict {
            tag: a.name.to_string(),
            detail: format!("cannot merge <{}> with <{}>", a.name, b.name),
        });
    }
    let mut out = Element::new(a.name.clone());

    // Attribute union.
    for (n, v) in &a.attrs {
        out.attrs.push((n.clone(), v.clone()));
    }
    for (n, v) in &b.attrs {
        match out.attr(n) {
            None => out.attrs.push((n.clone(), v.clone())),
            Some(existing) if existing == &**v => {}
            Some(existing) => {
                return Err(XmlError::MergeConflict {
                    tag: a.name.to_string(),
                    detail: format!("attribute '{n}' differs: '{existing}' vs '{v}'"),
                })
            }
        }
    }

    // Text: non-whitespace direct text must agree.
    let ta = a.text();
    let tb = b.text();
    let (ta_t, tb_t) = (ta.trim(), tb.trim());
    let merged_text = if ta_t.is_empty() {
        tb
    } else if tb_t.is_empty() || ta_t == tb_t {
        ta
    } else {
        return Err(XmlError::MergeConflict {
            tag: a.name.to_string(),
            detail: format!("text differs: '{ta_t}' vs '{tb_t}'"),
        });
    };

    // Children. Keyed children merge by identity. Unkeyed children that
    // appear exactly once per side under the same tag denote the same
    // logical singleton field (e.g. `<name>`) and merge recursively —
    // conflicting singleton values surface as errors rather than being
    // silently duplicated. All other unkeyed children are unioned with
    // exact-duplicate suppression.
    let mut merged: Vec<Node> = Vec::new();
    // Keyed children by (tag, key attribute, key value).
    let mut index: HashMap<(&str, &str, &str), usize> = HashMap::new();

    let count_unkeyed = |side: &Element, tag: &str| {
        side.child_elements()
            .filter(|c| c.name == tag && keys.identity(c).is_none())
            .count()
    };

    let add_side = |side: &'e Element,
                        other: &Element,
                        first_pass: bool,
                        merged: &mut Vec<Node>,
                        index: &mut HashMap<(&'e str, &'e str, &'e str), usize>|
     -> Result<(), XmlError> {
        for ch in side.child_elements() {
            match keys.identity(ch) {
                Some((attr, value)) => {
                    let idn = (&*ch.name, attr, value);
                    if let Some(&at) = index.get(&idn) {
                        let existing = match &merged[at] {
                            Node::Element(e) => e.clone(),
                            Node::Text(_) => unreachable!(),
                        };
                        merged[at] = Node::Element(merge(&existing, ch, keys)?);
                    } else {
                        index.insert(idn, merged.len());
                        merged.push(Node::Element(ch.clone()));
                    }
                }
                None => {
                    let singleton = count_unkeyed(side, &ch.name) == 1
                        && count_unkeyed(other, &ch.name) == 1;
                    if singleton {
                        if first_pass {
                            let peer = other
                                .child_elements()
                                .find(|c| c.name == ch.name && keys.identity(c).is_none())
                                .expect("counted above");
                            merged.push(Node::Element(merge(ch, peer, keys)?));
                        }
                        // Second pass: already merged during the first.
                    } else {
                        // Unkeyed: suppress exact duplicates, keep both otherwise.
                        let dup =
                            merged.iter().any(|m| matches!(m, Node::Element(e) if e == ch));
                        if !dup {
                            merged.push(Node::Element(ch.clone()));
                        }
                    }
                }
            }
        }
        Ok(())
    };

    add_side(a, b, true, &mut merged, &mut index)?;
    add_side(b, a, false, &mut merged, &mut index)?;

    if !merged_text.trim().is_empty() {
        merged.push(Node::Text(merged_text.into()));
    }
    out.children = merged;
    Ok(out)
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
        if a.attr(n) != Some(&**v) {
            ops.push(EditOp::SetAttr { path: at.clone(), name: n.to_string(), value: v.to_string() });
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
        let child_path = at.clone().keyed(k.0, k.1, k.2);
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
            let child_path = at.clone().child(ea.name.clone(), 0);
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
            deletions.push(at.clone().child(ea.name.clone(), this_occ));
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
    use gupster_xml::parse;

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
        assert_eq!(resolve(&p, &root).unwrap().child("n").unwrap().text(), "B");
    }

    #[test]
    fn indexed_resolution() {
        let root = sample();
        let p = NodePath::root().child("book", 0).child("item", 2);
        assert_eq!(resolve(&p, &root).unwrap().child("n").unwrap().text(), "C");
    }

    #[test]
    fn missing_resolution_is_none() {
        let root = sample();
        assert!(resolve(&NodePath::root().child("nope", 0), &root).is_none());
        assert!(resolve(&NodePath::root().child("book", 0).keyed("item", "id", "zz"), &root).is_none());
    }

    #[test]
    fn ensure_creates_with_key() {
        let mut root = Element::new("user");
        let p = NodePath::root().child("book", 0).keyed("item", "id", "x");
        ensure(&p, &mut root).push_text("hi");
        assert_eq!(resolve(&p, &root).unwrap().text(), "hi");
        assert_eq!(resolve(&p, &root).unwrap().attr("id"), Some("x"));
        // Idempotent.
        ensure(&p, &mut root);
        assert_eq!(root.child("book").unwrap().child_elements().count(), 1);
    }

    #[test]
    fn remove_keyed() {
        let mut root = sample();
        let p = NodePath::root().child("book", 0).keyed("item", "id", "a");
        let removed = remove(&p, &mut root).unwrap();
        assert_eq!(removed.child("n").unwrap().text(), "A");
        assert!(resolve(&p, &root).is_none());
        assert!(remove(&p, &mut root).is_err());
    }

    #[test]
    fn remove_root_rejected() {
        let mut root = sample();
        assert!(remove(&NodePath::root(), &mut root).is_err());
    }

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    fn apply_all(mut tree: Element, ops: &[EditOp]) -> Element {
        for op in ops {
            apply(op, &mut tree).unwrap_or_else(|e| panic!("apply {op:?}: {e}"));
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
    fn apply_to_missing_path_errors() {
        let mut t = parse("<a/>").unwrap();
        let op = EditOp::SetText { path: NodePath::root().child("x", 0), text: "v".into() };
        assert!(apply(&op, &mut t).is_err());
    }

    #[test]
    fn split_address_book_merges() {
        // The Figure 9 scenario: personal at Yahoo!, corporate at Lucent.
        let yahoo = parse(
            r#"<address-book><item id="1" type="personal"><name>Mom</name></item></address-book>"#,
        )
        .unwrap();
        let lucent = parse(
            r#"<address-book><item id="2" type="corporate"><name>Rick</name></item></address-book>"#,
        )
        .unwrap();
        let m = merge(&yahoo, &lucent, &keys()).unwrap();
        assert_eq!(m.children_named("item").count(), 2);
    }

    #[test]
    fn same_identity_merges_recursively() {
        let a = parse(r#"<book><item id="1"><name>Bob</name></item></book>"#).unwrap();
        let b = parse(r#"<book><item id="1"><phone>555</phone></item></book>"#).unwrap();
        let m = merge(&a, &b, &keys()).unwrap();
        let items: Vec<_> = m.children_named("item").collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].child("name").unwrap().text(), "Bob");
        assert_eq!(items[0].child("phone").unwrap().text(), "555");
    }

    #[test]
    fn conflicting_text_is_error() {
        let a = parse(r#"<book><item id="1"><name>Bob</name></item></book>"#).unwrap();
        let b = parse(r#"<book><item id="1"><name>Robert</name></item></book>"#).unwrap();
        let err = merge(&a, &b, &keys()).unwrap_err();
        assert!(matches!(err, XmlError::MergeConflict { .. }));
    }

    #[test]
    fn agreeing_text_is_fine() {
        let a = parse(r#"<n>Bob</n>"#).unwrap();
        let b = parse(r#"<n>Bob</n>"#).unwrap();
        assert_eq!(merge(&a, &b, &keys()).unwrap().text(), "Bob");
    }

    #[test]
    fn attribute_union_and_conflict() {
        let a = parse(r#"<e x="1"/>"#).unwrap();
        let b = parse(r#"<e y="2"/>"#).unwrap();
        let m = merge(&a, &b, &keys()).unwrap();
        assert_eq!(m.attr("x"), Some("1"));
        assert_eq!(m.attr("y"), Some("2"));
        let c = parse(r#"<e x="9"/>"#).unwrap();
        assert!(merge(&a, &c, &keys()).is_err());
    }

    #[test]
    fn unkeyed_duplicates_suppressed() {
        let a = parse(r#"<l><v>1</v><v>2</v></l>"#).unwrap();
        let b = parse(r#"<l><v>2</v><v>3</v></l>"#).unwrap();
        // <v> carries no key attr; exact duplicates collapse.
        let m = merge(&a, &b, &MergeKeys::new()).unwrap();
        assert_eq!(m.children_named("v").count(), 3);
    }

    #[test]
    fn default_id_key_applies() {
        let a = parse(r#"<l><entry id="x"><a>1</a></entry></l>"#).unwrap();
        let b = parse(r#"<l><entry id="x"><b>2</b></entry></l>"#).unwrap();
        let m = merge(&a, &b, &MergeKeys::new()).unwrap();
        assert_eq!(m.children_named("entry").count(), 1);
    }

    #[test]
    fn mismatched_roots_rejected() {
        let a = parse("<a/>").unwrap();
        let b = parse("<b/>").unwrap();
        assert!(merge(&a, &b, &keys()).is_err());
    }

    #[test]
    fn merge_idempotent() {
        let a = parse(r#"<book><item id="1"><name>Bob</name></item></book>"#).unwrap();
        assert_eq!(merge(&a, &a, &keys()).unwrap(), a);
    }

    #[test]
    fn merge_commutative_on_disjoint() {
        let a = parse(r#"<b><item id="1"><n>A</n></item></b>"#).unwrap();
        let b = parse(r#"<b><item id="2"><n>B</n></item></b>"#).unwrap();
        let ab = merge(&a, &b, &keys()).unwrap();
        let ba = merge(&b, &a, &keys()).unwrap();
        // Same multiset of items (order may differ).
        let mut xs: Vec<String> = ab.children_named("item").map(|e| e.to_xml()).collect();
        let mut ys: Vec<String> = ba.children_named("item").map(|e| e.to_xml()).collect();
        xs.sort();
        ys.sort();
        assert_eq!(xs, ys);
    }
}
