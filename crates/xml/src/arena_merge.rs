//! Structural-sharing deep-union merge over arena documents.
//!
//! The owned [`crate::merge`] deep-clones both inputs into the result:
//! merging k fragments of n nodes copies O(k·n) nodes even when the
//! fragments are disjoint. [`MergeOut`] keeps the Buneman deep-union
//! semantics (it must stay *byte-identical* to the owned oracle — the
//! seeded differential suite enforces it) but replaces copying with
//! **grafting**: a child subtree that only one side contributes is
//! recorded as an id-reference into its source [`ArenaDoc`], and new
//! nodes ([`MNode`]) are allocated only along the changed spine where
//! the two sides actually meet. The writer serializes straight out of
//! the arenas, following grafts, so a merged document is never
//! materialized as an owned tree unless the caller asks for one.
//!
//! Nothing the merge reads is copied: spine attribute values and merged
//! text borrow from the source documents, and siblings are matched on
//! a borrowed [`Identity`] rather than a formatted key string.
//!
//! [`MergeStats`] counts fresh spine nodes vs. shared subtree nodes;
//! the bench harness (E19) and the fetch pipeline's simulated
//! `xml.merge` stage cost both derive from these deterministic counts.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::arena::{ArenaChild, ArenaDoc, NodeId};
use crate::error::XmlError;
use crate::escape::{escape_attr, escape_text};
use crate::intern::{NameId, NameInterner};
use crate::merge::MergeKeys;
use crate::node::{Element, Node};

/// Deterministic work counters for a structural-sharing merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Spine nodes allocated by the merge (the only allocations).
    pub fresh_nodes: u64,
    /// Subtrees grafted by id-reference instead of being copied.
    pub shared_subtrees: u64,
    /// Total element nodes inside those grafted subtrees — what the
    /// owned merge would have cloned.
    pub shared_nodes: u64,
}

/// The merge identity of an element among its siblings, borrowed from
/// the source documents: `(tag, key attribute, key value)`. Two
/// identities are equal exactly when [`MergeKeys::identity`]'s
/// `"attr=value"` strings are, since an XML name cannot contain `=`.
pub type Identity<'a> = (NameId, NameId, &'a str);

/// A merge result over one or more source [`ArenaDoc`]s: freshly
/// allocated spine nodes plus id-references into the sources.
#[derive(Debug, Clone)]
pub struct MergeOut<'a> {
    docs: Vec<&'a ArenaDoc>,
    nodes: Vec<MNode<'a>>,
    root: MKid<'a>,
    stats: MergeStats,
}

/// A freshly allocated merge-spine node. Attribute values borrow from
/// the source documents.
#[derive(Debug, Clone)]
struct MNode<'a> {
    name: NameId,
    attrs: Vec<(NameId, &'a str)>,
    kids: Vec<MKid<'a>>,
}

/// A child slot in the merge result.
#[derive(Debug, Clone)]
enum MKid<'a> {
    /// A spine node allocated by this merge.
    New(u32),
    /// An unchanged subtree grafted from `docs[d]` at the given node.
    Shared(u32, NodeId),
    /// A text run: borrowed from a source, owned only when a source
    /// concatenated several runs.
    Text(Cow<'a, str>),
}

/// A handle over either representation during the recursive merge.
#[derive(Debug, Clone, Copy)]
enum H {
    Arena(u32, NodeId),
    M(u32),
}

/// A child handle: element or text, for oracle-equality checks.
enum KidH<'s> {
    Elem(H),
    Text(&'s str),
}

impl<'a> MergeOut<'a> {
    /// Wraps a single document as a merge result: the whole tree is one
    /// graft, nothing is allocated.
    pub fn from_doc(doc: &'a ArenaDoc) -> MergeOut<'a> {
        Self::from_node(doc, doc.root())
    }

    /// [`MergeOut::from_doc`] for the subtree of `doc` at `node` — a
    /// fragment a store lends out of a larger resident document.
    pub fn from_node(doc: &'a ArenaDoc, node: NodeId) -> MergeOut<'a> {
        let mut out = MergeOut {
            docs: vec![doc],
            nodes: Vec::new(),
            root: MKid::Shared(0, node),
            stats: MergeStats::default(),
        };
        out.stats.shared_subtrees = 1;
        out.stats.shared_nodes = doc.subtree_size(node) as u64;
        out
    }

    /// Deep-union merges `doc` into this result, returning the merged
    /// result. Transactional: on a [`XmlError::MergeConflict`] the
    /// existing result is untouched (the fetch pipeline's
    /// keep-both-on-conflict fallback depends on this).
    pub fn merge_with(&self, doc: &'a ArenaDoc, keys: &MergeKeys) -> Result<MergeOut<'a>, XmlError> {
        self.merge_with_node(doc, doc.root(), keys)
    }

    /// [`MergeOut::merge_with`] for the subtree of `doc` at `node`.
    pub fn merge_with_node(
        &self,
        doc: &'a ArenaDoc,
        node: NodeId,
        keys: &MergeKeys,
    ) -> Result<MergeOut<'a>, XmlError> {
        let mut next = self.clone();
        next.docs.push(doc);
        let d = (next.docs.len() - 1) as u32;
        let root = next.kid_handle(&next.root);
        let merged = next.merge_h(root, H::Arena(d, node), keys)?;
        next.root = MKid::New(merged);
        Ok(next)
    }

    /// The interned tag name of the result root.
    pub fn root_name(&self) -> NameId {
        let h = self.kid_handle(&self.root);
        self.name_of(h)
    }

    /// The merge identity of the result root under `keys` — same
    /// precedence as [`MergeKeys::identity`]. Merging a result with a
    /// fragment of equal identity keeps that identity.
    pub fn root_identity(&self, keys: &MergeKeys) -> Option<Identity<'a>> {
        let h = self.kid_handle(&self.root);
        self.identity_of(h, keys)
    }

    /// Work counters accumulated across every `merge_with`.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Materializes the result as an owned [`Element`] — byte-identical
    /// to what the owned [`crate::merge`] would have produced. Names are
    /// borrowed from the interner, not copied.
    pub fn to_element(&self) -> Element {
        match self.kid_node(&self.root) {
            Node::Element(e) => e,
            Node::Text(_) => unreachable!("merge root is an element"),
        }
    }

    /// Serializes the result in compact form straight out of the
    /// arenas, following grafts — no owned tree is built.
    pub fn serialize_into(&self, out: &mut String) {
        self.write_kid(&self.root, out);
    }

    /// Compact serialization of the result.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.serialize_into(&mut out);
        out
    }

    fn write_kid(&self, k: &MKid<'a>, out: &mut String) {
        match k {
            MKid::Shared(d, n) => self.docs[*d as usize].serialize_node(*n, out),
            MKid::Text(t) => escape_text(t, out),
            MKid::New(i) => {
                let node = &self.nodes[*i as usize];
                out.push('<');
                out.push_str(NameInterner::resolve(node.name));
                for (n, v) in &node.attrs {
                    out.push(' ');
                    out.push_str(NameInterner::resolve(*n));
                    out.push_str("=\"");
                    escape_attr(v, out);
                    out.push('"');
                }
                if node.kids.is_empty() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for kid in &node.kids {
                    self.write_kid(kid, out);
                }
                out.push_str("</");
                out.push_str(NameInterner::resolve(node.name));
                out.push('>');
            }
        }
    }

    fn kid_node(&self, k: &MKid<'a>) -> Node {
        match k {
            MKid::Shared(d, n) => Node::Element(self.docs[*d as usize].to_element(*n)),
            MKid::Text(t) => Node::Text(t.to_string()),
            MKid::New(i) => {
                let node = &self.nodes[*i as usize];
                Node::Element(Element {
                    name: Cow::Borrowed(NameInterner::resolve(node.name)),
                    attrs: node
                        .attrs
                        .iter()
                        .map(|(n, v)| (Cow::Borrowed(NameInterner::resolve(*n)), v.to_string()))
                        .collect(),
                    children: node.kids.iter().map(|k| self.kid_node(k)).collect(),
                })
            }
        }
    }

    fn kid_handle(&self, k: &MKid<'a>) -> H {
        match k {
            MKid::Shared(d, n) => H::Arena(*d, *n),
            MKid::New(i) => H::M(*i),
            MKid::Text(_) => unreachable!("text kid has no element handle"),
        }
    }

    fn doc(&self, d: u32) -> &'a ArenaDoc {
        self.docs[d as usize]
    }

    fn name_of(&self, h: H) -> NameId {
        match h {
            H::Arena(d, n) => self.doc(d).name_id(n),
            H::M(i) => self.nodes[i as usize].name,
        }
    }

    fn attrs_of(&self, h: H) -> Vec<(NameId, &'a str)> {
        match h {
            H::Arena(d, n) => self.doc(d).attr_rows(n).collect(),
            H::M(i) => self.nodes[i as usize].attrs.clone(),
        }
    }

    fn attr_of(&self, h: H, name: NameId) -> Option<&'a str> {
        match h {
            H::Arena(d, n) => self.doc(d).attr_by_id(n, name),
            H::M(i) => {
                self.nodes[i as usize].attrs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
            }
        }
    }

    /// Direct text, matching [`Element::text`]. A spine node holds at
    /// most one text kid — [`MergeOut::merge_h`] pushes the merged text
    /// last and nothing else adds one.
    fn text_of(&self, h: H) -> Cow<'a, str> {
        match h {
            H::Arena(d, n) => self.doc(d).text(n),
            H::M(i) => self.nodes[i as usize]
                .kids
                .iter()
                .find_map(|k| match k {
                    MKid::Text(t) => Some(t.clone()),
                    _ => None,
                })
                .unwrap_or(Cow::Borrowed("")),
        }
    }

    fn elem_kids(&self, h: H) -> Vec<H> {
        match h {
            H::Arena(d, n) => self.doc(d).child_elements(n).map(|c| H::Arena(d, c)).collect(),
            H::M(i) => self.nodes[i as usize]
                .kids
                .iter()
                .filter(|k| !matches!(k, MKid::Text(_)))
                .map(|k| self.kid_handle(k))
                .collect(),
        }
    }

    fn all_kids(&self, h: H) -> Vec<KidH<'_>> {
        match h {
            H::Arena(d, n) => self
                .doc(d)
                .children(n)
                .map(|k| match k {
                    ArenaChild::Elem(c) => KidH::Elem(H::Arena(d, c)),
                    ArenaChild::Text(t) => KidH::Text(t),
                })
                .collect(),
            H::M(i) => self.nodes[i as usize]
                .kids
                .iter()
                .map(|k| match k {
                    MKid::Text(t) => KidH::Text(t),
                    other => KidH::Elem(self.kid_handle(other)),
                })
                .collect(),
        }
    }

    /// Identity under `keys`: explicit key first (and *only* that
    /// attribute if the tag has one), then the default `id`/`name`/
    /// `type` fallback — the exact precedence of [`MergeKeys::identity`].
    fn identity_of(&self, h: H, keys: &MergeKeys) -> Option<Identity<'a>> {
        let name = self.name_of(h);
        let probe = |attr: &str| {
            // A name that was never interned is on no node.
            let attr = NameInterner::lookup(attr)?;
            self.attr_of(h, attr).map(|v| (name, attr, v))
        };
        if let Some(attr) = keys.key_attr(NameInterner::resolve(name)) {
            return probe(attr);
        }
        if keys.use_default_keys {
            return ["id", "name", "type"].into_iter().find_map(probe);
        }
        None
    }

    /// Structural equality with `Element == Element` semantics:
    /// attribute sets order-insensitive, children order-sensitive.
    fn eq_h(&self, a: H, b: H) -> bool {
        if self.name_of(a) != self.name_of(b) {
            return false;
        }
        let aa = self.attrs_of(a);
        let ba = self.attrs_of(b);
        if aa.len() != ba.len() {
            return false;
        }
        if !aa
            .iter()
            .all(|(n, v)| ba.iter().find(|(bn, _)| bn == n).map(|(_, bv)| bv) == Some(v))
        {
            return false;
        }
        let ak = self.all_kids(a);
        let bk = self.all_kids(b);
        ak.len() == bk.len()
            && ak.iter().zip(bk.iter()).all(|(x, y)| match (x, y) {
                (KidH::Text(t), KidH::Text(u)) => t == u,
                (KidH::Elem(e), KidH::Elem(f)) => self.eq_h(*e, *f),
                _ => false,
            })
    }

    /// Records `h` as a result child without copying: arena subtrees
    /// graft by reference, already-fresh spine nodes pass through.
    fn share_kid(&mut self, h: H) -> MKid<'a> {
        match h {
            H::Arena(d, n) => {
                self.stats.shared_subtrees += 1;
                self.stats.shared_nodes += self.doc(d).subtree_size(n) as u64;
                MKid::Shared(d, n)
            }
            H::M(i) => MKid::New(i),
        }
    }

    fn count_unkeyed(&self, side: &[H], tag: NameId, keys: &MergeKeys) -> usize {
        side.iter()
            .filter(|h| self.name_of(**h) == tag && self.identity_of(**h, keys).is_none())
            .count()
    }

    /// The recursive deep union. Mirrors the owned [`crate::merge`]
    /// case-for-case (same conflicts, same messages, same ordering) —
    /// the only difference is that untouched subtrees are grafted.
    fn merge_h(&mut self, a: H, b: H, keys: &MergeKeys) -> Result<u32, XmlError> {
        let an = self.name_of(a);
        let bn = self.name_of(b);
        if an != bn {
            let (at, bt) = (NameInterner::resolve(an), NameInterner::resolve(bn));
            return Err(XmlError::MergeConflict {
                tag: at.to_string(),
                detail: format!("cannot merge <{at}> with <{bt}>"),
            });
        }
        let tag = NameInterner::resolve(an);

        // Attribute union.
        let mut attrs = self.attrs_of(a);
        for (n, v) in self.attrs_of(b) {
            match attrs.iter().find(|(en, _)| *en == n) {
                None => attrs.push((n, v)),
                Some((_, existing)) if *existing == v => {}
                Some((_, existing)) => {
                    return Err(XmlError::MergeConflict {
                        tag: tag.to_string(),
                        detail: format!(
                            "attribute '{}' differs: '{existing}' vs '{v}'",
                            NameInterner::resolve(n)
                        ),
                    })
                }
            }
        }

        // Text: non-whitespace direct text must agree.
        let ta = self.text_of(a);
        let tb = self.text_of(b);
        let (ta_t, tb_t) = (ta.trim(), tb.trim());
        let take_b = ta_t.is_empty();
        if !take_b && !tb_t.is_empty() && ta_t != tb_t {
            return Err(XmlError::MergeConflict {
                tag: tag.to_string(),
                detail: format!("text differs: '{ta_t}' vs '{tb_t}'"),
            });
        }
        let merged_text = if take_b { tb } else { ta };

        // Children: identical two-pass structure to the owned merge.
        let a_kids = self.elem_kids(a);
        let b_kids = self.elem_kids(b);
        let mut merged: Vec<MKid<'a>> = Vec::with_capacity(a_kids.len() + b_kids.len() + 1);
        let mut index: HashMap<Identity<'a>, usize> =
            HashMap::with_capacity(a_kids.len() + b_kids.len());
        self.add_side(&a_kids, &b_kids, true, keys, &mut merged, &mut index)?;
        self.add_side(&b_kids, &a_kids, false, keys, &mut merged, &mut index)?;

        if !merged_text.trim().is_empty() {
            merged.push(MKid::Text(merged_text));
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(MNode { name: an, attrs, kids: merged });
        self.stats.fresh_nodes += 1;
        Ok(idx)
    }

    fn add_side(
        &mut self,
        side: &[H],
        other: &[H],
        first_pass: bool,
        keys: &MergeKeys,
        merged: &mut Vec<MKid<'a>>,
        index: &mut HashMap<Identity<'a>, usize>,
    ) -> Result<(), XmlError> {
        for &ch in side {
            match self.identity_of(ch, keys) {
                Some(idn) => {
                    if let Some(&at) = index.get(&idn) {
                        let existing = self.kid_handle(&merged[at]);
                        let m = self.merge_h(existing, ch, keys)?;
                        merged[at] = MKid::New(m);
                    } else {
                        index.insert(idn, merged.len());
                        let kid = self.share_kid(ch);
                        merged.push(kid);
                    }
                }
                None => {
                    let tag = self.name_of(ch);
                    let singleton = self.count_unkeyed(side, tag, keys) == 1
                        && self.count_unkeyed(other, tag, keys) == 1;
                    if singleton {
                        if first_pass {
                            let peer = *other
                                .iter()
                                .find(|h| {
                                    self.name_of(**h) == tag
                                        && self.identity_of(**h, keys).is_none()
                                })
                                .expect("counted above");
                            let m = self.merge_h(ch, peer, keys)?;
                            merged.push(MKid::New(m));
                        }
                        // Second pass: already merged during the first.
                    } else {
                        // Unkeyed: suppress exact duplicates, keep both
                        // otherwise.
                        let dup = merged.iter().any(|m| match m {
                            MKid::Text(_) => false,
                            k => {
                                let h = self.kid_handle(k);
                                self.eq_h(h, ch)
                            }
                        });
                        if !dup {
                            let kid = self.share_kid(ch);
                            merged.push(kid);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Structural-sharing counterpart of [`crate::merge`]: deep-union of
/// two arena documents denoting the same logical node.
pub fn merge_arena<'a>(
    a: &'a ArenaDoc,
    b: &'a ArenaDoc,
    keys: &MergeKeys,
) -> Result<MergeOut<'a>, XmlError> {
    MergeOut::from_doc(a).merge_with(b, keys)
}

/// Structural-sharing counterpart of [`crate::merge_all`]: left fold
/// over a non-empty sequence of fragments.
pub fn merge_arena_all<'a>(
    parts: &[&'a ArenaDoc],
    keys: &MergeKeys,
) -> Result<MergeOut<'a>, XmlError> {
    let (first, rest) = parts.split_first().ok_or_else(|| XmlError::MergeConflict {
        tag: String::new(),
        detail: "merge_all of zero fragments".into(),
    })?;
    let mut acc = MergeOut::from_doc(first);
    for p in rest {
        acc = acc.merge_with(p, keys)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{merge, merge_all};
    use crate::parse;

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    /// Oracle check: the arena merge must agree with the owned merge
    /// byte-for-byte, including on whether it errors at all.
    fn agree(a_src: &str, b_src: &str, keys: &MergeKeys) {
        let (ea, eb) = (parse(a_src).unwrap(), parse(b_src).unwrap());
        let (da, db) = (ArenaDoc::parse(a_src).unwrap(), ArenaDoc::parse(b_src).unwrap());
        let owned = merge(&ea, &eb, keys);
        let arena = merge_arena(&da, &db, keys);
        match (owned, arena) {
            (Ok(o), Ok(m)) => {
                assert_eq!(m.to_element(), o, "tree mismatch: {a_src} + {b_src}");
                assert_eq!(m.to_xml(), o.to_xml(), "bytes mismatch: {a_src} + {b_src}");
            }
            (Err(oe), Err(me)) => assert_eq!(oe, me, "error mismatch: {a_src} + {b_src}"),
            (o, m) => panic!("divergence on {a_src} + {b_src}: owned {o:?} vs arena {m:?}"),
        }
    }

    #[test]
    fn mirrors_owned_merge() {
        let k = keys();
        agree(
            r#"<b><item id="1" type="personal"><name>Mom</name></item></b>"#,
            r#"<b><item id="2" type="corporate"><name>Rick</name></item></b>"#,
            &k,
        );
        agree(
            r#"<b><item id="1"><name>Bob</name></item></b>"#,
            r#"<b><item id="1"><phone>555</phone></item></b>"#,
            &k,
        );
        agree(
            r#"<b><item id="1"><name>Bob</name></item></b>"#,
            r#"<b><item id="1"><name>Robert</name></item></b>"#,
            &k,
        );
        agree(r#"<e x="1"/>"#, r#"<e y="2"/>"#, &k);
        agree(r#"<e x="1"/>"#, r#"<e x="9"/>"#, &k);
        agree("<a/>", "<b/>", &k);
        agree("<n>Bob</n>", "<n>Bob</n>", &k);
        let plain = MergeKeys::new();
        agree("<l><v>1</v><v>2</v></l>", "<l><v>2</v><v>3</v></l>", &plain);
        agree(
            r#"<l><entry id="x"><a>1</a></entry></l>"#,
            r#"<l><entry id="x"><b>2</b></entry></l>"#,
            &plain,
        );
        let items = |a: &str, b: &str, keys: &MergeKeys, tag: &str| {
            let (da, db) = (ArenaDoc::parse(a).unwrap(), ArenaDoc::parse(b).unwrap());
            let m = merge_arena(&da, &db, keys).unwrap();
            m.to_element().children_named(tag).count()
        };
        // Same value under different key attributes: two identities.
        let (a, b) = (r#"<l><e id="x"><a>1</a></e></l>"#, r#"<l><e name="x"><b>2</b></e></l>"#);
        agree(a, b, &plain);
        assert_eq!(items(a, b, &plain, "e"), 2);
        // An explicit key the element lacks leaves it without identity:
        // no fall back to `id`, so item 1 is not merged across sides.
        let sku = MergeKeys::new().with_key("item", "sku");
        let (a, b) = (
            r#"<b><item id="1"><n>A</n></item><item id="2"><n>B</n></item></b>"#,
            r#"<b><item id="1"><m>C</m></item></b>"#,
        );
        agree(a, b, &sku);
        assert_eq!(items(a, b, &sku, "item"), 3);
    }

    #[test]
    fn materialized_names_are_borrowed() {
        fn all_borrowed(e: &Element) -> bool {
            matches!(e.name, Cow::Borrowed(_))
                && e.attrs.iter().all(|(n, _)| matches!(n, Cow::Borrowed(_)))
                && e.child_elements().all(all_borrowed)
        }
        let a = ArenaDoc::parse(r#"<b k="1"><item id="1" type="p"><n>A</n></item>t</b>"#).unwrap();
        let b = ArenaDoc::parse(r#"<b j="2"><item id="1"><m x="y"/></item><item id="2"/></b>"#)
            .unwrap();
        assert!(all_borrowed(&a.root_element()));
        let m = merge_arena(&a, &b, &keys()).unwrap();
        // Both kinds of node: a fresh spine (<b>, item 1) and grafts.
        assert_eq!(m.stats().fresh_nodes, 2);
        assert!(m.stats().shared_subtrees > 2);
        assert!(all_borrowed(&m.to_element()));
    }

    #[test]
    fn disjoint_merge_allocates_only_the_spine() {
        let a = ArenaDoc::parse(
            r#"<b><item id="1"><n>A</n><p>x</p></item><item id="2"><n>B</n></item></b>"#,
        )
        .unwrap();
        let b = ArenaDoc::parse(r#"<b><item id="3"><n>C</n><q>y</q></item></b>"#).unwrap();
        let m = merge_arena(&a, &b, &keys()).unwrap();
        let s = m.stats();
        // Only the <b> root is fresh; every <item> subtree is grafted.
        assert_eq!(s.fresh_nodes, 1, "{s:?}");
        assert_eq!(s.shared_subtrees, 1 + 3, "{s:?}"); // initial doc + 3 items
        assert!(s.shared_nodes > s.fresh_nodes);
    }

    #[test]
    fn merge_all_matches_owned_fold() {
        let srcs: Vec<String> = (1..=4)
            .map(|i| format!(r#"<b><item id="{i}"><n>N{i}</n></item></b>"#))
            .collect();
        let owned: Vec<Element> = srcs.iter().map(|s| parse(s).unwrap()).collect();
        let arena: Vec<ArenaDoc> = srcs.iter().map(|s| ArenaDoc::parse(s).unwrap()).collect();
        let refs: Vec<&ArenaDoc> = arena.iter().collect();
        let o = merge_all(&owned, &keys()).unwrap();
        let m = merge_arena_all(&refs, &keys()).unwrap();
        assert_eq!(m.to_element(), o);
        assert_eq!(m.to_xml(), o.to_xml());
        assert!(merge_arena_all(&[], &keys()).is_err());
    }

    #[test]
    fn conflict_leaves_receiver_usable() {
        let a = ArenaDoc::parse(r#"<e x="1"/>"#).unwrap();
        let b = ArenaDoc::parse(r#"<e x="9"/>"#).unwrap();
        let c = ArenaDoc::parse(r#"<e y="2"/>"#).unwrap();
        let acc = MergeOut::from_doc(&a);
        assert!(acc.merge_with(&b, &keys()).is_err());
        // The failed merge must not have corrupted `acc`.
        let ok = acc.merge_with(&c, &keys()).unwrap();
        assert_eq!(ok.to_xml(), r#"<e x="1" y="2"/>"#);
    }

    #[test]
    fn root_identity_tracks_merged_attrs() {
        let k = MergeKeys::new();
        let a = ArenaDoc::parse("<u><n>x</n></u>").unwrap();
        let b = ArenaDoc::parse(r#"<u id="7"><m>y</m></u>"#).unwrap();
        let acc = MergeOut::from_doc(&a);
        assert_eq!(acc.root_identity(&k), None);
        let m = acc.merge_with(&b, &k).unwrap();
        // After the union the root carries id=7, and identity sees it.
        let (name, attr, value) = m.root_identity(&k).unwrap();
        assert_eq!(NameInterner::resolve(name), "u");
        assert_eq!((NameInterner::resolve(attr), value), ("id", "7"));
        assert_eq!(m.root_name(), name);
    }

    /// A lent subtree merges exactly like a document made of that
    /// subtree alone: same answer (or conflict), same work counters.
    #[test]
    fn merging_a_subtree_equals_merging_a_document_of_it() {
        use gupster_rng::check::{self, cases};
        use gupster_rng::Rng;
        let k = keys();
        cases(200, 0x13_0d, |rng| {
            // Two profiles whose books overlap on some item ids, agree
            // on some of those and conflict on others.
            let profile = |rng: &mut gupster_rng::StdRng| {
                let mut book = Element::new("address-book");
                for _ in 0..rng.gen_range(0..6usize) {
                    let mut item = Element::new("item").with_attr("id", rng.gen_range(0..5u32).to_string());
                    if rng.gen_bool(0.7) {
                        item.push_child(Element::new("name").with_text(check::lowercase(rng, 1, 2)));
                    }
                    if rng.gen_bool(0.3) {
                        item.push_child(Element::new("phone").with_text("555 & <0>"));
                    }
                    book.push_child(item);
                }
                Element::new("user")
                    .with_attr("id", "u")
                    .with_child(Element::new("presence").with_text("on"))
                    .with_child(book)
            };
            let (pa, pb) = (profile(rng), profile(rng));
            let (da, db) = (ArenaDoc::from_element(&pa), ArenaDoc::from_element(&pb));
            let book_of = |d: &ArenaDoc| d.child_elements(d.root()).nth(1).unwrap();
            let (na, nb) = (book_of(&da), book_of(&db));
            let (sa, sb) = (
                ArenaDoc::from_element(pa.child("address-book").unwrap()),
                ArenaDoc::from_element(pb.child("address-book").unwrap()),
            );

            let lent = MergeOut::from_node(&da, na);
            let whole = MergeOut::from_doc(&sa);
            assert_eq!(lent.to_element(), whole.to_element());
            assert_eq!(lent.stats(), whole.stats());
            assert_eq!(lent.root_name(), whole.root_name());
            assert_eq!(lent.root_identity(&k), whole.root_identity(&k));
            match (lent.merge_with_node(&db, nb, &k), whole.merge_with(&sb, &k)) {
                (Ok(l), Ok(w)) => {
                    assert_eq!(l.to_element(), w.to_element());
                    assert_eq!(l.to_xml(), w.to_xml());
                    assert_eq!(l.stats(), w.stats());
                }
                (Err(l), Err(w)) => assert_eq!(l, w),
                (l, w) => panic!("lent {l:?} vs whole {w:?}"),
            }
        });
    }

    #[test]
    fn serializer_follows_grafts() {
        let a = ArenaDoc::parse(r#"<b><item id="1"><n>A &amp; B</n></item></b>"#).unwrap();
        let b = ArenaDoc::parse(r#"<b><item id="2"/></b>"#).unwrap();
        let m = merge_arena(&a, &b, &keys()).unwrap();
        assert_eq!(
            m.to_xml(),
            r#"<b><item id="1"><n>A &amp; B</n></item><item id="2"/></b>"#
        );
        assert_eq!(m.to_xml(), m.to_element().to_xml());
    }
}
