//! Deep-union merge of profile components.
//!
//! Figure 9 of the paper splits Arnaud's address book across Yahoo!
//! (personal entries) and Lucent (corporate entries); a request for the
//! whole book returns referrals to both stores **"as well as a way to
//! merge the two XML fragments"**. The paper cites Buneman et al.'s
//! *deep union* for deterministic semistructured data as the relevant
//! operator (§6). This module implements it.
//!
//! The merge is driven by a [`MergeKeys`] specification: for each tag
//! name it names the attribute that identifies an element among its
//! siblings. Two sibling elements with the same tag and the same key
//! value denote *the same logical node* and are merged recursively;
//! elements whose tag has no key are matched positionally when their
//! content is identical, otherwise both are kept (set union). Text
//! content conflicts surface as [`XmlError::MergeConflict`].

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::error::XmlError;
use crate::intern::{NameId, NameInterner};
use crate::node::{Element, Node};

/// Per-tag key attributes driving [`merge`].
///
/// `id`, `name` and `type` are the default keys: if a tag has no
/// explicit entry but the element carries one of them, the first it
/// carries is used. [`MergeKeys::new`] turns them on; `Default` does not.
///
/// Tags and attributes are interned when a key is declared, so the
/// arena merge matches siblings on integer ids; the interned names are
/// kept beside the ids for the owned tree, which compares strings.
#[derive(Debug, Clone, Default)]
pub struct MergeKeys {
    /// `(tag, key attribute)`, at most one entry per tag.
    keys: Vec<(Interned, Interned)>,
    /// When true, fall back to `id`/`name`/`type` attributes for tags
    /// without an explicit key.
    pub use_default_keys: bool,
}

/// A name with its interned id.
type Interned = (NameId, &'static str);

fn interned(name: &str) -> Interned {
    let id = NameInterner::intern(name);
    (id, NameInterner::resolve(id))
}

impl MergeKeys {
    /// An empty specification with default-key fallback enabled.
    pub fn new() -> Self {
        MergeKeys { keys: Vec::new(), use_default_keys: true }
    }

    /// Builder: declares `attr` as the key attribute for `tag`,
    /// replacing any key declared for `tag` before.
    pub fn with_key(mut self, tag: &str, attr: &str) -> Self {
        let (tag, attr) = (interned(tag), interned(attr));
        match self.keys.iter_mut().find(|(t, _)| t.0 == tag.0) {
            Some(slot) => slot.1 = attr,
            None => self.keys.push((tag, attr)),
        }
        self
    }

    /// The explicitly declared key attribute for `tag`, if any.
    pub(crate) fn explicit(&self, tag: NameId) -> Option<NameId> {
        self.keys.iter().find(|(t, _)| t.0 == tag).map(|(_, a)| a.0)
    }

    /// The fallback key attributes in precedence order: `id`, `name`,
    /// `type` when [`MergeKeys::use_default_keys`] is set, else none.
    pub(crate) fn fallback(&self) -> &'static [Interned] {
        static DEFAULTS: OnceLock<[Interned; 3]> = OnceLock::new();
        if !self.use_default_keys {
            return &[];
        }
        DEFAULTS.get_or_init(|| ["id", "name", "type"].map(interned))
    }

    /// True when `attr` can decide a `tag` element's
    /// [`identity`](Self::identity): the tag's explicit key attribute,
    /// else any of the fallback ones.
    pub fn may_key(&self, tag: &str, attr: &str) -> bool {
        match self.keys.iter().find(|(t, _)| t.1 == tag) {
            Some((_, key)) => key.1 == attr,
            None => self.fallback().iter().any(|key| key.1 == attr),
        }
    }

    /// Returns the key of `e` among its siblings, `(attribute, value)`
    /// borrowed from `e`, when a key attribute applies and is present:
    /// the tag's explicit key attribute (and *only* that one if the tag
    /// has one), else the first of `id`, `name`, `type` that `e` carries.
    /// Two siblings with the same tag and equal key denote the same
    /// logical node.
    pub fn identity<'e>(&self, e: &'e Element) -> Option<(&'e str, &'e str)> {
        let probe = |&(_, attr): &Interned| {
            e.attrs.iter().find(|(n, _)| n == attr).map(|(n, v)| (&**n, v.as_str()))
        };
        match self.keys.iter().find(|(t, _)| t.1 == e.name) {
            Some((_, attr)) => probe(attr),
            None => self.fallback().iter().find_map(probe),
        }
    }
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
/// use gupster_xml::{merge, parse, MergeKeys};
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

/// Merges a non-empty sequence of fragments left to right.
pub fn merge_all(parts: &[Element], keys: &MergeKeys) -> Result<Element, XmlError> {
    let (first, rest) = parts.split_first().ok_or_else(|| XmlError::MergeConflict {
        tag: String::new(),
        detail: "merge_all of zero fragments".into(),
    })?;
    let mut acc = first.clone();
    for p in rest {
        acc = merge(&acc, p, keys)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    /// `may_key` names exactly the attributes `identity` can read.
    #[test]
    fn may_key_covers_the_explicit_key_or_the_fallbacks() {
        let mut k = keys();
        assert!(k.may_key("item", "id"));
        assert!(!k.may_key("item", "name"), "an explicit key shadows the fallbacks");
        assert!(k.may_key("group", "name") && k.may_key("group", "type"));
        assert!(!k.may_key("group", "note"));
        k.use_default_keys = false;
        assert!(k.may_key("item", "id") && !k.may_key("group", "id"));
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

    #[test]
    fn merge_all_three_fragments() {
        let parts: Vec<_> = ["1", "2", "3"]
            .iter()
            .map(|i| parse(&format!(r#"<b><item id="{i}"/></b>"#)).unwrap())
            .collect();
        let m = merge_all(&parts, &keys()).unwrap();
        assert_eq!(m.children_named("item").count(), 3);
        assert!(merge_all(&[], &keys()).is_err());
    }
}
