//! Merge keys: which attribute identifies an element among its
//! siblings.
//!
//! Figure 9 of the paper splits Arnaud's address book across Yahoo!
//! (personal entries) and Lucent (corporate entries); a request for the
//! whole book returns referrals to both stores **"as well as a way to
//! merge the two XML fragments"**. The paper cites Buneman et al.'s
//! *deep union* for deterministic semistructured data as the relevant
//! operator (§6); [`crate::merge_arena`] implements it, and sync
//! sessions match and order replica entries by the same keys.
//!
//! A [`MergeKeys`] specification names, for each tag, the attribute
//! that identifies an element among its siblings. Two sibling elements
//! with the same tag and the same key value denote *the same logical
//! node*.

use std::sync::OnceLock;

use crate::arena::{ArenaDoc, NodeId};
use crate::intern::{NameId, NameInterner};
use crate::node::Element;

/// Per-tag key attributes driving [`crate::merge_arena`].
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

    /// [`MergeKeys::identity`] of the element `id` of `doc`, found by
    /// interned ids: the key attribute's name and its value.
    pub fn identity_in<'d>(
        &self,
        doc: &'d ArenaDoc,
        id: NodeId,
    ) -> Option<(&'static str, &'d str)> {
        let probe = |&(attr, name): &Interned| doc.attr_by_id(id, attr).map(|v| (name, v));
        match self.keys.iter().find(|(t, _)| t.0 == doc.name_id(id)) {
            Some((_, attr)) => probe(attr),
            None => self.fallback().iter().find_map(probe),
        }
    }
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

    /// An arena element has the identity its owned copy has.
    #[test]
    fn identity_in_matches_identity() {
        let src = r#"<b><item id="1" name="n"/><item name="n"/><group type="t" name="g"/><v/><item/></b>"#;
        let (tree, doc) = (parse(src).unwrap(), ArenaDoc::parse(src).unwrap());
        for mut k in [keys(), MergeKeys::new(), MergeKeys::default().with_key("group", "type")] {
            for _ in 0..2 {
                let owned = tree.child_elements().map(|e| k.identity(e));
                let arena = doc.child_elements(doc.root()).map(|c| k.identity_in(&doc, c));
                assert!(owned.eq(arena), "{k:?}");
                k.use_default_keys = !k.use_default_keys;
            }
        }
    }
}
