//! Arena XML documents: the zero-copy hot-path representation.
//!
//! The owned [`Element`] tree allocates a `String` for every attribute
//! value and text run, and a `Vec` for every child and attribute list —
//! at millions of fetches that is the dominant cost of the read path
//! once lookups are indexed (DESIGN.md §10). Its tag and attribute
//! *names* are a [`crate::Name`], so a tree materialized from an arena
//! ([`ArenaDoc::to_element`]) borrows the interned names instead of
//! allocating one per element and attribute. An [`ArenaDoc`] stores the
//! same document as flat `Vec`s addressed by [`NodeId`]:
//!
//! * element and attribute **names** are interned through
//!   [`NameInterner`] and stored as 4-byte [`NameId`]s;
//! * **text and attribute values** are byte-range slices over the
//!   retained input buffer — parsing copies character data only when
//!   the source bytes are not literal (entity references, CDATA, or a
//!   text run interrupted by a comment);
//! * **child lists and attribute lists** are contiguous ranges in two
//!   shared vectors, so a document is five allocations regardless of
//!   node count.
//!
//! The owned tree remains the differential oracle: for every input,
//! [`ArenaDoc::parse`] must accept/reject exactly as [`crate::parse`]
//! does, [`ArenaDoc::to_element`] must equal the owned parse, and
//! [`ArenaDoc::to_xml`] must be byte-identical to the owned
//! serializer. `tests/xml_differential.rs` enforces this over seeded
//! random documents.

use std::borrow::Cow;

use crate::error::ParseError;
use crate::escape::{
    escape_attr, escape_text, escaped_attr_len, escaped_text_len, resolve_entity,
};
use crate::intern::{NameId, NameInterner};
use crate::node::{Element, Node};
use crate::parser::{is_name_char, is_name_start};
use crate::writer::tag_len;

/// Index of an element node inside an [`ArenaDoc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A text or attribute value: either a byte range over the retained
/// input buffer (the zero-copy case) or an owned string (entities,
/// CDATA, comment-interrupted runs, synthesized documents).
#[derive(Debug, Clone)]
enum AVal {
    Slice(u32, u32),
    Owned(String),
}

/// One element: interned name plus contiguous ranges into the shared
/// attribute and child vectors.
#[derive(Debug, Clone, Copy)]
struct AElem {
    name: NameId,
    attr_start: u32,
    attr_end: u32,
    kid_start: u32,
    kid_end: u32,
}

/// One slot in the flat child vector.
#[derive(Debug, Clone, Copy)]
enum AKid {
    Elem(NodeId),
    Text(u32),
}

/// A child of an arena element, as seen through [`ArenaDoc::children`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaChild<'d> {
    /// A nested element, addressed by id.
    Elem(NodeId),
    /// A run of character data (entities already resolved).
    Text(&'d str),
}

/// A parsed XML document in arena form. See the module docs for the
/// representation; the public surface mirrors the read-only half of
/// [`Element`] (names, attributes, children, text) plus lossless
/// conversions to and from the owned tree.
#[derive(Debug, Clone)]
pub struct ArenaDoc {
    /// The retained input buffer value slices point into. Empty for
    /// documents built via [`ArenaDoc::from_element`].
    buf: String,
    elems: Vec<AElem>,
    attrs: Vec<(NameId, AVal)>,
    kids: Vec<AKid>,
    texts: Vec<AVal>,
    root: NodeId,
    /// Rows of the four tables no longer reachable from `root`: what
    /// the in-place edits below orphaned. See [`ArenaDoc::compact`].
    dead: usize,
}

impl ArenaDoc {
    /// Parses a complete XML document into arena form, retaining a copy
    /// of the input as the value buffer. Accepts and rejects exactly
    /// the same inputs as the owned [`crate::parse`], and applies the
    /// same whitespace normalization.
    pub fn parse(input: &str) -> Result<ArenaDoc, ParseError> {
        Self::parse_owned(input.to_string())
    }

    /// Like [`ArenaDoc::parse`] but takes ownership of the input
    /// buffer, so nothing is copied at all on the clean path.
    pub fn parse_owned(input: String) -> Result<ArenaDoc, ParseError> {
        let mut p = ArenaParser {
            input: &input,
            pos: 0,
            elems: Vec::new(),
            attrs: Vec::new(),
            kids: Vec::new(),
            texts: Vec::new(),
            scratch: Vec::new(),
        };
        p.skip_prolog()?;
        let root = p.parse_element()?;
        p.skip_misc();
        if p.pos < p.input.len() {
            return Err(p.err("trailing content after document element"));
        }
        let ArenaParser { elems, attrs, kids, texts, .. } = p;
        Ok(ArenaDoc { buf: input, elems, attrs, kids, texts, root, dead: 0 })
    }

    fn empty() -> ArenaDoc {
        ArenaDoc {
            buf: String::new(),
            elems: Vec::new(),
            attrs: Vec::new(),
            kids: Vec::new(),
            texts: Vec::new(),
            root: NodeId(0),
            dead: 0,
        }
    }

    /// Converts an owned tree into arena form, losslessly (no
    /// whitespace normalization — the tree is taken as-is). Names are
    /// interned; values are held owned since there is no source buffer.
    pub fn from_element(e: &Element) -> ArenaDoc {
        let mut doc = ArenaDoc::sized_for(e);
        doc.root = doc.add_element(e, &mut Vec::new());
        doc
    }

    /// [`ArenaDoc::from_element`] of a tree the caller is done with:
    /// every text and attribute value is moved into the arena, none is
    /// copied. What a store does with a document it is handed to keep.
    pub fn from_owned(e: Element) -> ArenaDoc {
        let mut doc = ArenaDoc::sized_for(&e);
        doc.root = doc.add_owned(e, &mut Vec::new());
        doc
    }

    /// An empty document whose tables have exactly the room `e` needs:
    /// one allocation per table, none regrown, no slack kept resident.
    fn sized_for(e: &Element) -> ArenaDoc {
        fn tally(e: &Element, rows: &mut [usize; 4]) {
            rows[0] += 1;
            rows[1] += e.attrs.len();
            rows[2] += e.children.len();
            for ch in &e.children {
                match ch {
                    Node::Element(c) => tally(c, rows),
                    Node::Text(_) => rows[3] += 1,
                }
            }
        }
        let mut rows = [0; 4];
        tally(e, &mut rows);
        ArenaDoc {
            elems: Vec::with_capacity(rows[0]),
            attrs: Vec::with_capacity(rows[1]),
            kids: Vec::with_capacity(rows[2]),
            texts: Vec::with_capacity(rows[3]),
            ..ArenaDoc::empty()
        }
    }

    /// Starts an element whose attribute rows (from `attr_start` on) are
    /// already in place; its children collect in `scratch` above the
    /// returned mark until [`ArenaDoc::close`].
    fn open(&mut self, name: NameId, attr_start: usize, scratch: &[AKid]) -> (NodeId, usize) {
        let id = NodeId(self.elems.len() as u32);
        self.elems.push(AElem {
            name,
            attr_start: attr_start as u32,
            attr_end: self.attrs.len() as u32,
            kid_start: 0,
            kid_end: 0,
        });
        (id, scratch.len())
    }

    /// Moves the children collected since `mark` into one contiguous
    /// range of the child table.
    fn close(&mut self, id: NodeId, mark: usize, scratch: &mut Vec<AKid>) -> NodeId {
        let kid_start = self.kids.len() as u32;
        self.kids.extend(scratch.drain(mark..));
        let slot = &mut self.elems[id.0 as usize];
        slot.kid_start = kid_start;
        slot.kid_end = self.kids.len() as u32;
        id
    }

    fn add_text(&mut self, v: AVal, scratch: &mut Vec<AKid>) {
        scratch.push(AKid::Text(self.texts.len() as u32));
        self.texts.push(v);
    }

    fn add_element(&mut self, e: &Element, scratch: &mut Vec<AKid>) -> NodeId {
        let attr_start = self.attrs.len();
        for (n, v) in &e.attrs {
            self.attrs.push((NameInterner::intern(n), AVal::Owned(v.clone())));
        }
        let (id, mark) = self.open(NameInterner::intern(&e.name), attr_start, scratch);
        for ch in &e.children {
            match ch {
                Node::Element(c) => {
                    let cid = self.add_element(c, scratch);
                    scratch.push(AKid::Elem(cid));
                }
                Node::Text(t) => self.add_text(AVal::Owned(t.clone()), scratch),
            }
        }
        self.close(id, mark, scratch)
    }

    fn add_owned(&mut self, e: Element, scratch: &mut Vec<AKid>) -> NodeId {
        let attr_start = self.attrs.len();
        for (n, v) in e.attrs {
            self.attrs.push((NameInterner::intern(&n), AVal::Owned(v)));
        }
        let (id, mark) = self.open(NameInterner::intern(&e.name), attr_start, scratch);
        for ch in e.children {
            match ch {
                Node::Element(c) => {
                    let cid = self.add_owned(c, scratch);
                    scratch.push(AKid::Elem(cid));
                }
                Node::Text(t) => self.add_text(AVal::Owned(t), scratch),
            }
        }
        self.close(id, mark, scratch)
    }

    /// The document element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The interned name of `id`.
    pub fn name_id(&self, id: NodeId) -> NameId {
        self.elems[id.0 as usize].name
    }

    /// The tag name of `id`.
    pub fn name(&self, id: NodeId) -> &'static str {
        NameInterner::resolve(self.name_id(id))
    }

    fn val<'d>(&'d self, v: &'d AVal) -> &'d str {
        match v {
            AVal::Slice(s, e) => &self.buf[*s as usize..*e as usize],
            AVal::Owned(s) => s,
        }
    }

    /// The attributes of `id` in document order.
    pub fn attrs(&self, id: NodeId) -> impl Iterator<Item = (&'static str, &str)> {
        self.attr_rows(id).map(|(n, v)| (NameInterner::resolve(n), v))
    }

    /// The attribute rows of `id` with their interned names — what the
    /// merge reads, with no resolve-then-intern round trip.
    pub(crate) fn attr_rows(&self, id: NodeId) -> impl Iterator<Item = (NameId, &str)> {
        let e = &self.elems[id.0 as usize];
        self.attrs[e.attr_start as usize..e.attr_end as usize]
            .iter()
            .map(|(n, v)| (*n, self.val(v)))
    }

    /// The value of the named attribute of `id`, if present.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        // A name that was never interned cannot be on any node.
        let nid = NameInterner::lookup(name)?;
        self.attr_by_id(id, nid)
    }

    /// [`ArenaDoc::attr`] with a pre-interned name — integer probes
    /// only, for the merge hot path.
    pub fn attr_by_id(&self, id: NodeId, name: NameId) -> Option<&str> {
        self.attr_rows(id).find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Number of attributes on `id`.
    pub fn attr_count(&self, id: NodeId) -> usize {
        let e = &self.elems[id.0 as usize];
        (e.attr_end - e.attr_start) as usize
    }

    /// The children of `id` in document order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = ArenaChild<'_>> {
        let e = &self.elems[id.0 as usize];
        self.kids[e.kid_start as usize..e.kid_end as usize].iter().map(|k| match k {
            AKid::Elem(c) => ArenaChild::Elem(*c),
            AKid::Text(t) => ArenaChild::Text(self.val(&self.texts[*t as usize])),
        })
    }

    /// The element children of `id`, skipping text.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter_map(|k| match k {
            ArenaChild::Elem(c) => Some(c),
            ArenaChild::Text(_) => None,
        })
    }

    /// The concatenation of the direct text children of `id`. Borrows
    /// straight from the arena when there is at most one text child
    /// (the overwhelmingly common case for profile leaves).
    pub fn text(&self, id: NodeId) -> Cow<'_, str> {
        let mut texts = self.children(id).filter_map(|k| match k {
            ArenaChild::Text(t) => Some(t),
            ArenaChild::Elem(_) => None,
        });
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

    /// Total number of element nodes in the document.
    pub fn node_count(&self) -> usize {
        self.elems.len()
    }

    /// Number of element nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        1 + self.child_elements(id).map(|c| self.subtree_size(c)).sum::<usize>()
    }

    /// Bytes of character data that had to be copied out of the input
    /// (entity/CDATA/comment-interrupted runs and synthesized values).
    /// Zero for a clean parse — the zero-copy claim, measurable.
    pub fn owned_value_bytes(&self) -> usize {
        let owned = |v: &AVal| match v {
            AVal::Slice(..) => 0,
            AVal::Owned(s) => s.len(),
        };
        self.texts.iter().map(owned).sum::<usize>()
            + self.attrs.iter().map(|(_, v)| owned(v)).sum::<usize>()
    }

    /// Converts the subtree at `id` back into an owned [`Element`]. Its
    /// names borrow the interned `&'static str`s; values are copied.
    pub fn to_element(&self, id: NodeId) -> Element {
        let e = &self.elems[id.0 as usize];
        Element {
            name: Cow::Borrowed(self.name(id)),
            attrs: self.attrs(id).map(|(n, v)| (Cow::Borrowed(n), v.to_string())).collect(),
            children: self.kids[e.kid_start as usize..e.kid_end as usize]
                .iter()
                .map(|k| match k {
                    AKid::Elem(c) => Node::Element(self.to_element(*c)),
                    AKid::Text(t) => Node::Text(self.val(&self.texts[*t as usize]).to_string()),
                })
                .collect(),
        }
    }

    /// The whole document as an owned [`Element`].
    pub fn root_element(&self) -> Element {
        self.to_element(self.root)
    }

    /// Serializes the subtree at `id` in compact form, byte-identical
    /// to [`Element::to_xml`] of the same tree. Values are stored
    /// unescaped, so escaping happens on the way out.
    pub fn serialize_node(&self, id: NodeId, out: &mut String) {
        let e = &self.elems[id.0 as usize];
        out.push('<');
        out.push_str(self.name(id));
        for (n, v) in &self.attrs[e.attr_start as usize..e.attr_end as usize] {
            out.push(' ');
            out.push_str(NameInterner::resolve(*n));
            out.push_str("=\"");
            escape_attr(self.val(v), out);
            out.push('"');
        }
        if e.kid_start == e.kid_end {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for k in &self.kids[e.kid_start as usize..e.kid_end as usize] {
            match k {
                AKid::Elem(c) => self.serialize_node(*c, out),
                AKid::Text(t) => escape_text(self.val(&self.texts[*t as usize]), out),
            }
        }
        out.push_str("</");
        out.push_str(self.name(id));
        out.push('>');
    }

    /// Compact serialization of the whole document.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.buf.len());
        self.serialize_node(self.root, &mut out);
        out
    }

    /// Length of [`ArenaDoc::serialize_node`]'s output for `id`, counted
    /// without building it — the arena twin of [`Element::byte_size`].
    pub fn byte_size(&self, id: NodeId) -> usize {
        let e = &self.elems[id.0 as usize];
        let attrs: usize = self.attrs[e.attr_start as usize..e.attr_end as usize]
            .iter()
            .map(|(n, v)| {
                tag_len::attr(NameInterner::resolve(*n).len(), escaped_attr_len(self.val(v)))
            })
            .sum();
        let kids: usize = self.kids[e.kid_start as usize..e.kid_end as usize]
            .iter()
            .map(|k| match k {
                AKid::Elem(c) => self.byte_size(*c),
                AKid::Text(t) => escaped_text_len(self.val(&self.texts[*t as usize])),
            })
            .sum();
        tag_len::element(self.name(id).len(), attrs, e.kid_start == e.kid_end, kids)
    }

    /// Structural equality of two subtrees, possibly across documents,
    /// with the same semantics as `Element == Element`: attribute
    /// *sets* (order-insensitive), children order-sensitive.
    pub fn node_eq(&self, id: NodeId, other: &ArenaDoc, oid: NodeId) -> bool {
        if self.name_id(id) != other.name_id(oid) || self.attr_count(id) != other.attr_count(oid)
        {
            return false;
        }
        let e = &self.elems[id.0 as usize];
        for (n, v) in &self.attrs[e.attr_start as usize..e.attr_end as usize] {
            if other.attr_by_id(oid, *n) != Some(self.val(v)) {
                return false;
            }
        }
        let mut a = self.children(id);
        let mut b = other.children(oid);
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(ArenaChild::Text(x)), Some(ArenaChild::Text(y))) if x == y => {}
                (Some(ArenaChild::Elem(x)), Some(ArenaChild::Elem(y))) => {
                    if !self.node_eq(x, other, y) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }
}

/// In-place edits: a native store applies its updates here.
///
/// Edits are **append-range**: a mutated element gets a fresh attribute
/// or child range appended to the flat tables and its header repointed,
/// while every untouched node keeps its rows — the same structural-
/// sharing discipline as [`crate::MergeOut`]. Superseded rows become
/// arena garbage, which the document counts ([`ArenaDoc::dead_rows`]);
/// whoever keeps a document under editing bounds it by calling
/// [`ArenaDoc::compact`] once the dead rows outnumber the live ones.
impl ArenaDoc {
    /// Converts `e` into arena rows, returning the fresh subtree's root
    /// id. The subtree is unattached until a [`ArenaDoc::push_child`]
    /// or [`ArenaDoc::replace_child`].
    pub fn graft_element(&mut self, e: &Element) -> NodeId {
        self.add_element(e, &mut Vec::new())
    }

    fn rewrite_kids(&mut self, id: NodeId, new: Vec<AKid>) {
        let start = self.kids.len() as u32;
        self.kids.extend(new);
        let end = self.kids.len() as u32;
        let e = &mut self.elems[id.0 as usize];
        self.dead += (e.kid_end - e.kid_start) as usize;
        e.kid_start = start;
        e.kid_end = end;
    }

    /// Rows of the four tables the subtree at `id` occupies.
    fn subtree_rows(&self, id: NodeId) -> usize {
        let e = &self.elems[id.0 as usize];
        let own = 1 + (e.attr_end - e.attr_start) as usize + (e.kid_end - e.kid_start) as usize;
        self.kids[e.kid_start as usize..e.kid_end as usize]
            .iter()
            .map(|k| match k {
                AKid::Elem(c) => self.subtree_rows(*c),
                AKid::Text(_) => 1,
            })
            .sum::<usize>()
            + own
    }

    /// Replaces all text children of `id` with a single text node at
    /// the end of the child list — exactly [`Element::set_text`].
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        let e = self.elems[id.0 as usize];
        let old = &self.kids[e.kid_start as usize..e.kid_end as usize];
        let mut kids: Vec<AKid> =
            old.iter().filter(|k| matches!(k, AKid::Elem(_))).copied().collect();
        self.dead += old.len() - kids.len();
        let ti = self.texts.len() as u32;
        self.texts.push(AVal::Owned(text.to_string()));
        kids.push(AKid::Text(ti));
        self.rewrite_kids(id, kids);
    }

    /// Sets an attribute on `id`, replacing any existing value for the
    /// same name (in place, keeping its position) or appending —
    /// exactly [`Element::set_attr`].
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        let nid = NameInterner::intern(name);
        let e = self.elems[id.0 as usize];
        let old = e.attr_start as usize..e.attr_end as usize;
        if let Some(slot) = old.clone().find(|&slot| self.attrs[slot].0 == nid) {
            self.attrs[slot].1 = AVal::Owned(value.to_string());
            return;
        }
        let start = self.attrs.len() as u32;
        self.dead += old.len();
        self.attrs.extend_from_within(old);
        self.attrs.push((nid, AVal::Owned(value.to_string())));
        let slot = &mut self.elems[id.0 as usize];
        slot.attr_start = start;
        slot.attr_end = self.attrs.len() as u32;
    }

    /// Appends `child` (a node of this document, typically fresh from
    /// [`ArenaDoc::graft_element`]) to `parent`'s child list.
    pub fn push_child(&mut self, parent: NodeId, child: NodeId) {
        let e = self.elems[parent.0 as usize];
        let mut kids: Vec<AKid> =
            self.kids[e.kid_start as usize..e.kid_end as usize].to_vec();
        kids.push(AKid::Elem(child));
        self.rewrite_kids(parent, kids);
    }

    fn kid_slot(&self, parent: NodeId, child: NodeId) -> Option<usize> {
        let e = &self.elems[parent.0 as usize];
        (e.kid_start as usize..e.kid_end as usize)
            .find(|&slot| matches!(self.kids[slot], AKid::Elem(c) if c == child))
    }

    /// Removes element `child` from `parent`'s child list, preserving
    /// the order of the rest. Returns whether it was present. The
    /// removed subtree's rows become arena garbage.
    pub fn remove_child(&mut self, parent: NodeId, child: NodeId) -> bool {
        if self.kid_slot(parent, child).is_none() {
            return false;
        }
        self.dead += self.subtree_rows(child);
        let e = self.elems[parent.0 as usize];
        let kids: Vec<AKid> = self.kids[e.kid_start as usize..e.kid_end as usize]
            .iter()
            .filter(|k| !matches!(k, AKid::Elem(c) if *c == child))
            .copied()
            .collect();
        self.rewrite_kids(parent, kids);
        true
    }

    /// Puts `new` (a node of this document, typically fresh from
    /// [`ArenaDoc::graft_element`]) where `old` stands in `parent`'s
    /// child list. Returns whether `old` was there. The child row is
    /// overwritten where it is; only `old`'s subtree becomes garbage.
    pub fn replace_child(&mut self, parent: NodeId, old: NodeId, new: NodeId) -> bool {
        let Some(slot) = self.kid_slot(parent, old) else { return false };
        self.dead += self.subtree_rows(old);
        self.kids[slot] = AKid::Elem(new);
        true
    }

    /// The parent of every element reachable from the root, indexed by
    /// [`NodeId`] (`None` for the root and for garbage rows). One walk
    /// of the live tree — for edits that start from selected ids and
    /// need the list each one hangs in.
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut out = vec![None; self.elems.len()];
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            for c in self.child_elements(p) {
                out[c.0 as usize] = Some(p);
                stack.push(c);
            }
        }
        out
    }

    /// Table rows orphaned by edits since the document was built or
    /// last compacted.
    pub fn dead_rows(&self) -> usize {
        self.dead
    }

    /// Table rows reachable from the root.
    pub fn live_rows(&self) -> usize {
        self.elems.len() + self.attrs.len() + self.kids.len() + self.texts.len() - self.dead
    }

    /// Rebuilds the tables from the live tree, moving every value, so
    /// nothing dead is left. Every [`NodeId`] handed out before is
    /// invalid afterwards.
    pub fn compact(&mut self) {
        let mut old = std::mem::replace(self, ArenaDoc::empty());
        self.buf = std::mem::take(&mut old.buf);
        let root = old.root;
        self.root = self.move_subtree(&mut old, root, &mut Vec::new());
    }

    fn move_subtree(&mut self, old: &mut ArenaDoc, id: NodeId, scratch: &mut Vec<AKid>) -> NodeId {
        // Each live row hangs in exactly one place, so its value can be
        // taken; the placeholder left behind is never read.
        let taken = |v: &mut AVal| std::mem::replace(v, AVal::Slice(0, 0));
        let e = old.elems[id.0 as usize];
        let attr_start = self.attrs.len();
        for (n, v) in &mut old.attrs[e.attr_start as usize..e.attr_end as usize] {
            self.attrs.push((*n, taken(v)));
        }
        let (new_id, mark) = self.open(e.name, attr_start, scratch);
        for slot in e.kid_start as usize..e.kid_end as usize {
            match old.kids[slot] {
                AKid::Elem(c) => {
                    let cid = self.move_subtree(old, c, scratch);
                    scratch.push(AKid::Elem(cid));
                }
                AKid::Text(t) => {
                    let v = taken(&mut old.texts[t as usize]);
                    self.add_text(v, scratch);
                }
            }
        }
        self.close(new_id, mark, scratch)
    }
}

/// In-progress text run during content parsing. Tracks whether the run
/// is still a single contiguous raw segment (→ [`AVal::Slice`]) or has
/// been forced owned by an entity, CDATA section, or an interrupting
/// comment/PI splitting it into several segments.
struct TextRun {
    seg_start: usize,
    slice: Option<(usize, usize)>,
    acc: String,
}

impl TextRun {
    fn new(pos: usize) -> Self {
        TextRun { seg_start: pos, slice: None, acc: String::new() }
    }

    /// Closes the raw segment `[seg_start, upto)` into the run.
    fn close_seg(&mut self, input: &str, upto: usize) {
        if upto <= self.seg_start {
            return;
        }
        if self.slice.is_none() && self.acc.is_empty() {
            self.slice = Some((self.seg_start, upto));
        } else {
            self.force_owned(input);
            self.acc.push_str(&input[self.seg_start..upto]);
        }
        self.seg_start = upto;
    }

    fn force_owned(&mut self, input: &str) {
        if let Some((s, e)) = self.slice.take() {
            self.acc.push_str(&input[s..e]);
        }
    }

    /// An entity reference: raw bytes up to `at` close the segment, the
    /// resolved char goes into the owned accumulator, raw scanning
    /// resumes at `resume`.
    fn push_char(&mut self, input: &str, at: usize, c: char, resume: usize) {
        self.close_seg(input, at);
        self.force_owned(input);
        self.acc.push(c);
        self.seg_start = resume;
    }

    /// A CDATA section: like [`TextRun::push_char`] for a raw slice.
    fn push_str(&mut self, input: &str, at: usize, s: &str, resume: usize) {
        self.close_seg(input, at);
        self.force_owned(input);
        self.acc.push_str(s);
        self.seg_start = resume;
    }

    /// A comment or PI inside character data: contributes nothing, but
    /// splits the raw run into segments (which forces the owned form
    /// only if text actually continues on both sides).
    fn interrupt(&mut self, input: &str, at: usize, resume: usize) {
        self.close_seg(input, at);
        self.seg_start = resume;
    }

    /// Ends the run at a node boundary, yielding its value if any text
    /// accumulated.
    fn finish(&mut self, input: &str, at: usize) -> Option<AVal> {
        self.close_seg(input, at);
        self.seg_start = at;
        if let Some((s, e)) = self.slice.take() {
            debug_assert!(self.acc.is_empty());
            Some(AVal::Slice(s as u32, e as u32))
        } else if self.acc.is_empty() {
            None
        } else {
            Some(AVal::Owned(std::mem::take(&mut self.acc)))
        }
    }
}

/// The arena parser: same grammar and error behavior as the owned
/// [`crate::parse`], but emitting flat vectors and value slices.
struct ArenaParser<'a> {
    input: &'a str,
    pos: usize,
    elems: Vec<AElem>,
    attrs: Vec<(NameId, AVal)>,
    kids: Vec<AKid>,
    texts: Vec<AVal>,
    /// Pending children of open elements; each element drains its own
    /// suffix into the flat `kids` vector when it closes, so child
    /// ranges end up contiguous.
    scratch: Vec<AKid>,
}

impl<'a> ArenaParser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, self.input, msg)
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!DOCTYPE") {
                return Err(self.err("DTDs are not supported"));
            } else {
                return Ok(());
            }
        }
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_comment().is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                if self.skip_pi().is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.starts_with("<?"));
        match self.rest().find("?>") {
            Some(end) => {
                self.bump(end + 2);
                Ok(())
            }
            None => Err(self.err("unterminated processing instruction")),
        }
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.starts_with("<!--"));
        match self.rest()[4..].find("-->") {
            Some(end) => {
                self.bump(4 + end + 3);
                Ok(())
            }
            None => Err(self.err("unterminated comment")),
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let bytes = self.input.as_bytes();
        if self.pos >= bytes.len() || !is_name_start(bytes[self.pos]) {
            return Err(self.err("expected a name"));
        }
        while self.pos < bytes.len() && is_name_char(bytes[self.pos]) {
            self.pos += 1;
        }
        Ok(&self.input[start..self.pos])
    }

    fn parse_element(&mut self) -> Result<NodeId, ParseError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.bump(1);
        let name = NameInterner::intern(self.parse_name()?);
        let attr_start = self.attrs.len() as u32;

        let self_closing = loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.err("expected '/>'"));
                    }
                    self.bump(2);
                    break true;
                }
                Some(b'>') => {
                    self.bump(1);
                    break false;
                }
                Some(_) => {
                    let (an, av) = self.parse_attribute()?;
                    let dup = self.attrs[attr_start as usize..].iter().any(|(n, _)| *n == an);
                    if dup {
                        let an = NameInterner::resolve(an);
                        return Err(self.err(format!("duplicate attribute '{an}'")));
                    }
                    self.attrs.push((an, av));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        };
        let attr_end = self.attrs.len() as u32;
        let id = NodeId(self.elems.len() as u32);
        self.elems.push(AElem { name, attr_start, attr_end, kid_start: 0, kid_end: 0 });
        let mark = self.scratch.len();

        if !self_closing {
            self.parse_content(name)?;
            // Closing tag: parse_content stops right before "</".
            self.bump(2);
            let close = self.parse_name()?;
            if close != NameInterner::resolve(name) {
                let open = NameInterner::resolve(name);
                return Err(self.err(format!(
                    "mismatched closing tag: expected </{open}>, found </{close}>"
                )));
            }
            self.skip_ws();
            if self.peek() != Some(b'>') {
                return Err(self.err("expected '>' to end closing tag"));
            }
            self.bump(1);
            self.normalize_whitespace(mark);
        }

        let kid_start = self.kids.len() as u32;
        self.kids.extend(self.scratch.drain(mark..));
        let kid_end = self.kids.len() as u32;
        let slot = &mut self.elems[id.0 as usize];
        slot.kid_start = kid_start;
        slot.kid_end = kid_end;
        Ok(id)
    }

    /// Same rule as the owned parser: whitespace-only text children are
    /// dropped from elements that also contain element children.
    fn normalize_whitespace(&mut self, mark: usize) {
        let has_elem = self.scratch[mark..].iter().any(|k| matches!(k, AKid::Elem(_)));
        if !has_elem {
            return;
        }
        let mut write = mark;
        for i in mark..self.scratch.len() {
            let k = self.scratch[i];
            let keep = match k {
                AKid::Elem(_) => true,
                AKid::Text(t) => {
                    let s = match &self.texts[t as usize] {
                        AVal::Slice(s, e) => &self.input[*s as usize..*e as usize],
                        AVal::Owned(s) => s.as_str(),
                    };
                    !s.chars().all(char::is_whitespace)
                }
            };
            if keep {
                self.scratch[write] = k;
                write += 1;
            }
        }
        self.scratch.truncate(write);
    }

    fn parse_attribute(&mut self) -> Result<(NameId, AVal), ParseError> {
        let name = NameInterner::intern(self.parse_name()?);
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(self.err("expected '=' after attribute name"));
        }
        self.bump(1);
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.bump(1);
        let vstart = self.pos;
        // Fast scan: a value with no entity reference is a pure slice.
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                q if q == quote => {
                    let v = AVal::Slice(vstart as u32, self.pos as u32);
                    self.bump(1);
                    return Ok((name, v));
                }
                b'<' => return Err(self.err("'<' not allowed in attribute value")),
                b'&' => break,
                _ => self.pos += 1,
            }
        }
        if self.pos >= bytes.len() {
            return Err(self.err("unterminated attribute value"));
        }
        // Slow path: entity seen — fall back to an owned value.
        let mut value = self.input[vstart..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(q) if q == quote => {
                    self.bump(1);
                    return Ok((name, AVal::Owned(value)));
                }
                Some(b'<') => return Err(self.err("'<' not allowed in attribute value")),
                Some(b'&') => {
                    self.bump(1);
                    match resolve_entity(self.rest()) {
                        Some((c, n)) => {
                            value.push(c);
                            self.bump(n);
                        }
                        None => return Err(self.err("malformed entity reference")),
                    }
                }
                Some(_) => {
                    let c = self.rest().chars().next().expect("peeked");
                    value.push(c);
                    self.bump(c.len_utf8());
                }
            }
        }
    }

    fn parse_content(&mut self, elem_name: NameId) -> Result<(), ParseError> {
        let mut run = TextRun::new(self.pos);
        loop {
            if self.starts_with("</") {
                if let Some(v) = run.finish(self.input, self.pos) {
                    self.push_text(v);
                }
                return Ok(());
            }
            match self.peek() {
                None => {
                    let name = NameInterner::resolve(elem_name);
                    return Err(self.err(format!("unclosed element <{name}>")));
                }
                Some(b'<') => {
                    if self.starts_with("<!--") {
                        let at = self.pos;
                        self.skip_comment()?;
                        run.interrupt(self.input, at, self.pos);
                    } else if self.starts_with("<![CDATA[") {
                        let at = self.pos;
                        self.bump(9);
                        match self.rest().find("]]>") {
                            Some(end) => {
                                let cdata = &self.rest()[..end];
                                self.bump(end + 3);
                                run.push_str(self.input, at, cdata, self.pos);
                            }
                            None => return Err(self.err("unterminated CDATA section")),
                        }
                    } else if self.starts_with("<?") {
                        let at = self.pos;
                        self.skip_pi()?;
                        run.interrupt(self.input, at, self.pos);
                    } else {
                        if let Some(v) = run.finish(self.input, self.pos) {
                            self.push_text(v);
                        }
                        let child = self.parse_element()?;
                        self.scratch.push(AKid::Elem(child));
                        run = TextRun::new(self.pos);
                    }
                }
                Some(b'&') => {
                    let at = self.pos;
                    self.bump(1);
                    match resolve_entity(self.rest()) {
                        Some((c, n)) => {
                            self.bump(n);
                            run.push_char(self.input, at, c, self.pos);
                        }
                        None => return Err(self.err("malformed entity reference")),
                    }
                }
                Some(_) => {
                    // Raw character data: extend the current segment.
                    let c = self.rest().chars().next().expect("peeked");
                    self.bump(c.len_utf8());
                }
            }
        }
    }

    fn push_text(&mut self, v: AVal) {
        let ti = self.texts.len() as u32;
        self.texts.push(v);
        self.scratch.push(AKid::Text(ti));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn agree(src: &str) -> ArenaDoc {
        let owned = parse(src).expect("owned parse");
        let arena = ArenaDoc::parse(src).expect("arena parse");
        assert_eq!(arena.root_element(), owned, "tree mismatch for {src}");
        assert_eq!(arena.to_xml(), owned.to_xml(), "serialization mismatch for {src}");
        arena
    }

    #[test]
    fn clean_parse_is_zero_copy() {
        let d = agree(r#"<user id="arnaud"><presence>online</presence><n note="x"/></user>"#);
        assert_eq!(d.owned_value_bytes(), 0);
        assert_eq!(d.node_count(), 3);
    }

    #[test]
    fn entities_and_cdata_fall_back_to_owned() {
        let d = agree(r#"<a k="&lt;x">A&amp;B<![CDATA[<raw>]]></a>"#);
        assert!(d.owned_value_bytes() > 0);
        assert_eq!(d.text(d.root()), "A&B<raw>");
        assert_eq!(d.attr(d.root(), "k"), Some("<x"));
    }

    #[test]
    fn comment_splits_text_without_breaking_value() {
        // The owned parser yields ONE text node "ab" here.
        let d = agree("<a>a<!-- c -->b</a>");
        assert_eq!(d.text(d.root()), "ab");
        let d2 = agree("<a><!-- c -->b</a>");
        // Text entirely after the comment is still a single raw slice.
        assert_eq!(d2.owned_value_bytes(), 0);
    }

    #[test]
    fn whitespace_normalization_matches() {
        agree("<a>\n  <b>x</b>\n  <c/>\n</a>");
        agree("<a>   </a>");
        agree("<p>hello <b>world</b>!</p>");
    }

    #[test]
    fn prolog_misc_and_utf8 () {
        agree("<?xml version=\"1.0\"?>\n<!-- hi -->\n<a><b/></a>\n<!-- post -->");
        agree("<café note=\"déjà\">vü</café>");
    }

    #[test]
    fn rejects_what_owned_rejects() {
        for bad in [
            "",
            "<a",
            "<a><b>",
            "<a></b>",
            "<a/><b/>",
            "<a/>junk",
            "<!DOCTYPE html><a/>",
            r#"<a x="1" x="2"/>"#,
            "<a k=<></a>",
            "<a>&bogus;</a>",
            "<a><![CDATA[x</a>",
        ] {
            assert_eq!(
                parse(bad).is_err(),
                ArenaDoc::parse(bad).is_err(),
                "accept/reject disagreement on {bad:?}"
            );
            assert!(ArenaDoc::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn from_element_is_lossless() {
        let e = Element::new("a")
            .with_attr("id", "1")
            .with_text("  ")
            .with_child(Element::new("b").with_text("x"))
            .with_text("tail");
        // Note: `e` is NOT in normalized form; from_element must keep it.
        let d = ArenaDoc::from_element(&e);
        assert_eq!(d.root_element(), e);
        assert_eq!(d.to_xml(), e.to_xml());
    }

    #[test]
    fn from_owned_moves_the_same_tree_in() {
        let e = Element::new("a")
            .with_attr("id", "1 & 2")
            .with_text("  ")
            .with_child(Element::new("b").with_attr("k", "\"q\"").with_text("x < y"))
            .with_text("tail");
        let borrowed = ArenaDoc::from_element(&e);
        let moved = ArenaDoc::from_owned(e.clone());
        assert_eq!(moved.root_element(), e);
        assert_eq!(moved.to_xml(), borrowed.to_xml());
        assert_eq!(moved.node_count(), borrowed.node_count());
    }

    #[test]
    fn byte_size_counts_what_the_serializer_writes() {
        for src in [
            "<a/>",
            r#"<a k="v"/>"#,
            r#"<a k="&lt;&amp;&quot;&apos;&gt;">A&amp;B&lt;c&gt;<![CDATA[<raw>]]></a>"#,
            r#"<user id="u"><book><item id="1" type="p"><name>Mom &amp; Dad</name></item><item id="2"/></book>tail</user>"#,
            "<café note=\"déjà\">vü</café>",
        ] {
            let d = ArenaDoc::parse(src).unwrap();
            let mut ids = vec![d.root()];
            while let Some(id) = ids.pop() {
                let mut out = String::new();
                d.serialize_node(id, &mut out);
                assert_eq!(d.byte_size(id), out.len(), "{src} at {id:?}");
                assert_eq!(d.to_element(id).byte_size(), out.len(), "{src} at {id:?}");
                ids.extend(d.child_elements(id));
            }
        }
    }

    fn book(items: usize) -> Element {
        let mut b = Element::new("book");
        for i in 0..items {
            b.push_child(
                Element::new("item")
                    .with_attr("id", i.to_string())
                    .with_child(Element::new("name").with_text(format!("N{i}"))),
            );
        }
        b
    }

    #[test]
    fn edits_count_the_rows_they_orphan_and_compact_drops_them() {
        let owned = Element::new("user").with_attr("id", "u").with_child(book(3));
        let mut d = ArenaDoc::from_element(&owned);
        let rows = d.live_rows();
        assert_eq!(d.dead_rows(), 0);
        let b = d.child_elements(d.root()).next().unwrap();
        let first = d.child_elements(b).next().unwrap();

        // Same tree after every edit as the owned tree edited alike.
        let mut model = owned.clone();
        let fresh = d.graft_element(&book(1).children[0].as_element().unwrap().clone());
        assert!(d.replace_child(b, first, fresh));
        assert!(!d.replace_child(b, first, fresh), "the old child is gone");
        let mb = model.child_mut("book").unwrap();
        mb.children[0] = book(1).children[0].clone();
        assert_eq!(d.root_element(), model);
        // <item id><name>text</name></item>: 2 elements, 1 attribute,
        // 2 child rows, 1 text row — and the child row was overwritten.
        assert_eq!(d.dead_rows(), 6);
        assert_eq!(d.live_rows(), rows);

        let second = d.child_elements(b).nth(1).unwrap();
        assert!(d.remove_child(b, second));
        model.child_mut("book").unwrap().children.remove(1);
        assert_eq!(d.root_element(), model);
        assert_eq!(d.dead_rows(), 6 + 6 + 3, "subtree plus the rewritten 3-row child list");

        d.set_text(fresh, "t");
        d.set_text(fresh, "u");
        d.set_attr(fresh, "mark", "1");
        d.set_attr(fresh, "mark", "2");
        let item = model.child_mut("book").unwrap().child_mut("item").unwrap();
        item.set_text("u");
        item.set_attr("mark", "2");
        assert_eq!(d.root_element(), model);

        let (before, xml) = (d.live_rows(), d.to_xml());
        assert!(d.dead_rows() > 0);
        d.compact();
        assert_eq!(d.dead_rows(), 0);
        assert_eq!(d.live_rows(), before, "compaction keeps exactly the live rows");
        assert_eq!(d.to_xml(), xml);
        assert_eq!(d.root_element(), model);
        assert_eq!(d.node_count(), model.subtree_size());
    }

    #[test]
    fn compact_keeps_slices_over_the_retained_buffer() {
        let mut d =
            ArenaDoc::parse(r#"<u id="x"><a>one</a><b k="v">two &amp; three</b></u>"#).unwrap();
        let a = d.child_elements(d.root()).next().unwrap();
        let root = d.root();
        assert!(d.remove_child(root, a));
        let owned_before = d.owned_value_bytes();
        d.compact();
        assert_eq!(d.to_xml(), r#"<u id="x"><b k="v">two &amp; three</b></u>"#);
        assert_eq!(d.owned_value_bytes(), owned_before, "no slice was copied out");
    }

    #[test]
    fn parents_cover_the_live_tree_only() {
        let mut d = ArenaDoc::parse("<r><a><b/></a><c/></r>").unwrap();
        let kids: Vec<NodeId> = d.child_elements(d.root()).collect();
        let b = d.child_elements(kids[0]).next().unwrap();
        let p = d.parents();
        assert_eq!(p[d.root().0 as usize], None);
        assert_eq!(p[kids[0].0 as usize], Some(d.root()));
        assert_eq!(p[b.0 as usize], Some(kids[0]));
        let root = d.root();
        d.remove_child(root, kids[0]);
        let p = d.parents();
        assert_eq!(p[kids[0].0 as usize], None);
        assert_eq!(p[b.0 as usize], None);
        assert_eq!(p[kids[1].0 as usize], Some(root));
    }

    #[test]
    fn accessors() {
        let d = ArenaDoc::parse(r#"<u a="1" b="2"><x/>t<y/></u>"#).unwrap();
        let r = d.root();
        assert_eq!(d.name(r), "u");
        assert_eq!(d.attr_count(r), 2);
        assert_eq!(d.attr(r, "b"), Some("2"));
        assert_eq!(d.attr(r, "zz-never-interned"), None);
        assert_eq!(d.attrs(r).count(), 2);
        assert_eq!(d.child_elements(r).count(), 2);
        assert_eq!(d.children(r).count(), 3);
        assert_eq!(d.subtree_size(r), 3);
        assert_eq!(d.text(r), "t");
    }

    #[test]
    fn node_eq_matches_element_eq() {
        let a = ArenaDoc::parse(r#"<e x="1" y="2"><c>t</c></e>"#).unwrap();
        let b = ArenaDoc::parse(r#"<e y="2" x="1"><c>t</c></e>"#).unwrap();
        let c = ArenaDoc::parse(r#"<e x="1" y="3"><c>t</c></e>"#).unwrap();
        assert!(a.node_eq(a.root(), &b, b.root()));
        assert!(!a.node_eq(a.root(), &c, c.root()));
        assert_eq!(a.root_element(), b.root_element());
    }
}
